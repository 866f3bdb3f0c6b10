// Seeded inputs of the wire-to-store benchmark (perfbench/README.md).
//
// Everything the server sees is generated here from the workload seed: the
// facts loaded at set-up and one update stream per generator connection.
// The same (workload, seed, phase length, core count) always yields the
// same facts and streams, so every depth of a traced run, and the serial
// oracle, replay identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One base-fact change.  Every changed predicate has arity 2: tc's
/// e(from, to) and the wide program's base(key, group).
struct Op {
  bool insert = true;
  std::int64_t a = 0;
  std::int64_t b = 0;
};
using Batch = std::vector<Op>;

/// A fact loaded at set-up, before the timed phase.
struct Fact {
  const char* predicate = "";
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// One workload: program, session options and load shape.
struct Spec {
  std::string name;
  const char* program = "";
  const char* change_predicate = "";  ///< the predicate every op mutates
  const char* query_predicate = "";   ///< the derived predicate QUERY reads
  const char* strategy = "dred";
  std::uint32_t pipeline_depth = 1;
  bool closed_loop = false;  ///< one connection, one batch outstanding
  int update_conns = 1;
  int query_conns = 0;
  double update_rate = 0.0;  ///< offered batches/s over all update conns
  double query_rate = 0.0;   ///< offered QUERYs/s over all query conns
  std::size_t batch_ops = 0;
  std::size_t preload_keys = 0;   ///< wide program: base keys at set-up
  std::size_t burst_queries = 0;  ///< quiesced QUERYs after the phase
  std::size_t ref_batches = 0;    ///< exact-count checkpoint; 0 = all
};

/// The named workload for a host with `nproc` cores.  Throws
/// std::invalid_argument for an unknown name.
Spec MakeSpec(const std::string& workload, int nproc);

/// Seconds after phase start at which item `i` of connection `conn` is
/// due, when `conns` connections share `rate` items per second, evenly
/// interleaved.
double DueAt(double rate, int conns, int conn, std::size_t i);

/// How many items of connection `conn` are due before `seconds`.
std::size_t DueBefore(double rate, int conns, int conn, double seconds);

struct Inputs {
  std::vector<Fact> setup;                  ///< static + initial facts
  std::vector<std::vector<Batch>> streams;  ///< one per update connection
};

/// Open-loop streams hold exactly the batches due in `phase_seconds`; the
/// closed-loop stream holds more than one phase can send.
Inputs Generate(const Spec& spec, std::uint64_t seed, double phase_seconds);

}  // namespace perfbench
