// Join-kernel throughput benchmark: the flat-arena store + planned join
// against a faithful copy of the PRE-CHANGE kernel (std::vector<Tuple>
// rows, one heap allocation per tuple, std::unordered_map column indexes
// keyed by gathered key tuples, body-order nested-loop join) kept below
// under namespace legacy.  Emits BENCH_datalog.json so future PRs can
// track the trajectory.
//
// Workloads:
//   wide_fanout — path2(X,Z) :- edge(X,Y), edge(Y,Z) over a regular
//                 digraph; every probe fans out to `fan` rows (the
//                 bulk-join case the arena layout targets).
//   point_join  — hit(X,Y) :- probe(X), fact(X,Y) with unique-X facts;
//                 every probe yields at most one row, so per-probe
//                 overhead (key gather, hash, allocation) dominates.
//   delta_join  — dtc(X,Z) :- sg(X,Y), edge(Y,Z) with sg restricted to a
//                 small delta slice per round, the semi-naive hot path.
//   rederive    — N IsDerivable point checks of a1(X,V) :- base(X,G),
//                 sa(G,V) over a 100 k-row base, the DRed rederive and B/F
//                 probe query.  No legacy side: its exact `bindings` count
//                 gates that the ground head is planned bound (one binding
//                 per check, not a relation scan).
//
// Usage: micro_join [--out=BENCH_datalog.json] [--scale=1.0]
//                   [--trace=out.json]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "datalog/eval.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

using datalog::DeltaRestriction;
using datalog::EvalStats;
using datalog::Program;
using datalog::RelationStore;
using datalog::Tuple;
using datalog::Value;

namespace legacy {

// --- The pre-change storage: one heap vector per tuple, std-combine hash.
// The legacy side keeps its own row type, so a change to datalog::Tuple
// never moves the baseline the kernel is compared against.
using Tuple = std::vector<Value>;

struct TupleHash {
  std::size_t operator()(const Tuple& t) const {
    std::size_t h = t.size();
    for (const Value v : t) {
      h ^= std::hash<std::uint64_t>{}(v.Bits()) + 0x9e3779b9 + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

struct Relation {
  std::vector<Tuple> rows;
  // Column index: gathered key tuple -> row ids, built once per (columns).
  using Index = std::unordered_map<Tuple, std::vector<std::uint32_t>, TupleHash>;
  std::unordered_map<std::uint64_t, Index> indexes;

  void Insert(datalog::RowView t) { rows.emplace_back(t.begin(), t.end()); }

  const Index& IndexOn(const std::vector<std::size_t>& columns) {
    std::uint64_t mask = 0;
    for (const std::size_t c : columns) {
      mask |= std::uint64_t{1} << c;
    }
    Index& index = indexes[mask];
    if (index.empty() && !rows.empty()) {
      for (std::uint32_t r = 0; r < rows.size(); ++r) {
        Tuple key;
        key.reserve(columns.size());
        for (const std::size_t c : columns) {
          key.push_back(rows[r][c]);
        }
        index[std::move(key)].push_back(r);
      }
    }
    return index;
  }
};

/// The pre-change kernel ran every join through a generic binding
/// environment: dynamically checked bound flags, an undo stack, and an
/// emission callback behind std::function.  The loops below keep exactly
/// those costs (they are, if anything, leaner: fixed arrays instead of
/// per-rule heap vectors, and no planner or stats).
struct Env {
  std::array<Value, 4> vals{};
  std::array<char, 4> bound{};
  std::array<std::uint32_t, 4> undo{};
  std::size_t undo_n = 0;

  bool Bind(std::uint32_t var, Value v) {
    if (bound[var] != 0) {
      return vals[var] == v;
    }
    bound[var] = 1;
    vals[var] = v;
    undo[undo_n++] = var;
    return true;
  }
  void UnwindTo(std::size_t mark) {
    while (undo_n > mark) {
      bound[undo[--undo_n]] = 0;
    }
  }
};

/// Body-order two-literal join: scan `outer` (binding its columns to vars
/// 0..arity-1), probe `inner` on column `inner_col` = the binding of var
/// `outer_col`, bind the inner non-key column, and emit
/// (vals[emit0], vals[inner's var]).  Gathers a fresh key tuple per probe
/// and a fresh head tuple per result, exactly as the pre-change kernel
/// did.  Inner literals are (key, payload) pairs: key at column 0.
std::uint64_t JoinScanProbe(Relation& outer, Relation& inner,
                            std::size_t outer_col, std::size_t inner_col,
                            std::size_t emit0, std::size_t emit1) {
  std::uint64_t checksum = 0;
  const std::function<void(const Tuple&)> emit = [&checksum](const Tuple& t) {
    checksum += t[0].Bits() ^ t[1].Bits();
  };
  const Relation::Index& index = inner.IndexOn({inner_col});
  const auto inner_var =
      static_cast<std::uint32_t>(outer.rows.front().size());
  Env env;
  for (const Tuple& row : outer.rows) {
    const std::size_t mark = env.undo_n;
    bool ok = true;
    for (std::uint32_t c = 0; c < row.size(); ++c) {
      ok = ok && env.Bind(c, row[c]);
    }
    if (ok) {
      const Tuple key{env.vals[outer_col]};
      const auto hit = index.find(key);
      if (hit != index.end()) {
        for (const std::uint32_t r : hit->second) {
          const std::size_t inner_mark = env.undo_n;
          if (env.Bind(inner_var, inner.rows[r][emit1])) {
            Tuple head{env.vals[emit0], env.vals[inner_var]};
            emit(head);
          }
          env.UnwindTo(inner_mark);
        }
      }
    }
    env.UnwindTo(mark);
  }
  return checksum;
}

/// Same join, outer side replaced by an explicit delta slice.
std::uint64_t JoinDeltaProbe(const std::vector<Tuple>& delta, Relation& inner,
                             std::size_t outer_col, std::size_t inner_col,
                             std::size_t emit0, std::size_t emit1) {
  std::uint64_t checksum = 0;
  const std::function<void(const Tuple&)> emit = [&checksum](const Tuple& t) {
    checksum += t[0].Bits() ^ t[1].Bits();
  };
  const Relation::Index& index = inner.IndexOn({inner_col});
  const auto inner_var = static_cast<std::uint32_t>(delta.front().size());
  Env env;
  for (const Tuple& row : delta) {
    const std::size_t mark = env.undo_n;
    bool ok = true;
    for (std::uint32_t c = 0; c < row.size(); ++c) {
      ok = ok && env.Bind(c, row[c]);
    }
    if (ok) {
      const Tuple key{env.vals[outer_col]};
      const auto hit = index.find(key);
      if (hit != index.end()) {
        for (const std::uint32_t r : hit->second) {
          const std::size_t inner_mark = env.undo_n;
          if (env.Bind(inner_var, inner.rows[r][emit1])) {
            Tuple head{env.vals[emit0], env.vals[inner_var]};
            emit(head);
          }
          env.UnwindTo(inner_mark);
        }
      }
    }
    env.UnwindTo(mark);
  }
  return checksum;
}

}  // namespace legacy

struct Row {
  std::string workload;
  std::uint64_t rows_emitted = 0;
  double legacy_seconds = 0.0;
  double kernel_seconds = 0.0;

  [[nodiscard]] double Speedup() const {
    return kernel_seconds > 0.0 ? legacy_seconds / kernel_seconds : 0.0;
  }
};

void Report(const Row& r) {
  std::printf("%-12s %10llu rows  legacy %10s  kernel %10s  %5.2fx\n",
              r.workload.c_str(),
              static_cast<unsigned long long>(r.rows_emitted),
              util::FormatSeconds(r.legacy_seconds).c_str(),
              util::FormatSeconds(r.kernel_seconds).c_str(), r.Speedup());
}

/// Times `reps` runs of the planned kernel over `rule_text`'s single rule.
double TimeKernel(const Program& program, const RelationStore& store,
                  const DeltaRestriction& restriction, std::size_t reps,
                  std::uint64_t& checksum, std::uint64_t& emitted) {
  EvalStats stats;
  const std::function<void(const Tuple&)> emit =
      [&checksum, &emitted](const Tuple& t) {
        checksum += t[0].Bits() ^ t[1].Bits();
        ++emitted;
      };
  // Warm the index cache once outside the window (the legacy side's
  // IndexOn is likewise pre-built by its first timed run's warmup below).
  EvalStats warm_stats;
  std::uint64_t sink = 0;
  const std::function<void(const Tuple&)> warm =
      [&sink](const Tuple& t) { sink += t[0].Bits(); };
  ApplyRule(program, store, program.rules[0], restriction, warm_stats, warm);

  checksum = 0;
  emitted = 0;
  util::WallTimer timer;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    ApplyRule(program, store, program.rules[0], restriction, stats, emit);
  }
  return timer.ElapsedSeconds();
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  using namespace dsched::bench;
  MicroBenchArgs args;
  args.out = "BENCH_datalog.json";
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const std::string& out_path = args.out;
  const std::string& trace_path = args.trace;
  const double scale = args.scale;
  const auto scaled = [scale](std::size_t n) {
    return static_cast<std::size_t>(static_cast<double>(n) * scale);
  };
  const auto session = MaybeStartTrace(trace_path);
  std::vector<Row> rows;

  // --- wide_fanout: regular digraph, every node -> `fan` successors.
  {
    const std::size_t nodes = scaled(1200);
    const std::size_t fan = 16;
    const std::size_t reps = scaled(20);
    const Program program =
        datalog::ParseProgram("path2(X, Z) :- edge(X, Y), edge(Y, Z).");
    RelationStore store(program);
    const auto edge = program.PredicateId("edge");
    legacy::Relation legacy_edge;
    store.Of(edge).Reserve(nodes * fan);
    for (std::size_t u = 0; u < nodes; ++u) {
      for (std::size_t k = 0; k < fan; ++k) {
        const auto v = (u * 31 + k * 17 + 1) % nodes;
        const Tuple t{Value::Int(static_cast<std::int64_t>(u)),
                      Value::Int(static_cast<std::int64_t>(v))};
        if (store.Of(edge).Insert(t)) {
          legacy_edge.Insert(t);
        }
      }
    }

    Row row;
    row.workload = "wide_fanout";
    std::uint64_t legacy_sum = 0;
    legacy::JoinScanProbe(legacy_edge, legacy_edge, 1, 0, 0, 1);  // warmup
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      legacy_sum = legacy::JoinScanProbe(legacy_edge, legacy_edge, 1, 0, 0, 1);
    }
    row.legacy_seconds = timer.ElapsedSeconds();

    std::uint64_t kernel_sum = 0;
    std::uint64_t emitted = 0;
    row.kernel_seconds = TimeKernel(program, store, DeltaRestriction{}, reps,
                                    kernel_sum, emitted);
    row.rows_emitted = emitted / reps;
    if (legacy_sum != kernel_sum / reps) {
      std::fprintf(stderr, "wide_fanout checksum mismatch\n");
      return 1;
    }
    Report(row);
    rows.push_back(row);
  }

  // --- point_join: unique-X facts, every probe yields at most one row.
  {
    const std::size_t facts = scaled(100000);
    const std::size_t reps = scaled(20);
    const Program program =
        datalog::ParseProgram("hit(X, Y) :- probe(X), fact(X, Y).");
    RelationStore store(program);
    const auto fact = program.PredicateId("fact");
    const auto probe = program.PredicateId("probe");
    legacy::Relation legacy_fact;
    legacy::Relation legacy_probe;
    store.Of(fact).Reserve(facts);
    store.Of(probe).Reserve(facts);
    // Keys are scattered (odd-constant multiply, a bijection mod 2^32) so
    // point probes hit arbitrary buckets — sequential keys would hand an
    // identity-hash map artificial locality no real workload has.
    const auto scatter = [](std::size_t i) {
      return static_cast<std::int64_t>(
          (i * 2654435761ULL) & 0xffffffffULL);
    };
    for (std::size_t i = 0; i < facts; ++i) {
      const Tuple f{Value::Int(scatter(i) * 2),
                    Value::Int(static_cast<std::int64_t>(i % 97))};
      store.Of(fact).Insert(f);
      legacy_fact.Insert(f);
      // Every other probe misses (odd keys never occur in fact).
      const Tuple p{Value::Int(scatter(i) * 2 +
                               ((i % 2 == 0) ? 0 : 1))};
      store.Of(probe).Insert(p);
      legacy_probe.Insert(p);
    }

    Row row;
    row.workload = "point_join";
    std::uint64_t legacy_sum = 0;
    legacy::JoinScanProbe(legacy_probe, legacy_fact, 0, 0, 0, 1);  // warmup
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      legacy_sum = legacy::JoinScanProbe(legacy_probe, legacy_fact, 0, 0, 0, 1);
    }
    row.legacy_seconds = timer.ElapsedSeconds();

    std::uint64_t kernel_sum = 0;
    std::uint64_t emitted = 0;
    row.kernel_seconds = TimeKernel(program, store, DeltaRestriction{}, reps,
                                    kernel_sum, emitted);
    row.rows_emitted = emitted / reps;
    if (legacy_sum != kernel_sum / reps) {
      std::fprintf(stderr, "point_join checksum mismatch\n");
      return 1;
    }
    Report(row);
    rows.push_back(row);
  }

  // --- delta_join: small delta slices against a large indexed relation.
  {
    const std::size_t edges = scaled(200000);
    const std::size_t delta_rows = 1024;
    const std::size_t reps = scaled(100);
    const Program program =
        datalog::ParseProgram("dtc(X, Z) :- sg(X, Y), edge(Y, Z).");
    RelationStore store(program);
    const auto edge = program.PredicateId("edge");
    legacy::Relation legacy_edge;
    store.Of(edge).Reserve(edges);
    const std::size_t keys = edges / 4;  // fan-out ~4 per key
    for (std::size_t i = 0; i < edges; ++i) {
      const Tuple t{Value::Int(static_cast<std::int64_t>(i % keys)),
                    Value::Int(static_cast<std::int64_t>(i))};
      store.Of(edge).Insert(t);
      legacy_edge.Insert(t);
    }
    std::vector<Tuple> delta;
    delta.reserve(delta_rows);
    for (std::size_t i = 0; i < delta_rows; ++i) {
      delta.push_back({Value::Int(static_cast<std::int64_t>(i)),
                       Value::Int(static_cast<std::int64_t>((i * 131) % keys))});
    }
    DeltaRestriction restriction;
    restriction.body_index = 0;
    restriction.rows = delta;
    std::vector<legacy::Tuple> legacy_delta;
    legacy_delta.reserve(delta.size());
    for (const Tuple& t : delta) {
      legacy_delta.emplace_back(t.begin(), t.end());
    }

    Row row;
    row.workload = "delta_join";
    std::uint64_t legacy_sum = 0;
    legacy::JoinDeltaProbe(legacy_delta, legacy_edge, 1, 0, 0, 1);  // warmup
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      legacy_sum =
          legacy::JoinDeltaProbe(legacy_delta, legacy_edge, 1, 0, 0, 1);
    }
    row.legacy_seconds = timer.ElapsedSeconds();

    std::uint64_t kernel_sum = 0;
    std::uint64_t emitted = 0;
    row.kernel_seconds =
        TimeKernel(program, store, restriction, reps, kernel_sum, emitted);
    row.rows_emitted = emitted / reps;
    if (legacy_sum != kernel_sum / reps) {
      std::fprintf(stderr, "delta_join checksum mismatch\n");
      return 1;
    }
    Report(row);
    rows.push_back(row);
  }

  // --- rederive: point checks with the head bound.  Each check names a
  // key's group value (k = 0, 1) or a value no group carries (k = 2).
  std::uint64_t rederive_found = 0;
  std::uint64_t rederive_bindings = 0;
  double rederive_seconds = 0.0;
  {
    const std::size_t keys = std::max<std::size_t>(1, scaled(100000));
    const std::size_t checks = scaled(20000);
    const std::int64_t groups = 64;
    const Program program =
        datalog::ParseProgram("a1(X, V) :- base(X, G), sa(G, V).");
    RelationStore store(program);
    const auto base = program.PredicateId("base");
    const auto sa = program.PredicateId("sa");
    store.Of(base).Reserve(keys);
    for (std::size_t x = 0; x < keys; ++x) {
      const auto key = static_cast<std::int64_t>(x);
      store.Of(base).Insert({Value::Int(key), Value::Int(key % groups)});
    }
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t k = 0; k < 2; ++k) {
        store.Of(sa).Insert({Value::Int(g), Value::Int(1000 * g + k)});
      }
    }
    std::vector<Tuple> heads;
    heads.reserve(checks);
    for (std::size_t i = 0; i < checks; ++i) {
      const auto x = static_cast<std::int64_t>((i * 2654435761ULL) % keys);
      const auto k = static_cast<std::int64_t>(i % 3);
      heads.push_back({Value::Int(x), Value::Int(1000 * (x % groups) + k)});
    }
    EvalStats stats;
    util::WallTimer timer;
    for (const Tuple& head : heads) {
      rederive_found += datalog::IsDerivable(program, store, program.rules[0],
                                             head, stats)
                            ? 1u
                            : 0u;
    }
    rederive_seconds = timer.ElapsedSeconds();
    rederive_bindings = stats.bindings_explored;
    std::printf("%-12s %10llu hits  bindings %llu over %zu checks  kernel %s\n",
                "rederive", static_cast<unsigned long long>(rederive_found),
                static_cast<unsigned long long>(rederive_bindings), checks,
                util::FormatSeconds(rederive_seconds).c_str());
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_join\",\n  \"scale\": %f,\n",
               scale);
  std::fprintf(out, "  \"summary\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "    \"%s_speedup\": %.2f%s\n", rows[i].workload.c_str(),
                 rows[i].Speedup(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  },\n  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"rows_emitted\": %llu, "
                 "\"legacy_seconds\": %.6f, \"kernel_seconds\": %.6f, "
                 "\"speedup\": %.2f}%s\n",
                 r.workload.c_str(),
                 static_cast<unsigned long long>(r.rows_emitted),
                 r.legacy_seconds, r.kernel_seconds, r.Speedup(), ",");
  }
  std::fprintf(out,
               "    {\"workload\": \"rederive\", \"rows_emitted\": %llu, "
               "\"bindings\": %llu, \"kernel_seconds\": %.6f}\n",
               static_cast<unsigned long long>(rederive_found),
               static_cast<unsigned long long>(rederive_bindings),
               rederive_seconds);
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  obs::MetricsRegistry metrics;
  for (const Row& r : rows) {
    const std::string key = "micro_join." + r.workload + ".";
    metrics.Set(key + "rows_emitted", r.rows_emitted);
    metrics.Set(key + "legacy_ns",
                static_cast<std::uint64_t>(r.legacy_seconds * 1e9));
    metrics.Set(key + "kernel_ns",
                static_cast<std::uint64_t>(r.kernel_seconds * 1e9));
    metrics.Set(key + "speedup_x100",
                static_cast<std::uint64_t>(r.Speedup() * 100.0));
  }
  metrics.Set("micro_join.rederive.rows_emitted", rederive_found);
  metrics.Set("micro_join.rederive.bindings", rederive_bindings);
  metrics.Set("micro_join.rederive.kernel_ns",
              static_cast<std::uint64_t>(rederive_seconds * 1e9));
  PrintMetrics(metrics);
  FinishTrace(session.get(), trace_path);
  return 0;
}
