#include "workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr const char* kTcProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
)";

// Four chains of six levels: 24 non-recursive rule components over six
// dependency levels.  Each chain's first level joins the base key's group
// against a static two-column relation loaded at set-up, so one base fact
// derives two rows on every level of every chain.
constexpr const char* kWideProgram = R"(
  a1(X, V) :- base(X, G), sa(G, V).  b1(X, V) :- base(X, G), sb(G, V).
  c1(X, V) :- base(X, G), sc(G, V).  d1(X, V) :- base(X, G), sd(G, V).
  a2(X, V) :- a1(X, V).  b2(X, V) :- b1(X, V).
  c2(X, V) :- c1(X, V).  d2(X, V) :- d1(X, V).
  a3(X, V) :- a2(X, V).  b3(X, V) :- b2(X, V).
  c3(X, V) :- c2(X, V).  d3(X, V) :- d2(X, V).
  a4(X, V) :- a3(X, V).  b4(X, V) :- b3(X, V).
  c4(X, V) :- c3(X, V).  d4(X, V) :- d3(X, V).
  a5(X, V) :- a4(X, V).  b5(X, V) :- b4(X, V).
  c5(X, V) :- c4(X, V).  d5(X, V) :- d4(X, V).
  a6(X, V) :- a5(X, V).  b6(X, V) :- b5(X, V).
  c6(X, V) :- c5(X, V).  d6(X, V) :- d5(X, V).
)";
constexpr const char* kStaticPredicates[] = {"sa", "sb", "sc", "sd"};

// tc_churn sizes its digraph like micro_maint's tc cells: 96 vertices, here at
// 12% density so one giant SCC survives any seed's churn; tc holds ~v^2 rows
// and a deleted edge puts a large cone under B/F probing.
constexpr std::int64_t kTcVertices = 96;
constexpr double kTcDensity = 0.12;
constexpr std::size_t kTcBatchOps = 12;
/// Far more batches than one closed-loop phase sends.
constexpr std::size_t kTcStreamCap = 16384;
/// tc_churn's exact counts are taken after this many batches, a prefix
/// every run reaches, so they do not depend on how fast the run was.
constexpr std::size_t kTcRefBatches = 32;

constexpr std::int64_t kGroups = 256;
constexpr std::size_t kStaticPerGroup = 2;
/// Wide batches: half fresh-key inserts, half deletes of the connection's
/// own older keys, so the store keeps its set-up size through a phase.
constexpr std::size_t kWideBatchOps = 8;
constexpr std::size_t kWideDeletes = 4;
/// A key becomes deletable once its connection has sent this many later
/// batches.
constexpr std::size_t kDeleteLag = 4;
constexpr std::size_t kWideOpenKeys = 1000;
/// read_mix's store is this many times wide_open's: large enough to exceed
/// the reference host's last-level cache (README.md, "Workloads").
constexpr std::size_t kReadMixScale = 40;

/// Offered rates, fixed after measuring wide_open's saturation rate on the
/// reference host (README.md, "Rates").
constexpr double kWideOpenRate = 330.0;
constexpr double kReadMixUpdateRate = 12.0;
constexpr double kReadMixQueryRate = 6.0;
/// Quiesced QUERYs after the timed phase (README.md, "End-to-end metrics").
constexpr std::size_t kBurstQueries = 200;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t GroupOf(std::uint64_t seed, std::int64_t key) {
  return static_cast<std::int64_t>(
      Mix(seed ^ Mix(static_cast<std::uint64_t>(key))) %
      static_cast<std::uint64_t>(kGroups));
}

void GenerateTc(const Spec& spec, std::uint64_t seed, Inputs* out) {
  dsched::util::Rng rng(Mix(seed) ^ 0x7c17ULL);
  const auto pair_key = [](std::int64_t a, std::int64_t b) {
    return a * kTcVertices + b;
  };
  const auto vertex = [&rng] {
    return static_cast<std::int64_t>(
        rng.NextBelow(static_cast<std::uint64_t>(kTcVertices)));
  };
  // Exactly the expected edge count, and batches of exactly half deletes
  // and half inserts: every seed keeps the same graph size throughout, so
  // seeds differ in shape, not in how much work a batch does.
  std::vector<std::pair<std::int64_t, std::int64_t>> live;
  for (std::int64_t i = 0; i < kTcVertices; ++i) {
    for (std::int64_t j = 0; j < kTcVertices; ++j) {
      if (i != j) {
        live.emplace_back(i, j);
      }
    }
  }
  rng.Shuffle(live);
  live.resize(static_cast<std::size_t>(kTcDensity *
                                       static_cast<double>(live.size())));
  std::unordered_set<std::int64_t> present;
  for (const auto& [a, b] : live) {
    out->setup.push_back({"e", a, b});
    present.insert(pair_key(a, b));
  }
  std::vector<Batch>& stream = out->streams.emplace_back();
  stream.reserve(kTcStreamCap);
  for (std::size_t n = 0; n < kTcStreamCap; ++n) {
    // Deletes pick edges live when the batch starts and inserts pick pairs
    // absent from it, so no batch inserts and deletes the same edge.
    Batch batch;
    std::vector<std::pair<std::int64_t, std::int64_t>> fresh;
    std::vector<std::int64_t> gone;
    for (std::size_t i = 0; i < spec.batch_ops; ++i) {
      if (i % 2 == 0) {
        const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
        const auto [a, b] = live[idx];
        batch.push_back({false, a, b});
        gone.push_back(pair_key(a, b));
        live[idx] = live.back();
        live.pop_back();
        continue;
      }
      for (int tries = 0; tries < 64; ++tries) {
        const std::int64_t a = vertex();
        const std::int64_t b = vertex();
        if (a != b && present.insert(pair_key(a, b)).second) {
          batch.push_back({true, a, b});
          fresh.emplace_back(a, b);
          break;
        }
      }
    }
    for (const std::int64_t k : gone) {
      present.erase(k);
    }
    live.insert(live.end(), fresh.begin(), fresh.end());
    stream.push_back(std::move(batch));
  }
}

void GenerateWide(const Spec& spec, std::uint64_t seed, double phase_seconds,
                  Inputs* out) {
  dsched::util::Rng rng(Mix(seed) ^ 0x51deULL);
  for (const char* predicate : kStaticPredicates) {
    for (std::int64_t g = 0; g < kGroups; ++g) {
      for (std::size_t j = 0; j < kStaticPerGroup; ++j) {
        out->setup.push_back(
            {predicate, g, static_cast<std::int64_t>(rng.NextBelow(1u << 20))});
      }
    }
  }
  for (std::size_t k = 0; k < spec.preload_keys; ++k) {
    const auto key = static_cast<std::int64_t>(k);
    out->setup.push_back({"base", key, GroupOf(seed, key)});
  }
  for (int conn = 0; conn < spec.update_conns; ++conn) {
    dsched::util::Rng crng(Mix(seed + static_cast<std::uint64_t>(conn) + 1));
    // Keys are per-connection disjoint and never reused, so the final
    // store does not depend on how the server interleaves connections.
    const std::int64_t block = static_cast<std::int64_t>(conn + 1) << 32;
    std::int64_t next = 0;
    std::vector<std::vector<std::int64_t>> inserted;  // per batch
    std::vector<std::int64_t> deletable;
    const std::size_t length =
        DueBefore(spec.update_rate, spec.update_conns, conn, phase_seconds);
    std::vector<Batch>& stream = out->streams.emplace_back();
    stream.reserve(length);
    for (std::size_t b = 0; b < length; ++b) {
      if (b >= kDeleteLag) {
        const std::vector<std::int64_t>& old = inserted[b - kDeleteLag];
        deletable.insert(deletable.end(), old.begin(), old.end());
      }
      Batch batch;
      for (std::size_t d = 0; d < kWideDeletes && !deletable.empty(); ++d) {
        const auto idx =
            static_cast<std::size_t>(crng.NextBelow(deletable.size()));
        const std::int64_t key = deletable[idx];
        deletable[idx] = deletable.back();
        deletable.pop_back();
        batch.push_back({false, key, GroupOf(seed, key)});
      }
      std::vector<std::int64_t>& mine = inserted.emplace_back();
      while (batch.size() < spec.batch_ops) {
        const std::int64_t key = block + next++;
        batch.push_back({true, key, GroupOf(seed, key)});
        mine.push_back(key);
      }
      stream.push_back(std::move(batch));
    }
  }
}

}  // namespace

Spec MakeSpec(const std::string& workload, int nproc) {
  Spec s;
  s.name = workload;
  s.burst_queries = kBurstQueries;
  if (workload == "tc_churn") {
    s.program = kTcProgram;
    s.change_predicate = "e";
    s.query_predicate = "tc";
    s.strategy = "bf";
    s.pipeline_depth = 1;
    s.closed_loop = true;
    s.update_conns = 1;
    s.batch_ops = kTcBatchOps;
    s.ref_batches = kTcRefBatches;
    return s;
  }
  if (workload != "wide_open" && workload != "read_mix") {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (want tc_churn, wide_open or read_mix)");
  }
  s.program = kWideProgram;
  s.change_predicate = "base";
  s.query_predicate = "a6";
  s.strategy = "dred";
  s.pipeline_depth = 4;
  s.batch_ops = kWideBatchOps;
  if (workload == "wide_open") {
    s.update_conns = nproc;
    s.update_rate = kWideOpenRate;
    s.preload_keys = kWideOpenKeys;
  } else {
    s.update_conns = std::max(1, nproc / 2);
    s.query_conns = std::max(1, nproc - s.update_conns);
    s.update_rate = kReadMixUpdateRate;
    s.query_rate = kReadMixQueryRate;
    s.preload_keys = kReadMixScale * kWideOpenKeys;
  }
  return s;
}

double DueAt(double rate, int conns, int conn, std::size_t i) {
  return (static_cast<double>(i) * conns + conn) / rate;
}

std::size_t DueBefore(double rate, int conns, int conn, double seconds) {
  std::size_t n = 0;
  if (rate > 0.0) {
    while (DueAt(rate, conns, conn, n) < seconds) {
      ++n;
    }
  }
  return n;
}

Inputs Generate(const Spec& spec, std::uint64_t seed, double phase_seconds) {
  Inputs in;
  if (spec.closed_loop) {
    GenerateTc(spec, seed, &in);
  } else {
    GenerateWide(spec, seed, phase_seconds, &in);
  }
  return in;
}

}  // namespace perfbench
