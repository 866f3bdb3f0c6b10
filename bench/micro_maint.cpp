// Maintenance-strategy benchmark: DRed vs Backward/Forward on the same
// update streams, sweeping insert/delete mix and worker count over two
// shapes that bracket the design space:
//
//   fanout — wide fan-out with fully redundant support:
//            mid(X) :- b1(X).  mid(X) :- b2(X).  d1..d4(X) :- mid(X).
//            Deleting b1 rows never changes mid (b2 still supports it), so
//            DRed's overdelete/rederive round-trip is pure waste.
//   tc     — transitive closure of a random digraph with a giant SCC.
//            Backward/Forward probes the affected cone read-only and only
//            erases proven deaths.
//
// Each (shape, mix) pre-generates one deterministic update stream and
// replays it under every strategy × worker count.  Final stores must agree:
// the harness cross-checks an order-independent checksum per cell, so the
// bench doubles as an equivalence stress.  `maint_ops` is the uniform
// deletion-pipeline effort metric every strategy reports
// (ComponentUpdateStats::maint_ops); the deletion-heavy summary ratios are
// self-gated at >= 2x, the tentpole's acceptance bar.
//
// The w4 cells run on one shared 4-worker TaskRouter built before any
// timer starts, the way the service runs every cascade, so they time the
// serving path and not thread start-up.
//
// NOTE on determinism: serial maint_ops are exactly reproducible and CI
// gates them exactly.  Parallel B/F re-probe counts depend on physical row
// order (scheduling-dependent), so w4 op counts are only banded.
//
// The fanout_load cells load the fanout facts into an empty store in
// insert-only batches at w1, per strategy.  Rows and checksum must equal
// Materialize of the same facts, and the load self-gates at <= 2x
// Materialize's seconds (median of 5 repeats each): the insertion pipeline
// must cost about what from-scratch evaluation does.
//
// Usage: micro_maint [--out=BENCH_maint.json] [--scale=1.0] [--trace=out.json]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "datalog/database.hpp"
#include "runtime/task_router.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

using datalog::Database;
using datalog::MaintenanceStrategy;
using datalog::ParseMaintenanceStrategy;
using datalog::RowView;
using datalog::Tuple;
using datalog::UpdateResult;
using datalog::Value;

constexpr const char* kFanoutProgram = R"(
  mid(X) :- b1(X).
  mid(X) :- b2(X).
  d1(X) :- mid(X).
  d2(X) :- mid(X).
  d3(X) :- mid(X).
  d4(X) :- mid(X).
)";

constexpr const char* kTcProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
)";

/// One pre-generated base change, replayed identically under every cell.
struct Op {
  bool insert = false;
  std::int64_t a = 0;
  std::int64_t b = 0;  ///< unused for arity-1 shapes
};

struct Workload {
  std::string name;
  const char* program = nullptr;
  const char* change_pred = nullptr;  ///< the predicate the stream mutates
  std::size_t arity = 1;
  std::vector<std::pair<const char*, Tuple>> base;
  std::vector<std::vector<Op>> batches;
};

Tuple Row1(std::int64_t a) { return {Value::Int(a)}; }
Tuple Row2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

/// fanout_<mix>: N fully-redundant keys, a stream of `del_frac` deletes of
/// live b1 rows and fresh-key b1 inserts for the rest.
Workload MakeFanout(const std::string& mix, double del_frac, double scale) {
  Workload w;
  w.name = "fanout_" + mix;
  w.program = kFanoutProgram;
  w.change_pred = "b1";
  const auto n = static_cast<std::int64_t>(4000.0 * scale);
  for (std::int64_t i = 0; i < n; ++i) {
    w.base.emplace_back("b1", Row1(i));
    w.base.emplace_back("b2", Row1(i));
  }
  util::Rng rng(0xfa40u);
  std::vector<std::int64_t> live;
  live.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    live.push_back(i);
  }
  std::int64_t next = n;
  const std::size_t ops_per_batch = static_cast<std::size_t>(160.0 * scale);
  for (std::size_t b = 0; b < 16; ++b) {
    std::vector<Op> batch;
    for (std::size_t i = 0; i < ops_per_batch; ++i) {
      if (rng.NextBool(del_frac) && !live.empty()) {
        const std::size_t idx =
            static_cast<std::size_t>(rng.NextBelow(live.size()));
        batch.push_back({.insert = false, .a = live[idx]});
        live[idx] = live.back();
        live.pop_back();
      } else {
        batch.push_back({.insert = true, .a = next});
        live.push_back(next++);
      }
    }
    w.batches.push_back(std::move(batch));
  }
  return w;
}

/// tc_<mix>: random digraph dense enough for a giant SCC (heavy path
/// redundancy), a stream of live-edge deletes and fresh-pair inserts.
Workload MakeTc(const std::string& mix, double del_frac, double scale) {
  Workload w;
  w.name = "tc_" + mix;
  w.program = kTcProgram;
  w.change_pred = "e";
  w.arity = 2;
  const auto v =
      static_cast<std::int64_t>(96.0 * std::sqrt(scale));
  util::Rng rng(0x7c17u);
  const auto key = [v](std::int64_t a, std::int64_t b) { return a * v + b; };
  std::unordered_set<std::int64_t> present;
  std::vector<std::pair<std::int64_t, std::int64_t>> live;
  for (std::int64_t i = 0; i < v; ++i) {
    for (std::int64_t j = 0; j < v; ++j) {
      if (i != j && rng.NextBool(0.08)) {
        w.base.emplace_back("e", Row2(i, j));
        present.insert(key(i, j));
        live.emplace_back(i, j);
      }
    }
  }
  for (std::size_t b = 0; b < 16; ++b) {
    std::vector<Op> batch;
    for (std::size_t i = 0; i < 12; ++i) {
      if (rng.NextBool(del_frac) && !live.empty()) {
        const std::size_t idx =
            static_cast<std::size_t>(rng.NextBelow(live.size()));
        const auto [a, bb] = live[idx];
        batch.push_back({.insert = false, .a = a, .b = bb});
        present.erase(key(a, bb));
        live[idx] = live.back();
        live.pop_back();
      } else {
        for (int tries = 0; tries < 32; ++tries) {
          const auto a = static_cast<std::int64_t>(rng.NextBelow(
              static_cast<std::uint64_t>(v)));
          const auto bb = static_cast<std::int64_t>(rng.NextBelow(
              static_cast<std::uint64_t>(v)));
          if (a == bb || present.contains(key(a, bb))) {
            continue;
          }
          batch.push_back({.insert = true, .a = a, .b = bb});
          present.insert(key(a, bb));
          live.emplace_back(a, bb);
          break;
        }
      }
    }
    w.batches.push_back(std::move(batch));
  }
  return w;
}

/// Order-independent content fingerprint over the whole store.
std::uint64_t Checksum(const Database& db) {
  std::uint64_t sum = 0;
  const datalog::RelationStore& store = db.Store();
  for (std::size_t p = 0; p < store.NumRelations(); ++p) {
    const auto pred = static_cast<std::uint32_t>(p);
    store.Of(pred).ForEachRow([&sum, pred](std::uint32_t, RowView row) {
      std::uint64_t h = pred + 1;
      for (const Value& v : row) {
        h = h * 0x100000001b3ULL + v.Bits();
      }
      sum += h;
    });
  }
  return sum;
}

struct Cell {
  std::string workload;
  std::string strategy;
  std::size_t workers = 1;  ///< 1 = serial ApplyRequest, else parallel
  std::uint64_t op_count = 0;
  std::uint64_t maint_ops = 0;
  std::uint64_t maint_avoided = 0;
  std::uint64_t checksum = 0;
  double seconds = 0.0;
};

/// Runs one cell: serially at workers == 1, else on `router`'s pool.
Cell RunCell(const Workload& w, const std::string& strategy_name,
             std::size_t workers, runtime::TaskRouter& router) {
  Cell cell;
  cell.workload = w.name;
  cell.strategy = strategy_name;
  cell.workers = workers;
  const MaintenanceStrategy strategy =
      ParseMaintenanceStrategy(strategy_name);

  Database db(w.program);
  for (const auto& [pred, tuple] : w.base) {
    db.Insert(pred, tuple);
  }
  db.Materialize();

  util::WallTimer timer;
  for (const std::vector<Op>& batch : w.batches) {
    Database::Update update = db.MakeUpdate();
    for (const Op& op : batch) {
      const Tuple row = w.arity == 1 ? Row1(op.a) : Row2(op.a, op.b);
      if (op.insert) {
        update.Insert(w.change_pred, row);
      } else {
        update.Delete(w.change_pred, row);
      }
      ++cell.op_count;
    }
    UpdateResult result;
    if (workers <= 1) {
      result = db.ApplyRequest(update.Request(), strategy);
    } else {
      result = db.ApplyRequestParallel(
                     update.Request(), router,
                     {.scheduler_spec = "hybrid", .strategy = strategy})
                   .update;
    }
    cell.maint_ops += result.total_maint_ops;
    for (const datalog::ComponentUpdateStats& c : result.components) {
      cell.maint_avoided += c.maint_avoided;
    }
  }
  cell.seconds = timer.ElapsedSeconds();
  cell.checksum = Checksum(db);
  return cell;
}

/// One fanout_load cell: the load's median seconds against Materialize's.
struct LoadCell {
  std::string strategy;
  std::uint64_t op_count = 0;
  std::uint64_t rows = 0;
  std::uint64_t checksum = 0;
  std::uint64_t maint_ops = 0;
  bool matches = true;  ///< rows and checksum equal Materialize's
  double load_seconds = 0.0;
  double materialize_seconds = 0.0;
};

constexpr std::size_t kLoadBatch = 512;  ///< facts per insert-only batch
constexpr int kLoadRepeats = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

LoadCell RunLoadCell(const Workload& w, const std::string& strategy_name) {
  LoadCell cell;
  cell.strategy = strategy_name;
  cell.op_count = w.base.size();
  const MaintenanceStrategy strategy =
      ParseMaintenanceStrategy(strategy_name);
  std::vector<double> load;
  std::vector<double> materialize;
  for (int repeat = 0; repeat < kLoadRepeats; ++repeat) {
    Database reference(w.program);
    util::WallTimer materialize_timer;
    for (const auto& [pred, tuple] : w.base) {
      reference.Insert(pred, tuple);
    }
    reference.Materialize();
    materialize.push_back(materialize_timer.ElapsedSeconds());

    Database db(w.program);
    db.Materialize();
    std::uint64_t maint_ops = 0;
    util::WallTimer load_timer;
    for (std::size_t begin = 0; begin < w.base.size(); begin += kLoadBatch) {
      Database::Update update = db.MakeUpdate();
      const std::size_t end = std::min(begin + kLoadBatch, w.base.size());
      for (std::size_t i = begin; i < end; ++i) {
        update.Insert(w.base[i].first, w.base[i].second);
      }
      maint_ops += db.ApplyRequest(update.Request(), strategy).total_maint_ops;
    }
    load.push_back(load_timer.ElapsedSeconds());

    cell.rows = db.Store().TotalTuples();
    cell.checksum = Checksum(db);
    cell.maint_ops = maint_ops;
    cell.matches = cell.matches &&
                   cell.rows == reference.Store().TotalTuples() &&
                   cell.checksum == Checksum(reference);
  }
  cell.load_seconds = Median(std::move(load));
  cell.materialize_seconds = Median(std::move(materialize));
  return cell;
}

void Report(const Cell& c) {
  std::printf("%-14s %-9s w%zu  %7llu ops  %9llu maint_ops  %8llu avoided  "
              "%10s\n",
              c.workload.c_str(), c.strategy.c_str(), c.workers,
              static_cast<unsigned long long>(c.op_count),
              static_cast<unsigned long long>(c.maint_ops),
              static_cast<unsigned long long>(c.maint_avoided),
              util::FormatSeconds(c.seconds).c_str());
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  using namespace dsched::bench;
  MicroBenchArgs args;
  args.out = "BENCH_maint.json";
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const auto session = MaybeStartTrace(args.trace);

  std::vector<Workload> workloads;
  for (const auto& [mix, del_frac] :
       {std::pair<const char*, double>{"del90", 0.9},
        {"mix50", 0.5},
        {"ins90", 0.1}}) {
    workloads.push_back(MakeFanout(mix, del_frac, args.scale));
    workloads.push_back(MakeTc(mix, del_frac, args.scale));
  }

  const char* strategies[] = {"dred", "bf"};
  const std::size_t worker_counts[] = {1, 4};
  runtime::TaskRouter router({.workers = 4});
  std::vector<Cell> cells;
  int failures = 0;
  for (const Workload& w : workloads) {
    std::uint64_t expected_checksum = 0;
    for (const char* strategy : strategies) {
      for (const std::size_t workers : worker_counts) {
        Cell cell = RunCell(w, strategy, workers, router);
        Report(cell);
        if (expected_checksum == 0) {
          expected_checksum = cell.checksum;
        } else if (cell.checksum != expected_checksum) {
          std::fprintf(stderr,
                       "FAIL %s %s w%zu: checksum %llu != %llu — strategies "
                       "diverged\n",
                       w.name.c_str(), strategy, workers,
                       static_cast<unsigned long long>(cell.checksum),
                       static_cast<unsigned long long>(expected_checksum));
          ++failures;
        }
        cells.push_back(std::move(cell));
      }
    }
  }

  // --- Insert-only loads against Materialize.
  std::vector<LoadCell> loads;
  for (const char* strategy : strategies) {
    LoadCell cell = RunLoadCell(MakeFanout("load", 0.0, args.scale), strategy);
    const double ratio = cell.load_seconds / cell.materialize_seconds;
    std::printf("%-14s %-9s w1  %7llu ops  %9llu rows  load %s  "
                "materialize %s  %.2fx\n",
                "fanout_load", strategy,
                static_cast<unsigned long long>(cell.op_count),
                static_cast<unsigned long long>(cell.rows),
                util::FormatSeconds(cell.load_seconds).c_str(),
                util::FormatSeconds(cell.materialize_seconds).c_str(), ratio);
    if (!cell.matches) {
      std::fprintf(stderr,
                   "FAIL fanout_load %s: store differs from Materialize\n",
                   strategy);
      ++failures;
    }
    if (ratio > 2.0) {
      std::fprintf(stderr,
                   "FAIL fanout_load %s: load %.2fx Materialize, above the "
                   "2.0x gate\n",
                   strategy, ratio);
      ++failures;
    }
    loads.push_back(std::move(cell));
  }

  // --- Summary ratios (serial cells; parallel op counts are
  // scheduling-order sensitive for B/F).
  const auto ops_of = [&cells](const std::string& workload,
                               const std::string& strategy) -> double {
    for (const Cell& c : cells) {
      if (c.workload == workload && c.strategy == strategy &&
          c.workers == 1) {
        return static_cast<double>(c.maint_ops);
      }
    }
    return 0.0;
  };
  struct Ratio {
    std::string key;
    double value = 0.0;
    double gate = 0.0;  ///< self-gate: fail below this (0 = ungated)
  };
  std::vector<Ratio> ratios;
  for (const Workload& w : workloads) {
    const double dred = ops_of(w.name, "dred");
    const double bf = ops_of(w.name, "bf");
    Ratio r;
    r.key = w.name + "_dred_vs_bf";
    r.value = bf > 0.0 ? dred / bf : 0.0;
    // The acceptance bar: >= 2x fewer maintenance ops than DRed on the
    // deletion-heavy sweep.
    if (w.name.find("_del90") != std::string::npos) {
      r.gate = 2.0;
    }
    ratios.push_back(std::move(r));
  }
  for (const Ratio& r : ratios) {
    std::printf("%-28s %6.2fx%s\n", r.key.c_str(), r.value,
                r.gate > 0.0 && r.value < r.gate ? "  (BELOW GATE)" : "");
    if (r.gate > 0.0 && r.value < r.gate) {
      std::fprintf(stderr, "FAIL %s: %.2fx below the %.1fx gate\n",
                   r.key.c_str(), r.value, r.gate);
      ++failures;
    }
  }
  if (failures > 0) {
    return 1;
  }

  std::string json = "{\n  \"bench\": \"micro_maint\",\n  \"scale\": " +
                     std::to_string(args.scale) + ",\n  \"summary\": {\n";
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    char line[128];
    std::snprintf(line, sizeof line, "    \"%s\": %.2f%s\n",
                  ratios[i].key.c_str(), ratios[i].value,
                  i + 1 < ratios.size() ? "," : "");
    json += line;
  }
  json += "  },\n  \"results\": [\n";
  std::vector<std::string> rows;
  for (const Cell& c : cells) {
    char line[256];
    std::snprintf(
        line, sizeof line,
        "    {\"workload\": \"%s\", \"strategy\": \"%s\", \"workers\": %zu, "
        "\"op_count\": %llu, \"maint_ops\": %llu, \"maint_avoided\": %llu, "
        "\"checksum\": %llu, \"seconds\": %.6f}",
        c.workload.c_str(), c.strategy.c_str(), c.workers,
        static_cast<unsigned long long>(c.op_count),
        static_cast<unsigned long long>(c.maint_ops),
        static_cast<unsigned long long>(c.maint_avoided),
        static_cast<unsigned long long>(c.checksum), c.seconds);
    rows.emplace_back(line);
  }
  for (const LoadCell& c : loads) {
    char line[320];
    std::snprintf(
        line, sizeof line,
        "    {\"workload\": \"fanout_load\", \"strategy\": \"%s\", "
        "\"workers\": 1, \"op_count\": %llu, \"rows\": %llu, "
        "\"maint_ops\": %llu, \"checksum\": %llu, \"load_seconds\": %.6f, "
        "\"materialize_seconds\": %.6f}",
        c.strategy.c_str(), static_cast<unsigned long long>(c.op_count),
        static_cast<unsigned long long>(c.rows),
        static_cast<unsigned long long>(c.maint_ops),
        static_cast<unsigned long long>(c.checksum), c.load_seconds,
        c.materialize_seconds);
    rows.emplace_back(line);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  if (!WriteBenchFile(args.out, json)) {
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());

  obs::MetricsRegistry metrics;
  for (const Cell& c : cells) {
    const std::string key = "micro_maint." + c.workload + "." + c.strategy +
                            ".w" + std::to_string(c.workers) + ".";
    metrics.Set(key + "maint_ops", c.maint_ops);
    metrics.Set(key + "maint_avoided", c.maint_avoided);
    metrics.Set(key + "checksum", c.checksum);
    metrics.Set(key + "seconds_ns",
                static_cast<std::uint64_t>(c.seconds * 1e9));
  }
  for (const LoadCell& c : loads) {
    const std::string key = "micro_maint.fanout_load." + c.strategy + ".w1.";
    metrics.Set(key + "rows", c.rows);
    metrics.Set(key + "checksum", c.checksum);
    metrics.Set(key + "load_ns",
                static_cast<std::uint64_t>(c.load_seconds * 1e9));
    metrics.Set(key + "materialize_ns",
                static_cast<std::uint64_t>(c.materialize_seconds * 1e9));
  }
  for (const Ratio& r : ratios) {
    metrics.Set("micro_maint." + r.key + "_x100",
                static_cast<std::uint64_t>(r.value * 100.0));
  }
  PrintMetrics(metrics);
  FinishTrace(session.get(), args.trace);
  return 0;
}
