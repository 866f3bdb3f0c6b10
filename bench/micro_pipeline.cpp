// Epoch-pipelining benchmark: one session, K update cascades in flight
// (service/session.hpp, DESIGN.md §12), sweeping K x batch size x
// maintenance strategy over two shapes that bracket the pipelining
// headroom:
//
//   fanout — 4 independent derivation chains of depth 6 off one base.
//            Every update touches all 24 single-rule components, so a
//            K=1 session pays 6 dependency levels of latency per epoch
//            while K>1 overlaps epoch e+1's level-1 phases with epoch
//            e's deeper levels — the shape pipelining exists for.
//   chain  — transitive closure (one recursive component at level 1).
//            The fence serializes same-component writes across epochs,
//            so pipelining is bounded here by design; the cells document
//            that bound instead of pretending it away.  (Trimmed sweep:
//            K in {1,4}, dred only — strategy COST on a decaying SCC is
//            micro_maint's axis, and bf's per-tuple rederivation probes
//            there are orders of magnitude slower than the pipelining
//            effect this bench measures.)
//
// Every cell replays the SAME pre-generated op stream (chunked into the
// cell's batch size) and must end with the store checksum of a serial
// Database replay — the bench doubles as an order-independence stress and
// HARD-FAILS on any mismatch, at every K.  Stream ops never reuse a key,
// so chunking cannot change the net effect.
//
// Every cell runs once as a warm-up and then kRepeats times, the passes
// interleaved over the whole sweep so a K=1 cell and its K=4 twin run
// side by side.  A cell reports its median-time run; a k4_vs_k1_* ratio is
// the median of the per-pass K4/K1 throughput ratios.  Checksums and row
// counts are checked on every run, warm-up included.
//
// Timings and the k4_vs_k1_* ratios are machine-dependent (CI ignores
// them; see tools/check_bench.py).  The >= 1.5x fanout acceptance bar is
// self-gated IN the binary, on the median ratios, only when
// hardware_concurrency >= 4 — a 1-core runner cannot overlap anything and
// records ~1.0x honestly.
//
// Usage: micro_pipeline [--out=BENCH_pipeline.json] [--scale=1.0]
//                       [--trace=out.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "datalog/database.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

/// Timed runs per cell, after one warm-up run.
constexpr std::size_t kRepeats = 5;

using datalog::Database;
using datalog::RowView;
using datalog::Tuple;
using datalog::Value;

constexpr const char* kFanoutProgram = R"(
  a1(X) :- base(X).  b1(X) :- base(X).  c1(X) :- base(X).  d1(X) :- base(X).
  a2(X) :- a1(X).    b2(X) :- b1(X).    c2(X) :- c1(X).    d2(X) :- d1(X).
  a3(X) :- a2(X).    b3(X) :- b2(X).    c3(X) :- c2(X).    d3(X) :- d2(X).
  a4(X) :- a3(X).    b4(X) :- b3(X).    c4(X) :- c3(X).    d4(X) :- d3(X).
  a5(X) :- a4(X).    b5(X) :- b4(X).    c5(X) :- c4(X).    d5(X) :- d4(X).
  a6(X) :- a5(X).    b6(X) :- b5(X).    c6(X) :- c5(X).    d6(X) :- d5(X).
)";

constexpr const char* kChainProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
)";

/// One pre-generated base change.  Keys are NEVER reused across the
/// stream (deletes target distinct seed keys, inserts mint fresh ones),
/// so any batching of the stream nets out to the same final store.
struct Op {
  bool insert = false;
  std::int64_t a = 0;
  std::int64_t b = 0;  ///< unused for arity-1 shapes
};

struct Workload {
  std::string name;
  const char* program = nullptr;
  const char* change_pred = nullptr;
  std::size_t arity = 1;
  std::vector<std::pair<const char*, Tuple>> base;
  std::vector<Op> ops;  ///< flat stream; cells chunk by their batch size
};

Tuple Row1(std::int64_t a) { return {Value::Int(a)}; }
Tuple Row2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

Workload MakeFanout(double scale, std::size_t total_ops) {
  Workload w;
  w.name = "fanout";
  w.program = kFanoutProgram;
  w.change_pred = "base";
  const auto n = static_cast<std::int64_t>(2000.0 * scale);
  for (std::int64_t i = 0; i < n; ++i) {
    w.base.emplace_back("base", Row1(i));
  }
  util::Rng rng(0x9199u);
  std::int64_t next_del = 0;  // seed keys, each deleted at most once
  std::int64_t next_ins = n;  // fresh keys
  for (std::size_t i = 0; i < total_ops; ++i) {
    if (rng.NextBool(0.3) && next_del < n) {
      w.ops.push_back({.insert = false, .a = next_del++});
    } else {
      w.ops.push_back({.insert = true, .a = next_ins++});
    }
  }
  return w;
}

Workload MakeChain(double scale, std::size_t total_ops) {
  Workload w;
  w.name = "chain";
  w.program = kChainProgram;
  w.change_pred = "e";
  w.arity = 2;
  const auto v = static_cast<std::int64_t>(72.0 * scale);
  util::Rng rng(0xc4a1u);
  std::vector<std::pair<std::int64_t, std::int64_t>> seed_edges;
  for (std::int64_t i = 0; i < v; ++i) {
    for (std::int64_t j = 0; j < v; ++j) {
      if (i != j && rng.NextBool(0.06)) {
        w.base.emplace_back("e", Row2(i, j));
        seed_edges.emplace_back(i, j);
      }
    }
  }
  std::size_t next_del = 0;
  std::int64_t next_fresh = v;  // fresh node ids -> guaranteed-new edges
  for (std::size_t i = 0; i < total_ops; ++i) {
    if (rng.NextBool(0.3) && next_del < seed_edges.size()) {
      const auto [a, b] = seed_edges[next_del++];
      w.ops.push_back({.insert = false, .a = a, .b = b});
    } else {
      const auto from = static_cast<std::int64_t>(
          rng.NextBelow(static_cast<std::uint64_t>(v)));
      w.ops.push_back({.insert = true, .a = from, .b = next_fresh++});
    }
  }
  return w;
}

/// Order-independent content fingerprint over a whole store.
std::uint64_t Checksum(const datalog::RelationStore& store) {
  std::uint64_t sum = 0;
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

std::uint64_t RowsTotal(const datalog::RelationStore& store) {
  std::uint64_t rows = 0;
  for (std::size_t p = 0; p < store.NumRelations(); ++p) {
    rows += store.Of(static_cast<std::uint32_t>(p)).Size();
  }
  return rows;
}

datalog::UpdateRequest ChunkToRequest(const Database& db, const Workload& w,
                                      std::size_t begin, std::size_t end) {
  datalog::UpdateRequest request;
  const std::uint32_t pred = db.GetProgram().PredicateId(w.change_pred);
  for (std::size_t i = begin; i < end; ++i) {
    const Op& op = w.ops[i];
    Tuple row = w.arity == 1 ? Row1(op.a) : Row2(op.a, op.b);
    if (op.insert) {
      request.insertions.emplace_back(pred, std::move(row));
    } else {
      request.deletions.emplace_back(pred, std::move(row));
    }
  }
  return request;
}

struct Cell {
  std::string workload;
  std::string strategy;
  std::size_t k = 1;
  std::size_t effective_k = 1;
  std::size_t batch = 0;
  std::uint64_t batches = 0;
  std::uint64_t checksum = 0;
  std::uint64_t rows = 0;
  std::uint64_t stalls = 0;
  double seconds = 0.0;
  double batches_per_sec = 0.0;
};

Cell RunCell(const Workload& w, const char* strategy, std::size_t k,
             std::size_t batch_size) {
  Cell cell;
  cell.workload = w.name;
  cell.strategy = strategy;
  cell.k = k;
  cell.batch = batch_size;

  service::EngineHost host({.workers = 4});
  auto session = host.OpenSession(w.program,
                                  {.name = "bench",
                                   .maintenance_strategy = strategy,
                                   .queue_capacity = 512,
                                   .pipeline_depth = k});
  cell.effective_k = session->PipelineDepth();
  for (const auto& [pred, tuple] : w.base) {
    session->Insert(pred, tuple);
  }
  session->Materialize();

  // The timed region: submit every batch, then drain the pipeline.  The
  // submit side never blocks (queue bound > batch count), so the clock
  // measures apply throughput, overlapped or not.
  std::vector<datalog::UpdateRequest> requests;
  for (std::size_t begin = 0; begin < w.ops.size(); begin += batch_size) {
    requests.push_back(ChunkToRequest(
        session->Db(), w, begin, std::min(begin + batch_size, w.ops.size())));
  }
  cell.batches = requests.size();
  util::WallTimer timer;
  std::vector<std::future<service::UpdateOutcome>> futures;
  futures.reserve(requests.size());
  for (datalog::UpdateRequest& request : requests) {
    futures.push_back(session->Submit(std::move(request)));
  }
  for (auto& future : futures) {
    (void)future.get();
  }
  cell.seconds = timer.ElapsedSeconds();
  cell.batches_per_sec =
      cell.seconds > 0.0 ? static_cast<double>(cell.batches) / cell.seconds
                         : 0.0;
  session->Close();
  cell.checksum = Checksum(session->Store());
  cell.rows = RowsTotal(session->Store());
  cell.stalls = host.Metrics().Value("session.bench.pipeline.stalls");
  return cell;
}

/// The reference result: a plain serial Database replay of the stream.
std::uint64_t SerialChecksum(const Workload& w) {
  Database db(w.program);
  for (const auto& [pred, tuple] : w.base) {
    db.Insert(pred, tuple);
  }
  db.Materialize();
  constexpr std::size_t kReplayBatch = 64;
  for (std::size_t begin = 0; begin < w.ops.size(); begin += kReplayBatch) {
    (void)db.ApplyRequest(ChunkToRequest(
        db, w, begin, std::min(begin + kReplayBatch, w.ops.size())));
  }
  return Checksum(db.Store());
}

void Report(const Cell& c) {
  std::printf("%-7s %-9s k%zu(eff %zu) b%-4zu %4llu batches  %8.1f b/s  "
              "%6llu stalls  %10s\n",
              c.workload.c_str(), c.strategy.c_str(), c.k, c.effective_k,
              c.batch, static_cast<unsigned long long>(c.batches),
              c.batches_per_sec, static_cast<unsigned long long>(c.stalls),
              util::FormatSeconds(c.seconds).c_str());
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  using namespace dsched::bench;
  MicroBenchArgs args;
  args.out = "BENCH_pipeline.json";
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const auto session = MaybeStartTrace(args.trace);
  const unsigned hw = std::thread::hardware_concurrency();

  const Workload fanout = MakeFanout(args.scale,
                                     static_cast<std::size_t>(1280 * args.scale));
  const Workload chain = MakeChain(1.0,  // graph size fixed; scale != 1
                                   // distorts SCC density nonlinearly
                                   static_cast<std::size_t>(192 * args.scale));

  int failures = 0;
  struct CellSpec {
    const Workload* workload = nullptr;
    const char* strategy = nullptr;
    std::size_t k = 1;
    std::size_t batch = 0;
    std::uint64_t expected = 0;
  };
  std::vector<CellSpec> specs;
  const auto sweep = [&](const Workload& w,
                         std::initializer_list<const char*> strategies,
                         std::initializer_list<std::size_t> ks,
                         std::initializer_list<std::size_t> batches) {
    const std::uint64_t expected = SerialChecksum(w);
    for (const char* strategy : strategies) {
      for (const std::size_t batch : batches) {
        for (const std::size_t k : ks) {
          specs.push_back({&w, strategy, k, batch, expected});
        }
      }
    }
  };
  sweep(fanout, {"dred", "bf"}, {1, 2, 4, 8}, {16, 128});
  sweep(chain, {"dred"}, {1, 4}, {16});

  // runs[i][pass]: the timed runs of specs[i], in pass order.
  std::vector<std::vector<Cell>> runs(specs.size());
  for (std::size_t pass = 0; pass <= kRepeats; ++pass) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const CellSpec& spec = specs[i];
      Cell cell = RunCell(*spec.workload, spec.strategy, spec.k, spec.batch);
      if (cell.checksum != spec.expected) {
        std::fprintf(stderr,
                     "FAIL %s %s k%zu b%zu: checksum %llu != serial %llu "
                     "— pipelined replay diverged\n",
                     cell.workload.c_str(), spec.strategy, spec.k, spec.batch,
                     static_cast<unsigned long long>(cell.checksum),
                     static_cast<unsigned long long>(spec.expected));
        ++failures;
      }
      if (pass > 0) {  // pass 0 is the warm-up
        runs[i].push_back(std::move(cell));
      }
    }
  }
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  std::vector<Cell> cells;
  for (const std::vector<Cell>& cell_runs : runs) {
    std::vector<Cell> by_time = cell_runs;
    std::sort(by_time.begin(), by_time.end(),
              [](const Cell& a, const Cell& b) { return a.seconds < b.seconds; });
    cells.push_back(by_time[by_time.size() / 2]);
    Report(cells.back());
  }

  // --- summary: median over passes of the K=4 vs K=1 throughput ratio per
  // (workload, batch, strategy).
  const auto index_of = [&specs](const CellSpec& like, std::size_t k) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].workload == like.workload &&
          specs[i].strategy == like.strategy && specs[i].batch == like.batch &&
          specs[i].k == k) {
        return i;
      }
    }
    return specs.size();
  };
  struct Ratio {
    std::string key;
    double value = 0.0;
  };
  std::vector<Ratio> ratios;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t base = index_of(specs[i], 1);
    if (specs[i].k != 4 || base == specs.size()) {
      continue;
    }
    std::vector<double> per_pass;
    for (std::size_t pass = 0; pass < kRepeats; ++pass) {
      per_pass.push_back(runs[i][pass].batches_per_sec /
                         std::max(runs[base][pass].batches_per_sec, 1e-12));
    }
    ratios.push_back({"k4_vs_k1_" + cells[i].workload + "_b" +
                          std::to_string(specs[i].batch) + "_" +
                          specs[i].strategy,
                      median(per_pass)});
  }
  const auto ratio_of = [&ratios](const std::string& key) {
    for (const Ratio& r : ratios) {
      if (r.key == key) {
        return r.value;
      }
    }
    return 0.0;
  };
  for (const Ratio& r : ratios) {
    std::printf("%-34s %6.2fx (median of %zu)\n", r.key.c_str(), r.value,
                kRepeats);
  }

  // --- self-gate (acceptance bar): on a machine that can actually
  // overlap (>= 4 cores), fanout at K=4 must beat K=1 by >= 1.5x (median
  // ratio) for each strategy at its best batch size.  A 1-core runner
  // records ~1.0x and is exempt — the ratios are data there, not a gate.
  if (hw >= 4) {
    for (const char* strategy : {"dred", "bf"}) {
      double best = 0.0;
      for (const std::size_t batch : {std::size_t{16}, std::size_t{128}}) {
        best = std::max(best, ratio_of("k4_vs_k1_fanout_b" +
                                       std::to_string(batch) + "_" + strategy));
      }
      if (best < 1.5) {
        std::fprintf(stderr,
                     "FAIL fanout %s: best median K4/K1 throughput %.2fx "
                     "below the 1.5x pipelining bar (hw_concurrency=%u)\n",
                     strategy, best, hw);
        ++failures;
      }
    }
  } else {
    std::printf("note: hw_concurrency=%u < 4 — K-scaling self-gate skipped "
                "(ratios recorded, not judged)\n",
                hw);
  }
  if (failures > 0) {
    return 1;
  }

  std::string json = "{\n  \"bench\": \"micro_pipeline\",\n  \"scale\": " +
                     std::to_string(args.scale) +
                     ",\n  \"hw_concurrency\": " + std::to_string(hw) +
                     ",\n  \"summary\": {\n";
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    char line[128];
    std::snprintf(line, sizeof line, "    \"%s\": %.2f%s\n",
                  ratios[i].key.c_str(), ratios[i].value,
                  i + 1 < ratios.size() ? "," : "");
    json += line;
  }
  json += "  },\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char line[320];
    std::snprintf(
        line, sizeof line,
        "    {\"workload\": \"%s\", \"strategy\": \"%s\", \"k\": %zu, "
        "\"effective_k\": %zu, \"batch\": %zu, \"batches\": %llu, "
        "\"rows\": %llu, \"checksum\": %llu, \"stalls\": %llu, "
        "\"batches_per_sec\": %.2f, \"seconds\": %.6f}%s\n",
        c.workload.c_str(), c.strategy.c_str(), c.k, c.effective_k, c.batch,
        static_cast<unsigned long long>(c.batches),
        static_cast<unsigned long long>(c.rows),
        static_cast<unsigned long long>(c.checksum),
        static_cast<unsigned long long>(c.stalls), c.batches_per_sec,
        c.seconds, i + 1 < cells.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";
  if (!WriteBenchFile(args.out, json)) {
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());

  obs::MetricsRegistry metrics;
  for (const Cell& c : cells) {
    const std::string key = "micro_pipeline." + c.workload + "." +
                            c.strategy + ".k" + std::to_string(c.k) + ".b" +
                            std::to_string(c.batch) + ".";
    metrics.Set(key + "checksum", c.checksum);
    metrics.Set(key + "rows", c.rows);
    metrics.Set(key + "stalls", c.stalls);
    metrics.Set(key + "seconds_ns",
                static_cast<std::uint64_t>(c.seconds * 1e9));
  }
  for (const Ratio& r : ratios) {
    metrics.Set("micro_pipeline." + r.key + "_x100",
                static_cast<std::uint64_t>(r.value * 100.0));
  }
  PrintMetrics(metrics);
  FinishTrace(session.get(), args.trace);
  return 0;
}
