// Networked-service load generator: N ServiceClient connections drive an
// open-loop arrival schedule of SUBMIT batches against a live ServiceServer
// (src/net/), in two session modes:
//
//   exclusive — every connection opens its own session (the multi-tenant
//               shape: N programs, one shared pool).
//   shared    — one session, all N connections submit to it (the hot-key
//               shape: per-connection FIFO composes into one epoch order,
//               pipeline_depth 4).
//
// Open loop means latency is measured from each batch's SCHEDULED send
// time, not its actual send — falling behind the arrival rate shows up as
// queueing delay in p99/p999 instead of silently stretching the axis.
// Each cell records p50/p99/p999 UpdateOutcome latency and sustained
// batches/sec into BENCH_service.json (the seventh perf-gate baseline).
//
// Correctness is gated, not assumed: per connection, keys live in a
// disjoint block and deletes only target keys that same connection
// inserted batches earlier, so the final store is independent of how the
// server interleaves connections.  After the run the whole store is read
// back OVER THE WIRE (QUERY per predicate) and checksummed against an
// in-process serial Database replay of the same op stream — any mismatch
// HARD-FAILS the binary (exit 1).  The acceptance cells drive 64
// concurrent connections.
//
// Usage: micro_service [--out=BENCH_service.json] [--scale=1.0]
//                      [--trace=out.json] [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "datalog/database.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

using datalog::Database;
using datalog::RowView;
using datalog::Value;
using net::ServiceClient;
using net::ServiceServer;

/// Three derivation levels off one base: every batch cascades through four
/// predicates, enough maintenance work to be a real update without making
/// the cascade (rather than the wire) the bottleneck.
constexpr const char* kServiceProgram = R"(
  d1(X) :- base(X).
  d2(X) :- d1(X).
  d3(X) :- d2(X).
)";

/// One base change; keys are per-connection disjoint and never reused.
struct GenOp {
  bool insert = false;
  std::int64_t key = 0;
};

/// Connection `conn`'s batch `b` (size S): batch 0 seeds S fresh keys;
/// later batches mint S-1 fresh keys and delete one key seeded at least
/// ~S batches earlier — per-connection FIFO (which the server guarantees)
/// makes every delete land after its insert.
std::vector<GenOp> BatchOps(int conn, int b, int batch_size) {
  const std::int64_t base =
      (static_cast<std::int64_t>(conn) + 1) * 1'000'000;
  std::vector<GenOp> ops;
  if (b == 0) {
    for (int i = 0; i < batch_size; ++i) {
      ops.push_back({true, base + i});
    }
    return ops;
  }
  const std::int64_t fresh0 =
      base + batch_size +
      static_cast<std::int64_t>(b - 1) * (batch_size - 1);
  for (int i = 0; i < batch_size - 1; ++i) {
    ops.push_back({true, fresh0 + i});
  }
  ops.push_back({false, base + (b - 1)});
  return ops;
}

/// micro_pipeline's order-independent store fingerprint, recomputed here
/// from WIRE rows so the cross-check covers the whole net path.
std::uint64_t HashRow(std::uint32_t pred, net::WireRowView row) {
  std::uint64_t h = pred + 1;
  for (std::size_t i = 0; i < row.size(); ++i) {
    h = h * 0x100000001b3ULL + Value::Int(row.Int(i)).Bits();
  }
  return h;
}

std::uint64_t StoreChecksum(const datalog::RelationStore& store) {
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

std::uint64_t StoreRows(const datalog::RelationStore& store) {
  std::uint64_t rows = 0;
  for (std::size_t p = 0; p < store.NumRelations(); ++p) {
    rows += store.Of(static_cast<std::uint32_t>(p)).Size();
  }
  return rows;
}

struct CellSpec {
  const char* mode = "exclusive";  ///< "exclusive" | "shared"
  int connections = 8;
  int rate = 100;  ///< target batches/sec per connection (open loop)
};

struct ConnResult {
  std::uint64_t session_id = 0;
  std::vector<double> lat_us;
  bool ok = false;
  std::string error;
};

void HandleResponse(const ServiceClient::Response& resp,
                    const std::unordered_map<std::uint64_t, double>& sched,
                    double now_s, int* received, ConnResult* out) {
  if (resp.opcode == net::Opcode::kSubmitResult) {
    const auto it = sched.find(resp.submit_result.request_id);
    if (it != sched.end()) {
      out->lat_us.push_back((now_s - it->second) * 1e6);
    }
    ++*received;
    return;
  }
  if (resp.opcode == net::Opcode::kError) {
    out->ok = false;
    out->error = "server error: " + resp.error.message;
  }
}

void RunConnection(std::uint16_t port, bool exclusive,
                   std::uint64_t shared_sid, int conn, int batches,
                   int batch_size, int rate, ConnResult* out) {
  try {
    ServiceClient client;
    client.Connect("127.0.0.1", port);
    std::uint64_t sid = shared_sid;
    if (exclusive) {
      net::OpenSessionRequest open;
      open.request_id = 1;
      open.program = kServiceProgram;
      open.queue_capacity = 32;
      sid = client.OpenSessionSync(open);
    }
    out->session_id = sid;
    out->ok = true;

    std::unordered_map<std::uint64_t, double> sched;
    sched.reserve(static_cast<std::size_t>(batches));
    const auto t0 = std::chrono::steady_clock::now();
    const auto now_s = [&t0] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    int received = 0;
    for (int b = 0; b < batches && out->ok; ++b) {
      const double target = static_cast<double>(b) / rate;
      // Drain responses while pacing toward the scheduled send time.
      while (out->ok) {
        const double wait_s = target - now_s();
        if (wait_s <= 0.0) {
          break;
        }
        ServiceClient::Response resp;
        if (client.ReadResponse(&resp,
                                std::max(1, static_cast<int>(wait_s * 1e3)))) {
          HandleResponse(resp, sched, now_s(), &received, out);
        }
      }
      net::SubmitRequest req;
      req.request_id = static_cast<std::uint64_t>(1000 + b);
      req.session_id = sid;
      for (const GenOp& op : BatchOps(conn, b, batch_size)) {
        req.ops.push_back(net::WireOp{
            !op.insert, "base", {net::WireValue::Int(op.key)}});
      }
      sched[req.request_id] = target;  // open-loop latency origin
      client.SendSubmit(req);
      ServiceClient::Response resp;
      while (out->ok && client.ReadResponse(&resp, 0)) {
        HandleResponse(resp, sched, now_s(), &received, out);
      }
    }
    while (out->ok && received < batches) {
      ServiceClient::Response resp;
      if (!client.ReadResponse(&resp, 60000)) {
        out->ok = false;
        out->error = "timed out (or disconnected) draining responses";
        break;
      }
      HandleResponse(resp, sched, now_s(), &received, out);
    }
    // Leave the session open: the main thread reads it back for the
    // checksum cross-check.
  } catch (const std::exception& e) {
    out->ok = false;
    out->error = e.what();
  }
}

struct Cell {
  std::string mode;
  int connections = 0;
  int rate = 0;
  int batch = 0;
  std::uint64_t batches = 0;
  std::uint64_t rows = 0;
  std::uint64_t checksum = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double batches_per_sec = 0.0;
  double seconds = 0.0;
  std::uint64_t backpressure_stalls = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

Cell RunCell(const CellSpec& spec, int batches, int batch_size) {
  Cell cell;
  cell.mode = spec.mode;
  cell.connections = spec.connections;
  cell.rate = spec.rate;
  cell.batch = batch_size;
  cell.batches =
      static_cast<std::uint64_t>(spec.connections) *
      static_cast<std::uint64_t>(batches);
  const bool exclusive = cell.mode == "exclusive";

  service::EngineHost host({.workers = 2});
  ServiceServer server(host, {});
  server.Start();
  ServiceClient main_client;
  main_client.Connect("127.0.0.1", server.Port());
  std::uint64_t shared_sid = 0;
  if (!exclusive) {
    net::OpenSessionRequest open;
    open.request_id = 1;
    open.program = kServiceProgram;
    open.queue_capacity = 64;
    open.pipeline_depth = 4;
    shared_sid = main_client.OpenSessionSync(open);
  }

  std::vector<ConnResult> results(
      static_cast<std::size_t>(spec.connections));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  util::WallTimer timer;
  for (int c = 0; c < spec.connections; ++c) {
    threads.emplace_back(RunConnection, server.Port(), exclusive, shared_sid,
                         c, batches, batch_size, spec.rate,
                         &results[static_cast<std::size_t>(c)]);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  cell.seconds = timer.ElapsedSeconds();
  cell.batches_per_sec =
      cell.seconds > 0.0
          ? static_cast<double>(cell.batches) / cell.seconds
          : 0.0;
  for (const ConnResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL [%s c%d]: connection failed: %s\n",
                   spec.mode, spec.connections, r.error.c_str());
      std::exit(1);
    }
  }

  std::vector<double> lat;
  for (const ConnResult& r : results) {
    lat.insert(lat.end(), r.lat_us.begin(), r.lat_us.end());
  }
  std::sort(lat.begin(), lat.end());
  cell.p50_us = Percentile(lat, 0.50);
  cell.p99_us = Percentile(lat, 0.99);
  cell.p999_us = Percentile(lat, 0.999);

  // --- the cross-check: read the final stores back over the wire and
  // compare against an in-process serial replay.  Exact or die.
  const Database name_db(kServiceProgram);  // predicate name/id oracle
  const datalog::Program& program = name_db.GetProgram();
  std::vector<std::uint64_t> sids;
  if (exclusive) {
    for (const ConnResult& r : results) {
      sids.push_back(r.session_id);
    }
  } else {
    sids.push_back(shared_sid);
  }
  std::uint64_t wire_checksum = 0;
  std::uint64_t wire_rows = 0;
  std::uint64_t next_request = 100;
  net::QueryResultResponse rows;  // one decode buffer for every read-back
  for (const std::uint64_t sid : sids) {
    for (std::uint32_t p = 0; p < program.NumPredicates(); ++p) {
      net::QueryRequest q;
      q.request_id = next_request++;
      q.session_id = sid;
      q.predicate = program.predicate_names[p];
      main_client.QuerySync(q, &rows);
      for (const net::WireRowView row : rows.rows) {
        wire_checksum += HashRow(p, row);
        ++wire_rows;
      }
    }
  }
  std::uint64_t replay_checksum = 0;
  std::uint64_t replay_rows = 0;
  const auto replay_conns = [&](int lo, int hi) {
    Database db(kServiceProgram);
    db.Materialize();
    const std::uint32_t pred = db.GetProgram().PredicateId("base");
    for (int c = lo; c < hi; ++c) {
      for (int b = 0; b < batches; ++b) {
        datalog::UpdateRequest request;
        for (const GenOp& op : BatchOps(c, b, batch_size)) {
          auto& side = op.insert ? request.insertions : request.deletions;
          side.emplace_back(pred, datalog::Tuple{Value::Int(op.key)});
        }
        (void)db.ApplyRequest(request);
      }
    }
    replay_checksum += StoreChecksum(db.Store());
    replay_rows += StoreRows(db.Store());
  };
  if (exclusive) {
    for (int c = 0; c < spec.connections; ++c) {
      replay_conns(c, c + 1);  // one store per session, summed like sids
    }
  } else {
    replay_conns(0, spec.connections);
  }
  if (wire_checksum != replay_checksum || wire_rows != replay_rows) {
    std::fprintf(stderr,
                 "FAIL [%s c%d]: wire store (rows=%llu checksum=%016llx) != "
                 "serial replay (rows=%llu checksum=%016llx)\n",
                 spec.mode, spec.connections,
                 static_cast<unsigned long long>(wire_rows),
                 static_cast<unsigned long long>(wire_checksum),
                 static_cast<unsigned long long>(replay_rows),
                 static_cast<unsigned long long>(replay_checksum));
    std::exit(1);
  }
  cell.rows = wire_rows;
  cell.checksum = wire_checksum;
  cell.backpressure_stalls =
      host.Metrics().Value("net.backpressure_stalls");
  server.Stop();
  return cell;
}

void Report(const Cell& c) {
  std::printf("%-9s conns=%-3d rate=%-4d b%-3d %5llu batches  %8.1f b/s  "
              "p50 %8.0fus  p99 %8.0fus  p999 %8.0fus  %6llu parked  %s\n",
              c.mode.c_str(), c.connections, c.rate, c.batch,
              static_cast<unsigned long long>(c.batches), c.batches_per_sec,
              c.p50_us, c.p99_us, c.p999_us,
              static_cast<unsigned long long>(c.backpressure_stalls),
              util::FormatSeconds(c.seconds).c_str());
}

int Main(int argc, char** argv) {
  MicroBenchArgs args;
  args.out = "BENCH_service.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  auto trace = MaybeStartTrace(args.trace);

  const int batch_size = 8;
  const int batches =
      smoke ? 6
            : std::max(4, static_cast<int>(25.0 * args.scale + 0.5));
  std::vector<CellSpec> cells;
  if (smoke) {
    cells = {{"exclusive", 4, 200}, {"shared", 4, 200}};
  } else {
    cells = {{"exclusive", 8, 100},
             {"shared", 8, 100},
             {"exclusive", 64, 100},
             {"shared", 64, 100}};
  }

  std::printf("micro_service: open-loop wire load, %d batches x %d ops per "
              "connection%s\n\n",
              batches, batch_size, smoke ? " (smoke)" : "");
  std::vector<Cell> done;
  for (const CellSpec& spec : cells) {
    done.push_back(RunCell(spec, batches, batch_size));
    Report(done.back());
  }

  FinishTrace(trace.get(), args.trace);
  if (smoke) {
    std::printf("\nsmoke OK: all checksums matched the serial replay\n");
    return 0;
  }

  std::string json;
  char line[512];
  std::snprintf(line, sizeof line,
                "{\n  \"bench\": \"service\",\n  \"scale\": %.2f,\n"
                "  \"hw_concurrency\": %u,\n  \"results\": [\n",
                args.scale, std::thread::hardware_concurrency());
  json += line;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const Cell& c = done[i];
    std::snprintf(
        line, sizeof line,
        "    {\"mode\": \"%s\", \"connections\": %d, \"rate\": %d, "
        "\"batch\": %d, \"batches\": %llu, \"rows\": %llu, "
        "\"checksum\": %llu,\n     \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"p999_us\": %.1f, \"batches_per_sec\": %.2f, "
        "\"seconds\": %.6f, \"backpressure_stalls\": %llu}%s\n",
        c.mode.c_str(), c.connections, c.rate, c.batch,
        static_cast<unsigned long long>(c.batches),
        static_cast<unsigned long long>(c.rows),
        static_cast<unsigned long long>(c.checksum), c.p50_us, c.p99_us,
        c.p999_us, c.batches_per_sec, c.seconds,
        static_cast<unsigned long long>(c.backpressure_stalls),
        i + 1 < done.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";
  if (!WriteBenchFile(args.out, json)) {
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}

}  // namespace dsched::bench

int main(int argc, char** argv) { return dsched::bench::Main(argc, argv); }
