// Wire-to-store benchmark driver (perfbench/README.md).
//
// Drives an in-process ServiceServer over loopback with ServiceClient
// connections, the path users take: wire -> service -> datalog ->
// runtime + sched -> store.
//
//   wirebench --workload tc_churn|wide_open|read_mix --seed N --seconds S
//             --trace 0|1 [--rate BATCHES_PER_SECOND]
//
// --trace 0 measures the end-to-end metrics over the wire, recording no
// spans.  --trace 1 replays the same generated stream at three depths (over
// the wire, in process through Session::Submit/Query, serially through
// Database::ApplyRequest), keeps spans around those calls in memory, writes
// them as Chrome trace JSON under .bench_out/, and attributes the update
// latency to layers.  --rate overrides the offered update rate; it exists to
// measure a workload's saturation rate (README.md, "Rates").
//
// Every run reads each store back over the wire and compares rows and an
// order-independent checksum with a serial Database replay of the same op
// stream, made after the timed phase.  A mismatch, error frame, timeout or
// disconnect fails the run (exit 1).  The last stdout line is one JSON
// object with the keys correct, attempted, failed and metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/database.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "report.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace datalog = dsched::datalog;
namespace net = dsched::net;
namespace service = dsched::service;
using net::ServiceClient;

using Clock = std::chrono::steady_clock;
const Clock::time_point kClockBase = Clock::now();

/// Seconds since process start on the monotonic clock.
double Now() {
  return std::chrono::duration<double>(Clock::now() - kClockBase).count();
}

Clock::time_point ToTimePoint(double seconds) {
  return kClockBase + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
}

/// Untimed warm-up at the head of every phase: the same schedule with its
/// samples dropped, so first-batch effects stay out of the figures.
constexpr double kWarmupSeconds = 1.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// A reply slower than this counts as a timeout.
constexpr int kReplyTimeoutMs = 30000;
/// Facts per SUBMIT while bulk-loading.
constexpr std::size_t kLoadBatchFacts = 512;
/// Traced wire phases interleave one PING per this many batches.
constexpr std::size_t kPingEvery = 8;
/// Request-id spaces; update batches use their stream index + 1.
constexpr std::uint64_t kQueryIds = 1ULL << 40;
constexpr std::uint64_t kPingIds = 2ULL << 40;
constexpr std::uint64_t kLoadIds = 3ULL << 40;
/// Pacing step once the next send is under one poll millisecond away.
constexpr auto kPaceStep = std::chrono::microseconds(100);
/// store.checksum is reported modulo 2^48 so it stays exact as a double.
constexpr std::uint64_t kChecksumMask = (1ULL << 48) - 1;
const char* const kTraceDir = ".bench_out";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  double rate = 0.0;  ///< > 0 overrides the workload's offered update rate
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "wirebench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt->workload = value;
      } else if (flag == "--seed") {
        opt->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt->trace = std::stoi(value) != 0;
      } else if (flag == "--rate") {
        opt->rate = std::stod(value);
      } else {
        std::fprintf(stderr, "wirebench: unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "wirebench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (opt->workload.empty() || !(opt->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload tc_churn|wide_open|read_mix "
                 "--seed N --seconds S --trace 0|1 [--rate R]\n");
    return false;
  }
  return true;
}

int HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Count(std::uint64_t v) { return static_cast<double>(v); }

std::uint64_t SpanId(std::size_t conn, std::size_t index) {
  return (static_cast<std::uint64_t>(conn) << 32) | index;
}

// --- what one generator connection observed ------------------------------

/// One update batch or query as one depth saw it (benchmark clock).
struct Sample {
  double due = 0.0;       ///< scheduled send (open loop) or send (closed)
  double sent = 0.0;      ///< frame written / Submit or Query called
  double returned = 0.0;  ///< in process: Session::Submit returned
  double done = 0.0;      ///< reply read / future ready / rows returned
  bool ok = false;
};

/// Engine-side stats of one in-process epoch, from its UpdateOutcome.
struct EpochStats {
  double cascade_s = 0.0;  ///< RunStats.wall_seconds
  double work_s = 0.0;     ///< sum of ComponentUpdateStats.seconds
  double max_component_s = 0.0;
  double dispatch_s = 0.0;  ///< dispatch_wall - sched_wall
  double idle_s = 0.0;
  double sched_s = 0.0;
  double frontier_stall_s = 0.0;
  std::uint64_t frontier_stalls = 0;
  std::uint64_t active_components = 0;
  std::uint64_t tasks = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t dispatch_batches = 0;
};

EpochStats Summarize(const service::UpdateOutcome& o) {
  EpochStats e;
  e.cascade_s = o.run.wall_seconds;
  e.sched_s = o.run.sched_wall_seconds;
  e.dispatch_s = o.run.dispatch_wall_seconds - o.run.sched_wall_seconds;
  e.idle_s = o.run.idle_wall_seconds;
  e.frontier_stall_s = o.run.frontier_stall_seconds;
  e.frontier_stalls = o.run.frontier_stalls;
  e.tasks = o.run.executed;
  e.dispatched = o.run.dispatched;
  e.dispatch_batches = o.run.dispatch_batches;
  for (const datalog::ComponentUpdateStats& c : o.update.components) {
    if (c.input_changed) {
      ++e.active_components;
    }
    e.work_s += c.seconds;
    e.max_component_s = std::max(e.max_component_s, c.seconds);
  }
  return e;
}

struct ConnLog {
  std::vector<Sample> updates;     ///< by stream index; [0, sent) were sent
  std::vector<EpochStats> epochs;  ///< in process, by stream index
  std::size_t sent = 0;
  std::vector<Sample> queries;     ///< [0, queries_sent) were sent
  std::size_t queries_sent = 0;
  std::size_t pings_sent = 0;
  std::vector<double> ping_rtt_s;
  std::vector<Span> spans;
  std::uint64_t errors = 0;  ///< error frames and exceptions
  std::uint64_t timeouts = 0;
  std::uint64_t disconnects = 0;
  std::string first_error;

  void Fail(std::string what) {
    ++errors;
    if (first_error.empty()) {
      first_error = std::move(what);
    }
  }
  [[nodiscard]] std::uint64_t Failed() const {
    return errors + timeouts + disconnects;
  }
  [[nodiscard]] std::uint64_t Attempted() const {
    return sent + queries_sent + pings_sent;
  }
};

/// Phase timing: every phase opens with kWarmupSeconds of warm-up.
struct Schedule {
  double start = 0.0;     ///< open-loop due times count from here
  double timed = 0.0;     ///< samples due (closed loop: sent) from here count
  double end = 0.0;       ///< closed loop: no send at or after this
  std::size_t limit = 0;  ///< closed loop: > 0 sends exactly this many
};

struct Phase {
  Schedule sched;
  std::vector<ConnLog> updaters;
  std::vector<ConnLog> queriers;

  [[nodiscard]] std::vector<std::size_t> Sent() const {
    std::vector<std::size_t> out;
    for (const ConnLog& log : updaters) {
      out.push_back(log.sent);
    }
    return out;
  }
  [[nodiscard]] std::uint64_t Attempted() const {
    std::uint64_t n = 0;
    for (const ConnLog& log : updaters) n += log.Attempted();
    for (const ConnLog& log : queriers) n += log.Attempted();
    return n;
  }
  [[nodiscard]] std::uint64_t Failed() const {
    std::uint64_t n = 0;
    for (const ConnLog& log : updaters) n += log.Failed();
    for (const ConnLog& log : queriers) n += log.Failed();
    return n;
  }
  void ReportErrors(const char* depth) const {
    for (const auto* logs : {&updaters, &queriers}) {
      for (const ConnLog& log : *logs) {
        if (log.Failed() > 0) {
          std::fprintf(stderr,
                       "wirebench: %s connection failed: %llu errors, %llu "
                       "timeouts, %llu disconnects; first: %s\n",
                       depth, static_cast<unsigned long long>(log.errors),
                       static_cast<unsigned long long>(log.timeouts),
                       static_cast<unsigned long long>(log.disconnects),
                       log.first_error.c_str());
        }
      }
    }
  }
};

Schedule MakeSchedule(double seconds, std::size_t limit) {
  Schedule s;
  s.start = Now() + 0.05;  // lets every generator thread reach its first wait
  s.timed = s.start + kWarmupSeconds;
  s.end = s.timed + seconds;
  s.limit = limit;
  return s;
}

/// Calls `fn(conn, index, sample)` for every measured update sample.
template <typename Fn>
void ForTimed(const Phase& p, Fn&& fn) {
  for (std::size_t c = 0; c < p.updaters.size(); ++c) {
    const ConnLog& log = p.updaters[c];
    for (std::size_t i = 0; i < log.sent; ++i) {
      const Sample& s = log.updates[i];
      if (s.ok && s.due >= p.sched.timed) {
        fn(c, i, s);
      }
    }
  }
}

struct Updates {
  std::vector<double> latency_ms;  ///< due -> reply
  std::vector<double> late_ms;     ///< due -> send
  double ops = 0.0;
  double wall_s = 0.0;  ///< first measured due -> last measured reply
};

Updates TimedUpdates(const Phase& p, const Inputs& in) {
  Updates u;
  double first = std::numeric_limits<double>::infinity();
  double last = 0.0;
  ForTimed(p, [&](std::size_t c, std::size_t i, const Sample& s) {
    u.latency_ms.push_back((s.done - s.due) * 1e3);
    u.late_ms.push_back((s.sent - s.due) * 1e3);
    u.ops += static_cast<double>(in.streams[c][i].size());
    first = std::min(first, s.due);
    last = std::max(last, s.done);
  });
  u.wall_s = u.latency_ms.empty() ? 0.0 : last - first;
  return u;
}

std::vector<double> TimedQueries(const Phase& p) {
  std::vector<double> ms;
  for (const ConnLog& log : p.queriers) {
    for (std::size_t j = 0; j < log.queries_sent; ++j) {
      const Sample& s = log.queries[j];
      if (s.ok && s.due >= p.sched.timed) {
        ms.push_back((s.done - s.due) * 1e3);
      }
    }
  }
  return ms;
}

// --- requests ---------------------------------------------------------------

net::WireOp WireFact(const char* predicate, bool insert, std::int64_t a,
                     std::int64_t b) {
  return net::WireOp{!insert, predicate,
                     {net::WireValue::Int(a), net::WireValue::Int(b)}};
}

net::SubmitRequest ToWire(const char* predicate, const Batch& batch,
                          std::uint64_t sid, std::uint64_t id) {
  net::SubmitRequest req;
  req.request_id = id;
  req.session_id = sid;
  req.ops.reserve(batch.size());
  for (const Op& op : batch) {
    req.ops.push_back(WireFact(predicate, op.insert, op.a, op.b));
  }
  return req;
}

datalog::Tuple Pair(std::int64_t a, std::int64_t b) {
  return {datalog::Value::Int(a), datalog::Value::Int(b)};
}

datalog::UpdateRequest ToRequest(std::uint32_t predicate, const Batch& batch) {
  datalog::UpdateRequest req;
  for (const Op& op : batch) {
    (op.insert ? req.insertions : req.deletions)
        .emplace_back(predicate, Pair(op.a, op.b));
  }
  return req;
}

std::string Describe(const ServiceClient::Response& r) {
  if (r.opcode == net::Opcode::kError) {
    return "error frame: " + r.error.message;
  }
  return std::string("unexpected ") + net::OpcodeName(r.opcode) + " reply";
}

// --- server stacks ------------------------------------------------------------

/// An EngineHost behind a started ServiceServer, with the workload's session
/// opened and bulk-loaded over the wire; the constructor is the timed set-up.
class WireStack {
 public:
  WireStack(const Spec& spec, const Inputs& in, int workers)
      : host_(service::HostOptions{.workers =
                                       static_cast<std::size_t>(workers)}),
        server_(host_) {
    server_.Start();
    const double t0 = Now();
    ServiceClient client;
    client.Connect("127.0.0.1", server_.Port());
    net::OpenSessionRequest open;
    open.request_id = 1;
    open.program = spec.program;
    open.name = "bench";
    open.strategy = spec.strategy;
    open.pipeline_depth = spec.pipeline_depth;
    session_id_ = client.OpenSessionSync(open);
    std::size_t batches = 0;
    for (std::size_t at = 0; at < in.setup.size(); at += kLoadBatchFacts) {
      net::SubmitRequest req;
      req.request_id = kLoadIds + batches++;
      req.session_id = session_id_;
      const std::size_t stop = std::min(in.setup.size(), at + kLoadBatchFacts);
      for (std::size_t f = at; f < stop; ++f) {
        const Fact& fact = in.setup[f];
        req.ops.push_back(WireFact(fact.predicate, true, fact.a, fact.b));
      }
      client.SendSubmit(req);
    }
    for (std::size_t b = 0; b < batches; ++b) {
      ServiceClient::Response r;
      if (!client.ReadResponse(&r, kReplyTimeoutMs)) {
        throw std::runtime_error("set-up load: no reply");
      }
      if (r.opcode != net::Opcode::kSubmitResult) {
        throw std::runtime_error("set-up load: " + Describe(r));
      }
    }
    setup_s_ = Now() - t0;
  }

  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  [[nodiscard]] std::uint16_t Port() const { return server_.Port(); }
  [[nodiscard]] std::uint64_t SessionId() const { return session_id_; }
  [[nodiscard]] double SetupSeconds() const { return setup_s_; }
  [[nodiscard]] service::EngineHost& Host() { return host_; }

 private:
  service::EngineHost host_;
  net::ServiceServer server_;  // after host_: stops before the host goes
  std::uint64_t session_id_ = 0;
  double setup_s_ = 0.0;
};

/// An EngineHost with the workload's session opened and bulk-loaded through
/// Session::Submit, in the batches the wire set-up uses.
class InProcStack {
 public:
  InProcStack(const Spec& spec, const Inputs& in, int workers)
      : host_(service::HostOptions{.workers =
                                       static_cast<std::size_t>(workers)}) {
    service::SessionOptions options;
    options.name = "inproc";
    options.maintenance_strategy = spec.strategy;
    options.pipeline_depth = spec.pipeline_depth;
    session_ = host_.OpenSession(spec.program, options);
    session_->Materialize();
    const datalog::Program& program = session_->Db().GetProgram();
    std::vector<std::future<service::UpdateOutcome>> loads;
    for (std::size_t at = 0; at < in.setup.size(); at += kLoadBatchFacts) {
      datalog::UpdateRequest req;
      const std::size_t stop = std::min(in.setup.size(), at + kLoadBatchFacts);
      for (std::size_t f = at; f < stop; ++f) {
        const Fact& fact = in.setup[f];
        req.insertions.emplace_back(program.PredicateId(fact.predicate),
                                    Pair(fact.a, fact.b));
      }
      loads.push_back(session_->Submit(std::move(req)));
    }
    for (std::future<service::UpdateOutcome>& f : loads) {
      (void)f.get();
    }
  }

  InProcStack(const InProcStack&) = delete;
  InProcStack& operator=(const InProcStack&) = delete;

  [[nodiscard]] service::Session& OpenedSession() { return *session_; }
  [[nodiscard]] service::EngineHost& Host() { return host_; }

 private:
  service::EngineHost host_;
  std::shared_ptr<service::Session> session_;
};

// --- wire depth ----------------------------------------------------------------

/// One generator connection: the client plus the reply-waiting loops every
/// wire role shares.  `handle` sees each reply frame.
class WireConn {
 public:
  using Handler = std::function<void(const ServiceClient::Response&)>;

  WireConn(std::uint16_t port, ConnLog* log, Handler handle)
      : log_(log), handle_(std::move(handle)) {
    client_.Connect("127.0.0.1", port);
  }

  ServiceClient& Client() { return client_; }

  /// Handles replies until `deadline`; false once the server hung up.
  /// ReadResponse reports a closed peer as an early false return.
  bool PumpUntil(double deadline) {
    ServiceClient::Response r;
    while (true) {
      const double wait = deadline - Now();
      if (wait <= 0.0) {
        return true;
      }
      const int ms = static_cast<int>(wait * 1e3);
      const double before = Now();
      if (client_.ReadResponse(&r, ms)) {
        handle_(r);
        continue;
      }
      if (ms >= 2 && Now() - before < 0.5e-3 * ms) {
        ++log_->disconnects;
        return false;
      }
      if (ms == 0) {
        std::this_thread::sleep_for(kPaceStep);
      }
    }
  }

  /// Handles replies already on the socket, without blocking.
  void DrainReady() {
    ServiceClient::Response r;
    while (client_.ReadResponse(&r, 0)) {
      handle_(r);
    }
  }

  /// Blocks for one reply; false (counted) on timeout or disconnect.
  bool AwaitOne() {
    ServiceClient::Response r;
    const double before = Now();
    if (client_.ReadResponse(&r, kReplyTimeoutMs)) {
      handle_(r);
      return true;
    }
    if (Now() - before >= 0.9e-3 * kReplyTimeoutMs) {
      ++log_->timeouts;
    } else {
      ++log_->disconnects;
    }
    return false;
  }

 private:
  ServiceClient client_;
  ConnLog* log_;
  Handler handle_;
};

void WireUpdater(std::uint16_t port, std::uint64_t sid, const Spec& spec,
                 const std::vector<Batch>& stream, int conn,
                 const Schedule& sched, bool traced, ConnLog* log) {
  const int tid = 100 + conn;
  const auto c = static_cast<std::size_t>(conn);
  log->updates.assign(stream.size(), Sample{});
  std::vector<double> ping_sent;
  std::size_t replies = 0;
  std::size_t pongs = 0;
  try {
    WireConn wire(port, log, [&](const ServiceClient::Response& r) {
      const double now = Now();
      const std::uint64_t id = r.RequestId();
      const bool is_batch = id >= 1 && id <= stream.size();
      if (r.opcode == net::Opcode::kSubmitResult && is_batch) {
        Sample& s = log->updates[id - 1];
        s.done = now;
        s.ok = true;
        ++replies;
        if (traced) {
          log->spans.push_back({"wire.submit", tid, s.sent, now,
                                SpanId(c, id - 1)});
        }
        return;
      }
      if (r.opcode == net::Opcode::kPong && id >= kPingIds &&
          id - kPingIds < ping_sent.size()) {
        const double sent = ping_sent[id - kPingIds];
        log->ping_rtt_s.push_back(now - sent);
        ++pongs;
        if (traced) {
          log->spans.push_back({"wire.ping", tid, sent, now, id});
        }
        return;
      }
      log->Fail(Describe(r));
      if (is_batch) {
        ++replies;
      }
    });
    if (!wire.PumpUntil(sched.start)) {
      return;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (spec.closed_loop &&
          (sched.limit > 0 ? i >= sched.limit : Now() >= sched.end)) {
        break;
      }
      const double due =
          spec.closed_loop
              ? 0.0
              : sched.start +
                    DueAt(spec.update_rate, spec.update_conns, conn, i);
      const net::SubmitRequest req =
          ToWire(spec.change_predicate, stream[i], sid, i + 1);
      if (!spec.closed_loop && !wire.PumpUntil(due)) {
        return;
      }
      Sample& s = log->updates[i];
      s.sent = Now();
      s.due = spec.closed_loop ? s.sent : due;
      wire.Client().SendSubmit(req);
      ++log->sent;
      if (traced && i % kPingEvery == 0) {
        net::PingRequest ping;
        ping.request_id = kPingIds + ping_sent.size();
        ping_sent.push_back(Now());
        wire.Client().SendPing(ping);
        ++log->pings_sent;
      }
      if (spec.closed_loop) {
        while (replies < log->sent) {
          if (!wire.AwaitOne()) {
            return;
          }
        }
      } else {
        wire.DrainReady();
      }
    }
    while (replies < log->sent || pongs < ping_sent.size()) {
      if (!wire.AwaitOne()) {
        return;
      }
    }
  } catch (const std::exception& e) {
    log->Fail(e.what());
  }
}

void WireQuerier(std::uint16_t port, std::uint64_t sid, const Spec& spec,
                 int conn, const Schedule& sched, double phase_seconds,
                 bool traced, ConnLog* log) {
  const int tid = 150 + conn;
  const std::size_t n =
      DueBefore(spec.query_rate, spec.query_conns, conn, phase_seconds);
  log->queries.assign(n, Sample{});
  std::size_t replies = 0;
  try {
    WireConn wire(port, log, [&](const ServiceClient::Response& r) {
      const std::uint64_t id = r.RequestId();
      const bool is_query = id >= kQueryIds && id - kQueryIds < n;
      if (r.opcode == net::Opcode::kQueryResult && is_query &&
          !r.query_result.rows.empty()) {
        Sample& s = log->queries[id - kQueryIds];
        s.done = Now();
        s.ok = true;
        ++replies;
        if (traced) {
          log->spans.push_back({"wire.query", tid, s.sent, s.done, id});
        }
        return;
      }
      log->Fail(r.opcode == net::Opcode::kQueryResult ? "empty QUERY result"
                                                      : Describe(r));
      if (is_query) {
        ++replies;
      }
    });
    for (std::size_t j = 0; j < n; ++j) {
      const double due =
          sched.start + DueAt(spec.query_rate, spec.query_conns, conn, j);
      if (!wire.PumpUntil(due)) {
        return;
      }
      net::QueryRequest q;
      q.request_id = kQueryIds + j;
      q.session_id = sid;
      q.predicate = spec.query_predicate;
      Sample& s = log->queries[j];
      s.due = due;
      s.sent = Now();
      wire.Client().SendQuery(q);
      ++log->queries_sent;
      wire.DrainReady();
    }
    while (replies < log->queries_sent) {
      if (!wire.AwaitOne()) {
        return;
      }
    }
  } catch (const std::exception& e) {
    log->Fail(e.what());
  }
}

using Role = std::function<void(int, const Schedule&, ConnLog*)>;

/// Runs one role per generator thread until every thread is done.
Phase RunPhase(const Spec& spec, double seconds, std::size_t limit,
               const Role& updater, const Role& querier) {
  Phase p;
  p.updaters.resize(static_cast<std::size_t>(spec.update_conns));
  p.queriers.resize(static_cast<std::size_t>(spec.query_conns));
  p.sched = MakeSchedule(seconds, limit);
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.update_conns; ++c) {
    threads.emplace_back([&, c] {
      updater(c, p.sched, &p.updaters[static_cast<std::size_t>(c)]);
    });
  }
  for (int q = 0; q < spec.query_conns; ++q) {
    threads.emplace_back([&, q] {
      querier(q, p.sched, &p.queriers[static_cast<std::size_t>(q)]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return p;
}

Phase RunWirePhase(const Spec& spec, const Inputs& in, WireStack& stack,
                   double seconds, std::size_t limit, bool traced) {
  const std::uint16_t port = stack.Port();
  const std::uint64_t sid = stack.SessionId();
  const double phase_seconds = kWarmupSeconds + seconds;
  return RunPhase(
      spec, seconds, limit,
      [&](int c, const Schedule& s, ConnLog* log) {
        WireUpdater(port, sid, spec, in.streams[static_cast<std::size_t>(c)],
                    c, s, traced, log);
      },
      [&](int q, const Schedule& s, ConnLog* log) {
        WireQuerier(port, sid, spec, q, s, phase_seconds, traced, log);
      });
}

/// Quiesced QUERYs of the derived predicate after the timed phase, one at a
/// time: the read metrics of workloads without query connections, and the
/// frames behind net.bytes_out_per_query.
std::vector<double> WireBurst(WireStack& stack, const Spec& spec, bool traced,
                              ConnLog* log) {
  std::vector<double> ms;
  try {
    ServiceClient client;
    client.Connect("127.0.0.1", stack.Port());
    for (std::size_t j = 0; j < spec.burst_queries; ++j) {
      net::QueryRequest q;
      q.request_id = kQueryIds + j;
      q.session_id = stack.SessionId();
      q.predicate = spec.query_predicate;
      ++log->queries_sent;
      const double t0 = Now();
      const net::QueryResultResponse res = client.QuerySync(q);
      const double t1 = Now();
      if (res.rows.empty()) {
        log->Fail("empty QUERY result");
        continue;
      }
      ms.push_back((t1 - t0) * 1e3);
      if (traced) {
        log->spans.push_back({"wire.query", 160, t0, t1, q.request_id});
      }
    }
  } catch (const std::exception& e) {
    log->Fail(e.what());
  }
  return ms;
}

// --- in-process depth ----------------------------------------------------------

void InProcUpdater(service::Session& session, std::uint32_t predicate,
                   const Spec& spec, const std::vector<Batch>& stream,
                   int conn, const Schedule& sched, bool traced,
                   ConnLog* log) {
  const int tid = 200 + conn;
  const auto c = static_cast<std::size_t>(conn);
  log->updates.assign(stream.size(), Sample{});
  log->epochs.assign(stream.size(), EpochStats{});
  std::deque<std::pair<std::size_t, std::future<service::UpdateOutcome>>>
      pending;
  const auto collect_front = [&] {
    const std::size_t i = pending.front().first;
    try {
      const service::UpdateOutcome outcome = pending.front().second.get();
      Sample& s = log->updates[i];
      s.done = Now();
      s.ok = true;
      log->epochs[i] = Summarize(outcome);
      if (traced) {
        log->spans.push_back(
            {"inproc.submit", tid, s.sent, s.done, SpanId(c, i)});
      }
    } catch (const std::exception& e) {
      log->Fail(e.what());
    }
    pending.pop_front();
  };
  // Collects completions until `deadline`; with a negative deadline, until
  // nothing is pending.  False on a reply timeout.
  const auto pump_until = [&](double deadline) {
    while (!pending.empty()) {
      std::future<service::UpdateOutcome>& future = pending.front().second;
      const std::future_status status =
          deadline < 0.0
              ? future.wait_for(std::chrono::milliseconds(kReplyTimeoutMs))
              : future.wait_until(ToTimePoint(deadline));
      if (status != std::future_status::ready) {
        if (deadline < 0.0) {
          ++log->timeouts;
          return false;
        }
        return true;
      }
      collect_front();
    }
    if (deadline >= 0.0) {
      std::this_thread::sleep_until(ToTimePoint(deadline));
    }
    return true;
  };
  try {
    pump_until(sched.start);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (spec.closed_loop &&
          (sched.limit > 0 ? i >= sched.limit : Now() >= sched.end)) {
        break;
      }
      const double due =
          spec.closed_loop
              ? 0.0
              : sched.start +
                    DueAt(spec.update_rate, spec.update_conns, conn, i);
      datalog::UpdateRequest req = ToRequest(predicate, stream[i]);
      if (!spec.closed_loop) {
        pump_until(due);
      }
      Sample& s = log->updates[i];
      s.sent = Now();
      s.due = spec.closed_loop ? s.sent : due;
      pending.emplace_back(i, session.Submit(std::move(req)));
      s.returned = Now();
      ++log->sent;
      if (traced) {
        log->spans.push_back(
            {"inproc.submit_call", tid, s.sent, s.returned, SpanId(c, i)});
      }
      if (spec.closed_loop) {
        if (!pump_until(-1.0)) {
          return;
        }
      } else {
        while (!pending.empty() &&
               pending.front().second.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          collect_front();
        }
      }
    }
    pump_until(-1.0);
  } catch (const std::exception& e) {
    log->Fail(e.what());
  }
}

void InProcQuerier(const service::Session& session, const Spec& spec,
                   int conn, const Schedule& sched, double phase_seconds,
                   bool traced, ConnLog* log) {
  const int tid = 250 + conn;
  const std::size_t n =
      DueBefore(spec.query_rate, spec.query_conns, conn, phase_seconds);
  log->queries.assign(n, Sample{});
  try {
    for (std::size_t j = 0; j < n; ++j) {
      const double due =
          sched.start + DueAt(spec.query_rate, spec.query_conns, conn, j);
      std::this_thread::sleep_until(ToTimePoint(due));
      Sample& s = log->queries[j];
      s.due = due;
      s.sent = Now();
      ++log->queries_sent;
      const std::vector<datalog::Tuple> rows =
          session.Query(spec.query_predicate);
      s.done = Now();
      s.ok = !rows.empty();
      if (!s.ok) {
        log->Fail("empty Session::Query result");
      }
      if (traced) {
        log->spans.push_back(
            {"inproc.query", tid, s.sent, s.done, kQueryIds + j});
      }
    }
  } catch (const std::exception& e) {
    log->Fail(e.what());
  }
}

Phase RunInProcPhase(const Spec& spec, const Inputs& in, InProcStack& stack,
                     double seconds, std::size_t limit, bool traced) {
  service::Session& session = stack.OpenedSession();
  const std::uint32_t predicate =
      session.Db().GetProgram().PredicateId(spec.change_predicate);
  const double phase_seconds = kWarmupSeconds + seconds;
  return RunPhase(
      spec, seconds, limit,
      [&](int c, const Schedule& s, ConnLog* log) {
        InProcUpdater(session, predicate, spec,
                      in.streams[static_cast<std::size_t>(c)], c, s, traced,
                      log);
      },
      [&](int q, const Schedule& s, ConnLog* log) {
        InProcQuerier(session, spec, q, s, phase_seconds, traced, log);
      });
}

std::vector<double> InProcBurst(const service::Session& session,
                                const Spec& spec, bool traced, ConnLog* log) {
  std::vector<double> ms;
  try {
    for (std::size_t j = 0; j < spec.burst_queries; ++j) {
      ++log->queries_sent;
      const double t0 = Now();
      const std::vector<datalog::Tuple> rows =
          session.Query(spec.query_predicate);
      const double t1 = Now();
      if (rows.empty()) {
        log->Fail("empty Session::Query result");
        continue;
      }
      ms.push_back((t1 - t0) * 1e3);
      if (traced) {
        log->spans.push_back({"inproc.query", 260, t0, t1, kQueryIds + j});
      }
    }
  } catch (const std::exception& e) {
    log->Fail(e.what());
  }
  return ms;
}

// --- correctness oracle --------------------------------------------------------

/// Order-independent store fingerprint (micro_service's): the sum over rows
/// of an FNV-style hash of (predicate, values).
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t checksum = 0;

  bool operator==(const Digest& other) const {
    return rows == other.rows && checksum == other.checksum;
  }
};

Digest DigestStore(const datalog::RelationStore& store) {
  Digest d;
  for (std::size_t p = 0; p < store.NumRelations(); ++p) {
    const auto pred = static_cast<std::uint32_t>(p);
    store.Of(pred).ForEachRow([&d, pred](std::uint32_t, datalog::RowView row) {
      std::uint64_t h = pred + 1;
      for (const datalog::Value& v : row) {
        h = h * 0x100000001b3ULL + v.Bits();
      }
      d.checksum += h;
      ++d.rows;
    });
  }
  return d;
}

/// Reads every relation of the session back over the wire.
Digest ReadBackWire(WireStack& stack, const datalog::Program& program,
                    std::size_t* max_frame) {
  ServiceClient client;
  client.Connect("127.0.0.1", stack.Port());
  Digest d;
  for (std::uint32_t p = 0; p < program.NumPredicates(); ++p) {
    net::QueryRequest q;
    q.request_id = kQueryIds + p;
    q.session_id = stack.SessionId();
    q.predicate = program.predicate_names[p];
    const net::QueryResultResponse res = client.QuerySync(q);
    *max_frame = std::max(*max_frame, net::EncodeQueryResult(res).size());
    for (const net::WireTuple& row : res.rows) {
      std::uint64_t h = p + 1;
      for (const net::WireValue& v : row) {
        h = h * 0x100000001b3ULL + datalog::Value::Int(v.int_value).Bits();
      }
      d.checksum += h;
      ++d.rows;
    }
  }
  return d;
}

struct SerialResult {
  Digest final_store;
  Digest ref_store;  ///< at the exact-count checkpoint
  std::size_t ref_batches = 0;
  std::uint64_t ref_maint_ops = 0;
  datalog::EvalStats ref_eval;
  std::vector<double> apply_ms;
};

/// Replays the set-up facts and the first `sent[c]` batches of every stream
/// through Database::ApplyRequest: the oracle, and the serial depth.
SerialResult RunSerial(const Spec& spec, const Inputs& in,
                       const std::vector<std::size_t>& sent,
                       std::vector<Span>* spans) {
  datalog::Database db(spec.program);
  for (const Fact& f : in.setup) {
    db.Insert(f.predicate, Pair(f.a, f.b));
  }
  db.Materialize();
  const datalog::MaintenanceStrategy strategy =
      datalog::ParseMaintenanceStrategy(spec.strategy);
  const std::uint32_t predicate =
      db.GetProgram().PredicateId(spec.change_predicate);
  SerialResult out;
  std::uint64_t maint_ops = 0;
  datalog::EvalStats eval;
  const auto checkpoint = [&] {
    out.ref_store = DigestStore(db.Store());
    out.ref_batches = out.apply_ms.size();
    out.ref_maint_ops = maint_ops;
    out.ref_eval = eval;
  };
  for (std::size_t c = 0; c < sent.size(); ++c) {
    for (std::size_t i = 0; i < sent[c]; ++i) {
      const datalog::UpdateRequest req = ToRequest(predicate, in.streams[c][i]);
      const double t0 = Now();
      const datalog::UpdateResult r = db.ApplyRequest(req, strategy);
      const double t1 = Now();
      out.apply_ms.push_back((t1 - t0) * 1e3);
      if (spans != nullptr) {
        spans->push_back({"serial.apply", 300, t0, t1, SpanId(c, i)});
      }
      maint_ops += r.total_maint_ops;
      for (const datalog::ComponentUpdateStats& comp : r.components) {
        eval.Merge(comp.eval);
      }
      if (out.apply_ms.size() == spec.ref_batches) {
        checkpoint();
      }
    }
  }
  if (spec.ref_batches == 0 || out.apply_ms.size() < spec.ref_batches) {
    checkpoint();
  }
  out.final_store = DigestStore(db.Store());
  return out;
}

std::uint64_t Total(const std::vector<std::size_t>& v) {
  std::uint64_t n = 0;
  for (const std::size_t x : v) {
    n += x;
  }
  return n;
}

// --- output -------------------------------------------------------------------

void PrintHeader(const Spec& spec, const Options& opt, int nproc,
                 int workers) {
  std::printf("wirebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: nproc=%d workers=%d llc_bytes=%ld\n", nproc, workers,
              sysconf(_SC_LEVEL3_CACHE_SIZE));
  std::printf("load: %s loop, %d update + %d query connection(s), %zu "
              "ops/batch, strategy %s, pipeline_depth %u, warm-up %gs\n",
              spec.closed_loop ? "closed" : "open", spec.update_conns,
              spec.query_conns, spec.batch_ops, spec.strategy,
              spec.pipeline_depth, kWarmupSeconds);
  if (!spec.closed_loop) {
    std::printf("offered: %g update batches/s, %g queries/s%s\n",
                spec.update_rate, spec.query_rate,
                opt.rate > 0.0 ? " (--rate override)" : "");
  }
}

void PrintOracle(const Digest& store, const SerialResult& serial,
                 std::size_t max_frame) {
  std::printf("oracle: wire rows=%llu checksum=%016llx, serial rows=%llu "
              "checksum=%016llx -> %s\n",
              static_cast<unsigned long long>(store.rows),
              static_cast<unsigned long long>(store.checksum),
              static_cast<unsigned long long>(serial.final_store.rows),
              static_cast<unsigned long long>(serial.final_store.checksum),
              store == serial.final_store ? "match" : "MISMATCH");
  std::printf("exact counts after %zu serial batches: store.rows=%llu "
              "store.checksum=%016llx datalog.maint_ops=%llu\n",
              serial.ref_batches,
              static_cast<unsigned long long>(serial.ref_store.rows),
              static_cast<unsigned long long>(serial.ref_store.checksum),
              static_cast<unsigned long long>(serial.ref_maint_ops));
  std::printf("largest QUERY_RESULT frame: %zu bytes (limit %zu)\n",
              max_frame, net::kMaxFrameLength);
}

int Finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics) {
  std::printf("failed_frac=%.6g (%llu failed of %llu requests)\n",
              attempted == 0 ? 0.0 : Count(failed) / Count(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintMetrics(metrics);
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- the two modes -----------------------------------------------------------

int RunUntraced(const Spec& spec, const Inputs& in, const Options& opt,
                int workers) {
  const datalog::Database names(spec.program);
  std::vector<double> setups;
  std::unique_ptr<WireStack> stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    stack = std::make_unique<WireStack>(spec, in, workers);
    setups.push_back(stack->SetupSeconds());
  }
  const Phase phase = RunWirePhase(spec, in, *stack, opt.seconds, 0, false);
  const double rss_mb = PeakRssMb();
  ConnLog burst_log;
  const std::vector<double> burst =
      spec.query_conns == 0 ? WireBurst(*stack, spec, false, &burst_log)
                            : std::vector<double>{};
  const std::shared_ptr<service::Session> session =
      stack->Host().FindSession(stack->SessionId());
  if (session != nullptr) {
    std::printf("store: %zu rows, %zu bytes after the timed phase\n",
                session->Store().TotalTuples(),
                session->Store().MemoryBytes());
  }
  std::size_t max_frame = 0;
  const Digest wire = ReadBackWire(*stack, names.GetProgram(), &max_frame);
  stack.reset();
  const SerialResult serial = RunSerial(spec, in, phase.Sent(), nullptr);
  phase.ReportErrors("wire");

  const Updates u = TimedUpdates(phase, in);
  const std::vector<double> query_ms =
      spec.query_conns > 0 ? TimedQueries(phase) : burst;
  std::printf("samples: %zu updates, %zu queries%s\n", u.latency_ms.size(),
              query_ms.size(),
              spec.query_conns > 0 ? "" : " (quiesced burst)");
  PrintOracle(wire, serial, max_frame);
  const bool store_ok = wire == serial.final_store;
  std::uint64_t failed = phase.Failed() + burst_log.Failed();
  if (!store_ok) {
    failed += Total(phase.Sent());
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Percentile(setups, 0.5), "s"},
      {"update_tput", u.wall_s > 0.0 ? u.ops / u.wall_s : 0.0, "ops/s"},
      {"update_p50_ms", Percentile(u.latency_ms, 0.50), "ms"},
      {"query_p50_ms", Percentile(query_ms, 0.50), "ms"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  return Finish(store_ok && failed == 0,
                phase.Attempted() + burst_log.Attempted(), failed, metrics);
}

struct NetCounters {
  std::uint64_t backpressure = 0;
  std::uint64_t write_stalls = 0;
  std::uint64_t bytes_out = 0;
};

NetCounters ReadNet(service::EngineHost& host) {
  const dsched::obs::MetricsRegistry& m = host.Metrics();
  return {m.Value("net.backpressure_stalls"), m.Value("net.write_stalls"),
          m.Value("net.bytes_out")};
}

struct PoolCounters {
  std::uint64_t steals = 0;
  std::uint64_t sleeps = 0;
};

PoolCounters ReadPool(service::EngineHost& host) {
  host.ExportMetrics();
  return {host.Metrics().Value("host.pool.steals"),
          host.Metrics().Value("host.pool.sleeps")};
}

/// The wire session's own counters, published when it closes.
struct SessionCounters {
  std::uint64_t pipeline_stalls = 0;
  std::uint64_t pipeline_stall_ns = 0;
  std::uint64_t inflight_hw = 0;
  std::uint64_t queue_hw = 0;
  std::uint64_t absorb_waits = 0;
  std::uint64_t publish_chunks = 0;
  std::uint64_t prepare_locked = 0;
  std::uint64_t prepare_fast = 0;
  std::uint64_t index_rebuilds = 0;
};

SessionCounters CloseAndRead(WireStack& stack) {
  ServiceClient client;
  client.Connect("127.0.0.1", stack.Port());
  net::CloseSessionRequest req;
  req.request_id = 1;
  req.session_id = stack.SessionId();
  client.CloseSessionSync(req);
  const dsched::obs::MetricsRegistry& m = stack.Host().Metrics();
  const std::string p = "session.bench.";
  return {m.Value(p + "pipeline.stalls"),
          m.Value(p + "pipeline.stall_ns"),
          m.Value(p + "pipeline.inflight_high_water"),
          m.Value(p + "queue_depth"),
          m.Value(p + "store.absorb_waits"),
          m.Value(p + "store.publish_chunks"),
          m.Value(p + "store.prepare_locked"),
          m.Value(p + "store.prepare_fast"),
          m.Value(p + "store.index_rebuilds")};
}

int RunTraced(const Spec& spec, const Inputs& in, const Options& opt,
              int workers) {
  const datalog::Database names(spec.program);
  const datalog::Program& program = names.GetProgram();

  // Depth 1, traced: over the wire.  Its closed-loop batch count fixes the
  // stream every later depth replays.
  auto wire_stack = std::make_unique<WireStack>(spec, in, workers);
  const NetCounters net_before = ReadNet(wire_stack->Host());
  const Phase wire = RunWirePhase(spec, in, *wire_stack, opt.seconds, 0, true);
  const NetCounters net_after = ReadNet(wire_stack->Host());
  ConnLog wire_burst_log;
  const std::vector<double> wire_burst =
      WireBurst(*wire_stack, spec, true, &wire_burst_log);
  const NetCounters net_burst = ReadNet(wire_stack->Host());
  std::size_t max_frame = 0;
  const Digest wire_digest = ReadBackWire(*wire_stack, program, &max_frame);
  const SessionCounters session = CloseAndRead(*wire_stack);
  wire_stack.reset();
  const std::size_t limit = spec.closed_loop ? wire.Sent().front() : 0;

  // Depth 1 again, untraced: the base of obs.trace_overhead.
  auto plain_stack = std::make_unique<WireStack>(spec, in, workers);
  const Phase plain =
      RunWirePhase(spec, in, *plain_stack, opt.seconds, limit, false);
  std::size_t plain_frame = 0;
  const Digest plain_digest = ReadBackWire(*plain_stack, program, &plain_frame);
  plain_stack.reset();

  // Depth 2: in process, through Session::Submit and Session::Query.
  auto inproc_stack = std::make_unique<InProcStack>(spec, in, workers);
  const PoolCounters pool_before = ReadPool(inproc_stack->Host());
  const Phase inproc =
      RunInProcPhase(spec, in, *inproc_stack, opt.seconds, limit, true);
  const PoolCounters pool_after = ReadPool(inproc_stack->Host());
  ConnLog inproc_burst_log;
  const std::vector<double> inproc_burst = InProcBurst(
      inproc_stack->OpenedSession(), spec, true, &inproc_burst_log);
  const Digest inproc_digest =
      DigestStore(inproc_stack->OpenedSession().Store());
  inproc_stack.reset();

  // Depth 3: serial Database::ApplyRequest, which is also the oracle.
  std::vector<Span> spans;
  const SerialResult serial = RunSerial(spec, in, wire.Sent(), &spans);

  wire.ReportErrors("wire (traced)");
  plain.ReportErrors("wire (untraced)");
  inproc.ReportErrors("in-process");
  PrintOracle(wire_digest, serial, max_frame);
  const bool stores_ok = wire_digest == serial.final_store &&
                         plain_digest == serial.final_store &&
                         inproc_digest == serial.final_store &&
                         plain.Sent() == wire.Sent() &&
                         inproc.Sent() == wire.Sent();
  if (!stores_ok) {
    std::printf("oracle: a depth diverged (untraced wire %s, in-process %s)\n",
                plain_digest == serial.final_store ? "match" : "MISMATCH",
                inproc_digest == serial.final_store ? "match" : "MISMATCH");
  }
  std::uint64_t failed = wire.Failed() + plain.Failed() + inproc.Failed() +
                         wire_burst_log.Failed() + inproc_burst_log.Failed();
  if (!stores_ok) {
    failed += Total(wire.Sent());
  }
  const std::uint64_t attempted =
      wire.Attempted() + plain.Attempted() + inproc.Attempted() +
      wire_burst_log.Attempted() + inproc_burst_log.Attempted();

  for (const Phase* p : {&wire, &inproc}) {
    for (const auto* logs : {&p->updaters, &p->queriers}) {
      for (const ConnLog& log : *logs) {
        spans.insert(spans.end(), log.spans.begin(), log.spans.end());
      }
    }
  }
  spans.insert(spans.end(), wire_burst_log.spans.begin(),
               wire_burst_log.spans.end());
  spans.insert(spans.end(), inproc_burst_log.spans.begin(),
               inproc_burst_log.spans.end());
  std::filesystem::create_directories(kTraceDir);
  const std::string trace_path = std::string(kTraceDir) + "/" + spec.name +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".trace.json";
  if (WriteChromeTrace(trace_path, spans)) {
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                trace_path.c_str());
  } else {
    std::fprintf(stderr, "wirebench: cannot write %s\n", trace_path.c_str());
  }

  // Per-epoch engine stats of the in-process depth.
  std::vector<double> wait_ms;
  std::vector<double> block_ms;
  std::vector<double> work_ms;
  std::vector<double> max_component_ms;
  std::vector<double> cascade_ms;
  std::vector<double> dispatch_ms;
  std::vector<double> idle_ms;
  std::vector<double> sched_ms;
  std::vector<double> stall_ms;
  std::vector<double> active;
  double work_total_s = 0.0;
  double cascade_total_s = 0.0;
  double sched_total_s = 0.0;
  double tasks = 0.0;
  double dispatched = 0.0;
  double dispatch_batches = 0.0;
  double frontier_stalls = 0.0;
  ForTimed(inproc, [&](std::size_t c, std::size_t i, const Sample& s) {
    const EpochStats& e = inproc.updaters[c].epochs[i];
    wait_ms.push_back((s.done - s.sent - e.cascade_s) * 1e3);
    block_ms.push_back((s.returned - s.sent) * 1e3);
    work_ms.push_back(e.work_s * 1e3);
    max_component_ms.push_back(e.max_component_s * 1e3);
    cascade_ms.push_back(e.cascade_s * 1e3);
    dispatch_ms.push_back(e.dispatch_s * 1e3);
    idle_ms.push_back(e.idle_s * 1e3);
    sched_ms.push_back(e.sched_s * 1e3);
    stall_ms.push_back(e.frontier_stall_s * 1e3);
    active.push_back(Count(e.active_components));
    work_total_s += e.work_s;
    cascade_total_s += e.cascade_s;
    sched_total_s += e.sched_s;
    tasks += Count(e.tasks);
    dispatched += Count(e.dispatched);
    dispatch_batches += Count(e.dispatch_batches);
    frontier_stalls += Count(e.frontier_stalls);
  });
  std::vector<double> ping_rtt_s;
  for (const ConnLog& log : wire.updaters) {
    ping_rtt_s.insert(ping_rtt_s.end(), log.ping_rtt_s.begin(),
                      log.ping_rtt_s.end());
  }

  const Updates traced_u = TimedUpdates(wire, in);
  const Updates plain_u = TimedUpdates(plain, in);
  const Updates inproc_u = TimedUpdates(inproc, in);
  const double traced_p50 = Percentile(traced_u.latency_ms, 0.5);
  const double plain_p50 = Percentile(plain_u.latency_ms, 0.5);
  const double net_ms = traced_p50 - Percentile(inproc_u.latency_ms, 0.5);
  const double wait_p50 = Percentile(wait_ms, 0.5);
  const double cascade_p50 = Percentile(cascade_ms, 0.5);
  const double serial_p50 = Percentile(serial.apply_ms, 0.5);
  const std::vector<double> wire_query =
      spec.query_conns > 0 ? TimedQueries(wire) : wire_burst;
  const std::vector<double> inproc_query =
      spec.query_conns > 0 ? TimedQueries(inproc) : inproc_burst;
  const double epochs = static_cast<double>(cascade_ms.size());
  const double burst_n =
      static_cast<double>(std::max<std::size_t>(1, wire_burst.size()));
  const double probes = Count(serial.ref_eval.index_probes);
  const double locked = Count(session.prepare_locked);
  const double fast = Count(session.prepare_fast);
  std::printf("samples: %zu traced updates, %zu in-process epochs, %zu "
              "queries; untraced wire p50 %.4f ms\n",
              traced_u.latency_ms.size(), cascade_ms.size(),
              wire_query.size(), plain_p50);
  std::printf("decomposition of traced update_p50_ms %.4f = net %.4f + "
              "service wait %.4f + cascade %.4f + unattributed %.4f\n",
              traced_p50, net_ms, wait_p50, cascade_p50,
              traced_p50 - net_ms - wait_p50 - cascade_p50);

  const std::vector<Metric> metrics = {
      {"net.wire_ms_p50", net_ms, "ms"},
      {"net.ping_rtt_us_p50", Percentile(ping_rtt_s, 0.5) * 1e6, "us"},
      {"net.backpressure_stalls",
       Count(net_after.backpressure - net_before.backpressure), "count"},
      {"net.write_stalls",
       Count(net_after.write_stalls - net_before.write_stalls), "count"},
      {"net.bytes_out_per_query",
       Count(net_burst.bytes_out - net_after.bytes_out) / burst_n, "B"},
      {"net.query_wire_ms_p50",
       Percentile(wire_query, 0.5) - Percentile(inproc_query, 0.5), "ms"},
      {"service.wait_ms_p50", wait_p50, "ms"},
      {"service.wait_ms_p99", Percentile(wait_ms, 0.99), "ms"},
      {"service.submit_block_ms_p99", Percentile(block_ms, 0.99), "ms"},
      {"service.pipeline_stalls", Count(session.pipeline_stalls), "count"},
      {"service.pipeline_stall_ms", Count(session.pipeline_stall_ns) / 1e6,
       "ms"},
      {"service.inflight_hw", Count(session.inflight_hw), "count"},
      {"service.queue_hw", Count(session.queue_hw), "count"},
      {"service.query_ms_p50", Percentile(inproc_query, 0.5), "ms"},
      {"service.query_ms_p99", Percentile(inproc_query, 0.99), "ms"},
      {"datalog.work_ms_p50", Percentile(work_ms, 0.5), "ms"},
      {"datalog.work_ms_total", work_total_s * 1e3, "ms"},
      {"datalog.max_component_ms_p50", Percentile(max_component_ms, 0.5),
       "ms"},
      {"datalog.serial_apply_ms_p50", serial_p50, "ms"},
      {"datalog.parallel_speedup", serial_p50 / cascade_p50, "ratio"},
      {"datalog.maint_ops", Count(serial.ref_maint_ops), "count"},
      {"datalog.bindings_explored", Count(serial.ref_eval.bindings_explored),
       "count"},
      {"datalog.index_probes", probes, "count"},
      {"datalog.index_misses", Count(serial.ref_eval.index_misses), "count"},
      {"datalog.index_miss_frac", Count(serial.ref_eval.index_misses) / probes,
       "ratio"},
      {"datalog.active_components_per_batch", Mean(active), "count"},
      {"runtime.cascade_ms_p50", cascade_p50, "ms"},
      {"runtime.cascade_ms_total", cascade_total_s * 1e3, "ms"},
      {"runtime.dispatch_ms_p50", Percentile(dispatch_ms, 0.5), "ms"},
      {"runtime.idle_ms_p50", Percentile(idle_ms, 0.5), "ms"},
      {"runtime.avg_dispatch_batch", dispatched / dispatch_batches, "count"},
      {"runtime.tasks_per_batch", tasks / epochs, "count"},
      {"runtime.pool_steals", Count(pool_after.steals - pool_before.steals),
       "count"},
      {"runtime.pool_sleeps", Count(pool_after.sleeps - pool_before.sleeps),
       "count"},
      {"runtime.workers", static_cast<double>(workers), "count"},
      {"runtime.worker_util",
       work_total_s / (cascade_total_s * static_cast<double>(workers)),
       "ratio"},
      {"runtime.frontier_stalls", frontier_stalls, "count"},
      {"runtime.frontier_stall_ms_p50", Percentile(stall_ms, 0.5), "ms"},
      {"sched.pop_ms_p50", Percentile(sched_ms, 0.5), "ms"},
      {"sched.pop_ms_total", sched_total_s * 1e3, "ms"},
      {"sched.share", sched_total_s / cascade_total_s, "ratio"},
      {"store.absorb_waits", Count(session.absorb_waits), "count"},
      {"store.publish_chunks", Count(session.publish_chunks), "count"},
      {"store.prepare_locked", locked, "count"},
      {"store.prepare_fast", fast, "count"},
      {"store.prepare_locked_frac", locked / (locked + fast), "ratio"},
      {"store.index_rebuilds", Count(session.index_rebuilds), "count"},
      {"store.rows", Count(serial.ref_store.rows), "count"},
      {"store.checksum", Count(serial.ref_store.checksum & kChecksumMask),
       "count"},
      {"loadgen.late_p99_ms", Percentile(traced_u.late_ms, 0.99), "ms"},
      {"update_p99_ms", Percentile(traced_u.latency_ms, 0.99), "ms"},
      {"query_p99_ms", Percentile(wire_query, 0.99), "ms"},
      {"obs.traced_update_p50_ms", traced_p50, "ms"},
      {"obs.untraced_update_p50_ms", plain_p50, "ms"},
      {"obs.trace_overhead", traced_p50 / plain_p50, "ratio"},
      {"unattributed_ms_p50", traced_p50 - net_ms - wait_p50 - cascade_p50,
       "ms"},
      {"samples.update", Count(traced_u.latency_ms.size()), "count"},
      {"samples.query", Count(wire_query.size()), "count"},
  };
  return Finish(stores_ok && failed == 0, attempted, failed, metrics);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  const int nproc = HostCores();
  Spec spec;
  try {
    spec = MakeSpec(opt.workload, nproc);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 2;
  }
  if (opt.rate > 0.0) {
    spec.update_rate = opt.rate;
  }
  // Load-generator hygiene: never more generator connections (one thread
  // each) than cores, so the generator cannot starve the server it measures.
  const int generators = spec.update_conns + spec.query_conns;
  if (generators > nproc) {
    std::fprintf(stderr,
                 "wirebench: %s needs %d generator connections but the host "
                 "has %d cores\n",
                 spec.name.c_str(), generators, nproc);
    return 2;
  }
  const int workers = nproc;
  PrintHeader(spec, opt, nproc, workers);
  const Inputs in = Generate(spec, opt.seed, kWarmupSeconds + opt.seconds);
  std::size_t setup_facts = in.setup.size();
  std::printf("inputs: %zu set-up facts, %zu stream(s) of up to %zu "
              "batches\n",
              setup_facts, in.streams.size(),
              in.streams.empty() ? 0 : in.streams.front().size());
  try {
    return opt.trace ? RunTraced(spec, in, opt, workers)
                     : RunUntraced(spec, in, opt, workers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 1;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
