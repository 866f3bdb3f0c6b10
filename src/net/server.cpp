#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace dsched::net {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Per-round read cap: stay fair across connections under a flood; the
/// kernel keeps the rest and POLLIN fires again next round.
constexpr std::size_t kMaxReadPerRound = 256 * 1024;

/// Encodes `predicate`'s rows straight from the session's store into one
/// QUERY_RESULT frame: a sizing pass, then a writing pass, both in store
/// order.  It runs as a read job of the session (Session::ReadAsync), so
/// the store cannot change between the passes.  Throws FrameTooLarge before
/// allocating when the result cannot fit a frame, util::Error for an
/// unknown predicate.
std::string EncodeStoreQuery(const service::Session& session,
                             std::uint64_t request_id,
                             std::string_view predicate) {
  OBS_SCOPE(Category::kNetQueryEncode);
  // Pin the program once for the whole encode: names and arities are read
  // through this snapshot only.
  const std::shared_ptr<const datalog::CompiledProgram> snap =
      session.Db().Snapshot();
  const datalog::Program& program = snap->program;
  const std::uint32_t pred = program.PredicateId(predicate);
  const datalog::Relation& rel = session.Store().Of(pred);
  // Symbol names are read under the database's symbol lock, taken once
  // for the whole frame: a concurrent SUBMIT translation (or any other
  // Session::Sym caller) may intern, which can reallocate the table.
  const datalog::Database::SymbolNames names = session.Db().LockSymbolNames();
  std::size_t value_bytes = 0;
  rel.ForEachRow([&](std::uint32_t, datalog::RowView row) {
    for (const datalog::Value v : row) {
      value_bytes += v.IsSymbol() ? QueryResultWriter::SymbolValueBytes(
                                        names.Of(v).size())
                                  : QueryResultWriter::kIntValueBytes;
    }
  });
  QueryResultWriter writer(
      request_id,
      static_cast<std::uint16_t>(program.predicate_arities[pred]),
      static_cast<std::uint32_t>(rel.Size()), value_bytes);
  rel.ForEachRow([&](std::uint32_t, datalog::RowView row) {
    for (const datalog::Value v : row) {
      if (v.IsSymbol()) {
        writer.Symbol(names.Of(v));
      } else {
        writer.Int(v.AsInt());
      }
    }
  });
  return writer.Finish();
}

}  // namespace

ServiceServer::ServiceServer(service::EngineHost& host, ServerOptions options)
    : host_(host),
      options_(std::move(options)),
      frames_in_(host.Metrics().Get("net.frames_in")),
      frames_out_(host.Metrics().Get("net.frames_out")),
      bytes_in_(host.Metrics().Get("net.bytes_in")),
      bytes_out_(host.Metrics().Get("net.bytes_out")),
      conns_opened_(host.Metrics().Get("net.connections_opened")),
      conns_closed_(host.Metrics().Get("net.connections_closed")),
      backpressure_stalls_(host.Metrics().Get("net.backpressure_stalls")),
      write_stalls_(host.Metrics().Get("net.write_stalls")),
      protocol_errors_(host.Metrics().Get("net.protocol_errors")),
      net_sessions_opened_(host.Metrics().Get("net.sessions_opened")),
      net_sessions_closed_(host.Metrics().Get("net.sessions_closed")),
      idle_reaped_(host.Metrics().Get("net.idle_reaped")) {}

ServiceServer::~ServiceServer() { Stop(); }

void ServiceServer::Start() {
  DSCHED_CHECK_MSG(!started_, "ServiceServer::Start called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw util::Error(Errno("socket"));
  }
  const auto fail = [this](const char* what) {
    const std::string message = Errno(what);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw util::Error(message);
  };
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) {
    fail("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  SetNonBlocking(listen_fd_);
  if (::pipe(wake_pipe_) != 0) {
    fail("pipe");
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  started_ = true;
  poll_thread_ = std::thread([this] { PollLoop(); });
}

void ServiceServer::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  Wake();
  poll_thread_.join();
  // Poll thread is gone: conns_ is ours now.  Say goodbye before hanging
  // up: every live connection gets a best-effort SHUTDOWN error frame, so
  // clients can tell an orderly stop from a dropped peer instead of a
  // bare EOF.  In-flight requests those clients are still waiting on are
  // covered by the same frame (request_id 0 = connection-scoped).
  const std::string goodbye = EncodeError(
      ErrorResponse{0, ErrorCode::kShutdown, "server stopping"});
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0 && !conn.dead) {
      SendFrame(conn, goodbye);
      CloseConnection(conn);  // flushes anything the eager send left over
    } else if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
  conns_.clear();
  // Close every session: queued jobs still run, and their frames land in
  // deliveries_ for connections that are gone (the wake pipe is still
  // open for them).
  for (auto& [id, session] : sessions_) {
    session->Close();
  }
  sessions_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void ServiceServer::Wake() {
  const char byte = 1;
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void ServiceServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;
  while (!stop_.load(std::memory_order_acquire)) {
    DrainDeliveries();
    for (auto it = conns_.begin(); it != conns_.end();) {
      it = it->second.dead ? conns_.erase(it) : std::next(it);
    }
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    const bool accepting = conns_.size() < kMaxConnections;
    fds.push_back(
        pollfd{listen_fd_, static_cast<short>(accepting ? POLLIN : 0), 0});
    bool any_parked = false;
    for (auto& [id, conn] : conns_) {
      int events = 0;
      const bool stalled = conn.Unsent() > kWriteBufferLimit;
      if (!conn.parked && !stalled && !conn.eof) {
        events |= POLLIN;
      }
      if (conn.Unsent() > 0) {
        events |= POLLOUT;
      }
      any_parked = any_parked || conn.parked.has_value();
      fds.push_back(pollfd{conn.fd, static_cast<short>(events), 0});
      ids.push_back(id);
    }
    // Parked requests have no fd event to wait on — poll with a short
    // timeout and retry them until the session queue accepts them.  Idle
    // reaping (when enabled) bounds the timeout too, so a silent fd set
    // still wakes the sweep by the earliest deadline.
    int timeout_ms = -1;
    if (any_parked) {
      timeout_ms = 1;
    } else if (options_.idle_timeout_ms > 0 && !conns_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::int64_t next_ms = static_cast<std::int64_t>(
          options_.idle_timeout_ms);
      for (const auto& [id, conn] : conns_) {
        const std::int64_t remaining =
            static_cast<std::int64_t>(options_.idle_timeout_ms) -
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn.last_activity)
                .count();
        next_ms = std::min(next_ms, remaining);
      }
      timeout_ms = static_cast<int>(std::max<std::int64_t>(next_ms, 1));
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      AcceptReady();
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      auto it = conns_.find(ids[i - 2]);
      if (it == conns_.end() || it->second.dead) {
        continue;
      }
      Connection& conn = it->second;
      if ((fds[i].revents & POLLOUT) != 0) {
        WriteReady(conn);
      }
      if (!conn.dead && (fds[i].revents & POLLIN) != 0) {
        ReadReady(conn);
      } else if (!conn.dead &&
                 (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        CloseConnection(conn);
      }
    }
    for (auto& [id, conn] : conns_) {
      if (!conn.dead && conn.parked) {
        RetryParked(conn);
      }
    }
    if (options_.idle_timeout_ms > 0) {
      ReapIdle(std::chrono::steady_clock::now());
    }
  }
}

void ServiceServer::ReapIdle(std::chrono::steady_clock::time_point now) {
  const auto deadline = std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto& [id, conn] : conns_) {
    // Idle means NOTHING is happening on the connection: no byte traffic
    // since the deadline, no parked request waiting for queue space, no
    // dispatched response still in flight, nothing left to flush.  A slow
    // cascade the client is legitimately waiting on keeps inflight > 0,
    // so it never trips this.
    if (conn.dead || conn.parked || conn.inflight > 0 || conn.Unsent() > 0 ||
        now - conn.last_activity < deadline) {
      continue;
    }
    idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER(Category::kNetIdleReap, 1);
    SendError(conn, 0, ErrorCode::kIdleTimeout,
              "connection idle past " +
                  std::to_string(options_.idle_timeout_ms) + "ms");
    CloseConnection(conn);
  }
}

void ServiceServer::AcceptReady() {
  while (conns_.size() < kMaxConnections) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      break;  // EAGAIN (drained) or transient error; poll again next round
    }
    SetNonBlocking(fd);
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    Connection& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    conn.last_activity = std::chrono::steady_clock::now();
    conns_opened_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServiceServer::ReadReady(Connection& conn) {
  OBS_SCOPE(Category::kNetRead);
  char buf[65536];
  std::size_t read_this_round = 0;
  while (read_this_round < kMaxReadPerRound) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.inbuf.append(buf, static_cast<std::size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      read_this_round += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      conn.eof = true;  // half-close: finish the buffered frames first
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    conn.eof = true;  // ECONNRESET and friends
    break;
  }
  ProcessInbuf(conn);
}

void ServiceServer::ProcessInbuf(Connection& conn) {
  while (!conn.dead && !conn.parked) {
    Frame frame;
    const FrameStatus status = ExtractFrame(conn.inbuf, &frame);
    if (status == FrameStatus::kNeedMore) {
      break;
    }
    if (status == FrameStatus::kError) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, 0, ErrorCode::kBadFrame,
                "unrecoverable framing error (zero or oversized length)");
      CloseConnection(conn);
      return;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER(Category::kNetFrameIn, 1);
    const std::size_t consumed = frame.frame_size;
    DispatchFrame(conn, frame);  // frame.payload aliases inbuf: use, then
    conn.inbuf.erase(0, consumed);  // erase
  }
  if (conn.eof && !conn.dead && !conn.parked) {
    CloseConnection(conn);  // any trailing partial frame dies with the peer
  }
}

void ServiceServer::DispatchFrame(Connection& conn, const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kPing: {
      // Answered inline on the poll thread: a PONG legitimately overtakes
      // any in-flight SUBMIT_RESULT (the pipelining the protocol promises).
      PingRequest req;
      if (!DecodePing(frame.payload, &req)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, 0, ErrorCode::kBadFrame, "malformed PING payload");
        return;
      }
      SendFrame(conn, EncodePong(PongResponse{req.request_id}));
      return;
    }
    case Opcode::kOpenSession:
      HandleOpenSession(conn, frame.payload);
      return;
    case Opcode::kSubmit:
      HandleSubmit(conn, frame.payload);
      return;
    case Opcode::kQuery:
      HandleQuery(conn, frame.payload);
      return;
    case Opcode::kCloseSession:
      HandleCloseSession(conn, frame.payload);
      return;
    case Opcode::kAddRules:
      HandleEvolve(conn, frame.payload,
                   service::Session::JobKind::kAddRules);
      return;
    case Opcode::kRemoveRule:
      HandleEvolve(conn, frame.payload,
                   service::Session::JobKind::kRemoveRule);
      return;
    default:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, 0, ErrorCode::kBadOpcode,
                "unknown opcode; closing connection");
      CloseConnection(conn);
      return;
  }
}

void ServiceServer::HandleOpenSession(Connection& conn,
                                      std::string_view payload) {
  OpenSessionRequest req;
  if (!DecodeOpenSession(payload, &req)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, 0, ErrorCode::kBadFrame, "malformed OPEN_SESSION payload");
    return;
  }
  service::SessionOptions opts;
  opts.name = req.name;
  opts.scheduler_spec = req.scheduler_spec;
  opts.maintenance_strategy = req.strategy;
  opts.queue_capacity = req.queue_capacity;
  opts.pipeline_depth = req.pipeline_depth;
  std::shared_ptr<service::Session> session;
  try {
    session = host_.OpenSession(req.program, opts);
  } catch (const util::Error& e) {
    SendError(conn, req.request_id, ErrorCode::kBadProgram, e.what());
    return;
  }
  // Wire sessions start from an empty base (base facts arrive via SUBMIT);
  // materializing the empty fixpoint arms Submit.
  session->Materialize();
  const std::uint64_t session_id = session->Id();
  sessions_[session_id] = std::move(session);
  net_sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  SendFrame(conn, EncodeSessionOpened(SessionOpenedResponse{
                      req.request_id, session_id}));
}

service::Session* ServiceServer::RouteSession(std::uint64_t session_id) {
  // FindSession is the liveness gate: a closed (or closing, or foreign)
  // id misses and the caller answers NO_SESSION.
  std::shared_ptr<service::Session> session = host_.FindSession(session_id);
  if (session == nullptr) {
    return nullptr;
  }
  // A live session the server has not routed to before (opened in-process
  // by the embedding application) is adopted here.
  std::shared_ptr<service::Session>& slot = sessions_[session_id];
  if (slot == nullptr) {
    slot = std::move(session);
  }
  return slot.get();
}

datalog::UpdateRequest ServiceServer::TranslateOps(
    service::Session& session, const std::vector<WireOp>& ops) {
  // ONE snapshot acquire per dispatch: a concurrent ADD_RULES can swap the
  // compiled program between any two statements here, so every read below
  // goes through this pin (predicate and symbol ids are stable across
  // versions, so a batch translated against version V applies unchanged
  // under V+1).
  const std::shared_ptr<const datalog::CompiledProgram> snap =
      session.Db().Snapshot();
  const datalog::Program& program = snap->program;
  datalog::UpdateRequest update;
  for (const WireOp& op : ops) {
    const std::uint32_t pred = program.PredicateId(op.predicate);
    if (program.predicate_arities[pred] != op.tuple.size()) {
      throw util::InvalidArgument(
          "arity mismatch for '" + op.predicate + "': got " +
          std::to_string(op.tuple.size()) + ", declared " +
          std::to_string(program.predicate_arities[pred]));
    }
    datalog::Tuple tuple;
    tuple.reserve(op.tuple.size());
    for (const WireValue& v : op.tuple) {
      if (v.is_symbol) {
        tuple.push_back(session.Sym(v.symbol));
      } else {
        tuple.push_back(datalog::Value::Int(v.int_value));
      }
    }
    auto& side = op.is_delete ? update.deletions : update.insertions;
    side.emplace_back(pred, std::move(tuple));
  }
  return update;
}

bool ServiceServer::Offer(Connection& conn, service::Session& session,
                          ParkedRequest& request) {
  const bool update = request.kind == service::Session::JobKind::kUpdate;
  // Runs on an apply thread, in epoch order, under the session's pipeline
  // lock: encode the answer and hand it to the poll thread.
  service::Session::Done done =
      [this, update, conn_id = conn.id, request_id = request.request_id](
          service::UpdateOutcome&& outcome, std::exception_ptr error) {
        if (error != nullptr) {
          // A failed batch, or a rejected change that left the program
          // untouched: tell the client what the engine refused.
          std::string message;
          try {
            std::rethrow_exception(std::move(error));
          } catch (const std::exception& e) {
            message = e.what();
          }
          Deliver(conn_id, EncodeError(ErrorResponse{
                               request_id,
                               update ? ErrorCode::kUpdateFailed
                                      : ErrorCode::kBadRules,
                               std::move(message)}));
          return;
        }
        const auto inserted =
            static_cast<std::uint64_t>(outcome.update.total_inserted);
        const auto deleted =
            static_cast<std::uint64_t>(outcome.update.total_deleted);
        Deliver(conn_id,
                update ? EncodeSubmitResult(SubmitResultResponse{
                             request_id, outcome.epoch, inserted, deleted})
                       : EncodeRulesChanged(RulesChangedResponse{
                             request_id, outcome.epoch,
                             outcome.program_version, inserted, deleted}));
      };
  bool accepted = false;
  try {
    // A declined TrySubmit leaves the batch in `request`, to park and
    // retry.
    accepted = update ? session.TrySubmit(std::move(request.request),
                                          std::move(done))
                      : session.TryEvolve(request.kind, request.text,
                                          std::move(done));
  } catch (const util::Error&) {
    SendError(conn, request.request_id, ErrorCode::kNoSession,
              "session is closed");
    return true;
  }
  if (accepted) {
    ++conn.inflight;  // DrainDeliveries counts the answer back
  }
  return accepted;
}

void ServiceServer::HandleSubmit(Connection& conn, std::string_view payload) {
  SubmitRequest req;
  if (!DecodeSubmit(payload, &req)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, 0, ErrorCode::kBadFrame, "malformed SUBMIT payload");
    return;
  }
  service::Session* session = RouteSession(req.session_id);
  if (session == nullptr) {
    SendError(conn, req.request_id, ErrorCode::kNoSession,
              "no live session " + std::to_string(req.session_id));
    return;
  }
  ParkedRequest request;
  request.request_id = req.request_id;
  request.session_id = req.session_id;
  try {
    request.request = TranslateOps(*session, req.ops);
  } catch (const util::Error& e) {
    SendError(conn, req.request_id, ErrorCode::kBadRequest, e.what());
    return;
  }
  if (!Offer(conn, *session, request)) {
    // The session queue is at its bound: park the translated batch on this
    // connection and stop reading it — kernel TCP backpressure reaches the
    // client, composing the wire bound with the session bound.
    conn.parked = std::move(request);
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER(Category::kNetBackpressure, 1);
  }
}

void ServiceServer::HandleEvolve(Connection& conn, std::string_view payload,
                                 service::Session::JobKind kind) {
  ParkedRequest request;
  request.kind = kind;
  if (kind == service::Session::JobKind::kAddRules) {
    AddRulesRequest req;
    if (!DecodeAddRules(payload, &req)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, 0, ErrorCode::kBadFrame, "malformed ADD_RULES payload");
      return;
    }
    request.request_id = req.request_id;
    request.session_id = req.session_id;
    request.text = std::move(req.text);
  } else {
    RemoveRuleRequest req;
    if (!DecodeRemoveRule(payload, &req)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, 0, ErrorCode::kBadFrame,
                "malformed REMOVE_RULE payload");
      return;
    }
    request.request_id = req.request_id;
    request.session_id = req.session_id;
    request.text = std::move(req.text);
  }
  service::Session* session = RouteSession(request.session_id);
  if (session == nullptr) {
    SendError(conn, request.request_id, ErrorCode::kNoSession,
              "no live session " + std::to_string(request.session_id));
    return;
  }
  if (!Offer(conn, *session, request)) {
    // Same backpressure as SUBMIT: park the evolve and stop reading until
    // the session queue accepts it.
    conn.parked = std::move(request);
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER(Category::kNetBackpressure, 1);
  }
}

void ServiceServer::RetryParked(Connection& conn) {
  ParkedRequest& parked = *conn.parked;
  service::Session* session = RouteSession(parked.session_id);
  if (session == nullptr) {
    SendError(conn, parked.request_id, ErrorCode::kNoSession,
              "session closed while request was parked");
  } else if (!Offer(conn, *session, parked)) {
    return;  // still full; next poll round retries
  }
  conn.parked.reset();
  ProcessInbuf(conn);  // resume the frames queued up behind the stall
}

void ServiceServer::HandleQuery(Connection& conn, std::string_view payload) {
  QueryRequest req;
  if (!DecodeQuery(payload, &req)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, 0, ErrorCode::kBadFrame, "malformed QUERY payload");
    return;
  }
  service::Session* session = RouteSession(req.session_id);
  if (session == nullptr) {
    SendError(conn, req.request_id, ErrorCode::kNoSession,
              "no live session " + std::to_string(req.session_id));
    return;
  }
  // The read job encodes the result on an apply thread, after every job
  // the session accepted before it (read-your-writes).
  const bool queued = session->ReadAsync(
      [this, session, conn_id = conn.id, request_id = req.request_id,
       predicate = std::move(req.predicate)] {
        std::string frame;
        try {
          frame = EncodeStoreQuery(*session, request_id, predicate);
        } catch (const FrameTooLarge& e) {
          frame = EncodeError(
              ErrorResponse{request_id, ErrorCode::kResultTooLarge, e.what()});
        } catch (const util::Error& e) {
          frame = EncodeError(
              ErrorResponse{request_id, ErrorCode::kBadRequest, e.what()});
        }
        Deliver(conn_id, std::move(frame));
      });
  if (!queued) {
    SendError(conn, req.request_id, ErrorCode::kNoSession,
              "session is closed");
    return;
  }
  ++conn.inflight;
}

void ServiceServer::HandleCloseSession(Connection& conn,
                                       std::string_view payload) {
  CloseSessionRequest req;
  if (!DecodeCloseSession(payload, &req)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, 0, ErrorCode::kBadFrame,
              "malformed CLOSE_SESSION payload");
    return;
  }
  service::Session* session = RouteSession(req.session_id);
  // CloseAsync unregisters at once: a request dispatched after this one
  // gets NO_SESSION.  SESSION_CLOSED follows every accepted job's answer
  // and the session's final metrics.
  if (session == nullptr ||
      !session->CloseAsync(
          [this, conn_id = conn.id, request_id = req.request_id] {
            net_sessions_closed_.fetch_add(1, std::memory_order_relaxed);
            Deliver(conn_id,
                    EncodeSessionClosed(SessionClosedResponse{request_id}));
          })) {
    SendError(conn, req.request_id, ErrorCode::kNoSession,
              "no live session " + std::to_string(req.session_id));
    return;
  }
  ++conn.inflight;
}

void ServiceServer::Deliver(std::uint64_t conn_id, std::string frame) {
  {
    const std::lock_guard<std::mutex> lock(delivery_mutex_);
    deliveries_.emplace_back(conn_id, std::move(frame));
  }
  Wake();
}

void ServiceServer::DrainDeliveries() {
  std::vector<std::pair<std::uint64_t, std::string>> batch;
  {
    const std::lock_guard<std::mutex> lock(delivery_mutex_);
    batch.swap(deliveries_);
  }
  for (auto& [conn_id, frame] : batch) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) {
      continue;  // client vanished mid-flight; its session drained anyway
    }
    if (it->second.inflight > 0) {
      --it->second.inflight;
    }
    if (it->second.dead) {
      continue;
    }
    SendFrame(it->second, std::move(frame));
  }
}

void ServiceServer::SendFrame(Connection& conn, std::string frame) {
  if (conn.dead) {
    return;
  }
  const bool was_stalled = conn.Unsent() > kWriteBufferLimit;
  if (conn.Unsent() == 0) {
    conn.outbuf = std::move(frame);
    conn.out_sent = 0;
  } else {
    // Behind unsent bytes the frame is appended.  The sent prefix is
    // dropped first once it outweighs the rest, so compaction moves no
    // more bytes than have been sent.
    if (conn.out_sent >= conn.Unsent()) {
      conn.outbuf.erase(0, conn.out_sent);
      conn.out_sent = 0;
    }
    conn.outbuf += frame;
  }
  conn.last_activity = std::chrono::steady_clock::now();
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER(Category::kNetFrameOut, 1);
  WriteReady(conn);  // eager flush; leftovers wait for POLLOUT
  if (!conn.dead && !was_stalled && conn.Unsent() > kWriteBufferLimit) {
    write_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServiceServer::SendError(Connection& conn, std::uint64_t request_id,
                              ErrorCode code, std::string message) {
  // protocol_errors_ is charged at the decode sites, not here — ERRORs
  // like kNoSession/kBadRequest are well-formed protocol traffic.
  SendFrame(conn, EncodeError(ErrorResponse{request_id, code,
                                            std::move(message)}));
}

void ServiceServer::WriteReady(Connection& conn) {
  OBS_SCOPE(Category::kNetWrite);
  while (conn.Unsent() > 0) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.out_sent,
                             conn.Unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      conn.out_sent += static_cast<std::size_t>(n);
      // Bytes moving out count as traffic: a slow reader draining a large
      // result is not idle, even once the rest fits in the kernel buffer.
      conn.last_activity = std::chrono::steady_clock::now();
      if (conn.Unsent() == 0) {
        conn.outbuf = std::string();  // release a large frame once sent
        conn.out_sent = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(conn);
    return;
  }
}

void ServiceServer::CloseConnection(Connection& conn) {
  if (conn.dead) {
    return;
  }
  conn.dead = true;
  if (conn.Unsent() > 0) {
    // One best-effort goodbye (the final ERROR frame, usually); anything
    // the kernel declines is gone.
    (void)!::send(conn.fd, conn.outbuf.data() + conn.out_sent, conn.Unsent(),
                  MSG_NOSIGNAL);
  }
  ::close(conn.fd);
  conn.fd = -1;
  conn.outbuf.clear();
  conn.out_sent = 0;
  conn.inbuf.clear();
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dsched::net
