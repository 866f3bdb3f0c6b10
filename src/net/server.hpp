// The networked frontend: a poll(2)-based server multiplexing many client
// connections onto EngineHost sessions (DESIGN.md §13, docs/WIRE_PROTOCOL.md).
//
// Threading shape:
//
//     poll thread (1)  ── owns every Connection, the fd set and the
//         session map: accept / read / decode / dispatch / write-flush.
//         OPEN_SESSION and PING are answered inline; every other request
//         is handed straight to its session as a job (TrySubmit /
//         TryEvolve / ReadAsync / CloseAsync), never blocking.
//     apply threads (K per session, the session's own) ── run the jobs.
//         Each job answers for itself: the sequencer calls a SUBMIT's or
//         rule change's Done in epoch order, a QUERY encodes its result
//         inside its read job, the close job reports SESSION_CLOSED.  The
//         finished frame goes back to the poll thread through Deliver +
//         the wake pipe.
//
// Pipelining: a client may have any number of request frames in flight on
// one connection.  Frames are DISPATCHED in arrival order, but responses
// come back as they complete — a PONG overtakes a heavy SUBMIT_RESULT, and
// that is the point.  Per session, responses to SUBMIT, ADD_RULES,
// REMOVE_RULE, QUERY and CLOSE_SESSION follow the order the session's
// FIFO took them in (reads in a row may overlap and finish in any order).
//
// Backpressure composes end to end:
//   * session queue full (its bound counts jobs waiting for admission) →
//     the submit is PARKED on its connection and the connection stops
//     reading (kernel TCP backpressure reaches the client); retried every
//     poll round until TrySubmit accepts it.
//   * unsent outbuf bytes over kWriteBufferLimit → the connection also
//     stops reading until the client drains responses (net.write_stalls).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datalog/database.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"

namespace dsched::net {

/// Accept stops (connections queue in the kernel backlog) at this many
/// concurrent connections.
inline constexpr std::size_t kMaxConnections = 1024;
/// Per-connection unsent response bytes above which the server stops
/// reading the connection until the client drains responses.
inline constexpr std::size_t kWriteBufferLimit = 1u << 20;
// Frames declaring a payload longer than wire.hpp's kMaxFrameLength are a
// framing error (kBadFrame + connection close).

struct ServerOptions {
  /// Listen address; tests and benches use the loopback default.
  std::string bind_address = "127.0.0.1";
  /// 0 → ephemeral: the kernel picks; read the result from Port().
  std::uint16_t port = 0;
  /// Connections with no byte traffic, no parked request, and no response
  /// in flight for this long are reaped: sent an IDLE_TIMEOUT error frame
  /// and closed (net.idle_reaped).  0 disables reaping (the default —
  /// long-lived quiet clients are legitimate).
  std::uint64_t idle_timeout_ms = 0;
};

/// One server in front of one EngineHost.  Start() spawns the poll thread;
/// Stop() (or destruction) joins it, closes every connection, and closes
/// (drains) every session the server routed to.
class ServiceServer {
 public:
  explicit ServiceServer(service::EngineHost& host,
                         ServerOptions options = {});
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds + listens + spawns the poll thread.  Throws util::Error when the
  /// socket cannot be bound.  Call once.
  void Start();

  /// Idempotent.  Every live connection is sent a best-effort SHUTDOWN
  /// error frame (request_id 0) before its socket closes, so clients can
  /// tell an orderly stop from a dropped peer.  After return: no thread
  /// is running, every fd is closed, every session opened through this
  /// server is Close()d (drained).
  void Stop();

  /// The bound port (resolves option port 0 to the kernel's pick).  Only
  /// valid after Start().
  [[nodiscard]] std::uint16_t Port() const { return port_; }

  [[nodiscard]] service::EngineHost& Host() { return host_; }

 private:
  /// A request accepted by the wire but not yet by the session's queue —
  /// a SUBMIT batch or an ADD_RULES / REMOVE_RULE evolve, distinguished by
  /// `kind` (kUpdate carries `request`; the evolve kinds carry `text`).
  struct ParkedRequest {
    service::Session::JobKind kind = service::Session::JobKind::kUpdate;
    std::uint64_t request_id = 0;
    std::uint64_t session_id = 0;
    datalog::UpdateRequest request;
    std::string text;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;
    /// Response bytes; [0, out_sent) already went to the socket.  A frame
    /// queued while nothing is unsent is moved in whole, and sends advance
    /// out_sent instead of erasing, so a large frame is never copied.
    std::string outbuf;
    std::size_t out_sent = 0;
    std::optional<ParkedRequest> parked;
    /// Jobs handed to a session for this connection whose response frame
    /// has not come back yet; a connection with responses in flight is
    /// never idle-reaped.
    std::size_t inflight = 0;
    /// Last time bytes moved on this connection (either direction) — the
    /// idle-reaping clock.
    std::chrono::steady_clock::time_point last_activity;
    /// Peer sent EOF; buffered frames (and a parked request) still finish
    /// before the connection is torn down — disconnect never drops work
    /// the wire already accepted.
    bool eof = false;
    bool dead = false;

    /// Queued bytes not yet sent — what every stall check counts.
    [[nodiscard]] std::size_t Unsent() const {
      return outbuf.size() - out_sent;
    }
  };

  void PollLoop();
  void AcceptReady();
  void ReadReady(Connection& conn);
  /// Extracts + dispatches every complete frame in the inbuf; stops at a
  /// parked submit (per-connection order) and closes on drained EOF.
  void ProcessInbuf(Connection& conn);
  void WriteReady(Connection& conn);
  void DispatchFrame(Connection& conn, const Frame& frame);
  void HandleOpenSession(Connection& conn, std::string_view payload);
  void HandleSubmit(Connection& conn, std::string_view payload);
  void HandleQuery(Connection& conn, std::string_view payload);
  void HandleCloseSession(Connection& conn, std::string_view payload);
  /// Shared ADD_RULES / REMOVE_RULE path (they differ only in decode and
  /// queue kind).
  void HandleEvolve(Connection& conn, std::string_view payload,
                    service::Session::JobKind kind);
  void RetryParked(Connection& conn);
  /// Offers a translated SUBMIT or rule change to `session`: true once it
  /// is accepted (or answered with NO_SESSION because the session is
  /// closing), false when the queue is full and the caller must park it.
  bool Offer(Connection& conn, service::Session& session,
             ParkedRequest& request);
  /// Closes every connection idle past options_.idle_timeout_ms (no byte
  /// traffic, nothing parked, no response in flight) with an IDLE_TIMEOUT
  /// error frame.
  void ReapIdle(std::chrono::steady_clock::time_point now);
  /// Translates wire ops into a typed UpdateRequest; throws util::Error on
  /// unknown predicate / arity mismatch / int overflow.
  static datalog::UpdateRequest TranslateOps(service::Session& session,
                                             const std::vector<WireOp>& ops);
  /// The live session for `session_id`, adopted into sessions_ on first
  /// use; null when FindSession misses (unknown / closed / closing).
  service::Session* RouteSession(std::uint64_t session_id);
  /// Apply threads hand finished response frames to the poll thread.
  void Deliver(std::uint64_t conn_id, std::string frame);
  void DrainDeliveries();
  void SendFrame(Connection& conn, std::string frame);
  void SendError(Connection& conn, std::uint64_t request_id, ErrorCode code,
                 std::string message);
  void CloseConnection(Connection& conn);
  void Wake();

  service::EngineHost& host_;
  const ServerOptions options_;
  std::uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::thread poll_thread_;

  // Poll-thread-owned state (no lock: only PollLoop and the helpers it
  // calls touch these after Start).
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Connection> conns_;

  /// Every session the server has routed to, kept alive until Stop closes
  /// it (a closed session's entry stays, inert; poll-thread-owned too).
  /// Symbol interning (the poll thread translating a SUBMIT) and rendering
  /// (an apply thread encoding a QUERY_RESULT) both go through the
  /// session's Database, whose one symbol lock also covers in-process Sym
  /// callers.
  std::map<std::uint64_t, std::shared_ptr<service::Session>> sessions_;

  /// Apply thread → poll thread handoff.
  std::mutex delivery_mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> deliveries_;

  // Cached counter refs (registry guarantees lifetime).
  obs::MetricsRegistry::Counter& frames_in_;
  obs::MetricsRegistry::Counter& frames_out_;
  obs::MetricsRegistry::Counter& bytes_in_;
  obs::MetricsRegistry::Counter& bytes_out_;
  obs::MetricsRegistry::Counter& conns_opened_;
  obs::MetricsRegistry::Counter& conns_closed_;
  obs::MetricsRegistry::Counter& backpressure_stalls_;
  obs::MetricsRegistry::Counter& write_stalls_;
  obs::MetricsRegistry::Counter& protocol_errors_;
  obs::MetricsRegistry::Counter& net_sessions_opened_;
  obs::MetricsRegistry::Counter& net_sessions_closed_;
  obs::MetricsRegistry::Counter& idle_reaped_;
};

}  // namespace dsched::net
