// Blocking client for the wire protocol (docs/WIRE_PROTOCOL.md): a thin
// framing layer over one TCP connection.  Send* methods write a complete
// frame; ReadResponse blocks (with optional timeout) for the next response
// frame, whatever it is — pipelining is the caller's protocol: keep your
// own request-id table and match responses as they arrive.
//
// The Sync helpers are for callers with nothing else in flight: they send,
// then read exactly one response and insist it answers them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.hpp"

namespace dsched::net {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient() { Close(); }

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ServiceClient(ServiceClient&& other) noexcept
      : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
    other.fd_ = -1;
  }
  ServiceClient& operator=(ServiceClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      inbuf_ = std::move(other.inbuf_);
      other.fd_ = -1;
    }
    return *this;
  }

  /// Connects (blocking) to host:port.  Throws util::Error on failure.
  void Connect(const std::string& host, std::uint16_t port);
  /// Idempotent; further reads return false, further sends throw.
  void Close();
  [[nodiscard]] bool Connected() const { return fd_ >= 0; }

  // --- pipelined sends (blocking full-frame writes) ---------------------
  void SendOpenSession(const OpenSessionRequest& req);
  void SendSubmit(const SubmitRequest& req);
  void SendQuery(const QueryRequest& req);
  void SendCloseSession(const CloseSessionRequest& req);
  void SendPing(const PingRequest& req);
  void SendAddRules(const AddRulesRequest& req);
  void SendRemoveRule(const RemoveRuleRequest& req);
  /// Raw bytes on the wire — tests use this to inject garbage frames.
  void SendRaw(std::string_view bytes);

  /// One decoded response frame; `opcode` selects which member is set.
  struct Response {
    Opcode opcode = Opcode::kError;
    SessionOpenedResponse session_opened;
    SubmitResultResponse submit_result;
    QueryResultResponse query_result;
    SessionClosedResponse session_closed;
    PongResponse pong;
    RulesChangedResponse rules_changed;
    ErrorResponse error;

    /// The echoed request id, whichever member carries it.
    [[nodiscard]] std::uint64_t RequestId() const;
  };

  /// Blocks up to `timeout_ms` (-1 = forever) for the next response frame.
  /// Returns false on timeout or when the server closed the connection.
  /// Throws util::Error on a malformed response (a server bug, not a
  /// recoverable condition).
  bool ReadResponse(Response* out, int timeout_ms = -1);

  // --- sync conveniences (require nothing else in flight) ---------------
  /// OpenSession round trip; returns the new session id.  Throws
  /// util::Error when the server answers ERROR (bad program / options).
  std::uint64_t OpenSessionSync(const OpenSessionRequest& req);
  /// Submit round trip; throws on ERROR.
  SubmitResultResponse SubmitSync(const SubmitRequest& req);
  /// Query round trip; throws on ERROR.
  QueryResultResponse QuerySync(const QueryRequest& req);
  /// Query round trip decoding into `*out`: its cell array and symbol pool
  /// keep their capacity, so a caller that queries repeatedly reuses one
  /// response's buffers.  Throws on ERROR.
  void QuerySync(const QueryRequest& req, QueryResultResponse* out);
  /// CloseSession round trip; throws on ERROR.
  void CloseSessionSync(const CloseSessionRequest& req);
  /// Ping round trip (liveness probe); throws on ERROR or disconnect.
  void PingSync(std::uint64_t request_id);
  /// AddRules round trip; throws on ERROR (kBadRules: program unchanged).
  RulesChangedResponse AddRulesSync(const AddRulesRequest& req);
  /// RemoveRule round trip; throws on ERROR.
  RulesChangedResponse RemoveRuleSync(const RemoveRuleRequest& req);

 private:
  Response AwaitResponse(std::uint64_t request_id, Opcode expect);
  /// Blocks up to `timeout_ms` for the next complete frame, left in the
  /// buffer for the caller to decode and then consume.  False on timeout or
  /// when the server closed the connection.
  bool NextFrame(Frame* frame, int timeout_ms);

  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace dsched::net
