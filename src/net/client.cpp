#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace dsched::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

void ServiceClient::Connect(const std::string& host, std::uint16_t port) {
  DSCHED_CHECK_MSG(fd_ < 0, "already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw util::Error(Errno("socket"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw util::Error("bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = Errno("connect");
    Close();
    throw util::Error(message);
  }
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void ServiceClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

void ServiceClient::SendRaw(std::string_view bytes) {
  DSCHED_CHECK_MSG(fd_ >= 0, "not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw util::Error(Errno("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void ServiceClient::SendOpenSession(const OpenSessionRequest& req) {
  SendRaw(EncodeOpenSession(req));
}
void ServiceClient::SendSubmit(const SubmitRequest& req) {
  SendRaw(EncodeSubmit(req));
}
void ServiceClient::SendQuery(const QueryRequest& req) {
  SendRaw(EncodeQuery(req));
}
void ServiceClient::SendCloseSession(const CloseSessionRequest& req) {
  SendRaw(EncodeCloseSession(req));
}
void ServiceClient::SendPing(const PingRequest& req) {
  SendRaw(EncodePing(req));
}
void ServiceClient::SendAddRules(const AddRulesRequest& req) {
  SendRaw(EncodeAddRules(req));
}
void ServiceClient::SendRemoveRule(const RemoveRuleRequest& req) {
  SendRaw(EncodeRemoveRule(req));
}

std::uint64_t ServiceClient::Response::RequestId() const {
  switch (opcode) {
    case Opcode::kSessionOpened:
      return session_opened.request_id;
    case Opcode::kSubmitResult:
      return submit_result.request_id;
    case Opcode::kQueryResult:
      return query_result.request_id;
    case Opcode::kSessionClosed:
      return session_closed.request_id;
    case Opcode::kPong:
      return pong.request_id;
    case Opcode::kRulesChanged:
      return rules_changed.request_id;
    case Opcode::kError:
      return error.request_id;
    default:
      return 0;
  }
}

namespace {

/// Decodes one response frame into the member its opcode selects.
bool DecodeResponse(const Frame& frame, ServiceClient::Response* out) {
  switch (frame.opcode) {
    case Opcode::kSessionOpened:
      return DecodeSessionOpened(frame.payload, &out->session_opened);
    case Opcode::kSubmitResult:
      return DecodeSubmitResult(frame.payload, &out->submit_result);
    case Opcode::kQueryResult:
      return DecodeQueryResult(frame.payload, &out->query_result);
    case Opcode::kSessionClosed:
      return DecodeSessionClosed(frame.payload, &out->session_closed);
    case Opcode::kPong:
      return DecodePong(frame.payload, &out->pong);
    case Opcode::kRulesChanged:
      return DecodeRulesChanged(frame.payload, &out->rules_changed);
    case Opcode::kError:
      return DecodeError(frame.payload, &out->error);
    default:
      return false;
  }
}

util::Error MalformedPayload(Opcode opcode) {
  return util::Error(std::string("malformed ") + OpcodeName(opcode) +
                     " response payload");
}

/// The sync calls' contract: an ERROR throws, and the answer must be the
/// expected response to the request just sent.
void CheckSyncResponse(const ServiceClient::Response& resp,
                       std::uint64_t request_id, Opcode expect) {
  if (resp.opcode == Opcode::kError) {
    throw util::Error(std::string("server error (") +
                      std::to_string(static_cast<int>(resp.error.code)) +
                      "): " + resp.error.message);
  }
  DSCHED_CHECK_MSG(resp.opcode == expect && resp.RequestId() == request_id,
                   "out-of-order response to a sync call — requests were "
                   "still in flight");
}

}  // namespace

bool ServiceClient::NextFrame(Frame* frame, int timeout_ms) {
  while (true) {
    const FrameStatus status = ExtractFrame(inbuf_, frame);
    if (status == FrameStatus::kError) {
      throw util::Error("malformed response frame from server");
    }
    if (status == FrameStatus::kFrame) {
      return true;
    }
    // kNeedMore: wait for bytes.
    if (fd_ < 0) {
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return false;  // timeout
    }
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw util::Error(Errno("poll"));
    }
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) {
      return false;  // server closed the connection
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw util::Error(Errno("read"));
    }
    inbuf_.append(buf, static_cast<std::size_t>(n));
  }
}

bool ServiceClient::ReadResponse(Response* out, int timeout_ms) {
  Frame frame;
  if (!NextFrame(&frame, timeout_ms)) {
    return false;
  }
  if (!DecodeResponse(frame, out)) {
    throw MalformedPayload(frame.opcode);
  }
  out->opcode = frame.opcode;
  inbuf_.erase(0, frame.frame_size);
  return true;
}

ServiceClient::Response ServiceClient::AwaitResponse(std::uint64_t request_id,
                                                     Opcode expect) {
  Response resp;
  if (!ReadResponse(&resp)) {
    throw util::Error("connection closed while awaiting response");
  }
  CheckSyncResponse(resp, request_id, expect);
  return resp;
}

std::uint64_t ServiceClient::OpenSessionSync(const OpenSessionRequest& req) {
  SendOpenSession(req);
  return AwaitResponse(req.request_id, Opcode::kSessionOpened)
      .session_opened.session_id;
}

SubmitResultResponse ServiceClient::SubmitSync(const SubmitRequest& req) {
  SendSubmit(req);
  return AwaitResponse(req.request_id, Opcode::kSubmitResult).submit_result;
}

QueryResultResponse ServiceClient::QuerySync(const QueryRequest& req) {
  QueryResultResponse out;
  QuerySync(req, &out);
  return out;
}

void ServiceClient::QuerySync(const QueryRequest& req,
                              QueryResultResponse* out) {
  SendQuery(req);
  Frame frame;
  if (!NextFrame(&frame, -1)) {
    throw util::Error("connection closed while awaiting response");
  }
  Response other;
  other.opcode = frame.opcode;
  if (frame.opcode == Opcode::kQueryResult) {
    // The expected answer decodes straight into the caller's buffers.
    if (!DecodeQueryResult(frame.payload, out)) {
      throw MalformedPayload(frame.opcode);
    }
    other.query_result.request_id = out->request_id;
  } else if (!DecodeResponse(frame, &other)) {
    throw MalformedPayload(frame.opcode);
  }
  inbuf_.erase(0, frame.frame_size);
  CheckSyncResponse(other, req.request_id, Opcode::kQueryResult);
}

void ServiceClient::CloseSessionSync(const CloseSessionRequest& req) {
  SendCloseSession(req);
  (void)AwaitResponse(req.request_id, Opcode::kSessionClosed);
}

void ServiceClient::PingSync(std::uint64_t request_id) {
  SendPing(PingRequest{request_id});
  (void)AwaitResponse(request_id, Opcode::kPong);
}

RulesChangedResponse ServiceClient::AddRulesSync(const AddRulesRequest& req) {
  SendAddRules(req);
  return AwaitResponse(req.request_id, Opcode::kRulesChanged).rules_changed;
}

RulesChangedResponse ServiceClient::RemoveRuleSync(
    const RemoveRuleRequest& req) {
  SendRemoveRule(req);
  return AwaitResponse(req.request_id, Opcode::kRulesChanged).rules_changed;
}

}  // namespace dsched::net
