#include "net/wire.hpp"

namespace dsched::net {

// --- writer ---------------------------------------------------------------

void WireWriter::U16(std::uint16_t v) {
  U8(static_cast<std::uint8_t>(v & 0xFF));
  U8(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::U32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    U8(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void WireWriter::U64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    U8(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s);
}

void WireWriter::Value(const WireValue& v) {
  if (v.is_symbol) {
    U8(1);
    Str(v.symbol);
  } else {
    U8(0);
    I64(v.int_value);
  }
}

void WireWriter::Tuple(const WireTuple& t) {
  U16(static_cast<std::uint16_t>(t.size()));
  for (const WireValue& v : t) {
    Value(v);
  }
}

// --- reader ---------------------------------------------------------------

bool WireReader::Need(std::size_t n) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t WireReader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t WireReader::U16() {
  if (!Need(2)) {
    return 0;
  }
  std::uint16_t v = 0;
  for (int shift = 0; shift < 16; shift += 8) {
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(
                static_cast<std::uint8_t>(data_[pos_++]))
                << shift);
  }
  return v;
}

std::uint32_t WireReader::U32() {
  if (!Need(4)) {
    return 0;
  }
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++]))
         << shift;
  }
  return v;
}

std::uint64_t WireReader::U64() {
  if (!Need(8)) {
    return 0;
  }
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++]))
         << shift;
  }
  return v;
}

std::string WireReader::Str() {
  const std::uint32_t len = U32();
  // Checking against Remaining() BEFORE allocating means a hostile length
  // prefix cannot drive an allocation larger than the frame itself.
  if (!Need(len)) {
    return {};
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

WireValue WireReader::Value() {
  WireValue v;
  const std::uint8_t tag = U8();
  if (tag == 0) {
    v.int_value = I64();
  } else if (tag == 1) {
    v.is_symbol = true;
    v.symbol = Str();
  } else {
    failed_ = true;
  }
  return v;
}

WireTuple WireReader::Tuple() {
  WireTuple t;
  const std::uint16_t arity = U16();
  // Every value is at least 2 bytes (tag + something), so an arity the
  // remaining bytes cannot hold fails fast instead of looping.
  if (!Need(arity * 2u)) {
    return t;
  }
  t.reserve(arity);
  for (std::uint16_t i = 0; i < arity && !failed_; ++i) {
    t.push_back(Value());
  }
  return t;
}

// --- frame assembly -------------------------------------------------------

std::string EncodeFrame(Opcode opcode, std::string_view payload) {
  if (payload.size() + 1 > kMaxFrameLength) {
    throw FrameTooLarge("frame of " + std::to_string(payload.size() + 1) +
                        " bytes exceeds the 16 MiB frame limit");
  }
  WireWriter header;
  header.U32(static_cast<std::uint32_t>(payload.size() + 1));
  header.U8(static_cast<std::uint8_t>(opcode));
  std::string frame = header.Take();
  frame.append(payload);
  return frame;
}

FrameStatus ExtractFrame(std::string_view buffer, Frame* out,
                         std::size_t max_length) {
  if (buffer.size() < 4) {
    return FrameStatus::kNeedMore;
  }
  std::uint32_t length = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    length |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(buffer[static_cast<std::size_t>(
                      shift / 8)]))
              << shift;
  }
  if (length == 0 || length > max_length) {
    return FrameStatus::kError;  // no opcode byte / hostile length prefix
  }
  if (buffer.size() < 4u + length) {
    return FrameStatus::kNeedMore;
  }
  out->opcode = static_cast<Opcode>(static_cast<std::uint8_t>(buffer[4]));
  out->payload = buffer.substr(5, length - 1);
  out->frame_size = 4u + length;
  return FrameStatus::kFrame;
}

// --- per-message encode ---------------------------------------------------

std::string EncodeOpenSession(const OpenSessionRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.Str(m.program);
  w.Str(m.name);
  w.Str(m.scheduler_spec);
  w.Str(m.strategy);
  w.U32(m.queue_capacity);
  w.U32(m.pipeline_depth);
  return EncodeFrame(Opcode::kOpenSession, w.Bytes());
}

std::string EncodeSubmit(const SubmitRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.session_id);
  w.U32(static_cast<std::uint32_t>(m.ops.size()));
  for (const WireOp& op : m.ops) {
    w.U8(op.is_delete ? 1 : 0);
    w.Str(op.predicate);
    w.Tuple(op.tuple);
  }
  return EncodeFrame(Opcode::kSubmit, w.Bytes());
}

std::string EncodeQuery(const QueryRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.session_id);
  w.Str(m.predicate);
  return EncodeFrame(Opcode::kQuery, w.Bytes());
}

std::string EncodeCloseSession(const CloseSessionRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.session_id);
  return EncodeFrame(Opcode::kCloseSession, w.Bytes());
}

std::string EncodePing(const PingRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  return EncodeFrame(Opcode::kPing, w.Bytes());
}

std::string EncodeAddRules(const AddRulesRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.session_id);
  w.Str(m.text);
  return EncodeFrame(Opcode::kAddRules, w.Bytes());
}

std::string EncodeRemoveRule(const RemoveRuleRequest& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.session_id);
  w.Str(m.text);
  return EncodeFrame(Opcode::kRemoveRule, w.Bytes());
}

std::string EncodeSessionOpened(const SessionOpenedResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.session_id);
  return EncodeFrame(Opcode::kSessionOpened, w.Bytes());
}

std::string EncodeSubmitResult(const SubmitResultResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.epoch);
  w.U64(m.inserted);
  w.U64(m.deleted);
  return EncodeFrame(Opcode::kSubmitResult, w.Bytes());
}

std::string EncodeQueryResult(const QueryResultResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U16(m.arity);
  w.U32(static_cast<std::uint32_t>(m.rows.size()));
  for (const WireTuple& row : m.rows) {
    for (const WireValue& v : row) {
      w.Value(v);
    }
  }
  return EncodeFrame(Opcode::kQueryResult, w.Bytes());
}

std::string EncodeSessionClosed(const SessionClosedResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  return EncodeFrame(Opcode::kSessionClosed, w.Bytes());
}

std::string EncodePong(const PongResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  return EncodeFrame(Opcode::kPong, w.Bytes());
}

std::string EncodeRulesChanged(const RulesChangedResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U64(m.epoch);
  w.U64(m.program_version);
  w.U64(m.inserted);
  w.U64(m.deleted);
  return EncodeFrame(Opcode::kRulesChanged, w.Bytes());
}

std::string EncodeError(const ErrorResponse& m) {
  WireWriter w;
  w.U64(m.request_id);
  w.U16(static_cast<std::uint16_t>(m.code));
  w.Str(m.message);
  return EncodeFrame(Opcode::kError, w.Bytes());
}

// --- per-message decode ---------------------------------------------------

bool DecodeOpenSession(std::string_view payload, OpenSessionRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->program = r.Str();
  out->name = r.Str();
  out->scheduler_spec = r.Str();
  out->strategy = r.Str();
  out->queue_capacity = r.U32();
  out->pipeline_depth = r.U32();
  return r.Complete();
}

bool DecodeSubmit(std::string_view payload, SubmitRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->session_id = r.U64();
  const std::uint32_t num_ops = r.U32();
  // Each op is at least 1 (flag) + 4 (name length) + 2 (arity) bytes; a
  // count the remaining payload cannot hold is rejected before reserving.
  if (r.Remaining() / 7 < num_ops) {
    return false;
  }
  out->ops.clear();
  out->ops.reserve(num_ops);
  for (std::uint32_t i = 0; i < num_ops && !r.Failed(); ++i) {
    WireOp op;
    const std::uint8_t flags = r.U8();
    if (flags > 1) {
      return false;
    }
    op.is_delete = flags == 1;
    op.predicate = r.Str();
    op.tuple = r.Tuple();
    out->ops.push_back(std::move(op));
  }
  return r.Complete();
}

bool DecodeQuery(std::string_view payload, QueryRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->session_id = r.U64();
  out->predicate = r.Str();
  return r.Complete();
}

bool DecodeCloseSession(std::string_view payload, CloseSessionRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->session_id = r.U64();
  return r.Complete();
}

bool DecodePing(std::string_view payload, PingRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  return r.Complete();
}

bool DecodeAddRules(std::string_view payload, AddRulesRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->session_id = r.U64();
  out->text = r.Str();
  return r.Complete();
}

bool DecodeRemoveRule(std::string_view payload, RemoveRuleRequest* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->session_id = r.U64();
  out->text = r.Str();
  return r.Complete();
}

bool DecodeSessionOpened(std::string_view payload,
                         SessionOpenedResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->session_id = r.U64();
  return r.Complete();
}

bool DecodeSubmitResult(std::string_view payload, SubmitResultResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->epoch = r.U64();
  out->inserted = r.U64();
  out->deleted = r.U64();
  return r.Complete();
}

bool DecodeQueryResult(std::string_view payload, QueryResultResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->arity = r.U16();
  const std::uint32_t num_rows = r.U32();
  if (num_rows != 0 && r.Remaining() / (2u * out->arity + (out->arity == 0)) <
                           num_rows) {
    return false;
  }
  out->rows.clear();
  out->rows.reserve(num_rows);
  for (std::uint32_t i = 0; i < num_rows && !r.Failed(); ++i) {
    WireTuple row;
    row.reserve(out->arity);
    for (std::uint16_t c = 0; c < out->arity && !r.Failed(); ++c) {
      row.push_back(r.Value());
    }
    out->rows.push_back(std::move(row));
  }
  return r.Complete();
}

bool DecodeSessionClosed(std::string_view payload,
                         SessionClosedResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  return r.Complete();
}

bool DecodePong(std::string_view payload, PongResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  return r.Complete();
}

bool DecodeRulesChanged(std::string_view payload, RulesChangedResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  out->epoch = r.U64();
  out->program_version = r.U64();
  out->inserted = r.U64();
  out->deleted = r.U64();
  return r.Complete();
}

bool DecodeError(std::string_view payload, ErrorResponse* out) {
  WireReader r(payload);
  out->request_id = r.U64();
  const std::uint16_t code = r.U16();
  if (code < 1 ||
      code > static_cast<std::uint16_t>(ErrorCode::kResultTooLarge)) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  out->message = r.Str();
  return r.Complete();
}

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kOpenSession:
      return "OPEN_SESSION";
    case Opcode::kSubmit:
      return "SUBMIT";
    case Opcode::kQuery:
      return "QUERY";
    case Opcode::kCloseSession:
      return "CLOSE_SESSION";
    case Opcode::kPing:
      return "PING";
    case Opcode::kAddRules:
      return "ADD_RULES";
    case Opcode::kRemoveRule:
      return "REMOVE_RULE";
    case Opcode::kSessionOpened:
      return "SESSION_OPENED";
    case Opcode::kSubmitResult:
      return "SUBMIT_RESULT";
    case Opcode::kQueryResult:
      return "QUERY_RESULT";
    case Opcode::kSessionClosed:
      return "SESSION_CLOSED";
    case Opcode::kPong:
      return "PONG";
    case Opcode::kRulesChanged:
      return "RULES_CHANGED";
    case Opcode::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace dsched::net
