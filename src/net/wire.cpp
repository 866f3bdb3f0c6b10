#include "net/wire.hpp"

#include <bit>
#include <cstring>

namespace dsched::net {

namespace {

// Integers travel little-endian; on a little-endian host that is the
// in-memory byte order, so words are copied whole.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies integers in host byte order");

template <typename T>
void StoreWord(char* out, T v) {
  std::memcpy(out, &v, sizeof(T));
}

template <typename T>
T LoadWord(const char* in) {
  T v;
  std::memcpy(&v, in, sizeof(T));
  return v;
}

/// Frame header: u32 length + u8 opcode.
constexpr std::size_t kFrameHeaderBytes = 5;
/// QUERY_RESULT payload before the values: u64 request_id + u16 arity +
/// u32 row count.
constexpr std::size_t kQueryResultHeadBytes = 14;

/// Throws FrameTooLarge when a payload of `payload_size` bytes would make
/// a frame longer than kMaxFrameLength.
void CheckFrameFits(std::size_t payload_size) {
  if (payload_size + 1 > kMaxFrameLength) {
    throw FrameTooLarge("frame of " + std::to_string(payload_size + 1) +
                        " bytes exceeds the 16 MiB frame limit");
  }
}

/// Row-by-row equality of flat rows and any indexable rows (flat or owned).
template <typename Rows>
bool RowsEqual(const WireRows& a, const Rows& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (!(a[r] == b[r])) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- writer ---------------------------------------------------------------

template <typename T>
void WireWriter::Word(T v) {
  char bytes[sizeof(T)];
  StoreWord(bytes, v);
  bytes_.append(bytes, sizeof(T));
}

void WireWriter::U16(std::uint16_t v) { Word(v); }
void WireWriter::U32(std::uint32_t v) { Word(v); }
void WireWriter::U64(std::uint64_t v) { Word(v); }

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

template <typename T>
T WireReader::Word() {
  if (!Need(sizeof(T))) {
    return 0;
  }
  const T v = LoadWord<T>(data_.data() + pos_);
  pos_ += sizeof(T);
  return v;
}

std::uint8_t WireReader::U8() { return Word<std::uint8_t>(); }
std::uint16_t WireReader::U16() { return Word<std::uint16_t>(); }
std::uint32_t WireReader::U32() { return Word<std::uint32_t>(); }
std::uint64_t WireReader::U64() { return Word<std::uint64_t>(); }

std::string_view WireReader::StrView() {
  const std::uint32_t len = U32();
  // Checking against Remaining() before anything is copied means a hostile
  // length prefix cannot drive an allocation larger than the frame itself.
  if (!Need(len)) {
    return {};
  }
  const std::string_view s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

void WireReader::ValueInto(WireValue& v) {
  const std::uint8_t tag = U8();
  v.is_symbol = tag == 1;
  v.int_value = 0;
  if (tag == 0) {
    v.int_value = I64();
    v.symbol.clear();
  } else if (tag == 1) {
    v.symbol.assign(StrView());
  } else {
    failed_ = true;
  }
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

// --- QUERY_RESULT rows -------------------------------------------------------

WireRowView::operator WireTuple() const {
  WireTuple t;
  t.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    t.push_back(IsSymbol(i) ? WireValue::Sym(std::string(Symbol(i)))
                            : WireValue::Int(Int(i)));
  }
  return t;
}

// Equality is for tests and checks, not hot paths: it compares owned
// copies, so it agrees with WireValue's field-by-field operator== exactly.
bool operator==(const WireRowView& a, const WireRowView& b) {
  return WireTuple(a) == WireTuple(b);
}

bool operator==(const WireRowView& a, const WireTuple& b) {
  return WireTuple(a) == b;
}

void WireRows::push_back(const WireTuple& row) {
  if (num_rows_ == 0) {
    arity_ = row.size();
  }
  DSCHED_CHECK_MSG(row.size() == arity_,
                   "every row of a QUERY result must have the same width");
  for (const WireValue& v : row) {
    if (v.is_symbol) {
      cells_.push_back({static_cast<std::int64_t>(symbols_.size()),
                        static_cast<std::uint32_t>(v.symbol.size()), true});
      symbols_.append(v.symbol);
    } else {
      cells_.push_back({v.int_value, 0, false});
    }
  }
  ++num_rows_;
}

void WireRows::clear() {
  cells_.clear();
  symbols_.clear();
  num_rows_ = 0;
  arity_ = 0;
}

bool operator==(const WireRows& a, const WireRows& b) {
  return RowsEqual(a, b);
}

bool operator==(const WireRows& a, const std::vector<WireTuple>& b) {
  return RowsEqual(a, b);
}

// --- QUERY_RESULT writer ----------------------------------------------------

QueryResultWriter::QueryResultWriter(std::uint64_t request_id,
                                     std::uint16_t arity,
                                     std::uint32_t num_rows,
                                     std::size_t value_bytes) {
  const std::size_t payload = kQueryResultHeadBytes + value_bytes;
  CheckFrameFits(payload);
  frame_.resize(kFrameHeaderBytes + payload);
  const auto length = static_cast<std::uint32_t>(payload + 1);
  StoreWord(Claim(sizeof(length)), length);
  *Claim(1) = static_cast<char>(Opcode::kQueryResult);
  StoreWord(Claim(sizeof(request_id)), request_id);
  StoreWord(Claim(sizeof(arity)), arity);
  StoreWord(Claim(sizeof(num_rows)), num_rows);
}

char* QueryResultWriter::Claim(std::size_t n) {
  DSCHED_CHECK_MSG(frame_.size() - pos_ >= n,
                   "QUERY_RESULT values overran their declared size");
  char* at = frame_.data() + pos_;
  pos_ += n;
  return at;
}

void QueryResultWriter::Int(std::int64_t v) {
  char* at = Claim(kIntValueBytes);
  at[0] = 0;
  StoreWord(at + 1, v);
}

void QueryResultWriter::Symbol(std::string_view name) {
  char* at = Claim(SymbolValueBytes(name.size()));
  at[0] = 1;
  StoreWord(at + 1, static_cast<std::uint32_t>(name.size()));
  std::memcpy(at + 5, name.data(), name.size());
}

std::string QueryResultWriter::Finish() {
  DSCHED_CHECK_MSG(pos_ == frame_.size(),
                   "QUERY_RESULT values fell short of their declared size");
  return std::move(frame_);
}

// --- frame assembly -------------------------------------------------------

std::string EncodeFrame(Opcode opcode, std::string_view payload) {
  CheckFrameFits(payload.size());
  WireWriter header;
  header.U32(static_cast<std::uint32_t>(payload.size() + 1));
  header.U8(static_cast<std::uint8_t>(opcode));
  std::string frame = header.Take();
  frame.append(payload);
  return frame;
}

FrameStatus ExtractFrame(std::string_view buffer, Frame* out) {
  if (buffer.size() < 4) {
    return FrameStatus::kNeedMore;
  }
  const auto length = LoadWord<std::uint32_t>(buffer.data());
  if (length == 0 || length > kMaxFrameLength) {
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
  const WireRows& rows = m.rows;
  std::size_t value_bytes = 0;
  for (const WireCell& cell : rows.cells_) {
    value_bytes += cell.is_symbol
                       ? QueryResultWriter::SymbolValueBytes(cell.size)
                       : QueryResultWriter::kIntValueBytes;
  }
  QueryResultWriter w(m.request_id, m.arity,
                      static_cast<std::uint32_t>(rows.size()), value_bytes);
  for (const WireCell& cell : rows.cells_) {
    if (cell.is_symbol) {
      w.Symbol(std::string_view(rows.symbols_).substr(
          static_cast<std::size_t>(cell.value), cell.size));
    } else {
      w.Int(cell.value);
    }
  }
  return w.Finish();
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
  WireRows& rows = out->rows;
  // Every value is at least an empty symbol's bytes, so a row count the
  // remaining bytes cannot hold is rejected before any cell is allocated.
  // Arity-0 rows carry no bytes and take no cells: any count of them fits.
  const std::size_t num_values = std::size_t{num_rows} * out->arity;
  if (r.Failed() ||
      r.Remaining() / QueryResultWriter::SymbolValueBytes(0) < num_values) {
    rows.clear();
    return false;
  }
  // Resized, not cleared: surviving cells are overwritten whole below, so
  // a reused result neither reallocates nor re-initialises them.
  rows.symbols_.clear();
  rows.cells_.resize(num_values);
  rows.num_rows_ = num_rows;
  rows.arity_ = out->arity;
  for (WireCell& cell : rows.cells_) {
    const std::uint8_t tag = r.U8();
    if (tag == 0) {
      cell = {r.I64(), 0, false};
    } else if (tag == 1) {
      const std::string_view name = r.StrView();
      cell = {static_cast<std::int64_t>(rows.symbols_.size()),
              static_cast<std::uint32_t>(name.size()), true};
      rows.symbols_.append(name);
    } else {
      rows.clear();
      return false;
    }
  }
  if (!r.Complete()) {
    rows.clear();
    return false;
  }
  return true;
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
