// The wire protocol: length-prefixed binary frames in front of the service
// layer (docs/WIRE_PROTOCOL.md is the normative spec this file implements).
//
//   frame   = u32 length | u8 opcode | payload      (length covers opcode +
//                                                    payload, so a frame is
//                                                    4 + length bytes)
//   request = u64 request_id | ...                  (every request starts
//                                                    with a client-chosen id;
//                                                    the response echoes it)
//
// All integers are little-endian.  Strings are u32 length + raw bytes.
// Values are a u8 tag (0 = 63-bit int, 1 = symbol) + i64 or string.  The
// codec here is deliberately self-contained — no sockets, no sessions — so
// tests can round-trip and fuzz frames without a server
// (tests/net_test.cpp), and so the client and server cannot disagree on
// the byte layout: both sides call exactly these functions.
//
// Decoding is total: any truncated, oversized, or garbage payload makes
// the Decode* function return false without throwing or crashing — the
// server turns that into an ERROR frame, never into UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace dsched::net {

/// Frame opcodes.  Requests are < 0x80, responses have the high bit set.
enum class Opcode : std::uint8_t {
  // client -> server
  kOpenSession = 0x01,
  kSubmit = 0x02,
  kQuery = 0x03,
  kCloseSession = 0x04,
  kPing = 0x05,
  kAddRules = 0x06,
  kRemoveRule = 0x07,
  // server -> client
  kSessionOpened = 0x81,
  kSubmitResult = 0x82,
  kQueryResult = 0x83,
  kSessionClosed = 0x84,
  kPong = 0x85,
  kRulesChanged = 0x86,
  kError = 0xFF,
};

/// ERROR frame codes (docs/WIRE_PROTOCOL.md, "Error codes").
enum class ErrorCode : std::uint16_t {
  kBadFrame = 1,     ///< malformed payload for the opcode
  kBadOpcode = 2,    ///< unknown opcode (connection is closed after this)
  kNoSession = 3,    ///< unknown, closed, or closing session id
  kBadProgram = 4,   ///< OpenSession: parse/validation/stratification error
  kBadRequest = 5,   ///< unknown predicate, arity mismatch, value overflow
  kShutdown = 6,     ///< server is stopping
  kUpdateFailed = 7, ///< the cascade threw; the session itself stays live
  kBadRules = 8,     ///< AddRules/RemoveRule rejected; program unchanged
  kIdleTimeout = 9,  ///< connection reaped after the idle deadline
  kResultTooLarge = 10,  ///< QUERY result exceeds kMaxFrameLength
};

/// Hard ceiling on `length`; a frame declaring more is a protocol error
/// (kBadFrame) — the peer is garbage or hostile, not merely chatty.
inline constexpr std::size_t kMaxFrameLength = 1u << 24;  // 16 MiB

/// Thrown by EncodeFrame for a payload the frame length cannot carry.
class FrameTooLarge : public util::Error {
 public:
  using util::Error::Error;
};

/// One wire value: a 63-bit integer or a symbol by name (symbols travel as
/// text because interned ids are private to each session's SymbolTable).
struct WireValue {
  bool is_symbol = false;
  std::int64_t int_value = 0;
  std::string symbol;

  static WireValue Int(std::int64_t v) { return {false, v, {}}; }
  static WireValue Sym(std::string name) {
    return {true, 0, std::move(name)};
  }
  friend bool operator==(const WireValue& a, const WireValue& b) {
    return a.is_symbol == b.is_symbol && a.int_value == b.int_value &&
           a.symbol == b.symbol;
  }
};

using WireTuple = std::vector<WireValue>;

/// One base-fact change inside a SUBMIT frame.
struct WireOp {
  bool is_delete = false;
  std::string predicate;
  WireTuple tuple;
};

// --- request messages (client -> server) ---------------------------------

struct OpenSessionRequest {
  std::uint64_t request_id = 0;
  std::string program;         ///< Datalog source text
  std::string name;            ///< metrics name; empty -> host default
  std::string scheduler_spec;  ///< empty -> host default
  std::string strategy;        ///< empty -> host default
  std::uint32_t queue_capacity = 0;   ///< 0 -> host default
  std::uint32_t pipeline_depth = 0;   ///< 0 -> host default
};

struct SubmitRequest {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::vector<WireOp> ops;
};

struct QueryRequest {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::string predicate;
};

struct CloseSessionRequest {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
};

struct PingRequest {
  std::uint64_t request_id = 0;
};

/// ADD_RULES: `text` is Datalog source appended to the live program.
struct AddRulesRequest {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::string text;
};

/// REMOVE_RULE: `text` is one clause matched (up to variable renaming)
/// against the live program's rules.
struct RemoveRuleRequest {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  std::string text;
};

// --- response messages (server -> client) --------------------------------

struct SessionOpenedResponse {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
};

struct SubmitResultResponse {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
};

/// One value in a WireRows cell array: 16 bytes, no heap.  An integer sits
/// in `value`; a symbol's name is the pool bytes [value, value + size).
struct WireCell {
  std::int64_t value = 0;
  std::uint32_t size = 0;
  bool is_symbol = false;
};
static_assert(sizeof(WireCell) <= 16);

/// One row of a WireRows: a view into its cells and symbol pool, valid
/// until that WireRows is next changed or destroyed.
class WireRowView {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool IsSymbol(std::size_t i) const {
    return cells_[i].is_symbol;
  }
  /// The integer; 0 for a symbol, as in WireValue::int_value.
  [[nodiscard]] std::int64_t Int(std::size_t i) const {
    return cells_[i].is_symbol ? 0 : cells_[i].value;
  }
  /// The symbol's name; empty for an integer.
  [[nodiscard]] std::string_view Symbol(std::size_t i) const {
    const WireCell& c = cells_[i];
    return c.is_symbol ? std::string_view(pool_ + c.value, c.size)
                       : std::string_view();
  }
  /// A copy of the row as owned values (a heap vector, plus a string per
  /// symbol).  Implicit, so callers written against WireTuple, such as
  /// `for (const WireTuple& row : result.rows)`, still compile.
  operator WireTuple() const;

  friend bool operator==(const WireRowView& a, const WireRowView& b);
  friend bool operator==(const WireRowView& a, const WireTuple& b);

 private:
  friend class WireRows;
  WireRowView(const WireCell* cells, std::size_t size, const char* pool)
      : cells_(cells), size_(size), pool_(pool) {}
  const WireCell* cells_;
  std::size_t size_;
  const char* pool_;
};

struct QueryResultResponse;

/// The rows of a QUERY_RESULT, flat: one cell array holding every row's
/// values back to back, one string pool holding every symbol's bytes, and
/// the row count.  A result is two heap buffers whatever its row count, and
/// a decode into a reused WireRows keeps the capacity of both.
class WireRows {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = WireRowView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = WireRowView;

    WireRowView operator*() const { return (*rows_)[row_]; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class WireRows;
    const_iterator(const WireRows* rows, std::size_t row)
        : rows_(rows), row_(row) {}
    const WireRows* rows_;
    std::size_t row_;
  };
  using iterator = const_iterator;

  [[nodiscard]] std::size_t size() const { return num_rows_; }
  [[nodiscard]] bool empty() const { return num_rows_ == 0; }
  /// Values the cell array holds before it must grow.
  [[nodiscard]] std::size_t capacity() const { return cells_.capacity(); }
  WireRowView operator[](std::size_t row) const {
    return {cells_.data() + row * arity_, arity_, symbols_.data()};
  }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, num_rows_}; }

  /// Appends a copy of `row`.  Every row must be as wide as the first
  /// (util::LogicError otherwise).
  void push_back(const WireTuple& row);
  /// Drops every row; both buffers keep their capacity.
  void clear();

  friend bool operator==(const WireRows& a, const WireRows& b);
  friend bool operator==(const WireRows& a, const std::vector<WireTuple>& b);

 private:
  friend std::string EncodeQueryResult(const QueryResultResponse& m);
  friend bool DecodeQueryResult(std::string_view payload,
                                QueryResultResponse* out);
  std::vector<WireCell> cells_;
  std::string symbols_;
  std::size_t num_rows_ = 0;
  std::size_t arity_ = 0;
};

struct QueryResultResponse {
  std::uint64_t request_id = 0;
  std::uint16_t arity = 0;
  WireRows rows;
};

struct SessionClosedResponse {
  std::uint64_t request_id = 0;
};

struct PongResponse {
  std::uint64_t request_id = 0;
};

/// Success response to ADD_RULES / REMOVE_RULE: which epoch the change
/// became, the program version now live, and the cascade's delta totals.
struct RulesChangedResponse {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t program_version = 0;
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
};

struct ErrorResponse {
  std::uint64_t request_id = 0;  ///< 0 when the offending frame had none
  ErrorCode code = ErrorCode::kBadFrame;
  std::string message;
};

// --- primitive writer/reader ---------------------------------------------

/// Append-only little-endian byte builder for one payload.
class WireWriter {
 public:
  void U8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Str(std::string_view s);
  void Value(const WireValue& v);
  void Tuple(const WireTuple& t);

  [[nodiscard]] const std::string& Bytes() const { return bytes_; }
  [[nodiscard]] std::string Take() { return std::move(bytes_); }

 private:
  template <typename T>
  void Word(T v);
  std::string bytes_;
};

/// Bounds-checked cursor over one payload.  Every read past the end (or a
/// string/tuple whose declared size exceeds the remaining bytes) sets the
/// failed flag and returns a zero value — no read ever throws, allocates
/// unbounded memory, or touches out-of-range bytes.
class WireReader {
 public:
  explicit WireReader(std::string_view payload) : data_(payload) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  /// A length-prefixed string as a view into the payload (empty on failure).
  std::string_view StrView();
  std::string Str() { return std::string(StrView()); }
  /// Decodes one value into `v`, overwriting every field and reusing the
  /// capacity of its symbol string.
  void ValueInto(WireValue& v);
  WireValue Value() {
    WireValue v;
    ValueInto(v);
    return v;
  }
  WireTuple Tuple();

  [[nodiscard]] bool Failed() const { return failed_; }
  [[nodiscard]] std::size_t Remaining() const { return data_.size() - pos_; }
  /// True iff nothing failed and every payload byte was consumed — the
  /// strictness every Decode* function enforces (trailing bytes reject).
  [[nodiscard]] bool Complete() const { return !failed_ && Remaining() == 0; }

 private:
  bool Need(std::size_t n);
  template <typename T>
  T Word();
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// The one QUERY_RESULT encoder: writes a complete frame (header included)
/// into a single buffer of exactly the frame's size.  EncodeQueryResult and
/// the server's store-direct path both use it, so the layout lives here
/// only.  Sum the size of every value first (kIntValueBytes,
/// SymbolValueBytes), construct with that sum, then write exactly those
/// values, row by row.
class QueryResultWriter {
 public:
  static constexpr std::size_t kIntValueBytes = 9;  ///< tag + i64
  /// Tag + u32 length + the name's bytes.
  [[nodiscard]] static constexpr std::size_t SymbolValueBytes(
      std::size_t name_size) {
    return 5 + name_size;
  }

  /// Throws FrameTooLarge, before allocating anything, when the frame
  /// would exceed kMaxFrameLength.
  QueryResultWriter(std::uint64_t request_id, std::uint16_t arity,
                    std::uint32_t num_rows, std::size_t value_bytes);

  void Int(std::int64_t v);
  void Symbol(std::string_view name);
  /// The finished frame.  Throws util::LogicError unless exactly
  /// `value_bytes` were written.
  [[nodiscard]] std::string Finish();

 private:
  /// Reserves `n` bytes at the cursor; throws util::LogicError on overrun.
  char* Claim(std::size_t n);
  std::string frame_;
  std::size_t pos_ = 0;
};

// --- frame assembly -------------------------------------------------------

/// Renders a complete frame: u32 length + u8 opcode + payload.  Throws
/// FrameTooLarge when the frame would exceed kMaxFrameLength.
[[nodiscard]] std::string EncodeFrame(Opcode opcode, std::string_view payload);

/// One frame sliced out of a receive buffer (payload points into it).
struct Frame {
  Opcode opcode = Opcode::kPing;
  std::string_view payload;
  std::size_t frame_size = 0;  ///< total bytes to consume from the buffer
};

enum class FrameStatus {
  kNeedMore,  ///< buffer holds a partial frame; read more bytes
  kFrame,     ///< *out holds the next frame
  kError,     ///< unrecoverable framing error (zero/oversized length)
};

/// Extracts the next frame from `buffer` without copying.  A length over
/// kMaxFrameLength is a hostile prefix.  kError means the byte stream
/// itself is broken — the connection cannot be resynchronized and must be
/// closed (the opcode inside a well-framed message is NOT validated here).
[[nodiscard]] FrameStatus ExtractFrame(std::string_view buffer, Frame* out);

// --- per-message encode/decode -------------------------------------------
// Encode* renders the complete frame (header included).  Decode* parses a
// payload (frame header already stripped) and returns false on any
// malformed input, leaving *out in an unspecified but valid state.

[[nodiscard]] std::string EncodeOpenSession(const OpenSessionRequest& m);
[[nodiscard]] std::string EncodeSubmit(const SubmitRequest& m);
[[nodiscard]] std::string EncodeQuery(const QueryRequest& m);
[[nodiscard]] std::string EncodeCloseSession(const CloseSessionRequest& m);
[[nodiscard]] std::string EncodePing(const PingRequest& m);
[[nodiscard]] std::string EncodeAddRules(const AddRulesRequest& m);
[[nodiscard]] std::string EncodeRemoveRule(const RemoveRuleRequest& m);
[[nodiscard]] std::string EncodeSessionOpened(const SessionOpenedResponse& m);
[[nodiscard]] std::string EncodeSubmitResult(const SubmitResultResponse& m);
[[nodiscard]] std::string EncodeQueryResult(const QueryResultResponse& m);
[[nodiscard]] std::string EncodeSessionClosed(const SessionClosedResponse& m);
[[nodiscard]] std::string EncodePong(const PongResponse& m);
[[nodiscard]] std::string EncodeRulesChanged(const RulesChangedResponse& m);
[[nodiscard]] std::string EncodeError(const ErrorResponse& m);

[[nodiscard]] bool DecodeOpenSession(std::string_view payload,
                                     OpenSessionRequest* out);
[[nodiscard]] bool DecodeSubmit(std::string_view payload, SubmitRequest* out);
[[nodiscard]] bool DecodeQuery(std::string_view payload, QueryRequest* out);
[[nodiscard]] bool DecodeCloseSession(std::string_view payload,
                                      CloseSessionRequest* out);
[[nodiscard]] bool DecodePing(std::string_view payload, PingRequest* out);
[[nodiscard]] bool DecodeAddRules(std::string_view payload,
                                  AddRulesRequest* out);
[[nodiscard]] bool DecodeRemoveRule(std::string_view payload,
                                    RemoveRuleRequest* out);
[[nodiscard]] bool DecodeSessionOpened(std::string_view payload,
                                       SessionOpenedResponse* out);
[[nodiscard]] bool DecodeSubmitResult(std::string_view payload,
                                      SubmitResultResponse* out);
/// Decodes in one bounds-checked pass, in place: a reused `out` keeps the
/// capacity of its cells and symbol pool, and ends up with exactly the
/// payload's rows (none after a failed decode).
[[nodiscard]] bool DecodeQueryResult(std::string_view payload,
                                     QueryResultResponse* out);
[[nodiscard]] bool DecodeSessionClosed(std::string_view payload,
                                       SessionClosedResponse* out);
[[nodiscard]] bool DecodePong(std::string_view payload, PongResponse* out);
[[nodiscard]] bool DecodeRulesChanged(std::string_view payload,
                                      RulesChangedResponse* out);
[[nodiscard]] bool DecodeError(std::string_view payload, ErrorResponse* out);

/// Human-readable opcode name for diagnostics ("OPEN_SESSION", ...).
[[nodiscard]] const char* OpcodeName(Opcode opcode);

}  // namespace dsched::net
