// Tests for the wire protocol and the networked frontend (src/net/).
//
// Codec: every message round-trips; truncated / oversized / garbage frames
// are rejected without crashing (the decoder is total).  Server: pipelined
// requests complete out of order (PONG overtakes a heavy SUBMIT_RESULT)
// while SUBMIT_RESULTs stay in epoch order; a client disconnecting
// mid-batch leaves a session that drains cleanly and stays queryable from
// a new connection; protocol errors answer with ERROR frames, not crashes.
// QUERY_RESULT frames encoded straight from the store are byte-identical to
// the codec's own encoding of the same rows.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "datalog/value.hpp"

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/error.hpp"

namespace dsched::net {

// gtest prints a mismatched row as its values rather than its bytes.
void PrintTo(const WireRowView& row, std::ostream* os) {
  *os << "(";
  for (std::size_t i = 0; i < row.size(); ++i) {
    *os << (i == 0 ? "" : ", ");
    if (row.IsSymbol(i)) {
      *os << '"' << row.Symbol(i) << '"';
    } else {
      *os << row.Int(i);
    }
  }
  *os << ")";
}

namespace {

constexpr const char* kChainProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
  lbl(X, L) :- has(X, L).
)";

WireOp Insert(std::string pred, WireTuple tuple) {
  return WireOp{false, std::move(pred), std::move(tuple)};
}
WireOp Delete(std::string pred, WireTuple tuple) {
  return WireOp{true, std::move(pred), std::move(tuple)};
}

// --- codec ---------------------------------------------------------------

TEST(WireCodecTest, OpenSessionRoundTrip) {
  OpenSessionRequest req;
  req.request_id = 7;
  req.program = kChainProgram;
  req.name = "wire";
  req.scheduler_spec = "hybrid";
  req.strategy = "dred";
  req.queue_capacity = 16;
  req.pipeline_depth = 4;
  const std::string frame = EncodeOpenSession(req);
  Frame parsed;
  ASSERT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
  EXPECT_EQ(parsed.opcode, Opcode::kOpenSession);
  EXPECT_EQ(parsed.frame_size, frame.size());
  OpenSessionRequest out;
  ASSERT_TRUE(DecodeOpenSession(parsed.payload, &out));
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.program, kChainProgram);
  EXPECT_EQ(out.name, "wire");
  EXPECT_EQ(out.scheduler_spec, "hybrid");
  EXPECT_EQ(out.strategy, "dred");
  EXPECT_EQ(out.queue_capacity, 16u);
  EXPECT_EQ(out.pipeline_depth, 4u);
}

TEST(WireCodecTest, SubmitRoundTripMixedValues) {
  SubmitRequest req;
  req.request_id = 99;
  req.session_id = 3;
  req.ops.push_back(Insert("e", {WireValue::Int(1), WireValue::Int(-2)}));
  req.ops.push_back(Delete("e", {WireValue::Int(5), WireValue::Int(6)}));
  req.ops.push_back(
      Insert("has", {WireValue::Int(1), WireValue::Sym("hot")}));
  const std::string frame = EncodeSubmit(req);
  Frame parsed;
  ASSERT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(parsed.payload, &out));
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.session_id, 3u);
  ASSERT_EQ(out.ops.size(), 3u);
  EXPECT_FALSE(out.ops[0].is_delete);
  EXPECT_TRUE(out.ops[1].is_delete);
  EXPECT_EQ(out.ops[0].predicate, "e");
  EXPECT_EQ(out.ops[0].tuple,
            (WireTuple{WireValue::Int(1), WireValue::Int(-2)}));
  EXPECT_EQ(out.ops[2].tuple,
            (WireTuple{WireValue::Int(1), WireValue::Sym("hot")}));
}

TEST(WireCodecTest, ResponsesRoundTrip) {
  {
    const std::string f =
        EncodeSessionOpened(SessionOpenedResponse{11, 42});
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    SessionOpenedResponse out;
    ASSERT_TRUE(DecodeSessionOpened(p.payload, &out));
    EXPECT_EQ(out.request_id, 11u);
    EXPECT_EQ(out.session_id, 42u);
  }
  {
    const std::string f =
        EncodeSubmitResult(SubmitResultResponse{12, 9, 100, 3});
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    SubmitResultResponse out;
    ASSERT_TRUE(DecodeSubmitResult(p.payload, &out));
    EXPECT_EQ(out.epoch, 9u);
    EXPECT_EQ(out.inserted, 100u);
    EXPECT_EQ(out.deleted, 3u);
  }
  {
    QueryResultResponse resp;
    resp.request_id = 13;
    resp.arity = 2;
    resp.rows.push_back({WireValue::Int(1), WireValue::Sym("a")});
    resp.rows.push_back({WireValue::Int(2), WireValue::Sym("b")});
    const std::string f = EncodeQueryResult(resp);
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    QueryResultResponse out;
    ASSERT_TRUE(DecodeQueryResult(p.payload, &out));
    EXPECT_EQ(out.arity, 2u);
    ASSERT_EQ(out.rows.size(), 2u);
    EXPECT_EQ(out.rows[1],
              (WireTuple{WireValue::Int(2), WireValue::Sym("b")}));
    const WireRowView row = out.rows[1];
    ASSERT_EQ(row.size(), 2u);
    EXPECT_FALSE(row.IsSymbol(0));
    EXPECT_EQ(row.Int(0), 2);
    EXPECT_EQ(row.Symbol(0), "");
    EXPECT_TRUE(row.IsSymbol(1));
    EXPECT_EQ(row.Symbol(1), "b");
    EXPECT_EQ(row.Int(1), 0);
  }
  {
    const std::string f = EncodeError(
        ErrorResponse{14, ErrorCode::kNoSession, "gone"});
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    ErrorResponse out;
    ASSERT_TRUE(DecodeError(p.payload, &out));
    EXPECT_EQ(out.code, ErrorCode::kNoSession);
    EXPECT_EQ(out.message, "gone");
  }
}

TEST(WireCodecTest, EvolveMessagesRoundTrip) {
  {
    AddRulesRequest req;
    req.request_id = 21;
    req.session_id = 8;
    req.text = "side(X) :- tag(X).\nside2(X) :- side(X).";
    const std::string f = EncodeAddRules(req);
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    EXPECT_EQ(p.opcode, Opcode::kAddRules);
    AddRulesRequest out;
    ASSERT_TRUE(DecodeAddRules(p.payload, &out));
    EXPECT_EQ(out.request_id, 21u);
    EXPECT_EQ(out.session_id, 8u);
    EXPECT_EQ(out.text, req.text);
  }
  {
    RemoveRuleRequest req;
    req.request_id = 22;
    req.session_id = 8;
    req.text = "tc(X, Z) :- tc(X, Y), e(Y, Z).";
    const std::string f = EncodeRemoveRule(req);
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    EXPECT_EQ(p.opcode, Opcode::kRemoveRule);
    RemoveRuleRequest out;
    ASSERT_TRUE(DecodeRemoveRule(p.payload, &out));
    EXPECT_EQ(out.request_id, 22u);
    EXPECT_EQ(out.session_id, 8u);
    EXPECT_EQ(out.text, req.text);
  }
  {
    const std::string f =
        EncodeRulesChanged(RulesChangedResponse{23, 5, 3, 40, 7});
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    EXPECT_EQ(p.opcode, Opcode::kRulesChanged);
    RulesChangedResponse out;
    ASSERT_TRUE(DecodeRulesChanged(p.payload, &out));
    EXPECT_EQ(out.request_id, 23u);
    EXPECT_EQ(out.epoch, 5u);
    EXPECT_EQ(out.program_version, 3u);
    EXPECT_EQ(out.inserted, 40u);
    EXPECT_EQ(out.deleted, 7u);
  }
  // The new error codes survive the decoder's range check.
  for (const ErrorCode code : {ErrorCode::kBadRules, ErrorCode::kIdleTimeout,
                               ErrorCode::kResultTooLarge}) {
    const std::string f = EncodeError(ErrorResponse{24, code, "x"});
    Frame p;
    ASSERT_EQ(ExtractFrame(f, &p), FrameStatus::kFrame);
    ErrorResponse out;
    ASSERT_TRUE(DecodeError(p.payload, &out));
    EXPECT_EQ(out.code, code);
  }
}

TEST(WireCodecTest, PartialFramesNeedMore) {
  const std::string frame = EncodePing(PingRequest{1});
  for (std::size_t len = 0; len < frame.size(); ++len) {
    Frame parsed;
    EXPECT_EQ(ExtractFrame(std::string_view(frame).substr(0, len), &parsed),
              FrameStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireCodecTest, BrokenFramingIsAnError) {
  // Zero length: can never carry an opcode.
  const std::string zero(4, '\0');
  Frame parsed;
  EXPECT_EQ(ExtractFrame(zero, &parsed), FrameStatus::kError);
  // Oversized declared length.
  WireWriter w;
  w.U32(static_cast<std::uint32_t>(kMaxFrameLength + 1));
  w.U8(static_cast<std::uint8_t>(Opcode::kPing));
  EXPECT_EQ(ExtractFrame(w.Bytes(), &parsed), FrameStatus::kError);
}

TEST(WireCodecTest, EncodeFrameRefusesOversizedPayloads) {
  // The largest payload that still fits encodes and extracts; one byte
  // more must be refused rather than sent with a length the peer rejects.
  const std::string fits(kMaxFrameLength - 1, 'x');
  const std::string frame = EncodeFrame(Opcode::kQueryResult, fits);
  Frame parsed;
  EXPECT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
  const std::string over(kMaxFrameLength, 'x');
  EXPECT_THROW((void)EncodeFrame(Opcode::kQueryResult, over), FrameTooLarge);
}

/// QUERY_RESULTs of int, symbol, mixed and empty-string values, and a
/// nullary one: the shapes every QUERY_RESULT decoding test runs over.
std::vector<QueryResultResponse> ResultShapes() {
  std::vector<QueryResultResponse> shapes(5);
  shapes[0].arity = 2;
  shapes[1].arity = 2;
  shapes[2].arity = 3;
  shapes[3].arity = 2;
  shapes[4].arity = 0;
  for (int i = 0; i < 4; ++i) {
    shapes[0].rows.push_back({WireValue::Int(i - 2),
                              WireValue::Int(datalog::Value::kMaxInt - i)});
    shapes[1].rows.push_back({WireValue::Sym("s" + std::to_string(i)),
                              WireValue::Sym(std::string(
                                  static_cast<std::size_t>(i) * 7, 'q'))});
    shapes[2].rows.push_back({WireValue::Int(i), WireValue::Sym("m"),
                              i % 2 == 0 ? WireValue::Sym("\xc3\xa9")
                                         : WireValue::Int(-i)});
    shapes[3].rows.push_back({WireValue::Sym(""), WireValue::Sym("")});
  }
  shapes[4].rows.push_back({});
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    shapes[k].request_id = 40 + k;
  }
  return shapes;
}

TEST(WireCodecTest, TruncatedPayloadsRejectedWithoutCrashing) {
  SubmitRequest req;
  req.request_id = 1;
  req.session_id = 2;
  req.ops.push_back(
      Insert("edge", {WireValue::Int(10), WireValue::Sym("name")}));
  const std::string frame = EncodeSubmit(req);
  Frame parsed;
  ASSERT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
  // Every strict prefix of the payload must decode false.
  for (std::size_t len = 0; len < parsed.payload.size(); ++len) {
    SubmitRequest out;
    EXPECT_FALSE(DecodeSubmit(parsed.payload.substr(0, len), &out))
        << "prefix length " << len;
  }
  // Trailing bytes are equally rejected (no silent padding).
  const std::string padded = std::string(parsed.payload) + "x";
  SubmitRequest out;
  EXPECT_FALSE(DecodeSubmit(padded, &out));

  // The same for flat QUERY_RESULTs, and a refused one leaves no rows.
  for (const QueryResultResponse& shape : ResultShapes()) {
    const std::string result_frame = EncodeQueryResult(shape);
    Frame result;
    ASSERT_EQ(ExtractFrame(result_frame, &result), FrameStatus::kFrame);
    QueryResultResponse decoded;
    ASSERT_TRUE(DecodeQueryResult(result.payload, &decoded));
    EXPECT_EQ(decoded.rows, shape.rows);
    for (std::size_t len = 0; len < result.payload.size(); ++len) {
      EXPECT_FALSE(DecodeQueryResult(result.payload.substr(0, len), &decoded))
          << "shape " << shape.request_id << " prefix length " << len;
      EXPECT_TRUE(decoded.rows.empty());
    }
    EXPECT_FALSE(
        DecodeQueryResult(std::string(result.payload) + "x", &decoded))
        << shape.request_id;
    EXPECT_TRUE(decoded.rows.empty());
  }
}

TEST(WireCodecTest, TruncatedEvolvePayloadsRejectedWithoutCrashing) {
  AddRulesRequest add;
  add.request_id = 1;
  add.session_id = 2;
  add.text = "out(X) :- tc(X, _).";
  RemoveRuleRequest remove;
  remove.request_id = 3;
  remove.session_id = 4;
  remove.text = "tc(X, Y) :- e(X, Y).";
  const RulesChangedResponse changed{5, 6, 7, 8, 9};
  for (const std::string& frame :
       {EncodeAddRules(add), EncodeRemoveRule(remove),
        EncodeRulesChanged(changed)}) {
    Frame parsed;
    ASSERT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
    for (std::size_t len = 0; len < parsed.payload.size(); ++len) {
      const std::string_view prefix = parsed.payload.substr(0, len);
      AddRulesRequest a;
      RemoveRuleRequest r;
      RulesChangedResponse c;
      switch (parsed.opcode) {
        case Opcode::kAddRules:
          EXPECT_FALSE(DecodeAddRules(prefix, &a)) << "prefix " << len;
          break;
        case Opcode::kRemoveRule:
          EXPECT_FALSE(DecodeRemoveRule(prefix, &r)) << "prefix " << len;
          break;
        default:
          EXPECT_FALSE(DecodeRulesChanged(prefix, &c)) << "prefix " << len;
          break;
      }
    }
    // Trailing bytes are equally rejected (no silent padding).
    const std::string padded = std::string(parsed.payload) + "x";
    AddRulesRequest a;
    RemoveRuleRequest r;
    RulesChangedResponse c;
    switch (parsed.opcode) {
      case Opcode::kAddRules:
        EXPECT_FALSE(DecodeAddRules(padded, &a));
        break;
      case Opcode::kRemoveRule:
        EXPECT_FALSE(DecodeRemoveRule(padded, &r));
        break;
      default:
        EXPECT_FALSE(DecodeRulesChanged(padded, &c));
        break;
    }
  }
}

TEST(WireCodecTest, GarbagePayloadsRejectedWithoutCrashing) {
  // Deterministic pseudo-garbage: hostile string lengths, op counts, tags.
  std::string garbage;
  std::uint32_t x = 0x9e3779b9u;
  for (int i = 0; i < 4096; ++i) {
    x = x * 1664525u + 1013904223u;
    garbage.push_back(static_cast<char>(x >> 24));
  }
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                          std::size_t{64}, garbage.size()}) {
    const std::string_view payload(garbage.data(), len);
    OpenSessionRequest open;
    SubmitRequest submit;
    QueryRequest query;
    CloseSessionRequest close;
    QueryResultResponse rows;
    ErrorResponse error;
    AddRulesRequest add;
    RemoveRuleRequest remove;
    RulesChangedResponse changed;
    EXPECT_FALSE(DecodeOpenSession(payload, &open));
    EXPECT_FALSE(DecodeSubmit(payload, &submit));
    EXPECT_FALSE(DecodeQuery(payload, &query));
    EXPECT_FALSE(DecodeCloseSession(payload, &close));
    EXPECT_FALSE(DecodeQueryResult(payload, &rows));
    EXPECT_FALSE(DecodeError(payload, &error));
    EXPECT_FALSE(DecodeAddRules(payload, &add));
    EXPECT_FALSE(DecodeRemoveRule(payload, &remove));
    EXPECT_FALSE(DecodeRulesChanged(payload, &changed));
    EXPECT_TRUE(rows.rows.empty());
  }
  // Flat results with any one byte overwritten: the decoder either refuses
  // the payload, leaving no rows, or accepts exactly what re-encodes to it.
  for (const QueryResultResponse& shape : ResultShapes()) {
    const std::string payload = EncodeQueryResult(shape).substr(5);
    for (std::size_t at = 0; at < payload.size(); ++at) {
      for (const char byte : {'\x02', '\x7f', '\xff'}) {
        std::string mutated = payload;
        mutated[at] = byte;
        QueryResultResponse out;
        if (DecodeQueryResult(mutated, &out)) {
          EXPECT_EQ(EncodeQueryResult(out).substr(5), mutated)
              << "shape " << shape.request_id << " byte " << at;
        } else {
          EXPECT_TRUE(out.rows.empty());
        }
      }
    }
  }
}

TEST(WireCodecTest, HostileRowCountsAllocateNothingThePayloadCannotBack) {
  const auto payload = [](std::uint16_t arity, std::uint32_t num_rows,
                          std::string_view values) {
    WireWriter w;
    w.U64(7);
    w.U16(arity);
    w.U32(num_rows);
    return w.Take() + std::string(values);
  };
  WireWriter one_int;
  one_int.Value(WireValue::Int(5));
  const std::string int_bytes = one_int.Take();
  QueryResultResponse out;
  // At arity > 0 a count past what the bytes can hold is refused before a
  // single cell is allocated.
  for (const std::uint16_t arity : {std::uint16_t{1}, std::uint16_t{2},
                                    std::uint16_t{0xffff}}) {
    for (const std::uint32_t n : {std::uint32_t{2}, std::uint32_t{1} << 20,
                                  std::uint32_t{0xffffffff}}) {
      EXPECT_FALSE(DecodeQueryResult(payload(arity, n, int_bytes), &out))
          << arity << " x " << n;
      EXPECT_TRUE(out.rows.empty());
      EXPECT_EQ(out.rows.capacity(), 0u) << arity << " x " << n;
    }
  }
  // A count the bytes could hold if every value were an empty symbol gets
  // at most that many cells before the decode fails.
  const std::string three_ints = int_bytes + int_bytes + int_bytes;
  EXPECT_FALSE(DecodeQueryResult(payload(1, 5, three_ints), &out));
  EXPECT_TRUE(out.rows.empty());
  EXPECT_LE(out.rows.capacity(),
            three_ints.size() / QueryResultWriter::SymbolValueBytes(0));
  // An unknown tag is refused even as the payload's last byte.
  EXPECT_FALSE(DecodeQueryResult(payload(2, 1, int_bytes + '\x02'), &out));
  EXPECT_TRUE(out.rows.empty());
  // Arity-0 rows carry no bytes and take no cells: any count is a valid
  // result, and it still allocates nothing.
  QueryResultResponse nullary;
  ASSERT_TRUE(DecodeQueryResult(payload(0, 0xffffffff, ""), &nullary));
  EXPECT_EQ(nullary.rows.size(), std::size_t{0xffffffff});
  EXPECT_EQ(nullary.rows.capacity(), 0u);
  EXPECT_EQ(nullary.rows[0].size(), 0u);
  EXPECT_FALSE(DecodeQueryResult(payload(0, 3, "x"), &nullary));
  EXPECT_TRUE(nullary.rows.empty());
}

TEST(WireCodecTest, NullaryResultCarriesRowCountAndNoValues) {
  QueryResultResponse present;
  present.request_id = 9;
  present.arity = 0;
  present.rows.push_back({});
  const std::string frame = EncodeQueryResult(present);
  // Header, arity 0, n_rows 1, and not one value byte.
  EXPECT_EQ(frame.size(), 5u + 14u);
  Frame parsed;
  ASSERT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
  QueryResultResponse out;
  ASSERT_TRUE(DecodeQueryResult(parsed.payload, &out));
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.arity, 0u);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].size(), 0u);
  EXPECT_EQ(out.rows[0], WireTuple{});
  EXPECT_EQ(out.rows, present.rows);
  EXPECT_TRUE(EncodeQueryResult(out) == frame);
  // The empty nullary result is the predicate being false.
  const std::string absent = EncodeQueryResult(QueryResultResponse{10, 0, {}});
  ASSERT_EQ(ExtractFrame(absent, &parsed), FrameStatus::kFrame);
  ASSERT_TRUE(DecodeQueryResult(parsed.payload, &out));
  EXPECT_TRUE(out.rows.empty());
}

TEST(WireCodecTest, IntegerExtremesRoundTripLittleEndian) {
  for (const std::int64_t v :
       {datalog::Value::kMinInt, datalog::Value::kMaxInt, std::int64_t{-1},
        std::int64_t{0}, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    const auto u = static_cast<std::uint64_t>(v);
    WireWriter w;
    w.I64(v);
    w.U32(static_cast<std::uint32_t>(u));
    w.U16(static_cast<std::uint16_t>(u));
    const std::string& bytes = w.Bytes();
    ASSERT_EQ(bytes.size(), 14u);
    // Byte i of every word carries bits 8i..8i+7: little-endian on the wire.
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(static_cast<std::uint8_t>(bytes[i]),
                static_cast<std::uint8_t>(u >> (8 * i)))
          << v << " byte " << i;
    }
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(static_cast<std::uint8_t>(bytes[8 + i]),
                static_cast<std::uint8_t>(u >> (8 * i)));
    }
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(static_cast<std::uint8_t>(bytes[12 + i]),
                static_cast<std::uint8_t>(u >> (8 * i)));
    }
    WireReader r(bytes);
    EXPECT_EQ(r.I64(), v);
    EXPECT_EQ(r.U32(), static_cast<std::uint32_t>(u));
    EXPECT_EQ(r.U16(), static_cast<std::uint16_t>(u));
    EXPECT_TRUE(r.Complete());

    QueryResultResponse resp;
    resp.request_id = u;
    resp.arity = 1;
    resp.rows.push_back({WireValue::Int(v)});
    const std::string frame = EncodeQueryResult(resp);
    Frame parsed;
    ASSERT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
    QueryResultResponse out;
    ASSERT_TRUE(DecodeQueryResult(parsed.payload, &out));
    EXPECT_EQ(out.request_id, u);
    EXPECT_EQ(out.rows, resp.rows);
  }
}

TEST(WireCodecTest, ReusedQueryResultHoldsExactlyTheLatestRows) {
  // A large mixed result, then smaller ones decoded into the same object:
  // a truncated payload is refused, and a valid one leaves exactly its own
  // rows — no stale row, value, or symbol survives from the earlier decode.
  QueryResultResponse large;
  large.request_id = 1;
  large.arity = 3;
  for (int i = 0; i < 500; ++i) {
    large.rows.push_back({WireValue::Sym(std::string(
                              static_cast<std::size_t>(i % 40),
                              static_cast<char>('a' + i % 26))),
                          WireValue::Int(-i),
                          WireValue::Sym("s" + std::to_string(i))});
  }
  QueryResultResponse small;
  small.request_id = 2;
  small.arity = 2;
  small.rows.push_back({WireValue::Int(7), WireValue::Int(8)});
  small.rows.push_back({WireValue::Int(datalog::Value::kMinInt),
                        WireValue::Sym("")});
  const std::string large_frame = EncodeQueryResult(large);
  const std::string small_frame = EncodeQueryResult(small);
  Frame lp;
  Frame sp;
  ASSERT_EQ(ExtractFrame(large_frame, &lp), FrameStatus::kFrame);
  ASSERT_EQ(ExtractFrame(small_frame, &sp), FrameStatus::kFrame);

  QueryResultResponse out;
  ASSERT_TRUE(DecodeQueryResult(lp.payload, &out));
  // The buffers the large result grew: its cells, and the symbol pool that
  // row 0's last symbol ("s0", the pool's first bytes) points into.
  const std::size_t large_capacity = out.rows.capacity();
  const char* const pool = out.rows[0].Symbol(2).data();
  EXPECT_GE(large_capacity, 3u * 500u);
  for (std::size_t len = 0; len < sp.payload.size(); ++len) {
    ASSERT_TRUE(DecodeQueryResult(lp.payload, &out));
    EXPECT_FALSE(DecodeQueryResult(sp.payload.substr(0, len), &out))
        << "prefix length " << len;
  }
  ASSERT_TRUE(DecodeQueryResult(lp.payload, &out));
  ASSERT_TRUE(DecodeQueryResult(sp.payload, &out));
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(out.arity, 2u);
  EXPECT_EQ(out.rows, small.rows);
  // Symbols and ints trade places across decodes of the same slots.
  QueryResultResponse flipped;
  flipped.arity = 3;
  flipped.rows.push_back(
      {WireValue::Int(3), WireValue::Sym("now a symbol"), WireValue::Int(0)});
  const std::string flipped_frame = EncodeQueryResult(flipped);
  Frame fp;
  ASSERT_EQ(ExtractFrame(flipped_frame, &fp), FrameStatus::kFrame);
  ASSERT_TRUE(DecodeQueryResult(lp.payload, &out));
  ASSERT_TRUE(DecodeQueryResult(fp.payload, &out));
  EXPECT_EQ(out.rows, flipped.rows);
  // An empty result clears every row.
  const std::string empty_frame = EncodeQueryResult(QueryResultResponse{3, 4, {}});
  Frame ep;
  ASSERT_EQ(ExtractFrame(empty_frame, &ep), FrameStatus::kFrame);
  ASSERT_TRUE(DecodeQueryResult(ep.payload, &out));
  EXPECT_EQ(out.arity, 4u);
  EXPECT_TRUE(out.rows.empty());
  // And the large result decodes back whole, into the buffers it grew the
  // first time: every decode in between kept their capacity.
  EXPECT_EQ(out.rows.capacity(), large_capacity);
  ASSERT_TRUE(DecodeQueryResult(lp.payload, &out));
  EXPECT_EQ(out.rows, large.rows);
  EXPECT_EQ(out.rows.capacity(), large_capacity);
  EXPECT_EQ(out.rows[0].Symbol(2), "s0");
  EXPECT_EQ(out.rows[0].Symbol(2).data(), pool);
}

TEST(WireCodecTest, QueryResultWriterRefusesBeforeAllocating) {
  // A declared size past the frame limit throws FrameTooLarge up front —
  // even one no allocator could satisfy, so nothing was allocated.
  EXPECT_THROW(QueryResultWriter(1, 2, 1u << 30, std::size_t{1} << 40),
               FrameTooLarge);
  EXPECT_THROW(QueryResultWriter(1, 1, 1, kMaxFrameLength), FrameTooLarge);
  // Values that disagree with the declared size are a program bug.
  QueryResultWriter short_writer(1, 1, 2, 2 * QueryResultWriter::kIntValueBytes);
  short_writer.Int(1);
  EXPECT_THROW((void)short_writer.Finish(), util::LogicError);
  QueryResultWriter over_writer(1, 1, 1, QueryResultWriter::kIntValueBytes);
  over_writer.Int(1);
  EXPECT_THROW(over_writer.Symbol("x"), util::LogicError);
}

// --- server end to end ---------------------------------------------------

struct ServerFixture {
  service::EngineHost host{{.workers = 2}};
  ServiceServer server{host, {}};

  ServerFixture() { server.Start(); }

  ServiceClient Connect() {
    ServiceClient client;
    client.Connect("127.0.0.1", server.Port());
    return client;
  }
};

/// A plain blocking TCP socket.  Tests read raw frame bytes off it, with
/// no client-side decoding between the server and the assertion.
class RawSocket {
 public:
  /// `rcvbuf` > 0 shrinks the receive buffer before connecting, so the
  /// server's unsent bytes pile up in its own outbuf, not in the kernel.
  explicit RawSocket(std::uint16_t port, int rcvbuf = 0)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(fd_, 0);
    if (rcvbuf > 0) {
      (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~RawSocket() { ::close(fd_); }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  void Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// The next complete frame, header included; empty on EOF or timeout.
  std::string ReadFrame(int timeout_ms = 60000) {
    while (true) {
      Frame frame;
      if (ExtractFrame(buf_, &frame) == FrameStatus::kFrame) {
        std::string out = buf_.substr(0, frame.frame_size);
        buf_.erase(0, frame.frame_size);
        return out;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) {
        return {};
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return {};
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// Decodes one raw QUERY_RESULT frame; fails the test on anything else.
QueryResultResponse DecodeResultFrame(const std::string& frame) {
  QueryResultResponse out;
  Frame parsed;
  EXPECT_EQ(ExtractFrame(frame, &parsed), FrameStatus::kFrame);
  EXPECT_EQ(parsed.opcode, Opcode::kQueryResult);
  EXPECT_EQ(parsed.frame_size, frame.size());
  EXPECT_TRUE(DecodeQueryResult(parsed.payload, &out));
  return out;
}

/// A session's rows rendered the way the server rendered them before
/// encoding moved into the store scan: Session::Query, then one WireValue
/// per value.
std::vector<WireTuple> RenderedRows(const service::Session& session,
                                    std::string_view predicate) {
  std::vector<WireTuple> rows;
  const std::vector<datalog::Tuple> tuples = session.Query(predicate);
  const datalog::Database::SymbolNames names = session.Db().LockSymbolNames();
  for (const datalog::Tuple& tuple : tuples) {
    WireTuple row;
    for (const datalog::Value v : tuple) {
      row.push_back(v.IsSymbol() ? WireValue::Sym(names.Of(v))
                                 : WireValue::Int(v.AsInt()));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Opens an in-process session whose `b` relation holds `rows` int pairs
/// (a 1.8 MB QUERY_RESULT at 100 k rows); the server adopts it on first use.
std::shared_ptr<service::Session> OpenBigSession(service::EngineHost& host,
                                                 int rows) {
  std::shared_ptr<service::Session> session =
      host.OpenSession("big(X, Y) :- b(X, Y).", {});
  for (int i = 0; i < rows; ++i) {
    session->Insert("b", {datalog::Value::Int(i), datalog::Value::Int(7 * i)});
  }
  (void)session->Materialize();
  return session;
}

SubmitRequest ChainBatch(std::uint64_t request_id, std::uint64_t session_id,
                         int lo, int hi) {
  SubmitRequest req;
  req.request_id = request_id;
  req.session_id = session_id;
  for (int i = lo; i < hi; ++i) {
    req.ops.push_back(
        Insert("e", {WireValue::Int(i), WireValue::Int(i + 1)}));
  }
  return req;
}

TEST(ServiceServerTest, PingPong) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  client.PingSync(123);
}

TEST(ServiceServerTest, OpenSubmitQueryClose) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = client.OpenSessionSync(open);
  EXPECT_GT(sid, 0u);

  const SubmitResultResponse r1 =
      client.SubmitSync(ChainBatch(2, sid, 0, 4));
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_GT(r1.inserted, 4u);  // e rows plus the tc closure

  SubmitRequest with_sym;
  with_sym.request_id = 3;
  with_sym.session_id = sid;
  with_sym.ops.push_back(
      Insert("has", {WireValue::Int(0), WireValue::Sym("hot")}));
  const SubmitResultResponse r2 = client.SubmitSync(with_sym);
  EXPECT_EQ(r2.epoch, 2u);

  QueryRequest q;
  q.request_id = 4;
  q.session_id = sid;
  q.predicate = "tc";
  const QueryResultResponse tc = client.QuerySync(q);
  EXPECT_EQ(tc.arity, 2u);
  EXPECT_EQ(tc.rows.size(), 10u);  // closure of the 4-edge chain

  q.request_id = 5;
  q.predicate = "lbl";
  const QueryResultResponse lbl = client.QuerySync(q);
  ASSERT_EQ(lbl.rows.size(), 1u);
  EXPECT_EQ(lbl.rows[0],
            (WireTuple{WireValue::Int(0), WireValue::Sym("hot")}));

  client.CloseSessionSync(CloseSessionRequest{6, sid});
  // The id is gone: both the wire and FindSession agree.
  client.SendSubmit(ChainBatch(7, sid, 10, 12));
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kNoSession);
  EXPECT_EQ(fx.host.FindSession(sid), nullptr);
}

TEST(ServiceServerTest, QuerySyncIntoReusesTheCallersDecodeBuffers) {
  // A repeated read-back decodes into one response: after a smaller second
  // query, the cell array keeps its capacity and the symbol pool its
  // address, and the rows are exactly the latest result's.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = client.OpenSessionSync(open);
  constexpr int kLabels = 64;
  SubmitRequest labels;
  labels.request_id = 2;
  labels.session_id = sid;
  for (int i = 0; i < kLabels; ++i) {
    labels.ops.push_back(Insert(
        "has", {WireValue::Int(i), WireValue::Sym("s" + std::to_string(i))}));
  }
  (void)client.SubmitSync(labels);

  QueryResultResponse out;
  client.QuerySync(QueryRequest{3, sid, "lbl"}, &out);
  ASSERT_EQ(out.rows.size(), static_cast<std::size_t>(kLabels));
  const std::size_t large_capacity = out.rows.capacity();
  const char* const pool = out.rows[0].Symbol(1).data();

  SubmitRequest trim;
  trim.request_id = 4;
  trim.session_id = sid;
  for (int i = 1; i < kLabels; ++i) {
    trim.ops.push_back(Delete(
        "has", {WireValue::Int(i), WireValue::Sym("s" + std::to_string(i))}));
  }
  (void)client.SubmitSync(trim);
  client.QuerySync(QueryRequest{5, sid, "lbl"}, &out);
  EXPECT_EQ(out.request_id, 5u);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0], (WireTuple{WireValue::Int(0), WireValue::Sym("s0")}));
  EXPECT_EQ(out.rows.capacity(), large_capacity);
  EXPECT_EQ(out.rows[0].Symbol(1).data(), pool);

  // An ERROR still throws, and the by-value overload agrees.
  EXPECT_THROW(client.QuerySync(QueryRequest{6, sid, "nope"}, &out),
               util::Error);
  EXPECT_EQ(client.QuerySync(QueryRequest{7, sid, "lbl"}).rows, out.rows);
}

TEST(ServiceServerTest, NullaryPredicateQueriesOverTheWire) {
  // p() holds once any e fact does: its QUERY_RESULT is arity 0, n_rows 1
  // and no value bytes, which the client decodes as one empty row.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = "p() :- e(X, Y).";
  const std::uint64_t sid = client.OpenSessionSync(open);
  const QueryResultResponse before = client.QuerySync(QueryRequest{2, sid, "p"});
  EXPECT_EQ(before.arity, 0u);
  EXPECT_TRUE(before.rows.empty());

  (void)client.SubmitSync(ChainBatch(3, sid, 0, 3));
  const QueryResultResponse after = client.QuerySync(QueryRequest{4, sid, "p"});
  EXPECT_EQ(after.arity, 0u);
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0].size(), 0u);
  EXPECT_EQ(after.rows[0], WireTuple{});
}

TEST(ServiceServerTest, PipelinedPongOvertakesHeavySubmit) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = client.OpenSessionSync(open);
  // A 300-edge chain makes the tc cascade emit ~45k tuples — milliseconds
  // of work, far longer than the inline PONG turnaround.
  client.SendSubmit(ChainBatch(2, sid, 0, 300));
  client.SendPing(PingRequest{3});
  ServiceClient::Response first;
  ASSERT_TRUE(client.ReadResponse(&first, 30000));
  EXPECT_EQ(first.opcode, Opcode::kPong) << "PONG should overtake the "
                                            "in-flight SUBMIT_RESULT";
  ServiceClient::Response second;
  ASSERT_TRUE(client.ReadResponse(&second, 30000));
  ASSERT_EQ(second.opcode, Opcode::kSubmitResult);
  EXPECT_EQ(second.submit_result.epoch, 1u);
}

TEST(ServiceServerTest, PipelinedSubmitsResolveInEpochOrder) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  open.queue_capacity = 4;  // small bound: forces parking under the blast
  open.pipeline_depth = 4;
  const std::uint64_t sid = client.OpenSessionSync(open);
  constexpr int kBatches = 24;
  for (int b = 0; b < kBatches; ++b) {
    client.SendSubmit(
        ChainBatch(static_cast<std::uint64_t>(100 + b), sid, 20 * b,
                   20 * b + 8));
  }
  for (int b = 0; b < kBatches; ++b) {
    ServiceClient::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp, 60000)) << "batch " << b;
    ASSERT_EQ(resp.opcode, Opcode::kSubmitResult) << "batch " << b;
    // Request ids echo back in send order and epochs are dense: the
    // pipelined path kept per-connection FIFO through parking + retries.
    EXPECT_EQ(resp.submit_result.request_id,
              static_cast<std::uint64_t>(100 + b));
    EXPECT_EQ(resp.submit_result.epoch, static_cast<std::uint64_t>(b + 1));
  }
}

TEST(ServiceServerTest, SessionClosedFollowsEveryAnswerAndTheFinalMetrics) {
  // Pipelined SUBMITs, then CLOSE_SESSION, then one more SUBMIT on one
  // connection.  The close unregisters at dispatch, so the late SUBMIT is
  // NO_SESSION at once; the close job runs behind every accepted batch and
  // publishes the final session and store metrics before it answers.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  open.name = "closer";
  open.pipeline_depth = 2;
  const std::uint64_t sid = client.OpenSessionSync(open);
  constexpr int kBatches = 12;
  for (int b = 0; b < kBatches; ++b) {
    // Disjoint 4-edge chains: 4 e rows and 10 tc rows each.
    client.SendSubmit(ChainBatch(static_cast<std::uint64_t>(100 + b), sid,
                                 10 * b, 10 * b + 4));
  }
  client.SendCloseSession(CloseSessionRequest{200, sid});
  client.SendSubmit(ChainBatch(300, sid, 500, 502));
  int results = 0;
  bool closed = false;
  bool late_refused = false;
  for (int i = 0; i < kBatches + 2; ++i) {
    ServiceClient::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp, 60000)) << "response " << i;
    if (resp.opcode == Opcode::kSubmitResult) {
      EXPECT_FALSE(closed) << "SUBMIT_RESULT after SESSION_CLOSED";
      ++results;
      EXPECT_EQ(resp.submit_result.epoch, static_cast<std::uint64_t>(results));
    } else if (resp.opcode == Opcode::kSessionClosed) {
      EXPECT_EQ(resp.session_closed.request_id, 200u);
      EXPECT_EQ(results, kBatches);
      closed = true;
      const obs::MetricsRegistry& m = fx.host.Metrics();
      EXPECT_EQ(m.Value("session.closer.applied"),
                static_cast<std::uint64_t>(kBatches));
      EXPECT_EQ(m.Value("session.closer.store.rows"),
                static_cast<std::uint64_t>(14 * kBatches));
      EXPECT_EQ(fx.host.ActiveSessions(), 0u);
    } else {
      ASSERT_EQ(resp.opcode, Opcode::kError);
      EXPECT_EQ(resp.error.request_id, 300u);
      EXPECT_EQ(resp.error.code, ErrorCode::kNoSession);
      late_refused = true;
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_TRUE(late_refused);
}

TEST(ServiceServerTest, DisconnectMidBatchDrainsSession) {
  ServerFixture fx;
  std::uint64_t sid = 0;
  {
    ServiceClient dropper = fx.Connect();
    OpenSessionRequest open;
    open.request_id = 1;
    open.program = kChainProgram;
    sid = dropper.OpenSessionSync(open);
    for (int b = 0; b < 5; ++b) {
      dropper.SendSubmit(
          ChainBatch(static_cast<std::uint64_t>(10 + b), sid, 10 * b,
                     10 * b + 6));
    }
    dropper.Close();  // vanish without reading a single SUBMIT_RESULT
  }
  // The session is server-global: it keeps draining and stays queryable
  // from a fresh connection.  30 edges across 5 batches.
  ServiceClient prober = fx.Connect();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t rows = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    QueryRequest q;
    q.request_id = 2;
    q.session_id = sid;
    q.predicate = "e";
    rows = prober.QuerySync(q).rows.size();
    if (rows == 30u) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rows, 30u);
  EXPECT_NE(fx.host.FindSession(sid), nullptr);
}

TEST(ServiceServerTest, StopBroadcastsShutdownBeforeClosing) {
  // An orderly Stop must not look like a crashed peer: every connected
  // client — idle or mid-conversation — receives a SHUTDOWN error frame
  // (request_id 0, connection-scoped) and only then EOF.
  ServerFixture fx;
  ServiceClient idle = fx.Connect();
  ServiceClient busy = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = busy.OpenSessionSync(open);
  (void)busy.SubmitSync(ChainBatch(2, sid, 0, 4));  // proven mid-protocol

  fx.server.Stop();
  for (ServiceClient* client : {&idle, &busy}) {
    ServiceClient::Response resp;
    ASSERT_TRUE(client->ReadResponse(&resp, 5000))
        << "client saw bare EOF instead of the SHUTDOWN goodbye";
    ASSERT_EQ(resp.opcode, Opcode::kError);
    EXPECT_EQ(resp.error.code, ErrorCode::kShutdown);
    EXPECT_EQ(resp.error.request_id, 0u);
    // After the goodbye the connection is done: clean EOF, no more frames.
    EXPECT_FALSE(client->ReadResponse(&resp, 2000));
  }
}

TEST(ServiceServerTest, BadRequestsAnswerWithErrors) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = client.OpenSessionSync(open);

  // Unknown session id.
  client.SendSubmit(ChainBatch(2, sid + 1000, 0, 2));
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kNoSession);

  // Unknown predicate.
  SubmitRequest bad_pred;
  bad_pred.request_id = 3;
  bad_pred.session_id = sid;
  bad_pred.ops.push_back(Insert("nope", {WireValue::Int(1)}));
  client.SendSubmit(bad_pred);
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadRequest);

  // Arity mismatch.
  SubmitRequest bad_arity;
  bad_arity.request_id = 4;
  bad_arity.session_id = sid;
  bad_arity.ops.push_back(Insert("e", {WireValue::Int(1)}));
  client.SendSubmit(bad_arity);
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadRequest);

  // Bad program.
  OpenSessionRequest bad_open;
  bad_open.request_id = 5;
  bad_open.program = "tc(X, :-";
  client.SendOpenSession(bad_open);
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadProgram);

  // The session survived all of it.
  const SubmitResultResponse ok = client.SubmitSync(ChainBatch(6, sid, 0, 2));
  EXPECT_EQ(ok.epoch, 1u);
}

TEST(ServiceServerTest, UnknownStrategyIsBadProgramAndConnectionStaysOpen) {
  // The retired counting strategy is an unknown name: OPEN_SESSION gets a
  // typed BAD_PROGRAM naming the valid values, and the connection stays
  // usable.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  open.strategy = "counting";
  client.SendOpenSession(open);
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.request_id, 1u);
  EXPECT_EQ(static_cast<int>(resp.error.code), 4);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadProgram);
  EXPECT_TRUE(resp.error.message.ends_with("valid values: dred bf"))
      << resp.error.message;
  EXPECT_EQ(fx.host.ActiveSessions(), 0u);

  open.request_id = 2;
  open.strategy = "bf";
  const std::uint64_t sid = client.OpenSessionSync(open);
  EXPECT_GT(sid, 0u);
  EXPECT_EQ(fx.host.FindSession(sid)->Strategy(),
            datalog::MaintenanceStrategy::kBackwardForward);
  const SubmitResultResponse ok = client.SubmitSync(ChainBatch(3, sid, 0, 2));
  EXPECT_EQ(ok.epoch, 1u);
}

TEST(ServiceServerTest, SerialSpecIsBadProgramAndConnectionStaysOpen) {
  // Every session cascade runs through a scheduler; "serial" is an unknown
  // spec like any other.  OPEN_SESSION gets a typed BAD_PROGRAM that lists
  // the valid specs, and the connection stays usable.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  open.scheduler_spec = "serial";
  client.SendOpenSession(open);
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.request_id, 1u);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadProgram);
  EXPECT_NE(resp.error.message.find("hybrid"), std::string::npos)
      << resp.error.message;
  EXPECT_EQ(fx.host.ActiveSessions(), 0u);

  open.request_id = 2;
  open.scheduler_spec = "hybrid";
  const std::uint64_t sid = client.OpenSessionSync(open);
  EXPECT_GT(sid, 0u);
  const SubmitResultResponse ok = client.SubmitSync(ChainBatch(3, sid, 0, 2));
  EXPECT_EQ(ok.epoch, 1u);
}

TEST(ServiceServerTest, ThrowingCascadeIsUpdateFailedAndConnectionStaysOpen) {
  // A symbol reaching an ordered comparison throws inside a pool task body.
  // SUBMIT answers UPDATE_FAILED (code 7) with the message; the server, the
  // connection and the session all stay up for the next SUBMIT and QUERY.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = "small(X) :- v(X), X < 5.";
  open.scheduler_spec = "hybrid";
  const std::uint64_t sid = client.OpenSessionSync(open);

  SubmitRequest bad;
  bad.request_id = 2;
  bad.session_id = sid;
  bad.ops.push_back(Insert("v", {WireValue::Sym("oops")}));
  client.SendSubmit(bad);
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 30000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.request_id, 2u);
  EXPECT_EQ(static_cast<int>(resp.error.code), 7);
  EXPECT_EQ(resp.error.code, ErrorCode::kUpdateFailed);
  EXPECT_EQ(resp.error.message, "ordered comparison requires integer operands");

  SubmitRequest good;
  good.request_id = 3;
  good.session_id = sid;
  good.ops.push_back(Insert("v", {WireValue::Int(4)}));
  const SubmitResultResponse ok = client.SubmitSync(good);
  EXPECT_EQ(ok.epoch, 2u);

  QueryRequest q;
  q.request_id = 4;
  q.session_id = sid;
  q.predicate = "small";
  const QueryResultResponse small = client.QuerySync(q);
  ASSERT_EQ(small.rows.size(), 1u);
  EXPECT_EQ(small.rows[0], (WireTuple{WireValue::Int(4)}));
}

TEST(ServiceServerTest, OversizedQueryResultIsATypedError) {
  // A 1100 x 1100 cross product renders past kMaxFrameLength: the server
  // answers RESULT_TOO_LARGE and both the connection and the session stay
  // usable.
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = "cross(X, Y) :- l(X), r(Y).";
  const std::uint64_t sid = client.OpenSessionSync(open);
  constexpr int kSide = 1100;
  SubmitRequest fill;
  fill.request_id = 2;
  fill.session_id = sid;
  for (int i = 0; i < kSide; ++i) {
    fill.ops.push_back(Insert("l", {WireValue::Int(i)}));
    fill.ops.push_back(Insert("r", {WireValue::Int(i)}));
  }
  client.SubmitSync(fill);

  QueryRequest q;
  q.request_id = 3;
  q.session_id = sid;
  q.predicate = "cross";
  client.SendQuery(q);
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 60000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.request_id, 3u);
  EXPECT_EQ(resp.error.code, ErrorCode::kResultTooLarge);

  q.request_id = 4;
  q.predicate = "l";
  EXPECT_EQ(client.QuerySync(q).rows.size(), static_cast<std::size_t>(kSide));
  client.PingSync(5);
}

TEST(ServiceServerTest, UnknownOpcodeClosesConnection) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  client.SendRaw(EncodeFrame(static_cast<Opcode>(0x7E), "junk"));
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadOpcode);
  // Server hangs up after the ERROR frame.
  EXPECT_FALSE(client.ReadResponse(&resp, 5000));
}

TEST(ServiceServerTest, HostileLengthPrefixClosesConnection) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  WireWriter w;
  w.U32(0xFFFFFFFFu);  // 4 GiB frame, never
  w.U8(static_cast<std::uint8_t>(Opcode::kPing));
  client.SendRaw(w.Bytes());
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadFrame);
  EXPECT_FALSE(client.ReadResponse(&resp, 5000));
  // The server itself is fine.
  ServiceClient again = fx.Connect();
  again.PingSync(1);
}

TEST(ServiceServerTest, EvolveRulesOverTheWire) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = client.OpenSessionSync(open);
  (void)client.SubmitSync(ChainBatch(2, sid, 0, 4));

  // ADD_RULES: a new predicate derived from the closure appears.
  AddRulesRequest add;
  add.request_id = 3;
  add.session_id = sid;
  add.text = "reach(Y) :- tc(0, Y).";
  const RulesChangedResponse added = client.AddRulesSync(add);
  EXPECT_EQ(added.request_id, 3u);
  EXPECT_EQ(added.program_version, 2u);
  EXPECT_EQ(added.inserted, 4u);  // tc(0,1..4)
  QueryRequest q;
  q.request_id = 4;
  q.session_id = sid;
  q.predicate = "reach";
  EXPECT_EQ(client.QuerySync(q).rows.size(), 4u);

  // REMOVE_RULE: the recursive rule goes; tc collapses to the edges.
  RemoveRuleRequest remove;
  remove.request_id = 5;
  remove.session_id = sid;
  remove.text = "tc(X, Z) :- tc(X, Y), e(Y, Z).";
  const RulesChangedResponse removed = client.RemoveRuleSync(remove);
  EXPECT_EQ(removed.program_version, 3u);
  EXPECT_GT(removed.deleted, 0u);
  q.request_id = 6;
  q.predicate = "tc";
  EXPECT_EQ(client.QuerySync(q).rows.size(), 4u);
  q.request_id = 7;
  q.predicate = "reach";
  EXPECT_EQ(client.QuerySync(q).rows.size(), 1u);  // just tc(0,1)

  // Bad rule text answers BAD_RULES and leaves the session fully alive.
  AddRulesRequest bad;
  bad.request_id = 8;
  bad.session_id = sid;
  bad.text = "p(Y) :- e(X, _).";  // unsafe head variable
  client.SendAddRules(bad);
  ServiceClient::Response resp;
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kBadRules);
  EXPECT_EQ(resp.error.request_id, 8u);

  // Unknown session id answers NO_SESSION.
  AddRulesRequest lost;
  lost.request_id = 9;
  lost.session_id = sid + 1000;
  lost.text = "x(X) :- e(X, _).";
  client.SendAddRules(lost);
  ASSERT_TRUE(client.ReadResponse(&resp, 5000));
  ASSERT_EQ(resp.opcode, Opcode::kError);
  EXPECT_EQ(resp.error.code, ErrorCode::kNoSession);

  // The session still takes updates under the evolved program.
  const SubmitResultResponse after = client.SubmitSync(ChainBatch(10, sid, 10, 12));
  EXPECT_GT(after.epoch, 0u);
}

TEST(ServiceServerTest, EvolveInterleavedWithPipelinedSubmits) {
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  open.pipeline_depth = 4;
  const std::uint64_t sid = client.OpenSessionSync(open);
  // Blast submits, an evolve mid-stream, more submits — all pipelined on
  // one connection.  The evolve is an exclusive epoch in FIFO order, so
  // responses keep arriving per-kind in send order.
  for (int b = 0; b < 6; ++b) {
    client.SendSubmit(ChainBatch(static_cast<std::uint64_t>(100 + b), sid,
                                 10 * b, 10 * b + 6));
  }
  AddRulesRequest add;
  add.request_id = 200;
  add.session_id = sid;
  add.text = "touched(X) :- e(X, _).";
  client.SendAddRules(add);
  for (int b = 6; b < 12; ++b) {
    client.SendSubmit(ChainBatch(static_cast<std::uint64_t>(100 + b), sid,
                                 10 * b, 10 * b + 6));
  }
  int submits_seen = 0;
  bool evolve_seen = false;
  std::uint64_t last_epoch = 0;
  for (int i = 0; i < 13; ++i) {
    ServiceClient::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp, 60000)) << "response " << i;
    if (resp.opcode == Opcode::kSubmitResult) {
      EXPECT_GT(resp.submit_result.epoch, last_epoch);
      last_epoch = resp.submit_result.epoch;
      ++submits_seen;
    } else {
      ASSERT_EQ(resp.opcode, Opcode::kRulesChanged);
      EXPECT_EQ(resp.rules_changed.request_id, 200u);
      EXPECT_EQ(resp.rules_changed.program_version, 2u);
      EXPECT_GT(resp.rules_changed.epoch, last_epoch);
      last_epoch = resp.rules_changed.epoch;
      evolve_seen = true;
    }
  }
  EXPECT_EQ(submits_seen, 12);
  EXPECT_TRUE(evolve_seen);
  QueryRequest q;
  q.request_id = 300;
  q.session_id = sid;
  q.predicate = "touched";
  EXPECT_EQ(client.QuerySync(q).rows.size(), 12u * 6u);
}

TEST(ServiceServerTest, IdleConnectionsReapedActiveOnesSpared) {
  service::EngineHost host{{.workers = 2}};
  ServerOptions options;
  options.idle_timeout_ms = 150;
  ServiceServer server{host, options};
  server.Start();

  ServiceClient idle;
  idle.Connect("127.0.0.1", server.Port());
  ServiceClient active;
  active.Connect("127.0.0.1", server.Port());

  // Keep one connection chatty well past the other's deadline.
  const auto start = std::chrono::steady_clock::now();
  ServiceClient::Response reaped;
  bool saw_reap = false;
  std::uint64_t next_ping = 1;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(1200)) {
    active.PingSync(next_ping++);
    if (!saw_reap && idle.ReadResponse(&reaped, 50)) {
      saw_reap = true;
    }
  }
  ASSERT_TRUE(saw_reap) << "idle connection was never reaped";
  ASSERT_EQ(reaped.opcode, Opcode::kError);
  EXPECT_EQ(reaped.error.code, ErrorCode::kIdleTimeout);
  EXPECT_EQ(reaped.error.request_id, 0u);
  // After the goodbye: EOF, nothing else.
  EXPECT_FALSE(idle.ReadResponse(&reaped, 500));
  EXPECT_GE(host.Metrics().Value("net.idle_reaped"), 1u);
  // The chatty connection outlived many deadlines.
  active.PingSync(next_ping);
  server.Stop();
}

TEST(ServiceServerTest, SharedSessionAcrossConnections) {
  ServerFixture fx;
  ServiceClient opener = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = opener.OpenSessionSync(open);

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&fx, sid, t] {
      ServiceClient client = fx.Connect();
      for (int b = 0; b < 6; ++b) {
        const SubmitResultResponse r = client.SubmitSync(ChainBatch(
            static_cast<std::uint64_t>(t * 100 + b), sid,
            1000 * t + 10 * b, 1000 * t + 10 * b + 4));
        EXPECT_GE(r.epoch, 1u);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  QueryRequest q;
  q.request_id = 2;
  q.session_id = sid;
  q.predicate = "e";
  EXPECT_EQ(opener.QuerySync(q).rows.size(), 4u * 6u * 4u);
}

TEST(ServiceServerTest, QueryResultFramesMatchTheCodecByteForByte) {
  // The store-direct encoder and EncodeQueryResult must agree on every
  // byte, and the rows must be Session::Query's, in store order.
  ServerFixture fx;
  const std::shared_ptr<service::Session> session = fx.host.OpenSession(
      "mixed(X, Y, Z) :- m(X, Y, Z).\n"
      "none(X) :- n(X).\n"
      "big(X, Y) :- b(X, Y).",
      {});
  const std::vector<std::string> names = {"", "h\xc3\xa9llo",
                                          "\xe6\x97\xa5\xe6\x9c\xac",
                                          "plain", std::string(300, 'z')};
  for (int i = 0; i < 50; ++i) {
    session->Insert(
        "m", {datalog::Value::Int(i % 2 == 0 ? -i : i),
              session->Sym(names[static_cast<std::size_t>(i) % names.size()]),
              i % 3 == 0 ? session->Sym(names[(static_cast<std::size_t>(i) +
                                               1) % names.size()])
                         : datalog::Value::Int(datalog::Value::kMaxInt - i)});
  }
  session->Insert("m", {datalog::Value::Int(datalog::Value::kMinInt),
                        session->Sym(""), datalog::Value::Int(0)});
  constexpr int kBig = 100000;  // 1.8 MB: many socket fills
  for (int i = 0; i < kBig; ++i) {
    session->Insert("b", {datalog::Value::Int(i), datalog::Value::Int(-i)});
  }
  (void)session->Materialize();

  RawSocket raw(fx.server.Port());
  struct Case {
    std::string predicate;
    std::uint16_t arity;
    std::size_t rows;
  };
  const std::vector<Case> cases = {{"m", 3, 51},   {"mixed", 3, 51},
                                   {"n", 1, 0},    {"none", 1, 0},
                                   {"b", 2, kBig}, {"big", 2, kBig}};
  std::uint64_t request_id = 1;
  for (const auto& [pred, arity, expect_rows] : cases) {
    raw.Send(EncodeQuery(QueryRequest{request_id, session->Id(), pred}));
    const std::string frame = raw.ReadFrame();
    ASSERT_FALSE(frame.empty()) << pred;
    const QueryResultResponse decoded = DecodeResultFrame(frame);
    EXPECT_EQ(decoded.request_id, request_id) << pred;
    EXPECT_EQ(decoded.arity, arity) << pred;
    EXPECT_EQ(decoded.rows.size(), expect_rows) << pred;
    EXPECT_TRUE(frame == EncodeQueryResult(decoded)) << pred;
    EXPECT_TRUE(decoded.rows == RenderedRows(*session, pred)) << pred;
    ++request_id;
  }
}

TEST(ServiceServerTest, PipelinedLargeResultsFlushInOrderThroughTheCursor) {
  // Six 1.8 MB results queue behind a client that reads nothing: the
  // unsent bytes cross kWriteBufferLimit (a write stall), keep the idle
  // reaper off past its deadline, and then drain intact and in order,
  // with the PONG sent after them arriving last.
  service::EngineHost host{{.workers = 2}};
  ServerOptions options;
  options.idle_timeout_ms = 100;
  ServiceServer server{host, options};
  server.Start();
  constexpr int kRows = 100000;
  const std::shared_ptr<service::Session> session = OpenBigSession(host, kRows);

  RawSocket raw(server.Port(), 64 * 1024);
  const std::uint64_t frames_before = host.Metrics().Value("net.frames_out");
  const std::uint64_t stalls_before = host.Metrics().Value("net.write_stalls");
  constexpr std::uint64_t kQueries = 6;
  std::string batch;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    batch += EncodeQuery(QueryRequest{10 + q, session->Id(), "big"});
  }
  raw.Send(batch);
  // Every result is queued once frames_out moves by kQueries; only the
  // unsent bytes then stand between the connection and the reaper.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (host.Metrics().Value("net.frames_out") < frames_before + kQueries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(host.Metrics().Value("net.frames_out"), frames_before + kQueries);
  std::this_thread::sleep_for(std::chrono::milliseconds(4 * 100));
  EXPECT_EQ(host.Metrics().Value("net.idle_reaped"), 0u);
  EXPECT_GE(host.Metrics().Value("net.write_stalls"), stalls_before + 1);
  raw.Send(EncodePing(PingRequest{99}));

  std::string first;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    const std::string frame = raw.ReadFrame();
    ASSERT_FALSE(frame.empty()) << "result " << q << " never arrived whole";
    const QueryResultResponse decoded = DecodeResultFrame(frame);
    EXPECT_EQ(decoded.request_id, 10 + q);
    EXPECT_EQ(decoded.rows.size(), static_cast<std::size_t>(kRows));
    EXPECT_TRUE(frame == EncodeQueryResult(decoded)) << "result " << q;
    // Same rows every time: only the request id differs.
    if (q == 0) {
      first = frame.substr(13);
    } else {
      EXPECT_TRUE(frame.substr(13) == first) << "result " << q;
    }
  }
  const std::string pong = raw.ReadFrame();
  Frame parsed;
  ASSERT_EQ(ExtractFrame(pong, &parsed), FrameStatus::kFrame);
  ASSERT_EQ(parsed.opcode, Opcode::kPong);
  PongResponse decoded_pong;
  ASSERT_TRUE(DecodePong(parsed.payload, &decoded_pong));
  EXPECT_EQ(decoded_pong.request_id, 99u);
  server.Stop();
}

TEST(ServiceServerTest, QueriesEncodeSymbolsWhileSubmitsInternNewOnes) {
  // The QUERY encoder reads SymbolTable names during its store scan while
  // another connection's SUBMITs intern fresh symbols: the database's
  // symbol lock must cover both (run under TSan in CI).
  ServerFixture fx;
  ServiceClient writer = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = writer.OpenSessionSync(open);
  constexpr int kBatches = 40;
  constexpr int kPerBatch = 25;
  std::thread submitter([&writer, sid] {
    for (int b = 0; b < kBatches; ++b) {
      SubmitRequest req;
      req.request_id = 100 + static_cast<std::uint64_t>(b);
      req.session_id = sid;
      for (int i = 0; i < kPerBatch; ++i) {
        req.ops.push_back(Insert(
            "has", {WireValue::Int(b * kPerBatch + i),
                    WireValue::Sym("fresh-" + std::to_string(b) + "-" +
                                   std::to_string(i))}));
      }
      (void)writer.SubmitSync(req);
    }
  });
  ServiceClient reader = fx.Connect();
  std::size_t last = 0;
  std::uint64_t request_id = 1000;
  bool done = false;
  while (!done) {
    done = last == static_cast<std::size_t>(kBatches * kPerBatch);
    const QueryResultResponse res =
        reader.QuerySync(QueryRequest{request_id++, sid, "lbl"});
    EXPECT_GE(res.rows.size(), last);  // epochs only add rows
    last = res.rows.size();
    for (const WireRowView row : res.rows) {
      ASSERT_EQ(row.size(), 2u);
      ASSERT_TRUE(row.IsSymbol(1));
      EXPECT_EQ(row.Symbol(1).rfind("fresh-", 0), 0u) << row.Symbol(1);
    }
  }
  submitter.join();
  EXPECT_EQ(last, static_cast<std::size_t>(kBatches * kPerBatch));
}

TEST(ServiceServerTest, QueriesEncodeSymbolsWhileTheEmbedderInternsNewOnes) {
  // An embedding application interns through Session::Sym on a session the
  // server also routes to, while wire QUERYs render symbol names: the
  // interning and the encode must share one symbol lock (run under TSan
  // in CI).
  ServerFixture fx;
  ServiceClient client = fx.Connect();
  OpenSessionRequest open;
  open.request_id = 1;
  open.program = kChainProgram;
  const std::uint64_t sid = client.OpenSessionSync(open);
  constexpr int kRows = 50;
  SubmitRequest seed;
  seed.request_id = 2;
  seed.session_id = sid;
  for (int i = 0; i < kRows; ++i) {
    seed.ops.push_back(Insert("has", {WireValue::Int(i),
                                      WireValue::Sym("seed-" +
                                                     std::to_string(i))}));
  }
  (void)client.SubmitSync(seed);
  const std::shared_ptr<service::Session> session = fx.host.FindSession(sid);
  ASSERT_NE(session, nullptr);
  std::atomic<bool> stop{false};
  std::thread embedder([&stop, &session] {
    for (int i = 0; i < 200000 && !stop.load(); ++i) {
      (void)session->Sym("local-" + std::to_string(i));
    }
  });
  for (std::uint64_t q = 0; q < 40; ++q) {
    const QueryResultResponse res =
        client.QuerySync(QueryRequest{100 + q, sid, "lbl"});
    EXPECT_EQ(res.rows.size(), static_cast<std::size_t>(kRows));
    for (const WireRowView row : res.rows) {
      ASSERT_TRUE(row.IsSymbol(1));
      EXPECT_EQ(row.Symbol(1).rfind("seed-", 0), 0u) << row.Symbol(1);
    }
  }
  stop.store(true);
  embedder.join();
}

}  // namespace
}  // namespace dsched::net
