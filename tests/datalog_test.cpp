// Unit tests for the Datalog front end: values, lexer, parser, validation,
// stratification, and relation storage.
#include <gtest/gtest.h>

#include <compare>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/incremental.hpp"
#include "datalog/lexer.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "datalog/value.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsched::datalog {
namespace {

TEST(ValueTest, IntRoundTrip) {
  const Value v = Value::Int(-12345);
  EXPECT_TRUE(v.IsInt());
  EXPECT_FALSE(v.IsSymbol());
  EXPECT_EQ(v.AsInt(), -12345);
  EXPECT_EQ(Value::Int(0).AsInt(), 0);
  EXPECT_EQ(Value::Int(Value::kMaxInt).AsInt(), Value::kMaxInt);
  EXPECT_EQ(Value::Int(Value::kMinInt).AsInt(), Value::kMinInt);
}

TEST(ValueTest, SymbolRoundTrip) {
  SymbolTable symbols;
  const auto id = symbols.Intern("hello");
  EXPECT_EQ(symbols.Intern("hello"), id);  // stable
  const Value v = Value::Symbol(id);
  EXPECT_TRUE(v.IsSymbol());
  EXPECT_EQ(v.AsSymbol(), id);
  EXPECT_EQ(v.ToString(symbols), "hello");
  EXPECT_THROW((void)v.AsInt(), util::LogicError);
}

TEST(ValueTest, IntAndSymbolNeverEqual) {
  EXPECT_FALSE(Value::Int(3) == Value::Symbol(3));
}

TEST(ValueTest, CmpSemantics) {
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, Value::Int(1), Value::Int(2)));
  EXPECT_FALSE(EvalCmp(CmpOp::kGe, Value::Int(1), Value::Int(2)));
  EXPECT_TRUE(EvalCmp(CmpOp::kNe, Value::Int(1), Value::Int(2)));
  EXPECT_TRUE(EvalCmp(CmpOp::kEq, Value::Symbol(4), Value::Symbol(4)));
  EXPECT_THROW((void)EvalCmp(CmpOp::kLt, Value::Symbol(0), Value::Int(1)),
               util::InvalidArgument);
}

// --- Tuple: an inline small vector that must behave like the
// std::vector<Value> it replaced.

Tuple Iota(std::size_t arity, std::int64_t from = 0) {
  Tuple t;
  for (std::size_t i = 0; i < arity; ++i) {
    t.push_back(Value::Int(from + static_cast<std::int64_t>(i)));
  }
  return t;
}

std::vector<Value> AsVector(const Tuple& t) {
  return std::vector<Value>(t.begin(), t.end());
}

TEST(TupleTest, InlineUpToFourValuesSpillsBeyond) {
  EXPECT_EQ(sizeof(Tuple), 48u);
  for (const std::size_t arity : {0u, 1u, 4u, 5u, 17u}) {
    const Tuple t = Iota(arity, 100);
    ASSERT_EQ(t.size(), arity);
    EXPECT_EQ(t.empty(), arity == 0);
    EXPECT_EQ(t.IsInline(), arity <= Tuple::kInlineCapacity) << arity;
    EXPECT_GE(t.capacity(), arity);
    const RowView view = t;
    ASSERT_EQ(view.size(), arity);
    for (std::size_t i = 0; i < arity; ++i) {
      EXPECT_EQ(view[i], Value::Int(100 + static_cast<std::int64_t>(i)));
      EXPECT_EQ(t.at(i), t[i]);
    }
    if (arity > 0) {
      EXPECT_EQ(t.front(), Value::Int(100));
      EXPECT_EQ(t.back(), Value::Int(99 + static_cast<std::int64_t>(arity)));
    }
    EXPECT_THROW((void)t.at(arity), util::Error);
    // The other constructors agree.
    const std::vector<Value> values = AsVector(t);
    EXPECT_EQ(Tuple(values.begin(), values.end()), t);
    const std::vector<Value> sevens(arity, Value::Int(7));
    EXPECT_EQ(Tuple(arity, Value::Int(7)), Tuple(sevens.begin(), sevens.end()));
    EXPECT_EQ(Tuple(arity).size(), arity);
  }
  EXPECT_EQ((Tuple{Value::Int(1), Value::Int(2)}), Iota(2, 1));
}

TEST(TupleTest, CopyMoveAndSelfAssignment) {
  for (const std::size_t arity : {0u, 2u, 4u, 5u, 17u}) {
    const Tuple original = Iota(arity, 10);
    Tuple copy = original;
    EXPECT_EQ(copy, original);
    copy.push_back(Value::Int(-1));  // the copy owns its values
    EXPECT_EQ(original.size(), arity);

    Tuple moved = std::move(copy);
    EXPECT_EQ(moved.size(), arity + 1);
    EXPECT_TRUE(copy.empty());  // moved-from tuples are empty
    EXPECT_TRUE(copy.IsInline());
    copy.push_back(Value::Int(5));  // moved-from is reusable
    EXPECT_EQ(copy, Tuple{Value::Int(5)});

    Tuple assigned = Iota(3, 50);
    assigned = moved;
    EXPECT_EQ(assigned, moved);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), arity + 1);
    EXPECT_TRUE(moved.empty());

    Tuple expected = Iota(arity, 10);
    expected.push_back(Value::Int(-1));
    Tuple& alias = assigned;
    assigned = alias;
    EXPECT_EQ(assigned, expected);
    assigned = std::move(alias);
    EXPECT_EQ(assigned, expected);
  }
}

TEST(TupleTest, InsertEraseResizeAcrossTheInlineBoundary) {
  util::Rng rng(17);
  Tuple t;
  std::vector<Value> ref;
  for (int step = 0; step < 2000; ++step) {
    const auto pos = static_cast<std::ptrdiff_t>(rng.NextBelow(ref.size() + 1));
    const Value v = Value::Int(step);
    switch (rng.NextBelow(6)) {
      case 0:
        t.insert(t.begin() + pos, v);
        ref.insert(ref.begin() + pos, v);
        break;
      case 1: {
        const std::vector<Value> run(rng.NextBelow(7), v);
        t.insert(t.begin() + pos, run.begin(), run.end());
        ref.insert(ref.begin() + pos, run.begin(), run.end());
        break;
      }
      case 2:
        if (!ref.empty()) {
          const auto at = static_cast<std::ptrdiff_t>(rng.NextBelow(ref.size()));
          t.erase(t.begin() + at);
          ref.erase(ref.begin() + at);
        }
        break;
      case 3: {
        const auto end = pos + static_cast<std::ptrdiff_t>(rng.NextBelow(
                                   ref.size() - static_cast<std::size_t>(pos) + 1));
        t.erase(t.begin() + pos, t.begin() + end);
        ref.erase(ref.begin() + pos, ref.begin() + end);
        break;
      }
      case 4: {
        const std::size_t n = rng.NextBelow(12);
        t.resize(n, v);
        ref.resize(n, v);
        break;
      }
      default: {
        // Self-aliasing insert: the source is this tuple's own values.
        const std::vector<Value> before = ref;
        t.insert(t.begin() + pos, t.begin(), t.end());
        ref.insert(ref.begin() + pos, before.begin(), before.end());
        if (ref.size() > 24) {
          t.clear();
          ref.clear();
        }
        break;
      }
    }
    ASSERT_EQ(AsVector(t), ref) << "step " << step;
    ASSERT_EQ(t.IsInline(), t.capacity() == Tuple::kInlineCapacity);
  }
}

TEST(TupleTest, OrderingAgreesWithVectorOrdering) {
  util::Rng rng(5);
  const auto random_tuple = [&rng] {
    Tuple t;
    const std::size_t arity = rng.NextBelow(7);
    for (std::size_t i = 0; i < arity; ++i) {
      t.push_back(rng.NextBool(0.3)
                      ? Value::Symbol(static_cast<std::uint32_t>(rng.NextBelow(3)))
                      : Value::Int(static_cast<std::int64_t>(rng.NextBelow(3))));
    }
    return t;
  };
  for (int i = 0; i < 5000; ++i) {
    const Tuple a = random_tuple();
    const Tuple b = random_tuple();
    const std::vector<Value> va = AsVector(a);
    const std::vector<Value> vb = AsVector(b);
    EXPECT_EQ(a == b, va == vb);
    EXPECT_EQ(a <=> b, va <=> vb);
    EXPECT_EQ(a < b, va < vb);
  }
}

TEST(TupleTest, RowViewsHashEqualAndProbeTupleSets) {
  Relation relation(2);
  TupleSet set;
  for (int i = 0; i < 64; ++i) {
    const Tuple t{Value::Int(i), Value::Int(i * 3)};
    relation.Insert(t);
    if (i % 2 == 0) {
      set.insert(t);
    }
    EXPECT_EQ(TupleHash{}(t), TupleHash{}(RowView(t)));
  }
  std::size_t found = 0;
  relation.ForEachRow([&](std::uint32_t, RowView row) {
    EXPECT_EQ(TupleHash{}(row), TupleHash{}(Tuple(row.begin(), row.end())));
    EXPECT_EQ(set.contains(row), row[0].AsInt() % 2 == 0);
    found += set.contains(row) ? 1u : 0u;
  });
  EXPECT_EQ(found, 32u);
}

TEST(LexerTest, TokenKinds) {
  const auto tokens = Tokenize("path(X, y1) :- e(X), N >= -3. % cmt\n!");
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens) {
    kinds.push_back(t.kind);
  }
  const std::vector<TokenKind> expected{
      TokenKind::kIdentifier, TokenKind::kLParen, TokenKind::kVariable,
      TokenKind::kComma,      TokenKind::kIdentifier, TokenKind::kRParen,
      TokenKind::kImplies,    TokenKind::kIdentifier, TokenKind::kLParen,
      TokenKind::kVariable,   TokenKind::kRParen, TokenKind::kComma,
      TokenKind::kVariable,   TokenKind::kGe,     TokenKind::kNumber,
      TokenKind::kPeriod,     TokenKind::kBang,   TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, TracksLines) {
  const auto tokens = Tokenize("a(x).\nb(y).");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[4].line, 1u);  // the '.' closing the first clause
  EXPECT_EQ(tokens[5].line, 2u);  // 'b' on the second line
}

TEST(LexerTest, StringsAndErrors) {
  const auto tokens = Tokenize("p(\"hello world\").");
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "hello world");
  EXPECT_THROW(Tokenize("p(\"unterminated"), util::ParseError);
  EXPECT_THROW(Tokenize("p(@)"), util::ParseError);
  EXPECT_THROW(Tokenize("a : b"), util::ParseError);
}

TEST(ParserTest, FactsRulesNegationComparison) {
  const Program p = ParseProgram(R"(
    edge(a, b).
    edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    lonely(X) :- node(X), !path(X, X), X != b.
  )");
  ASSERT_EQ(p.rules.size(), 5u);
  EXPECT_TRUE(p.rules[0].IsFact());
  EXPECT_FALSE(p.rules[2].IsFact());
  const Rule& lonely = p.rules[4];
  ASSERT_EQ(lonely.body.size(), 3u);
  EXPECT_TRUE(std::get<Literal>(lonely.body[1]).negated);
  EXPECT_EQ(std::get<Comparison>(lonely.body[2]).op, CmpOp::kNe);
  EXPECT_EQ(p.predicate_names[p.PredicateId("path")], "path");
  EXPECT_EQ(p.predicate_arities[p.PredicateId("lonely")], 1u);
}

TEST(ParserTest, RoundTripsThroughRuleToString) {
  const Program p = ParseProgram("big(X) :- amount(X, V), V >= 100.");
  EXPECT_EQ(RuleToString(p.rules[0], p),
            "big(X) :- amount(X, V), V >= 100.");
}

TEST(ParserTest, AnonymousVariablesAreFresh) {
  const Program p = ParseProgram("lhs(X) :- pair(X, _), pair(_, X).");
  const Rule& rule = p.rules[0];
  const auto& a1 = std::get<Literal>(rule.body[0]).atom.args[1];
  const auto& a2 = std::get<Literal>(rule.body[1]).atom.args[0];
  EXPECT_NE(a1.var, a2.var);
}

TEST(ParserTest, ArityMismatchRejected) {
  EXPECT_THROW(ParseProgram("p(a). p(a, b)."), util::ParseError);
}

TEST(ParserTest, SyntaxErrorsRejected) {
  EXPECT_THROW(ParseProgram("p(a)"), util::ParseError);       // missing '.'
  EXPECT_THROW(ParseProgram("p(a,)."), util::ParseError);     // dangling comma
  EXPECT_THROW(ParseProgram(":- p(a)."), util::ParseError);   // no head
  EXPECT_THROW(ParseProgram("p(a) :- ."), util::ParseError);  // empty body
  EXPECT_THROW(ParseProgram("P(a)."), util::ParseError);      // var as pred
}

TEST(ValidateTest, SafeProgramPasses) {
  const Program p = ParseProgram(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  EXPECT_NO_THROW(ValidateProgram(p));
}

TEST(ValidateTest, UnboundHeadVariableRejected) {
  const Program p = ParseProgram("p(X, Y) :- q(X).");
  EXPECT_THROW(ValidateProgram(p), util::InvalidArgument);
}

TEST(ValidateTest, UnboundNegationRejected) {
  const Program p = ParseProgram("p(X) :- q(X), !r(Y).");
  EXPECT_THROW(ValidateProgram(p), util::InvalidArgument);
}

TEST(ValidateTest, UnboundComparisonRejected) {
  const Program p = ParseProgram("p(X) :- q(X), Y > 3.");
  EXPECT_THROW(ValidateProgram(p), util::InvalidArgument);
}

TEST(ValidateTest, NonGroundFactRejected) {
  const Program p = ParseProgram("p(X).");
  EXPECT_THROW(ValidateProgram(p), util::InvalidArgument);
}

TEST(StratifyTest, TransitiveClosureOneRecursiveComponent) {
  const Program p = ParseProgram(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  const Stratification s = Stratify(p);
  const auto e = p.PredicateId("e");
  const auto tc = p.PredicateId("tc");
  EXPECT_NE(s.component_of[e], s.component_of[tc]);
  EXPECT_TRUE(s.component_recursive[s.component_of[tc]]);
  EXPECT_FALSE(s.component_recursive[s.component_of[e]]);
  // e's component precedes tc's in the order.
  std::size_t pos_e = 0;
  std::size_t pos_tc = 0;
  for (std::size_t i = 0; i < s.component_order.size(); ++i) {
    if (s.component_order[i] == s.component_of[e]) {
      pos_e = i;
    }
    if (s.component_order[i] == s.component_of[tc]) {
      pos_tc = i;
    }
  }
  EXPECT_LT(pos_e, pos_tc);
}

TEST(StratifyTest, MutualRecursionSharesComponent) {
  const Program p = ParseProgram(R"(
    even(X) :- zero(X).
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
  )");
  const Stratification s = Stratify(p);
  EXPECT_EQ(s.component_of[p.PredicateId("even")],
            s.component_of[p.PredicateId("odd")]);
  EXPECT_TRUE(s.component_recursive[s.component_of[p.PredicateId("even")]]);
}

TEST(StratifyTest, NegationRaisesStratum) {
  const Program p = ParseProgram(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    unreached(X) :- node(X), !reach(X).
  )");
  const Stratification s = Stratify(p);
  const auto reach = s.component_of[p.PredicateId("reach")];
  const auto unreached = s.component_of[p.PredicateId("unreached")];
  EXPECT_GT(s.component_stratum[unreached], s.component_stratum[reach]);
}

TEST(StratifyTest, NegationThroughRecursionRejected) {
  const Program p = ParseProgram(R"(
    win(X) :- move(X, Y), !win(Y).
  )");
  EXPECT_THROW(Stratify(p), util::InvalidArgument);
}

TEST(RelationTest, InsertEraseContains) {
  Relation r(2);
  const Tuple t1{Value::Int(1), Value::Int(2)};
  const Tuple t2{Value::Int(3), Value::Int(4)};
  EXPECT_TRUE(r.Insert(t1));
  EXPECT_FALSE(r.Insert(t1));  // duplicate
  EXPECT_TRUE(r.Insert(t2));
  EXPECT_EQ(r.Size(), 2u);
  EXPECT_TRUE(r.Contains(t1));
  EXPECT_TRUE(r.Erase(t1));
  EXPECT_FALSE(r.Erase(t1));
  EXPECT_FALSE(r.Contains(t1));
  EXPECT_TRUE(r.Contains(t2));  // swap-removal kept t2 intact
  EXPECT_EQ(r.Size(), 1u);
}

TEST(RelationTest, VersionAdvancesOnChange) {
  Relation r(1);
  const auto v0 = r.Version();
  r.Insert({Value::Int(1)});
  EXPECT_GT(r.Version(), v0);
  const auto v1 = r.Version();
  r.Insert({Value::Int(1)});  // no-op
  EXPECT_EQ(r.Version(), v1);
}

TEST(RelationTest, ArityEnforced) {
  Relation r(2);
  EXPECT_THROW(r.Insert({Value::Int(1)}), util::LogicError);
}

TEST(RelationStoreTest, LookupFindsMatchingRows) {
  const Program p = ParseProgram("e(a, b). e(a, c). e(b, c).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  const Value a = Value::Symbol(0);  // "a" interned first
  store.Of(e).Insert({a, Value::Symbol(1)});
  store.Of(e).Insert({a, Value::Symbol(2)});
  store.Of(e).Insert({Value::Symbol(1), Value::Symbol(2)});
  const auto rows = store.Lookup(e, {0}, {a});
  EXPECT_EQ(rows.size(), 2u);
  // Full-scan lookup: empty column set matches everything.
  EXPECT_EQ(store.Lookup(e, {}, {}).size(), 3u);
  // Index refreshes after mutation.
  store.Of(e).Insert({a, Value::Symbol(3)});
  EXPECT_EQ(store.Lookup(e, {0}, {a}).size(), 3u);
}

}  // namespace
}  // namespace dsched::datalog
