// Tests for stratified aggregation: parsing, validation, stratification,
// evaluation goldens, incremental maintenance (recompute-diff), and the
// parallel engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "runtime/task_router.hpp"
#include "util/error.hpp"

namespace dsched::datalog {
namespace {

TEST(AggregateParseTest, AllOperators) {
  const Program p = ParseProgram(R"(
    c(X; count()) :- e(X, _).
    s(X; sum(V)) :- w(X, V).
    lo(; min(V)) :- w(_, V).
    hi(; max(V)) :- w(_, V).
  )");
  ASSERT_EQ(p.rules.size(), 4u);
  EXPECT_EQ(p.rules[0].aggregate->op, AggOp::kCount);
  EXPECT_EQ(p.rules[1].aggregate->op, AggOp::kSum);
  EXPECT_EQ(p.rules[2].aggregate->op, AggOp::kMin);
  EXPECT_EQ(p.rules[3].aggregate->op, AggOp::kMax);
  // Head arity = group-bys + 1 (the result column).
  EXPECT_EQ(p.predicate_arities[p.PredicateId("c")], 2u);
  EXPECT_EQ(p.predicate_arities[p.PredicateId("lo")], 1u);
  EXPECT_EQ(RuleToString(p.rules[1], p), "s(X; sum(V)) :- w(X, V).");
}

TEST(AggregateParseTest, Rejections) {
  EXPECT_THROW(ParseProgram("t(X; avg(V)) :- w(X, V)."), util::ParseError);
  EXPECT_THROW(ParseProgram("t(X; sum(_)) :- w(X, V)."), util::ParseError);
  EXPECT_THROW(ParseProgram("t(X; sum(3)) :- w(X, V)."), util::ParseError);
  EXPECT_THROW(ParseProgram("t(X; count())."), util::ParseError);  // no body
}

TEST(AggregateValidateTest, UnboundAggregateVarRejected) {
  const Program p = ParseProgram("t(X; sum(V)) :- e(X, _), !w(X, V).");
  EXPECT_THROW(ValidateProgram(p), util::InvalidArgument);
}

TEST(AggregateValidateTest, MixedDefinitionsRejected) {
  const Program p = ParseProgram(R"(
    t(X; count()) :- e(X, _).
    t(X, Y) :- other(X, Y).
  )");
  EXPECT_THROW(ValidateProgram(p), util::InvalidArgument);
}

TEST(AggregateStratifyTest, AggregateRaisesStratum) {
  const Program p = ParseProgram(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    reach(X; count()) :- tc(X, _).
  )");
  const Stratification s = Stratify(p);
  EXPECT_GT(s.component_stratum[s.component_of[p.PredicateId("reach")]],
            s.component_stratum[s.component_of[p.PredicateId("tc")]]);
}

TEST(AggregateStratifyTest, RecursionThroughAggregateRejected) {
  const Program p = ParseProgram(R"(
    t(X; count()) :- t(X, _), e(X, _).
  )");
  EXPECT_THROW(Stratify(p), util::InvalidArgument);
}

TEST(AggregateEvalTest, CountAndGrouping) {
  Database db("outdeg(X; count()) :- e(X, _).");
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Insert("e", {Value::Int(1), Value::Int(3)});
  db.Insert("e", {Value::Int(2), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("outdeg").size(), 2u);
  EXPECT_TRUE(db.Contains("outdeg", {Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(db.Contains("outdeg", {Value::Int(2), Value::Int(1)}));
}

TEST(AggregateEvalTest, SumMinMax) {
  Database db(R"(
    total(C; sum(V)) :- stock(_, C, V).
    cheapest(C; min(V)) :- stock(_, C, V).
    dearest(C; max(V)) :- stock(_, C, V).
  )");
  db.Insert("stock", {db.Sym("p1"), db.Sym("food"), Value::Int(10)});
  db.Insert("stock", {db.Sym("p2"), db.Sym("food"), Value::Int(-3)});
  db.Insert("stock", {db.Sym("p3"), db.Sym("tools"), Value::Int(7)});
  db.Materialize();
  EXPECT_TRUE(db.Contains("total", {db.Sym("food"), Value::Int(7)}));
  EXPECT_TRUE(db.Contains("total", {db.Sym("tools"), Value::Int(7)}));
  EXPECT_TRUE(db.Contains("cheapest", {db.Sym("food"), Value::Int(-3)}));
  EXPECT_TRUE(db.Contains("dearest", {db.Sym("food"), Value::Int(10)}));
}

TEST(AggregateEvalTest, DistinctBindingSemantics) {
  // Two products share the same stock value in one category; the sum must
  // count both (distinct complete bindings, not distinct values).
  Database db("total(C; sum(V)) :- stock(P, C, V).");
  db.Insert("stock", {db.Sym("p1"), db.Sym("c"), Value::Int(5)});
  db.Insert("stock", {db.Sym("p2"), db.Sym("c"), Value::Int(5)});
  db.Materialize();
  EXPECT_TRUE(db.Contains("total", {db.Sym("c"), Value::Int(10)}));
}

TEST(AggregateEvalTest, GlobalGroup) {
  Database db("everything(; count()) :- item(_).");
  for (int i = 0; i < 7; ++i) {
    db.Insert("item", {Value::Int(i)});
  }
  db.Materialize();
  ASSERT_EQ(db.Query("everything").size(), 1u);
  EXPECT_TRUE(db.Contains("everything", {Value::Int(7)}));
}

TEST(AggregateEvalTest, EmptyBodyGroupsProduceNothing) {
  Database db("t(X; count()) :- e(X, _).");
  db.Materialize();
  EXPECT_TRUE(db.Query("t").empty());
}

TEST(AggregateEvalTest, SumOverSymbolThrows) {
  Database db("t(; sum(V)) :- w(V).");
  db.Insert("w", {db.Sym("oops")});
  EXPECT_THROW(db.Materialize(), util::InvalidArgument);
}

TEST(AggregateEvalTest, AggregateOverDerivedRelation) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    reachable(X; count()) :- tc(X, _).
  )");
  for (int i = 0; i + 1 < 5; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_TRUE(db.Contains("reachable", {Value::Int(0), Value::Int(4)}));
  EXPECT_TRUE(db.Contains("reachable", {Value::Int(3), Value::Int(1)}));
}

TEST(AggregateIncrementalTest, SumTracksInsertsAndDeletes) {
  Database db("total(C; sum(V)) :- stock(_, C, V).");
  db.Insert("stock", {db.Sym("p1"), db.Sym("c"), Value::Int(10)});
  db.Insert("stock", {db.Sym("p2"), db.Sym("c"), Value::Int(20)});
  db.Materialize();
  EXPECT_TRUE(db.Contains("total", {db.Sym("c"), Value::Int(30)}));

  auto up1 = db.MakeUpdate();
  up1.Insert("stock", {db.Sym("p3"), db.Sym("c"), Value::Int(5)});
  const UpdateResult r1 = db.Apply(up1);
  EXPECT_TRUE(db.Contains("total", {db.Sym("c"), Value::Int(35)}));
  EXPECT_FALSE(db.Contains("total", {db.Sym("c"), Value::Int(30)}));
  EXPECT_GT(r1.total_deleted, 0u);  // the stale group value left

  auto up2 = db.MakeUpdate();
  up2.Delete("stock", {db.Sym("p1"), db.Sym("c"), Value::Int(10)});
  db.Apply(up2);
  EXPECT_TRUE(db.Contains("total", {db.Sym("c"), Value::Int(25)}));

  // Emptying the group removes its row entirely.
  auto up3 = db.MakeUpdate();
  up3.Delete("stock", {db.Sym("p2"), db.Sym("c"), Value::Int(20)});
  up3.Delete("stock", {db.Sym("p3"), db.Sym("c"), Value::Int(5)});
  db.Apply(up3);
  EXPECT_TRUE(db.Query("total").empty());
}

TEST(AggregateIncrementalTest, DownstreamOfAggregatePropagates) {
  Database db(R"(
    total(C; sum(V)) :- stock(_, C, V).
    overstocked(C) :- total(C, T), T > 100.
  )");
  db.Insert("stock", {db.Sym("p"), db.Sym("c"), Value::Int(60)});
  db.Materialize();
  EXPECT_TRUE(db.Query("overstocked").empty());

  auto up = db.MakeUpdate();
  up.Insert("stock", {db.Sym("q"), db.Sym("c"), Value::Int(50)});
  db.Apply(up);
  EXPECT_TRUE(db.Contains("overstocked", {db.Sym("c")}));

  auto down = db.MakeUpdate();
  down.Delete("stock", {db.Sym("q"), db.Sym("c"), Value::Int(50)});
  db.Apply(down);
  EXPECT_TRUE(db.Query("overstocked").empty());
}

TEST(AggregateIncrementalTest, UntouchedGroupsStay) {
  Database db("total(C; sum(V)) :- stock(_, C, V).");
  db.Insert("stock", {db.Sym("p"), db.Sym("a"), Value::Int(1)});
  db.Insert("stock", {db.Sym("q"), db.Sym("b"), Value::Int(2)});
  db.Materialize();
  auto up = db.MakeUpdate();
  up.Insert("stock", {db.Sym("r"), db.Sym("a"), Value::Int(10)});
  const UpdateResult result = db.Apply(up);
  EXPECT_TRUE(db.Contains("total", {db.Sym("a"), Value::Int(11)}));
  EXPECT_TRUE(db.Contains("total", {db.Sym("b"), Value::Int(2)}));
  // Only group "a" changed: one delete (stale 1) + one insert (11), plus
  // the base insert.
  EXPECT_EQ(result.total_deleted, 1u);
  EXPECT_EQ(result.total_inserted, 2u);
}

TEST(AggregateIncrementalTest, ParallelMatchesSequential) {
  const auto build = [] {
    auto db = std::make_unique<Database>(R"(
      total(C; sum(V)) :- stock(_, C, V).
      n(C; count()) :- stock(_, C, _).
      overstocked(C) :- total(C, T), T > 10.
    )");
    db->Insert("stock", {db->Sym("p"), db->Sym("a"), Value::Int(6)});
    db->Insert("stock", {db->Sym("q"), db->Sym("a"), Value::Int(6)});
    db->Insert("stock", {db->Sym("r"), db->Sym("b"), Value::Int(3)});
    db->Materialize();
    return db;
  };
  auto sequential = build();
  auto parallel = build();
  runtime::TaskRouter router({.workers = 4});
  for (int round = 0; round < 3; ++round) {
    auto up_seq = sequential->MakeUpdate();
    auto up_par = parallel->MakeUpdate();
    const Tuple ins{sequential->Sym("x" + std::to_string(round)),
                    sequential->Sym("b"), Value::Int(4 + round)};
    up_seq.Insert("stock", ins);
    up_par.Insert("stock", ins);
    sequential->Apply(up_seq);
    (void)parallel->ApplyRequestParallel(up_par.Request(), router, {});
    for (const char* pred : {"total", "n", "overstocked"}) {
      auto a = sequential->Query(pred);
      auto b = parallel->Query(pred);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << pred << " round " << round;
    }
  }
}

TEST(AggregateEvalTest, NaiveMatchesSemiNaiveWithAggregates) {
  const char* text = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    fan(X; count()) :- tc(X, _).
    widest(; max(N)) :- fan(_, N).
  )";
  const Program program = ParseProgram(text);
  ValidateProgram(program);
  const Stratification strat = Stratify(program);
  RelationStore semi(program);
  RelationStore naive(program);
  for (int i = 0; i < 6; ++i) {
    for (const int j : {i + 1, (i * 3 + 1) % 6}) {
      if (i != j) {
        semi.Of(program.PredicateId("e")).Insert({Value::Int(i), Value::Int(j)});
        naive.Of(program.PredicateId("e"))
            .Insert({Value::Int(i), Value::Int(j)});
      }
    }
  }
  EvaluateProgram(program, strat, semi);
  EvaluateProgramNaive(program, strat, naive);
  for (std::uint32_t pred = 0; pred < program.NumPredicates(); ++pred) {
    std::vector<Tuple> a = semi.Of(pred).Tuples();
    std::vector<Tuple> b = naive.Of(pred).Tuples();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << program.predicate_names[pred];
  }
}

}  // namespace
}  // namespace dsched::datalog
