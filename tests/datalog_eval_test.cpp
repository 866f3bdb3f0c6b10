// Evaluation tests: golden programs, semi-naive ≡ naive, builtins,
// negation, and the Database facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "util/rng.hpp"

namespace dsched::datalog {
namespace {

/// Sorted copy for set comparison.
std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// All tuples of every predicate, as one comparable snapshot.
std::vector<std::vector<Tuple>> Snapshot(const Program& p,
                                         const RelationStore& store) {
  std::vector<std::vector<Tuple>> out;
  for (std::uint32_t pred = 0; pred < p.NumPredicates(); ++pred) {
    out.push_back(Sorted(store.Of(pred).Tuples()));
  }
  return out;
}

TEST(EvalTest, TransitiveClosureOnChain) {
  Database db(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
  )");
  const int n = 10;
  for (int i = 0; i + 1 < n; ++i) {
    db.Insert("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), static_cast<std::size_t>(n * (n - 1) / 2));
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(9)}));
  EXPECT_FALSE(db.Contains("tc", {Value::Int(5), Value::Int(2)}));
}

TEST(EvalTest, FactsInProgramText) {
  Database db(R"(
    edge(a, b).
    edge(b, c).
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
  )");
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 3u);
  EXPECT_TRUE(db.Contains("tc", {db.Sym("a"), db.Sym("c")}));
}

TEST(EvalTest, SameGeneration) {
  // Classic same-generation: sg(X, Y) if X and Y are equally deep cousins.
  Database db(R"(
    sg(X, Y) :- person(X), person(Y), X = Y.
    sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
  )");
  // Tree: r -> a, b;  a -> c;  b -> d.
  for (const char* who : {"r", "a", "b", "c", "d"}) {
    db.Insert("person", {db.Sym(who)});
  }
  db.Insert("parent", {db.Sym("a"), db.Sym("r")});
  db.Insert("parent", {db.Sym("b"), db.Sym("r")});
  db.Insert("parent", {db.Sym("c"), db.Sym("a")});
  db.Insert("parent", {db.Sym("d"), db.Sym("b")});
  db.Materialize();
  EXPECT_TRUE(db.Contains("sg", {db.Sym("a"), db.Sym("b")}));
  EXPECT_TRUE(db.Contains("sg", {db.Sym("c"), db.Sym("d")}));
  EXPECT_FALSE(db.Contains("sg", {db.Sym("a"), db.Sym("d")}));
}

TEST(EvalTest, NegationUnreachable) {
  Database db(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreach(X) :- node(X), !reach(X).
  )");
  for (int i = 0; i < 6; ++i) {
    db.Insert("node", {Value::Int(i)});
  }
  db.Insert("start", {Value::Int(0)});
  db.Insert("edge", {Value::Int(0), Value::Int(1)});
  db.Insert("edge", {Value::Int(1), Value::Int(2)});
  db.Insert("edge", {Value::Int(4), Value::Int(5)});
  db.Materialize();
  EXPECT_EQ(db.Query("reach").size(), 3u);  // 0, 1, 2
  EXPECT_EQ(db.Query("unreach").size(), 3u);  // 3, 4, 5
  EXPECT_TRUE(db.Contains("unreach", {Value::Int(4)}));
}

TEST(EvalTest, ComparisonBuiltins) {
  Database db(R"(
    big(X) :- amount(X, V), V >= 100.
    tiny(X) :- amount(X, V), V < 10, V != 5.
  )");
  db.Insert("amount", {db.Sym("a"), Value::Int(250)});
  db.Insert("amount", {db.Sym("b"), Value::Int(50)});
  db.Insert("amount", {db.Sym("c"), Value::Int(5)});
  db.Insert("amount", {db.Sym("d"), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("big").size(), 1u);
  EXPECT_EQ(db.Query("tiny").size(), 1u);
  EXPECT_TRUE(db.Contains("tiny", {db.Sym("d")}));
}

TEST(EvalTest, RepeatedVariablesInLiteral) {
  Database db("loop(X) :- edge(X, X).");
  db.Insert("edge", {Value::Int(1), Value::Int(2)});
  db.Insert("edge", {Value::Int(3), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("loop").size(), 1u);
  EXPECT_TRUE(db.Contains("loop", {Value::Int(3)}));
}

TEST(EvalTest, MutualRecursionEvenOdd) {
  Database db(R"(
    even(X) :- zero(X).
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
  )");
  db.Insert("zero", {Value::Int(0)});
  for (int i = 0; i < 10; ++i) {
    db.Insert("succ", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("even").size(), 6u);  // 0, 2, 4, 6, 8, 10
  EXPECT_EQ(db.Query("odd").size(), 5u);
  EXPECT_TRUE(db.Contains("even", {Value::Int(10)}));
  EXPECT_TRUE(db.Contains("odd", {Value::Int(7)}));
}

TEST(EvalTest, SemiNaiveMatchesNaiveOnRandomPrograms) {
  // Random edge relations through a fixed rule mix, checked at several
  // densities: the two evaluators must produce identical stores.
  util::Rng rng(2718);
  const char* program_text = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    sym(X, Y) :- e(X, Y).
    sym(Y, X) :- sym(X, Y).
    deadend(X) :- n(X), !hasout(X).
    hasout(X) :- e(X, _).
    self(X) :- tc(X, X).
  )";
  for (int trial = 0; trial < 5; ++trial) {
    const Program program = ParseProgram(program_text);
    ValidateProgram(program);
    const Stratification strat = Stratify(program);
    RelationStore semi(program);
    RelationStore naive(program);
    const int n = 12;
    for (int i = 0; i < n; ++i) {
      semi.Of(program.PredicateId("n")).Insert({Value::Int(i)});
      naive.Of(program.PredicateId("n")).Insert({Value::Int(i)});
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j && rng.NextBool(0.12)) {
          semi.Of(program.PredicateId("e"))
              .Insert({Value::Int(i), Value::Int(j)});
          naive.Of(program.PredicateId("e"))
              .Insert({Value::Int(i), Value::Int(j)});
        }
      }
    }
    EvaluateProgram(program, strat, semi);
    EvaluateProgramNaive(program, strat, naive);
    EXPECT_EQ(Snapshot(program, semi), Snapshot(program, naive))
        << "trial " << trial;
  }
}

TEST(EvalTest, StatsArePopulated) {
  const Program program = ParseProgram(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  const Stratification strat = Stratify(program);
  RelationStore store(program);
  for (int i = 0; i < 20; ++i) {
    store.Of(program.PredicateId("e")).Insert({Value::Int(i), Value::Int(i + 1)});
  }
  const EvalStats stats = EvaluateProgram(program, strat, store);
  EXPECT_GT(stats.rule_applications, 0u);
  EXPECT_GT(stats.tuples_inserted, 0u);
  EXPECT_GT(stats.rounds, 5u);  // chain depth forces many rounds
  EXPECT_EQ(stats.tuples_inserted, store.Of(program.PredicateId("tc")).Size());
}

// --- Point-derivation queries plan with the ground head bound.

const Rule& RuleFor(const Program& program, const char* head) {
  const std::uint32_t pred = program.PredicateId(head);
  for (const Rule& rule : program.rules) {
    if (rule.head.predicate == pred) {
      return rule;
    }
  }
  throw util::InvalidArgument(std::string("no rule for ") + head);
}

/// The perfbench chain shape: 10 k base keys spread over 8 groups, each
/// group carrying two values, so a1 and a2 hold 20 k rows.
struct ChainStore {
  static constexpr int kKeys = 10000;
  static constexpr int kGroups = 8;
  Program program = ParseProgram(R"(
    a1(X, V) :- base(X, G), sa(G, V).
    a2(X, V) :- a1(X, V).
  )");
  RelationStore store{program};

  ChainStore() {
    for (int x = 0; x < kKeys; ++x) {
      store.Of(program.PredicateId("base"))
          .Insert({Value::Int(x), Value::Int(x % kGroups)});
    }
    for (int g = 0; g < kGroups; ++g) {
      for (int k = 0; k < 2; ++k) {
        store.Of(program.PredicateId("sa"))
            .Insert({Value::Int(g), Value::Int(100 * g + k)});
      }
    }
    EvaluateProgram(program, Stratify(program), store);
  }

  /// A head tuple of x's group (k = 0/1), or a value no group carries.
  static Tuple Head(int x, int k) {
    return {Value::Int(x), Value::Int(100 * (x % kGroups) + k)};
  }
};

TEST(HeadBoundPlanTest, PointQueriesExploreConstantBindings) {
  ChainStore chain;
  ASSERT_EQ(chain.store.Of(chain.program.PredicateId("a2")).Size(),
            2u * ChainStore::kKeys);
  const std::vector<std::pair<std::uint32_t, Tuple>> none;
  for (const char* head : {"a1", "a2"}) {
    const Rule& rule = RuleFor(chain.program, head);
    for (const int x : {0, 4711, ChainStore::kKeys - 1}) {
      const Tuple hit = ChainStore::Head(x, 1);
      const Tuple miss = ChainStore::Head(x, 7);
      EvalStats stats;
      EXPECT_TRUE(IsDerivable(chain.program, chain.store, rule, hit, stats));
      EXPECT_FALSE(IsDerivable(chain.program, chain.store, rule, miss, stats));
      std::vector<std::pair<std::uint32_t, Tuple>> body;
      EXPECT_FALSE(ForEachDerivation(
          chain.program, chain.store, rule, hit, stats,
          [&body](const std::vector<std::pair<std::uint32_t, Tuple>>& b) {
            body = b;
            return false;
          }));
      ASSERT_FALSE(body.empty()) << head;
      EXPECT_EQ(body.back().second.back(), hit[1]) << head;
      // Four queries, each a constant number of rows: never a scan of the
      // 20 k-row relation.
      EXPECT_LE(stats.bindings_explored, 6u) << head << " x=" << x;
    }
  }
  // Full-arity membership goes through the relation's own hash table; no
  // all-columns index is ever built for it.
  EXPECT_EQ(chain.store.IndexDistinct(chain.program.PredicateId("a1"), {0, 1}),
            0u);
  EXPECT_EQ(chain.store.IndexDistinct(chain.program.PredicateId("sa"), {0, 1}),
            0u);
}

TEST(HeadBoundPlanTest, HeadBoundBodyStillAppliesFilters) {
  const Program program = ParseProgram(R"(
    p(X) :- q(X), !r(X).
    s(X) :- q(X), X < 5.
  )");
  RelationStore store(program);
  for (int i = 1; i <= 10; ++i) {
    store.Of(program.PredicateId("q")).Insert({Value::Int(i)});
  }
  store.Of(program.PredicateId("r")).Insert({Value::Int(3)});
  const Rule& p = RuleFor(program, "p");
  const Rule& s = RuleFor(program, "s");
  EvalStats stats;
  EXPECT_FALSE(IsDerivable(program, store, p, {Value::Int(3)}, stats));
  EXPECT_TRUE(IsDerivable(program, store, p, {Value::Int(4)}, stats));
  EXPECT_FALSE(IsDerivable(program, store, p, {Value::Int(42)}, stats));
  EXPECT_TRUE(IsDerivable(program, store, s, {Value::Int(3)}, stats));
  EXPECT_FALSE(IsDerivable(program, store, s, {Value::Int(7)}, stats));
  EXPECT_FALSE(ForEachDerivation(
      program, store, s, {Value::Int(7)}, stats,
      [](const std::vector<std::pair<std::uint32_t, Tuple>>&) {
        ADD_FAILURE() << "s(7) has no derivation";
        return true;
      }));
}

TEST(HeadBoundPlanTest, HeadClashIsNoDerivation) {
  const Program program = ParseProgram(R"(
    c(X, 1) :- q(X).
    d(X, X) :- q(X).
  )");
  RelationStore store(program);
  store.Of(program.PredicateId("q")).Insert({Value::Int(1)});
  store.Of(program.PredicateId("q")).Insert({Value::Int(2)});
  const Rule& c = RuleFor(program, "c");
  const Rule& d = RuleFor(program, "d");
  EvalStats stats;
  EXPECT_TRUE(IsDerivable(program, store, c, {Value::Int(2), Value::Int(1)},
                          stats));
  EXPECT_FALSE(IsDerivable(program, store, c, {Value::Int(2), Value::Int(2)},
                           stats));
  EXPECT_TRUE(IsDerivable(program, store, d, {Value::Int(1), Value::Int(1)},
                          stats));
  EXPECT_FALSE(IsDerivable(program, store, d, {Value::Int(1), Value::Int(2)},
                           stats));
  EXPECT_FALSE(ForEachDerivation(
      program, store, c, {Value::Int(2), Value::Int(2)}, stats,
      [](const std::vector<std::pair<std::uint32_t, Tuple>>&) { return true; }));
}

// --- Plan once, probe many: a DerivationProbe reused across head tuples
// must answer exactly what a freshly planned one-shot query answers.

std::vector<DerivationProbe::Body> AllDerivations(DerivationProbe& probe,
                                                  const Tuple& head) {
  std::vector<DerivationProbe::Body> out;
  probe.ForEachDerivation(head, [&out](const DerivationProbe::Body& body) {
    out.push_back(body);
    return false;
  });
  return out;
}

TEST(PlanReuseTest, ReusedProbeAnswersLikeOneShotIsDerivable) {
  const Program program = ParseProgram(R"(
    p(X) :- q(X), !r(X).
    s(X) :- q(X), X < 5.
    c(X, 1) :- q(X).
    d(X, X) :- q(X).
    j(X, Z) :- e(X, Y), f(Y, Z).
  )");
  RelationStore store(program);
  util::Rng rng(23);
  for (int i = 1; i <= 10; ++i) {
    store.Of(program.PredicateId("q")).Insert({Value::Int(i)});
  }
  store.Of(program.PredicateId("r")).Insert({Value::Int(3)});
  for (int i = 0; i < 30; ++i) {
    store.Of(program.PredicateId("e"))
        .Insert({Value::Int(static_cast<std::int64_t>(rng.NextBelow(8))),
                 Value::Int(static_cast<std::int64_t>(rng.NextBelow(8)))});
    store.Of(program.PredicateId("f"))
        .Insert({Value::Int(static_cast<std::int64_t>(rng.NextBelow(8))),
                 Value::Int(static_cast<std::int64_t>(rng.NextBelow(8)))});
  }
  EvalStats stats;
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const char* head : {"p", "s", "c", "d", "j"}) {
    const Rule& rule = RuleFor(program, head);
    DerivationProbe probe(program, store, rule, stats);
    std::vector<Tuple> heads;
    for (int x = 0; x <= 12; ++x) {
      if (rule.head.args.size() == 1) {
        heads.push_back({Value::Int(x)});
        continue;
      }
      for (int y = 0; y <= 8; ++y) {
        heads.push_back({Value::Int(x), Value::Int(y)});
      }
    }
    for (const Tuple& h : heads) {
      const bool expected = IsDerivable(program, store, rule, h, stats);
      EXPECT_EQ(probe.IsDerivable(h), expected) << head << TupleToString(h, program.symbols);
      (expected ? hits : misses) += 1;
      std::vector<DerivationProbe::Body> one_shot;
      ForEachDerivation(program, store, rule, h, stats,
                        [&one_shot](const DerivationProbe::Body& body) {
                          one_shot.push_back(body);
                          return false;
                        });
      EXPECT_EQ(AllDerivations(probe, h), one_shot) << head;
    }
    if (std::string(head) == "c") {
      // A head-constant clash between two hits: no derivation, and the
      // next probe binds afresh.
      EXPECT_TRUE(probe.IsDerivable(Tuple{Value::Int(2), Value::Int(1)}));
      EXPECT_FALSE(probe.IsDerivable(Tuple{Value::Int(2), Value::Int(2)}));
      EXPECT_TRUE(probe.IsDerivable(Tuple{Value::Int(4), Value::Int(1)}));
    }
    if (std::string(head) == "d") {
      // The repeated head variable of d(X, X) is compared, not rebound.
      EXPECT_TRUE(probe.IsDerivable(Tuple{Value::Int(1), Value::Int(1)}));
      EXPECT_FALSE(probe.IsDerivable(Tuple{Value::Int(1), Value::Int(2)}));
      EXPECT_FALSE(probe.IsDerivable(Tuple{Value::Int(2), Value::Int(1)}));
      EXPECT_TRUE(probe.IsDerivable(Tuple{Value::Int(2), Value::Int(2)}));
    }
  }
  EXPECT_GT(hits, 20u);
  EXPECT_GT(misses, 20u);
}

TEST(PlanReuseTest, ProbesSeeRowsInsertedBetweenProbes) {
  // The probe is planned against a nearly empty store, then the body
  // relations grow by thousands of rows between probes: every index
  // handle is extended, and the relations' first blocks regrow and move.
  // A handle kept from an earlier probe would read stale rows.
  const Program program = ParseProgram("j(X, Z) :- e(X, Y), f(Y, Z).");
  RelationStore store(program);
  const std::uint32_t e = program.PredicateId("e");
  const std::uint32_t f = program.PredicateId("f");
  store.Of(e).Insert({Value::Int(0), Value::Int(0)});
  store.Of(f).Insert({Value::Int(0), Value::Int(0)});
  const Rule& rule = RuleFor(program, "j");
  EvalStats stats;
  DerivationProbe probe(program, store, rule, stats);
  EXPECT_TRUE(probe.IsDerivable(Tuple{Value::Int(0), Value::Int(0)}));
  util::Rng rng(41);
  constexpr int kKeys = 3000;
  for (int round = 0; round < 6000; ++round) {
    const auto x = static_cast<std::int64_t>(rng.NextBelow(kKeys));
    const auto y = static_cast<std::int64_t>(rng.NextBelow(kKeys));
    const auto z = static_cast<std::int64_t>(rng.NextBelow(kKeys));
    const Tuple head{Value::Int(x), Value::Int(z)};
    const bool before = IsDerivable(program, store, rule, head, stats);
    ASSERT_EQ(probe.IsDerivable(head), before) << "round " << round;
    store.Of(e).Insert({Value::Int(x), Value::Int(y)});
    store.Of(f).Insert({Value::Int(y), Value::Int(z)});
    ASSERT_TRUE(probe.IsDerivable(head)) << "round " << round;
    const Tuple other{Value::Int(static_cast<std::int64_t>(rng.NextBelow(kKeys))),
                      Value::Int(static_cast<std::int64_t>(rng.NextBelow(kKeys)))};
    ASSERT_EQ(probe.IsDerivable(other),
              IsDerivable(program, store, rule, other, stats))
        << "round " << round;
  }
}

TEST(DatabaseTest, InsertAfterMaterializeRejected) {
  Database db("p(X) :- q(X).");
  db.Insert("q", {Value::Int(1)});
  db.Materialize();
  EXPECT_THROW(db.Insert("q", {Value::Int(2)}), util::LogicError);
}

TEST(DatabaseTest, ArityMismatchOnInsert) {
  Database db("p(X) :- q(X).");
  EXPECT_THROW(db.Insert("q", {Value::Int(1), Value::Int(2)}),
               util::InvalidArgument);
}

TEST(DatabaseTest, UnknownPredicateThrows) {
  Database db("p(X) :- q(X).");
  EXPECT_THROW(db.Insert("zzz", {Value::Int(1)}), util::InvalidArgument);
  EXPECT_THROW(db.Query("zzz"), util::InvalidArgument);
}

}  // namespace
}  // namespace dsched::datalog
