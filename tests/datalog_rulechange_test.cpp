// Tests for incremental rule changes (Database::AddRules / RemoveRule):
// after any change the store must equal a from-scratch evaluation of the
// new program over the same base facts.
#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "util/error.hpp"

namespace dsched::datalog {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(RuleChangeTest, AddRuleDerivesIncrementally) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  for (int i = 0; i + 1 < 5; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 10u);

  // Add symmetric closure on top — a brand-new predicate.
  const UpdateResult result = db.EvolveAddRules(R"(
    sym(X, Y) :- tc(X, Y).
    sym(Y, X) :- tc(X, Y).
  )").update;
  EXPECT_EQ(db.Query("sym").size(), 20u);
  EXPECT_EQ(result.total_inserted, 20u);
  EXPECT_TRUE(db.Contains("sym", {Value::Int(4), Value::Int(0)}));
}

TEST(RuleChangeTest, AddRecursiveRuleReachesFixpoint) {
  Database db("hop(X, Y) :- e(X, Y).");
  for (int i = 0; i + 1 < 6; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("hop").size(), 5u);
  // Make hop transitive — recursion through the NEW rule must run to
  // fixpoint, not stop after one application.
  db.EvolveAddRules("hop(X, Z) :- hop(X, Y), hop(Y, Z).");
  EXPECT_EQ(db.Query("hop").size(), 15u);
  EXPECT_TRUE(db.Contains("hop", {Value::Int(0), Value::Int(5)}));
}

TEST(RuleChangeTest, AddRuleCascadesThroughNegation) {
  Database db(R"(
    covered(X) :- blanket(X).
    exposed(X) :- thing(X), !covered(X).
    tarpish(X) :- tarp(X).
  )");
  db.Insert("thing", {Value::Int(1)});
  db.Insert("thing", {Value::Int(2)});
  db.Insert("blanket", {Value::Int(1)});
  db.Insert("tarp", {Value::Int(2)});
  db.Materialize();
  EXPECT_TRUE(db.Contains("exposed", {Value::Int(2)}));

  // New rule inserts into the negated predicate: exposed(2) must retract.
  db.EvolveAddRules("covered(X) :- tarp(X).");
  EXPECT_FALSE(db.Contains("exposed", {Value::Int(2)}));
  EXPECT_TRUE(db.Query("exposed").empty());
}

TEST(RuleChangeTest, AddAggregateRule) {
  Database db("pair(X, Y) :- e(X, Y).");
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Insert("e", {Value::Int(1), Value::Int(3)});
  db.Materialize();
  db.EvolveAddRules("fan(X; count()) :- pair(X, _).");
  EXPECT_TRUE(db.Contains("fan", {Value::Int(1), Value::Int(2)}));
}

TEST(RuleChangeTest, AddRulesFailureLeavesDatabaseIntact) {
  Database db("p(X) :- q(X).");
  db.Insert("q", {Value::Int(1)});
  db.Materialize();
  // Unsafe rule: rejected, nothing changes.
  EXPECT_THROW(db.EvolveAddRules("p(Y) :- q(X)."), util::InvalidArgument);
  // Unstratifiable: rejected, nothing changes.
  EXPECT_THROW(db.EvolveAddRules("q(X) :- p(X), !p(X)."),
               util::InvalidArgument);
  EXPECT_EQ(db.GetProgram().rules.size(), 1u);
  EXPECT_EQ(db.Query("p").size(), 1u);
}

TEST(RuleChangeTest, RemoveRuleRetractsDerivations) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  for (int i = 0; i + 1 < 5; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 10u);

  // Drop the transitive rule: only direct edges remain.
  const UpdateResult result =
      db.EvolveRemoveRule("tc(X, Z) :- tc(X, Y), e(Y, Z).").update;
  EXPECT_EQ(db.Query("tc").size(), 4u);
  EXPECT_EQ(result.total_deleted, 6u);
  EXPECT_EQ(db.GetProgram().rules.size(), 1u);
}

TEST(RuleChangeTest, RemoveRuleRederivesSharedSupport) {
  Database db(R"(
    p(X) :- a(X).
    p(X) :- b(X).
  )");
  db.Insert("a", {Value::Int(1)});
  db.Insert("b", {Value::Int(1)});
  db.Insert("b", {Value::Int(2)});
  db.Materialize();
  db.EvolveRemoveRule("p(X) :- a(X).");
  // p(1) survives via the b-rule; nothing else lost except a-only support.
  EXPECT_TRUE(db.Contains("p", {Value::Int(1)}));
  EXPECT_TRUE(db.Contains("p", {Value::Int(2)}));
  EXPECT_EQ(db.Query("p").size(), 2u);
}

TEST(RuleChangeTest, RemoveRuleCreatesThroughNegation) {
  Database db(R"(
    covered(X) :- blanket(X).
    exposed(X) :- thing(X), !covered(X).
  )");
  db.Insert("thing", {Value::Int(1)});
  db.Insert("blanket", {Value::Int(1)});
  db.Materialize();
  EXPECT_TRUE(db.Query("exposed").empty());
  db.EvolveRemoveRule("covered(X) :- blanket(X).");
  EXPECT_TRUE(db.Contains("exposed", {Value::Int(1)}));
}

TEST(RuleChangeTest, RemoveFactClause) {
  Database db(R"(
    e(a, b).
    tc(X, Y) :- e(X, Y).
  )");
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 1u);
  db.EvolveRemoveRule("e(a, b).");
  EXPECT_TRUE(db.Query("e").empty());
  EXPECT_TRUE(db.Query("tc").empty());
}

TEST(RuleChangeTest, RemoveUnknownRuleThrows) {
  Database db("p(X) :- q(X).");
  db.Insert("q", {Value::Int(1)});
  db.Materialize();
  EXPECT_THROW(db.EvolveRemoveRule("p(X) :- missingpred(X)."),
               util::ParseError);
  EXPECT_THROW(db.EvolveRemoveRule("q(X) :- p(X)."), util::InvalidArgument);
}

TEST(RuleChangeTest, EquivalentToFromScratchAfterMixedChanges) {
  const char* base_program = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    hasout(X) :- e(X, _).
    deadend(X) :- n(X), !hasout(X).
  )";
  Database db(base_program);
  for (int i = 0; i < 6; ++i) {
    db.Insert("n", {Value::Int(i)});
  }
  for (const auto& [i, j] :
       std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {3, 4}, {4, 5}}) {
    db.Insert("e", {Value::Int(i), Value::Int(j)});
  }
  db.Materialize();

  db.EvolveAddRules("far(X, Z) :- tc(X, Y), tc(Y, Z).");
  db.EvolveRemoveRule("tc(X, Z) :- tc(X, Y), e(Y, Z).");
  db.EvolveAddRules("island(X; count()) :- deadend(X).");

  // From-scratch reference over the final program text.
  Database fresh(R"(
    tc(X, Y) :- e(X, Y).
    hasout(X) :- e(X, _).
    deadend(X) :- n(X), !hasout(X).
    far(X, Z) :- tc(X, Y), tc(Y, Z).
    island(X; count()) :- deadend(X).
  )");
  for (int i = 0; i < 6; ++i) {
    fresh.Insert("n", {Value::Int(i)});
  }
  for (const auto& [i, j] :
       std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {3, 4}, {4, 5}}) {
    fresh.Insert("e", {Value::Int(i), Value::Int(j)});
  }
  fresh.Materialize();

  for (const char* pred : {"tc", "hasout", "deadend", "far", "island"}) {
    EXPECT_EQ(Sorted(db.Query(pred)), Sorted(fresh.Query(pred))) << pred;
  }
}

TEST(RuleChangeTest, BaseUpdatesKeepWorkingAfterRuleChanges) {
  Database db("p(X) :- q(X).");
  db.Insert("q", {Value::Int(1)});
  db.Materialize();
  db.EvolveAddRules("r(X) :- p(X).");
  auto update = db.MakeUpdate();
  update.Insert("q", {Value::Int(2)});
  db.Apply(update);
  EXPECT_TRUE(db.Contains("r", {Value::Int(2)}));
}

TEST(RuleChangeTest, ProgramVersionAdvancesPerChange) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Materialize();
  EXPECT_EQ(db.ProgramVersion(), 1u);
  const Database::EvolveResult added = db.EvolveAddRules("out(X) :- e(X, _).");
  EXPECT_EQ(added.program_version, 2u);
  EXPECT_EQ(db.ProgramVersion(), 2u);
  const Database::EvolveResult removed = db.EvolveRemoveRule(
      "tc(X, Z) :- tc(X, Y), e(Y, Z).");
  EXPECT_EQ(removed.program_version, 3u);
  EXPECT_EQ(db.ProgramVersion(), 3u);
  // A REJECTED change must not burn a version.
  EXPECT_THROW(db.EvolveAddRules("p(Y) :- e(X, _)."), util::InvalidArgument);
  EXPECT_EQ(db.ProgramVersion(), 3u);
}

TEST(RuleChangeTest, SmallConeReusesComponentsOutsideIt) {
  // Two independent towers: the tc tower and the side chain.  Changing the
  // side chain must not re-stratify (or maintain) the tc tower.
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    tcc(X; count()) :- tc(X, _).
    side(X) :- tag(X).
    side2(X) :- side(X).
  )");
  for (int i = 0; i + 1 < 8; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Insert("tag", {Value::Int(7)});
  db.Materialize();

  const Database::EvolveResult result =
      db.EvolveAddRules("side3(X) :- tag(X), side(X).");
  // Cone = {side3} only: side/side2 have no edge FROM side3, and the tc
  // tower is untouched entirely.
  EXPECT_EQ(result.stats.cone_predicates, 1u);
  EXPECT_EQ(result.stats.cone_components, 1u);
  EXPECT_GE(result.stats.reused_components, 6u);  // e, tc, tcc, tag, side, side2
  EXPECT_TRUE(db.Contains("side3", {Value::Int(7)}));
  EXPECT_EQ(db.Query("tc").size(), 28u);
}

TEST(RuleChangeTest, RestratifyMatchesFullStratify) {
  // The incremental re-stratification must induce the same component
  // partition, per-predicate strata, and recursion flags as a from-scratch
  // Stratify of the final program — component NUMBERING may differ.
  const char* old_text = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    hasout(X) :- e(X, _).
    deadend(X) :- n(X), !hasout(X).
    side(X) :- tag(X).
  )";
  Program old_program = ParseProgram(old_text);
  ValidateProgram(old_program);
  const Stratification old_strat = Stratify(old_program);

  Program next = old_program;
  ExtendProgram(next, R"(
    reach(X) :- side(X).
    reach(Y) :- reach(X), e(X, Y).
    side(X) :- reach(X), deadend(X).
  )");
  ValidateProgram(next);
  std::vector<std::uint32_t> changed_heads;
  for (std::size_t r = old_program.rules.size(); r < next.rules.size(); ++r) {
    changed_heads.push_back(next.rules[r].head.predicate);
  }
  std::vector<bool> affected;
  RestratifyStats stats;
  const Stratification incremental = RestratifyAffected(
      next, old_strat, old_program.NumPredicates(), changed_heads, &affected,
      &stats);
  const Stratification scratch = Stratify(next);

  ASSERT_EQ(incremental.component_of.size(), scratch.component_of.size());
  // Same partition: predicates share an incremental component iff they
  // share a scratch component.
  const std::size_t n = next.NumPredicates();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      EXPECT_EQ(incremental.component_of[a] == incremental.component_of[b],
                scratch.component_of[a] == scratch.component_of[b])
          << "predicates " << a << " and " << b;
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(incremental.component_stratum[incremental.component_of[p]],
              scratch.component_stratum[scratch.component_of[p]])
        << "stratum of predicate " << p;
    EXPECT_EQ(incremental.component_recursive[incremental.component_of[p]],
              scratch.component_recursive[scratch.component_of[p]])
        << "recursion flag of predicate " << p;
  }
  // The new side -> reach -> side cycle merges them into one recursive
  // component; side was an OLD predicate whose derivations change, so the
  // cone must have swallowed the whole new SCC.
  const std::uint32_t side = next.PredicateId("side");
  const std::uint32_t reach = next.PredicateId("reach");
  EXPECT_EQ(incremental.component_of[side], incremental.component_of[reach]);
  EXPECT_TRUE(affected[side]);
  EXPECT_TRUE(affected[reach]);
  EXPECT_GT(stats.reused_components, 0u);
}

}  // namespace
}  // namespace dsched::datalog
