// Maintenance-strategy tests (datalog/maintenance.hpp): DRed and
// Backward/Forward must produce bit-identical stores on any update
// sequence — serial or parallel, any shard count, any scheduler.  The
// parallel cases run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datalog/database.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/parallel_update.hpp"
#include "runtime/task_router.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::datalog {
namespace {

using dsched::testing::ExpectStoresEqual;
using dsched::testing::RandomUpdate;
using dsched::testing::Sorted;
using dsched::testing::WideFixture;

TEST(MaintStrategyTest, ParseRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(ParseMaintenanceStrategy("dred"), MaintenanceStrategy::kDRed);
  EXPECT_EQ(ParseMaintenanceStrategy("bf"),
            MaintenanceStrategy::kBackwardForward);
  for (const std::string& name : KnownMaintenanceStrategies()) {
    EXPECT_EQ(MaintenanceStrategyName(ParseMaintenanceStrategy(name)), name);
  }
  EXPECT_EQ(KnownMaintenanceStrategies(),
            (std::vector<std::string>{"dred", "bf"}));
  try {
    (void)ParseMaintenanceStrategy("drde");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    // The rejection must name every valid value.
    EXPECT_NE(what.find("drde"), std::string::npos) << what;
    for (const std::string& name : KnownMaintenanceStrategies()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence: B/F lands on the same store as DRed, batch after batch, on
// the wide program (recursion, negation, fan-out — B/F runs everywhere but
// aggregates).

TEST(MaintEquivalenceTest, SerialRandomizedInterleavedInsertDelete) {
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    WideFixture dred;
    WideFixture bf;
    {
      util::Rng rng(seed);
      dred.Base(rng, 14, 0.12);
    }
    {
      util::Rng rng(seed);
      bf.Base(rng, 14, 0.12);
    }
    util::Rng update_rng(seed * 977 + 1);
    for (int batch = 0; batch < 24; ++batch) {
      const UpdateRequest request =
          RandomUpdate(dred.program, update_rng, 14);
      const GroupedBaseChanges base(dred.program, request);
      (void)PropagateUpdateWithStrategy(dred.program, dred.strat, dred.store,
                                        base, MaintenanceStrategy::kDRed);
      (void)PropagateUpdateWithStrategy(bf.program, bf.strat, bf.store, base,
                                        MaintenanceStrategy::kBackwardForward);
      ExpectStoresEqual(dred.program, dred.store, bf.store, "bf vs dred");
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " batch " << batch;
      }
    }
  }
}

TEST(MaintEquivalenceTest, ParallelAcrossShardCountsAndSchedulers) {
  const std::uint64_t seed = 321;
  // Serial DRed is the reference.
  WideFixture reference;
  {
    util::Rng rng(seed);
    reference.Base(rng, 12, 0.15);
  }
  std::vector<UpdateRequest> batches;
  {
    util::Rng rng(seed + 7);
    for (int i = 0; i < 10; ++i) {
      batches.push_back(RandomUpdate(reference.program, rng, 12));
    }
  }
  for (const UpdateRequest& request : batches) {
    const GroupedBaseChanges base(reference.program, request);
    (void)PropagateUpdateWithStrategy(reference.program, reference.strat,
                                      reference.store, base,
                                      MaintenanceStrategy::kDRed);
  }

  runtime::TaskRouter router({.workers = 4});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const char* scheduler : {"hybrid", "levelbased"}) {
      WideFixture fixture;
      fixture.store = RelationStore(fixture.program, shards);
      {
        util::Rng rng(seed);
        fixture.Base(rng, 12, 0.15);
      }
      for (const UpdateRequest& request : batches) {
        (void)ApplyParallel(
            *fixture.compiled, fixture.store, request, router,
            {.scheduler_spec = scheduler,
             .strategy = MaintenanceStrategy::kBackwardForward});
      }
      ExpectStoresEqual(reference.program, reference.store, fixture.store,
                        (std::string("bf/") + scheduler + "/" +
                         std::to_string(shards) + " shards")
                            .c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy-specific behaviour.

constexpr const char* kRedundantProgram = R"(
  mid(X) :- base1(X).
  mid(X) :- base2(X).
  out(X) :- mid(X).
)";

TEST(MaintBackwardForwardTest, RedundantSupportDeletionAvoidsOverdeletion) {
  Database dred(kRedundantProgram);
  Database bf(kRedundantProgram);
  bf.SetDefaultStrategy(MaintenanceStrategy::kBackwardForward);
  for (Database* db : {&dred, &bf}) {
    for (std::int64_t i = 0; i < 32; ++i) {
      db->Insert("base1", {Value::Int(i)});
      db->Insert("base2", {Value::Int(i)});
    }
    db->Materialize();
  }
  // Deleting base1 leaves every mid/out tuple supported by base2: DRed
  // overdeletes and rederives the whole chain; B/F proves each mid tuple
  // alive with one probe.
  auto make_update = [](Database& db) {
    Database::Update update = db.MakeUpdate();
    for (std::int64_t i = 0; i < 32; ++i) {
      update.Delete("base1", {Value::Int(i)});
    }
    return update;
  };
  const UpdateResult dred_result = dred.Apply(make_update(dred));
  const UpdateResult bf_result = bf.Apply(make_update(bf));

  for (const char* pred : {"base1", "base2", "mid", "out"}) {
    EXPECT_EQ(Sorted(dred.Query(pred)), Sorted(bf.Query(pred))) << pred;
  }
  EXPECT_EQ(bf.Query("mid").size(), 32u);
  EXPECT_EQ(bf.Query("out").size(), 32u);

  std::size_t avoided = 0;
  std::size_t probes = 0;
  for (const ComponentUpdateStats& c : bf_result.components) {
    avoided += c.maint_avoided;
    probes += c.maint_backward_probes;
  }
  EXPECT_EQ(avoided, 32u);  // every mid tuple kept its other support
  EXPECT_GT(probes, 0u);
  // DRed erased+rederived mid AND cascaded into out; B/F erased nothing
  // (no net delta, downstream never activated).
  EXPECT_GT(dred_result.total_maint_ops, 2 * bf_result.total_maint_ops);
}

constexpr const char* kCycleProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
)";

TEST(MaintBackwardForwardTest, CyclicDerivationsResolvedByProbes) {
  // A cycle plus a chord: deleting the chord must not kill tuples whose
  // remaining derivations are cyclic-but-grounded, and B/F must prove the
  // genuinely dead ones dead through the in-stack protocol.
  Database dred(kCycleProgram);
  Database bf(kCycleProgram);
  bf.SetDefaultStrategy(MaintenanceStrategy::kBackwardForward);
  for (Database* db : {&dred, &bf}) {
    for (const auto& [a, b] : std::vector<std::pair<int, int>>{
             {0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {1, 4}}) {
      db->Insert("e", {Value::Int(a), Value::Int(b)});
    }
    db->Materialize();
  }
  auto make_update = [](Database& db) {
    Database::Update update = db.MakeUpdate();
    update.Delete("e", {Value::Int(2), Value::Int(0)});  // break the cycle
    update.Delete("e", {Value::Int(0), Value::Int(3)});
    return update;
  };
  const UpdateResult dred_result = dred.Apply(make_update(dred));
  const UpdateResult bf_result = bf.Apply(make_update(bf));
  EXPECT_EQ(Sorted(dred.Query("tc")), Sorted(bf.Query("tc")));
  EXPECT_EQ(dred_result.total_deleted, bf_result.total_deleted);
  std::size_t probes = 0;
  for (const ComponentUpdateStats& c : bf_result.components) {
    probes += c.maint_backward_probes;
  }
  EXPECT_GT(probes, 0u);
}

// B/F's prober re-enters a rule while that rule's probe is still
// enumerating: the nonlinear closure recurses into tc from both body
// literals, and the mutual pair alternates between two members.  Each
// nested check needs its own planned instance of the rule; reusing the
// running one would rebind a live join.  The per-seed probe totals are the
// counts the one-join-per-query engine recorded on these streams: the
// plan-once prober must ask exactly the same aliveness questions.
struct ReentrantCase {
  const char* name;
  const char* program;
  std::uint64_t seed;
  std::size_t probes;
};

constexpr const char* kNonlinearTc = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), tc(Y, Z).
)";
constexpr const char* kMutualPair = R"(
  p(X, Y) :- e(X, Y).
  p(X, Z) :- q(X, Y), e(Y, Z).
  q(X, Y) :- p(X, Y), !cut(Y).
)";

TEST(MaintBackwardForwardTest, ReentrantProbesMatchDRedAndFromScratch) {
  constexpr std::size_t kNodes = 8;
  constexpr int kBatches = 24;
  const ReentrantCase cases[] = {
      {"nonlinear_tc", kNonlinearTc, 1, 5123},
      {"nonlinear_tc", kNonlinearTc, 2, 8184},
      {"mutual_pair", kMutualPair, 1, 469},
      {"mutual_pair", kMutualPair, 2, 354},
  };
  const auto node = [](std::size_t i) {
    return Value::Int(static_cast<std::int64_t>(i));
  };
  for (const ReentrantCase& c : cases) {
    SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(c.seed));
    util::Rng rng(c.seed);
    Database dred(c.program);
    Database bf(c.program);
    bf.SetDefaultStrategy(MaintenanceStrategy::kBackwardForward);
    const auto& names = dred.GetProgram().predicate_names;
    const bool has_cut =
        std::find(names.begin(), names.end(), "cut") != names.end();
    std::vector<std::vector<bool>> e_fact(kNodes,
                                          std::vector<bool>(kNodes, false));
    std::vector<bool> cut_fact(kNodes, false);
    for (std::size_t a = 0; a < kNodes; ++a) {
      for (std::size_t b = 0; b < kNodes; ++b) {
        e_fact[a][b] = a != b && rng.NextBool(0.22);
      }
    }
    const auto load_base = [&](Database& db) {
      for (std::size_t a = 0; a < kNodes; ++a) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          if (e_fact[a][b]) {
            db.Insert("e", {node(a), node(b)});
          }
        }
        if (has_cut && cut_fact[a]) {
          db.Insert("cut", {node(a)});
        }
      }
    };
    load_base(dred);
    load_base(bf);
    dred.Materialize();
    bf.Materialize();

    std::size_t probes = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      // Mostly deletions of live edges, so cyclic clusters lose support.
      // Each edge changes at most once per batch.
      UpdateRequest request;
      const std::uint32_t e = dred.GetProgram().PredicateId("e");
      std::vector<std::pair<std::size_t, std::size_t>> touched;
      for (int op = 0; op < 4; ++op) {
        const std::size_t a = rng.NextBelow(kNodes);
        const std::size_t b = rng.NextBelow(kNodes);
        if (a == b || std::find(touched.begin(), touched.end(),
                                std::make_pair(a, b)) != touched.end()) {
          continue;
        }
        touched.emplace_back(a, b);
        const Tuple row{node(a), node(b)};
        if (e_fact[a][b]) {
          request.deletions.emplace_back(e, row);
          e_fact[a][b] = false;
        } else if (rng.NextBool(0.3)) {
          request.insertions.emplace_back(e, row);
          e_fact[a][b] = true;
        }
      }
      if (has_cut) {
        const std::uint32_t cut = dred.GetProgram().PredicateId("cut");
        const std::size_t t = rng.NextBelow(kNodes);
        (cut_fact[t] ? request.deletions : request.insertions)
            .emplace_back(cut, Tuple{node(t)});
        cut_fact[t] = !cut_fact[t];
      }
      (void)dred.ApplyRequest(request);
      for (const ComponentUpdateStats& stats :
           bf.ApplyRequest(request).components) {
        probes += stats.maint_backward_probes;
      }

      Database scratch(c.program);
      load_base(scratch);
      scratch.Materialize();
      const Program& program = dred.GetProgram();
      for (std::uint32_t p = 0; p < program.NumPredicates(); ++p) {
        const std::string& name = program.predicate_names[p];
        EXPECT_EQ(Sorted(bf.Query(name)), Sorted(dred.Query(name)))
            << name << " after batch " << batch;
        EXPECT_EQ(Sorted(bf.Query(name)), Sorted(scratch.Query(name)))
            << name << " after batch " << batch;
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    EXPECT_EQ(probes, c.probes);
  }
}

// ---------------------------------------------------------------------------
// Rule-set evolution vs rebuild: a random interleaving of rule additions,
// rule removals, and base updates must leave every strategy's store equal
// to a from-scratch Database over the final rule set + base facts — the
// evolution acceptance bar, swept per strategy.

TEST(MaintEvolveTest, RandomizedEvolveMatchesRebuildAcrossStrategies) {
  const char* kBaseProgram = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    side(X) :- tag(X).
  )";
  const std::vector<std::string> kPool = {
      "side2(X) :- side(X).",
      "out(X) :- tc(X, _), tag(X).",
      "sym(Y, X) :- tc(X, Y).",
      "hub(X) :- e(X, X).",
      "side(X) :- hub(X).",
  };
  constexpr int kNodes = 10;

  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward}) {
    for (const std::uint64_t seed : {5u, 19u, 83u}) {
      util::Rng rng(seed * 131 + static_cast<std::uint64_t>(strategy));
      Database db(kBaseProgram);
      db.SetDefaultStrategy(strategy);

      // Base facts tracked alongside the database so the rebuild reference
      // can be constructed at any point.
      std::vector<std::vector<bool>> e_fact(
          kNodes, std::vector<bool>(kNodes, false));
      std::vector<bool> tag_fact(kNodes, false);
      for (std::size_t a = 0; a < kNodes; ++a) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          if (rng.NextBool(0.2)) {
            e_fact[a][b] = true;
            db.Insert("e", {Value::Int(static_cast<std::int64_t>(a)),
                            Value::Int(static_cast<std::int64_t>(b))});
          }
        }
        if (rng.NextBool(0.3)) {
          tag_fact[a] = true;
          db.Insert("tag", {Value::Int(static_cast<std::int64_t>(a))});
        }
      }
      db.Materialize();

      std::vector<std::string> active;  // pool rules currently in force
      std::uint64_t last_version = db.ProgramVersion();

      const auto rebuild_and_compare = [&](int step) {
        std::string text = kBaseProgram;
        for (const std::string& rule : active) {
          text += "\n" + rule;
        }
        Database fresh(text);
        for (std::size_t a = 0; a < kNodes; ++a) {
          for (std::size_t b = 0; b < kNodes; ++b) {
            if (e_fact[a][b]) {
              fresh.Insert("e", {Value::Int(static_cast<std::int64_t>(a)),
                                 Value::Int(static_cast<std::int64_t>(b))});
            }
          }
          if (tag_fact[a]) {
            fresh.Insert("tag", {Value::Int(static_cast<std::int64_t>(a))});
          }
        }
        fresh.Materialize();
        // Compare every predicate the EVOLVED database ever knew; ones the
        // rebuild never heard of (rule removed again) must be empty.
        const auto snap = db.Snapshot();
        for (const std::string& name : snap->program.predicate_names) {
          std::vector<Tuple> fresh_rows;
          try {
            fresh_rows = fresh.Query(name);
          } catch (const util::InvalidArgument&) {
          }
          EXPECT_EQ(Sorted(db.Query(name)), Sorted(fresh_rows))
              << MaintenanceStrategyName(strategy) << " seed " << seed
              << " step " << step << " predicate " << name;
        }
      };

      for (int step = 0; step < 16; ++step) {
        const std::uint64_t action = rng.NextBelow(4);
        if (action == 0 && active.size() < kPool.size()) {
          // Add the next pool rule not yet active (order preserves the
          // hub-before-side dependency being introduced both ways).
          std::vector<std::string> unused;
          for (const std::string& rule : kPool) {
            if (std::find(active.begin(), active.end(), rule) ==
                active.end()) {
              unused.push_back(rule);
            }
          }
          const std::string& rule =
              unused[rng.NextBelow(unused.size())];
          const Database::EvolveResult result = db.EvolveAddRules(rule);
          EXPECT_GT(result.program_version, last_version);
          last_version = result.program_version;
          active.push_back(rule);
          rebuild_and_compare(step);
        } else if (action == 1 && !active.empty()) {
          const std::size_t victim = rng.NextBelow(active.size());
          const Database::EvolveResult result =
              db.EvolveRemoveRule(active[victim]);
          EXPECT_GT(result.program_version, last_version);
          last_version = result.program_version;
          active.erase(active.begin() +
                       static_cast<std::ptrdiff_t>(victim));
          rebuild_and_compare(step);
        } else {
          // A base update through the strategy under test.
          Database::Update update = db.MakeUpdate();
          // Distinct cells per batch: one tuple in both the insert and the
          // delete list of a single request is outside the contract.
          std::vector<std::size_t> flipped;
          for (int flips = 0; flips < 4; ++flips) {
            const std::size_t a = rng.NextBelow(kNodes);
            const std::size_t b = rng.NextBelow(kNodes);
            if (std::find(flipped.begin(), flipped.end(), a * kNodes + b) !=
                flipped.end()) {
              continue;
            }
            flipped.push_back(a * kNodes + b);
            const Tuple row{Value::Int(static_cast<std::int64_t>(a)),
                            Value::Int(static_cast<std::int64_t>(b))};
            if (e_fact[a][b]) {
              update.Delete("e", row);
            } else {
              update.Insert("e", row);
            }
            e_fact[a][b] = !e_fact[a][b];
          }
          const std::size_t t = rng.NextBelow(kNodes);
          const Tuple trow{Value::Int(static_cast<std::int64_t>(t))};
          if (tag_fact[t]) {
            update.Delete("tag", trow);
          } else {
            update.Insert("tag", trow);
          }
          tag_fact[t] = !tag_fact[t];
          (void)db.Apply(update);
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "diverged: strategy "
                 << MaintenanceStrategyName(strategy) << " seed " << seed
                 << " step " << step;
        }
      }
      rebuild_and_compare(99);
    }
  }
}

}  // namespace
}  // namespace dsched::datalog
