// Incremental maintenance tests: every update must leave the store exactly
// equal to a from-scratch evaluation of the updated base — insertions,
// deletions (DRed with rederivation), negation in both directions — plus
// the scheduling trace each parallel apply records.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/incremental.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "graph/levels.hpp"
#include "runtime/task_router.hpp"
#include "sched/factory.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "trace/cascade.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::datalog {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Checks that `incremental` equals a from-scratch evaluation where the
/// base facts of `reference_base` are inserted into a fresh store.
void ExpectEqualsFromScratch(
    const Program& program, const Stratification& strat,
    const RelationStore& incremental,
    const std::vector<std::pair<std::uint32_t, Tuple>>& reference_base) {
  RelationStore fresh(program);
  for (const auto& [pred, tuple] : reference_base) {
    fresh.Of(pred).Insert(tuple);
  }
  EvaluateProgram(program, strat, fresh);
  for (std::uint32_t pred = 0; pred < program.NumPredicates(); ++pred) {
    EXPECT_EQ(Sorted(incremental.Of(pred).Tuples()),
              Sorted(fresh.Of(pred).Tuples()))
        << "predicate " << program.predicate_names[pred];
  }
}

TEST(IncrementalTest, InsertionExtendsClosure) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 3u);

  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(2), Value::Int(3)});
  const UpdateResult result = db.Apply(update);
  EXPECT_EQ(db.Query("tc").size(), 6u);
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(3)}));
  EXPECT_EQ(result.total_inserted, 4u);  // e tuple + 3 tc tuples
  EXPECT_EQ(result.total_deleted, 0u);
}

TEST(IncrementalTest, DeletionShrinksClosure) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  for (int i = 0; i < 4; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 10u);

  auto update = db.MakeUpdate();
  update.Delete("e", {Value::Int(2), Value::Int(3)});
  const UpdateResult result = db.Apply(update);
  // Chain splits: {0,1,2} and {3,4}: 3 + 1 pairs remain.
  EXPECT_EQ(db.Query("tc").size(), 4u);
  EXPECT_FALSE(db.Contains("tc", {Value::Int(0), Value::Int(3)}));
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(2)}));
  EXPECT_GT(result.total_deleted, 0u);
}

TEST(IncrementalTest, DeletionWithRederivation) {
  // Two parallel paths a->b: deleting one edge keeps tc(a, b) derivable.
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {db.Sym("a"), db.Sym("b")});
  db.Insert("e", {db.Sym("a"), db.Sym("m")});
  db.Insert("e", {db.Sym("m"), db.Sym("b")});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Delete("e", {db.Sym("a"), db.Sym("b")});
  const UpdateResult result = db.Apply(update);
  EXPECT_TRUE(db.Contains("tc", {db.Sym("a"), db.Sym("b")}));  // rederived
  bool any_rederived = false;
  for (const auto& c : result.components) {
    any_rederived |= c.tuples_rederived > 0;
  }
  EXPECT_TRUE(any_rederived);
}

TEST(IncrementalTest, InsertionIntoNegatedPredicateDestroys) {
  Database db(R"(
    ok(X) :- cand(X), !bad(X).
  )");
  db.Insert("cand", {Value::Int(1)});
  db.Insert("cand", {Value::Int(2)});
  db.Materialize();
  EXPECT_EQ(db.Query("ok").size(), 2u);

  auto update = db.MakeUpdate();
  update.Insert("bad", {Value::Int(1)});
  db.Apply(update);
  EXPECT_EQ(db.Query("ok").size(), 1u);
  EXPECT_FALSE(db.Contains("ok", {Value::Int(1)}));
}

TEST(IncrementalTest, DeletionFromNegatedPredicateCreates) {
  Database db(R"(
    ok(X) :- cand(X), !bad(X).
  )");
  db.Insert("cand", {Value::Int(1)});
  db.Insert("bad", {Value::Int(1)});
  db.Materialize();
  EXPECT_TRUE(db.Query("ok").empty());

  auto update = db.MakeUpdate();
  update.Delete("bad", {Value::Int(1)});
  db.Apply(update);
  EXPECT_TRUE(db.Contains("ok", {Value::Int(1)}));
}

TEST(IncrementalTest, NegationCascadesThroughRecursion) {
  // Deleting an edge disconnects nodes; unreach must grow accordingly.
  Database db(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    unreach(X) :- node(X), !reach(X).
  )");
  for (int i = 0; i < 4; ++i) {
    db.Insert("node", {Value::Int(i)});
  }
  db.Insert("start", {Value::Int(0)});
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Insert("e", {Value::Int(2), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("unreach").size(), 0u);

  auto update = db.MakeUpdate();
  update.Delete("e", {Value::Int(1), Value::Int(2)});
  db.Apply(update);
  EXPECT_EQ(db.Query("unreach").size(), 2u);  // 2 and 3
  EXPECT_TRUE(db.Contains("unreach", {Value::Int(3)}));
}

TEST(IncrementalTest, NoOpUpdateChangesNothing) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(0), Value::Int(1)});   // already present
  update.Delete("e", {Value::Int(7), Value::Int(8)});   // absent
  const UpdateResult result = db.Apply(update);
  EXPECT_EQ(result.total_inserted, 0u);
  EXPECT_EQ(result.total_deleted, 0u);
  for (const auto& c : result.components) {
    EXPECT_FALSE(c.output_changed);
  }
}

TEST(IncrementalTest, RandomizedEquivalenceWithFromScratch) {
  // The definitive property: random base + random update batches, compared
  // against a fresh evaluation after every batch.
  const char* program_text = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    hasout(X) :- e(X, _).
    deadend(X) :- n(X), !hasout(X).
    far(X, Z) :- tc(X, Y), tc(Y, Z), X != Z.
  )";
  util::Rng rng(31415);
  for (int trial = 0; trial < 4; ++trial) {
    const Program program = ParseProgram(program_text);
    ValidateProgram(program);
    const Stratification strat = Stratify(program);
    RelationStore store(program);
    const auto e = program.PredicateId("e");
    const auto n_pred = program.PredicateId("n");

    // Base: n(0..9), random edges.
    std::vector<std::pair<std::uint32_t, Tuple>> base;
    for (int i = 0; i < 10; ++i) {
      base.emplace_back(n_pred, Tuple{Value::Int(i)});
    }
    std::set<std::pair<int, int>> edges;
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) {
        if (i != j && rng.NextBool(0.15)) {
          edges.emplace(i, j);
        }
      }
    }
    for (const auto& [i, j] : edges) {
      base.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
    }
    for (const auto& [pred, tuple] : base) {
      store.Of(pred).Insert(tuple);
    }
    EvaluateProgram(program, strat, store);

    for (int batch = 0; batch < 5; ++batch) {
      UpdateRequest request;
      // Random deletions of existing edges and insertions of fresh ones.
      for (auto it = edges.begin(); it != edges.end();) {
        if (rng.NextBool(0.2)) {
          request.deletions.emplace_back(
              e, Tuple{Value::Int(it->first), Value::Int(it->second)});
          it = edges.erase(it);
        } else {
          ++it;
        }
      }
      for (int tries = 0; tries < 6; ++tries) {
        const int i = static_cast<int>(rng.NextBelow(10));
        const int j = static_cast<int>(rng.NextBelow(10));
        if (i != j && edges.emplace(i, j).second) {
          request.insertions.emplace_back(e,
                                          Tuple{Value::Int(i), Value::Int(j)});
        }
      }
      (void)testing::SerialUpdate(program, strat, store, request);

      std::vector<std::pair<std::uint32_t, Tuple>> current_base;
      for (int i = 0; i < 10; ++i) {
        current_base.emplace_back(n_pred, Tuple{Value::Int(i)});
      }
      for (const auto& [i, j] : edges) {
        current_base.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
      }
      ExpectEqualsFromScratch(program, strat, store, current_base);
    }
  }
}

// --- The recorded trace: every ApplyRequestParallel run records its
// cascade over the program version's activation graph.

/// One 4-worker router shared by every parallel apply in this file.
runtime::TaskRouter& SharedRouter() {
  static runtime::TaskRouter router({.workers = 4});
  return router;
}

TEST(RecordedTraceTest, TraceMirrorsUpdateCascade) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    pairs(X, Z) :- tc(X, Y), tc(Y, Z).
    quiet(X) :- other(X).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("other", {Value::Int(9)});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(1), Value::Int(2)});
  const ParallelUpdateResult result =
      db.ApplyRequestParallel(update.Request(), SharedRouter(), {});
  const trace::JobTrace& trace = result.trace;
  const Program& program = db.GetProgram();
  const ActivationGraph& graph = db.Snapshot()->graph;
  // Nodes: one collector per predicate (node id = predicate id) + one per
  // rule component.
  EXPECT_EQ(trace.NumNodes(),
            program.NumPredicates() + 3u /* tc, pairs, quiet components */);
  // Dirty: the 'e' collector (base predicate, no rules).
  ASSERT_EQ(trace.InitialDirty().size(), 1u);
  EXPECT_EQ(trace.InitialDirty()[0], program.PredicateId("e"));

  // Cascade: e → tc-task → tc → pairs-task → pairs all activate; the
  // 'quiet' chain must stay inactive.
  const trace::Cascade cascade = trace::ComputeCascade(trace);
  const auto tc_pred = program.PredicateId("tc");
  const auto pairs_pred = program.PredicateId("pairs");
  const auto quiet_pred = program.PredicateId("quiet");
  EXPECT_TRUE(cascade.active[tc_pred]);
  EXPECT_TRUE(cascade.active[pairs_pred]);
  EXPECT_FALSE(cascade.active[quiet_pred]);
  const Stratification& strat = db.GetStratification();
  EXPECT_FALSE(
      cascade.active[graph.component_node[strat.component_of[quiet_pred]]]);
  // The trace replays the live run: the executor ran exactly the nodes the
  // recorded change bits activate.
  EXPECT_EQ(result.run.executed, cascade.NumActive());
  // Measured work on the ran component task, none on collectors.
  const util::TaskId tc_task =
      graph.component_node[strat.component_of[tc_pred]];
  EXPECT_GE(trace.Info(tc_task).work, 1e-6);
  EXPECT_EQ(trace.Info(tc_task).span, trace.Info(tc_task).work);
  EXPECT_EQ(trace.Info(tc_pred).work, 0.0);

  // And the trace is schedulable end to end.
  auto scheduler = sched::CreateScheduler("hybrid");
  sim::SimConfig config;
  config.processors = 2;
  config.record_schedule = true;
  const sim::SimResult sim_result = Simulate(trace, *scheduler, config);
  EXPECT_TRUE(sim::AuditSchedule(trace, sim_result).valid);
  EXPECT_EQ(sim_result.tasks_executed, cascade.NumActive());
}

TEST(RecordedTraceTest, UnchangedComponentDoesNotPropagate) {
  // Touch only `other`: the quiet chain activates, tc stays inactive.
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    quiet(X) :- other(X).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("other", {Value::Int(1)});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Insert("other", {Value::Int(2)});
  const ParallelUpdateResult result =
      db.ApplyRequestParallel(update.Request(), SharedRouter(), {});
  const trace::Cascade cascade = trace::ComputeCascade(result.trace);
  EXPECT_FALSE(cascade.active[db.GetProgram().PredicateId("tc")]);
  EXPECT_TRUE(cascade.active[db.GetProgram().PredicateId("quiet")]);
}

TEST(RecordedTraceTest, TaskChangeBitsMatchSerialApply) {
  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward}) {
    SCOPED_TRACE(MaintenanceStrategyName(strategy));
    Database serial(testing::kWideProgram);
    Database parallel(testing::kWideProgram);
    for (Database* db : {&serial, &parallel}) {
      util::Rng rng(2024);
      for (int i = 0; i < 9; ++i) {
        db->Insert("n", {Value::Int(i)});
        for (int j = 0; j < 9; ++j) {
          if (i != j && rng.NextBool(0.2)) {
            db->Insert("e", {Value::Int(i), Value::Int(j)});
          }
        }
      }
      db->Materialize();
    }
    const ActivationGraph& graph = parallel.Snapshot()->graph;
    const Stratification& strat = parallel.GetStratification();
    util::Rng update_rng(99);
    std::size_t changed_tasks = 0;
    for (int batch = 0; batch < 12; ++batch) {
      const UpdateRequest request =
          testing::RandomUpdate(serial.GetProgram(), update_rng, 9);
      const UpdateResult expected = serial.ApplyRequest(request, strategy);
      const ParallelUpdateResult got = parallel.ApplyRequestParallel(
          request, SharedRouter(), {.strategy = strategy});
      ASSERT_EQ(expected.components.size(), strat.NumComponents());
      for (const ComponentUpdateStats& cs : expected.components) {
        const util::TaskId task = graph.component_node[cs.component];
        if (task != util::kInvalidTask) {
          EXPECT_EQ(got.trace.Info(task).output_changes, cs.output_changed)
              << "batch " << batch << " component " << cs.component;
          changed_tasks += cs.output_changed ? 1 : 0;
        }
        // A predicate's collector forwards a change only if its component
        // changed.
        for (const std::uint32_t p : strat.component_members[cs.component]) {
          if (got.trace.Info(p).output_changes) {
            EXPECT_TRUE(cs.output_changed)
                << "batch " << batch << " predicate " << p;
          }
        }
      }
    }
    EXPECT_GT(changed_tasks, 0u);
  }
}

TEST(RecordedTraceTest, UpdatesShareTheVersionGraphUntilRulesEvolve) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Materialize();
  const auto apply_edge = [&](int from, int to) {
    auto update = db.MakeUpdate();
    update.Insert("e", {Value::Int(from), Value::Int(to)});
    return db.ApplyRequestParallel(update.Request(), SharedRouter(), {});
  };

  const ParallelUpdateResult first = apply_edge(1, 2);
  const ParallelUpdateResult second = apply_edge(2, 3);
  EXPECT_EQ(&first.trace.Graph(), &second.trace.Graph());
  EXPECT_EQ(&first.trace.Graph(), db.Snapshot()->graph.dag.get());
  const std::size_t nodes_before = first.trace.NumNodes();

  // A new predicate and a new rule component: two more nodes.
  (void)db.EvolveAddRules("src(X) :- tc(X, _).");
  const ParallelUpdateResult third = apply_edge(3, 4);
  EXPECT_NE(&third.trace.Graph(), &first.trace.Graph());
  EXPECT_EQ(third.trace.NumNodes(), nodes_before + 2);
  EXPECT_EQ(&third.trace.Graph(), db.Snapshot()->graph.dag.get());
  // The older traces still hold their own version's graph.
  EXPECT_EQ(first.trace.NumNodes(), nodes_before);
}

// --- Same-batch contract and the copy-free insertion pipeline.

constexpr MaintenanceStrategy kStrategies[] = {
    MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward};

/// Applies `request` serially (workers == 0) or through ApplyParallel on
/// one 4-worker router shared by every call.
UpdateResult ApplyWith(Database& db, const UpdateRequest& request,
                       MaintenanceStrategy strategy, std::size_t workers) {
  if (workers == 0) {
    return db.ApplyRequest(request, strategy);
  }
  EXPECT_EQ(workers, SharedRouter().NumWorkers());
  return db.ApplyRequestParallel(request, SharedRouter(),
                                 {.strategy = strategy})
      .update;
}

std::vector<Tuple> Ints(std::initializer_list<int> values) {
  std::vector<Tuple> rows;
  for (const int v : values) {
    rows.push_back({Value::Int(v)});
  }
  return rows;
}

std::vector<Tuple> Pairs(std::initializer_list<std::pair<int, int>> values) {
  std::vector<Tuple> rows;
  for (const auto& [a, b] : values) {
    rows.push_back({Value::Int(a), Value::Int(b)});
  }
  return rows;
}

TEST(SameBatchContractTest, DeletionsApplyBeforeInsertions) {
  // b(1) is present and b(2) absent; the batch lists both tuples as
  // insertions AND deletions.  Deletions apply first, so both end present.
  constexpr const char* kProgram = "d(X) :- b(X).";
  for (const MaintenanceStrategy strategy : kStrategies) {
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(MaintenanceStrategyName(strategy)) + " w" +
                   std::to_string(workers));
      Database db(kProgram);
      db.Insert("b", {Value::Int(1)});
      db.Materialize();
      auto update = db.MakeUpdate();
      update.Insert("b", {Value::Int(1)}).Insert("b", {Value::Int(2)});
      update.Delete("b", {Value::Int(1)}).Delete("b", {Value::Int(2)});
      const UpdateResult result =
          ApplyWith(db, update.Request(), strategy, workers);
      EXPECT_EQ(Sorted(db.Query("b")), Ints({1, 2}));
      EXPECT_EQ(Sorted(db.Query("d")), Ints({1, 2}));
      // b(1) and d(1) were deleted and re-added: no net change.
      EXPECT_EQ(result.total_inserted, 2u);  // b(2), d(2)
      EXPECT_EQ(result.total_deleted, 0u);
    }
  }
  // The same rule through pipelined sessions (K = 4), several contract
  // batches in flight at once.
  service::EngineHost host({.workers = 4});
  for (const MaintenanceStrategy strategy : kStrategies) {
    SCOPED_TRACE(MaintenanceStrategyName(strategy));
    auto session = host.OpenSession(
        kProgram, {.maintenance_strategy = MaintenanceStrategyName(strategy),
                   .pipeline_depth = 4});
    session->Insert("b", {Value::Int(1)});
    session->Materialize();
    std::vector<std::future<service::UpdateOutcome>> futures;
    for (const int pair : {1, 3, 5}) {
      auto update = session->MakeUpdate();
      update.Insert("b", {Value::Int(pair)})
          .Insert("b", {Value::Int(pair + 1)});
      update.Delete("b", {Value::Int(pair)})
          .Delete("b", {Value::Int(pair + 1)});
      futures.push_back(session->Submit(update));
    }
    for (auto& future : futures) {
      (void)future.get();
    }
    EXPECT_EQ(Sorted(session->Query("b")), Ints({1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(Sorted(session->Query("d")), Ints({1, 2, 3, 4, 5, 6}));
    session->Close();
  }
}

TEST(LeanPipelineTest, InsertOnlyLoadEqualsMaterialize) {
  // Load the wide program (recursion, negation, joins) from empty in
  // insert-only batches; the result must equal Materialize of the same
  // facts, tuple for tuple.
  util::Rng rng(9001);
  std::vector<std::pair<std::string, Tuple>> facts;
  constexpr int kNodes = 24;
  for (int i = 0; i < kNodes; ++i) {
    facts.emplace_back("n", Tuple{Value::Int(i)});
    if (rng.NextBool(0.3)) {
      facts.emplace_back("mark", Tuple{Value::Int(i)});
    }
    for (int j = 0; j < kNodes; ++j) {
      if (i != j && rng.NextBool(0.08)) {
        facts.emplace_back("e", Tuple{Value::Int(i), Value::Int(j)});
      }
    }
  }
  // Interleave the predicates so batches mix inputs of every component.
  for (std::size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng.NextBelow(i)]);
  }
  Database reference(testing::kWideProgram);
  for (const auto& [pred, tuple] : facts) {
    reference.Insert(pred, tuple);
  }
  reference.Materialize();

  for (const MaintenanceStrategy strategy : kStrategies) {
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(MaintenanceStrategyName(strategy)) + " w" +
                   std::to_string(workers));
      Database db(testing::kWideProgram);
      db.Materialize();
      std::size_t inserted = 0;
      std::size_t deleted = 0;
      for (std::size_t begin = 0; begin < facts.size(); begin += 17) {
        auto update = db.MakeUpdate();
        for (std::size_t i = begin; i < std::min(begin + 17, facts.size());
             ++i) {
          update.Insert(facts[i].first, facts[i].second);
        }
        const UpdateResult result =
            ApplyWith(db, update.Request(), strategy, workers);
        inserted += result.total_inserted;
        deleted += result.total_deleted;
      }
      testing::ExpectStoresEqual(db.GetProgram(), db.Store(),
                                 reference.Store(), "insert-only load");
      // Negation retracts some rows on the way (cold once hot, deadend
      // once hasout), so the net counts balance to the final size.
      EXPECT_EQ(inserted - deleted, reference.Store().TotalTuples());
    }
  }
}

TEST(LeanPipelineTest, ReAddedTupleIsInNeitherNetList) {
  // e(0,1) goes and e(0,3), e(3,1) arrive in one batch.  tc(0,1), tc(0,2),
  // revtc(1,0) and hasout(0) each lose their old support and are erased
  // (DRed) or probed (B/F), but other support brings each back — in DRed's
  // rederive step (hasout) or the forward phase (the closures).  None of
  // them is a net change.
  for (const MaintenanceStrategy strategy : kStrategies) {
    SCOPED_TRACE(MaintenanceStrategyName(strategy));
    testing::WideFixture f;
    const auto e = f.program.PredicateId("e");
    for (int i = 0; i < 4; ++i) {
      f.store.Of(f.program.PredicateId("n")).Insert({Value::Int(i)});
    }
    f.store.Of(e).Insert({Value::Int(0), Value::Int(1)});
    f.store.Of(e).Insert({Value::Int(1), Value::Int(2)});
    EvaluateProgram(f.program, f.strat, f.store);

    UpdateRequest request;
    request.deletions.emplace_back(e, Tuple{Value::Int(0), Value::Int(1)});
    request.insertions.emplace_back(e, Tuple{Value::Int(0), Value::Int(3)});
    request.insertions.emplace_back(e, Tuple{Value::Int(3), Value::Int(1)});
    const GroupedBaseChanges base(f.program, request);
    std::vector<PredicateDelta> net(f.program.NumPredicates());
    for (const std::uint32_t c : f.strat.component_order) {
      if (ComponentInputTouched(f.program, f.strat, c, base, net)) {
        (void)RunMaintenancePhase(strategy, f.program, f.strat, c, f.store,
                                  base, net);
      }
    }
    const auto expect_net = [&](const char* pred, std::vector<Tuple> inserted,
                                std::vector<Tuple> deleted) {
      const PredicateDelta& delta = net[f.program.PredicateId(pred)];
      EXPECT_EQ(Sorted(delta.inserted), Sorted(std::move(inserted))) << pred;
      EXPECT_EQ(Sorted(delta.deleted), Sorted(std::move(deleted))) << pred;
    };
    expect_net("tc", Pairs({{0, 3}, {3, 1}, {3, 2}}), {});
    expect_net("revtc", Pairs({{3, 0}, {1, 3}, {2, 3}}), {});
    expect_net("hasout", Ints({3}), {});
    expect_net("deadend", {}, Ints({3}));
    expect_net("e", Pairs({{0, 3}, {3, 1}}), Pairs({{0, 1}}));

    std::vector<std::pair<std::uint32_t, Tuple>> final_base;
    for (int i = 0; i < 4; ++i) {
      final_base.emplace_back(f.program.PredicateId("n"),
                              Tuple{Value::Int(i)});
    }
    for (const Tuple& t : Pairs({{1, 2}, {0, 3}, {3, 1}})) {
      final_base.emplace_back(e, t);
    }
    ExpectEqualsFromScratch(f.program, f.strat, f.store, final_base);
  }
}

TEST(LeanPipelineTest, UpdateTotalsMatchPinnedCounts) {
  // Mixed random churn on the wide program, including tuples a batch both
  // inserts and deletes.  The summed net counts are pinned: the copy-free
  // pipeline must report exactly what the copying one did.
  constexpr std::size_t kPinnedInserted = 441;
  constexpr std::size_t kPinnedDeleted = 241;
  for (const MaintenanceStrategy strategy : kStrategies) {
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(MaintenanceStrategyName(strategy)) + " w" +
                   std::to_string(workers));
      Database db(testing::kWideProgram);
      util::Rng rng(2718);
      constexpr int kNodes = 12;
      for (int i = 0; i < kNodes; ++i) {
        db.Insert("n", {Value::Int(i)});
        if (rng.NextBool(0.3)) {
          db.Insert("mark", {Value::Int(i)});
        }
        for (int j = 0; j < kNodes; ++j) {
          if (i != j && rng.NextBool(0.2)) {
            db.Insert("e", {Value::Int(i), Value::Int(j)});
          }
        }
      }
      db.Materialize();
      std::size_t inserted = 0;
      std::size_t deleted = 0;
      for (int batch = 0; batch < 24; ++batch) {
        const UpdateResult result = ApplyWith(
            db, testing::RandomUpdate(db.GetProgram(), rng, kNodes), strategy,
            workers);
        inserted += result.total_inserted;
        deleted += result.total_deleted;
      }
      EXPECT_EQ(inserted, kPinnedInserted);
      EXPECT_EQ(deleted, kPinnedDeleted);
    }
  }
}

}  // namespace
}  // namespace dsched::datalog
