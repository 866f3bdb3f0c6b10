// Tests for live rule-set evolution through Session (DESIGN.md §15):
// EvolveAddRules/EvolveRemoveRule ride the session's epoch FIFO as
// exclusive epochs, compose with pipeline_depth K > 1, fail their own
// future (and nothing else) on a rejected change, and leave the store
// byte-equal to a serial replay of the same batch/evolve sequence.  The
// whole file runs under TSan in CI (service_ prefix): the evolve-vs-query
// and evolve-vs-submit interleavings are the snapshot-pinning data-race
// probe for the wire frontend's double-fetch fix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "datalog/database.hpp"
#include "datalog/incremental.hpp"
#include "datalog/maintenance.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::service {
namespace {

using dsched::testing::ExpectStoresEqual;
using dsched::testing::RandomUpdate;
using dsched::testing::SizedUpdate;
using dsched::testing::Sorted;
using dsched::testing::kWideProgram;

void Seed(Session& session, util::Rng& rng, int nodes, double edge_prob) {
  for (int i = 0; i < nodes; ++i) {
    session.Insert("n", {datalog::Value::Int(i)});
    if (rng.NextBool(0.3)) {
      session.Insert("mark", {datalog::Value::Int(i)});
    }
  }
  for (int i = 0; i < nodes; ++i) {
    for (int j = 0; j < nodes; ++j) {
      if (i != j && rng.NextBool(edge_prob)) {
        session.Insert("e", {datalog::Value::Int(i), datalog::Value::Int(j)});
      }
    }
  }
  session.Materialize();
}

void SeedDb(datalog::Database& db, util::Rng& rng, int nodes,
            double edge_prob) {
  for (int i = 0; i < nodes; ++i) {
    db.Insert("n", {datalog::Value::Int(i)});
    if (rng.NextBool(0.3)) {
      db.Insert("mark", {datalog::Value::Int(i)});
    }
  }
  for (int i = 0; i < nodes; ++i) {
    for (int j = 0; j < nodes; ++j) {
      if (i != j && rng.NextBool(edge_prob)) {
        db.Insert("e", {datalog::Value::Int(i), datalog::Value::Int(j)});
      }
    }
  }
  db.Materialize();
}

TEST(ServiceEvolveTest, EvolveRidesTheEpochFifoAndReportsStats) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "ev"});
  util::Rng rng(61);
  Seed(*session, rng, 8, 0.2);
  EXPECT_EQ(session->ProgramVersion(), 1u);

  auto update = session->MakeUpdate();
  update.Insert("e", {datalog::Value::Int(100), datalog::Value::Int(101)});
  auto f1 = session->Submit(update);
  auto f2 = session->EvolveAddRules("far(X) :- tc(X, _), cold(X).");
  const UpdateOutcome batch = f1.get();
  EXPECT_FALSE(batch.rules_changed);
  const UpdateOutcome evolved = f2.get();
  EXPECT_TRUE(evolved.rules_changed);
  EXPECT_EQ(evolved.epoch, 2u);  // FIFO with the submit before it
  EXPECT_EQ(evolved.program_version, 2u);
  EXPECT_GT(evolved.evolve.cone_predicates, 0u);
  EXPECT_GT(evolved.evolve.reused_components, 0u);
  EXPECT_EQ(session->ProgramVersion(), 2u);
  // far(X) :- tc(X, _), cold(X): exactly the cold nodes with closure rows.
  std::vector<datalog::Tuple> expect_far;
  for (const datalog::Tuple& row : session->Query("cold")) {
    bool has_tc = false;
    for (const datalog::Tuple& tc : session->Query("tc")) {
      has_tc = has_tc || tc[0] == row[0];
    }
    if (has_tc) {
      expect_far.push_back(row);
    }
  }
  EXPECT_EQ(Sorted(session->Query("far")), Sorted(expect_far));

  const UpdateOutcome removed =
      session->EvolveRemoveRule("far(X) :- tc(X, _), cold(X).").get();
  EXPECT_TRUE(removed.rules_changed);
  EXPECT_EQ(removed.program_version, 3u);
  EXPECT_TRUE(session->Query("far").empty());
  session->Close();

  const obs::MetricsRegistry& metrics = host.Metrics();
  EXPECT_EQ(metrics.Value("session.ev.evolve.count"), 2u);
  EXPECT_EQ(metrics.Value("session.ev.evolve.version"), 3u);
  EXPECT_GE(metrics.Value("session.ev.evolve.cone_predicates"), 2u);
  EXPECT_GE(metrics.Value("session.ev.evolve.reused_components"), 2u);
}

TEST(ServiceEvolveTest, RejectedEvolveFailsItsFutureOnly) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "rej"});
  util::Rng rng(62);
  Seed(*session, rng, 8, 0.2);

  auto bad = session->EvolveAddRules("p(Y) :- e(X, _).");  // unsafe head
  EXPECT_THROW((void)bad.get(), util::InvalidArgument);
  // Unstratifiable through the existing negation tower.
  auto cyclic = session->EvolveAddRules("hot(X) :- cold(X).");
  EXPECT_THROW((void)cyclic.get(), util::InvalidArgument);
  // Removing a rule the program never had.
  auto missing = session->EvolveRemoveRule("tc(X, Y) :- rev(X, Y).");
  EXPECT_THROW((void)missing.get(), util::InvalidArgument);

  // Version never moved, and the session is fully live.
  EXPECT_EQ(session->ProgramVersion(), 1u);
  auto update = session->MakeUpdate();
  update.Insert("e", {datalog::Value::Int(50), datalog::Value::Int(51)});
  EXPECT_EQ(session->Submit(update).get().epoch, 4u);
  EXPECT_TRUE(
      session->Contains("tc", {datalog::Value::Int(50),
                               datalog::Value::Int(51)}));
  session->Close();
}

TEST(ServiceEvolveTest, PipelinedEvolvesEqualSerialReplayAllStrategies) {
  // The acceptance shape: K > 1 with evolves interleaved among pipelined
  // submits, swept across every strategy.  Final store (and the evolved
  // program's new predicates) must equal a serial replay that applies the
  // same batches and the same rule changes at the same points.
  constexpr int kNodes = 10;
  const std::vector<std::string> kAdds = {
      "far(X) :- tc(X, _), cold(X).",
      "bridge(X, Y) :- hotpair(X, Y), deadend(Y).",
      "far(X) :- deadend(X).",
  };
  for (const char* strategy : {"dred", "bf"}) {
    SCOPED_TRACE(strategy);
    EngineHost host({.workers = 4});
    auto session = host.OpenSession(kWideProgram,
                                    {.name = std::string("pe-") + strategy,
                                     .maintenance_strategy = strategy,
                                     .pipeline_depth = 4});
    util::Rng seed_rng(7100);
    Seed(*session, seed_rng, kNodes, 0.15);
    datalog::Database replay(kWideProgram);
    util::Rng replay_rng(7100);
    SeedDb(replay, replay_rng, kNodes, 0.15);
    replay.SetDefaultStrategy(datalog::ParseMaintenanceStrategy(strategy));

    util::Rng update_rng(7200);
    std::vector<std::future<UpdateOutcome>> futures;
    std::size_t next_add = 0;
    // Pin ONE snapshot for batch building: evolves run concurrently and a
    // raw GetProgram() ref could be freed mid-read.  Predicate ids are
    // stable across versions, so batches built against the pin stay valid.
    const auto snap = session->Db().Snapshot();
    for (int b = 0; b < 30; ++b) {
      const datalog::UpdateRequest batch =
          RandomUpdate(snap->program, update_rng, kNodes);
      futures.push_back(session->Submit(batch));
      (void)replay.ApplyRequest(batch);
      if (b % 10 == 4 && next_add < kAdds.size()) {
        futures.push_back(session->EvolveAddRules(kAdds[next_add]));
        (void)replay.EvolveAddRules(kAdds[next_add]);
        ++next_add;
      }
      if (b == 24) {
        futures.push_back(session->EvolveRemoveRule(kAdds[0]));
        (void)replay.EvolveRemoveRule(kAdds[0]);
      }
    }
    std::uint64_t expected_epoch = 1;
    for (auto& future : futures) {
      EXPECT_EQ(future.get().epoch, expected_epoch++);
    }
    session->Close();
    EXPECT_EQ(session->ProgramVersion(), 5u);  // 3 adds + 1 remove
    ExpectStoresEqual(session->Db().GetProgram(), replay.Store(),
                      session->Store(), strategy);
  }
}

TEST(ServiceEvolveTest, EvolveRacesSubmitAndQueryCleanly) {
  // The TSan probe: reader threads hammer Query/Contains and a writer
  // pipelines batches while the main thread evolves the rule set several
  // times.  Readers pin snapshots; nothing tears, and the final store
  // equals a serial replay.
  constexpr int kNodes = 10;
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "race", .pipeline_depth = 3});
  util::Rng seed_rng(9300);
  Seed(*session, seed_rng, kNodes, 0.15);
  datalog::Database replay(kWideProgram);
  util::Rng replay_rng(9300);
  SeedDb(replay, replay_rng, kNodes, 0.15);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&session, &done] {
      while (!done.load(std::memory_order_acquire)) {
        for (const char* pred : {"tc", "summary", "cold"}) {
          const auto rows = session->Query(pred);
          (void)rows;
        }
        (void)session->Contains("hot", {datalog::Value::Int(1)});
        (void)session->ProgramVersion();
      }
    });
  }

  const std::vector<std::string> kAdds = {
      "far(X) :- tc(X, _), cold(X).",
      "bridge(X, Y) :- hotpair(X, Y), deadend(Y).",
  };
  util::Rng update_rng(9400);
  std::vector<std::future<UpdateOutcome>> futures;
  const auto snap = session->Db().Snapshot();  // evolves race GetProgram()
  for (int b = 0; b < 24; ++b) {
    const datalog::UpdateRequest batch =
        RandomUpdate(snap->program, update_rng, kNodes);
    futures.push_back(session->Submit(batch));
    (void)replay.ApplyRequest(batch);
    if (b == 7 || b == 15) {
      const std::string& rule = kAdds[b == 7 ? 0 : 1];
      futures.push_back(session->EvolveAddRules(rule));
      (void)replay.EvolveAddRules(rule);
    }
  }
  for (auto& future : futures) {
    (void)future.get();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }
  session->Close();
  ExpectStoresEqual(session->Db().GetProgram(), replay.Store(),
                    session->Store(), "evolve-race");
  EXPECT_EQ(session->ProgramVersion(), 3u);
}

TEST(ServiceEvolveTest, CloseWithEvolveInFlightDrains) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "cd", .pipeline_depth = 3});
  util::Rng rng(77);
  Seed(*session, rng, 8, 0.2);
  util::Rng update_rng(78);
  std::vector<std::future<UpdateOutcome>> futures;
  const auto snap = session->Db().Snapshot();  // evolve races GetProgram()
  for (int b = 0; b < 6; ++b) {
    futures.push_back(
        session->Submit(RandomUpdate(snap->program, update_rng, 8)));
  }
  futures.push_back(session->EvolveAddRules("far(X) :- deadend(X)."));
  for (int b = 0; b < 6; ++b) {
    futures.push_back(
        session->Submit(RandomUpdate(snap->program, update_rng, 8)));
  }
  session->Close();  // evolve + trailing batches still in the queue
  std::uint64_t expected_epoch = 1;
  for (auto& future : futures) {
    UpdateOutcome outcome;
    EXPECT_NO_THROW(outcome = future.get());
    EXPECT_EQ(outcome.epoch, expected_epoch++);
  }
  EXPECT_EQ(session->ProgramVersion(), 2u);
  EXPECT_EQ(Sorted(session->Query("far")),
            Sorted(session->Query("deadend")));
}

TEST(ServiceEvolveTest, CloseBehindAPooledCascadeAndAnEvolveJoins) {
  // K = 4: Close runs while a pooled cascade is in flight and the evolve
  // job behind it cannot be taken yet, so the idle apply threads go back
  // to waiting.  The wake-ups after that must reach every one of them, or
  // Close's join hangs.
  EngineHost host({.workers = 2});
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto session = host.OpenSession(kWideProgram,
                                    {.name = "cp", .pipeline_depth = 4});
    util::Rng rng(80 + static_cast<std::uint64_t>(round));
    Seed(*session, rng, 12, 0.2);
    const auto snap = session->Db().Snapshot();  // evolve races GetProgram()
    std::future<UpdateOutcome> update =
        session->Submit(SizedUpdate(snap->program, rng, 12, 512));
    std::future<UpdateOutcome> evolve =
        session->EvolveAddRules("far(X) :- deadend(X).");
    session->Close();
    const UpdateOutcome applied = update.get();
    EXPECT_EQ(applied.epoch, 1u);
    EXPECT_FALSE(applied.run.ran_inline);
    EXPECT_EQ(evolve.get().epoch, 2u);
    EXPECT_EQ(session->ProgramVersion(), 2u);
  }
}

}  // namespace
}  // namespace dsched::service
