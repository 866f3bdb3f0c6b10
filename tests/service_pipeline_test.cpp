// Tests for epoch-pipelined sessions (DESIGN.md §12): K > 1 update
// cascades in flight per session, fenced per dependency level by the
// session's StratumFrontier.
//
// The load-bearing guarantee: a session running K overlapped epochs ends
// with a store byte-equal to a serial replay of the same batches, its
// futures resolve in dense epoch order, every admitted epoch survives
// Close(), and queries quiesce the pipeline instead of racing it.  The
// whole file runs under TSan in CI (service_ prefix), which is where the
// query-vs-pipeline and cascade-vs-cascade interleavings earn their keep.
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
#include "datalog/parallel_update.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::service {
namespace {

using dsched::testing::ExpectStoresEqual;
using dsched::testing::RandomUpdate;
using dsched::testing::SizedUpdate;
using dsched::testing::kWideProgram;

/// Seeds a session with the same base instance WideFixture::Base builds.
void SeedLikeFixture(Session& session, util::Rng& rng, int nodes,
                     double edge_prob) {
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

/// Same seeding against a bare Database (the serial replay side).
void SeedDbLikeFixture(datalog::Database& db, util::Rng& rng, int nodes,
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

TEST(ServicePipelineTest, DepthResolutionAndClamping) {
  EngineHost host({.workers = 2});
  auto inherit = host.OpenSession(kWideProgram, {.name = "inh"});
  EXPECT_EQ(inherit->PipelineDepth(), kDefaultPipelineDepth);
  EXPECT_EQ(kDefaultPipelineDepth, 1u);
  auto deep = host.OpenSession(kWideProgram,
                               {.name = "deep", .pipeline_depth = 4});
  EXPECT_EQ(deep->PipelineDepth(), 4u);
  // Every strategy pipelines.
  auto bf = host.OpenSession(kWideProgram, {.name = "bf",
                                            .maintenance_strategy = "bf",
                                            .pipeline_depth = 4});
  EXPECT_EQ(bf->PipelineDepth(), 4u);
  // Absurd depths clamp instead of spawning 10k threads.
  auto clamped = host.OpenSession(kWideProgram,
                                  {.name = "cl", .pipeline_depth = 10000});
  EXPECT_EQ(clamped->PipelineDepth(), 64u);
}

TEST(ServicePipelineTest, PipelinedStoreEqualsSerialReplayAllStrategies) {
  // The stress shape from the acceptance criteria: K = 3, ~40 randomized
  // batches, every strategy.  The pipelined store must equal a serial
  // replay of the same batches.
  constexpr int kBatches = 40;
  constexpr int kNodes = 10;
  EngineHost host({.workers = 4});
  for (const char* strategy : {"dred", "bf"}) {
    SCOPED_TRACE(strategy);
    auto session = host.OpenSession(kWideProgram,
                                    {.name = std::string("p-") + strategy,
                                     .maintenance_strategy = strategy,
                                     .pipeline_depth = 3});
    util::Rng seed_rng(4040);
    SeedLikeFixture(*session, seed_rng, kNodes, 0.15);

    datalog::Database replay(kWideProgram);
    util::Rng replay_rng(4040);
    SeedDbLikeFixture(replay, replay_rng, kNodes, 0.15);
    const datalog::MaintenanceStrategy parsed =
        datalog::ParseMaintenanceStrategy(strategy);

    util::Rng update_rng(5050);
    std::vector<datalog::UpdateRequest> batches;
    for (int b = 0; b < kBatches; ++b) {
      batches.push_back(
          RandomUpdate(session->Db().GetProgram(), update_rng, kNodes));
    }
    std::vector<std::future<UpdateOutcome>> futures;
    futures.reserve(batches.size());
    for (const datalog::UpdateRequest& batch : batches) {
      futures.push_back(session->Submit(batch));
      (void)replay.ApplyRequest(batch, parsed);
    }
    std::uint64_t expected_epoch = 1;
    for (auto& future : futures) {
      EXPECT_EQ(future.get().epoch, expected_epoch++);
    }
    session->Close();
    ExpectStoresEqual(session->Db().GetProgram(), replay.Store(),
                      session->Store(), strategy);
  }
}

TEST(ServicePipelineTest, DispatchSweepEqualsSerialReplay) {
  // A cascade of at most kInlineMaxBaseChanges base changes runs inline on
  // the session's apply thread; a larger one runs on the pool.  On both
  // sides of that threshold, for every spec, depth and strategy, the store
  // equals a serial Database::ApplyRequest replay, and inline epochs hand
  // the shared pool nothing.
  constexpr std::size_t kTheta = datalog::kInlineMaxBaseChanges;
  constexpr int kNodes = 12;
  constexpr int kBatches = 3;
  EngineHost host({.workers = 4});
  for (const std::size_t size : {std::size_t{1}, kTheta, kTheta + 1,
                                 std::size_t{512}}) {
    for (const char* spec : {"hybrid", "levelbased", "signal", "logicblox"}) {
      for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
        for (const char* strategy : {"dred", "bf"}) {
          const std::string what = "|delta|=" + std::to_string(size) + " " +
                                   spec + " K=" + std::to_string(depth) +
                                   " " + strategy;
          SCOPED_TRACE(what);
          auto session = host.OpenSession(
              kWideProgram, {.name = "sweep",
                             .scheduler_spec = spec,
                             .maintenance_strategy = strategy,
                             .pipeline_depth = depth});
          util::Rng seed_rng(size + depth);
          SeedLikeFixture(*session, seed_rng, kNodes, 0.15);
          datalog::Database replay(kWideProgram);
          util::Rng replay_rng(size + depth);
          SeedDbLikeFixture(replay, replay_rng, kNodes, 0.15);

          util::Rng update_rng(7 * size + depth);
          const std::uint64_t submitted = host.Router().PoolStats().submitted;
          std::vector<std::future<UpdateOutcome>> futures;
          for (int b = 0; b < kBatches; ++b) {
            const datalog::UpdateRequest batch = SizedUpdate(
                session->Db().GetProgram(), update_rng, kNodes, size);
            futures.push_back(session->Submit(batch));
            (void)replay.ApplyRequest(
                batch, datalog::ParseMaintenanceStrategy(strategy));
          }
          for (auto& future : futures) {
            EXPECT_EQ(future.get().run.ran_inline, size <= kTheta);
          }
          const std::uint64_t moved =
              host.Router().PoolStats().submitted - submitted;
          if (size <= kTheta) {
            EXPECT_EQ(moved, 0u);
          } else {
            EXPECT_GT(moved, 0u);
          }
          session->Close();
          ExpectStoresEqual(session->Db().GetProgram(), replay.Store(),
                            session->Store(), what.c_str());
        }
      }
    }
  }
  EXPECT_EQ(host.Router().OpenChannels(), 0u);
}

TEST(ServicePipelineTest, FuturesResolveInDenseEpochOrder) {
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "dense", .pipeline_depth = 4});
  util::Rng seed_rng(17);
  SeedLikeFixture(*session, seed_rng, 10, 0.15);
  util::Rng update_rng(18);
  std::vector<std::future<UpdateOutcome>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 10)));
  }
  // Dense resolution: once the LAST future is ready, every earlier future
  // must already be ready — epoch N never resolves before epoch N-1.
  futures.back().wait();
  for (std::size_t i = 0; i + 1 < futures.size(); ++i) {
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "epoch " << (i + 1) << " unresolved after last epoch resolved";
  }
  std::uint64_t expected_epoch = 1;
  for (auto& future : futures) {
    EXPECT_EQ(future.get().epoch, expected_epoch++);
  }
  EXPECT_EQ(session->AppliedEpoch(), futures.size());
  session->Close();
}

TEST(ServicePipelineTest, AppliedEpochIsPublishedBeforeTheFutureResolves) {
  // A thread woken by epoch N's future must read AppliedEpoch() >= N: the
  // sequencer publishes the applied epoch before it resolves the future.
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "pub", .pipeline_depth = 4});
  util::Rng seed_rng(29);
  SeedLikeFixture(*session, seed_rng, 10, 0.15);
  util::Rng update_rng(30);
  std::vector<std::future<UpdateOutcome>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 10)));
  }
  for (auto& future : futures) {
    const UpdateOutcome outcome = future.get();
    EXPECT_GE(session->AppliedEpoch(), outcome.epoch);
  }
  session->Close();
}

TEST(ServicePipelineTest, CloseWithEpochsInFlightDrainsAndResolves) {
  // Close() while K epochs are mid-cascade: every admitted epoch must
  // finish and resolve its future — close drains, it never abandons.
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "cif", .pipeline_depth = 4});
  util::Rng seed_rng(23);
  SeedLikeFixture(*session, seed_rng, 10, 0.2);
  util::Rng update_rng(24);
  std::vector<std::future<UpdateOutcome>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 10)));
  }
  session->Close();  // no drain first: epochs are still in flight
  std::uint64_t expected_epoch = 1;
  for (auto& future : futures) {
    UpdateOutcome outcome;
    EXPECT_NO_THROW(outcome = future.get());
    EXPECT_EQ(outcome.epoch, expected_epoch++);
  }
  EXPECT_EQ(session->AppliedEpoch(), 16u);
  EXPECT_THROW((void)session->Submit(datalog::UpdateRequest{}),
               util::LogicError);
}

TEST(ServicePipelineTest, QueriesQuiesceThePipeline) {
  // A querier thread hammers Query/Contains while a client pipelines 30
  // batches at K = 4.  Queries must always see a fully-applied dense
  // prefix (no torn mid-cascade state) — under TSan this is also the
  // query-vs-cascade data-race probe.
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "qp", .pipeline_depth = 4});
  util::Rng seed_rng(31);
  SeedLikeFixture(*session, seed_rng, 10, 0.15);

  std::atomic<bool> done{false};
  std::thread querier([&] {
    while (!done.load(std::memory_order_acquire)) {
      // tc is maintained from e: every row must have both endpoints in n
      // whenever the pipeline is quiesced (n never changes here).
      const auto rows = session->Query("tc");
      for (const datalog::Tuple& row : rows) {
        ASSERT_EQ(row.size(), 2u);
      }
      (void)session->Contains("cold", {datalog::Value::Int(0)});
    }
  });

  datalog::Database replay(kWideProgram);
  util::Rng replay_rng(31);
  SeedDbLikeFixture(replay, replay_rng, 10, 0.15);
  util::Rng update_rng(32);
  std::vector<std::future<UpdateOutcome>> futures;
  for (int i = 0; i < 30; ++i) {
    const datalog::UpdateRequest batch =
        RandomUpdate(session->Db().GetProgram(), update_rng, 10);
    futures.push_back(session->Submit(batch));
    (void)replay.ApplyRequest(batch);
  }
  for (auto& future : futures) {
    (void)future.get();
  }
  done.store(true, std::memory_order_release);
  querier.join();
  // Post-resolution queries see exactly the replayed state.
  EXPECT_EQ(dsched::testing::Sorted(session->Query("summary")),
            dsched::testing::Sorted(replay.Query("summary")));
  session->Close();
  ExpectStoresEqual(session->Db().GetProgram(), replay.Store(),
                    session->Store(), "query-during-pipeline");
}

TEST(ServicePipelineTest, PipelineMetricsArePublished) {
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram,
                                  {.name = "pm", .pipeline_depth = 4});
  util::Rng seed_rng(41);
  SeedLikeFixture(*session, seed_rng, 10, 0.2);
  util::Rng update_rng(42);
  std::vector<std::future<UpdateOutcome>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 10)));
  }
  session->Close();
  const obs::MetricsRegistry& metrics = host.Metrics();
  EXPECT_EQ(metrics.Value("session.pm.pipeline.depth"), 4u);
  EXPECT_GE(metrics.Value("session.pm.pipeline.inflight_high_water"), 1u);
  EXPECT_EQ(metrics.Value("session.pm.applied"), 20u);
  // Every epoch of a depth>1 session finalizes its frontier entry.
  EXPECT_GE(metrics.Value("session.pm.pipeline.finalizations"), 20u);
  // RandomUpdate batches are far below the inline threshold.
  EXPECT_EQ(metrics.Value("session.pm.pipeline.inline_cascades"), 20u);
}

}  // namespace
}  // namespace dsched::service
