// Tests for the service layer: EngineHost / Session.
//
// The load-bearing guarantee (ISSUE 5 acceptance): N sessions submitting
// concurrent update batches on ONE shared pool produce stores equal to a
// serial per-session replay of the same batches.  Plus: epoch ordering,
// backpressure blocking at the queue bound, drain-on-close, and the
// host/session metric taxonomy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "datalog/incremental.hpp"
#include "datalog/parallel_update.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::service {
namespace {

using dsched::testing::ExpectStoresEqual;
using dsched::testing::RandomUpdate;
using dsched::testing::SerialUpdate;
using dsched::testing::WideFixture;
using dsched::testing::kWideProgram;

/// A Done that resolves `*future`, for the tests that hold TrySubmit and
/// TryEvolve outcomes the way Submit returns them.
Session::Done Resolves(std::future<UpdateOutcome>* future) {
  auto promise = std::make_shared<std::promise<UpdateOutcome>>();
  *future = promise->get_future();
  return [promise](UpdateOutcome&& outcome, std::exception_ptr error) {
    if (error == nullptr) {
      promise->set_value(std::move(outcome));
    } else {
      promise->set_exception(std::move(error));
    }
  };
}

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
        session.Insert(
            "e", {datalog::Value::Int(i), datalog::Value::Int(j)});
      }
    }
  }
  session.Materialize();
}

TEST(ServiceTest, DeclinedTrySubmitLeavesTheBatchToRetry) {
  // A one-slot queue declines most of a TrySubmit burst.  Each declined
  // batch must come back intact and apply exactly once on retry: the
  // store ends equal to a serial replay of every batch in order.
  EngineHost host({.workers = 2});
  auto session =
      host.OpenSession(kWideProgram, {.name = "retry", .queue_capacity = 1});
  util::Rng seed_rng(31);
  SeedLikeFixture(*session, seed_rng, 8, 0.2);
  util::Rng replay_rng(31);
  WideFixture replay;
  replay.Base(replay_rng, 8, 0.2);

  util::Rng update_rng(32);
  std::size_t declined = 0;
  std::vector<std::future<UpdateOutcome>> futures;
  for (int batch = 0; batch < 400 && declined < 5; ++batch) {
    datalog::UpdateRequest request =
        RandomUpdate(replay.program, update_rng, 8);
    const datalog::UpdateRequest original = request;
    (void)SerialUpdate(replay.program, replay.strat, replay.store, original);
    std::future<UpdateOutcome> future;
    while (!session->TrySubmit(std::move(request), Resolves(&future))) {
      ++declined;
      ASSERT_EQ(request.insertions, original.insertions);
      ASSERT_EQ(request.deletions, original.deletions);
      std::this_thread::yield();
    }
    futures.push_back(std::move(future));
  }
  EXPECT_GT(declined, 0u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().epoch, i + 1);
  }
  session->Close();
  ExpectStoresEqual(replay.program, replay.store, session->Store(),
                    "declined-and-retried");
}

TEST(ServiceTest, SingleSessionMatchesSerialReplay) {
  EngineHost host({.workers = 4});
  auto session = host.OpenSession(kWideProgram, {.name = "solo"});
  util::Rng seed_rng(777);
  SeedLikeFixture(*session, seed_rng, 10, 0.15);

  util::Rng replay_rng(777);
  WideFixture replay;
  replay.Base(replay_rng, 10, 0.15);

  util::Rng update_rng(4242);
  for (int batch = 0; batch < 5; ++batch) {
    const datalog::UpdateRequest request =
        RandomUpdate(replay.program, update_rng, 10);
    const datalog::UpdateResult serial =
        SerialUpdate(replay.program, replay.strat, replay.store, request);
    const UpdateOutcome outcome = session->Submit(request).get();
    EXPECT_EQ(outcome.epoch, static_cast<std::uint64_t>(batch + 1));
    EXPECT_EQ(outcome.update.total_inserted, serial.total_inserted);
    EXPECT_EQ(outcome.update.total_deleted, serial.total_deleted);
    EXPECT_GT(outcome.run.executed, 0u);
  }
  session->Close();
  ExpectStoresEqual(replay.program, replay.store, session->Store(),
                    "single-session");
}

TEST(ServiceTest, FourConcurrentSessionsEqualSerialPerSessionReplay) {
  // The acceptance-criteria shape: 4 sessions, each with its own program
  // instance and batch stream, submitting concurrently onto one shared
  // 4-worker pool.  Every session's final store must be byte-equal to a
  // serial replay of ITS batches on a private engine.
  constexpr int kSessions = 4;
  constexpr int kBatches = 12;
  EngineHost host({.workers = 4});

  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::vector<datalog::UpdateRequest>> streams(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    // Rotate scheduler specs across sessions: heterogeneous tenants.
    const char* specs[] = {"hybrid", "levelbased", "signal", "logicblox"};
    sessions.push_back(host.OpenSession(
        kWideProgram,
        {.name = "t" + std::to_string(s), .scheduler_spec = specs[s % 4]}));
    util::Rng seed_rng(1000 + static_cast<std::uint64_t>(s));
    SeedLikeFixture(*sessions.back(), seed_rng, 9, 0.18);
    util::Rng update_rng(2000 + static_cast<std::uint64_t>(s));
    auto& stream = streams[static_cast<std::size_t>(s)];
    for (int b = 0; b < kBatches; ++b) {
      stream.push_back(
          RandomUpdate(sessions.back()->Db().GetProgram(), update_rng, 9));
    }
  }
  EXPECT_EQ(host.ActiveSessions(), static_cast<std::size_t>(kSessions));

  // Concurrent phase: one client thread per session, all submitting at
  // once; futures checked for dense epoch order.
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      std::vector<std::future<UpdateOutcome>> futures;
      for (const datalog::UpdateRequest& request :
           streams[static_cast<std::size_t>(s)]) {
        futures.push_back(sessions[static_cast<std::size_t>(s)]->Submit(
            request));
      }
      std::uint64_t expected_epoch = 1;
      for (auto& future : futures) {
        EXPECT_EQ(future.get().epoch, expected_epoch++);
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  // Serial replay phase: same seeds, same streams, private engines.
  for (int s = 0; s < kSessions; ++s) {
    util::Rng replay_rng(1000 + static_cast<std::uint64_t>(s));
    WideFixture replay;
    replay.Base(replay_rng, 9, 0.18);
    for (const datalog::UpdateRequest& request :
         streams[static_cast<std::size_t>(s)]) {
      (void)SerialUpdate(replay.program, replay.strat, replay.store, request);
    }
    ExpectStoresEqual(replay.program, replay.store,
                      sessions[static_cast<std::size_t>(s)]->Store(),
                      ("session " + std::to_string(s)).c_str());
  }

  for (auto& session : sessions) {
    session->Close();
  }
  EXPECT_EQ(host.ActiveSessions(), 0u);
  host.ExportMetrics();
  EXPECT_EQ(host.Metrics().Value("host.sessions_opened"),
            static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(host.Metrics().Value("session.t0.submit"),
            static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(host.Metrics().Value("session.t0.applied"),
            static_cast<std::uint64_t>(kBatches));
}

TEST(ServiceTest, BackpressureBlocksSubmitAtTheBound) {
  EngineHost host({.workers = 2});
  auto session =
      host.OpenSession(kWideProgram, {.name = "bp", .queue_capacity = 2});
  util::Rng seed_rng(5);
  SeedLikeFixture(*session, seed_rng, 8, 0.2);

  // Stall the apply thread: submit a batch whose apply takes a while by
  // filling the queue faster than 2-worker applies drain it, and verify
  // TrySubmit declines once the bound is hit while blocking Submit waits.
  std::vector<std::future<UpdateOutcome>> futures;
  util::Rng update_rng(6);
  std::size_t declined = 0;
  for (int i = 0; i < 50; ++i) {
    std::future<UpdateOutcome> future;
    if (session->TrySubmit(RandomUpdate(session->Db().GetProgram(),
                                        update_rng, 8),
                           Resolves(&future))) {
      futures.push_back(std::move(future));
    } else {
      ++declined;
      EXPECT_LE(session->QueueDepth(), 2u);
    }
  }
  // Blocking submits after the burst must all be accepted, in order.
  for (int i = 0; i < 4; ++i) {
    futures.push_back(session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 8)));
  }
  std::uint64_t last_epoch = 0;
  for (auto& future : futures) {
    const std::uint64_t epoch = future.get().epoch;
    EXPECT_GT(epoch, last_epoch);
    last_epoch = epoch;
  }
  EXPECT_EQ(last_epoch, futures.size());
  session->Close();
}

TEST(ServiceTest, CloseDrainsPendingBatches) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "drain"});
  util::Rng seed_rng(9);
  SeedLikeFixture(*session, seed_rng, 8, 0.2);

  util::Rng update_rng(10);
  std::vector<std::future<UpdateOutcome>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 8)));
  }
  session->Close();  // must apply all 10, not discard
  for (auto& future : futures) {
    EXPECT_NO_THROW((void)future.get());
  }
  EXPECT_EQ(session->AppliedEpoch(), 10u);
  EXPECT_THROW((void)session->Submit(datalog::UpdateRequest{}),
               util::LogicError);
}

TEST(ServiceTest, SubmitAtTheBoundBlocksUntilAJobIsAdmitted) {
  // A held reader keeps every job waiting for admission, so a one-slot
  // queue stays full even with two idle apply threads: the bound counts
  // jobs not yet admitted.  TrySubmit declines, and a blocking Submit
  // waits until the reader lets the head in.  Both count as blocked.
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(
      kWideProgram,
      {.name = "bound", .queue_capacity = 1, .pipeline_depth = 2});
  util::Rng seed_rng(41);
  SeedLikeFixture(*session, seed_rng, 8, 0.2);
  const datalog::Program& program = session->Db().GetProgram();
  util::Rng update_rng(42);
  datalog::UpdateRequest second = RandomUpdate(program, update_rng, 8);
  std::future<UpdateOutcome> first;
  std::future<UpdateOutcome> blocked;
  std::atomic<bool> accepted{false};
  std::thread producer;
  session->Read([&] {
    EXPECT_TRUE(session->TrySubmit(RandomUpdate(program, update_rng, 8),
                                   Resolves(&first)));
    EXPECT_EQ(session->QueueDepth(), 1u);
    std::future<UpdateOutcome> declined;
    EXPECT_FALSE(session->TrySubmit(datalog::UpdateRequest(second),
                                    Resolves(&declined)));
    producer = std::thread([&] {
      blocked = session->Submit(std::move(second));
      accepted.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(accepted.load());  // blocked at the bound
    EXPECT_EQ(session->QueueDepth(), 1u);
  });
  producer.join();
  EXPECT_TRUE(accepted.load());
  EXPECT_EQ(first.get().epoch, 1u);
  EXPECT_EQ(blocked.get().epoch, 2u);
  session->Close();
  EXPECT_EQ(host.Metrics().Value("session.bound.blocked_submits"), 2u);
  EXPECT_EQ(host.Metrics().Value("session.bound.queue_depth"), 1u);
}

TEST(ServiceTest, ClosedSessionRejectsEveryEnqueue) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "shut"});
  util::Rng seed_rng(43);
  SeedLikeFixture(*session, seed_rng, 8, 0.2);
  std::future<UpdateOutcome> queued =
      session->Submit(RandomUpdate(session->Db().GetProgram(), seed_rng, 8));
  session->Close();
  EXPECT_EQ(queued.get().epoch, 1u);  // accepted before close: applied
  const std::string rule = "m2(X) :- mark(X).";
  std::future<UpdateOutcome> out;
  datalog::UpdateRequest request;
  EXPECT_THROW((void)session->Submit(datalog::UpdateRequest{}),
               util::LogicError);
  EXPECT_THROW((void)session->TrySubmit(std::move(request), Resolves(&out)),
               util::LogicError);
  EXPECT_THROW((void)session->EvolveAddRules(rule), util::LogicError);
  EXPECT_THROW((void)session->EvolveRemoveRule(rule), util::LogicError);
  EXPECT_THROW((void)session->TryEvolve(Session::JobKind::kAddRules, rule,
                                        Resolves(&out)),
               util::LogicError);
  EXPECT_THROW((void)session->TryEvolve(Session::JobKind::kRemoveRule, rule,
                                        Resolves(&out)),
               util::LogicError);
  EXPECT_EQ(session->AppliedEpoch(), 1u);
}

TEST(ServiceTest, CloseWhileAReaderHoldsTheQueueJoinsEveryApplyThread) {
  // A held reader keeps the queued jobs unadmitted, so every apply thread
  // is idle when Close runs.  Releasing the reader lets the threads take
  // the jobs one by one (the evolve job waits for the update ahead of it),
  // and every thread that then finds the queue closed and empty must exit:
  // one left waiting would hang Close's join.
  for (const std::size_t depth : {std::size_t{3}, std::size_t{4}}) {
    const bool with_evolve = depth == 4;
    SCOPED_TRACE("K=" + std::to_string(depth));
    EngineHost host({.workers = 2});
    auto session = host.OpenSession(
        kWideProgram, {.name = "rc", .pipeline_depth = depth});
    util::Rng rng(44);
    SeedLikeFixture(*session, rng, 8, 0.2);
    const std::uint64_t id = session->Id();
    std::vector<std::future<UpdateOutcome>> futures(1);
    std::thread closer;
    session->Read([&] {
      EXPECT_TRUE(session->TrySubmit(
          RandomUpdate(session->Db().GetProgram(), rng, 8),
          Resolves(&futures[0])));
      if (with_evolve) {
        futures.push_back(session->EvolveAddRules("far(X) :- deadend(X)."));
      }
      closer = std::thread([&] { session->Close(); });
      // Close unregisters the session just before it closes the queue.
      while (host.FindSession(id) != nullptr) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    closer.join();
    std::uint64_t expected_epoch = 1;
    for (auto& future : futures) {
      EXPECT_EQ(future.get().epoch, expected_epoch++);
    }
    EXPECT_EQ(session->AppliedEpoch(), futures.size());
  }
}

TEST(ServiceTest, ReadRunsAfterEveryAcceptedJob) {
  // A held read keeps three accepted batches waiting for admission.  A
  // second read queued behind them must see all three applied: a read is
  // a job in the session's FIFO, not a hold on admitted epochs only.
  EngineHost host({.workers = 2});
  auto session =
      host.OpenSession(kWideProgram, {.name = "ryw", .pipeline_depth = 2});
  util::Rng rng(45);
  SeedLikeFixture(*session, rng, 8, 0.2);
  std::atomic<bool> read{false};
  std::uint64_t seen = 0;
  std::thread reader;
  session->Read([&] {
    for (int i = 0; i < 3; ++i) {
      (void)session->Submit(RandomUpdate(session->Db().GetProgram(), rng, 8));
    }
    reader = std::thread([&] {
      seen = session->Read([&] { return session->AppliedEpoch(); });
      read.store(true);
    });
    // Hold until the second read is queued behind the batches (or has
    // already answered, which would be the bug).
    while (!read.load() && session->QueueDepth() < 4) {
      std::this_thread::yield();
    }
  });
  reader.join();
  EXPECT_EQ(seen, 3u);
  session->Close();
}

TEST(ServiceTest, ThrowingReadFailsOnlyTheReader) {
  // A read that throws rethrows on its caller; the apply thread that ran
  // it carries on, and the session keeps applying and answering.
  EngineHost host({.workers = 2});
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("K=" + std::to_string(depth));
    auto session =
        host.OpenSession(kWideProgram, {.name = "tr", .pipeline_depth = depth});
    util::Rng rng(46);
    SeedLikeFixture(*session, rng, 8, 0.2);
    EXPECT_THROW((void)session->Query("nope"), util::Error);
    EXPECT_EQ(
        session->Submit(RandomUpdate(session->Db().GetProgram(), rng, 8))
            .get()
            .epoch,
        1u);
    EXPECT_FALSE(session->Query("n").empty());
    session->Close();
  }
}

TEST(ServiceTest, DrainWaitsForAcceptedBatches) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "dr2"});
  util::Rng seed_rng(11);
  SeedLikeFixture(*session, seed_rng, 8, 0.2);
  util::Rng update_rng(12);
  for (int i = 0; i < 6; ++i) {
    (void)session->Submit(
        RandomUpdate(session->Db().GetProgram(), update_rng, 8));
  }
  session->Drain();
  EXPECT_EQ(session->AppliedEpoch(), 6u);
  EXPECT_EQ(session->QueueDepth(), 0u);
}

TEST(ServiceTest, BadProgramsAndSpecsFailAtOpen) {
  EngineHost host({.workers = 1});
  EXPECT_THROW((void)host.OpenSession("p(X) :- q(X."), util::Error);
  EXPECT_THROW((void)host.OpenSession(kWideProgram,
                                      {.scheduler_spec = "oracle"}),
               util::InvalidArgument);
  // Unknown names are rejected at open with every valid value listed, so
  // a typo'd deployment config fails loudly and self-documents.
  try {
    (void)host.OpenSession(kWideProgram, {.scheduler_spec = "nonsense"});
    FAIL() << "unknown scheduler spec accepted";
  } catch (const util::Error& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("nonsense"), std::string::npos) << message;
    EXPECT_NE(message.find("hybrid"), std::string::npos) << message;
  }
  // "serial" names no engine any more: every session cascade runs through
  // a scheduler, so it is rejected like any other unknown spec.
  try {
    (void)host.OpenSession(kWideProgram, {.scheduler_spec = "serial"});
    FAIL() << "the retired serial spec was accepted";
  } catch (const util::InvalidArgument& err) {
    const std::string message = err.what();
    const std::size_t listed = message.find("valid values:");
    ASSERT_NE(listed, std::string::npos) << message;
    EXPECT_NE(message.find("hybrid", listed), std::string::npos) << message;
    EXPECT_EQ(message.find("serial", listed), std::string::npos) << message;
  }
  try {
    (void)host.OpenSession(kWideProgram,
                           {.maintenance_strategy = "countingg"});
    FAIL() << "unknown maintenance strategy accepted";
  } catch (const util::Error& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("countingg"), std::string::npos) << message;
    EXPECT_TRUE(message.ends_with("valid values: dred bf")) << message;
  }
  EXPECT_EQ(host.ActiveSessions(), 0u);
}

TEST(ServiceTest, PerSessionStrategiesConvergeToTheSameStore) {
  EngineHost host({.workers = 2});
  auto dred = host.OpenSession(kWideProgram,
                               {.name = "m-dred",
                                .maintenance_strategy = "dred"});
  auto bf = host.OpenSession(kWideProgram,
                             {.name = "m-bf", .maintenance_strategy = "bf"});
  EXPECT_EQ(dred->Strategy(), datalog::MaintenanceStrategy::kDRed);
  EXPECT_EQ(bf->Strategy(), datalog::MaintenanceStrategy::kBackwardForward);
  for (Session* s : {dred.get(), bf.get()}) {
    util::Rng seed_rng(21);
    SeedLikeFixture(*s, seed_rng, 10, 0.15);
  }
  util::Rng update_rng(22);
  std::vector<datalog::UpdateRequest> batches;
  for (int b = 0; b < 6; ++b) {
    batches.push_back(RandomUpdate(dred->Db().GetProgram(), update_rng, 10));
  }
  for (Session* s : {dred.get(), bf.get()}) {
    for (const datalog::UpdateRequest& batch : batches) {
      (void)s->Submit(batch);
    }
    s->Close();
  }
  ExpectStoresEqual(dred->Db().GetProgram(), dred->Store(), bf->Store(),
                    "bf vs dred sessions");
  const obs::MetricsRegistry& metrics = host.Metrics();
  EXPECT_GT(metrics.Value("session.m-dred.maint.ops"), 0u);
  EXPECT_GT(metrics.Value("session.m-bf.maint.backward_probes"), 0u);
}

TEST(ServiceTest, SessionsMayOutliveTheHost) {
  std::shared_ptr<Session> survivor;
  {
    EngineHost host({.workers = 2});
    survivor = host.OpenSession(kWideProgram, {.name = "orphan"});
  }  // host handle gone; the shared core lives on through the session
  util::Rng seed_rng(31);
  SeedLikeFixture(*survivor, seed_rng, 8, 0.2);
  util::Rng update_rng(32);
  const UpdateOutcome outcome =
      survivor
          ->Submit(RandomUpdate(survivor->Db().GetProgram(), update_rng, 8))
          .get();
  EXPECT_EQ(outcome.epoch, 1u);
  survivor->Close();
}

TEST(ServiceTest, FindSessionLookupAfterCloseReturnsNull) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "lookup"});
  const std::uint64_t id = session->Id();
  EXPECT_EQ(host.FindSession(id).get(), session.get());
  const auto ids = host.ActiveSessionIds();
  EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end());
  EXPECT_EQ(host.FindSession(id + 9999), nullptr);  // never assigned

  session->Close();
  EXPECT_EQ(host.FindSession(id), nullptr);  // closed -> miss, by contract

  // Dropping the last owner without Close also unregisters (dtor path).
  auto second = host.OpenSession(kWideProgram, {.name = "dropped"});
  const std::uint64_t second_id = second->Id();
  EXPECT_NE(host.FindSession(second_id), nullptr);
  second.reset();
  EXPECT_EQ(host.FindSession(second_id), nullptr);
}

TEST(ServiceTest, FindSessionRacesCloseCleanly) {
  // TSan story: a reader thread resolves FindSession while the owner
  // closes and drops the session.  The lookup must return either a live
  // (usable) session or null — never a torn pointer.
  EngineHost host({.workers = 2});
  for (int round = 0; round < 8; ++round) {
    auto session = host.OpenSession(kWideProgram, {.name = "race"});
    const std::uint64_t id = session->Id();
    std::thread finder([&host, id] {
      for (int i = 0; i < 64; ++i) {
        if (auto found = host.FindSession(id)) {
          // Holding the shared_ptr keeps the session alive even if the
          // owner closes concurrently; Name() must stay readable.
          EXPECT_FALSE(found->Name().empty());
        }
      }
    });
    session->Close();
    session.reset();
    finder.join();
    EXPECT_EQ(host.FindSession(id), nullptr);
  }
}

TEST(ServiceTest, MemoryCeilingHoldsUnderConcurrentBudgetedSessions) {
  // Two budgeted sessions with pipelined epochs hammer one shared pool
  // while unbudgeted twins replay the identical batches.  The contract
  // under test (ISSUE 9): the accounted ceiling is
  // max(memory_budget, largest single task utility) — absent a forced
  // over-budget solo dispatch the account peak never exceeds the budget —
  // and exhaustion surfaces as backpressure, never as a failed or
  // divergent update.
  constexpr std::uint64_t kBudget = 512;
  constexpr int kSessions = 2;
  constexpr int kBatches = 10;
  EngineHost host({.workers = 4});
  std::vector<std::shared_ptr<Session>> budgeted;
  std::vector<std::vector<datalog::UpdateRequest>> batches(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    budgeted.push_back(host.OpenSession(kWideProgram,
                                        {.name = "mb" + std::to_string(s),
                                         .pipeline_depth = 2,
                                         .memory_budget = kBudget}));
    util::Rng seed_rng(910 + static_cast<std::uint64_t>(s));
    SeedLikeFixture(*budgeted.back(), seed_rng, 10, 0.15);
    util::Rng update_rng(920 + static_cast<std::uint64_t>(s));
    for (int b = 0; b < kBatches; ++b) {
      batches[static_cast<std::size_t>(s)].push_back(
          RandomUpdate(budgeted.back()->Db().GetProgram(), update_rng, 10));
    }
  }
  std::vector<std::thread> drivers;
  for (int s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&budgeted, &batches, s] {
      Session& session = *budgeted[static_cast<std::size_t>(s)];
      std::future<UpdateOutcome> last;
      for (const datalog::UpdateRequest& batch :
           batches[static_cast<std::size_t>(s)]) {
        last = session.Submit(batch);
      }
      EXPECT_EQ(last.get().epoch, static_cast<std::uint64_t>(kBatches));
    });
  }
  for (std::thread& t : drivers) {
    t.join();
  }
  for (auto& session : budgeted) {
    session->Close();
  }

  const obs::MetricsRegistry& metrics = host.Metrics();
  for (int s = 0; s < kSessions; ++s) {
    Session& session = *budgeted[static_cast<std::size_t>(s)];
    const std::string prefix = "session.mb" + std::to_string(s) + ".mem.";
    EXPECT_EQ(metrics.Value(prefix + "budget_bytes"), kBudget);
    EXPECT_GT(metrics.Value(prefix + "acquired_bytes"), 0u);
    EXPECT_EQ(session.Account().live.load(), 0u);  // all bytes released
    // The hard ceiling: only a lone oversized task may ever carry the
    // account past the budget, and then only by running solo.
    const std::uint64_t peak = session.Account().peak.load();
    if (metrics.Value(prefix + "forced") == 0) {
      EXPECT_LE(peak, kBudget) << "session mb" << s;
    }

    // Backpressure must not change results: an unbudgeted serial replay
    // of the same batches lands on the identical store.
    auto reference = host.OpenSession(
        kWideProgram, {.name = "ref" + std::to_string(s)});
    util::Rng seed_rng(910 + static_cast<std::uint64_t>(s));
    SeedLikeFixture(*reference, seed_rng, 10, 0.15);
    for (const datalog::UpdateRequest& batch :
         batches[static_cast<std::size_t>(s)]) {
      (void)reference->Submit(batch);
    }
    reference->Close();
    ExpectStoresEqual(reference->Db().GetProgram(), reference->Store(),
                      session.Store(),
                      ("budgeted session mb" + std::to_string(s) +
                       " vs unbudgeted replay")
                          .c_str());
  }
}

TEST(ServiceTest, QueriesSeeAppliedEpochs) {
  EngineHost host({.workers = 2});
  auto session = host.OpenSession(kWideProgram, {.name = "q"});
  for (int i = 0; i < 4; ++i) {
    session->Insert("n", {datalog::Value::Int(i)});
  }
  session->Insert("e", {datalog::Value::Int(0), datalog::Value::Int(1)});
  session->Materialize();
  EXPECT_TRUE(session->Contains(
      "tc", {datalog::Value::Int(0), datalog::Value::Int(1)}));

  auto update = session->MakeUpdate();
  update.Insert("e", {datalog::Value::Int(1), datalog::Value::Int(2)});
  (void)session->Submit(update).get();
  EXPECT_TRUE(session->Contains(
      "tc", {datalog::Value::Int(0), datalog::Value::Int(2)}));
  session->Close();
}

/// The exception `future` fails with; null (and a test failure) when it
/// resolves instead.
std::exception_ptr FailureOf(std::future<UpdateOutcome>& future) {
  try {
    (void)future.get();
  } catch (...) {
    return std::current_exception();
  }
  ADD_FAILURE() << "the batch applied instead of failing";
  return nullptr;
}

/// The message of an InvalidArgument `error`; empty for anything else.
std::string InvalidArgumentMessage(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const util::InvalidArgument& err) {
    return err.what();
  } catch (...) {
  }
  return {};
}

TEST(ServiceTest, ThrowingTaskBodyFailsOnlyItsBatch) {
  // An ordered comparison or a sum over a symbol throws inside a pool task
  // body.  That batch's future fails with the message, and the session
  // stays live: the next batch applies, unpipelined and at depth 4.
  EngineHost host({.workers = 2});
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("K=" + std::to_string(depth));
    auto session = host.OpenSession(R"(
      small(X) :- v(X), X < 5.
      total(K; sum(V)) :- w(K, V).
    )",
                                    {.scheduler_spec = "hybrid",
                                     .pipeline_depth = depth});
    (void)session->Materialize();
    ASSERT_EQ(session->PipelineDepth(), depth);

    auto compare = session->MakeUpdate();
    compare.Insert("v", {session->Sym("oops")});
    auto sum = session->MakeUpdate();
    sum.Insert("w", {datalog::Value::Int(1), session->Sym("oops")});
    auto good = session->MakeUpdate();
    good.Insert("v", {datalog::Value::Int(4)});
    std::future<UpdateOutcome> compare_future = session->Submit(compare);
    std::future<UpdateOutcome> sum_future = session->Submit(sum);
    std::future<UpdateOutcome> good_future = session->Submit(good);

    const std::exception_ptr compare_error = FailureOf(compare_future);
    const std::exception_ptr sum_error = FailureOf(sum_future);
    EXPECT_EQ(good_future.get().epoch, 3u);
    session->Drain();
    EXPECT_EQ(session->AppliedEpoch(), 3u);
    EXPECT_TRUE(session->Contains("small", {datalog::Value::Int(4)}));
    // Read the messages only once Close has joined the apply threads.  An
    // apply thread's promise shares each exception object with this
    // thread, and its last reference must drop here, after the reads.
    session->Close();
    EXPECT_EQ(InvalidArgumentMessage(compare_error),
              "ordered comparison requires integer operands");
    EXPECT_EQ(InvalidArgumentMessage(sum_error),
              "sum aggregates integer values only");
  }
  EXPECT_EQ(host.Router().OpenChannels(), 0u);
}

TEST(ServiceTest, ThrowingTaskBodyFailsOnlyItsBatchOnBothDispatchPaths) {
  // The failing batch is padded with harmless facts to run inline (one
  // change) or on the pool (kInlineMaxBaseChanges + 1 changes).  Either
  // way only its own future fails, and the next batch applies; an inline
  // failure never touches the pool.
  constexpr std::size_t kTheta = datalog::kInlineMaxBaseChanges;
  EngineHost host({.workers = 2});
  for (const std::size_t size : {std::size_t{1}, kTheta + 1}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("|delta|=" + std::to_string(size) +
                   " K=" + std::to_string(depth));
      auto session = host.OpenSession(R"(
        small(X) :- v(X), X < 5.
        seen(X) :- pad(X).
      )",
                                      {.scheduler_spec = "hybrid",
                                       .pipeline_depth = depth});
      (void)session->Materialize();
      auto bad = session->MakeUpdate();
      bad.Insert("v", {session->Sym("oops")});
      for (std::size_t i = 1; i < size; ++i) {
        bad.Insert("pad", {datalog::Value::Int(static_cast<std::int64_t>(i))});
      }
      auto good = session->MakeUpdate();
      good.Insert("v", {datalog::Value::Int(4)});
      const std::uint64_t submitted = host.Router().PoolStats().submitted;
      std::future<UpdateOutcome> bad_future = session->Submit(bad);
      std::future<UpdateOutcome> good_future = session->Submit(good);

      const std::exception_ptr bad_error = FailureOf(bad_future);
      const UpdateOutcome outcome = good_future.get();
      EXPECT_EQ(outcome.epoch, 2u);
      EXPECT_TRUE(outcome.run.ran_inline);
      session->Drain();
      EXPECT_TRUE(session->Contains("small", {datalog::Value::Int(4)}));
      if (size <= kTheta) {
        EXPECT_EQ(host.Router().PoolStats().submitted, submitted);
      } else {
        EXPECT_GT(host.Router().PoolStats().submitted, submitted);
      }
      session->Close();
      EXPECT_EQ(InvalidArgumentMessage(bad_error),
                "ordered comparison requires integer operands");
    }
  }
  EXPECT_EQ(host.Router().OpenChannels(), 0u);
}

}  // namespace
}  // namespace dsched::service
