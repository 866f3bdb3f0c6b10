// Stress tests for the work-stealing pool + batched executor: random DAGs
// × every scheduler spec × 1..8 workers, asserting the precedence
// guarantee the whole model rests on (no task starts before all of its
// activated ancestors completed), and store equality between ApplyParallel
// and the serial incremental engine under the same sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "datalog/eval.hpp"
#include "datalog/incremental.hpp"
#include "datalog/parallel_update.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "runtime/executor.hpp"
#include "sched/factory.hpp"
#include "trace/cascade.hpp"
#include "runtime/task_router.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::runtime {
namespace {

constexpr const char* kSpecs[] = {"levelbased", "levelbased:fifo",
                                  "levelbased:lpt", "lbl:3", "logicblox",
                                  "signal", "hybrid"};

/// active_ancestors[v] = the activated ancestors of v (restricted to the
/// cascade's active set), computed offline from the ground-truth cascade.
std::vector<std::vector<util::TaskId>> ActiveAncestors(
    const trace::JobTrace& trace, const trace::Cascade& cascade) {
  const graph::Dag& dag = trace.Graph();
  const std::size_t n = dag.NumNodes();
  // ancestors as bitsets over active nodes; n stays small in these tests.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  // Process in topological order: node ids of MakeRandomDag are already
  // topological (edges only go u < v), but be generic: iterate until fixed
  // point is unnecessary — use a topological iteration via in-degree.
  std::vector<std::size_t> indegree(n, 0);
  for (util::TaskId u = 0; u < n; ++u) {
    for (const util::TaskId v : dag.OutNeighbors(u)) {
      ++indegree[v];
    }
  }
  std::vector<util::TaskId> order;
  order.reserve(n);
  for (util::TaskId u = 0; u < n; ++u) {
    if (indegree[u] == 0) {
      order.push_back(u);
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const util::TaskId u = order[head];
    for (const util::TaskId v : dag.OutNeighbors(u)) {
      for (std::size_t a = 0; a < n; ++a) {
        if (reach[u][a]) {
          reach[v][a] = true;
        }
      }
      reach[v][u] = true;
      if (--indegree[v] == 0) {
        order.push_back(v);
      }
    }
  }
  std::vector<std::vector<util::TaskId>> result(n);
  for (util::TaskId v = 0; v < n; ++v) {
    if (!cascade.active[v]) {
      continue;
    }
    for (std::size_t a = 0; a < n; ++a) {
      if (reach[v][a] && cascade.active[a]) {
        result[v].push_back(static_cast<util::TaskId>(a));
      }
    }
  }
  return result;
}

TEST(RuntimeStressTest, PrecedenceHoldsAcrossSchedulersAndWorkerCounts) {
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    util::Rng rng(seed);
    const trace::JobTrace trace =
        trace::MakeRandomDag(70, 0.07, 0.2, 0.65, rng);
    const trace::Cascade cascade = trace::ComputeCascade(trace);
    const auto ancestors = ActiveAncestors(trace, cascade);
    for (std::size_t workers = 1; workers <= 8; ++workers) {
      TaskRouter router({.workers = workers});
      for (const char* spec : kSpecs) {
        auto scheduler = sched::CreateScheduler(spec);
        std::vector<std::atomic<bool>> completed(trace.NumNodes());
        for (auto& flag : completed) {
          flag.store(false);
        }
        std::atomic<int> violations{0};
        const auto stats = Executor::Run(
            router, trace, *scheduler,
            [&](util::TaskId t, std::size_t) {
              for (const util::TaskId a : ancestors[t]) {
                if (!completed[a].load()) {
                  violations.fetch_add(1);
                }
              }
              completed[t].store(true);
              return trace.Info(t).output_changes;
            },
            {});
        EXPECT_EQ(violations.load(), 0)
            << spec << " workers=" << workers << " seed=" << seed;
        EXPECT_EQ(stats.executed, cascade.NumActive())
            << spec << " workers=" << workers << " seed=" << seed;
        EXPECT_EQ(stats.completion_pushes, stats.executed);
      }
      EXPECT_EQ(router.OpenChannels(), 0u);
    }
  }
}

TEST(RuntimeStressTest, BatchedDispatchKeepsStatsConsistent) {
  util::Rng rng(5);
  const trace::JobTrace trace = trace::MakeRandomDag(80, 0.06, 0.3, 0.7, rng);
  auto scheduler = sched::CreateScheduler("hybrid");
  TaskRouter router({.workers = 4});
  const auto stats =
      Executor::Run(router, trace, *scheduler, Executor::TaskBody{}, {});
  EXPECT_EQ(stats.dispatched, stats.executed);
  EXPECT_GE(stats.dispatch_batches, 1u);
  EXPECT_LE(stats.dispatch_batches, stats.dispatched);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t count : stats.batch_size_hist) {
    hist_total += count;
  }
  EXPECT_EQ(hist_total, stats.dispatch_batches);
  EXPECT_GE(stats.max_dispatch_batch, 1u);
  EXPECT_GE(stats.completion_drains, 1u);
  // Each drain handles >= 1 completion; batching means usually many.
  EXPECT_LE(stats.completion_drains, stats.executed);
}

// --- ApplyParallel vs the serial engine, across specs × worker counts ---

// Program + helpers shared with the parallel and service tests.
using dsched::testing::kWideProgram;
using dsched::testing::SerialUpdate;
using dsched::testing::Sorted;

/// Input 1 of the sweep: a hand-built base instance, with `e` and `mark`
/// changes in every batch.
void ExpectHandBuiltStreamMatchesSerial(TaskRouter& router, const char* spec) {
  using datalog::Tuple;
  using datalog::Value;
  datalog::Program seq_program = datalog::ParseProgram(kWideProgram);
  datalog::ValidateProgram(seq_program);
  const datalog::Stratification seq_strat = datalog::Stratify(seq_program);
  datalog::RelationStore seq_store(seq_program);
  const std::shared_ptr<const datalog::CompiledProgram> par =
      datalog::CompileProgram(datalog::ParseProgram(kWideProgram));
  const datalog::Program& par_program = par->program;
  const datalog::Stratification& par_strat = par->strat;
  datalog::RelationStore par_store(par_program);

  util::Rng rng(1234);
  const auto e = seq_program.PredicateId("e");
  const auto n_pred = seq_program.PredicateId("n");
  const auto mark = seq_program.PredicateId("mark");
  for (int i = 0; i < 9; ++i) {
    seq_store.Of(n_pred).Insert({Value::Int(i)});
    par_store.Of(n_pred).Insert({Value::Int(i)});
    if (rng.NextBool(0.4)) {
      seq_store.Of(mark).Insert({Value::Int(i)});
      par_store.Of(mark).Insert({Value::Int(i)});
    }
  }
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      if (i != j && rng.NextBool(0.18)) {
        seq_store.Of(e).Insert({Value::Int(i), Value::Int(j)});
        par_store.Of(e).Insert({Value::Int(i), Value::Int(j)});
      }
    }
  }
  datalog::EvaluateProgram(seq_program, seq_strat, seq_store);
  datalog::EvaluateProgram(par_program, par_strat, par_store);

  util::Rng update_rng(999);
  for (int batch = 0; batch < 3; ++batch) {
    datalog::UpdateRequest request;
    for (int tries = 0; tries < 6; ++tries) {
      const int i = static_cast<int>(update_rng.NextBelow(9));
      const int j = static_cast<int>(update_rng.NextBelow(9));
      if (i == j) {
        continue;
      }
      if (update_rng.NextBool(0.5)) {
        request.insertions.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
      } else {
        request.deletions.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
      }
    }
    const int m = static_cast<int>(update_rng.NextBelow(9));
    if (update_rng.NextBool(0.5)) {
      request.insertions.emplace_back(mark, Tuple{Value::Int(m)});
    } else {
      request.deletions.emplace_back(mark, Tuple{Value::Int(m)});
    }

    (void)SerialUpdate(seq_program, seq_strat, seq_store, request);
    (void)datalog::ApplyParallel(*par, par_store, request, router,
                                 {.scheduler_spec = spec});
    for (std::uint32_t pred = 0; pred < seq_program.NumPredicates(); ++pred) {
      EXPECT_EQ(Sorted(seq_store.Of(pred).Tuples()),
                Sorted(par_store.Of(pred).Tuples()))
          << spec << " workers=" << router.NumWorkers() << " batch=" << batch
          << " predicate " << seq_program.predicate_names[pred];
    }
  }
}

/// Input 2 of the sweep: the shared WideFixture base and its random
/// update stream.
void ExpectFixtureStreamMatchesSerial(TaskRouter& router, const char* spec) {
  util::Rng rng(321);
  dsched::testing::WideFixture serial;
  serial.Base(rng, 9, 0.18);
  util::Rng rng2(321);
  dsched::testing::WideFixture routed;
  routed.Base(rng2, 9, 0.18);

  util::Rng update_rng(654);
  for (int batch = 0; batch < 3; ++batch) {
    const datalog::UpdateRequest request =
        dsched::testing::RandomUpdate(serial.program, update_rng, 9);
    (void)SerialUpdate(serial.program, serial.strat, serial.store, request);
    const auto result = datalog::ApplyParallel(
        *routed.compiled, routed.store, request, router,
        {.scheduler_spec = spec});
    EXPECT_GT(result.run.executed, 0u)
        << spec << " workers=" << router.NumWorkers() << " batch=" << batch;
    dsched::testing::ExpectStoresEqual(serial.program, serial.store,
                                       routed.store, spec);
  }
}

/// Input 3 of the sweep: batches one change above the inline threshold,
/// so every cascade runs on the router's pool whatever its worker count.
/// (Inputs 1 and 2 are small batches, which run inline.)
void ExpectPooledStreamMatchesSerial(TaskRouter& router, const char* spec) {
  util::Rng rng(4321);
  dsched::testing::WideFixture serial;
  serial.Base(rng, 9, 0.18);
  util::Rng rng2(4321);
  dsched::testing::WideFixture routed;
  routed.Base(rng2, 9, 0.18);

  util::Rng update_rng(987);
  for (int batch = 0; batch < 2; ++batch) {
    datalog::UpdateRequest request;
    while (request.insertions.size() + request.deletions.size() <=
           datalog::kInlineMaxBaseChanges) {
      const datalog::UpdateRequest more =
          dsched::testing::RandomUpdate(serial.program, update_rng, 9);
      request.insertions.insert(request.insertions.end(),
                                more.insertions.begin(), more.insertions.end());
      request.deletions.insert(request.deletions.end(), more.deletions.begin(),
                               more.deletions.end());
    }
    (void)SerialUpdate(serial.program, serial.strat, serial.store, request);
    const auto result = datalog::ApplyParallel(
        *routed.compiled, routed.store, request, router,
        {.scheduler_spec = spec});
    EXPECT_FALSE(result.run.ran_inline)
        << spec << " workers=" << router.NumWorkers() << " batch=" << batch;
    dsched::testing::ExpectStoresEqual(serial.program, serial.store,
                                       routed.store, spec);
  }
}

TEST(RuntimeStressTest, ParallelStoreEqualsSerialAcrossSweep) {
  // One shared router per worker count, reused across every spec and
  // batch — the service-layer configuration.
  for (const std::size_t workers : {1u, 2u, 5u, 8u}) {
    TaskRouter router({.workers = workers});
    for (const char* spec : kSpecs) {
      ExpectHandBuiltStreamMatchesSerial(router, spec);
      ExpectFixtureStreamMatchesSerial(router, spec);
      ExpectPooledStreamMatchesSerial(router, spec);
    }
    EXPECT_EQ(router.OpenChannels(), 0u);
  }
}

}  // namespace
}  // namespace dsched::runtime
