#include "datalog/parallel_update.hpp"

#include <algorithm>

#include "datalog/delta_buffer.hpp"
#include "sched/factory.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

ParallelUpdateResult ApplyParallel(const CompiledProgram& compiled,
                                   RelationStore& store,
                                   const UpdateRequest& request,
                                   runtime::TaskRouter& router,
                                   const ParallelUpdateOptions& options) {
  DSCHED_CHECK_MSG(options.scheduler_spec.find("oracle") == std::string::npos,
                   "the clairvoyant oracle cannot drive a live update — it "
                   "needs the outcome in advance");
  util::WallTimer total_timer;
  const Program& program = compiled.program;
  const Stratification& strat = compiled.strat;
  const ActivationGraph& graph = compiled.graph;
  const std::vector<util::TaskId>& component_node = graph.component_node;
  const std::size_t num_preds = program.NumPredicates();
  const std::size_t num_comps = strat.NumComponents();
  const MaintenanceStrategy strategy =
      options.strategy.value_or(MaintenanceStrategy::kDRed);

  // --- Node info.  Change bits are irrelevant here: the executor asks
  // the task bodies at runtime — exactly the paper's dynamic model.
  std::vector<trace::TaskInfo> infos = graph.node_info;

  // --- Initially dirty: base-touched predicates (their component task when
  // rules are involved).
  const GroupedBaseChanges base(program, request);
  std::vector<util::TaskId> dirty;
  for (std::size_t p = 0; p < num_preds; ++p) {
    if (base.insertions[p].empty() && base.deletions[p].empty()) {
      continue;
    }
    const std::uint32_t c = strat.component_of[p];
    dirty.push_back(component_node[c] == util::kInvalidTask
                        ? static_cast<util::TaskId>(p)
                        : component_node[c]);
  }

  // --- Per-task resource utility, the accounting plane's estimate: each
  // phase-running node carries sum over its component's member predicates
  // of arity x estimated delta cardinality x sizeof(Value).  Base-touched
  // members use the exact batch counts; derived members estimate an
  // eighth of their current materialisation (floor 1 row) — the executor
  // acquires this on dispatch and releases it on completion, which is
  // what session memory ceilings and the meta-scheduler's kill rule
  // meter.  Derived-predicate collectors only forward a flag, so they
  // stay at zero.
  const auto estimated_delta = [&](std::uint32_t p) -> std::uint64_t {
    const std::uint64_t touched = static_cast<std::uint64_t>(
        base.insertions[p].size() + base.deletions[p].size());
    return touched != 0 ? touched : 1 + store.Of(p).Size() / 8;
  };
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    std::uint64_t bytes = 0;
    for (const std::uint32_t p : strat.component_members[c]) {
      bytes += static_cast<std::uint64_t>(program.predicate_arities[p]) *
               estimated_delta(p) * sizeof(Value);
    }
    const util::TaskId node =
        component_node[c] != util::kInvalidTask
            ? component_node[c]
            : static_cast<util::TaskId>(strat.component_members[c].front());
    infos[node].resource_utility = bytes;
  }

  ParallelUpdateResult result;
  result.trace = trace::JobTrace("parallel-update", graph.dag,
                                 std::move(infos), std::move(dirty));

  // --- Shared (but phase-disjoint) update state.
  std::vector<PredicateDelta> net(num_preds);
  std::vector<ComponentUpdateStats> stats(num_comps);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    stats[c].component = c;
  }
  // Per-predicate net-changed flags (uint8_t: adjacent elements must not
  // share a byte the way vector<bool> bits would).
  std::vector<std::uint8_t> pred_changed(num_preds, 0);

  // Dispatch in proportion to work: a small batch's cascade runs inline on
  // this thread, a large one on the router's pool.
  const bool run_inline = request.insertions.size() +
                              request.deletions.size() <=
                          kInlineMaxBaseChanges;

  // One write buffer per executor worker: a phase stages its base inserts
  // per shard and publishes them lock-free (see delta_buffer.hpp).  Buffers
  // are indexed by the worker running the task, so each is single-owner —
  // one buffer per POOL worker, since worker indices span the router's pool
  // (inline, every task runs as worker 0).
  std::vector<StoreWriteBuffer> scratch(run_inline ? 1 : router.NumWorkers());

  const auto run_phase = [&](std::uint32_t c, std::size_t worker) -> bool {
    stats[c] = RunMaintenancePhase(strategy, program, strat, c, store,
                                   base, net, &scratch[worker]);
    bool changed = false;
    for (const std::uint32_t p : strat.component_members[c]) {
      if (!net[p].Empty()) {
        pred_changed[p] = 1;
        changed = true;
      }
    }
    return changed;
  };

  // --- Epoch-pipeline gate over the graph's per-node levels and fences.
  const runtime::PipelineGate gate{.frontier = options.frontier,
                                   .epoch = options.epoch,
                                   .node_level = &graph.node_level,
                                   .node_fence = &graph.node_fence,
                                   .num_levels = graph.num_levels};

  auto scheduler = sched::CreateScheduler(options.scheduler_spec);
  const runtime::Executor::TaskBody task_body(
      [&](util::TaskId t, std::size_t worker) -> bool {
        const std::uint32_t c = graph.node_component[t];
        if (t >= num_preds || component_node[c] == util::kInvalidTask) {
          // A component task, or a rule-less base predicate whose
          // collector runs the phase itself.
          return run_phase(c, worker);
        }
        // Derived predicate collector: forward the owner's verdict.
        return pred_changed[t] != 0;
      });
  result.run = runtime::Executor::Run(
      router, result.trace, *scheduler, task_body,
      {.gate = options.frontier != nullptr ? &gate : nullptr,
       .memory_budget = options.memory_budget,
       .account = options.account,
       .run_inline = run_inline});

  // --- Record the run into the trace: measured component work, and each
  // node's change bit (collectors stay zero-work and take their
  // predicate's forwarded bit).
  for (std::size_t p = 0; p < num_preds; ++p) {
    result.trace.RecordOutcome(static_cast<util::TaskId>(p), 0.0,
                               pred_changed[p] != 0);
  }
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    if (component_node[c] != util::kInvalidTask) {
      result.trace.RecordOutcome(component_node[c],
                                 std::max(stats[c].seconds, 1e-6),
                                 stats[c].output_changed);
    }
  }

  // --- Assemble the sequential-compatible result.
  for (const std::uint32_t c : strat.component_order) {
    result.update.total_inserted += stats[c].tuples_inserted;
    result.update.total_deleted += stats[c].tuples_deleted;
    result.update.total_maint_ops += stats[c].maint_ops;
    result.update.components.push_back(std::move(stats[c]));
  }
  result.update.seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace dsched::datalog
