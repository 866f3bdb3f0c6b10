// Parallel incremental maintenance — the paper's system, closed full
// circle: the per-component DRed phases of one update batch are executed
// as REAL task bodies on a worker pool, ordered by any of the library's
// schedulers over the very activation DAG the paper models.
//
// How it maps onto the model:
//  * DAG nodes: one zero-work collector per predicate, one task per rule
//    component — the program version's ActivationGraph (pipeline_plan.hpp),
//    built once at compile time and shared by every update;
//  * initially dirty: the base predicates the update touches (their
//    component task, when they have rules);
//  * a component task's body runs RunComponentPhase — the actual
//    overdelete / rederive / insert work — and reports whether its
//    relations net-changed, which is what activates downstream collectors;
//  * a collector's body just forwards its predicate's change flag.
// Phase isolation comes from the DAG itself: a phase writes only its
// member relations and net-delta slots, and every reader is a descendant
// the scheduler will not start until the phase completes — the
// "activated ancestors first" rule doing real synchronization work.
//
// Per update only the activation is computed: the dirty set, each task's
// resource utility, and the task bodies.  The run's outcome is recorded
// into the returned JobTrace: measured work per component task and the
// change bit of every node.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "datalog/compiled_program.hpp"
#include "datalog/incremental.hpp"
#include "datalog/maintenance.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "trace/job_trace.hpp"

namespace dsched::datalog {

/// Largest update, in base changes (insertions + deletions), whose cascade
/// runs inline on the calling thread instead of the router's pool: below
/// it a pool round trip costs more than it saves.  Taken from the sweep in
/// EXPERIMENTS.md ("Dispatch in proportion to work"); not an option.
inline constexpr std::size_t kInlineMaxBaseChanges = 64;

/// Options for one parallel update.
struct ParallelUpdateOptions {
  /// Scheduler factory spec driving the execution ("hybrid", "levelbased",
  /// "lbl:<k>", "logicblox", "signal", "oracle" is NOT allowed — it would
  /// need the outcome in advance).
  std::string scheduler_spec = "hybrid";
  /// How each component phase maintains deletions (maintenance.hpp).
  /// B/F falls back to DRed per component where required.  Empty = the
  /// database default (Database::SetDefaultStrategy); DRed when called
  /// without a Database.
  std::optional<MaintenanceStrategy> strategy;

  // --- epoch pipelining (runtime/pipeline.hpp, DESIGN.md §12) ----------
  /// When set, this update joins its session's epoch pipeline: the
  /// coordinator holds back each component task until epoch-1 has
  /// finalized every level the task's writes could race with (the
  /// activation graph's fences), and publishes this cascade's own
  /// per-level finalization as the levels drain.  The caller owns the
  /// frontier (one per session) and guarantees the strategy is
  /// pipeline-eligible when epochs overlap.  Null = unpipelined.
  runtime::StratumFrontier* frontier = nullptr;
  /// The dense 1-based session epoch of this update, used to gate on
  /// epoch-1's frontier entry.
  std::uint64_t epoch = 0;

  // --- resource accounting (runtime/executor.hpp) ----------------------
  /// Live-resource ceiling for this update's accounted task utilities;
  /// 0 = account but never gate.  Exhaustion defers dispatch at the
  /// coordinator (backpressure), never fails the update.
  std::uint64_t memory_budget = 0;
  /// Account shared across this session's pipelined cascades so one
  /// ceiling covers all in-flight epochs; null = per-update account.
  runtime::ResourceAccount* account = nullptr;
};

/// Result of a parallel update.
struct ParallelUpdateResult {
  /// Per-component stats, same semantics as PropagateUpdateWithStrategy's
  /// (components in evaluation order; untouched ones marked unchanged).
  UpdateResult update;
  /// Executor-level stats: tasks run, activations, wall time, scheduler
  /// decision time.
  runtime::Executor::RunStats run;
  /// The recorded cascade over the version's shared activation graph
  /// (node ids as ActivationGraph): the initially dirty nodes, each
  /// component task's measured seconds as work and span (floored at 1 µs,
  /// so an untouched task still costs something if a pessimistic scheduler
  /// runs it), collectors at zero work, and every node's change bit —
  /// ready for trace::ComputeCascade and the simulator.
  trace::JobTrace trace;
};

/// Applies `request` to `store` (materialized under `compiled`), running
/// the cascade on `router`'s shared pool (one channel per update — this is
/// how the service layer interleaves many sessions' cascades on one pool),
/// or inline on the calling thread when the request has at most
/// kInlineMaxBaseChanges base changes.  Either way the same scheduler
/// orders it.  Equivalent to a serial PropagateUpdateWithStrategy in final
/// state (the tests verify store equality); faster when independent
/// components dominate.
[[nodiscard]] ParallelUpdateResult ApplyParallel(
    const CompiledProgram& compiled, RelationStore& store,
    const UpdateRequest& request, runtime::TaskRouter& router,
    const ParallelUpdateOptions& options = {});

}  // namespace dsched::datalog
