// Real multithreaded execution of an activation cascade.
//
// The simulator (src/sim) charges virtual time; this executor runs *actual*
// closures on a worker pool under any Scheduler policy, proving the
// policies drive real parallel work — the examples use it to re-execute
// Datalog components.
//
// Hot-path design (the scheduling-overhead claim made real): the scheduler
// is single-threaded by contract and is touched only by the coordinator
// (caller) thread, so it needs NO lock at all.  Dispatch drains whole ready
// frontiers through PopReadyBatch and hands them to the work-stealing pool
// in one batched submit; workers publish completions into a single MPSC
// buffer the coordinator drains with one lock acquisition + vector swap per
// wakeup.  Per-task costs left on the hot path: one worker-side push under
// the completion mutex, and the task body itself — no per-task notify, no
// per-task std::function allocation, no per-task scheduler lock.
//
// A cascade too small to repay a pool round trip runs inline instead
// (Options::run_inline): the coordinator runs each popped batch itself,
// through the same scheduler, fence and budget gates, with no channel and
// no completion buffer.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "runtime/pipeline.hpp"
#include "runtime/task_router.hpp"
#include "sched/scheduler.hpp"
#include "trace/job_trace.hpp"

namespace dsched::runtime {

using util::TaskId;

/// The live-resource account of the executor's per-task accounting plane:
/// bytes acquired when a task is dispatched (its TaskInfo::resource_utility
/// estimate) and released when its completion drains.  A cascade with no
/// Options::account uses a private one; a service session shares ONE
/// account across its K pipelined epoch cascades so the session ceiling
/// covers them together.  `live`/`peak` are atomics because sibling epoch
/// coordinators acquire and release concurrently; `released` lets a
/// cascade that ran completely dry under the budget gate block until a
/// sibling's drain frees bytes (the releaser taps the mutex before
/// notifying, so no wakeup is lost).
struct ResourceAccount {
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> peak{0};
  std::mutex mutex;
  std::condition_variable released;

  /// Acquire `bytes` and fold the new level into `peak`; returns the live
  /// level after the acquisition.
  std::uint64_t Acquire(std::uint64_t bytes) {
    const std::uint64_t now =
        live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    FoldPeak(now);
    return now;
  }

  /// Budget-bounded acquire: succeeds only if the account stays at or
  /// under `budget`.  CAS-looped so concurrent sibling coordinators can
  /// never jointly overshoot the ceiling.  Returns the live level after a
  /// successful acquisition, 0 on refusal.
  std::uint64_t TryAcquire(std::uint64_t bytes, std::uint64_t budget) {
    std::uint64_t cur = live.load(std::memory_order_relaxed);
    do {
      if (cur + bytes > budget) {
        return 0;
      }
    } while (!live.compare_exchange_weak(cur, cur + bytes,
                                         std::memory_order_relaxed));
    const std::uint64_t now = cur + bytes;
    FoldPeak(now);
    return now;
  }

  /// Solo acquire for a task larger than the whole budget: only succeeds
  /// from a completely idle account (0 -> bytes), so the ceiling is never
  /// exceeded by more than one lone oversized task.
  std::uint64_t TryAcquireSolo(std::uint64_t bytes) {
    std::uint64_t expected = 0;
    if (!live.compare_exchange_strong(expected, bytes,
                                      std::memory_order_relaxed)) {
      return 0;
    }
    FoldPeak(bytes);
    return bytes;
  }

  /// Release `bytes` and wake any coordinator blocked on the budget gate.
  void Release(std::uint64_t bytes, bool notify) {
    live.fetch_sub(bytes, std::memory_order_relaxed);
    if (notify) {
      { const std::lock_guard<std::mutex> lock(mutex); }
      released.notify_all();
    }
  }

 private:
  void FoldPeak(std::uint64_t now) {
    std::uint64_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
};

/// Executes the activation cascade of a trace with real task bodies.
class Executor {
 public:
  /// A task body: does the task's work for `task` on pool worker `worker`
  /// (in [0, router.NumWorkers())) and returns true iff the task's output
  /// changed (which activates its children).  The worker index is how
  /// per-worker state — e.g. the parallel Datalog engine's worker-local
  /// delta buffers — reaches the body without thread-local lookups.
  /// Bodies run concurrently and must not touch the scheduler.  A null
  /// body falls back to the trace's recorded output_changes bits and does
  /// no work.
  using TaskBody = std::function<bool(TaskId task, std::size_t worker)>;

  struct Options {
    /// Epoch-pipelining context (runtime/pipeline.hpp).  When set, popped
    /// tasks whose fence exceeds epoch-1's finalized level are HELD at the
    /// coordinator (never blocking a pool worker) until the frontier
    /// advances, and this cascade publishes its own per-level finalization
    /// as tasks drain.  Null = unpipelined.
    const PipelineGate* gate = nullptr;
    /// Live-resource ceiling in accounted bytes (0 = account only, never
    /// gate).  A popped task whose resource_utility would push the account
    /// over the budget is DEFERRED at the coordinator (like fence-held
    /// tasks, it never blocks a pool worker) until enough bytes release.
    /// Deferral is FIFO head-blocking, so a large task cannot be starved
    /// by a stream of small ones.  Escape hatch: when the account is
    /// completely idle (live == 0) a task larger than the whole budget
    /// runs alone — the accounted ceiling is therefore
    /// max(memory_budget, largest single utility), and exhaustion
    /// manifests as a slower cascade (backpressure), never a failure.
    std::uint64_t memory_budget = 0;
    /// Account shared across cascades (a session's K pipelined epochs);
    /// null = a private per-run account.
    ResourceAccount* account = nullptr;
    /// Run every task on the calling (coordinator) thread instead of the
    /// router's pool: no channel is opened, completions skip the buffer
    /// lock, and every body sees worker 0.  The scheduler, fence and
    /// budget gates and the exception contract are those of a pooled run.
    /// Engine-set: the parallel Datalog engine picks it for cascades too
    /// small to repay a pool round trip (datalog/parallel_update.cpp).
    bool run_inline = false;
  };

  /// log2 buckets for the dispatch batch size histogram: bucket i counts
  /// batches of size in [2^i, 2^(i+1)).
  static constexpr std::size_t kBatchHistBuckets = 20;

  struct RunStats {
    std::size_t executed = 0;
    std::size_t activations = 0;
    double wall_seconds = 0.0;        ///< end-to-end
    double sched_wall_seconds = 0.0;  ///< inside scheduler calls
    /// Coordinator time spent on the serialized dispatch path: scheduler
    /// calls, batch submits, and completion bookkeeping — but NOT time
    /// blocked waiting for workers, nor (inline) time inside task bodies.
    /// sched_wall_seconds is the scheduler-policy subcomponent; the
    /// difference is the executor's own dispatch overhead.
    double dispatch_wall_seconds = 0.0;
    /// Coordinator time blocked waiting for a completion to arrive (or, on
    /// the budget and fence gates, for a sibling cascade).
    double idle_wall_seconds = 0.0;
    /// The cascade ran on the coordinator thread (Options::run_inline).
    bool ran_inline = false;

    // --- contention observability (all counted, not asserted) ---
    std::uint64_t dispatch_batches = 0;  ///< PopReadyBatch calls that yielded work
    std::uint64_t dispatched = 0;        ///< tasks handed to the pool
    std::uint64_t max_dispatch_batch = 0;
    /// log2 histogram of non-empty dispatch batch sizes.
    std::array<std::uint64_t, kBatchHistBuckets> batch_size_hist{};
    /// Coordinator-side completion-buffer drains (one lock + swap each;
    /// 0 inline).
    std::uint64_t completion_drains = 0;
    /// Worker-side completion pushes (one short lock each; == executed on
    /// the pool, 0 inline).
    std::uint64_t completion_pushes = 0;
    /// Most tasks simultaneously dispatched and not yet drained — the
    /// ready-queue depth high-water mark seen by the coordinator.
    std::uint64_t inflight_high_water = 0;

    // --- epoch pipelining (all zero for ungated cascades) ---
    /// Times the coordinator ran completely dry (no inflight work) with
    /// only fence-held tasks left and had to block on the previous epoch's
    /// frontier.
    std::uint64_t frontier_stalls = 0;
    /// Coordinator time blocked in those stalls.
    double frontier_stall_seconds = 0.0;

    // --- resource accounting plane (all zero for utility-free traces) ---
    /// Sum of resource_utility over dispatched tasks.
    std::uint64_t mem_acquired_bytes = 0;
    /// Highest live-account level this cascade observed (includes bytes
    /// held by sibling cascades on a shared account).
    std::uint64_t mem_peak_bytes = 0;
    /// Dispatches parked by the budget gate.
    std::uint64_t mem_deferred = 0;
    /// Times the coordinator ran dry and blocked on a sibling's release.
    std::uint64_t mem_budget_stalls = 0;
    /// Over-budget solo dispatches (single task larger than the budget).
    std::uint64_t mem_forced = 0;

    /// Mean tasks per non-empty dispatch batch.
    [[nodiscard]] double AvgDispatchBatch() const {
      return dispatch_batches == 0
                 ? 0.0
                 : static_cast<double>(dispatched) /
                       static_cast<double>(dispatch_batches);
    }
  };

  /// Runs the cascade to completion on the router's shared pool, or on the
  /// calling thread when options.run_inline is set.  Pooled tasks are
  /// tagged with a router channel, so concurrent Run calls from different
  /// coordinator threads (one per service session) interleave their
  /// cascades on the same workers.  The scheduler must be fresh (Prepare
  /// is called here, with router.NumWorkers() processors either way, so an
  /// inline cascade pops the batches a pooled one would).
  /// Steal/sleep behaviour belongs to the shared pool, not to any one
  /// cascade: read it from TaskRouter::PoolStats (host.pool.* metrics).
  ///
  /// Throws util::LogicError on scheduler deadlock.  A body that throws
  /// fails the cascade, not the process: the task counts as unchanged, the
  /// cascade drains (and, when gated, finalizes its frontier), and Run
  /// rethrows the first body exception once the channel is closed.
  static RunStats Run(TaskRouter& router, const trace::JobTrace& trace,
                      sched::Scheduler& scheduler, const TaskBody& body,
                      const Options& options);
};

}  // namespace dsched::runtime
