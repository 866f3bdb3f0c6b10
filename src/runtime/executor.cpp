#include "runtime/executor.hpp"

#include <bit>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::runtime {

namespace {

struct Completion {
  TaskId task;
  bool changed;
};

// MPSC completion buffer: workers push under a short lock; the coordinator
// drains everything accumulated with a single lock + swap.  notify_one
// fires only on the empty→non-empty edge (the coordinator is the only
// waiter and drains fully), so completions arriving while it is busy cost
// no wakeup at all.
class CompletionBuffer {
 public:
  void Push(TaskId task, bool changed) {
    bool was_empty = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      was_empty = items_.empty();
      items_.push_back({task, changed});
    }
    if (was_empty) {
      arrived_.notify_one();
    }
  }

  /// Blocks until at least one completion is buffered, then swaps the whole
  /// buffer into `out` (coordinator only).
  void WaitAndDrain(std::vector<Completion>& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait(lock, [this] { return !items_.empty(); });
    std::swap(out, items_);
  }

  void Reserve(std::size_t n) { items_.reserve(n); }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<Completion> items_;
};

// The coordinator loop.  The scheduler and the activation bookkeeping live
// exclusively on this (coordinator) thread — workers never touch them, so
// neither needs a lock.  The ONLY coordinator/worker shared state is
// `completions` (plus, when gated, the epoch frontier shared with the
// neighbouring epochs' coordinators).  An inline cascade opens no channel:
// `run_task` is called here on each dispatched task, and the completion
// buffer stays unused.
Executor::RunStats RunCascade(TaskRouter& router, const trace::JobTrace& trace,
                              sched::Scheduler& scheduler,
                              const Executor::Options& options,
                              const Executor::TaskBody& run_task) {
  const graph::Dag& dag = trace.Graph();
  const std::size_t num_workers = router.NumWorkers();
  CompletionBuffer completions;
  TaskRouter::Channel channel;
  if (!options.run_inline) {
    channel = router.OpenChannel([&](TaskId t, std::size_t worker) {
      completions.Push(t, run_task(t, worker));
    });
  }
  Executor::RunStats stats;
  stats.ran_inline = options.run_inline;
  util::WallTimer wall;
  util::Stopwatch sched_watch;
  util::Stopwatch dispatch_watch;
  util::Stopwatch idle_watch;
  // Most tasks one PopReadyBatch may hand out: enough to amortize a
  // batched submit across the pool, few enough that the scheduler's
  // choices stay fresh.
  const std::size_t window = std::max<std::size_t>(16, 2 * num_workers);
  if (!options.run_inline) {
    completions.Reserve(2 * window);
  }

  scheduler.Prepare({&trace, num_workers});

  // Resource accounting plane: acquire each task's resource_utility on
  // dispatch, release it when the completion drains.  The account is
  // normally private to this cascade; a session's pipelined epochs pass a
  // shared one so their joint footprint honours one ceiling.
  ResourceAccount local_account;
  ResourceAccount* const account =
      options.account != nullptr ? options.account : &local_account;
  const std::uint64_t budget = options.memory_budget;
  // Releases must wake sibling coordinators only when a gate exists and
  // the account is actually shared (our own thread can never be waiting
  // while it drains).
  const bool notify_on_release = budget != 0 && options.account != nullptr;

  // Epoch pipelining state.  `outstanding[l]` counts activated-but-
  // uncompleted tasks at dependency level l; the finalized prefix can only
  // grow because activation never flows to a lower level (a task activates
  // its same-level member collectors and strictly-deeper readers).
  const PipelineGate* gate = options.gate;
  if (gate != nullptr && gate->frontier == nullptr) {
    gate = nullptr;
  }
  std::vector<std::size_t> outstanding;
  std::uint32_t published_levels = 0;
  std::uint32_t prev_final = StratumFrontier::kAllLevels;
  if (gate != nullptr) {
    DSCHED_CHECK_MSG(gate->node_level != nullptr &&
                         gate->node_level->size() == dag.NumNodes() &&
                         gate->node_fence != nullptr &&
                         gate->node_fence->size() == dag.NumNodes(),
                     "pipeline gate arrays must cover every DAG node");
    outstanding.assign(gate->num_levels, 0);
    prev_final = gate->frontier->FinalizedLevels(gate->epoch - 1);
  }

  std::vector<bool> activated(dag.NumNodes(), false);
  std::size_t activated_count = 0;
  std::size_t completed_count = 0;
  std::size_t inflight = 0;  ///< handed to the pool, not yet completed

  const auto activate = [&](TaskId t) {
    if (!activated[t]) {
      activated[t] = true;
      ++activated_count;
      if (gate != nullptr) {
        ++outstanding[(*gate->node_level)[t]];
      }
      const util::StopwatchGuard guard(sched_watch);
      scheduler.OnActivated(t);
    }
  };
  for (const TaskId t : trace.InitialDirty()) {
    activate(t);
  }

  std::vector<TaskId> batch;
  batch.reserve(window);
  std::vector<TaskId> ready;  ///< fence-cleared slice of a popped batch
  ready.reserve(window);
  /// Popped (scheduler says started) but fence-blocked tasks, parked at
  /// the coordinator.  They do NOT count as inflight: no completion will
  /// arrive for them until released, and the starvation branch below must
  /// see through them.
  std::vector<TaskId> held;
  /// Popped and fence-cleared but refused by the budget gate; FIFO, and
  /// the head blocks the rest so a large task cannot be starved.
  std::vector<TaskId> budget_held;
  std::vector<TaskId> admitted;  ///< budget-cleared slice, dispatch scratch
  std::vector<TaskId> queued;  ///< inline: dispatched, not yet run
  std::vector<Completion> drained;
  drained.reserve(2 * window);

  const auto submit_batch = [&](std::span<const TaskId> tasks) {
    inflight += tasks.size();
    stats.inflight_high_water =
        std::max<std::uint64_t>(stats.inflight_high_water, inflight);
    if (options.run_inline) {
      queued.insert(queued.end(), tasks.begin(), tasks.end());
    } else {
      channel.SubmitBatch(tasks);
    }
  };
  const auto account_task = [&](std::uint64_t utility, std::uint64_t level) {
    stats.mem_acquired_bytes += utility;
    stats.mem_peak_bytes = std::max(stats.mem_peak_bytes, level);
    OBS_COUNTER(Category::kMemAcquire, utility);
  };
  /// Runs `tasks` through the budget gate: admitted ones acquire their
  /// utility and go to the pool, the rest park in budget_held.
  const auto dispatch = [&](std::span<const TaskId> tasks) {
    if (budget == 0) {
      for (const TaskId t : tasks) {
        const std::uint64_t u = trace.Info(t).resource_utility;
        if (u != 0) {
          account_task(u, account->Acquire(u));
        }
      }
      submit_batch(tasks);
      return;
    }
    admitted.clear();
    for (const TaskId t : tasks) {
      const std::uint64_t u = trace.Info(t).resource_utility;
      if (u != 0) {
        // Zero-utility tasks always pass (they cannot move the account);
        // accounted ones queue behind any earlier deferral.
        const std::uint64_t level =
            budget_held.empty() ? account->TryAcquire(u, budget) : 0;
        if (level == 0) {
          budget_held.push_back(t);
          ++stats.mem_deferred;
          OBS_COUNTER(Category::kMemDeferred, 1);
          continue;
        }
        account_task(u, level);
      }
      admitted.push_back(t);
    }
    if (!admitted.empty()) {
      submit_batch(admitted);
    }
  };
  /// Re-admits parked tasks in FIFO order, stopping at the first that
  /// still does not fit.
  const auto release_budget_held = [&] {
    if (budget_held.empty()) {
      return;
    }
    admitted.clear();
    std::size_t taken = 0;
    while (taken < budget_held.size()) {
      const TaskId t = budget_held[taken];
      const std::uint64_t u = trace.Info(t).resource_utility;
      if (u != 0) {
        const std::uint64_t level = account->TryAcquire(u, budget);
        if (level == 0) {
          break;
        }
        account_task(u, level);
      }
      admitted.push_back(t);
      ++taken;
    }
    if (taken > 0) {
      budget_held.erase(budget_held.begin(),
                        budget_held.begin() +
                            static_cast<std::ptrdiff_t>(taken));
      submit_batch(admitted);
    }
  };
  /// Re-checks held tasks against the freshly read frontier.
  const auto release_held = [&] {
    if (held.empty()) {
      return;
    }
    ready.clear();
    std::size_t kept = 0;
    for (const TaskId t : held) {
      if ((*gate->node_fence)[t] <= prev_final) {
        ready.push_back(t);
      } else {
        held[kept++] = t;
      }
    }
    held.resize(kept);
    if (!ready.empty()) {
      dispatch(ready);
    }
  };

  for (;;) {
    // Dispatch: drain the scheduler's entire ready set, one batched pop +
    // one batched submit per `window` tasks.  PopReadyBatch performs the
    // OnStarted transitions itself (engine contract point 6).
    {
      OBS_SCOPE(Category::kExecDispatch);
      const util::StopwatchGuard dispatch_guard(dispatch_watch);
      if (gate != nullptr && prev_final != StratumFrontier::kAllLevels) {
        prev_final = gate->frontier->FinalizedLevels(gate->epoch - 1);
        release_held();
      }
      release_budget_held();
      for (;;) {
        batch.clear();
        std::size_t popped = 0;
        {
          const util::StopwatchGuard guard(sched_watch);
          popped = scheduler.PopReadyBatch(batch, window);
        }
        if (popped == 0) {
          break;
        }
        ++stats.dispatch_batches;
        stats.dispatched += popped;
        stats.max_dispatch_batch =
            std::max<std::uint64_t>(stats.max_dispatch_batch, popped);
        const std::size_t bucket = std::min<std::size_t>(
            Executor::kBatchHistBuckets - 1,
            static_cast<std::size_t>(std::bit_width(popped) - 1));
        ++stats.batch_size_hist[bucket];
        if (gate != nullptr && prev_final != StratumFrontier::kAllLevels) {
          ready.clear();
          for (const TaskId t : batch) {
            if ((*gate->node_fence)[t] <= prev_final) {
              ready.push_back(t);
            } else {
              held.push_back(t);
            }
          }
          if (!ready.empty()) {
            dispatch(ready);
          }
        } else {
          dispatch(batch);
        }
      }
    }

    if (inflight == 0) {
      if (!budget_held.empty()) {
        // Budget stall: nothing running here, so every byte we acquired
        // has been released — any live bytes belong to sibling cascades
        // on a shared account, and their coordinators will release and
        // notify.  Block HERE (coordinator), never in a pool task body.
        const std::uint64_t head_u =
            trace.Info(budget_held.front()).resource_utility;
        if (head_u > budget) {
          // A lone task larger than the whole budget: admissible only
          // from a fully idle account, so the ceiling stretches to at
          // most this one task's utility.
          const std::uint64_t level = account->TryAcquireSolo(head_u);
          if (level != 0) {
            const TaskId solo = budget_held.front();
            budget_held.erase(budget_held.begin());
            ++stats.mem_forced;
            account_task(head_u, level);
            submit_batch(std::span<const TaskId>(&solo, 1));
            continue;
          }
        }
        ++stats.mem_budget_stalls;
        {
          const util::StopwatchGuard stall_guard(idle_watch);
          std::unique_lock<std::mutex> lock(account->mutex);
          account->released.wait(lock, [&] {
            const std::uint64_t live =
                account->live.load(std::memory_order_relaxed);
            return live + head_u <= budget || live == 0;
          });
        }
        continue;  // next round re-runs release_budget_held
      }
      if (!held.empty()) {
        // Frontier stall: nothing running, everything left is fenced on
        // the previous epoch.  Block HERE (coordinator), never in a pool
        // task body — a blocked worker could deadlock the shared pool.
        std::uint32_t min_fence = StratumFrontier::kAllLevels;
        for (const TaskId t : held) {
          min_fence = std::min(min_fence, (*gate->node_fence)[t]);
        }
        ++stats.frontier_stalls;
        {
          OBS_SCOPE(Category::kPipelineStall);
          const util::StopwatchGuard stall_guard(idle_watch);
          util::WallTimer stall_timer;
          prev_final =
              gate->frontier->WaitFinalizedLevels(gate->epoch - 1, min_fence);
          stats.frontier_stall_seconds += stall_timer.ElapsedSeconds();
        }
        release_held();
        continue;
      }
      if (completed_count < activated_count) {
        throw util::LogicError(
            "executor deadlock: scheduler " + std::string(scheduler.Name()) +
            " offers no ready work with " +
            std::to_string(activated_count - completed_count) +
            " tasks incomplete");
      }
      break;
    }

    // Drain: one lock acquisition + buffer swap collects every completion
    // that arrived since the last drain.  Inline, the coordinator runs the
    // dispatched tasks itself; body time is the cascade's work, so it
    // counts as neither dispatch nor idle time.
    drained.clear();
    if (options.run_inline) {
      for (const TaskId t : queued) {
        drained.push_back({t, run_task(t, 0)});
      }
      queued.clear();
    } else {
      OBS_SCOPE(Category::kExecIdle);
      const util::StopwatchGuard idle_guard(idle_watch);
      completions.WaitAndDrain(drained);
      ++stats.completion_drains;
    }
    {
      OBS_SCOPE(Category::kExecDrain);
      const util::StopwatchGuard drain_guard(dispatch_watch);
      for (const Completion& c : drained) {
        --inflight;
        ++completed_count;
        ++stats.executed;
        const std::uint64_t utility = trace.Info(c.task).resource_utility;
        if (utility != 0) {
          account->Release(utility, notify_on_release);
          OBS_COUNTER(Category::kMemRelease, utility);
        }
        if (c.changed) {
          for (const TaskId child : dag.OutNeighbors(c.task)) {
            activate(child);
          }
        }
        // Self-decrement AFTER activating children: a task's same-level
        // collectors must be counted outstanding before the level can
        // look drained.
        if (gate != nullptr) {
          --outstanding[(*gate->node_level)[c.task]];
        }
        const util::StopwatchGuard guard(sched_watch);
        scheduler.OnCompleted(c.task, c.changed);
      }
    }
    if (gate != nullptr) {
      // Publish any newly drained level prefix for epoch+1.  Sound
      // because activation only flows level-upward: once the prefix is
      // empty it can never repopulate.
      std::uint32_t done = published_levels;
      while (done < gate->num_levels && outstanding[done] == 0) {
        ++done;
      }
      if (done > published_levels) {
        published_levels = done;
        OBS_COUNTER(Category::kPipelineFinalize, 1);
        gate->frontier->Advance(gate->epoch, published_levels);
      }
    }
  }

  if (gate != nullptr) {
    gate->frontier->FinalizeAll(gate->epoch);
  }

  // One worker-side push per pooled task, by construction.
  stats.completion_pushes = stats.ran_inline ? 0 : stats.executed;
  stats.activations = activated_count;
  stats.wall_seconds = wall.ElapsedSeconds();
  stats.sched_wall_seconds = sched_watch.TotalSeconds();
  stats.dispatch_wall_seconds = dispatch_watch.TotalSeconds();
  stats.idle_wall_seconds = idle_watch.TotalSeconds();
  // All completions are counted, so Close's precondition holds; it spins
  // out any worker still unwinding from the body before returning.
  channel.Close();
  return stats;
}

}  // namespace

Executor::RunStats Executor::Run(TaskRouter& router,
                                 const trace::JobTrace& trace,
                                 sched::Scheduler& scheduler,
                                 const TaskBody& body,
                                 const Options& options) {
  // A throwing body must not unwind a pool worker (that would terminate
  // the process).  The first exception is kept, its task reports
  // "unchanged" so the cascade still drains, and Run rethrows it below.
  std::mutex error_mutex;
  std::exception_ptr error;
  const TaskBody run_task = [&](TaskId t, std::size_t worker) {
    try {
      return body ? body(t, worker) : trace.Info(t).output_changes;
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) {
        error = std::current_exception();
      }
      return false;
    }
  };
  RunStats stats = RunCascade(router, trace, scheduler, options, run_task);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  return stats;
}

}  // namespace dsched::runtime
