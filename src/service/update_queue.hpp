// The per-session update pipeline: a bounded MPMC queue of update batches
// with epoch numbering and promise-based result delivery.
//
// Producers are client threads calling Session::Submit; consumers are the
// session's K apply threads (K = pipeline_depth; K = 1 recovers the
// classic single-consumer loop).  The bound is the backpressure mechanism:
// a full queue makes a blocking Push wait (and a non-blocking one decline)
// instead of letting a fast producer build an unbounded backlog of
// unapplied batches.  Epochs are assigned under the queue lock, so they
// are dense, start at 1, and order exactly like application order — epoch
// N's result reflects every batch up to and including N.
//
// Multi-consumer contract: the queue is FIFO, so epochs POP in dense order
// even when different threads do the popping; what the queue does NOT
// order is what happens after the pop.  The session's admission gate
// (session.hpp) makes cascades start densely, and its sequencer resolves
// futures densely.  After Close(), each consumer fully processes any job
// it already holds before Pop() returns false — close drains, it never
// abandons a promise.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <deque>
#include <string>

#include "datalog/compiled_program.hpp"
#include "datalog/incremental.hpp"
#include "runtime/executor.hpp"

namespace dsched::service {

/// What a fulfilled Submit future carries: which epoch the batch became,
/// the engine-level result, and the executor run of its cascade.
struct UpdateOutcome {
  /// 1-based position of this batch in the session's apply order.
  std::uint64_t epoch = 0;
  datalog::UpdateResult update;
  /// Executor stats of the cascade; default-initialized for rule-change
  /// epochs, whose cone cascade runs on the apply thread without the
  /// executor.
  runtime::Executor::RunStats run;
  /// Rule-evolution outcomes (EvolveAddRules / EvolveRemoveRule epochs
  /// only; plain Submit batches leave all three at their defaults).
  bool rules_changed = false;
  std::uint64_t program_version = 0;
  datalog::EvolveStats evolve;
};

/// Bounded multi-producer multi-consumer queue of pending update batches.
/// Thread-safe.
class UpdateQueue {
 public:
  /// What a popped job asks the apply thread to do.  Evolve jobs ride the
  /// same epoch sequence as update batches, so "epoch N resolved" keeps
  /// meaning "every batch AND every rule change up to N is visible".
  enum class Kind : std::uint8_t {
    kUpdate = 0,
    kAddRules = 1,
    kRemoveRule = 2,
  };

  struct Job {
    std::uint64_t epoch = 0;
    Kind kind = Kind::kUpdate;
    datalog::UpdateRequest request;  ///< kUpdate only
    std::string rules_text;          ///< kAddRules / kRemoveRule only
    std::promise<UpdateOutcome> promise;
  };

  explicit UpdateQueue(std::size_t capacity);

  /// Enqueues a job (an update batch or a rule change) and returns the
  /// epoch it was assigned; `job.epoch` is overwritten.  With `blocking`,
  /// waits while the queue is at capacity (this is the backpressure
  /// bound); without, returns 0 when the queue is full instead of waiting
  /// (epochs are 1-based, so 0 is unambiguous).  `job` is moved from only
  /// when it is enqueued: a declined or throwing push leaves it with the
  /// caller.  Throws util::LogicError if the queue is closed (also when
  /// closed mid-wait).
  std::uint64_t Push(Job&& job, bool blocking);

  /// Consumer side: blocks until a job is available or the queue is closed
  /// AND drained; false only in the latter case (the consumer's exit
  /// signal).
  bool Pop(Job& out);

  /// Stops accepting pushes.  Already-queued jobs remain poppable — close
  /// drains, it does not discard.  Idempotent.
  void Close();

  [[nodiscard]] bool Closed() const;
  [[nodiscard]] std::size_t Capacity() const { return capacity_; }
  [[nodiscard]] std::size_t Depth() const;
  /// Deepest the queue has ever been.
  [[nodiscard]] std::size_t HighWater() const;
  /// Pushes that had to wait (or non-blocking pushes declined) because the
  /// queue was at capacity — the "backpressure engaged" counter.
  [[nodiscard]] std::uint64_t BlockedPushes() const;
  /// Epochs assigned so far (== total accepted batches).
  [[nodiscard]] std::uint64_t LastEpoch() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Job> jobs_;
  std::uint64_t next_epoch_ = 1;
  std::size_t high_water_ = 0;
  std::uint64_t blocked_pushes_ = 0;
  bool closed_ = false;
};

}  // namespace dsched::service
