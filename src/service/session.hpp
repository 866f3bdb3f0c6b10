// One maintained Datalog program inside an EngineHost.
//
// A session owns everything program-scoped — the parsed+stratified program,
// its sharded RelationStore, its scheduler choice, and one bounded FIFO of
// pending jobs — and borrows only the host's shared worker pool.
//
// Every request is a job in that one FIFO (DESIGN.md §12): an update batch,
// a rule change, a read, or the close.  K = pipeline_depth apply threads
// take the queue HEAD only once ADMISSION allows it, so taking a job is
// admitting it:
//   * an update needs no read running and fewer than K epochs in flight;
//   * a read needs no epoch in flight, and may overlap other reads;
//   * a rule change or the close needs nothing in flight, and holds every
//     successor until it is done.
// Updates and rule changes get dense epochs (from 1) at enqueue, so their
// cascades START in epoch order.  Once admitted, an update cascade runs on
// the shared pool with the session's StratumFrontier as its pipeline gate:
// each component phase of epoch e holds until epoch e-1 has finalized
// every dependency level the phase could race with, so overlapping epochs
// interleave along the program's level structure.  A SEQUENCER then calls
// each job's completion callback (Done) strictly in dense epoch order: when
// epoch N's Done runs, AppliedEpoch() >= N and every batch and rule change
// up to N is visible.  A read runs after every job accepted before it and
// sees the store exactly as of AppliedEpoch().
//
// The queue bound counts jobs that wait for admission (admitted jobs have
// left the queue); it blocks or declines updates and rule changes only.
// Queue, epoch counter, admission and sequencing all live under one mutex
// (pipe_mutex_).  K=1 degenerates to one apply thread taking the queue in
// order (no frontier, no overlap).
//
// One job path: every kind shares one enqueue, one admission gate and one
// apply loop.  An update's cascade always enters
// Database::ApplyRequestParallel → Executor::Run (small ones run inline on
// the apply thread); a rule change recompiles, swaps and maintains its
// affected cone on the apply thread.
//
// Lifecycle: bootstrap (Insert base facts, Materialize) → live (Submit /
// Query) → Close (unregister, queue the close job, join).  The close job
// runs after every accepted job, publishes the final metrics and then runs
// its callback; Close is idempotent and implied by destruction.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "datalog/database.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "service/engine_host.hpp"

namespace dsched::service {

/// What a resolved update or rule change carries: which epoch it became,
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

/// Handle to one maintained program.  Bootstrap calls (Insert/Materialize)
/// are single-threaded by contract; Submit/Query/Close may be called from
/// any thread once materialized.
class Session {
 public:
  /// What a queued job asks the apply thread to do.  Rule changes ride the
  /// same epoch sequence as update batches, so "epoch N resolved" keeps
  /// meaning "every batch AND every rule change up to N is visible".  Reads
  /// and the close take no epoch.
  enum class JobKind : std::uint8_t {
    kUpdate = 0,
    kAddRules = 1,
    kRemoveRule = 2,
    kRead = 3,
    kClose = 4,
  };

  /// A job's completion: the outcome, or the error that failed the job.
  /// The sequencer calls it on an apply thread under the session's
  /// pipeline lock, in dense epoch order, so it must be cheap and must
  /// never call into its own session.
  using Done = std::function<void(UpdateOutcome&&, std::exception_ptr)>;

  /// Use EngineHost::OpenSession.
  Session(std::shared_ptr<detail::HostCore> core, std::string_view program_text,
          const SessionOptions& options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Closes (drains + joins) if still open.
  ~Session();

  // --- bootstrap -------------------------------------------------------
  [[nodiscard]] datalog::Value Sym(std::string_view name) {
    return db_.Sym(name);
  }
  void Insert(std::string_view predicate, datalog::Tuple tuple) {
    db_.Insert(predicate, std::move(tuple));
  }
  /// From-scratch evaluation to fixpoint; required before the first Submit.
  datalog::EvalStats Materialize() { return db_.Materialize(); }

  // --- live updates ----------------------------------------------------
  /// Starts a name-based batch builder bound to this session's program.
  [[nodiscard]] datalog::Database::Update MakeUpdate() {
    return db_.MakeUpdate();
  }

  /// Enqueues a batch for in-order application.  BLOCKS while the session
  /// queue is at its bound (backpressure): the bound counts jobs waiting
  /// for admission, so a blocked Submit returns once a job is admitted.
  /// Throws util::LogicError once the session is closed or closing.
  std::future<UpdateOutcome> Submit(datalog::UpdateRequest request);
  std::future<UpdateOutcome> Submit(const datalog::Database::Update& update) {
    return Submit(update.Request());
  }

  /// Non-blocking Submit: false (and no enqueue) when the queue is full.
  /// `request` is moved from only when accepted; declined, it stays with
  /// the caller to retry.  `done` runs once the batch resolves.
  bool TrySubmit(datalog::UpdateRequest&& request, Done done);

  // --- live rule evolution ---------------------------------------------
  /// Enqueues a rule-set change as an epoch of its own: the job rides the
  /// same FIFO as Submit batches, so "epoch N resolved" still means every
  /// batch AND rule change up to N is visible.  A rule change is
  /// EXCLUSIVE — admission waits until every in-flight epoch has resolved
  /// (the pipeline drains past the evolution fence) and holds successor
  /// admissions until its own cascade lands, so it composes with
  /// pipeline_depth K > 1 without fencing individual levels.  The outcome
  /// carries rules_changed/program_version/evolve stats on top of the
  /// usual update result.  A rejected change (parse error, unstratifiable
  /// program, unknown rule) fails ITS job; the program is untouched and
  /// the session stays live.  Blocking/backpressure contract matches
  /// Submit.
  std::future<UpdateOutcome> EvolveAddRules(std::string_view rules_text);
  std::future<UpdateOutcome> EvolveRemoveRule(std::string_view clause_text);

  /// Non-blocking rule change of `kind` kAddRules or kRemoveRule (any
  /// other kind is util::InvalidArgument): false (and no enqueue) when the
  /// queue is full.
  bool TryEvolve(JobKind kind, std::string_view text, Done done);

  /// Blocks until every job accepted so far has been applied (an empty
  /// read).
  void Drain();

  /// Unregisters the session (FindSession misses from here on) and queues
  /// the close job: later enqueues are turned away and blocked Submits
  /// wake to throw.  The close job runs on an apply thread after every
  /// accepted job; it publishes the final session and store metrics and
  /// then runs `on_closed`.  False (nothing queued) when the session is
  /// already closing.  Never blocks.
  bool CloseAsync(std::function<void()> on_closed);

  /// CloseAsync, then joins the apply threads: every accepted job has
  /// finished and the final metrics are published when it returns.
  /// Idempotent.
  void Close();

  // --- reads (any thread) ----------------------------------------------
  /// Queues a read job and returns `fn()`'s result once it has run: `fn`
  /// runs on an apply thread after every job accepted before it, against
  /// the store and program exactly as of AppliedEpoch(); what it throws
  /// is rethrown here.  Reads run in parallel with each other.  On a
  /// closing session the read waits for the close job and runs on the
  /// caller.  `fn` must not call Read, Drain or Close of this session.
  template <typename Fn>
  std::invoke_result_t<Fn&> Read(Fn&& fn) const {
    using Result = std::invoke_result_t<Fn&>;
    if constexpr (std::is_void_v<Result>) {
      RunRead([&fn] { fn(); });
    } else {
      std::optional<Result> result;
      RunRead([&] { result.emplace(fn()); });
      return std::move(*result);
    }
  }

  /// Non-blocking read: queues `body` to run on an apply thread like
  /// Read's `fn`; `body` reports its own result and errors.  False
  /// (nothing queued) once the session is closing.
  bool ReadAsync(std::function<void()> body) const;

  [[nodiscard]] std::vector<datalog::Tuple> Query(
      std::string_view predicate) const;
  [[nodiscard]] bool Contains(std::string_view predicate,
                              const datalog::Tuple& tuple) const;

  // --- introspection ---------------------------------------------------
  /// Host-unique numeric id (1-based, in open order).  This is the id the
  /// wire protocol routes by and EngineHost::FindSession looks up.
  [[nodiscard]] std::uint64_t Id() const { return id_; }
  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] const std::string& SchedulerSpec() const { return spec_; }
  /// The maintenance strategy every batch of this session applies with.
  [[nodiscard]] datalog::MaintenanceStrategy Strategy() const {
    return strategy_;
  }
  /// The resolved epoch-pipeline depth K (after the [1, 64] clamp): the
  /// session's apply threads.
  [[nodiscard]] std::size_t PipelineDepth() const { return depth_; }
  /// The session's accounted-memory ceiling (0 = none) and its live
  /// account, shared by every in-flight epoch cascade.
  [[nodiscard]] std::uint64_t MemoryBudget() const { return memory_budget_; }
  [[nodiscard]] const runtime::ResourceAccount& Account() const {
    return account_;
  }
  /// Last applied epoch (0 before any batch lands).  Monotone; epoch N
  /// applied implies all earlier epochs applied (dense resolution order).
  [[nodiscard]] std::uint64_t AppliedEpoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  /// Current program version (1 at open, +1 per applied rule change).
  [[nodiscard]] std::uint64_t ProgramVersion() const {
    return db_.ProgramVersion();
  }
  /// Jobs accepted but not yet admitted, queued reads included (a read
  /// counts toward the bound but is never blocked or declined by it).
  [[nodiscard]] std::size_t QueueDepth() const;
  [[nodiscard]] std::size_t QueueCapacity() const { return capacity_; }
  /// The underlying store — shard-stable tuple access for equality checks.
  [[nodiscard]] const datalog::RelationStore& Store() const {
    return db_.Store();
  }
  [[nodiscard]] const datalog::Database& Db() const { return db_; }

 private:
  /// Running totals of every resolved epoch, folded in by the sequencer
  /// under pipe_mutex_ and published by PublishMetrics.
  struct Totals {
    std::uint64_t inserted = 0;
    std::uint64_t deleted = 0;
    std::uint64_t maint_ops = 0;
    std::uint64_t maint_probes = 0;
    std::uint64_t maint_avoided = 0;
    std::uint64_t inflight_high_water = 0;
    std::uint64_t frontier_stalls = 0;
    double frontier_stall_seconds = 0.0;
    /// Sum of per-epoch cascade times, failed epochs included.
    double cascade_seconds = 0.0;
    /// Wall time with >= 1 epoch in flight (for the overlap ratio vs the
    /// sum of per-cascade times).
    double busy_seconds = 0.0;
    /// Applied cascades that ran on the apply thread, not the pool.
    std::uint64_t inline_cascades = 0;
    std::uint64_t mem_acquired = 0;
    std::uint64_t mem_deferred = 0;
    std::uint64_t mem_budget_stalls = 0;
    std::uint64_t mem_forced = 0;
    std::uint64_t evolves = 0;
    std::uint64_t evolve_cone_preds = 0;
    std::uint64_t evolve_reused_comps = 0;
    std::uint64_t program_version = 1;

    /// Adds one successfully applied epoch.
    void Fold(const UpdateOutcome& outcome);
  };

  /// One accepted job.
  struct Job {
    std::uint64_t epoch = 0;  ///< kUpdate / rule changes only
    JobKind kind = JobKind::kUpdate;
    datalog::UpdateRequest request;  ///< kUpdate only
    std::string rules_text;          ///< kAddRules / kRemoveRule only
    /// kRead: the read itself; kClose: the on_closed callback.
    std::function<void()> body;
    Done done;  ///< every kind but kClose; optional for kRead
  };

  void ApplyLoop();
  /// Admission: waits until the queue head is admissible (or the session
  /// is closing and the queue empty — false, the thread's exit signal),
  /// then moves the head into `job` and marks it admitted.
  bool Take(Job& job);
  /// Whether an idle apply thread can act now: take an admissible head,
  /// or exit a closing, drained queue.  Caller holds pipe_mutex_.
  [[nodiscard]] bool CanTake() const;
  /// Cascade (or rule change) → sequencer for one admitted epoch job.
  void Apply(Job& job);
  /// Runs an admitted read job, then releases its hold on admission.
  void ApplyRead(Job& job);
  /// The close job: final metrics, then its callback.
  void ApplyClose(Job& job);
  /// The one enqueue behind Submit, TrySubmit, the Evolve calls and reads:
  /// false (and no enqueue) when `blocking` is off and the queue is full,
  /// or for a read once the session is closing.  `job` is moved from only
  /// when enqueued.  Throws util::LogicError for an update or rule change
  /// once the session is closing (also when it closes mid-wait).
  bool Enqueue(Job&& job, bool blocking) const;
  /// Read's body: queues `body` as a read job and waits for it.
  void RunRead(const std::function<void()>& body) const;
  /// Publishes session.<name>.* counters into the host registry.
  void PublishMetrics();

  std::shared_ptr<detail::HostCore> core_;
  std::uint64_t id_;
  std::string name_;
  std::string spec_;
  datalog::MaintenanceStrategy strategy_;
  std::size_t depth_;
  std::uint64_t memory_budget_;
  std::string metrics_prefix_;
  datalog::Database db_;
  /// Max jobs waiting for admission before Submit blocks.
  const std::size_t capacity_;

  /// One live-resource account for the whole session: all K in-flight
  /// epoch cascades acquire into it, so memory_budget_ bounds their joint
  /// accounted footprint (runtime/executor.hpp).
  runtime::ResourceAccount account_;

  /// The session's epoch frontier: cascades publish per-level finalization
  /// into it and successors gate on it (runtime/pipeline.hpp).  Only
  /// consulted when depth_ > 1.
  runtime::StratumFrontier frontier_;

  /// One mutex guards ALL pipeline state below (queue, epoch numbering,
  /// admission, sequencing, totals).  Apply threads hold it only around
  /// state transitions, never while a job runs.  The queue state is
  /// mutable because const reads queue jobs too.
  mutable std::mutex pipe_mutex_;
  /// The sequencer, blocking readers and readers of a closing session
  /// wait here.
  mutable std::condition_variable pipe_cv_;
  /// Idle apply threads wait here for an admissible head (or close).
  /// Enqueue, resolve, read completion and close wake every waiter (at
  /// most K) when CanTake() holds after them.
  mutable std::condition_variable admit_cv_;
  /// Blocking enqueues wait here for a free queue slot (or close).
  mutable std::condition_variable not_full_;
  /// Accepted jobs not yet admitted, in FIFO order.
  mutable std::deque<Job> queue_;
  /// Epoch the next accepted update or rule change gets; next_epoch_ - 1
  /// of them accepted.
  mutable std::uint64_t next_epoch_ = 1;
  /// Deepest the queue has ever been.
  mutable std::size_t queue_high_water_ = 0;
  /// Enqueues that had to wait, or were declined, at the bound.
  mutable std::uint64_t blocked_submits_ = 0;
  /// The close job is queued: enqueues are turned away.
  bool closing_ = false;
  /// The close job has run.
  bool closed_ = false;
  /// Highest epoch whose cascade has been admitted (started).
  std::uint64_t admitted_epoch_ = 0;
  /// Highest epoch whose Done has run; dense, so in-flight count is
  /// admitted_epoch_ - applied_seq_.
  std::uint64_t applied_seq_ = 0;
  /// Read jobs between admission and completion.
  std::size_t reads_running_ = 0;
  /// True while a rule change is between admission and resolution.  Its
  /// admission drains the pipeline (admitted == applied) and this flag
  /// keeps successors out until the swap + cone cascade have landed — the
  /// evolution fence.  (Nothing ever follows the close job.)
  bool exclusive_ = false;
  std::chrono::steady_clock::time_point busy_since_{};
  Totals totals_;

  /// Lock-free mirror of applied_seq_ for AppliedEpoch().
  std::atomic<std::uint64_t> applied_epoch_{0};

  std::once_flag join_once_;
  /// K apply threads; joined by Close() (which the destructor runs) before
  /// any member is destroyed.
  std::vector<std::thread> apply_threads_;
};

}  // namespace dsched::service
