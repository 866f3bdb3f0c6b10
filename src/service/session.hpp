// One maintained Datalog program inside an EngineHost.
//
// A session owns everything program-scoped — the parsed+stratified program,
// its sharded RelationStore, its scheduler choice, and a bounded queue of
// pending jobs (update batches and rule changes) — and borrows only the
// host's shared worker pool.
//
// Epoch pipelining (DESIGN.md §12): a session runs up to K = pipeline_depth
// update cascades in flight at once, on K apply threads.  The session is
// the one owner of the epoch sequence: enqueue numbers each job (dense,
// from 1) and appends it to the queue, and an idle apply thread takes the
// queue HEAD only once ADMISSION allows it, so taking a job is admitting
// it.  The head is admissible when
//   * fewer than K epochs are between admitted and applied (an evolve job
//     needs the pipeline drained: none in flight), and
//   * no query is waiting (queries see a quiesced pipeline).
// Cascades therefore START in dense epoch order.  Once admitted, the
// cascade runs on the shared pool with the session's StratumFrontier as
// its pipeline gate: each component phase of epoch e holds until epoch e-1
// has finalized every dependency level the phase could race with, so
// overlapping epochs interleave safely along the program's level structure
// instead of serializing whole batches.  A SEQUENCER then resolves futures
// strictly in dense epoch order — the externally visible contract is
// unchanged from the K=1 loop: after the future for epoch N resolves,
// AppliedEpoch() >= N and Query() reflects every batch up to N.
//
// The queue bound counts jobs that wait for admission; admitted jobs have
// left the queue.  Queue, epoch counter, admission and sequencing all live
// under one mutex (pipe_mutex_).
//
// K=1 degenerates to the classic serialized-per-session apply loop (no
// frontier, no overlap).
//
// One job path: update batches and rule changes share one enqueue, one
// admission gate, one sequencer and one apply routine.  An update's
// cascade always enters Database::ApplyRequestParallel → Executor::Run
// (small ones run inline on the apply thread); a rule change recompiles,
// swaps and maintains its affected cone on the apply thread.
//
// Lifecycle: bootstrap (Insert base facts, Materialize) → live (Submit /
// Query) → Close (stop accepting, drain the queue, join).  Close is
// idempotent and implied by destruction; every accepted epoch finishes and
// its future resolves before Close returns.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/database.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "service/engine_host.hpp"

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

/// Handle to one maintained program.  Bootstrap calls (Insert/Materialize)
/// are single-threaded by contract; Submit/Query/Close may be called from
/// any thread once materialized.
class Session {
 public:
  /// What a queued job asks the apply thread to do.  Evolve jobs ride the
  /// same epoch sequence as update batches, so "epoch N resolved" keeps
  /// meaning "every batch AND every rule change up to N is visible".
  enum class JobKind : std::uint8_t {
    kUpdate = 0,
    kAddRules = 1,
    kRemoveRule = 2,
  };

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
  /// the caller to retry.
  bool TrySubmit(datalog::UpdateRequest&& request,
                 std::future<UpdateOutcome>* out);

  // --- live rule evolution ---------------------------------------------
  /// Enqueues a rule-set change as an epoch of its own: the job rides the
  /// same FIFO as Submit batches, so "epoch N resolved" still means every
  /// batch AND rule change up to N is visible.  An evolve epoch is
  /// EXCLUSIVE — admission waits until every in-flight epoch has resolved
  /// (the pipeline drains past the evolution fence) and blocks successor
  /// admissions until its own cascade lands, so it composes with
  /// pipeline_depth K > 1 without fencing individual levels.  The future
  /// carries rules_changed/program_version/evolve stats on top of the
  /// usual update result.  A rejected change (parse error, unstratifiable
  /// program, unknown rule) fails ITS future; the program is untouched and
  /// the session stays live.  Blocking/backpressure contract matches
  /// Submit.
  std::future<UpdateOutcome> EvolveAddRules(std::string_view rules_text);
  std::future<UpdateOutcome> EvolveRemoveRule(std::string_view clause_text);

  /// Non-blocking variants: false (and no enqueue) when the queue is full.
  bool TryEvolveAddRules(std::string_view rules_text,
                         std::future<UpdateOutcome>* out);
  bool TryEvolveRemoveRule(std::string_view clause_text,
                           std::future<UpdateOutcome>* out);

  /// Blocks until every job accepted so far has been applied.
  void Drain();

  /// Stops accepting new batches, applies everything already queued (every
  /// accepted epoch finishes and its future resolves), joins the apply
  /// threads, and publishes final session metrics.  Idempotent.
  void Close();

  // --- queries (any thread; quiesce the pipeline first) ----------------
  /// Runs `fn()` against a quiesced pipeline and returns its result: new
  /// admissions are held off and every in-flight epoch resolves first, so
  /// `fn` reads the store and program exactly as of AppliedEpoch().  The
  /// hold is released however `fn` exits.  Concurrent readers run in
  /// parallel with each other.
  template <typename Fn>
  decltype(auto) Read(Fn&& fn) const {
    const Quiesced hold(*this);
    return std::forward<Fn>(fn)();
  }

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
  /// The resolved epoch-pipeline depth K (after the [1, 64] clamp).
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
  /// Jobs accepted but not yet admitted.
  [[nodiscard]] std::size_t QueueDepth() const;
  [[nodiscard]] std::size_t QueueCapacity() const { return capacity_; }
  /// The underlying store — shard-stable tuple access for equality checks.
  [[nodiscard]] const datalog::RelationStore& Store() const {
    return db_.Store();
  }
  [[nodiscard]] const datalog::Database& Db() const { return db_; }

 private:
  /// Read's quiescence hold: the constructor counts a waiting reader and
  /// waits until no epoch is in flight; the destructor releases it.
  class Quiesced {
   public:
    explicit Quiesced(const Session& session);
    ~Quiesced();
    Quiesced(const Quiesced&) = delete;
    Quiesced& operator=(const Quiesced&) = delete;

   private:
    const Session& session_;
  };

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

  /// One accepted job: an update batch or a rule change.
  struct Job {
    std::uint64_t epoch = 0;
    JobKind kind = JobKind::kUpdate;
    datalog::UpdateRequest request;  ///< kUpdate only
    std::string rules_text;          ///< kAddRules / kRemoveRule only
    std::promise<UpdateOutcome> promise;
  };

  void ApplyLoop();
  /// Admission: waits until the queue head is admissible (or the session
  /// is closed and the queue empty — false, the thread's exit signal),
  /// then moves the head into `job` and marks it admitted.
  bool Take(Job& job);
  /// Whether an idle apply thread can act now: take an admissible head,
  /// or exit a closed, drained queue.  Caller holds pipe_mutex_.
  [[nodiscard]] bool CanTake() const;
  /// Cascade (or rule change) → sequencer for one admitted job.
  void Apply(Job& job);
  /// The one enqueue behind Submit, TrySubmit and the Evolve calls: false
  /// (and no enqueue) when `blocking` is off and the queue is full.
  /// `job` is moved from only when enqueued.  Throws util::LogicError once
  /// the session is closed (also when closed mid-wait).
  bool Enqueue(Job&& job, bool blocking, std::future<UpdateOutcome>* out);
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
  /// admission, sequencing, query quiescence, totals).  Apply threads hold
  /// it only around state transitions, never while a cascade runs.
  mutable std::mutex pipe_mutex_;
  /// Sequencer, Drain and readers wait here.
  mutable std::condition_variable pipe_cv_;
  /// Idle apply threads wait here for an admissible head (or close).
  /// Enqueue, resolve and reader release wake every waiter (at most K)
  /// when CanTake() holds after them; Close always does.
  mutable std::condition_variable admit_cv_;
  /// Blocking enqueues wait here for a free queue slot (or close).
  std::condition_variable not_full_;
  /// Accepted jobs not yet admitted, in epoch order.
  std::deque<Job> queue_;
  /// Epoch the next accepted job gets; next_epoch_ - 1 jobs accepted.
  std::uint64_t next_epoch_ = 1;
  /// Deepest the queue has ever been.
  std::size_t queue_high_water_ = 0;
  /// Enqueues that had to wait, or were declined, at the bound.
  std::uint64_t blocked_submits_ = 0;
  bool closed_ = false;
  /// Highest epoch whose cascade has been admitted (started).
  std::uint64_t admitted_epoch_ = 0;
  /// Highest epoch whose future has resolved; dense, so in-flight count is
  /// admitted_epoch_ - applied_seq_.
  std::uint64_t applied_seq_ = 0;
  /// Queries blocked waiting for the pipeline to quiesce; > 0 holds off
  /// new admissions so readers are not starved by a busy pipeline.
  mutable std::size_t queries_waiting_ = 0;
  /// True while an evolve epoch's cascade is between admission and
  /// resolution.  Evolve admission drains the pipeline (admitted ==
  /// applied) and this flag keeps successors out until the swap + cone
  /// cascade have landed — the evolution fence.
  bool evolving_ = false;
  std::chrono::steady_clock::time_point busy_since_{};
  Totals totals_;

  /// Lock-free mirror of applied_seq_ for AppliedEpoch().
  std::atomic<std::uint64_t> applied_epoch_{0};

  std::once_flag close_once_;
  /// K apply threads; joined by Close() (which the destructor runs) before
  /// any member is destroyed.
  std::vector<std::thread> apply_threads_;
};

}  // namespace dsched::service
