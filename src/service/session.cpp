#include "service/session.hpp"

#include <algorithm>
#include <utility>

#include "sched/factory.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::service {

namespace {

std::string ResolveName(std::uint64_t id, const SessionOptions& options) {
  if (!options.name.empty()) {
    return options.name;
  }
  std::string name = "s";
  name += std::to_string(id);
  return name;
}

std::string ResolveSpec(const detail::HostCore& core,
                        const SessionOptions& options) {
  const std::string& spec =
      options.scheduler_spec.empty() ? core.options.default_scheduler
                                     : options.scheduler_spec;
  if (spec != "serial") {
    if (spec.find("oracle") != std::string::npos) {
      throw util::InvalidArgument(
          "sessions cannot use the clairvoyant oracle scheduler — it needs "
          "each update's outcome in advance");
    }
    // Fail at open, not at first Submit: instantiate once to validate,
    // and name every accepted spec in the rejection.
    try {
      (void)sched::CreateScheduler(spec);
    } catch (const util::Error&) {
      std::string message = "unknown scheduler spec '" + spec +
                            "'; valid values: serial";
      for (const std::string& known : sched::KnownSchedulerSpecs()) {
        message += " " + known;
      }
      throw util::InvalidArgument(message);
    }
  }
  return spec;
}

datalog::MaintenanceStrategy ResolveStrategy(const detail::HostCore& core,
                                             const SessionOptions& options) {
  const std::string& name = options.maintenance_strategy.empty()
                                ? core.options.default_strategy
                                : options.maintenance_strategy;
  // ParseMaintenanceStrategy's error already lists the valid values.
  return datalog::ParseMaintenanceStrategy(name);
}

std::size_t ResolveDepth(const detail::HostCore& core,
                         const SessionOptions& options,
                         const std::string& spec) {
  std::size_t depth = options.pipeline_depth > 0
                          ? options.pipeline_depth
                          : core.options.default_pipeline_depth;
  depth = std::clamp<std::size_t>(depth, 1, 64);
  // The serial engine has no cascade to fence, so it cannot overlap epochs.
  if (spec == "serial") {
    depth = 1;
  }
  return depth;
}

}  // namespace

Session::Session(std::shared_ptr<detail::HostCore> core,
                 std::string_view program_text, const SessionOptions& options)
    : core_(std::move(core)),
      id_(core_->sessions_opened.fetch_add(1, std::memory_order_relaxed) + 1),
      name_(ResolveName(id_, options)),
      spec_(ResolveSpec(*core_, options)),
      strategy_(ResolveStrategy(*core_, options)),
      depth_(ResolveDepth(*core_, options, spec_)),
      memory_budget_(options.memory_budget),
      metrics_prefix_("session." + name_ + "."),
      db_(program_text),
      queue_(options.queue_capacity > 0
                 ? options.queue_capacity
                 : core_->options.default_queue_capacity) {
  db_.SetDefaultStrategy(strategy_);
  core_->active_sessions.fetch_add(1, std::memory_order_relaxed);
  apply_threads_.reserve(depth_);
  for (std::size_t i = 0; i < depth_; ++i) {
    apply_threads_.emplace_back([this] { ApplyLoop(); });
  }
}

Session::~Session() { Close(); }

std::future<UpdateOutcome> Session::Submit(datalog::UpdateRequest request) {
  DSCHED_CHECK_MSG(db_.Materialized(), "Materialize() before Submit()");
  std::promise<UpdateOutcome> promise;
  std::future<UpdateOutcome> future = promise.get_future();
  queue_.Push(std::move(request), std::move(promise));
  core_->metrics.Add(metrics_prefix_ + "submit", 1);
  return future;
}

bool Session::TrySubmit(datalog::UpdateRequest request,
                        std::future<UpdateOutcome>* out) {
  DSCHED_CHECK_MSG(db_.Materialized(), "Materialize() before Submit()");
  std::promise<UpdateOutcome> promise;
  std::future<UpdateOutcome> future = promise.get_future();
  if (queue_.TryPush(std::move(request), std::move(promise)) == 0) {
    return false;
  }
  core_->metrics.Add(metrics_prefix_ + "submit", 1);
  if (out != nullptr) {
    *out = std::move(future);
  }
  return true;
}

std::future<UpdateOutcome> Session::SubmitEvolve(UpdateQueue::Kind kind,
                                                std::string_view text) {
  DSCHED_CHECK_MSG(db_.Materialized(), "Materialize() before changing rules");
  std::promise<UpdateOutcome> promise;
  std::future<UpdateOutcome> future = promise.get_future();
  queue_.PushEvolve(kind, std::string(text), std::move(promise));
  core_->metrics.Add(metrics_prefix_ + "evolve.submit", 1);
  return future;
}

bool Session::TrySubmitEvolve(UpdateQueue::Kind kind, std::string_view text,
                              std::future<UpdateOutcome>* out) {
  DSCHED_CHECK_MSG(db_.Materialized(), "Materialize() before changing rules");
  std::promise<UpdateOutcome> promise;
  std::future<UpdateOutcome> future = promise.get_future();
  if (queue_.TryPushEvolve(kind, std::string(text), std::move(promise)) == 0) {
    return false;
  }
  core_->metrics.Add(metrics_prefix_ + "evolve.submit", 1);
  if (out != nullptr) {
    *out = std::move(future);
  }
  return true;
}

std::future<UpdateOutcome> Session::EvolveAddRules(std::string_view rules_text) {
  return SubmitEvolve(UpdateQueue::Kind::kAddRules, rules_text);
}

std::future<UpdateOutcome> Session::EvolveRemoveRule(
    std::string_view clause_text) {
  return SubmitEvolve(UpdateQueue::Kind::kRemoveRule, clause_text);
}

bool Session::TryEvolveAddRules(std::string_view rules_text,
                                std::future<UpdateOutcome>* out) {
  return TrySubmitEvolve(UpdateQueue::Kind::kAddRules, rules_text, out);
}

bool Session::TryEvolveRemoveRule(std::string_view clause_text,
                                  std::future<UpdateOutcome>* out) {
  return TrySubmitEvolve(UpdateQueue::Kind::kRemoveRule, clause_text, out);
}

void Session::Drain() {
  const std::uint64_t target = queue_.LastEpoch();
  std::unique_lock<std::mutex> lock(pipe_mutex_);
  pipe_cv_.wait(lock, [this, target] { return applied_seq_ >= target; });
}

void Session::Close() {
  std::call_once(close_once_, [this] {
    // Drop out of FindSession first: a session that has started closing is
    // not routable (lookups return null from here on, even while draining).
    core_->Unregister(id_);
    queue_.Close();  // stop accepting; already-queued batches still apply.
    // Every apply thread fully finishes (and resolves the future of) any
    // job it already popped before Pop() returns false, so joining drains
    // every admitted epoch — no promise is ever abandoned.
    for (std::thread& t : apply_threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    PublishMetrics();
    db_.Store().ExportMetrics(core_->metrics, metrics_prefix_ + "store.");
    core_->active_sessions.fetch_sub(1, std::memory_order_relaxed);
  });
}

Session::Quiesced::Quiesced(const Session& session) : session_(session) {
  // queries_waiting_ > 0 holds off NEW admissions; the wait then lets every
  // in-flight epoch resolve.
  std::unique_lock<std::mutex> lock(session_.pipe_mutex_);
  ++session_.queries_waiting_;
  session_.pipe_cv_.wait(lock, [this] {
    return session_.admitted_epoch_ == session_.applied_seq_;
  });
}

Session::Quiesced::~Quiesced() {
  {
    const std::lock_guard<std::mutex> lock(session_.pipe_mutex_);
    --session_.queries_waiting_;
  }
  session_.pipe_cv_.notify_all();
}

std::vector<datalog::Tuple> Session::Query(std::string_view predicate) const {
  return Read([&] { return db_.Query(predicate); });
}

bool Session::Contains(std::string_view predicate,
                       const datalog::Tuple& tuple) const {
  return Read([&] { return db_.Contains(predicate, tuple); });
}

void Session::ApplyLoop() {
  UpdateQueue::Job job;
  // The queue is FIFO, so epochs pop in dense order even across K
  // consumer threads; the admission gate below then makes cascades START
  // in that order too, at most depth_ in flight.
  while (queue_.Pop(job)) {
    if (job.kind == UpdateQueue::Kind::kUpdate) {
      ApplyOne(job);
    } else {
      ApplyEvolve(job);
    }
  }
}

void Session::ApplyOne(UpdateQueue::Job& job) {
  // --- admission: dense start order, bounded overlap, reader priority.
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait(lock, [this, &job] {
      return admitted_epoch_ + 1 == job.epoch && !evolving_ &&
             admitted_epoch_ - applied_seq_ < depth_ && queries_waiting_ == 0;
    });
    if (admitted_epoch_ == applied_seq_) {
      busy_since_ = std::chrono::steady_clock::now();
    }
    admitted_epoch_ = job.epoch;
    inflight_high_water_ =
        std::max(inflight_high_water_, admitted_epoch_ - applied_seq_);
  }
  pipe_cv_.notify_all();  // the thread holding epoch+1 waits on admitted.

  // --- the cascade itself, outside every session lock.
  UpdateOutcome outcome;
  outcome.epoch = job.epoch;
  std::exception_ptr error;
  util::WallTimer cascade_timer;
  try {
    if (spec_ == "serial") {
      outcome.update = db_.ApplyRequest(job.request, strategy_);
    } else {
      datalog::ParallelUpdateResult result = db_.ApplyRequestParallel(
          job.request, core_->router,
          {.scheduler_spec = spec_,
           .strategy = strategy_,
           .frontier = depth_ > 1 ? &frontier_ : nullptr,
           .epoch = job.epoch,
           .memory_budget = memory_budget_,
           .account = &account_});
      outcome.update = std::move(result.update);
      outcome.run = result.run;
    }
  } catch (...) {
    error = std::current_exception();
  }
  if (depth_ > 1) {
    // Safety net: on success RunCascade already finalized every level; on
    // a thrown cascade this keeps successor epochs from wedging on a
    // frontier entry that would never advance.
    frontier_.FinalizeAll(job.epoch);
  }
  const double seconds = cascade_timer.ElapsedSeconds();

  // --- sequencer: resolve futures in dense epoch order.
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait(lock, [this, &job] { return applied_seq_ + 1 == job.epoch; });
    if (error == nullptr) {
      inserted_total_ += outcome.update.total_inserted;
      deleted_total_ += outcome.update.total_deleted;
      maint_ops_total_ += outcome.update.total_maint_ops;
      for (const datalog::ComponentUpdateStats& c :
           outcome.update.components) {
        maint_probes_total_ += c.maint_backward_probes;
        maint_avoided_total_ += c.maint_avoided;
      }
      frontier_stalls_ += outcome.run.frontier_stalls;
      frontier_stall_seconds_ += outcome.run.frontier_stall_seconds;
      inline_cascades_ += outcome.run.ran_inline ? 1 : 0;
      mem_acquired_total_ += outcome.run.mem_acquired_bytes;
      mem_deferred_total_ += outcome.run.mem_deferred;
      mem_budget_stalls_total_ += outcome.run.mem_budget_stalls;
      mem_forced_total_ += outcome.run.mem_forced;
      job.promise.set_value(std::move(outcome));
    } else {
      // A failed batch (bad arity, engine invariant trip) fails ITS
      // future; the session stays live for subsequent batches.
      job.promise.set_exception(error);
    }
    cascade_seconds_ += seconds;
    applied_seq_ = job.epoch;
    applied_epoch_.store(job.epoch, std::memory_order_release);
    if (admitted_epoch_ == applied_seq_) {
      busy_seconds_ += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - busy_since_)
                           .count();
    }
  }
  pipe_cv_.notify_all();
  PublishMetrics();
}

void Session::ApplyEvolve(UpdateQueue::Job& job) {
  // --- admission: exclusive.  An evolve epoch starts only with the
  // pipeline fully drained (admitted == applied — every in-flight cascade
  // has resolved against the OLD program), and evolving_ keeps successor
  // epochs out until the swap + cone cascade land.  This is the evolution
  // fence that lets rule changes compose with pipeline_depth K > 1.
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait(lock, [this, &job] {
      return admitted_epoch_ + 1 == job.epoch &&
             admitted_epoch_ == applied_seq_ && queries_waiting_ == 0;
    });
    busy_since_ = std::chrono::steady_clock::now();
    admitted_epoch_ = job.epoch;
    evolving_ = true;
    inflight_high_water_ = std::max<std::uint64_t>(inflight_high_water_, 1);
  }
  pipe_cv_.notify_all();

  // --- recompile + swap + affected-cone cascade, outside session locks.
  UpdateOutcome outcome;
  outcome.epoch = job.epoch;
  std::exception_ptr error;
  util::WallTimer cascade_timer;
  try {
    const datalog::Database::EvolveResult result =
        job.kind == UpdateQueue::Kind::kAddRules
            ? db_.EvolveAddRules(job.rules_text)
            : db_.EvolveRemoveRule(job.rules_text);
    outcome.update = result.update;
    outcome.rules_changed = true;
    outcome.program_version = result.program_version;
    outcome.evolve = result.stats;
  } catch (...) {
    // A rejected change throws before the snapshot swap, so the program
    // (and store) are untouched; fail this future, stay live.
    error = std::current_exception();
  }
  if (depth_ > 1) {
    // Successor epochs' cascades gate on this epoch's frontier entry; the
    // evolve cascade ran serially, so publish it finalized wholesale.
    frontier_.FinalizeAll(job.epoch);
  }
  const double seconds = cascade_timer.ElapsedSeconds();

  // --- sequencer: trivially dense (this is the only in-flight epoch).
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    if (error == nullptr) {
      inserted_total_ += outcome.update.total_inserted;
      deleted_total_ += outcome.update.total_deleted;
      maint_ops_total_ += outcome.update.total_maint_ops;
      for (const datalog::ComponentUpdateStats& c :
           outcome.update.components) {
        maint_probes_total_ += c.maint_backward_probes;
        maint_avoided_total_ += c.maint_avoided;
      }
      ++evolve_count_;
      evolve_cone_preds_total_ += outcome.evolve.cone_predicates;
      evolve_reused_comps_total_ += outcome.evolve.reused_components;
      program_version_seen_ = outcome.program_version;
      job.promise.set_value(std::move(outcome));
    } else {
      job.promise.set_exception(error);
    }
    cascade_seconds_ += seconds;
    applied_seq_ = job.epoch;
    applied_epoch_.store(job.epoch, std::memory_order_release);
    evolving_ = false;
    busy_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - busy_since_)
                         .count();
  }
  pipe_cv_.notify_all();
  PublishMetrics();
}

void Session::PublishMetrics() {
  // Totals are written under pipe_mutex_ by K apply threads; snapshot
  // under the same lock, publish outside it.
  std::uint64_t applied = 0;
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
  std::uint64_t ops = 0;
  std::uint64_t probes = 0;
  std::uint64_t avoided = 0;
  std::uint64_t inflight_hw = 0;
  std::uint64_t stalls = 0;
  std::uint64_t inline_cascades = 0;
  std::uint64_t mem_acquired = 0;
  std::uint64_t mem_deferred = 0;
  std::uint64_t mem_stalls = 0;
  std::uint64_t mem_forced = 0;
  std::uint64_t evolves = 0;
  std::uint64_t evolve_cone = 0;
  std::uint64_t evolve_reused = 0;
  std::uint64_t program_version = 1;
  double stall_seconds = 0.0;
  double cascade_seconds = 0.0;
  double busy_seconds = 0.0;
  {
    const std::lock_guard<std::mutex> lock(pipe_mutex_);
    applied = applied_seq_;
    evolves = evolve_count_;
    evolve_cone = evolve_cone_preds_total_;
    evolve_reused = evolve_reused_comps_total_;
    program_version = program_version_seen_;
    inserted = inserted_total_;
    deleted = deleted_total_;
    ops = maint_ops_total_;
    probes = maint_probes_total_;
    avoided = maint_avoided_total_;
    inflight_hw = inflight_high_water_;
    stalls = frontier_stalls_;
    inline_cascades = inline_cascades_;
    mem_acquired = mem_acquired_total_;
    mem_deferred = mem_deferred_total_;
    mem_stalls = mem_budget_stalls_total_;
    mem_forced = mem_forced_total_;
    stall_seconds = frontier_stall_seconds_;
    cascade_seconds = cascade_seconds_;
    busy_seconds = busy_seconds_;
  }
  obs::MetricsRegistry& metrics = core_->metrics;
  metrics.Set(metrics_prefix_ + "applied", applied);
  metrics.Max(metrics_prefix_ + "queue_depth", queue_.HighWater());
  metrics.Set(metrics_prefix_ + "blocked_submits", queue_.BlockedPushes());
  metrics.Set(metrics_prefix_ + "inserted", inserted);
  metrics.Set(metrics_prefix_ + "deleted", deleted);
  metrics.Set(metrics_prefix_ + "maint.ops", ops);
  metrics.Set(metrics_prefix_ + "maint.backward_probes", probes);
  metrics.Set(metrics_prefix_ + "maint.overdeletes_avoided", avoided);
  metrics.Set(metrics_prefix_ + "pipeline.depth", depth_);
  metrics.Max(metrics_prefix_ + "pipeline.inflight_high_water", inflight_hw);
  metrics.Set(metrics_prefix_ + "pipeline.stalls", stalls);
  metrics.Set(metrics_prefix_ + "pipeline.stall_ns",
              static_cast<std::uint64_t>(stall_seconds * 1e9));
  metrics.Set(metrics_prefix_ + "pipeline.cascade_ns",
              static_cast<std::uint64_t>(cascade_seconds * 1e9));
  metrics.Set(metrics_prefix_ + "pipeline.busy_ns",
              static_cast<std::uint64_t>(busy_seconds * 1e9));
  metrics.Set(metrics_prefix_ + "pipeline.finalizations",
              frontier_.Finalizations());
  metrics.Set(metrics_prefix_ + "pipeline.inline_cascades", inline_cascades);
  metrics.Set(metrics_prefix_ + "mem.budget_bytes", memory_budget_);
  metrics.Set(metrics_prefix_ + "mem.live_bytes",
              account_.live.load(std::memory_order_relaxed));
  metrics.Max(metrics_prefix_ + "mem.peak_bytes",
              account_.peak.load(std::memory_order_relaxed));
  metrics.Set(metrics_prefix_ + "mem.acquired_bytes", mem_acquired);
  metrics.Set(metrics_prefix_ + "mem.deferred", mem_deferred);
  metrics.Set(metrics_prefix_ + "mem.budget_stalls", mem_stalls);
  metrics.Set(metrics_prefix_ + "mem.forced", mem_forced);
  metrics.Set(metrics_prefix_ + "evolve.count", evolves);
  metrics.Set(metrics_prefix_ + "evolve.cone_predicates", evolve_cone);
  metrics.Set(metrics_prefix_ + "evolve.reused_components", evolve_reused);
  metrics.Set(metrics_prefix_ + "evolve.version", program_version);
}

}  // namespace dsched::service
