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
  if (spec.find("oracle") != std::string::npos) {
    throw util::InvalidArgument(
        "sessions cannot use the clairvoyant oracle scheduler — it needs "
        "each update's outcome in advance");
  }
  // Fail at open, not at first Submit: instantiate once to validate, and
  // name every accepted spec in the rejection.
  try {
    (void)sched::CreateScheduler(spec);
  } catch (const util::Error&) {
    std::string message =
        "unknown scheduler spec '" + spec + "'; valid values:";
    for (const std::string& known : sched::KnownSchedulerSpecs()) {
      message += " " + known;
    }
    throw util::InvalidArgument(message);
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
                         const SessionOptions& options) {
  const std::size_t depth = options.pipeline_depth > 0
                                ? options.pipeline_depth
                                : core.options.default_pipeline_depth;
  return std::clamp<std::size_t>(depth, 1, 64);
}

}  // namespace

Session::Session(std::shared_ptr<detail::HostCore> core,
                 std::string_view program_text, const SessionOptions& options)
    : core_(std::move(core)),
      id_(core_->sessions_opened.fetch_add(1, std::memory_order_relaxed) + 1),
      name_(ResolveName(id_, options)),
      spec_(ResolveSpec(*core_, options)),
      strategy_(ResolveStrategy(*core_, options)),
      depth_(ResolveDepth(*core_, options)),
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

bool Session::Enqueue(UpdateQueue::Job&& job, bool blocking,
                      std::future<UpdateOutcome>* out) {
  const bool evolve = job.kind != UpdateQueue::Kind::kUpdate;
  DSCHED_CHECK_MSG(db_.Materialized(),
                   evolve ? "Materialize() before changing rules"
                          : "Materialize() before Submit()");
  std::future<UpdateOutcome> future = job.promise.get_future();
  if (queue_.Push(std::move(job), blocking) == 0) {
    return false;
  }
  core_->metrics.Add(metrics_prefix_ + (evolve ? "evolve.submit" : "submit"),
                     1);
  if (out != nullptr) {
    *out = std::move(future);
  }
  return true;
}

std::future<UpdateOutcome> Session::Submit(datalog::UpdateRequest request) {
  std::future<UpdateOutcome> future;
  Enqueue({.request = std::move(request)}, /*blocking=*/true, &future);
  return future;
}

bool Session::TrySubmit(datalog::UpdateRequest&& request,
                        std::future<UpdateOutcome>* out) {
  UpdateQueue::Job job{.request = std::move(request)};
  if (Enqueue(std::move(job), /*blocking=*/false, out)) {
    return true;
  }
  request = std::move(job.request);  // declined: hand the batch back
  return false;
}

std::future<UpdateOutcome> Session::EvolveAddRules(std::string_view rules_text) {
  std::future<UpdateOutcome> future;
  Enqueue({.kind = UpdateQueue::Kind::kAddRules,
           .rules_text = std::string(rules_text)},
          /*blocking=*/true, &future);
  return future;
}

std::future<UpdateOutcome> Session::EvolveRemoveRule(
    std::string_view clause_text) {
  std::future<UpdateOutcome> future;
  Enqueue({.kind = UpdateQueue::Kind::kRemoveRule,
           .rules_text = std::string(clause_text)},
          /*blocking=*/true, &future);
  return future;
}

bool Session::TryEvolveAddRules(std::string_view rules_text,
                                std::future<UpdateOutcome>* out) {
  return Enqueue({.kind = UpdateQueue::Kind::kAddRules,
                  .rules_text = std::string(rules_text)},
                 /*blocking=*/false, out);
}

bool Session::TryEvolveRemoveRule(std::string_view clause_text,
                                  std::future<UpdateOutcome>* out) {
  return Enqueue({.kind = UpdateQueue::Kind::kRemoveRule,
                  .rules_text = std::string(clause_text)},
                 /*blocking=*/false, out);
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
  // consumer threads; the admission gate in Apply then makes cascades
  // START in that order too, at most depth_ in flight.
  while (queue_.Pop(job)) {
    Apply(job);
  }
}

void Session::Totals::Fold(const UpdateOutcome& outcome) {
  inserted += outcome.update.total_inserted;
  deleted += outcome.update.total_deleted;
  maint_ops += outcome.update.total_maint_ops;
  for (const datalog::ComponentUpdateStats& c : outcome.update.components) {
    maint_probes += c.maint_backward_probes;
    maint_avoided += c.maint_avoided;
  }
  frontier_stalls += outcome.run.frontier_stalls;
  frontier_stall_seconds += outcome.run.frontier_stall_seconds;
  inline_cascades += outcome.run.ran_inline ? 1 : 0;
  mem_acquired += outcome.run.mem_acquired_bytes;
  mem_deferred += outcome.run.mem_deferred;
  mem_budget_stalls += outcome.run.mem_budget_stalls;
  mem_forced += outcome.run.mem_forced;
  if (outcome.rules_changed) {
    ++evolves;
    evolve_cone_preds += outcome.evolve.cone_predicates;
    evolve_reused_comps += outcome.evolve.reused_components;
    program_version = outcome.program_version;
  }
}

void Session::Apply(UpdateQueue::Job& job) {
  // --- admission: dense start order, reader priority, and no successor
  // of an evolve epoch until it resolves.  An update may start while
  // fewer than depth_ epochs are in flight.  An evolve epoch is
  // EXCLUSIVE: it starts only with the pipeline drained (every in-flight
  // cascade resolved against the OLD program), and evolving_ holds its
  // successors until the swap + cone cascade land.  This is the
  // evolution fence that lets rule changes compose with K > 1.
  const bool evolve = job.kind != UpdateQueue::Kind::kUpdate;
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait(lock, [this, &job, evolve] {
      const std::uint64_t inflight = admitted_epoch_ - applied_seq_;
      return admitted_epoch_ + 1 == job.epoch && !evolving_ &&
             queries_waiting_ == 0 &&
             (evolve ? inflight == 0 : inflight < depth_);
    });
    if (admitted_epoch_ == applied_seq_) {
      busy_since_ = std::chrono::steady_clock::now();
    }
    admitted_epoch_ = job.epoch;
    evolving_ = evolve;
    totals_.inflight_high_water = std::max(totals_.inflight_high_water,
                                           admitted_epoch_ - applied_seq_);
  }
  pipe_cv_.notify_all();  // the thread holding epoch+1 waits on admitted.

  // --- the cascade (or recompile + swap + cone cascade), outside every
  // session lock.
  UpdateOutcome outcome;
  outcome.epoch = job.epoch;
  std::exception_ptr error;
  util::WallTimer cascade_timer;
  try {
    if (!evolve) {
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
    } else {
      datalog::Database::EvolveResult result =
          job.kind == UpdateQueue::Kind::kAddRules
              ? db_.EvolveAddRules(job.rules_text)
              : db_.EvolveRemoveRule(job.rules_text);
      outcome.update = std::move(result.update);
      outcome.rules_changed = true;
      outcome.program_version = result.program_version;
      outcome.evolve = result.stats;
    }
  } catch (...) {
    // A failed batch (bad arity, a throwing task body) or a rejected rule
    // change (thrown before the snapshot swap, program untouched) fails
    // ITS future; the session stays live.
    error = std::current_exception();
  }
  if (depth_ > 1) {
    // Safety net: a successful update cascade already finalized every
    // level, but a thrown cascade or a rule change (which runs without
    // the executor) did not; this keeps successor epochs from wedging on
    // a frontier entry that would never advance.
    frontier_.FinalizeAll(job.epoch);
  }
  const double seconds = cascade_timer.ElapsedSeconds();

  // --- sequencer: resolve futures in dense epoch order.  The applied
  // epoch is published BEFORE the future resolves, so a thread woken by
  // epoch N's future reads AppliedEpoch() >= N.
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait(lock, [this, &job] { return applied_seq_ + 1 == job.epoch; });
    if (error == nullptr) {
      totals_.Fold(outcome);
    }
    totals_.cascade_seconds += seconds;
    applied_seq_ = job.epoch;
    applied_epoch_.store(job.epoch, std::memory_order_release);
    evolving_ = false;
    if (admitted_epoch_ == applied_seq_) {
      totals_.busy_seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  busy_since_)
                                  .count();
    }
    if (error == nullptr) {
      job.promise.set_value(std::move(outcome));
    } else {
      job.promise.set_exception(error);
    }
  }
  pipe_cv_.notify_all();
  PublishMetrics();
}

void Session::PublishMetrics() {
  // Totals are written under pipe_mutex_ by K apply threads; snapshot
  // under the same lock, publish outside it.
  Totals totals;
  std::uint64_t applied = 0;
  {
    const std::lock_guard<std::mutex> lock(pipe_mutex_);
    totals = totals_;
    applied = applied_seq_;
  }
  obs::MetricsRegistry& metrics = core_->metrics;
  metrics.Set(metrics_prefix_ + "applied", applied);
  metrics.Max(metrics_prefix_ + "queue_depth", queue_.HighWater());
  metrics.Set(metrics_prefix_ + "blocked_submits", queue_.BlockedPushes());
  metrics.Set(metrics_prefix_ + "inserted", totals.inserted);
  metrics.Set(metrics_prefix_ + "deleted", totals.deleted);
  metrics.Set(metrics_prefix_ + "maint.ops", totals.maint_ops);
  metrics.Set(metrics_prefix_ + "maint.backward_probes", totals.maint_probes);
  metrics.Set(metrics_prefix_ + "maint.overdeletes_avoided",
              totals.maint_avoided);
  metrics.Set(metrics_prefix_ + "pipeline.depth", depth_);
  metrics.Max(metrics_prefix_ + "pipeline.inflight_high_water",
              totals.inflight_high_water);
  metrics.Set(metrics_prefix_ + "pipeline.stalls", totals.frontier_stalls);
  metrics.Set(metrics_prefix_ + "pipeline.stall_ns",
              static_cast<std::uint64_t>(totals.frontier_stall_seconds * 1e9));
  metrics.Set(metrics_prefix_ + "pipeline.cascade_ns",
              static_cast<std::uint64_t>(totals.cascade_seconds * 1e9));
  metrics.Set(metrics_prefix_ + "pipeline.busy_ns",
              static_cast<std::uint64_t>(totals.busy_seconds * 1e9));
  metrics.Set(metrics_prefix_ + "pipeline.finalizations",
              frontier_.Finalizations());
  metrics.Set(metrics_prefix_ + "pipeline.inline_cascades",
              totals.inline_cascades);
  metrics.Set(metrics_prefix_ + "mem.budget_bytes", memory_budget_);
  metrics.Set(metrics_prefix_ + "mem.live_bytes",
              account_.live.load(std::memory_order_relaxed));
  metrics.Max(metrics_prefix_ + "mem.peak_bytes",
              account_.peak.load(std::memory_order_relaxed));
  metrics.Set(metrics_prefix_ + "mem.acquired_bytes", totals.mem_acquired);
  metrics.Set(metrics_prefix_ + "mem.deferred", totals.mem_deferred);
  metrics.Set(metrics_prefix_ + "mem.budget_stalls", totals.mem_budget_stalls);
  metrics.Set(metrics_prefix_ + "mem.forced", totals.mem_forced);
  metrics.Set(metrics_prefix_ + "evolve.count", totals.evolves);
  metrics.Set(metrics_prefix_ + "evolve.cone_predicates",
              totals.evolve_cone_preds);
  metrics.Set(metrics_prefix_ + "evolve.reused_components",
              totals.evolve_reused_comps);
  metrics.Set(metrics_prefix_ + "evolve.version", totals.program_version);
}

}  // namespace dsched::service
