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

std::string ResolveSpec(const SessionOptions& options) {
  const std::string spec = options.scheduler_spec.empty()
                               ? std::string(kDefaultScheduler)
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

datalog::MaintenanceStrategy ResolveStrategy(const SessionOptions& options) {
  // ParseMaintenanceStrategy's error already lists the valid values.
  return datalog::ParseMaintenanceStrategy(
      options.maintenance_strategy.empty() ? std::string(kDefaultStrategy)
                                           : options.maintenance_strategy);
}

std::size_t ResolveDepth(const SessionOptions& options) {
  const std::size_t depth = options.pipeline_depth > 0
                                ? options.pipeline_depth
                                : kDefaultPipelineDepth;
  return std::clamp<std::size_t>(depth, 1, 64);
}

/// The Done behind the future-returning enqueues: resolves `*future`.
Session::Done PromiseDone(std::future<UpdateOutcome>* future) {
  auto promise = std::make_shared<std::promise<UpdateOutcome>>();
  *future = promise->get_future();
  return [promise](UpdateOutcome&& outcome, std::exception_ptr error) {
    if (error == nullptr) {
      promise->set_value(std::move(outcome));
    } else {
      promise->set_exception(std::move(error));
    }
  };
}

}  // namespace

Session::Session(std::shared_ptr<detail::HostCore> core,
                 std::string_view program_text, const SessionOptions& options)
    : core_(std::move(core)),
      id_(core_->sessions_opened.fetch_add(1, std::memory_order_relaxed) + 1),
      name_(ResolveName(id_, options)),
      spec_(ResolveSpec(options)),
      strategy_(ResolveStrategy(options)),
      depth_(ResolveDepth(options)),
      memory_budget_(options.memory_budget),
      metrics_prefix_("session." + name_ + "."),
      db_(program_text),
      capacity_(options.queue_capacity > 0 ? options.queue_capacity
                                           : kDefaultQueueCapacity) {
  db_.SetDefaultStrategy(strategy_);
  core_->active_sessions.fetch_add(1, std::memory_order_relaxed);
  apply_threads_.reserve(depth_);
  for (std::size_t i = 0; i < depth_; ++i) {
    apply_threads_.emplace_back([this] { ApplyLoop(); });
  }
}

Session::~Session() { Close(); }

bool Session::Enqueue(Job&& job, bool blocking) const {
  const bool read = job.kind == JobKind::kRead;
  const bool evolve = !read && job.kind != JobKind::kUpdate;
  DSCHED_CHECK_MSG(read || db_.Materialized(),
                   evolve ? "Materialize() before changing rules"
                          : "Materialize() before Submit()");
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    if (!read && !closing_ && queue_.size() >= capacity_) {
      ++blocked_submits_;
      if (!blocking) {
        return false;
      }
      not_full_.wait(lock,
                     [this] { return closing_ || queue_.size() < capacity_; });
    }
    if (closing_) {
      if (read) {
        return false;
      }
      throw util::LogicError("Submit on a closed session");
    }
    if (!read) {
      job.epoch = next_epoch_++;
    }
    queue_.push_back(std::move(job));
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    wake = CanTake();
  }
  if (wake) {
    admit_cv_.notify_all();
  }
  if (!read) {
    core_->metrics.Add(metrics_prefix_ + (evolve ? "evolve.submit" : "submit"),
                       1);
  }
  return true;
}

std::future<UpdateOutcome> Session::Submit(datalog::UpdateRequest request) {
  std::future<UpdateOutcome> future;
  Enqueue({.request = std::move(request), .done = PromiseDone(&future)},
          /*blocking=*/true);
  return future;
}

bool Session::TrySubmit(datalog::UpdateRequest&& request, Done done) {
  Job job{.request = std::move(request), .done = std::move(done)};
  if (Enqueue(std::move(job), /*blocking=*/false)) {
    return true;
  }
  request = std::move(job.request);  // declined: hand the batch back
  return false;
}

std::future<UpdateOutcome> Session::EvolveAddRules(std::string_view rules_text) {
  std::future<UpdateOutcome> future;
  Enqueue({.kind = JobKind::kAddRules,
           .rules_text = std::string(rules_text),
           .done = PromiseDone(&future)},
          /*blocking=*/true);
  return future;
}

std::future<UpdateOutcome> Session::EvolveRemoveRule(
    std::string_view clause_text) {
  std::future<UpdateOutcome> future;
  Enqueue({.kind = JobKind::kRemoveRule,
           .rules_text = std::string(clause_text),
           .done = PromiseDone(&future)},
          /*blocking=*/true);
  return future;
}

bool Session::TryEvolve(JobKind kind, std::string_view text, Done done) {
  if (kind != JobKind::kAddRules && kind != JobKind::kRemoveRule) {
    throw util::InvalidArgument("TryEvolve takes a rule-change job kind");
  }
  return Enqueue({.kind = kind,
                  .rules_text = std::string(text),
                  .done = std::move(done)},
                 /*blocking=*/false);
}

bool Session::ReadAsync(std::function<void()> body) const {
  return Enqueue({.kind = JobKind::kRead, .body = std::move(body)},
                 /*blocking=*/false);
}

void Session::RunRead(const std::function<void()>& body) const {
  // The read job's Done runs under pipe_mutex_, so `finished` and `error`
  // are handed over under the lock; the caller owns the only reference to
  // a failure once it wakes.
  bool finished = false;
  std::exception_ptr error;
  const bool queued = Enqueue(
      {.kind = JobKind::kRead,
       .body = body,
       .done = [&](UpdateOutcome&&, std::exception_ptr failure) {
         error = std::move(failure);
         finished = true;
       }},
      /*blocking=*/false);
  std::unique_lock<std::mutex> lock(pipe_mutex_);
  if (!queued) {
    // Closing: nothing runs after the close job, so once it has run the
    // caller can read the final state itself.
    pipe_cv_.wait(lock, [this] { return closed_; });
    lock.unlock();
    body();
    return;
  }
  pipe_cv_.wait(lock, [&finished] { return finished; });
  lock.unlock();
  if (error != nullptr) {
    std::rethrow_exception(std::move(error));
  }
}

void Session::Drain() { Read([] {}); }

std::size_t Session::QueueDepth() const {
  const std::lock_guard<std::mutex> lock(pipe_mutex_);
  return queue_.size();
}

bool Session::CloseAsync(std::function<void()> on_closed) {
  // Drop out of FindSession first: a session that has started closing is
  // not routable (lookups return null from here on, even while draining).
  core_->Unregister(id_);
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(pipe_mutex_);
    if (closing_) {
      return false;
    }
    closing_ = true;
    queue_.push_back({.kind = JobKind::kClose, .body = std::move(on_closed)});
    wake = CanTake();
  }
  not_full_.notify_all();  // blocked enqueues wake to throw
  if (wake) {
    admit_cv_.notify_all();
  }
  return true;
}

void Session::Close() {
  (void)CloseAsync({});
  // An apply thread exits only once the close job has been taken, and the
  // close job runs after every accepted job, so joining drains them all.
  std::call_once(join_once_, [this] {
    for (std::thread& t : apply_threads_) {
      t.join();
    }
  });
}

std::vector<datalog::Tuple> Session::Query(std::string_view predicate) const {
  return Read([&] { return db_.Query(predicate); });
}

bool Session::Contains(std::string_view predicate,
                       const datalog::Tuple& tuple) const {
  return Read([&] { return db_.Contains(predicate, tuple); });
}

void Session::ApplyLoop() {
  // Declared outside the loop: a taken job (its Done included) lives until
  // this thread takes its next one.  Destroying a job right after its
  // future resolves lets TSan report the release of a failed future's
  // exception_ptr (an uninstrumented refcount) as a race.
  Job job;
  while (Take(job)) {
    switch (job.kind) {
      case JobKind::kRead:
        ApplyRead(job);
        break;
      case JobKind::kClose:
        ApplyClose(job);
        break;
      default:
        Apply(job);
        break;
    }
  }
}

bool Session::CanTake() const {
  if (queue_.empty()) {
    return closing_;
  }
  if (exclusive_) {
    return false;
  }
  const std::uint64_t inflight = admitted_epoch_ - applied_seq_;
  switch (queue_.front().kind) {
    case JobKind::kUpdate:
      return reads_running_ == 0 && inflight < depth_;
    case JobKind::kRead:
      return inflight == 0;
    default:  // a rule change or the close
      return reads_running_ == 0 && inflight == 0;
  }
}

bool Session::Take(Job& job) {
  // --- admission: the queue is FIFO and only its head is ever taken, so
  // cascades START in dense epoch order and a read runs after every job
  // accepted before it.  An update may start while fewer than depth_
  // epochs are in flight and no read runs; reads start with no epoch in
  // flight and overlap each other.  A rule change (or the close) is
  // EXCLUSIVE: it starts with nothing in flight (every cascade resolved
  // against the OLD program), and exclusive_ holds its successors until
  // the swap + cone cascade land.  This is the evolution fence that lets
  // rule changes compose with K > 1.
  //
  // Wake-ups: only enqueue, resolve, read completion and close can turn
  // CanTake() true, and each broadcasts when it does, so every waiter
  // re-checks after every such change.  A take or an exit needs no
  // hand-off: CanTake() already held for every waiter woken with it.
  std::unique_lock<std::mutex> lock(pipe_mutex_);
  admit_cv_.wait(lock, [this] { return CanTake(); });
  if (queue_.empty()) {
    return false;  // the close job has been taken: nothing follows it
  }
  job = std::move(queue_.front());
  queue_.pop_front();
  if (job.kind == JobKind::kRead) {
    ++reads_running_;
  } else if (job.kind != JobKind::kClose) {
    if (admitted_epoch_ == applied_seq_) {
      busy_since_ = std::chrono::steady_clock::now();
    }
    admitted_epoch_ = job.epoch;
    exclusive_ = job.kind != JobKind::kUpdate;
    totals_.inflight_high_water = std::max(totals_.inflight_high_water,
                                           admitted_epoch_ - applied_seq_);
  }
  lock.unlock();
  not_full_.notify_one();  // a slot freed
  return true;
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

void Session::Apply(Job& job) {
  // --- the cascade (or recompile + swap + cone cascade), outside every
  // session lock.
  UpdateOutcome outcome;
  outcome.epoch = job.epoch;
  std::exception_ptr error;
  util::WallTimer cascade_timer;
  try {
    if (job.kind == JobKind::kUpdate) {
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
          job.kind == JobKind::kAddRules
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
    // ITS job; the session stays live.
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

  // --- sequencer: complete jobs in dense epoch order.  The applied epoch
  // is published BEFORE Done runs, so a thread woken by epoch N's Done
  // reads AppliedEpoch() >= N.
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait(lock, [this, &job] { return applied_seq_ + 1 == job.epoch; });
    if (error == nullptr) {
      totals_.Fold(outcome);
    }
    totals_.cascade_seconds += seconds;
    applied_seq_ = job.epoch;
    applied_epoch_.store(job.epoch, std::memory_order_release);
    exclusive_ = false;
    if (admitted_epoch_ == applied_seq_) {
      totals_.busy_seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  busy_since_)
                                  .count();
    }
    job.done(std::move(outcome), std::move(error));
    wake = CanTake();
  }
  pipe_cv_.notify_all();
  if (wake) {
    admit_cv_.notify_all();
  }
  PublishMetrics();
}

void Session::ApplyRead(Job& job) {
  std::exception_ptr error;
  try {
    job.body();
  } catch (...) {
    error = std::current_exception();
  }
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(pipe_mutex_);
    --reads_running_;
    if (job.done) {
      job.done({}, std::move(error));
    }
    wake = CanTake();
  }
  pipe_cv_.notify_all();
  if (wake) {
    admit_cv_.notify_all();
  }
}

void Session::ApplyClose(Job& job) {
  // Every accepted job has finished: publish the final numbers before the
  // callback, so whoever it tells sees them.
  PublishMetrics();
  db_.Store().ExportMetrics(core_->metrics, metrics_prefix_ + "store.");
  core_->active_sessions.fetch_sub(1, std::memory_order_relaxed);
  if (job.body) {
    job.body();
  }
  {
    const std::lock_guard<std::mutex> lock(pipe_mutex_);
    closed_ = true;
  }
  pipe_cv_.notify_all();
}

void Session::PublishMetrics() {
  // Totals are written under pipe_mutex_ by K apply threads; snapshot
  // under the same lock, publish outside it.
  Totals totals;
  std::uint64_t applied = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t blocked_submits = 0;
  {
    const std::lock_guard<std::mutex> lock(pipe_mutex_);
    totals = totals_;
    applied = applied_seq_;
    queue_high_water = queue_high_water_;
    blocked_submits = blocked_submits_;
  }
  obs::MetricsRegistry& metrics = core_->metrics;
  metrics.Set(metrics_prefix_ + "applied", applied);
  metrics.Max(metrics_prefix_ + "queue_depth", queue_high_water);
  metrics.Set(metrics_prefix_ + "blocked_submits", blocked_submits);
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
