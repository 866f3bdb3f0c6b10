// The service entry point: one long-lived host serving many concurrently
// maintained Datalog programs on one shared runtime.
//
// Ownership shape (DESIGN.md §10):
//
//     EngineHost ──────────────► HostCore (shared)
//                                 ├─ TaskRouter ── ThreadPool (N workers)
//                                 └─ MetricsRegistry (host.* / session.*)
//     Session "a" ─► compiled program / RelationStore / scheduler spec
//                    job queue + admission ─► K apply threads ─► router
//                    channels
//     Session "b" ─► ... (same pool, own everything else)
//
// Every Session owns its compiled program, its sharded store, and its
// epoch sequence: one bounded job queue whose head its K apply threads
// take as admission allows (up to K cascades in flight, results in epoch
// order; DESIGN.md §12); the ONLY shared mutable state is the
// worker pool (via TaskRouter channels) and the metrics registry — both
// multi-tenant by construction.  Sessions hold the HostCore via
// shared_ptr, so a Session outliving its EngineHost stays valid (the pool
// joins when the last holder drops).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/task_router.hpp"

namespace dsched::service {

class Session;

/// Scheduler spec for sessions that don't pick their own.
inline constexpr std::string_view kDefaultScheduler = "hybrid";
/// Maintenance strategy for sessions that don't pick their own
/// (datalog/maintenance.hpp).
inline constexpr std::string_view kDefaultStrategy = "dred";
/// Queue bound for sessions that don't pick their own.
inline constexpr std::size_t kDefaultQueueCapacity = 64;
/// Epoch-pipeline depth K for sessions that don't pick their own: how many
/// update cascades one session may have in flight at once (DESIGN.md §12).
/// 1 = one cascade at a time, each epoch after the last.
inline constexpr std::size_t kDefaultPipelineDepth = 1;
/// Router channel slots == max pooled cascades in flight at once across
/// all sessions.  A session holds up to its pipeline depth K at once;
/// cascades that run inline on an apply thread hold none.
inline constexpr std::size_t kMaxConcurrentUpdates = 256;

/// Host-level configuration, fixed for the host's lifetime.
struct HostOptions {
  /// Workers in the one shared pool all sessions' cascades run on.
  std::size_t workers = 4;
};

/// Per-session configuration; zero/empty fields take the defaults above.
struct SessionOptions {
  /// Metrics prefix ("session.<name>.*"); auto-named "s<id>" when empty.
  std::string name;
  /// Scheduler factory spec ("hybrid", "levelbased", "lbl:<k>",
  /// "logicblox", "signal") that orders every cascade of this session.
  /// Empty → kDefaultScheduler.  Unknown specs are rejected at OpenSession
  /// with an error listing the valid values.
  std::string scheduler_spec;
  /// Maintenance strategy spec ("dred", "bf"); empty → kDefaultStrategy.
  /// Unknown names are rejected at OpenSession with an error listing the
  /// valid values.
  std::string maintenance_strategy;
  /// Max jobs waiting for admission before Submit blocks (admitted
  /// epochs, at most the pipeline depth, are not counted).  0 →
  /// kDefaultQueueCapacity.
  std::size_t queue_capacity = 0;
  /// Epoch-pipeline depth K: up to K cascades of this session overlap on
  /// the shared pool, fenced per dependency level by a StratumFrontier
  /// (runtime/pipeline.hpp).  0 → kDefaultPipelineDepth.  Clamped to
  /// [1, 64].
  /// Futures still resolve in dense epoch order regardless of depth.
  std::size_t pipeline_depth = 0;
  /// Hard per-session memory ceiling, in accounted bytes: every cascade
  /// of this session (all K in-flight epochs together) meters its tasks'
  /// resource_utility against ONE shared runtime::ResourceAccount, and
  /// the executor defers dispatch of any task that would push the live
  /// total over this bound.  Exhaustion therefore surfaces as slower
  /// cascades — and ultimately as Submit blocking on the bounded queue —
  /// never as a failed update.  0 = no ceiling (accounting only).
  std::uint64_t memory_budget = 0;
};

namespace detail {

/// The state sessions share with (and may outlive) the host handle.
struct HostCore {
  explicit HostCore(const HostOptions& opts)
      : options(opts),
        router({.workers = opts.workers,
                .max_channels = kMaxConcurrentUpdates}) {}

  const HostOptions options;
  runtime::TaskRouter router;
  obs::MetricsRegistry metrics;
  std::atomic<std::size_t> active_sessions{0};
  std::atomic<std::uint64_t> sessions_opened{0};

  /// Live-session registry for FindSession: id -> weak ref.  Sessions
  /// register at open (EngineHost::OpenSession) and unregister inside
  /// Close(), so a hit is always a session that has not finished closing.
  /// weak_ptr (not raw) is the TSan-clean lifetime story: a lookup that
  /// races the owner dropping its shared_ptr either locks a still-live
  /// control block or observes expiry — never a dangling pointer.
  std::mutex registry_mutex;
  std::map<std::uint64_t, std::weak_ptr<Session>> session_registry;

  void Register(std::uint64_t id, const std::shared_ptr<Session>& session) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    session_registry[id] = session;
  }
  void Unregister(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    session_registry.erase(id);
  }
};

}  // namespace detail

/// Factory/owner of the shared runtime.  Thread-safe: sessions may be
/// opened from any thread.
class EngineHost {
 public:
  explicit EngineHost(const HostOptions& options = {});
  ~EngineHost() = default;

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Parses, validates, and stratifies `program_text` into a new session.
  /// Throws util::ParseError / util::InvalidArgument on bad programs or a
  /// bad scheduler spec ("oracle" is rejected — it cannot drive live
  /// updates).  The session is independent: drop it whenever, in any
  /// order relative to the host.  Shared ownership so concurrent routing
  /// paths (FindSession) can hold the session across its owner's drop.
  [[nodiscard]] std::shared_ptr<Session> OpenSession(
      std::string_view program_text, const SessionOptions& options = {});

  /// Looks up a live session by its numeric id (Session::Id()).  Returns
  /// null when the id was never assigned, the session was destroyed, or
  /// Close() has completed — lookup-after-close is a miss by contract.
  /// Thread-safe against concurrent opens, closes, and drops; the returned
  /// shared_ptr keeps the session alive for the caller regardless of what
  /// the opener does with its own handle.
  [[nodiscard]] std::shared_ptr<Session> FindSession(std::uint64_t id);

  /// Ids of every currently registered (open, not yet closed) session, in
  /// ascending order.
  [[nodiscard]] std::vector<std::uint64_t> ActiveSessionIds();

  [[nodiscard]] std::size_t NumWorkers() const {
    return core_->router.NumWorkers();
  }
  [[nodiscard]] std::size_t ActiveSessions() const {
    return core_->active_sessions.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const HostOptions& Options() const { return core_->options; }

  /// The host-wide registry sessions publish `session.<name>.*` into.
  [[nodiscard]] obs::MetricsRegistry& Metrics() { return core_->metrics; }

  /// Direct router access for advanced callers (benches wiring their own
  /// cascades onto the shared pool).
  [[nodiscard]] runtime::TaskRouter& Router() { return core_->router; }

  /// Publishes `host.*` gauges (workers, active_sessions, sessions_opened,
  /// pool.* counters) into Metrics().
  void ExportMetrics();

 private:
  std::shared_ptr<detail::HostCore> core_;
};

}  // namespace dsched::service
