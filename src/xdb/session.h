#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/span.h"
#include "src/xdb/xdb.h"

namespace xdb {

class SessionManager;

/// \brief Serving-layer knobs for one SessionManager.
struct ServingOptions {
  /// Queries allowed in flight simultaneously across all sessions
  /// (admission control). 0 = unlimited. Excess callers block in Query()
  /// until a slot frees — closed-loop clients self-throttle.
  int max_concurrent_queries = 0;

  /// Per-session span-recorder ring capacity. 0 (default) disables
  /// per-session recording — sessions then share whatever recorder is on
  /// the federation, which interleaves timelines under concurrency.
  size_t session_span_capacity = 0;

  /// Modelled-time deadline applied to every query served through this
  /// manager (seconds; 0 = none). See QueryContext::deadline_seconds.
  double default_deadline_seconds = 0;

  /// Fleet-wide partial-results policy: served queries substitute empty
  /// fragments for undeliverable non-root subtrees instead of failing
  /// (QueryContext::allow_partial). Default off — bit-identical serving.
  bool allow_partial = false;
};

/// \brief Point-in-time view of one *open* session, as surfaced by the
/// `xdb_stat.sessions` system table. Counters come from the manager's
/// atomic per-session registry, so snapshotting is safe while other
/// sessions run queries (the session object itself stays single-threaded).
struct SessionSnapshot {
  int id = 0;
  std::string ddl_prefix;       // the session's DDL namespace
  int inflight = 0;             // queries executing right now (0 or 1)
  int64_t queries_served = 0;   // completed queries, successes + failures
  int64_t failures = 0;
};

/// \brief One client's connection to the federation: a DDL namespace, a
/// query-label channel, an optional private span timeline, and per-session
/// latency bookkeeping. Obtained from SessionManager::OpenSession().
///
/// A session is NOT itself thread-safe — it models one client, so one
/// thread drives it at a time. Concurrency comes from many sessions
/// calling Query() in parallel: the underlying XdbSystem runs each on its
/// calling thread with thread-local run recording, session-scoped relation
/// names ("xdb_s<id>_q<n>_t<k>"), and a fair query-tagged morsel scheduler.
class XdbSession {
 public:
  ~XdbSession();
  XdbSession(const XdbSession&) = delete;
  XdbSession& operator=(const XdbSession&) = delete;

  /// Runs one query under this session's namespace. Blocks for admission
  /// when the manager's in-flight limit is reached.
  Result<XdbReport> Query(const std::string& sql) { return Query(sql, ""); }

  /// Query() with a query-log label ("Q5"-style, bounded vocabulary).
  Result<XdbReport> Query(const std::string& sql, const std::string& label);

  int id() const { return id_; }
  /// Prefix for every relation this session deploys ("xdb_s<id>").
  const std::string& ddl_prefix() const { return ddl_prefix_; }

  int64_t queries_run() const {
    return static_cast<int64_t>(latencies_.size()) + failures_;
  }
  int64_t plan_cache_hits() const { return plan_cache_hits_; }
  int64_t failures() const { return failures_; }

  /// Modelled end-to-end seconds of each *successful* query, in issue
  /// order (failures are counted in failures(), not timed). The qps bench
  /// aggregates these into p50/p99.
  const std::vector<double>& modelled_latencies() const { return latencies_; }

  /// This session's private span timeline (nullptr unless the manager was
  /// configured with session_span_capacity > 0).
  SpanRecorder* spans() { return spans_ ? spans_.get() : nullptr; }

 private:
  friend class SessionManager;
  XdbSession(SessionManager* mgr, int id, size_t span_capacity);

  struct Counters;  // atomic per-session cells shared with the manager

  SessionManager* mgr_;
  int id_;
  std::string ddl_prefix_;
  std::unique_ptr<SpanRecorder> spans_;
  std::shared_ptr<Counters> counters_;
  std::vector<double> latencies_;
  int64_t plan_cache_hits_ = 0;
  int64_t failures_ = 0;
};

/// \brief Atomic per-session counters, shared between the session (writer,
/// from Run's calling thread) and the manager's registry (readers:
/// SnapshotSessions under concurrent serving). Separate from XdbSession's
/// plain members so introspection never races the single-threaded session
/// object.
struct XdbSession::Counters {
  std::string ddl_prefix;
  std::atomic<int> inflight{0};
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> failures{0};
};

/// \brief The multi-tenant serving layer over one XdbSystem (ISSUE 6
/// tentpole): hands out sessions, enforces admission control, and keeps
/// fleet-level counters. Thread-safe; typically one per process.
///
/// Exposes xdb_sessions_opened_total / xdb_active_sessions /
/// xdb_inflight_queries through the federation's MetricsRegistry when one
/// is attached.
class SessionManager {
 public:
  explicit SessionManager(XdbSystem* xdb, ServingOptions options = {});

  /// Opens a new session with a fresh id/namespace. Sessions may outlive
  /// the manager's other sessions but not the manager itself.
  std::unique_ptr<XdbSession> OpenSession();

  XdbSystem* system() const { return xdb_; }
  const ServingOptions& options() const { return options_; }

  int64_t total_queries() const {
    return total_queries_.load(std::memory_order_relaxed);
  }

  /// Point-in-time view of every open session, sorted by id. Safe to call
  /// while other threads serve queries: the registry map is mutex-guarded
  /// and the per-session counters are atomic.
  std::vector<SessionSnapshot> SnapshotSessions() const;

 private:
  friend class XdbSession;

  /// The one query path: admission -> XdbSystem::Query with the session's
  /// context -> bookkeeping.
  Result<XdbReport> Run(XdbSession* session, const std::string& sql,
                        const std::string& label);
  void CloseSession(int id);

  void SetGauge(const std::string& name, double value,
                const std::string& help);

  XdbSystem* xdb_;
  ServingOptions options_;
  std::atomic<int> next_session_id_{0};
  std::atomic<int> active_sessions_{0};
  std::atomic<int64_t> total_queries_{0};

  // Admission control.
  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int inflight_ = 0;

  // Session registry (id -> shared counters) for SnapshotSessions. The map
  // is guarded; the counters themselves are atomic, so query threads never
  // take this mutex.
  mutable std::mutex sessions_mu_;
  std::map<int, std::shared_ptr<XdbSession::Counters>> sessions_;
};

}  // namespace xdb
