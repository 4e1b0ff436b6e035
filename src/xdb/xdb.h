#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/xdb/pipeline.h"

namespace xdb {

class IntrospectionRegistry;
class SessionManager;

/// \brief The XDB middleware: optimizer + delegation engine over a
/// federation of autonomous DBMSes (the paper's Figure 4b).
///
/// XDB itself has *no execution engine*. Query() optimizes the
/// cross-database query into a delegation plan, deploys it as views +
/// foreign tables through the vendor connectors, and triggers the XDB query
/// on the root DBMS; the component DBMSes then execute the query among
/// themselves, streaming intermediate data directly.
class XdbSystem {
 public:
  /// Builds connectors (with vendor dialects) for every server in `fed` and
  /// discovers the Global-as-a-View schema.
  explicit XdbSystem(Federation* fed, XdbOptions options = {});
  ~XdbSystem();

  /// Runs a cross-database SQL query end to end. When the federation has a
  /// QueryLog and/or MetricsRegistry attached, one QueryStats record and
  /// the `{query=...}`/`{status=...}` labeled query counters are banked per
  /// call — observationally only (results and modelled times are
  /// bit-identical either way).
  Result<XdbReport> Query(const std::string& sql);

  /// Query() with an explicit serving context (DDL namespace, log label,
  /// per-session span recorder). Thread-safe: concurrent calls on one
  /// XdbSystem are supported — each runs on its calling thread with
  /// thread-local run recording and a query-tagged morsel scheduler.
  Result<XdbReport> Query(const std::string& sql, const QueryContext& ctx);

  /// EXPLAIN ANALYZE at the federation level: runs the query with a
  /// per-operator profiler attached to every component DBMS and returns a
  /// one-column text table — phase breakdown, transfer totals (useful vs.
  /// wasted bytes), then each server's executed operator tree annotated
  /// with observed rows, selectivity, morsel batches, and modelled operator
  /// seconds (at the configured scale-up). Purely observational: the
  /// underlying Query() produces bit-identical results and modelled times.
  Result<TablePtr> ExplainAnalyze(const std::string& sql);

  /// ExplainAnalyze under an explicit context (deadline / allow_partial /
  /// session namespace); partial results gain a completeness section.
  Result<TablePtr> ExplainAnalyze(const std::string& sql,
                                  const QueryContext& ctx);

  GlobalCatalog& catalog() { return *catalog_; }
  DbmsConnector* connector(const std::string& server) const;
  const XdbOptions& options() const { return pipeline_->options(); }
  Federation* federation() const { return fed_; }

  /// The delegation-plan cache (nullptr when plan_cache_capacity == 0).
  DelegationPlanCache* plan_cache() const { return pipeline_->plan_cache(); }

  /// Placement epoch: bumped whenever failover replanning routed around a
  /// node or link, retiring every cached plan built for the old placement.
  int64_t placement_epoch() const { return pipeline_->placement_epoch(); }

  /// The cache-key fingerprint current placements hash to (catalog/stats
  /// versions + engine-profile hash + placement epoch + policy knobs).
  std::string PlacementFingerprint() const {
    return pipeline_->PlacementFingerprint();
  }

  /// JSON calibration log: one record per observed operator/transfer in the
  /// federation QueryLog's retained history, pairing planning-time features
  /// (operator type, input cardinality, predicate class, engine, placement)
  /// with observed outcomes (rows, modelled seconds, bytes, q-error) —
  /// offline training data for estimator recalibration. Empty `records`
  /// when no QueryLog is attached.
  std::string ExportCalibrationLog() const;

  /// Trace of the most recent Query() — kept even when Query returned an
  /// error, so the recovery trail (retries, rollbacks, replan rounds) of a
  /// failed query stays inspectable. Single-threaded inspection API; under
  /// concurrent serving, "most recent" is whichever query finished last.
  const RunTrace& last_trace() const { return pipeline_->last_trace(); }

  // --- SQL-queryable introspection (DESIGN.md §14) ---

  /// Enables the `xdb_stat.*` virtual system tables on this system,
  /// registering the standard providers lazily (idempotent; later calls may
  /// wire a SessionManager that wasn't available earlier). Until this is
  /// called, `xdb_stat` queries fail with a catalog error and the query
  /// pipeline pays nothing — the default detached path is bit-identical.
  /// Setup-time API: call before serving queries concurrently.
  IntrospectionRegistry* EnableIntrospection(
      SessionManager* sessions = nullptr);

  /// The registry when introspection is enabled, else nullptr.
  IntrospectionRegistry* introspection() const { return introspect_.get(); }

  /// Lifetime count of queries started on this system (feeds the
  /// `xdb_uptime_queries_total` snapshot counter).
  int64_t queries_started() const { return pipeline_->queries_started(); }

 private:
  /// Runs a `SELECT` over the `xdb_stat.*` system tables mediator-local:
  /// snapshots every referenced provider once at query start, plans with
  /// the normal logical optimizer, and executes on the middleware node with
  /// the vectorized executor — zero metadata roundtrips, zero consultations,
  /// zero transfers, never plan-cached. `*handled` is false (fall through
  /// to the federation pipeline) when the statement parses but references
  /// no xdb_stat relation after all.
  Result<XdbReport> RunIntrospectionQuery(const std::string& sql,
                                          const QueryContext& ctx,
                                          bool* handled);

  Federation* fed_;
  std::map<std::string, std::unique_ptr<DbmsConnector>> connectors_;
  std::map<std::string, DbmsConnector*> connector_ptrs_;
  std::unique_ptr<GlobalCatalog> catalog_;
  std::unique_ptr<IntrospectionRegistry> introspect_;  // null until enabled
  std::unique_ptr<QueryPipeline> pipeline_;
};

}  // namespace xdb
