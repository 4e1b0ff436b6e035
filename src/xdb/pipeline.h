#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/connect/connector.h"
#include "src/timing/timing_model.h"
#include "src/xdb/annotator.h"
#include "src/xdb/delegation_engine.h"
#include "src/xdb/delegation_plan.h"
#include "src/xdb/global_catalog.h"
#include "src/xdb/plan_cache.h"

namespace xdb {

/// \brief Knobs of a federated query system: the XDB middleware's, and the
/// control-plane costs the mediator baselines share with it.
struct XdbOptions {
  /// Modelled-time scale-up: local rows are costed as if multiplied by this
  /// factor (local SF -> paper SF mapping; DESIGN.md §1).
  double scale_up = 1.0;

  /// Network node name hosting the middleware + client (control traffic and
  /// the final result flow to it).
  std::string middleware_node = "xdb";

  /// Logical-optimizer switches (for the ablation benches).
  PlannerOptions planner;

  /// Movement-type decision policy (for the ablation benches).
  int movement_policy = 0;  // 0 = cost-based, 1 = always implicit,
                            // 2 = always explicit (MovementPolicy order)

  /// Morsel-parallel worker budget applied to every component DBMS's
  /// executor: 0 = hardware concurrency (default), 1 = legacy serial path.
  /// Wall-clock only; modelled times and traces are identical either way.
  int exec_threads = 0;

  /// Delegation-plan cache capacity (entries). 0 (the default) disables
  /// caching entirely — every query runs the full parse/optimize/annotate
  /// pipeline, preserving the single-query paths bit-for-bit. The serving
  /// layer and the qps bench turn it on.
  size_t plan_cache_capacity = 0;

  // Control-plane cost constants (seconds per round trip, on top of link
  // latency). Calibrated so prep+lopt+ann stays in the paper's <=10 s band.
  double parse_analyze_cost = 0.05;
  double metadata_roundtrip_cost = 0.02;
  double lopt_base_cost = 0.1;
  double lopt_per_join_cost = 0.05;
  double consultation_cost = 0.04;   // one EXPLAIN probe on a DBMS
  double ddl_roundtrip_cost = 0.02;  // one DDL statement
};

/// \brief Per-query execution context supplied by the caller (the serving
/// layer, benches). Defaults reproduce the classic single-tenant behaviour.
struct QueryContext {
  /// Prefix for deployed relation names ("xdb" -> xdb_q<id>_t<k>). Empty
  /// uses the system's own namespace ("xdb", or the mediator's node name).
  /// Sessions pass a session-scoped prefix so concurrent deployments cannot
  /// collide even if query-id allocation ever changes.
  std::string ddl_prefix;

  /// Query-log label (bounded cardinality; e.g. "Q5"). Empty = "adhoc" on
  /// the metrics and "q<sequence>" in the query log.
  std::string label;

  /// Per-session span recorder override (nullptr = federation recorder).
  /// Installed thread-locally for the duration of the query so concurrent
  /// sessions each record their own timeline.
  SpanRecorder* spans = nullptr;

  /// Modelled-time deadline for the whole query (seconds; 0 = none). The
  /// budget is threaded through planning phases, retry backoff, injected
  /// fault delay, and failover replanning: a retry loop stops when the
  /// remaining budget cannot cover the next backoff, and when the budget
  /// runs out the query fails fast with kTimeout (or degrades under
  /// allow_partial) instead of burning further replan rounds. A round that
  /// completes successfully still returns its result even if it finished
  /// over budget — the deadline stops new work, not finished work.
  double deadline_seconds = 0;

  /// Opt-in partial results: when a non-root fragment cannot be delivered
  /// (producer down, link dead after retries, deadline expired), an empty
  /// fragment is substituted and the query returns the surviving rows with
  /// a ResultCompleteness annotation instead of failing. Default off —
  /// behaviour and every modelled number stay bit-identical.
  bool allow_partial = false;

  /// kTimeout naming this deadline and where the query ran out of it.
  Status DeadlineExhausted(const std::string& where) const;
};

/// \brief Per-phase modelled times, matching the paper's Figure 15 buckets.
struct PhaseBreakdown {
  double prep = 0;  // parse/analyze + metadata gathering via connectors
  double lopt = 0;  // logical optimization
  double ann = 0;   // plan annotation + finalization (consultations)
  double exec = 0;  // delegation + decentralized execution

  double total() const { return prep + lopt + ann + exec; }
};

/// \brief Everything a query run produces, for benches and inspection.
struct XdbReport {
  TablePtr result;
  DelegationPlan plan;
  XdbQuery xdb_query;
  std::vector<std::pair<std::string, std::string>> ddl_log;
  RunTrace trace;
  TimingBreakdown exec_timing;
  PhaseBreakdown phases;
  double wall_seconds = 0;  // real wall-clock of the whole pipeline

  int metadata_roundtrips = 0;
  int consultations = 0;
  int ddl_statements = 0;
  bool plan_cache_hit = false;  // annotated plan served from the cache

  /// Which fragments made it (always complete unless the query ran with
  /// allow_partial and lost a subtree).
  ResultCompleteness completeness;

  double total_seconds() const { return phases.total(); }
  double transferred_bytes() const { return trace.TotalTransferredBytes(); }
  bool partial() const { return !completeness.complete; }
};

/// \brief What sets one federated query system apart from another. XDB and
/// the mediator-wrapper baselines run the same QueryPipeline; they differ
/// only in where cross-database operators are placed (`place`) and in these
/// fixed values (DESIGN.md §7).
struct SystemSpec {
  std::string system;      // QueryStats::system: "xdb", "garlic", ...
  std::string span_name;   // root span: "<span_name> <query id>"
  std::string ddl_prefix;  // used when QueryContext::ddl_prefix is empty
  XdbOptions options;      // costs, scale-up, planner, exec threads

  bool consult_breakers = true;    // route around open circuit breakers
  // Failover replanning: after a retryable failure (node down, link dead),
  // annotation re-runs with the implicated placement excluded, up to this
  // many alternate rounds; 0 makes the first failure final.
  int max_failover_alternates = 2;
  bool bill_metadata_rtt = true;   // prep pays a link RTT per table touched
  bool ship_result = true;         // final result hop root -> middleware node
  bool localized_compute = false;  // compute_only = mediator-local compute

  /// Annotates `plan` in place (null constraints = none) and adds the
  /// EXPLAIN consultations it made to `*consultations`.
  std::function<Status(PlanNode* plan, const PlacementConstraints*,
                       int* consultations)>
      place;

  /// Optional: answers statements that never reach the federation (XDB's
  /// `xdb_stat` tables); nullopt falls through to the pipeline.
  std::function<std::optional<Result<XdbReport>>(const std::string& sql,
                                                  const QueryContext& ctx)>
      local;
};

/// \brief The one query pipeline both XDB and the mediators call:
/// prepare -> plan (cache) -> place -> deploy -> execute -> account ->
/// cleanup, with failover rounds around place..execute.
///
/// Thread-safe: concurrent Run() calls each record on their own thread
/// (thread-local run state, budget and span override) under a query-tagged
/// morsel scheduler.
class QueryPipeline {
 public:
  /// `connectors` covers every server the system deploys to; `catalog`
  /// resolves the global schema. Both must outlive the pipeline.
  QueryPipeline(Federation* fed, SystemSpec spec,
                std::map<std::string, DbmsConnector*> connectors,
                GlobalCatalog* catalog);

  /// Runs one query end to end. When the federation has a QueryLog and/or
  /// MetricsRegistry attached, banks one QueryStats record and the
  /// `{query=...}`/`{status=...}` query counters — observationally only.
  Result<XdbReport> Run(const std::string& sql, const QueryContext& ctx);

  const XdbOptions& options() const { return spec_.options; }
  DelegationPlanCache* plan_cache() const { return plan_cache_.get(); }
  int64_t placement_epoch() const {
    return placement_epoch_.load(std::memory_order_acquire);
  }
  int64_t queries_started() const {
    return query_counter_.load(std::memory_order_relaxed);
  }
  /// See XdbSystem::PlacementFingerprint().
  std::string PlacementFingerprint() const;
  /// See XdbSystem::last_trace().
  const RunTrace& last_trace() const { return last_trace_; }

 private:
  struct Query;  // one query's working state across the stages

  Result<XdbReport> RunStages(const std::string& sql,
                              const QueryContext& ctx, int query_id,
                              RunTrace* fail_trace);

  // Stages, in pipeline order.
  Status Prepare(Query* q);
  Status Place(Query* q, PlanNode* plan);
  Result<XdbQuery> Deploy(Query* q, DelegationEngine* engine,
                          DelegationPlan* dplan);
  Result<TablePtr> Execute(Query* q, DelegationEngine* engine,
                           const XdbQuery& xq, int64_t* span_id);
  void Account(Query* q, int round, const RunTrace& accum,
               const DelegationEngine& engine, int64_t span_begin,
               int64_t exec_span);
  void RecordQueryStats(const std::string& sql,
                        const Result<XdbReport>& result,
                        const RunTrace& fail_trace, const std::string& label);

  double Rtt(const std::string& server) const;
  bool BudgetExhausted() const { return fed_->RemainingBudget() == 0.0; }
  /// Bumps an unlabeled counter when a registry is attached and n > 0.
  void Count(const char* name, const char* help, int n) const;
  /// Gives the transfer spans recorded since `begin_id` their modelled wire
  /// seconds once `trace` is final.
  void AttachTransferSeconds(SpanRecorder* spans, int64_t begin_id,
                             const RunTrace& trace) const;

  Federation* fed_;
  const SystemSpec spec_;
  const std::map<std::string, DbmsConnector*> connectors_;
  GlobalCatalog* catalog_;
  const TimingModel model_;
  std::unique_ptr<DelegationPlanCache> plan_cache_;  // null when disabled
  uint64_t profile_hash_ = 0;  // engine profiles are setup-time constant
  std::atomic<int64_t> placement_epoch_{0};
  std::atomic<int> query_counter_{0};
  mutable std::mutex trace_mu_;  // guards last_trace_ under concurrency
  RunTrace last_trace_;
};

}  // namespace xdb
