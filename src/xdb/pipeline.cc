#include "src/xdb/pipeline.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "src/common/thread_pool.h"
#include "src/plan/planner.h"
#include "src/sql/parser.h"
#include "src/xdb/finalizer.h"

namespace xdb {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void HashCombine(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
}

/// Engine profiles are fixed at federation setup, so this hash is computed
/// once; it exists so a cache carried across reconfigured federations (e.g.
/// in tests) can never serve a plan annotated under different cost models.
uint64_t HashProfiles(Federation* fed) {
  uint64_t h = 0;
  for (const auto& name : fed->ServerNames()) {
    HashCombine(&h, std::hash<std::string>()(name));
    HashCombine(&h, fed->GetServer(name)->profile().Fingerprint());
  }
  return h;
}

/// Everything one top-level query holds for its lifetime, released in
/// reverse order on every exit path: the morsel-scheduler tag (concurrent
/// queries round-robin on the shared pool), the session's span-recorder
/// override, the modelled-time budget, the root span and the wall clock.
class QueryScope {
 public:
  QueryScope(Federation* fed, const QueryContext& ctx,
             const std::string& span_name, const std::string& sql,
             int query_id)
      : fed_(fed),
        tag_(static_cast<uint64_t>(query_id)),
        span_override_(ctx.spans != nullptr),
        wall_start_(NowSeconds()) {
    if (span_override_) Federation::SetThreadSpanRecorder(ctx.spans);
    // Retry backoff and injected delay charge the budget automatically;
    // the stages charge planning and failed rounds explicitly.
    fed_->ArmQueryBudget(ctx.deadline_seconds, ctx.allow_partial);
    // Observability is opt-in per federation; `spans_ == nullptr` keeps
    // every span hook at one pointer compare.
    spans_ = fed_->span_recorder();
    if (spans_ != nullptr) {
      root_span_ = spans_->StartSpan(span_name + " " +
                                     std::to_string(query_id));
      spans_->mutable_span(root_span_)->Tag("sql", sql);
    }
  }

  ~QueryScope() {
    if (spans_ != nullptr) {
      spans_->EndSpan(root_span_);
      spans_->FinalizeTimeline();
    }
    fed_->DisarmQueryBudget();
    if (span_override_) Federation::SetThreadSpanRecorder(nullptr);
  }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  SpanRecorder* spans() const { return spans_; }
  double elapsed_seconds() const { return NowSeconds() - wall_start_; }

 private:
  Federation* fed_;
  ScopedQueryTag tag_;
  bool span_override_;
  double wall_start_;
  SpanRecorder* spans_ = nullptr;
  int64_t root_span_ = -1;
};

/// Picks what the next failover round must avoid, from the failure's typed
/// site: a dropped link, else the server whose DDL failed, else the site's
/// server, else the round's root. False when that excludes nothing new.
bool ExcludeCulprit(const Status& failure, const DelegationEngine& engine,
                    const std::string& root, PlacementConstraints* c) {
  const FailureSite* site = failure.site();
  if (site != nullptr && site->link_drop && !site->peer.empty() &&
      c->blocked_links
          .insert(PlacementConstraints::LinkKey(site->server, site->peer))
          .second) {
    return true;
  }
  const std::string& culprit = engine.last_failure().has_value()
                                   ? engine.last_failure()->server
                               : site != nullptr ? site->server
                                                 : root;
  return !culprit.empty() && c->excluded_servers.insert(culprit).second;
}

}  // namespace

Status QueryContext::DeadlineExhausted(const std::string& where) const {
  return Status::Timeout("query deadline (" +
                         std::to_string(deadline_seconds) +
                         "s of modelled time) exhausted " + where);
}

/// One query's working state as it moves through the stages.
struct QueryPipeline::Query {
  Query(const std::string& s, const QueryContext& c, SpanRecorder* r)
      : sql(s), ctx(c), spans(r) {}

  const std::string& sql;
  const QueryContext& ctx;
  SpanRecorder* spans;
  XdbReport report;
  PlacementConstraints constraints;
  PlanPtr plan;  // logical plan (miss) or annotated cached master (hit)
  bool cache_hit = false;
  std::string norm_sql;  // plan-cache key, when a cache is attached
  std::string fingerprint;
};

QueryPipeline::QueryPipeline(Federation* fed, SystemSpec spec,
                             std::map<std::string, DbmsConnector*> connectors,
                             GlobalCatalog* catalog)
    : fed_(fed),
      spec_(std::move(spec)),
      connectors_(std::move(connectors)),
      catalog_(catalog),
      model_(fed, TimingOptions{spec_.options.scale_up}),
      profile_hash_(HashProfiles(fed)) {
  if (spec_.options.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<DelegationPlanCache>(
        spec_.options.plan_cache_capacity);
  }
}

std::string QueryPipeline::PlacementFingerprint() const {
  // Everything annotation depends on, cheap enough to recompute per query:
  // schema/stats versions, engine profiles, placement epoch, and the policy
  // knobs (constant per system, but a cache moved between systems must not
  // cross-serve).
  const XdbOptions& o = options();
  return "c" + std::to_string(catalog_->catalog_version()) + ":s" +
         std::to_string(catalog_->stats_version()) + ":p" +
         std::to_string(profile_hash_) + ":e" +
         std::to_string(placement_epoch()) + ":m" +
         std::to_string(o.movement_policy) + ":pl" +
         std::to_string(static_cast<int>(o.planner.reorder_joins)) +
         std::to_string(static_cast<int>(o.planner.prune_columns)) +
         std::to_string(static_cast<int>(o.planner.push_down_filters)) +
         std::to_string(static_cast<int>(o.planner.bushy_joins)) +
         // Health epoch: every breaker transition retires cached plans the
         // way a placement-epoch bump does (":h0" with no tracker).
         ":h" +
         std::to_string(fed_->health_tracker() != nullptr
                            ? fed_->health_tracker()->state_epoch()
                            : 0);
}

double QueryPipeline::Rtt(const std::string& server) const {
  return 2.0 *
         fed_->network().GetLink(options().middleware_node, server).latency;
}

void QueryPipeline::Count(const char* name, const char* help, int n) const {
  MetricsRegistry* metrics = fed_->metrics();
  if (metrics != nullptr && n > 0) {
    metrics->GetCounter(name, {}, help)->Increment(n);
  }
}

void QueryPipeline::AttachTransferSeconds(SpanRecorder* spans,
                                          int64_t begin_id,
                                          const RunTrace& trace) const {
  if (spans == nullptr) return;
  // Spans carry the record id; ids restart every round, so only spans with
  // id >= `begin_id` match. The window is a span *id*, not an index: under
  // ring-buffer retention ids are stable while positions shift.
  for (Span& s : spans->mutable_spans()) {
    if (s.id < begin_id || s.record_id < 0) continue;
    size_t idx = static_cast<size_t>(s.record_id);
    if (idx < trace.transfers.size() &&
        trace.transfers[idx].id == s.record_id) {
      s.duration_seconds = model_.TransferSeconds(trace.transfers[idx]);
    }
  }
}

Result<XdbReport> QueryPipeline::Run(const std::string& sql,
                                     const QueryContext& ctx) {
  const int query_id =
      query_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Fresh per query: a query failing in parse or prepare must not report
  // the previous query's recovery trail (or bank its bytes into the log).
  RunTrace fail_trace;
  Result<XdbReport> result = RunStages(sql, ctx, query_id, &fail_trace);
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_ = result.ok() ? result->trace : fail_trace;
  }
  RecordQueryStats(sql, result, fail_trace, ctx.label);
  return result;
}

Result<XdbReport> QueryPipeline::RunStages(const std::string& sql,
                                           const QueryContext& ctx,
                                           int query_id,
                                           RunTrace* fail_trace) {
  QueryScope scope(fed_, ctx, spec_.span_name, sql, query_id);
  if (spec_.local) {
    std::optional<Result<XdbReport>> local = spec_.local(sql, ctx);
    if (local.has_value()) {
      if (local->ok()) (*local)->wall_seconds = scope.elapsed_seconds();
      return std::move(*local);
    }
  }
  Query q(sql, ctx, scope.spans());
  XDB_RETURN_NOT_OK(Prepare(&q));
  const std::string& prefix =
      ctx.ddl_prefix.empty() ? spec_.ddl_prefix : ctx.ddl_prefix;

  // --- place -> deploy -> execute, with failover. ---
  // A retryable failure (node down, link dead) excludes the implicated
  // placement/link and re-runs annotation + deployment on a fresh clone of
  // the plan, up to max_failover_alternates alternate rounds. The recovery
  // trail of failed rounds accumulates into the final trace.
  RunTrace accum;
  Status final_status;
  bool deadline_hit = false;  // the deadline ended the failover loop
  const int max_rounds = spec_.max_failover_alternates;
  for (int round = 0;; ++round) {
    const int64_t span_begin = q.spans != nullptr ? q.spans->next_id() : 0;
    SpanGuard round_span(q.spans, "round " + std::to_string(round));
    // Hit path, round 0: the cached clone is already annotated. Failover
    // rounds (and the miss path) annotate a fresh clone against the current
    // constraints; on a cached plan that overwrites the stale placements.
    PlanPtr round_plan = q.plan->Clone();
    if (!q.cache_hit || round > 0 || !q.constraints.empty()) {
      // Exclusions that empty the candidate set (kUnavailable) or an
      // unannotatable plan leave nothing to try either way.
      final_status = Place(&q, round_plan.get());
      if (!final_status.ok()) break;
      if (BudgetExhausted()) {
        deadline_hit = true;
        final_status = ctx.DeadlineExhausted("during plan annotation");
        break;
      }
      // Only the first unconstrained annotation is worth caching:
      // constrained rounds bake failover exclusions into their placements.
      if (plan_cache_ != nullptr && !q.cache_hit && round == 0 &&
          q.constraints.empty()) {
        Count("xdb_plan_cache_evictions_total",
              "Delegation-plan cache evictions (LRU + stale)",
              plan_cache_->Insert(q.norm_sql, q.fingerprint,
                                  round_plan->Clone()));
      }
    }

    // Later rounds get their own name prefix: a fault window may have left
    // the previous round's rollback incomplete, and redeployment must not
    // collide with relations still awaiting cleanup.
    Result<DelegationPlan> dplan = FinalizePlan(
        *round_plan, query_id,
        round == 0 ? prefix : prefix + "_r" + std::to_string(round));
    if (!dplan.ok()) {
      final_status = dplan.status();
      break;
    }
    const std::string root = dplan->tasks.back().server;
    DelegationEngine engine(connectors_, fed_);
    fed_->BeginRun(root);
    Result<XdbQuery> deployed = Deploy(&q, &engine, &*dplan);
    Status run_status = deployed.status();
    if (deployed.ok()) {
      int64_t exec_span = -1;
      Result<TablePtr> result = Execute(&q, &engine, *deployed, &exec_span);
      run_status = result.status();
      if (result.ok()) {
        q.report.result = std::move(result).value();
        q.report.plan = std::move(dplan).value();
        q.report.xdb_query = *deployed;
        Account(&q, round, accum, engine, span_begin, exec_span);
        if (round > 0) {
          // Failover changed the placement landscape; retire every cached
          // plan built before it by advancing the epoch.
          placement_epoch_.fetch_add(1, std::memory_order_acq_rel);
        }
        // --- cleanup. A failed DROP does not discard the computed answer:
        // the relations it left behind are listed on the trace instead.
        if (!engine.Cleanup().ok()) {
          q.report.trace.leaked_relations = engine.pending_cleanup();
        }
        q.report.wall_seconds = scope.elapsed_seconds();
        return std::move(q.report);
      }
    }

    // This round is lost. Bank its recovery trail and its modelled cost.
    RunTrace failed = fed_->FinishRun();
    AttachTransferSeconds(q.spans, span_begin, failed);
    accum.retries.insert(accum.retries.end(), failed.retries.begin(),
                         failed.retries.end());
    accum.total_backoff_seconds += failed.total_backoff_seconds;
    accum.injected_delay_seconds += failed.injected_delay_seconds;
    // Per-server compute of the lost round: the servers really did that
    // work to serve the round's transfers, so it stays on their totals.
    for (const auto& [srv, compute] : failed.per_server) {
      accum.per_server[srv].Add(compute);
    }
    const double round_cost = model_.ModelRun(failed).total +
                              engine.ddl_count() * options().ddl_roundtrip_cost;
    accum.wasted_attempt_seconds += round_cost;
    // Backoff and injected delay already charged themselves as they
    // happened; the round's modelled execution time charges here.
    fed_->ChargeBudget(round_cost);

    if (!run_status.IsRetryable() || round >= max_rounds) {
      final_status = std::move(run_status);
      break;
    }
    if (BudgetExhausted()) {
      // Fail fast with kTimeout instead of burning further replan rounds
      // the deadline can no longer pay for.
      deadline_hit = true;
      final_status = ctx.DeadlineExhausted(
          "after " + std::to_string(round + 1) +
          " round(s): " + run_status.message());
      break;
    }
    if (!ExcludeCulprit(run_status, engine, root, &q.constraints)) {
      final_status = std::move(run_status);  // no way to make progress
      break;
    }
    accum.replan_rounds = round + 1;
  }

  // Every alternate exhausted (or the failure was terminal). Preserve the
  // recovery trail and name what was unavailable.
  accum.recovery_action = RecoveryAction::kFailed;
  accum.excluded_servers.assign(q.constraints.excluded_servers.begin(),
                                q.constraints.excluded_servers.end());
  fed_->CountReplanRounds(accum.replan_rounds);
  if (!q.constraints.empty()) {
    // Even a failed query learned that some placements are bad — cached
    // plans that might route through them must not be served again.
    placement_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  *fail_trace = std::move(accum);
  // A deadline timeout surfaces as kTimeout untouched — callers (and
  // tests) distinguish "out of budget" from "ran out of alternates".
  if (!deadline_hit && final_status.IsRetryable() && !q.constraints.empty()) {
    std::string unavailable;
    for (const auto& s : q.constraints.excluded_servers) {
      unavailable += (unavailable.empty() ? "" : ", ") + s;
    }
    for (const auto& [a, b] : q.constraints.blocked_links) {
      unavailable += (unavailable.empty() ? "" : ", ") + a + "<->" + b;
    }
    return Status::Unavailable(
        "query failed after " + std::to_string(fail_trace->replan_rounds) +
        " failover round(s); unavailable: [" + unavailable +
        "]: " + final_status.message());
  }
  return final_status;
}

Status QueryPipeline::Prepare(Query* q) {
  XdbReport& r = q->report;
  const XdbOptions& o = options();
  // --- Circuit breakers: consulted once per query. ---
  // Every open breaker seeds the planning constraints, so placement routes
  // around sick servers *before* touching them. The consult may advance
  // cooldowns (Open -> HalfOpen bumps the health epoch), so it must
  // precede the fingerprint computation below.
  HealthTracker* health = fed_->health_tracker();
  if (spec_.consult_breakers && health != nullptr) {
    for (auto& sick : health->PlanningExclusions()) {
      q->constraints.excluded_servers.insert(std::move(sick));
    }
  }

  // --- Delegation-plan cache probe. ---
  // A hit skips parsing, preparation, logical optimization, AND the
  // annotation consultations of round 0: the cached plan is already
  // annotated for the current placement (the fingerprint proves it).
  if (plan_cache_ != nullptr) {
    q->norm_sql = NormalizeSql(q->sql);
    q->fingerprint = PlacementFingerprint();
    q->plan = plan_cache_->Lookup(q->norm_sql, q->fingerprint);
    q->cache_hit = q->plan != nullptr;
    Count(q->cache_hit ? "xdb_plan_cache_hits_total"
                       : "xdb_plan_cache_misses_total",
          q->cache_hit ? "Delegation-plan cache hits"
                       : "Delegation-plan cache misses",
          1);
  }
  r.plan_cache_hit = q->cache_hit;

  if (q->cache_hit) {
    if (q->spans != nullptr) {
      int64_t id = q->spans->StartSpan("plan-cache-hit");
      q->spans->mutable_span(id)->Tag("fingerprint", q->fingerprint);
      q->spans->EndSpan(id);
    }
  } else {
    // --- prepare: parse/analyze + gather metadata via connectors. ---
    XDB_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(q->sql));
    GlobalCatalog::ResetThreadRoundtrips();
    double prep_rtt = 0;
    // Touch every referenced base table (recursing into derived tables) so
    // schema + statistics are fetched through the owning DBMS's connector
    // (cached across queries).
    std::function<Status(const sql::SelectStmt&)> touch =
        [&](const sql::SelectStmt& sel) -> Status {
      for (const auto& ref : sel.from) {
        if (ref.subquery) {
          XDB_RETURN_NOT_OK(touch(*ref.subquery));
          continue;
        }
        XDB_RETURN_NOT_OK(catalog_->Resolve(ref.db, ref.table).status());
        std::string server = catalog_->LocateTable(ref.table);
        if (spec_.bill_metadata_rtt && !server.empty()) {
          prep_rtt += Rtt(server);
        }
      }
      return Status::OK();
    };
    XDB_RETURN_NOT_OK(touch(*stmt));
    // Thread-scoped count: concurrent sessions sharing the catalog must
    // each bill exactly their own lazy metadata fetches.
    r.metadata_roundtrips = GlobalCatalog::ThreadRoundtrips();
    r.phases.prep = o.parse_analyze_cost +
                    r.metadata_roundtrips * o.metadata_roundtrip_cost +
                    prep_rtt;
    if (q->spans != nullptr) {
      int64_t id = q->spans->StartSpan("prepare");
      Span* sp = q->spans->mutable_span(id);
      sp->duration_seconds = r.phases.prep;
      sp->Tag("metadata_roundtrips",
              static_cast<int64_t>(r.metadata_roundtrips));
      q->spans->EndSpan(id);
    }

    // --- plan: logical optimization (pushdowns + join ordering). ---
    Planner planner(catalog_, o.planner);
    XDB_ASSIGN_OR_RETURN(q->plan, planner.Plan(*stmt));
    size_t njoins = stmt->from.size() > 0 ? stmt->from.size() - 1 : 0;
    r.phases.lopt = o.lopt_base_cost +
                    o.lopt_per_join_cost * static_cast<double>(njoins);
    if (q->spans != nullptr) {
      int64_t id = q->spans->StartSpan("logical-optimize");
      q->spans->mutable_span(id)->duration_seconds = r.phases.lopt;
      q->spans->EndSpan(id);
    }
  }

  // Preparation + logical optimization count against the deadline; failing
  // here (rather than deep in a replan round) is the fail-fast path.
  fed_->ChargeBudget(r.phases.prep + r.phases.lopt);
  return BudgetExhausted() ? q->ctx.DeadlineExhausted("during preparation")
                           : Status::OK();
}

Status QueryPipeline::Place(Query* q, PlanNode* plan) {
  const double cost = options().consultation_cost;
  int consultations = 0;
  Status st;
  {
    SpanGuard span(q->spans, "annotate");
    st = spec_.place(plan, q->constraints.empty() ? nullptr : &q->constraints,
                     &consultations);
    if (Span* sp = span.span()) {
      sp->duration_seconds = consultations * cost;
      sp->Tag("consultations", static_cast<int64_t>(consultations));
    }
  }
  // Each consultation is one round trip to one candidate DBMS.
  q->report.consultations += consultations;
  q->report.phases.ann += consultations * cost;
  fed_->ChargeBudget(consultations * cost);
  return st;
}

Result<XdbQuery> QueryPipeline::Deploy(Query* q, DelegationEngine* engine,
                                       DelegationPlan* dplan) {
  SpanGuard span(q->spans, "deploy");
  if (Span* sp = span.span()) {
    sp->Tag("tasks", static_cast<int64_t>(dplan->tasks.size()));
    sp->Tag("root", dplan->tasks.back().server);
  }
  return engine->Deploy(dplan);
}

Result<TablePtr> QueryPipeline::Execute(Query* q, DelegationEngine* engine,
                                        const XdbQuery& xq,
                                        int64_t* span_id) {
  // The client triggers the in-situ execution with the XDB query.
  std::optional<Result<TablePtr>> result;
  {
    SpanGuard span(q->spans, "execute");
    *span_id = span.id();
    if (Span* sp = span.span()) sp->Tag("server", xq.server);
    result.emplace(connectors_.at(xq.server)->RunQuery(xq.sql));
  }
  // Root triggering is a single attempt (retry lives in the fetch/DDL
  // paths); its verdict still feeds the health tracker.
  fed_->RecordHealthOutcome(xq.server, 1, result->status());
  if (!result->ok()) {
    // Execution failed after a successful deploy: roll the cascade back
    // (Deploy-time failures already rolled themselves back).
    (void)engine->Cleanup();
    fed_->NoteRecovery(RecoveryAction::kRolledBack);
  }
  return std::move(*result);
}

void QueryPipeline::Account(Query* q, int round, const RunTrace& accum,
                            const DelegationEngine& engine,
                            int64_t span_begin, int64_t exec_span) {
  XdbReport& r = q->report;
  const XdbOptions& o = options();
  if (spec_.ship_result) {
    // The final result is the only data that leaves the federation.
    const Federation::WireCharge wire = fed_->ChargeWire(*r.result);
    fed_->network().RecordTransfer(r.xdb_query.server, o.middleware_node,
                                   wire.bytes, 1, wire.encoded);
  }
  r.trace = fed_->FinishRun();

  // Fold the failed rounds' recovery trail into the winning trace.
  r.trace.retries.insert(r.trace.retries.begin(), accum.retries.begin(),
                         accum.retries.end());
  r.trace.total_backoff_seconds += accum.total_backoff_seconds;
  r.trace.injected_delay_seconds += accum.injected_delay_seconds;
  r.trace.wasted_attempt_seconds += accum.wasted_attempt_seconds;
  // Compute spent serving failed rounds' transfers really happened on those
  // servers (it is already part of wasted_attempt_seconds on the time side).
  for (const auto& [srv, compute] : accum.per_server) {
    r.trace.per_server[srv].Add(compute);
  }
  r.trace.replan_rounds = round;
  r.trace.excluded_servers.assign(q->constraints.excluded_servers.begin(),
                                  q->constraints.excluded_servers.end());
  if (round > 0) {
    r.trace.recovery_action =
        std::max(r.trace.recovery_action, RecoveryAction::kReplanned);
  }

  // Completeness over the winning round only: a fragment lost in a *failed*
  // round was re-fetched by the replan. Fragment-count based — est_rows of
  // lost fragments are estimates, not ground truth.
  r.completeness.lost = r.trace.lost_fragments;
  r.completeness.complete = r.trace.lost_fragments.empty();
  if (!r.completeness.complete) {
    double delivered = 0;
    for (const auto& t : r.trace.transfers) {
      if (!t.failed) delivered += 1;
    }
    const double lost = static_cast<double>(r.trace.lost_fragments.size());
    r.completeness.completeness_fraction = delivered / (delivered + lost);
  }

  r.ddl_statements = engine.ddl_count();
  r.ddl_log = engine.ddl_log();
  r.exec_timing = model_.ModelRun(r.trace);
  if (spec_.localized_compute) {
    // MW systems report "actual execution" the way the paper measures it:
    // mediator-local compute with subquery results preloaded.
    r.exec_timing.compute_only = model_.LocalizedCompute(r.trace);
    r.exec_timing.transfer_share =
        r.exec_timing.total - r.exec_timing.compute_only;
  }
  AttachTransferSeconds(q->spans, span_begin, r.trace);
  if (q->spans != nullptr && exec_span >= 0) {
    q->spans->mutable_span(exec_span)->duration_seconds = r.exec_timing.total;
  }
  fed_->CountReplanRounds(round);
  r.phases.exec = r.exec_timing.total +
                  r.ddl_statements * o.ddl_roundtrip_cost +
                  r.trace.total_backoff_seconds +
                  r.trace.injected_delay_seconds +
                  r.trace.wasted_attempt_seconds;
}

void QueryPipeline::RecordQueryStats(const std::string& sql,
                                     const Result<XdbReport>& result,
                                     const RunTrace& fail_trace,
                                     const std::string& label_hint) {
  QueryLog* qlog = fed_->query_log();
  MetricsRegistry* metrics = fed_->metrics();
  if (qlog == nullptr && metrics == nullptr) return;

  QueryStats qs;
  qs.system = spec_.system;
  qs.sql = sql;
  qs.ok = result.ok();
  // The trace of a failed query is the accumulated recovery trail; a
  // successful one reports its winning round's trace.
  const RunTrace& trace = result.ok() ? result->trace : fail_trace;
  qs.useful_bytes = trace.UsefulTransferredBytes();
  qs.wasted_bytes = trace.WastedTransferredBytes();
  qs.raw_bytes = trace.TotalRawTransferredBytes();
  qs.transfer_rows = trace.TotalTransferredRows();
  qs.transfers = static_cast<int>(trace.transfers.size());
  qs.retries = static_cast<int>(trace.retries.size());
  qs.replan_rounds = trace.replan_rounds;
  qs.recovery_action = trace.recovery_action;
  qs.lost_fragments = static_cast<int>(trace.lost_fragments.size());
  // Estimate-vs-actual ledger of the executed plan. A replanned query's
  // trace is the winning round's, so these estimates belong to the plan
  // that actually ran, never to an abandoned alternate.
  qs.estimates = trace.estimates;
  // Winning round's transfer records, verbatim, for `xdb_stat.transfers`.
  qs.transfer_log = trace.transfers;
  if (result.ok()) {
    qs.prep_seconds = result->phases.prep;
    qs.lopt_seconds = result->phases.lopt;
    qs.ann_seconds = result->phases.ann;
    qs.exec_seconds = result->phases.exec;
    qs.plan_cache_hit = result->plan_cache_hit;
    qs.partial = result->partial();
    qs.completeness_fraction = result->completeness.completeness_fraction;
  } else {
    qs.error = result.status().message();
    qs.exec_seconds = trace.wasted_attempt_seconds +
                      trace.total_backoff_seconds +
                      trace.injected_delay_seconds;
  }
  for (const auto& [srv, compute] : trace.per_server) {
    const DatabaseServer* server = fed_->GetServer(srv);
    if (server == nullptr) continue;
    qs.per_server_seconds[srv] =
        model_.ComputeSeconds(compute, server->profile(),
                              /*free_network=*/false);
  }
  // Hot spots are available whenever profilers happen to be attached
  // (EXPLAIN ANALYZE, benches); plain queries leave this empty.
  for (const auto& name : fed_->ServerNames()) {
    const DatabaseServer* server = fed_->GetServer(name);
    const OperatorProfiler* prof = server->profiler();
    if (prof == nullptr) continue;
    for (const auto& rec : prof->records()) {
      qs.hot_operators.emplace_back(
          name + ": " + rec.label,
          OperatorProfiler::ModelledSeconds(rec, server->profile(),
                                            options().scale_up));
    }
  }
  std::stable_sort(qs.hot_operators.begin(), qs.hot_operators.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (qs.hot_operators.size() > 3) qs.hot_operators.resize(3);

  // The QueryContext label, else the catch-all bucket (the query log
  // numbers an unlabelled record "q<sequence>").
  const std::string label = label_hint.empty() ? "adhoc" : label_hint;
  qs.label = label_hint;
  if (metrics != nullptr) {
    // `{query=...}` stays bounded: an explicit hint (bench drivers label
    // "Q5" etc.) or the single bucket "adhoc" — never raw SQL.
    metrics
        ->GetCounter("xdb_queries_total",
                     {{"status", qs.ok ? "ok" : "error"}},
                     "Top-level queries by final status")
        ->Increment();
    metrics
        ->GetCounter("xdb_query_modelled_seconds_total", {{"query", label}},
                     "Modelled end-to-end seconds per query label")
        ->Increment(qs.total_seconds());
  }
  if (qlog != nullptr) qlog->Record(std::move(qs));
}

}  // namespace xdb
