#include "src/xdb/xdb.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <thread>

#include "src/common/json_writer.h"
#include "src/common/str_util.h"
#include "src/exec/executor.h"
#include "src/obs/introspect.h"
#include "src/plan/planner.h"
#include "src/plan/stats.h"
#include "src/sql/parser.h"
#include "src/xdb/annotator.h"

namespace xdb {

namespace {

Dialect DialectForVendor(const std::string& vendor) {
  if (vendor == "mariadb") return Dialect::MariaDb();
  if (vendor == "hive") return Dialect::Hive();
  return Dialect::Postgres();
}

/// Mediator-local execution services for an introspection query: relations
/// resolve against the per-query snapshot map, and foreign fetches are
/// structurally impossible (every `xdb_stat` scan is pinned local).
class IntrospectionExecContext : public ExecContext {
 public:
  IntrospectionExecContext(const std::map<std::string, TablePtr>* snapshots,
                           int threads)
      : snapshots_(snapshots), threads_(threads) {}

  Result<TablePtr> GetLocalTable(const std::string& name) override {
    auto it = snapshots_->find(ToLower(name));
    if (it == snapshots_->end()) {
      return Status::CatalogError("unknown system table '" + name + "'");
    }
    return it->second;
  }

  Result<TablePtr> ForeignFetch(const std::string& server,
                                const std::string& relation, double,
                                double) override {
    return Status::Internal("introspection queries are mediator-local: "
                            "unexpected foreign fetch of '" + relation +
                            "' from '" + server + "'");
  }

  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return threads_; }

 private:
  const std::map<std::string, TablePtr>* snapshots_;
  int threads_;
  ComputeTrace trace_;
};

/// Resolves FROM refs of an introspection query to scans over the
/// query-start snapshots (never the GlobalCatalog — zero roundtrips).
class IntrospectionResolver : public RelationResolver {
 public:
  explicit IntrospectionResolver(
      const std::map<std::string, TablePtr>* snapshots)
      : snapshots_(snapshots) {}

  Result<PlanPtr> Resolve(const std::string& db,
                          const std::string& table) override {
    std::string key = ToLower(table);
    auto it = snapshots_->find(key);
    if (it == snapshots_->end()) {
      return Status::CatalogError("unknown system table '" + db + "." +
                                  table + "'");
    }
    const TablePtr& snap = it->second;
    return PlanNode::MakeScan(kXdbStatDb, key, key, snap->schema(),
                              ComputeTableStats(*snap));
  }

 private:
  const std::map<std::string, TablePtr>* snapshots_;
};

}  // namespace

XdbSystem::XdbSystem(Federation* fed, XdbOptions options) : fed_(fed) {
  fed_->network().AddNode(options.middleware_node);
  for (const auto& name : fed_->ServerNames()) {
    DatabaseServer* server = fed_->GetServer(name);
    // >0 only: a default-constructed system must not clobber an explicit
    // per-server setting (federations are shared across systems in benches).
    if (options.exec_threads > 0) {
      server->set_exec_threads(options.exec_threads);
    }
    auto dc = std::make_unique<DbmsConnector>(
        server, DialectForVendor(server->profile().vendor), fed_,
        options.middleware_node);
    connector_ptrs_[name] = dc.get();
    connectors_[name] = std::move(dc);
  }
  catalog_ = std::make_unique<GlobalCatalog>(connector_ptrs_);

  SystemSpec spec;
  spec.system = "xdb";
  spec.span_name = "query";
  spec.ddl_prefix = "xdb";
  // Placement: the Annotator's Rule-4 consultations, routed around whatever
  // the breakers and earlier failover rounds excluded.
  spec.place = [this, policy = MovementPolicy(options.movement_policy)](
                   PlanNode* plan, const PlacementConstraints* excluded,
                   int* consultations) {
    Annotator annotator(connector_ptrs_, &fed_->network(), policy, excluded);
    Status st = annotator.Annotate(plan);
    *consultations += annotator.consultations();
    return st;
  };
  // `xdb_stat.*` system tables run mediator-local, ahead of the breakers
  // and the plan cache. The substring probe is the only cost non-users
  // pay — and only once introspection was enabled.
  spec.local = [this](const std::string& sql, const QueryContext& ctx)
      -> std::optional<Result<XdbReport>> {
    // Case-insensitive probe for the qualifier; false positives (a literal
    // mentioning it) are sorted out by parsing the FROM list.
    if (introspect_ == nullptr ||
        ToLower(sql).find("xdb_stat.") == std::string::npos) {
      return std::nullopt;
    }
    bool handled = false;
    Result<XdbReport> r = RunIntrospectionQuery(sql, ctx, &handled);
    if (!handled) return std::nullopt;  // the qualifier sat in a literal
    return r;
  };
  spec.options = std::move(options);
  pipeline_ = std::make_unique<QueryPipeline>(fed_, std::move(spec),
                                              connector_ptrs_, catalog_.get());
}

// Out-of-line: ~unique_ptr<IntrospectionRegistry> needs the complete type.
XdbSystem::~XdbSystem() = default;

IntrospectionRegistry* XdbSystem::EnableIntrospection(
    SessionManager* sessions) {
  // (Re-)registering is idempotent: providers are stateless views, so a
  // later call that finally has a SessionManager just swaps the standard
  // set in again with the sessions provider wired.
  if (introspect_ == nullptr || sessions != nullptr) {
    if (introspect_ == nullptr) {
      introspect_ = std::make_unique<IntrospectionRegistry>();
    }
    RegisterStandardProviders(introspect_.get(), fed_, this, sessions);
  }
  return introspect_.get();
}

std::string XdbSystem::ExportCalibrationLog() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "xdb-calibration-v1");
  w.Key("records");
  w.BeginArray();
  if (QueryLog* qlog = fed_->query_log()) {
    for (const QueryStats& q : qlog->SnapshotEntries()) {
      for (const EstimateActual& ea : q.estimates) {
        // Engine feature: the executing DBMS's optimizer vendor — transfer
        // records span a link, so they calibrate the wire model instead.
        std::string engine = "wire";
        if (!ea.op.transfer) {
          const DatabaseServer* server = fed_->GetServer(ea.server);
          engine = server != nullptr ? server->profile().vendor : "unknown";
        }
        w.BeginObject();
        w.Field("query_sequence", q.sequence);
        w.Field("label", q.label);
        w.Key("features");
        w.BeginObject();
        w.Field("op", EstimateOpName(ea.op));
        w.Field("predicate_class", ComparisonKindToString(ea.predicate_class));
        w.Field("est_input_rows", ea.est_input_rows);
        w.Field("engine", engine);
        w.Field("placement", ea.server);
        w.EndObject();
        w.Key("outcome");
        w.BeginObject();
        w.Field("est_rows", ea.est_rows);
        w.Field("act_rows", ea.act_rows);
        w.Field("est_seconds", ea.est_seconds);
        w.Field("act_seconds", ea.act_seconds);
        w.Field("est_bytes", ea.est_bytes);
        w.Field("act_bytes", ea.act_bytes);
        w.Field("q_error", ea.q_error);
        w.EndObject();
        w.EndObject();
      }
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

DbmsConnector* XdbSystem::connector(const std::string& server) const {
  auto it = connector_ptrs_.find(server);
  return it != connector_ptrs_.end() ? it->second : nullptr;
}

Result<XdbReport> XdbSystem::Query(const std::string& sql) {
  return Query(sql, QueryContext{});
}

Result<XdbReport> XdbSystem::Query(const std::string& sql,
                                   const QueryContext& ctx) {
  return pipeline_->Run(sql, ctx);
}

Result<XdbReport> XdbSystem::RunIntrospectionQuery(const std::string& sql,
                                                   const QueryContext& ctx,
                                                   bool* handled) {
  *handled = false;
  Result<sql::SelectPtr> parsed = sql::ParseSelect(sql);
  // Parse failures fall through: the federation pipeline owns the (same)
  // error, keeping diagnostics identical for SQL that merely mentions the
  // qualifier in a literal.
  if (!parsed.ok()) return parsed.status();
  sql::SelectPtr stmt = std::move(parsed).value();

  // Classify every FROM ref (recursing into derived tables): an
  // introspection query references xdb_stat relations exclusively — the
  // system tables live outside the federation and have no placement, so
  // mixing them with component-DBMS relations is a hard error, not a
  // silent cross plan.
  std::vector<std::string> stat_tables;
  std::vector<std::string> fed_tables;
  std::function<void(const sql::SelectStmt&)> classify =
      [&](const sql::SelectStmt& sel) {
        for (const auto& ref : sel.from) {
          if (ref.subquery) {
            classify(*ref.subquery);
            continue;
          }
          if (ToLower(ref.db) == kXdbStatDb) {
            stat_tables.push_back(ToLower(ref.table));
          } else {
            fed_tables.push_back(ref.table);
          }
        }
      };
  classify(*stmt);
  if (stat_tables.empty()) {
    // `xdb_stat.` only appeared in a literal; the caller discards this.
    return Status::InvalidArgument("not an introspection query");
  }
  *handled = true;
  if (!fed_tables.empty()) {
    return Status::InvalidArgument(
        "cannot mix xdb_stat system tables with federation relations "
        "(found '" + fed_tables.front() +
        "'); query system tables separately");
  }

  // Atomically-consistent view: snapshot each referenced provider exactly
  // once, at query start, before planning. A self-join over one system
  // table therefore joins one snapshot with itself.
  std::map<std::string, TablePtr> snapshots;
  for (const auto& table : stat_tables) {
    if (snapshots.count(table) > 0) continue;
    SystemTableProvider* provider = introspect_->Find(table);
    if (provider == nullptr) {
      std::string known;
      for (const auto& name : introspect_->TableNames()) {
        known += (known.empty() ? "" : ", ") + name;
      }
      return Status::CatalogError("unknown system table 'xdb_stat." + table +
                                  "'; known system tables: [" + known + "]");
    }
    snapshots[table] = provider->Snapshot();
  }

  SpanRecorder* spans = fed_->span_recorder();
  SpanGuard introspect_span(spans, "introspect");
  if (Span* sp = introspect_span.span()) {
    sp->Tag("snapshots", static_cast<int64_t>(snapshots.size()));
  }

  XdbReport report;
  // Mediator-local planning: the normal logical optimizer over a resolver
  // that binds against the snapshots — never the GlobalCatalog, so zero
  // metadata roundtrips by construction (asserted in tests via
  // report.metadata_roundtrips).
  IntrospectionResolver resolver(&snapshots);
  Planner planner(&resolver, options().planner);
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, planner.Plan(*stmt));
  size_t njoins = stmt->from.size() > 0 ? stmt->from.size() - 1 : 0;
  report.phases.prep = options().parse_analyze_cost;
  report.phases.lopt =
      options().lopt_base_cost +
      options().lopt_per_join_cost * static_cast<double>(njoins);
  fed_->ChargeBudget(report.phases.prep + report.phases.lopt);
  if (ctx.deadline_seconds > 0 && fed_->RemainingBudget() == 0.0) {
    return ctx.DeadlineExhausted("during introspection planning");
  }

  // Execute on the middleware node with the normal vectorized executor.
  // No delegation, no DDL, no transfers — phases.ann and phases.exec stay
  // zero and the trace carries no transfer records.
  int threads = options().exec_threads;
  if (threads <= 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  IntrospectionExecContext exec_ctx(&snapshots, threads);
  XDB_ASSIGN_OR_RETURN(report.result, ExecutePlan(*plan, &exec_ctx));
  report.trace.root_server = options().middleware_node;
  report.trace.root_compute = *exec_ctx.trace();
  return report;
}

Result<TablePtr> XdbSystem::ExplainAnalyze(const std::string& sql) {
  return ExplainAnalyze(sql, QueryContext{});
}

Result<TablePtr> XdbSystem::ExplainAnalyze(const std::string& sql,
                                           const QueryContext& ctx) {
  // One profiler per component DBMS; detached again before returning so
  // subsequent queries go back to the unprofiled fast path.
  std::map<std::string, OperatorProfiler> profilers;
  for (const auto& name : fed_->ServerNames()) {
    fed_->GetServer(name)->set_profiler(&profilers[name]);
  }
  Result<XdbReport> report = Query(sql, ctx);
  for (const auto& name : fed_->ServerNames()) {
    fed_->GetServer(name)->set_profiler(nullptr);
  }
  XDB_RETURN_NOT_OK(report.status());

  auto table = std::make_shared<Table>(Schema({{"plan", TypeId::kString}}));
  auto emit = [&](const std::string& line) {
    table->AppendRow({Value::String(line)});
  };
  char buf[256];
  const PhaseBreakdown& ph = report->phases;
  std::snprintf(buf, sizeof(buf),
                "phases: prep=%.3fs lopt=%.3fs ann=%.3fs exec=%.3fs "
                "total=%.3fs",
                ph.prep, ph.lopt, ph.ann, ph.exec, ph.total());
  emit(buf);
  const RunTrace& trace = report->trace;
  std::snprintf(buf, sizeof(buf),
                "transfers: %zu (%.0f rows, useful=%.0f B, wasted=%.0f B)",
                trace.transfers.size(), trace.TotalTransferredRows(),
                trace.UsefulTransferredBytes(),
                trace.WastedTransferredBytes());
  emit(buf);
  // Completeness section: only for partial results, so complete runs stay
  // byte-identical to before graceful degradation existed.
  if (report->partial()) {
    std::snprintf(buf, sizeof(buf),
                  "completeness: PARTIAL (%.0f%% of fragments delivered, "
                  "%zu lost)",
                  report->completeness.completeness_fraction * 100.0,
                  report->completeness.lost.size());
    emit(buf);
    for (const auto& l : report->completeness.lost) {
      std::snprintf(buf, sizeof(buf),
                    "  lost %s@%s -> %s (%s, est %.0f rows)",
                    l.relation.c_str(), l.server.c_str(), l.consumer.c_str(),
                    l.reason.c_str(), l.est_rows);
      emit(buf);
    }
  }
  // Wire-encoding summary: only when something actually shipped encoded,
  // so raw-mode output stays byte-identical to before the columnar wire.
  bool any_encoded = false;
  for (const auto& t : trace.transfers) any_encoded |= t.encoded;
  if (any_encoded) {
    std::snprintf(buf, sizeof(buf),
                  "wire: columnar (raw=%.0f B, encoded=%.0f B, ratio=%.2fx)",
                  trace.TotalRawTransferredBytes(),
                  trace.TotalTransferredBytes(), trace.CompressionRatio());
    emit(buf);
  }
  for (const auto& name : fed_->ServerNames()) {
    const OperatorProfiler& prof = profilers[name];
    bool served = false;
    double srv_raw = 0;
    double srv_enc = 0;
    if (any_encoded) {
      for (const auto& t : trace.transfers) {
        if (t.src != name || !t.encoded) continue;
        served = true;
        srv_raw += t.raw_bytes;
        srv_enc += t.bytes;
      }
    }
    if (prof.records().empty() && !served) continue;
    const DatabaseServer* server = fed_->GetServer(name);
    emit("server " + name + " (" + server->profile().vendor + "):");
    if (served) {
      std::snprintf(buf, sizeof(buf),
                    "  shipped: raw=%.0f B encoded=%.0f B (%.2fx)", srv_raw,
                    srv_enc, srv_enc > 0 ? srv_raw / srv_enc : 1.0);
      emit(buf);
    }
    for (const auto& line :
         prof.Render(server->profile(), options().scale_up)) {
      emit("  " + line);
    }
  }
  return table;
}

}  // namespace xdb
