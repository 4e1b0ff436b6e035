#include "src/dbms/server.h"

#include <cmath>

#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/sql/parser.h"

namespace xdb {

DatabaseServer::CatalogEntry* DatabaseServer::FindEntry(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = catalog_.find(key);
  return it == catalog_.end() ? nullptr : &it->second;
}

const DatabaseServer::CatalogEntry* DatabaseServer::FindEntry(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = catalog_.find(key);
  return it == catalog_.end() ? nullptr : &it->second;
}

DatabaseServer::DatabaseServer(std::string name, EngineProfile profile,
                               Federation* fed)
    : name_(std::move(name)), profile_(std::move(profile)), fed_(fed) {}

Status DatabaseServer::CreateBaseTable(const std::string& table_name,
                                       TablePtr table) {
  std::string key = ToLower(table_name);
  CatalogEntry entry;
  entry.kind = EntryKind::kBase;
  entry.stats = ComputeTableStats(*table);
  // Encode the columns at load time: base tables are what scans and wire
  // transfers touch, and encoding them here keeps the first query's hot
  // path free of encode work.
  table->Encode();
  entry.table = std::move(table);
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (catalog_.count(key)) {
    return Status::CatalogError("relation already exists: " + key);
  }
  catalog_[key] = std::move(entry);
  return Status::OK();
}

bool DatabaseServer::HasRelation(const std::string& relation) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_.count(ToLower(relation)) > 0;
}

std::vector<std::string> DatabaseServer::TransientRelations() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : catalog_) {
    if (entry.kind != EntryKind::kBase) out.push_back(name);
  }
  return out;
}

std::vector<std::string> DatabaseServer::BaseRelations() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : catalog_) {
    if (entry.kind == EntryKind::kBase) out.push_back(name);
  }
  return out;
}

Result<TableStats> DatabaseServer::GetRelationStats(
    const std::string& relation) const {
  const CatalogEntry* entry = FindEntry(ToLower(relation));
  if (entry == nullptr) {
    return Status::CatalogError("unknown relation '" + relation + "' on " +
                                name_);
  }
  if (entry->kind != EntryKind::kBase &&
      entry->kind != EntryKind::kMaterialized) {
    return Status::CatalogError("statistics only exist for stored tables");
  }
  return entry->stats;
}

// ---------------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------------

Result<TablePtr> DatabaseServer::Context::GetLocalTable(
    const std::string& table) {
  const CatalogEntry* found = server_->FindEntry(ToLower(table));
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + table + "' on " +
                                server_->name_);
  }
  const CatalogEntry& entry = *found;
  if (entry.kind != EntryKind::kBase &&
      entry.kind != EntryKind::kMaterialized) {
    return Status::Internal("relation '" + table +
                            "' is not a stored table; the planner should "
                            "have expanded it");
  }
  return entry.table;
}

Result<TablePtr> DatabaseServer::Context::ForeignFetch(
    const std::string& server, const std::string& relation, double est_rows,
    double est_bytes) {
  return server_->fed_->Fetch(*server_, server, relation, est_rows, est_bytes,
                              materialized_);
}

ComputeTrace* DatabaseServer::Context::trace() {
  return server_->fed_->CurrentTrace();
}

int DatabaseServer::Context::exec_threads() const {
  return server_->exec_threads();
}

OperatorProfiler* DatabaseServer::Context::profiler() {
  return server_->profiler();
}

int DatabaseServer::exec_threads() const {
  return exec_threads_ > 0 ? exec_threads_ : DefaultExecThreads();
}

// ---------------------------------------------------------------------------
// Resolution & planning
// ---------------------------------------------------------------------------

Result<PlanPtr> DatabaseServer::Resolve(const std::string& db,
                                        const std::string& table) {
  if (!db.empty() && !EqualsIgnoreCase(db, name_)) {
    return Status::CatalogError("server " + name_ +
                                " cannot resolve remote qualifier '" + db +
                                "'");
  }
  std::string key = ToLower(table);
  CatalogEntry* found = FindEntry(key);
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + key + "' on " +
                                name_);
  }
  CatalogEntry& entry = *found;
  switch (entry.kind) {
    case EntryKind::kBase:
    case EntryKind::kMaterialized:
      return PlanNode::MakeScan(name_, key, key, entry.table->schema(),
                                entry.stats);
    case EntryKind::kView: {
      Planner planner(this);
      return planner.Plan(*entry.view_def);
    }
    case EntryKind::kForeign: {
      XDB_RETURN_NOT_OK(LoadForeign(key, &entry));
      PlanPtr scan = PlanNode::MakeScan(name_, key, key,
                                        entry.cached_schema, entry.stats);
      scan->is_foreign = true;
      scan->foreign_server = entry.server;
      scan->remote_relation = entry.remote_relation;
      return scan;
    }
  }
  return Status::Internal("unreachable");
}

Status DatabaseServer::LoadForeign(const std::string& key,
                                   CatalogEntry* entry) {
  // The entry's own mutex, not catalog_mu_: the remote's
  // EstimateRelationRows may plan a view that resolves a foreign table
  // pointing back at this server.
  std::lock_guard<std::mutex> lock(*entry->load_mu);
  if (entry->loaded) return Status::OK();
  DatabaseServer* remote = fed_->GetServer(entry->server);
  if (remote == nullptr) {
    return Status::NetworkError("unknown foreign server: " + entry->server);
  }
  fed_->RecordControlMessage(name_, entry->server);
  XDB_ASSIGN_OR_RETURN(Schema schema,
                       remote->DescribeRelation(entry->remote_relation));
  // A column list in CREATE FOREIGN TABLE renames the columns.
  const Schema& declared = entry->cached_schema;
  if (!declared.fields().empty()) {
    if (declared.num_fields() != schema.num_fields()) {
      return Status::CatalogError(
          "foreign table '" + key + "' declares " +
          std::to_string(declared.num_fields()) +
          " columns but remote relation has " +
          std::to_string(schema.num_fields()));
    }
    Schema renamed;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      renamed.AddField({declared.field(i).name, schema.field(i).type});
    }
    schema = std::move(renamed);
  }
  fed_->RecordControlMessage(name_, entry->server);
  XDB_ASSIGN_OR_RETURN(double rows,
                       remote->EstimateRelationRows(entry->remote_relation));
  entry->stats.row_count = rows;
  entry->stats.columns.assign(schema.num_fields(), ColumnStats{});
  entry->cached_schema = std::move(schema);
  entry->loaded = true;
  return Status::OK();
}

Result<PlanPtr> DatabaseServer::PlanQuery(const sql::SelectStmt& stmt) {
  Planner planner(this);
  return planner.Plan(stmt);
}

// ---------------------------------------------------------------------------
// Declarative interface
// ---------------------------------------------------------------------------

Result<TablePtr> DatabaseServer::ExecutePlanHere(const PlanNode& plan,
                                                 bool materialized) {
  Context ctx(this, materialized);
  OperatorProfiler* prof = profiler();
  if (prof == nullptr) return ExecutePlan(plan, &ctx);
  // With a profiler attached, join each newly-profiled operator's
  // estimate with its observed cardinality and bank the divergence on the
  // active run. The watermark scopes the join to this statement, so a
  // profiler attached across a whole bench run never double-emits.
  size_t mark = prof->records().size();
  Result<TablePtr> result = ExecutePlan(plan, &ctx);
  if (result.ok()) {
    for (size_t i = mark; i < prof->records().size(); ++i) {
      const OperatorStats& s = prof->records()[i];
      EstimateActual ea;
      ea.op.kind = s.kind;
      ea.op.foreign_scan = s.is_foreign;
      ea.predicate_class = s.predicate_class;
      ea.server = name_;
      ea.detail = s.label;
      ea.est_input_rows = s.est_input_rows;
      ea.est_rows = s.est_rows;
      ea.act_rows = s.output_rows;
      ea.est_seconds = OperatorProfiler::EstimatedSeconds(s, profile_);
      ea.act_seconds = OperatorProfiler::ModelledSeconds(s, profile_);
      ea.est_bytes = s.est_bytes;
      // Per-operator output bytes are not observed (intermediates are
      // row-format); observed rows at the planned width keeps the byte
      // fields cardinality-accountable without serializing every operator.
      ea.act_bytes = s.output_rows * (s.est_rows > 0
                                          ? s.est_bytes / s.est_rows
                                          : 0.0);
      fed_->RecordEstimate(std::move(ea));
    }
  }
  return result;
}

Result<TablePtr> DatabaseServer::ExecuteQuery(const std::string& sql) {
  XDB_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql));
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt));
  XDB_ASSIGN_OR_RETURN(TablePtr result, ExecutePlanHere(*plan));
  fed_->CurrentTrace()->output_rows +=
      static_cast<double>(result->num_rows());
  return result;
}

Result<TablePtr> DatabaseServer::ServeRemote(const std::string& relation) {
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, Resolve("", relation));
  return ExecutePlanHere(*plan);
}

Result<TablePtr> DatabaseServer::ExecuteSql(const std::string& sql) {
  XDB_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  TablePtr out;
  XDB_RETURN_NOT_OK(ExecuteParsed(*stmt, &out));
  if (!out) out = std::make_shared<Table>();
  return out;
}

Status DatabaseServer::ExecuteDdl(const std::string& sql) {
  XDB_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  if (stmt->kind == sql::StatementKind::kSelect) {
    return Status::InvalidArgument("expected DDL, got a SELECT");
  }
  return ExecuteParsed(*stmt, nullptr);
}

Status DatabaseServer::ExecuteParsed(const sql::Statement& stmt,
                                     TablePtr* out) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      XDB_ASSIGN_OR_RETURN(TablePtr result, ExecutePlanHere(*plan));
      fed_->CurrentTrace()->output_rows +=
          static_cast<double>(result->num_rows());
      if (out) *out = std::move(result);
      return Status::OK();
    }
    case sql::StatementKind::kExplain: {
      if (stmt.explain_analyze) {
        // EXPLAIN ANALYZE: execute the query with a per-operator profiler
        // attached and annotate each plan line with observed rows,
        // selectivity, morsel batches, and modelled operator seconds.
        XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
        OperatorProfiler prof;
        OperatorProfiler* saved = profiler_.exchange(&prof);
        Result<TablePtr> result = ExecutePlanHere(*plan);
        profiler_.store(saved);
        XDB_RETURN_NOT_OK(result.status());
        fed_->CurrentTrace()->output_rows +=
            static_cast<double>((*result)->num_rows());
        auto table = std::make_shared<Table>(
            Schema({{"plan", TypeId::kString}}));
        for (const auto& line : prof.Render(profile_)) {
          table->AppendRow({Value::String(line)});
        }
        double modelled = 0;
        for (const auto& s : prof.records()) {
          modelled += OperatorProfiler::ModelledSeconds(s, profile_);
        }
        char summary[128];
        std::snprintf(summary, sizeof(summary),
                      "(actual rows=%lld, modelled compute=%.6f s)",
                      static_cast<long long>((*result)->num_rows()),
                      modelled);
        table->AppendRow({Value::String(summary)});
        if (out) *out = std::move(table);
        return Status::OK();
      }
      // EXPLAIN as a statement: one text row per plan line, plus a cost
      // summary — roughly what a real DBMS prints.
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      const PlanEstimate& e = *plan->estimate;
      auto table = std::make_shared<Table>(
          Schema({{"plan", TypeId::kString}}));
      for (const auto& line : Split(plan->ToString(), '\n')) {
        if (!line.empty()) table->AppendRow({Value::String(line)});
      }
      char summary[128];
      std::snprintf(summary, sizeof(summary),
                    "(cost=%.4f s, rows=%.0f, width=%.0f)",
                    ModeledPlanCost(*plan), e.rows, e.row_width);
      table->AppendRow({Value::String(summary)});
      if (out) *out = std::move(table);
      return Status::OK();
    }
    case sql::StatementKind::kCreateView: {
      std::string key = ToLower(stmt.relation_name);
      if (FindEntry(key) != nullptr) {
        return Status::CatalogError("relation already exists: " + key);
      }
      // Bind now, as PostgreSQL's parse analysis does, so delegation errors
      // surface at DDL time; the view is planned where it is read. Binding
      // resolves other relations, so it runs outside the catalog lock; the
      // insert re-checks existence.
      Planner planner(this);
      XDB_ASSIGN_OR_RETURN(Schema schema, planner.Bind(*stmt.select));
      CatalogEntry entry;
      entry.kind = EntryKind::kView;
      entry.view_def = stmt.select;
      entry.cached_schema = std::move(schema);
      std::lock_guard<std::mutex> lock(catalog_mu_);
      if (catalog_.count(key)) {
        return Status::CatalogError("relation already exists: " + key);
      }
      catalog_[key] = std::move(entry);
      return Status::OK();
    }
    case sql::StatementKind::kCreateForeignTable: {
      std::string key = ToLower(stmt.relation_name);
      if (fed_->GetServer(stmt.server) == nullptr) {
        return Status::CatalogError("unknown SERVER: " + stmt.server);
      }
      CatalogEntry entry;
      entry.kind = EntryKind::kForeign;
      entry.server = stmt.server;
      entry.remote_relation = ToLower(stmt.remote_relation);
      for (const auto& c : stmt.column_names) {
        entry.cached_schema.AddField({ToLower(c), TypeId::kInt64});
      }
      entry.load_mu = std::make_unique<std::mutex>();  // loaded on use
      std::lock_guard<std::mutex> lock(catalog_mu_);
      if (catalog_.count(key)) {
        return Status::CatalogError("relation already exists: " + key);
      }
      catalog_[key] = std::move(entry);
      return Status::OK();
    }
    case sql::StatementKind::kCreateTableAs: {
      std::string key = ToLower(stmt.relation_name);
      if (FindEntry(key) != nullptr) {
        return Status::CatalogError("relation already exists: " + key);
      }
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      XDB_ASSIGN_OR_RETURN(TablePtr table,
                           ExecutePlanHere(*plan, /*materialized=*/true));
      // A stored relation owns its lanes: it must not keep the relations
      // its query read alive, nor change when they are dropped.
      table->Materialize();
      fed_->CurrentTrace()->materialized_rows +=
          static_cast<double>(table->num_rows());
      CatalogEntry entry;
      entry.kind = EntryKind::kMaterialized;
      entry.stats = ComputeTableStats(*table);
      entry.table = std::move(table);
      std::lock_guard<std::mutex> lock(catalog_mu_);
      if (catalog_.count(key)) {
        return Status::CatalogError("relation already exists: " + key);
      }
      catalog_[key] = std::move(entry);
      return Status::OK();
    }
    case sql::StatementKind::kDrop: {
      std::string key = ToLower(stmt.relation_name);
      std::lock_guard<std::mutex> lock(catalog_mu_);
      auto it = catalog_.find(key);
      if (it == catalog_.end()) {
        if (stmt.if_exists) return Status::OK();
        return Status::CatalogError("unknown relation: " + key);
      }
      bool kind_ok =
          (stmt.relation_kind == sql::RelationKind::kView &&
           it->second.kind == EntryKind::kView) ||
          (stmt.relation_kind == sql::RelationKind::kForeignTable &&
           it->second.kind == EntryKind::kForeign) ||
          (stmt.relation_kind == sql::RelationKind::kTable &&
           (it->second.kind == EntryKind::kBase ||
            it->second.kind == EntryKind::kMaterialized));
      if (!kind_ok) {
        return Status::CatalogError("relation '" + key +
                                    "' is not of the dropped kind");
      }
      catalog_.erase(it);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable statement kind");
}

// ---------------------------------------------------------------------------
// Metadata & costing interface
// ---------------------------------------------------------------------------

Result<Schema> DatabaseServer::DescribeRelation(const std::string& relation) {
  std::string key = ToLower(relation);
  CatalogEntry* found = FindEntry(key);
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + key + "' on " +
                                name_);
  }
  CatalogEntry& entry = *found;
  if (entry.kind == EntryKind::kBase ||
      entry.kind == EntryKind::kMaterialized) {
    return entry.table->schema();
  }
  if (entry.kind == EntryKind::kForeign) {
    XDB_RETURN_NOT_OK(LoadForeign(key, &entry));
  }
  return entry.cached_schema;
}

Result<double> DatabaseServer::EstimateRelationRows(
    const std::string& relation) {
  std::string key = ToLower(relation);
  CatalogEntry* found = FindEntry(key);
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + key + "' on " +
                                name_);
  }
  CatalogEntry& entry = *found;
  if (entry.kind == EntryKind::kBase ||
      entry.kind == EntryKind::kMaterialized) {
    return entry.stats.row_count;
  }
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, Resolve("", key));
  return plan->estimate->rows;
}

double DatabaseServer::ModeledPlanCost(const PlanNode& plan) const {
  double cost = 0;
  // Post-order walk; each node contributes rows x profile weight, read off
  // its own and its children's estimates.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    for (const auto& c : node.children) walk(*c);
    const double rows = node.estimate->rows;
    switch (node.kind) {
      case PlanKind::kScan:
        cost += rows * (node.is_foreign ? profile_.fetch_row_cost
                                        : profile_.scan_row_cost);
        break;
      case PlanKind::kFilter:
        cost += node.children[0]->estimate->rows * profile_.filter_row_cost;
        break;
      case PlanKind::kProject:
        cost += rows * profile_.project_row_cost;
        break;
      case PlanKind::kJoin: {
        double l = node.children[0]->estimate->rows;
        double r = node.children[1]->estimate->rows;
        // Joining against a pipelined foreign stream is costlier than a
        // local relation: the engine has no statistics and cannot pick
        // build sides, and a large stream risks rescans (the paper's
        // rationale for explicit movement). Streams that dwarf the local
        // side are penalised sharply — this is what tips Eq. 1 towards
        // explicit movement for large inputs, reproducing Table IV's mix.
        auto stream_penalty = [&](const PlanNode& c, double own_rows,
                                  double other_rows) {
          bool streamed =
              (c.kind == PlanKind::kPlaceholder && c.placeholder_foreign) ||
              (c.kind == PlanKind::kScan && c.is_foreign);
          if (!streamed) return 1.0;
          return own_rows > other_rows / 2 ? 5.0 : 1.5;
        };
        cost += (l * stream_penalty(*node.children[0], l, r) +
                 r * stream_penalty(*node.children[1], r, l) + rows) *
                profile_.join_row_cost;
        break;
      }
      case PlanKind::kAggregate:
        cost += (node.children[0]->estimate->rows + rows) *
                profile_.agg_row_cost;
        break;
      case PlanKind::kSort: {
        cost += rows * std::log2(rows + 2.0) * profile_.sort_row_cost;
        break;
      }
      case PlanKind::kLimit:
        break;
      case PlanKind::kPlaceholder:
        // Reading the "?" input: a foreign stream pays the per-row fetch
        // overhead; a materialised input is a plain local scan.
        cost += rows * (node.placeholder_foreign ? profile_.fetch_row_cost
                                                 : profile_.scan_row_cost);
        break;
    }
  };
  walk(plan);
  return cost + profile_.startup_cost;
}

}  // namespace xdb
