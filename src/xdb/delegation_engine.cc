#include "src/xdb/delegation_engine.h"

#include <algorithm>

#include "src/connect/deparser.h"

namespace xdb {

namespace {

/// Renames placeholder leaves for `producer_view` to `new_name` and updates
/// their schemas to the names the deployed view actually publishes.
void RewirePlaceholders(PlanNode* node, const std::string& producer_view,
                        const std::string& new_name,
                        const std::vector<std::string>& column_names,
                        bool foreign_stream) {
  if (node->kind == PlanKind::kPlaceholder &&
      node->placeholder_name == producer_view) {
    node->placeholder_name = new_name;
    node->placeholder_foreign = foreign_stream;
    Schema renamed;
    for (size_t i = 0; i < node->output_schema.num_fields(); ++i) {
      renamed.AddField({column_names[i], node->output_schema.field(i).type});
    }
    node->output_schema = std::move(renamed);
  }
  for (auto& c : node->children) {
    RewirePlaceholders(c.get(), producer_view, new_name, column_names,
                       foreign_stream);
  }
}

}  // namespace

Status DelegationEngine::IssueWithRetry(DbmsConnector* dc,
                                        const std::string& server,
                                        const std::string& ddl) {
  return fed_
      ->RunWithRetry(server, FaultOp::kDdl, [&] { return dc->Deploy(ddl); })
      .status;
}

Status DelegationEngine::Issue(const std::string& server,
                               const std::string& ddl) {
  auto it = connectors_.find(server);
  if (it == connectors_.end()) {
    return Status::CatalogError("no connector for DBMS '" + server + "'");
  }
  XDB_RETURN_NOT_OK(
      IssueWithRetry(it->second, server, ddl).WithContext("on " + server));
  ddl_log_.emplace_back(server, ddl);
  ++ddl_count_;
  fed_->CountDdl(server);
  return Status::OK();
}

Result<XdbQuery> DelegationEngine::Deploy(DelegationPlan* plan) {
  ddl_log_.clear();
  ddl_count_ = 0;
  failure_.reset();
  XdbQuery out;

  // Any failure rolls back every relation this Deploy created so far —
  // the federation never sees a half-deployed cascade.
  auto fail = [&](Status st, const std::string& server,
                  const std::string& ddl) -> Status {
    failure_ = FailureInfo{server, ddl, st};
    size_t n = created_.size();
    Status rollback = Cleanup();
    fed_->NoteRecovery(RecoveryAction::kRolledBack);
    if (n > 0) {
      std::string note = "rolled back " + std::to_string(n) + " relation(s)";
      if (!rollback.ok()) {
        note += "; rollback incomplete: " + rollback.message();
      }
      st = st.WithContext(note);
    }
    return st;
  };

  SpanRecorder* spans = fed_->span_recorder();

  // Tasks are already topologically ordered (producers first).
  for (auto& task : plan->tasks) {
    SpanGuard task_span(spans, "deploy " + task.view_name);
    if (Span* sp = task_span.span()) sp->Tag("server", task.server);
    auto dc_it = connectors_.find(task.server);
    if (dc_it == connectors_.end()) {
      return fail(
          Status::CatalogError("no connector for DBMS '" + task.server + "'"),
          task.server, std::string());
    }
    const Dialect& dialect = dc_it->second->dialect();

    // Wire up inputs: one foreign table per child task, materialised when
    // the edge is explicit.
    for (const DelegationEdge* edge : plan->InEdges(task.id)) {
      const DelegationTask* child = plan->FindTask(edge->producer);
      std::string ft_ddl = dialect.CreateForeignTableSql(
          child->view_name, child->column_names, child->server,
          child->view_name);
      if (Status st = Issue(task.server, ft_ddl); !st.ok()) {
        return fail(std::move(st), task.server, ft_ddl);
      }
      created_.emplace_back(task.server, child->view_name, "FOREIGN TABLE");
      std::string input_relation = child->view_name;
      if (edge->movement == Movement::kExplicit) {
        // Algorithm 1's CREATELOCALTABLE: the CTAS pulls the child's output
        // across (directly between the two DBMSes) and materialises it on
        // the consumer. This is why the paper reports delegation+execution
        // as one phase — explicit movements flow at delegation time.
        std::string mat = child->view_name + "_m";
        std::string ctas = dialect.CreateTableAsSql(mat, child->view_name);
        if (Status st = Issue(task.server, ctas); !st.ok()) {
          return fail(std::move(st), task.server, ctas);
        }
        created_.emplace_back(task.server, mat, "TABLE");
        input_relation = mat;
      }
      RewirePlaceholders(task.expr.get(), child->view_name, input_relation,
                         child->column_names,
                         edge->movement == Movement::kImplicit);
    }

    // Deparse the algebraic instruction and publish it as a view.
    Result<DeparsedQuery> dq = DeparsePlan(*task.expr, dialect);
    if (!dq.ok()) return fail(dq.status(), task.server, std::string());
    task.column_names = dq->column_names;
    std::string view_ddl = dialect.CreateViewSql(task.view_name, dq->sql);
    if (Status st = Issue(task.server, view_ddl); !st.ok()) {
      return fail(std::move(st), task.server, view_ddl);
    }
    created_.emplace_back(task.server, task.view_name, "VIEW");
  }

  out.server = plan->root().server;
  out.sql = "SELECT * FROM " + plan->root().view_name;
  return out;
}

Status DelegationEngine::Cleanup() {
  SpanGuard cleanup_span(fed_->span_recorder(), "cleanup");
  if (Span* sp = cleanup_span.span()) {
    sp->Tag("relations", static_cast<int64_t>(created_.size()));
  }
  Status first_error = Status::OK();
  // Relations that could not be dropped stay in the ledger (in creation
  // order) so a later Cleanup can finish the job.
  std::vector<std::tuple<std::string, std::string, std::string>> remaining;
  for (auto it = created_.rbegin(); it != created_.rend(); ++it) {
    const auto& [server, relation, kind] = *it;
    auto dc = connectors_.find(server);
    if (dc == connectors_.end()) {
      if (first_error.ok()) {
        first_error = Status::CatalogError(
            "cleanup skipped " + kind + " '" + relation + "' on '" + server +
            "': no connector for that DBMS");
      }
      remaining.push_back(*it);
      continue;
    }
    Status st = IssueWithRetry(
        dc->second, server, "DROP " + kind + " IF EXISTS " + relation);
    if (!st.ok()) {
      if (first_error.ok()) first_error = st.WithContext("on " + server);
      remaining.push_back(*it);
    }
  }
  std::reverse(remaining.begin(), remaining.end());
  created_ = std::move(remaining);
  return first_error;
}

}  // namespace xdb
