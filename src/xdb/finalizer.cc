#include "src/xdb/finalizer.h"

#include "src/plan/estimator.h"

namespace xdb {

namespace {

/// Builds tasks bottom-up. `Cut` walks a subtree that belongs to the task
/// annotated `current`, descending through same-annotation nodes and
/// replacing each differently-annotated child subtree by a Placeholder plus
/// a recursively built producer task.
class TaskBuilder {
 public:
  TaskBuilder(int query_id, std::string prefix)
      : query_id_(query_id), prefix_(std::move(prefix)) {}

  Result<DelegationPlan> Build(const PlanNode& root) {
    PlanPtr cloned = root.Clone();
    XDB_ASSIGN_OR_RETURN(int root_id, BuildTask(cloned));
    (void)root_id;
    return std::move(plan_);
  }

 private:
  /// Creates the task rooted at `node` (annotation = node->annotation).
  Result<int> BuildTask(PlanPtr node) {
    std::vector<DelegationEdge> pending;
    XDB_ASSIGN_OR_RETURN(PlanPtr fragment,
                         Cut(std::move(node), &pending));
    DelegationTask task;
    task.id = next_task_id_++;
    task.server = fragment->annotation;
    task.expr = fragment;
    task.view_name = prefix_ + "_q" + std::to_string(query_id_) + "_t" +
                     std::to_string(task.id);
    // The nodes above a placeholder were estimated over the producer's
    // subtree; re-estimate the fragment over its placeholders.
    task.est_rows = pending.empty()
                        ? fragment->estimate->rows
                        : Estimator().StampEstimates(*fragment).rows;
    for (auto& e : pending) {
      e.consumer = task.id;
      plan_.edges.push_back(e);
    }
    plan_.tasks.push_back(std::move(task));
    return plan_.tasks.back().id;
  }

  Result<PlanPtr> Cut(PlanPtr node, std::vector<DelegationEdge>* pending) {
    for (auto& child : node->children) {
      if (child->annotation == node->annotation) {
        XDB_ASSIGN_OR_RETURN(child, Cut(std::move(child), pending));
        continue;
      }
      // Annotation changes: the child subtree becomes its own task and the
      // child position becomes a "?" placeholder (a dummy input operator).
      Movement movement = child->edge_movement;
      double rows = child->estimate->rows;
      Schema schema = child->output_schema;
      std::vector<std::string> quals = child->output_qualifiers;
      XDB_ASSIGN_OR_RETURN(int producer_id, BuildTask(std::move(child)));
      const DelegationTask* producer = plan_.FindTask(producer_id);
      PlanPtr ph = PlanNode::MakePlaceholder(producer->view_name,
                                             std::move(schema),
                                             std::move(quals), rows);
      ph->placeholder_foreign = movement == Movement::kImplicit;
      ph->annotation = node->annotation;
      child = std::move(ph);

      DelegationEdge edge;
      edge.producer = producer_id;
      edge.movement = movement;
      edge.est_rows = rows;
      pending->push_back(edge);
    }
    return node;
  }

  int query_id_;
  std::string prefix_;
  int next_task_id_ = 0;
  DelegationPlan plan_;
};

}  // namespace

Result<DelegationPlan> FinalizePlan(const PlanNode& annotated_plan,
                                    int query_id,
                                    const std::string& name_prefix) {
  if (annotated_plan.annotation.empty()) {
    return Status::InvalidArgument(
        "plan must be annotated before finalization");
  }
  TaskBuilder builder(query_id, name_prefix);
  return builder.Build(annotated_plan);
}

std::string DelegationPlan::ToDot() const {
  std::string out = "digraph delegation {\n  rankdir=BT;\n"
                    "  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& t : tasks) {
    out += "  t" + std::to_string(t.id) + " [label=\"" + t.server + ":\\n" +
           t.expr->ToAlgebraString() + "\\n~" +
           std::to_string(static_cast<int64_t>(t.est_rows)) + " rows\"];\n";
  }
  for (const auto& e : edges) {
    out += "  t" + std::to_string(e.producer) + " -> t" +
           std::to_string(e.consumer) + " [label=\"" +
           (e.movement == Movement::kImplicit ? "i" : "e") + "\"" +
           (e.movement == Movement::kExplicit ? ", style=dashed" : "") +
           "];\n";
  }
  out += "}\n";
  return out;
}

std::string DelegationPlan::ToString() const {
  std::string out;
  for (const auto& t : tasks) {
    out += "task " + std::to_string(t.id) + " [" + t.view_name + "] @" +
           t.server + ": " + t.expr->ToAlgebraString() + "  (~" +
           std::to_string(static_cast<int64_t>(t.est_rows)) + " rows)\n";
  }
  for (const auto& e : edges) {
    const DelegationTask* p = FindTask(e.producer);
    const DelegationTask* c = FindTask(e.consumer);
    out += p->server + ":" + p->expr->ToAlgebraString() + " --" +
           MovementToString(e.movement) + "--> " + c->server + ":" +
           c->expr->ToAlgebraString() + "  (~" +
           std::to_string(static_cast<int64_t>(e.est_rows)) + " rows)\n";
  }
  return out;
}

}  // namespace xdb
