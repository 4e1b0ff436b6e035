#pragma once

#include <string>
#include <vector>

#include "src/plan/plan.h"

namespace xdb {

/// \brief A task t = (r, a): an algebraic expression `expr` (with
/// Placeholder leaves standing for inputs produced by other tasks) assigned
/// to DBMS `server` (paper Section IV-A).
struct DelegationTask {
  int id = -1;
  std::string server;
  PlanPtr expr;
  std::string view_name;  // short-lived relation this task publishes
  double est_rows = 0;    // estimated output cardinality

  /// Actual column names the deployed view publishes (filled during
  /// delegation, after deparsing).
  std::vector<std::string> column_names;
};

/// \brief A dataflow edge t_producer --x--> t_consumer.
struct DelegationEdge {
  int producer = -1;
  int consumer = -1;
  Movement movement = Movement::kImplicit;
  double est_rows = 0;
};

/// \brief The delegation plan G = (T, E): a DAG of per-DBMS tasks with
/// implicit/explicit dataflow edges. Tasks are stored in topological order
/// (every producer precedes its consumers; the root task is last).
struct DelegationPlan {
  std::vector<DelegationTask> tasks;
  std::vector<DelegationEdge> edges;

  const DelegationTask& root() const { return tasks.back(); }

  const DelegationTask* FindTask(int id) const {
    for (const auto& t : tasks) {
      if (t.id == id) return &t;
    }
    return nullptr;
  }

  /// Edges consumed by task `consumer_id`.
  std::vector<const DelegationEdge*> InEdges(int consumer_id) const {
    std::vector<const DelegationEdge*> out;
    for (const auto& e : edges) {
      if (e.consumer == consumer_id) out.push_back(&e);
    }
    return out;
  }

  /// Paper-style rendering: one line per edge
  /// "db1:join(c,o) --implicit--> db2:join(?,l)  [~N rows]".
  std::string ToString() const;

  /// Graphviz rendering (one node per task, dashed edges for explicit
  /// movements) — `dot -Tsvg` gives the paper's Figure 5 pictures.
  std::string ToDot() const;
};

}  // namespace xdb
