#pragma once

#include <functional>
#include <string>

#include "src/common/result.h"
#include "src/plan/plan.h"
#include "src/sql/ast.h"

namespace xdb {

/// \brief Resolves a FROM-clause relation to a plan subtree.
///
/// Implementations: a DBMS session resolves against its local catalog (base
/// table → Scan, view → the view's plan, foreign table → foreign Scan);
/// XDB's optimizer resolves against the global catalog across DBMSes.
class RelationResolver {
 public:
  virtual ~RelationResolver() = default;

  /// Returns a subtree whose output is the named relation. The planner
  /// re-labels the subtree's output qualifiers with the FROM alias.
  virtual Result<PlanPtr> Resolve(const std::string& db,
                                  const std::string& table) = 0;
};

/// \brief Planner options; both knobs exist so ablation benches can switch
/// the paper's "textbook" logical optimizations off.
struct PlannerOptions {
  bool reorder_joins = true;     // Selinger-style left-deep DP
  bool prune_columns = true;     // projection pushdown below joins
  bool push_down_filters = true; // selection pushdown onto inputs

  /// Explore bushy join trees instead of only left-deep ones. The paper
  /// restricts itself to left-deep trees but observes (footnote 5) that
  /// bushy plans increase inter-DBMS pipeline parallelism and defers them
  /// to future work — this implements that extension. Cost: full DP over
  /// subset splits (3^n joins states) instead of 2^n * n.
  bool bushy_joins = false;

  /// Join co-located (same-DBMS) relations before anything else — the
  /// Garlic-style source decomposition: each DBMS's connected tables form
  /// one maximal pushed-down subquery, and only the composites are ordered
  /// globally. The MW baselines use this; XDB's global optimizer does not.
  bool colocate_joins_first = false;
};

/// \brief Translates a SELECT into a bound, optimized logical plan.
///
/// Implements the paper's *Logical Optimizer* stage: selection and projection
/// pushdown plus left-deep join-ordering over the estimator's cardinalities
/// (Section IV-B-1). The same code plans queries inside each component DBMS,
/// mirroring how a real PostgreSQL/MariaDB would plan the delegated task.
class Planner {
 public:
  Planner(RelationResolver* resolver, PlannerOptions options = {})
      : resolver_(resolver), options_(options) {}

  /// Binds a SELECT without planning it, as PostgreSQL's parse analysis
  /// does (CREATE VIEW): resolves its FROM relations through the resolver
  /// (derived tables are bound, not planned), binds WHERE, SELECT, GROUP BY
  /// and HAVING, checks grouping, resolves ORDER BY, and returns the output
  /// schema Plan's root would have. Every error Plan reports comes from
  /// here.
  Result<Schema> Bind(const sql::SelectStmt& stmt);

  /// Bind, then filter pushdown, column pruning, join ordering and the
  /// plan nodes; each relation is resolved once.
  Result<PlanPtr> Plan(const sql::SelectStmt& stmt);

 private:
  RelationResolver* resolver_;
  PlannerOptions options_;
};

/// \brief Splits a predicate tree into top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out);

/// \brief Rebuilds a conjunction from parts (nullptr when empty).
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& parts);

}  // namespace xdb
