#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/plan/stats.h"
#include "src/types/schema.h"

namespace xdb {

enum class PlanKind : uint8_t {
  kScan,         // base table / view target / foreign table
  kFilter,
  kProject,
  kJoin,         // inner equi-join (+ optional residual predicate)
  kAggregate,    // hash aggregate: group keys + aggregate functions
  kSort,
  kLimit,
  kPlaceholder,  // "?" — input produced by another delegation task
};

/// \brief Movement type on a delegation-plan edge (paper Section IV-A).
enum class Movement : uint8_t {
  kImplicit,  // pipelined through a foreign-table read
  kExplicit,  // materialised on the consumer before use
};

const char* MovementToString(Movement m);

/// \brief The strongest kind of comparison among a node's predicates, a
/// calibration feature. Ordered by precedence: like > range > equality >
/// none.
enum class ComparisonKind : uint8_t { kNone, kEquality, kRange, kLike };

/// "none" | "equality" | "range" | "like".
const char* ComparisonKindToString(ComparisonKind c);

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// \brief A logical-plan node.
///
/// The same representation serves (a) the per-DBMS local planner, (b) XDB's
/// cross-database optimizer, and (c) — once annotated — the input to plan
/// finalization. Expressions held by a node are bound against the node's
/// child output schema. `output_schema`/`output_qualifiers` are maintained by
/// the Make* factories.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  std::vector<PlanPtr> children;

  // --- kScan ---
  std::string db;       // owning DBMS name (annotation source for leaves)
  std::string table;    // relation name in that DBMS
  std::string alias;    // exposure alias (qualifier for column resolution)
  bool is_foreign = false;        // scan of a SQL/MED foreign table
  std::string foreign_server;     // remote DBMS (when is_foreign)
  std::string remote_relation;    // relation on the remote DBMS

  // --- kFilter ---
  ExprPtr predicate;  // bound against children[0] output

  // --- kProject ---
  std::vector<ExprPtr> exprs;  // bound against children[0] output

  // --- kJoin ---
  std::vector<int> left_keys;   // column indices into left child output
  std::vector<int> right_keys;  // column indices into right child output
  ExprPtr residual;             // bound against concat(left, right); may be null

  // --- kAggregate ---
  std::vector<ExprPtr> group_keys;  // bound against children[0] output
  std::vector<ExprPtr> aggregates;  // kAggregate exprs, args bound likewise

  // --- kSort ---
  std::vector<std::pair<int, bool>> sort_keys;  // (output column, descending)

  // --- kLimit ---
  int64_t limit = -1;

  // --- kPlaceholder ---
  std::string placeholder_name;  // name of the producing task's relation
  bool placeholder_foreign = false;  // arrives as a pipelined foreign stream
                                     // (implicit movement) rather than a
                                     // local materialised table

  // --- derived / annotations ---
  Schema output_schema;
  std::vector<std::string> output_qualifiers;  // per output field
  std::string annotation;            // DBMS prescribed by the annotator
  Movement edge_movement = Movement::kImplicit;  // edge to parent (annotated)

  // Output estimate, computed once by the Make* factories from the
  // children's estimates (a scan's from its relation's statistics, a
  // placeholder's from its producer's row count). Immutable and shared by
  // Clone() and the plan cache; only Estimator::StampEstimates replaces it,
  // for a node whose children were swapped after it was built.
  std::shared_ptr<const PlanEstimate> estimate;

  // ---- factories (compute output schema/qualifiers and the estimate) ----
  static PlanPtr MakeScan(std::string db, std::string table,
                          std::string alias, Schema schema,
                          const TableStats& stats);
  static PlanPtr MakeFilter(PlanPtr child, ExprPtr predicate);
  static PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs);
  static PlanPtr MakeJoin(PlanPtr left, PlanPtr right,
                          std::vector<int> left_keys,
                          std::vector<int> right_keys, ExprPtr residual);
  static PlanPtr MakeAggregate(PlanPtr child, std::vector<ExprPtr> group_keys,
                               std::vector<ExprPtr> aggregates);
  static PlanPtr MakeSort(PlanPtr child,
                          std::vector<std::pair<int, bool>> sort_keys);
  static PlanPtr MakeLimit(PlanPtr child, int64_t limit);
  static PlanPtr MakePlaceholder(std::string name, Schema schema,
                                 std::vector<std::string> qualifiers,
                                 double est_rows);

  /// Deep copy (expressions cloned too; the estimate is shared).
  PlanPtr Clone() const;

  /// This node's own line of ToString(), without indentation or children,
  /// e.g. "Filter((l_quantity < 24)) @db1".
  std::string Label() const;

  /// Multi-line indented rendering for debugging and EXPLAIN output.
  std::string ToString(int indent = 0) const;

  /// One-line algebraic rendering in the paper's style, e.g.
  /// "⋈(π(σ(C)), ?)" — used by the Table IV bench and plan logging.
  std::string ToAlgebraString() const;

  /// Strongest comparison in a Filter's predicate, or in a Join's keys and
  /// residual: LIKE is like; <, <=, >, >= and BETWEEN are range; =, <> and
  /// IN are equality. kNone for every other kind of node.
  ComparisonKind predicate_class() const;

  /// Set of distinct leaf-level DBMS names under this subtree
  /// (placeholders contribute nothing).
  std::vector<std::string> ReferencedDatabases() const;
};

/// \brief Appends the output fields of expressions a Project or Aggregate
/// computes: each one's OutputName and inferred type. The binder derives a
/// query's output schema through it without building the nodes.
void AddOutputFields(const std::vector<ExprPtr>& exprs, Schema* schema);

}  // namespace xdb
