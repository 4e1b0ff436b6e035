#pragma once

#include "src/plan/plan.h"

namespace xdb {

/// \brief Textbook System-R-style cardinality estimation.
///
/// Selectivities: equality 1/ndv, range by min/max interpolation, LIKE 0.1,
/// IN-list n/ndv, conjunction multiplies, disjunction adds (capped). Joins
/// use |L||R| / max(ndv_l, ndv_r) per key pair. Aggregates cap at the
/// product of group-key NDVs. Placeholders carry their producer's estimate.
///
/// The PlanNode::Make* factories call it once per node they build, so every
/// node carries its estimate (PlanNode::estimate) and no consumer re-walks a
/// subtree.
class Estimator {
 public:
  /// Estimate of a scan over a relation with `stats` and `num_fields`
  /// output columns.
  PlanEstimate EstimateScan(const TableStats& stats, size_t num_fields) const;

  /// Estimate of a placeholder standing for `rows` rows of another task.
  PlanEstimate EstimatePlaceholder(double rows, size_t num_fields) const;

  /// Estimate of `node` from its children's estimates, read in place. A
  /// leaf has no inputs: its estimate is the one it was built with.
  PlanEstimate EstimateWithInputs(const PlanNode& node) const;

  /// Recomputes the estimate of every node of the subtree bottom-up from
  /// its children's and returns the root's. Only a subtree whose children
  /// were swapped after it was built needs this (the finalizer's cut
  /// fragments); the replaced estimates are never mutated, so clones that
  /// share them are unaffected.
  PlanEstimate StampEstimates(PlanNode& node) const;

  /// Selectivity of a bound predicate against input column stats.
  double Selectivity(const Expr& predicate, const PlanEstimate& input) const;
};

}  // namespace xdb
