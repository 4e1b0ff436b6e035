#pragma once

#include <cstdint>
#include <vector>

#include "src/expr/expr.h"
#include "src/types/table.h"

namespace xdb {

/// \brief Selection vector: ascending lane indices into the input columns.
/// The batch evaluator touches only selected lanes, so Filter chains (AND
/// conjuncts) shrink it in place instead of re-testing rejected lanes.
using SelVector = std::vector<uint32_t>;

/// Fills `sel` with [begin, end) — the dense selection a morsel starts from.
void SelRange(size_t begin, size_t end, SelVector* sel);

/// \brief Evaluates a bound, aggregate-free expression over the selected
/// lanes of `columns` (column i is the input field an Expr::column_index of
/// i refers to; columns the expression does not reference may be empty).
/// Lane k of the result corresponds to input lane sel[k].
///
/// Contract: each lane is bit-identical to `EvalExpr(expr, row)` on the
/// decoded input row — including NULL type tags, `-0.0` payloads,
/// int-vs-double promotion, date arithmetic, and division by zero. Hot
/// shapes (int64/double/date columns and literals, + - * /, comparisons,
/// AND/OR, NOT/negate/IS NULL, BETWEEN) run typed loops over the column
/// payloads; dictionary columns compare against a literal in code space.
/// LIKE, IN, CASE and functions evaluate lane by lane through EvalExpr on
/// one reused scratch row holding only the columns they reference.
ColumnChunk EvalExprBatch(const Expr& expr,
                          const std::vector<ColumnChunk>& columns,
                          const SelVector& sel);

/// \brief Filters `sel` down to the lanes where the predicate evaluates to
/// (non-NULL) TRUE, preserving order. A top-level AND intersects: the left
/// conjunct shrinks `sel`, and the right conjunct only sees the survivors.
/// An OR unites: the right side sees only the lanes the left did not keep.
/// A column compared with a non-NULL literal, BETWEEN two numeric literals
/// or LIKE a string literal is tested where its lanes are stored
/// (ColumnChunk::SelectLanes), without gathering it.
void EvalPredicateBatch(const Expr& expr,
                        const std::vector<ColumnChunk>& columns,
                        SelVector* sel);

}  // namespace xdb
