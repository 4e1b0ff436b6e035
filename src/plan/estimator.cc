#include "src/plan/estimator.h"

#include <algorithm>
#include <cmath>

namespace xdb {

namespace {

constexpr double kDefaultSelectivity = 0.25;
constexpr double kLikeSelectivity = 0.1;

double ValueAsDouble(const Value& v) { return v.AsDouble(); }

/// Fraction of [min,max] below/above a constant, for range predicates.
double RangeFraction(const ColumnStats& cs, const Value& constant,
                     bool less_than) {
  if (!cs.has_min_max() || constant.is_null()) return 0.3;
  if (cs.min.type() == TypeId::kString) return 0.3;
  double lo = ValueAsDouble(cs.min), hi = ValueAsDouble(cs.max);
  double c = ValueAsDouble(constant);
  if (hi <= lo) return 0.5;
  double f = (c - lo) / (hi - lo);
  f = std::clamp(f, 0.0, 1.0);
  return less_than ? f : 1.0 - f;
}

const Expr* StripToColumn(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return &e;
  if (e.kind == ExprKind::kFunction && e.children.size() == 1) {
    return StripToColumn(*e.children[0]);
  }
  return nullptr;
}

bool IsConstant(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return false;
  if (e.kind == ExprKind::kAggregate) return false;
  for (const auto& c : e.children) {
    if (!IsConstant(*c)) return false;
  }
  return true;
}

Value EvalConstant(const Expr& e) {
  static const Row kEmptyRow;
  return EvalExpr(e, kEmptyRow);
}

}  // namespace

double Estimator::Selectivity(const Expr& predicate,
                              const PlanEstimate& input) const {
  switch (predicate.kind) {
    case ExprKind::kBinary: {
      const Expr& l = *predicate.children[0];
      const Expr& r = *predicate.children[1];
      switch (predicate.binary_op) {
        case BinaryOp::kAnd:
          return Selectivity(l, input) * Selectivity(r, input);
        case BinaryOp::kOr: {
          double a = Selectivity(l, input);
          double b = Selectivity(r, input);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq: {
          const Expr* lc = StripToColumn(l);
          const Expr* rc = StripToColumn(r);
          if (lc && rc && lc->column_index >= 0 && rc->column_index >= 0) {
            // column = column (within one input): 1/max(ndv).
            double nl = input.columns.empty()
                            ? 1000.0
                            : input.columns[static_cast<size_t>(
                                                lc->column_index)].ndv;
            double nr = input.columns.empty()
                            ? 1000.0
                            : input.columns[static_cast<size_t>(
                                                rc->column_index)].ndv;
            return 1.0 / std::max(1.0, std::max(nl, nr));
          }
          const Expr* col = lc ? lc : rc;
          if (col && col->column_index >= 0 && !input.columns.empty()) {
            return 1.0 /
                   std::max(1.0, input.columns[static_cast<size_t>(
                                                   col->column_index)].ndv);
          }
          return 0.05;
        }
        case BinaryOp::kNe:
          return 1.0 - Selectivity(*Expr::Binary(BinaryOp::kEq,
                                                 predicate.children[0],
                                                 predicate.children[1]),
                                   input);
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          bool less = predicate.binary_op == BinaryOp::kLt ||
                      predicate.binary_op == BinaryOp::kLe;
          const Expr* lc = StripToColumn(l);
          if (lc && lc->column_index >= 0 && IsConstant(r) &&
              !input.columns.empty()) {
            return RangeFraction(
                input.columns[static_cast<size_t>(lc->column_index)],
                EvalConstant(r), less);
          }
          const Expr* rc = StripToColumn(r);
          if (rc && rc->column_index >= 0 && IsConstant(l) &&
              !input.columns.empty()) {
            return RangeFraction(
                input.columns[static_cast<size_t>(rc->column_index)],
                EvalConstant(l), !less);
          }
          return 0.3;
        }
        default:
          return kDefaultSelectivity;
      }
    }
    case ExprKind::kUnary:
      if (predicate.unary_op == UnaryOp::kNot) {
        return 1.0 - Selectivity(*predicate.children[0], input);
      }
      return 0.05;  // IS NULL / IS NOT NULL: generated data has few nulls
    case ExprKind::kBetween: {
      const Expr* col = StripToColumn(*predicate.children[0]);
      if (col && col->column_index >= 0 &&
          IsConstant(*predicate.children[1]) &&
          IsConstant(*predicate.children[2]) && !input.columns.empty()) {
        const ColumnStats& cs =
            input.columns[static_cast<size_t>(col->column_index)];
        double above_lo =
            RangeFraction(cs, EvalConstant(*predicate.children[1]), false);
        double below_hi =
            RangeFraction(cs, EvalConstant(*predicate.children[2]), true);
        return std::clamp(above_lo + below_hi - 1.0, 0.001, 1.0);
      }
      return 0.1;
    }
    case ExprKind::kLike:
      return kLikeSelectivity;
    case ExprKind::kInList: {
      const Expr* col = StripToColumn(*predicate.children[0]);
      double n = static_cast<double>(predicate.children.size() - 1);
      if (col && col->column_index >= 0 && !input.columns.empty()) {
        double ndv =
            input.columns[static_cast<size_t>(col->column_index)].ndv;
        return std::min(1.0, n / std::max(1.0, ndv));
      }
      return std::min(1.0, n * 0.05);
    }
    case ExprKind::kLiteral:
      if (!predicate.literal.is_null() &&
          predicate.literal.type() == TypeId::kBool) {
        return predicate.literal.bool_value() ? 1.0 : 0.0;
      }
      return kDefaultSelectivity;
    default:
      return kDefaultSelectivity;
  }
}

PlanEstimate Estimator::EstimateScan(const TableStats& stats,
                                     size_t num_fields) const {
  PlanEstimate est;
  est.rows = stats.row_count;
  est.columns = stats.columns;
  if (est.columns.size() != num_fields) {
    est.columns.assign(num_fields, ColumnStats{});
  }
  est.row_width = 0;
  for (const auto& c : est.columns) est.row_width += c.avg_width;
  if (est.row_width <= 0) est.row_width = 64.0;
  return est;
}

PlanEstimate Estimator::EstimatePlaceholder(double rows,
                                            size_t num_fields) const {
  PlanEstimate est;
  est.rows = rows;
  est.columns.assign(num_fields, ColumnStats{});
  est.row_width = 16.0 * static_cast<double>(num_fields);
  return est;
}

PlanEstimate Estimator::StampEstimates(PlanNode& node) const {
  for (const auto& child : node.children) StampEstimates(*child);
  if (!node.children.empty()) {
    node.estimate =
        std::make_shared<const PlanEstimate>(EstimateWithInputs(node));
  }
  return *node.estimate;
}

PlanEstimate Estimator::EstimateWithInputs(const PlanNode& node) const {
  switch (node.kind) {
    case PlanKind::kScan:
    case PlanKind::kPlaceholder:
      return *node.estimate;
    case PlanKind::kFilter: {
      const PlanEstimate& in = *node.children[0]->estimate;
      double sel = std::clamp(Selectivity(*node.predicate, in), 1e-6, 1.0);
      PlanEstimate out = in;
      out.rows = std::max(1.0, in.rows * sel);
      // Distinct counts shrink with the row count but never exceed rows.
      for (auto& c : out.columns) c.ndv = std::min(c.ndv, out.rows);
      return out;
    }
    case PlanKind::kProject: {
      const PlanEstimate& in = *node.children[0]->estimate;
      PlanEstimate out;
      out.rows = in.rows;
      for (const auto& e : node.exprs) {
        if (e->kind == ExprKind::kColumnRef && e->column_index >= 0 &&
            static_cast<size_t>(e->column_index) < in.columns.size()) {
          out.columns.push_back(in.columns[
              static_cast<size_t>(e->column_index)]);
        } else {
          ColumnStats cs;
          cs.ndv = std::min(in.rows, 1000.0);
          cs.avg_width = InferType(e) == TypeId::kString ? 16.0 : 8.0;
          out.columns.push_back(cs);
        }
      }
      out.row_width = 0;
      for (const auto& c : out.columns) out.row_width += c.avg_width;
      if (out.row_width <= 0) out.row_width = 8.0;
      return out;
    }
    case PlanKind::kJoin: {
      const PlanEstimate& l = *node.children[0]->estimate;
      const PlanEstimate& r = *node.children[1]->estimate;
      double rows = l.rows * r.rows;
      for (size_t i = 0; i < node.left_keys.size(); ++i) {
        double nl = node.left_keys[i] >= 0 &&
                            static_cast<size_t>(node.left_keys[i]) <
                                l.columns.size()
                        ? l.columns[static_cast<size_t>(
                                        node.left_keys[i])].ndv
                        : 1000.0;
        double nr = node.right_keys[i] >= 0 &&
                            static_cast<size_t>(node.right_keys[i]) <
                                r.columns.size()
                        ? r.columns[static_cast<size_t>(
                                        node.right_keys[i])].ndv
                        : 1000.0;
        rows /= std::max(1.0, std::max(nl, nr));
      }
      if (node.left_keys.empty()) rows = l.rows * r.rows;  // cross product
      PlanEstimate out;
      out.rows = std::max(1.0, rows);
      out.columns = l.columns;
      out.columns.insert(out.columns.end(), r.columns.begin(),
                         r.columns.end());
      for (auto& c : out.columns) c.ndv = std::min(c.ndv, out.rows);
      out.row_width = l.row_width + r.row_width;
      if (node.residual) {
        double sel = std::clamp(Selectivity(*node.residual, out), 1e-6, 1.0);
        out.rows = std::max(1.0, out.rows * sel);
      }
      return out;
    }
    case PlanKind::kAggregate: {
      const PlanEstimate& in = *node.children[0]->estimate;
      double groups = 1.0;
      for (const auto& g : node.group_keys) {
        const Expr* col = StripToColumn(*g);
        double ndv = 100.0;
        if (col && col->column_index >= 0 &&
            static_cast<size_t>(col->column_index) < in.columns.size()) {
          ndv = in.columns[static_cast<size_t>(col->column_index)].ndv;
        } else if (g->kind == ExprKind::kCaseWhen) {
          ndv = static_cast<double>(g->children.size() / 2 + 1);
        }
        groups *= std::max(1.0, ndv);
      }
      PlanEstimate out;
      out.rows = std::max(1.0, std::min(groups, in.rows));
      out.columns.assign(node.output_schema.num_fields(), ColumnStats{});
      for (auto& c : out.columns) c.ndv = out.rows;
      out.row_width = 12.0 * static_cast<double>(
                                 node.output_schema.num_fields());
      return out;
    }
    case PlanKind::kSort:
      return *node.children[0]->estimate;
    case PlanKind::kLimit: {
      PlanEstimate in = *node.children[0]->estimate;
      if (node.limit >= 0) {
        in.rows = std::min(in.rows, static_cast<double>(node.limit));
      }
      return in;
    }
  }
  return PlanEstimate{};
}

}  // namespace xdb
