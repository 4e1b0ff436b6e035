#include "src/expr/vector_eval.h"

#include <algorithm>
#include <iterator>

#include "src/common/str_util.h"

namespace xdb {

namespace {

// Every intermediate result is a ColumnChunk with one lane per selected
// input lane. Typed kernels read plain int64-class / double payloads and
// dictionary codes; a plain chunk's NULL lanes carry its declared type's tag,
// so results whose NULLs would carry another tag (the scalar evaluator types
// NULLs by operator: arithmetic yields Null(kDouble) even over int64 inputs)
// go through the per-lane path, which boxes them.

using Columns = std::vector<ColumnChunk>;

bool IsI64Class(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDate;
}
bool IsPlain(const ColumnChunk& c) {
  return c.encoding() == ColumnEncoding::kPlain;
}
bool IsI64(const ColumnChunk& c) { return IsPlain(c) && IsI64Class(c.type()); }
bool IsF64(const ColumnChunk& c) {
  return IsPlain(c) && c.type() == TypeId::kDouble;
}
bool IsNumeric(const ColumnChunk& c) { return IsI64(c) || IsF64(c); }
bool IsDict(const ColumnChunk& c) {
  return c.encoding() == ColumnEncoding::kDictionary;
}
bool IsStr(const ColumnChunk& c) {
  return IsDict(c) || (IsPlain(c) && c.type() == TypeId::kString);
}

double LaneAsDouble(const ColumnChunk& c, size_t i) {
  return IsF64(c) ? c.f64_data()[i] : static_cast<double>(c.i64_data()[i]);
}
const std::string& LaneStr(const ColumnChunk& c, size_t i) {
  return IsDict(c) ? c.dict()[c.codes()[i]] : c.str_data()[i];
}

bool HasNull(const ColumnChunk& c) {
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.IsNull(i)) return true;
  }
  return false;
}

// Value::Compare of two strings, and of two non-double numerics.
int CompareStrings(const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c == 0 ? 0 : 1);
}
int CompareInts(int64_t a, int64_t b) { return a < b ? -1 : (a == b ? 0 : 1); }

/// One keep byte per dictionary entry: `pass(entry)`. A dictionary column's
/// lanes are decided once per entry, since a verdict depends only on the
/// entry's bytes.
template <typename Pass>
std::vector<uint8_t> EntryVerdicts(const std::vector<std::string>& dict,
                                   const Pass& pass) {
  std::vector<uint8_t> keep(dict.size());
  for (size_t e = 0; e < dict.size(); ++e) keep[e] = pass(dict[e]) ? 1 : 0;
  return keep;
}

/// Lanes computed one by one; the chunk stays plain when their tags agree.
ColumnChunk FromLanes(std::vector<Value> lanes) {
  const TypeId t = lanes.empty() ? TypeId::kInt64 : lanes[0].type();
  return ColumnChunk::FromValues(t, std::move(lanes));
}

ColumnChunk Bools(std::vector<int64_t> lanes, std::vector<uint8_t> nulls) {
  return ColumnChunk::Int64s(TypeId::kBool, std::move(lanes),
                             std::move(nulls));
}

/// Three-valued truth of a lane, matching `!v.is_null() && v.bool_value()`
/// plus the NULL case. Value::bool_value() reads the int64 payload, so a
/// double or string lane is never TRUE.
enum class Truth : uint8_t { kFalse, kTrue, kNull };

Truth LaneTruth(const ColumnChunk& c, size_t i) {
  if (c.IsNull(i)) return Truth::kNull;
  bool b = false;
  if (IsI64(c)) {
    b = c.i64_data()[i] != 0;
  } else if (c.encoding() == ColumnEncoding::kBoxed) {
    b = c.GetValue(i).bool_value();
  }
  return b ? Truth::kTrue : Truth::kFalse;
}

ColumnChunk EvalVec(const Expr& expr, const Columns& cols,
                    const SelVector& sel);

/// LIKE, IN, CASE and functions: the scalar evaluator per selected lane, on
/// one scratch row that holds only the columns the expression references.
ColumnChunk EvalScalarFallback(const Expr& expr, const Columns& cols,
                               const SelVector& sel) {
  std::vector<int> refs;
  CollectColumnIndices(expr, &refs);
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  Row scratch(cols.size());
  std::vector<Value> out;
  out.reserve(sel.size());
  for (uint32_t r : sel) {
    for (int c : refs) {
      scratch[static_cast<size_t>(c)] =
          cols[static_cast<size_t>(c)].GetValue(r);
    }
    out.push_back(EvalExpr(expr, scratch));
  }
  return FromLanes(std::move(out));
}

ColumnChunk SplatLiteral(const Value& lit, size_t n) {
  if (!lit.is_null() && IsI64Class(lit.type())) {
    return ColumnChunk::Int64s(lit.type(),
                               std::vector<int64_t>(n, lit.int64_value()), {});
  }
  if (!lit.is_null() && lit.type() == TypeId::kDouble) {
    return ColumnChunk::Doubles(std::vector<double>(n, lit.double_value()),
                                {});
  }
  return ColumnChunk::FromValues(lit.type(), std::vector<Value>(n, lit));
}

/// Arithmetic. The typed loops mirror EvalBinaryValues' int/double
/// promotion exactly; dates, strings, boxed lanes, and int64 results with
/// NULL lanes combine per lane through EvalBinaryValues itself.
ColumnChunk EvalArith(BinaryOp op, const ColumnChunk& l,
                      const ColumnChunk& r) {
  const size_t n = l.size();
  if (IsI64(l) && IsI64(r) && l.type() != TypeId::kDate &&
      r.type() != TypeId::kDate && op != BinaryOp::kDiv && !HasNull(l) &&
      !HasNull(r)) {
    std::vector<int64_t> out(n);
    const std::vector<int64_t>& a = l.i64_data();
    const std::vector<int64_t>& b = r.i64_data();
    for (size_t i = 0; i < n; ++i) {
      out[i] = op == BinaryOp::kAdd   ? a[i] + b[i]
               : op == BinaryOp::kSub ? a[i] - b[i]
                                      : a[i] * b[i];
    }
    return ColumnChunk::Int64s(TypeId::kInt64, std::move(out), {});
  }
  // Double loop: either side double (dates widen on the int side as the
  // scalar AsDouble does), or division, which is always double.
  if (IsNumeric(l) && IsNumeric(r) &&
      (IsF64(l) || IsF64(r) || op == BinaryOp::kDiv)) {
    std::vector<double> out(n, 0.0);
    std::vector<uint8_t> nulls(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (l.IsNull(i) || r.IsNull(i)) {
        nulls[i] = 1;
        continue;
      }
      const double a = LaneAsDouble(l, i), b = LaneAsDouble(r, i);
      switch (op) {
        case BinaryOp::kAdd: out[i] = a + b; break;
        case BinaryOp::kSub: out[i] = a - b; break;
        case BinaryOp::kMul: out[i] = a * b; break;
        default:
          if (b == 0.0) nulls[i] = 1;
          else out[i] = a / b;
          break;
      }
    }
    return ColumnChunk::Doubles(std::move(out), std::move(nulls));
  }
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(EvalBinaryValues(op, l.GetValue(i), r.GetValue(i)));
  }
  return FromLanes(std::move(out));
}

int CmpResult(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    default: return c >= 0;  // kGe
  }
}

/// Comparison of two evaluated operands. Value::Compare of two non-double
/// numerics is a raw int64 compare and widens to double when either side is
/// double; both decisions are lane-uniform for plain chunks.
ColumnChunk EvalCompare(BinaryOp op, const ColumnChunk& l,
                        const ColumnChunk& r) {
  enum class Kind { kInt, kDouble, kString, kValue };
  const Kind kind = IsI64(l) && IsI64(r)           ? Kind::kInt
                    : IsNumeric(l) && IsNumeric(r) ? Kind::kDouble
                    : IsStr(l) && IsStr(r)         ? Kind::kString
                                                   : Kind::kValue;
  const size_t n = l.size();
  std::vector<int64_t> out(n, 0);
  std::vector<uint8_t> nulls(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      nulls[i] = 1;
      continue;
    }
    int c;
    switch (kind) {
      case Kind::kInt:
        c = CompareInts(l.i64_data()[i], r.i64_data()[i]);
        break;
      case Kind::kDouble:
        c = CompareDoubles(LaneAsDouble(l, i), LaneAsDouble(r, i));
        break;
      case Kind::kString:
        c = CompareStrings(LaneStr(l, i), LaneStr(r, i));
        break;
      default:
        c = l.GetValue(i).Compare(r.GetValue(i));
        break;
    }
    out[i] = CmpResult(op, c);
  }
  return Bools(std::move(out), std::move(nulls));
}

/// String lanes against a non-NULL literal, without materializing Values:
/// a dictionary column decides once per entry (Value::Compare's verdict
/// depends only on the entry and the literal), a plain one per lane.
ColumnChunk CompareStringsToLiteral(BinaryOp op, const ColumnChunk& col,
                                    const Value& lit, bool lit_right) {
  const size_t n = col.size();
  std::vector<int64_t> out(n, 0);
  std::vector<uint8_t> nulls(n, 0);
  std::vector<uint8_t> verdict;
  if (IsDict(col)) {
    verdict = EntryVerdicts(col.dict(), [&](const std::string& entry) {
      const int c = Value::String(entry).Compare(lit);
      return CmpResult(op, lit_right ? c : -c) != 0;
    });
  }
  for (size_t i = 0; i < n; ++i) {
    if (col.IsNull(i)) {
      nulls[i] = 1;
    } else if (IsDict(col)) {
      out[i] = verdict[col.codes()[i]];
    } else {
      const int c = CompareStrings(col.str_data()[i], lit.string_value());
      out[i] = CmpResult(op, lit_right ? c : -c);
    }
  }
  return Bools(std::move(out), std::move(nulls));
}

ColumnChunk EvalCompareExpr(const Expr& expr, const Columns& cols,
                            const SelVector& sel) {
  const Expr& le = *expr.children[0];
  const Expr& re = *expr.children[1];
  // String column against a literal: no per-lane literal copies.
  auto literal_kernel = [](const ColumnChunk& col, const Expr& other) {
    return other.kind == ExprKind::kLiteral && !other.literal.is_null() &&
           (IsDict(col) || (IsStr(col) &&
                            other.literal.type() == TypeId::kString));
  };
  ColumnChunk l = EvalVec(le, cols, sel);
  if (literal_kernel(l, re)) {
    return CompareStringsToLiteral(expr.binary_op, l, re.literal, true);
  }
  ColumnChunk r = EvalVec(re, cols, sel);
  if (literal_kernel(r, le)) {
    return CompareStringsToLiteral(expr.binary_op, r, le.literal, false);
  }
  return EvalCompare(expr.binary_op, l, r);
}

/// AND/OR with short-circuit by selection intersection: the right child is
/// evaluated only on lanes the left child did not already decide (non-null
/// FALSE decides AND; non-null TRUE decides OR), then scattered back.
/// Lane-wise combination follows the scalar three-valued truth table.
ColumnChunk EvalAndOr(const Expr& expr, const Columns& cols,
                      const SelVector& sel) {
  const bool is_and = expr.binary_op == BinaryOp::kAnd;
  const size_t n = sel.size();
  ColumnChunk left = EvalVec(*expr.children[0], cols, sel);

  SelVector sub_sel;
  std::vector<uint32_t> sub_pos;
  for (size_t i = 0; i < n; ++i) {
    const Truth t = LaneTruth(left, i);
    if (t != (is_and ? Truth::kFalse : Truth::kTrue)) {
      sub_sel.push_back(sel[i]);
      sub_pos.push_back(static_cast<uint32_t>(i));
    }
  }
  // Decided lanes: AND -> FALSE (0), OR -> TRUE (1).
  std::vector<int64_t> out(n, is_and ? 0 : 1);
  std::vector<uint8_t> nulls(n, 0);
  if (!sub_sel.empty()) {
    ColumnChunk right = EvalVec(*expr.children[1], cols, sub_sel);
    for (size_t s = 0; s < sub_sel.size(); ++s) {
      const size_t i = sub_pos[s];
      const Truth lt = LaneTruth(left, i);
      const Truth rt = LaneTruth(right, s);
      // Here the left lane is TRUE or NULL for AND, FALSE or NULL for OR.
      const Truth deciding = is_and ? Truth::kFalse : Truth::kTrue;
      if (rt == deciding) {
        out[i] = is_and ? 0 : 1;
      } else if (lt == Truth::kNull || rt == Truth::kNull) {
        nulls[i] = 1;
        out[i] = 0;
      } else {
        out[i] = is_and ? 1 : 0;
      }
    }
  }
  return Bools(std::move(out), std::move(nulls));
}

ColumnChunk EvalUnary(const Expr& expr, const Columns& cols,
                      const SelVector& sel) {
  ColumnChunk child = EvalVec(*expr.children[0], cols, sel);
  const size_t n = child.size();
  std::vector<uint8_t> nulls(n, 0);
  for (size_t i = 0; i < n; ++i) nulls[i] = child.IsNull(i) ? 1 : 0;
  switch (expr.unary_op) {
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull: {
      const uint8_t want_null = expr.unary_op == UnaryOp::kIsNull ? 1 : 0;
      std::vector<int64_t> out(n);
      for (size_t i = 0; i < n; ++i) out[i] = nulls[i] == want_null ? 1 : 0;
      return Bools(std::move(out), {});
    }
    case UnaryOp::kNot:
      if (IsI64(child) && child.type() == TypeId::kBool) {
        std::vector<int64_t> out(n);
        for (size_t i = 0; i < n; ++i) {
          out[i] = nulls[i] ? 0 : (child.i64_data()[i] == 0 ? 1 : 0);
        }
        return Bools(std::move(out), std::move(nulls));
      }
      break;
    case UnaryOp::kNeg:
      // Scalar negation yields int64 for every int64-class lane but returns
      // a NULL operand unchanged, keeping its tag.
      if (IsI64(child) && (child.type() == TypeId::kInt64 || !HasNull(child))) {
        std::vector<int64_t> out(n);
        for (size_t i = 0; i < n; ++i) {
          out[i] = nulls[i] ? 0 : -child.i64_data()[i];
        }
        return ColumnChunk::Int64s(TypeId::kInt64, std::move(out),
                                   std::move(nulls));
      }
      if (IsF64(child)) {
        std::vector<double> out(n);
        for (size_t i = 0; i < n; ++i) {
          out[i] = nulls[i] ? 0.0 : -child.f64_data()[i];
        }
        return ColumnChunk::Doubles(std::move(out), std::move(nulls));
      }
      break;
  }
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(EvalUnaryValue(expr.unary_op, child.GetValue(i)));
  }
  return FromLanes(std::move(out));
}

ColumnChunk EvalBetween(const Expr& expr, const Columns& cols,
                        const SelVector& sel) {
  ColumnChunk v = EvalVec(*expr.children[0], cols, sel);
  ColumnChunk lo = EvalVec(*expr.children[1], cols, sel);
  ColumnChunk hi = EvalVec(*expr.children[2], cols, sel);
  const size_t n = v.size();
  std::vector<int64_t> out(n, 0);
  std::vector<uint8_t> nulls(n, 0);
  const bool numeric = IsNumeric(v) && IsNumeric(lo) && IsNumeric(hi);
  // Each bound picks int or double comparison exactly as Value::Compare
  // would, decided once per operand pair.
  const bool lo_int = IsI64(v) && IsI64(lo);
  const bool hi_int = IsI64(v) && IsI64(hi);
  for (size_t i = 0; i < n; ++i) {
    if (v.IsNull(i) || lo.IsNull(i) || hi.IsNull(i)) {
      nulls[i] = 1;
      continue;
    }
    bool ge_lo, le_hi;
    if (numeric) {
      ge_lo = (lo_int ? CompareInts(v.i64_data()[i], lo.i64_data()[i])
                      : CompareDoubles(LaneAsDouble(v, i),
                                       LaneAsDouble(lo, i))) >= 0;
      le_hi = (hi_int ? CompareInts(v.i64_data()[i], hi.i64_data()[i])
                      : CompareDoubles(LaneAsDouble(v, i),
                                       LaneAsDouble(hi, i))) <= 0;
    } else {
      const Value vv = v.GetValue(i);
      ge_lo = vv.Compare(lo.GetValue(i)) >= 0;
      le_hi = vv.Compare(hi.GetValue(i)) <= 0;
    }
    out[i] = ge_lo && le_hi ? 1 : 0;
  }
  return Bools(std::move(out), std::move(nulls));
}

ColumnChunk EvalVec(const Expr& expr, const Columns& cols,
                    const SelVector& sel) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return cols[static_cast<size_t>(expr.column_index)].Gather(sel);
    case ExprKind::kLiteral:
      return SplatLiteral(expr.literal, sel.size());
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return EvalAndOr(expr, cols, sel);
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return EvalArith(expr.binary_op,
                           EvalVec(*expr.children[0], cols, sel),
                           EvalVec(*expr.children[1], cols, sel));
        default:
          return EvalCompareExpr(expr, cols, sel);
      }
    case ExprKind::kUnary:
      return EvalUnary(expr, cols, sel);
    case ExprKind::kBetween:
      return EvalBetween(expr, cols, sel);
    default:
      return EvalScalarFallback(expr, cols, sel);
  }
}

// In-place predicate tests: ColumnChunk::SelectLanes reads each lane where
// it is stored and asks one of these whether to keep it. Each picks int or
// double comparison as EvalCompare and EvalBetween do on the gathered lanes:
// int64 when both the lane and the literal are int-class (bool, int64,
// date), double otherwise. A NULL lane is dropped before its verdict counts.

/// A non-NULL numeric literal, decoded once.
struct NumericLiteral {
  bool is_int;
  int64_t i;
  double d;

  explicit NumericLiteral(const Value& v)
      : is_int(IsI64Class(v.type())), i(v.int64_value()), d(v.AsDouble()) {}

  /// Value::Compare(lane, literal), or Value::Compare(literal, lane) when
  /// the literal is on the left.
  int Compare(int64_t lane, bool lit_right) const {
    if (!is_int) return Compare(static_cast<double>(lane), lit_right);
    return lit_right ? CompareInts(lane, i) : CompareInts(i, lane);
  }
  int Compare(double lane, bool lit_right) const {
    return lit_right ? CompareDoubles(lane, d) : CompareDoubles(d, lane);
  }
};

/// `lane op literal`, or `literal op lane` when the literal is on the left.
struct CompareToNumber {
  BinaryOp op;
  NumericLiteral lit;
  bool lit_right;

  bool operator()(int64_t lane) const {
    return CmpResult(op, lit.Compare(lane, lit_right)) != 0;
  }
  bool operator()(double lane) const {
    return CmpResult(op, lit.Compare(lane, lit_right)) != 0;
  }
};

/// A string lane against a string literal, in expression order.
struct CompareToString {
  BinaryOp op;
  const std::string& lit;
  bool lit_right;

  bool operator()(const std::string& lane) const {
    return CmpResult(op, lit_right ? CompareStrings(lane, lit)
                                   : CompareStrings(lit, lane)) != 0;
  }
  std::vector<uint8_t> operator()(const std::vector<std::string>& dict) const {
    return EntryVerdicts(dict, *this);
  }
};

/// `lane BETWEEN lo AND hi`.
struct BetweenNumbers {
  NumericLiteral lo, hi;

  bool operator()(int64_t lane) const {
    return lo.Compare(lane, true) >= 0 && hi.Compare(lane, true) <= 0;
  }
  bool operator()(double lane) const {
    return lo.Compare(lane, true) >= 0 && hi.Compare(lane, true) <= 0;
  }
};

/// `lane LIKE pattern`.
struct LikePattern {
  const std::string& pattern;

  bool operator()(const std::string& lane) const {
    return LikeMatch(lane, pattern);
  }
  std::vector<uint8_t> operator()(const std::vector<std::string>& dict) const {
    return EntryVerdicts(dict, *this);
  }
};

/// Narrows `sel` in one pass over a column's stored lanes when `expr` is a
/// comparison between a column and a non-NULL literal (either side), a
/// column BETWEEN two non-NULL numeric literals, or a column LIKE a string
/// literal: no gather, no literal column, no truth column. Returns false,
/// with `sel` as it was, for any other shape and for lanes no test reads in
/// place (boxed lanes, strings against numbers).
bool SelectInPlace(const Expr& expr, const Columns& cols, SelVector* sel) {
  auto literal = [](const Expr& e, bool numeric) {
    return e.kind == ExprKind::kLiteral && !e.literal.is_null() &&
           (e.literal.type() != TypeId::kString) == numeric;
  };
  auto column = [&](const Expr& e) -> const ColumnChunk* {
    return e.kind == ExprKind::kColumnRef
               ? &cols[static_cast<size_t>(e.column_index)]
               : nullptr;
  };
  switch (expr.kind) {
    case ExprKind::kBinary: {
      if (expr.binary_op < BinaryOp::kEq || expr.binary_op > BinaryOp::kGe) {
        return false;
      }
      const bool lit_right = expr.children[1]->kind == ExprKind::kLiteral;
      const ColumnChunk* col = column(*expr.children[lit_right ? 0 : 1]);
      const Expr& lit = *expr.children[lit_right ? 1 : 0];
      if (col == nullptr) return false;
      if (literal(lit, true)) {
        return col->SelectLanes(
            CompareToNumber{expr.binary_op, NumericLiteral(lit.literal),
                            lit_right},
            sel);
      }
      return literal(lit, false) &&
             col->SelectLanes(CompareToString{expr.binary_op,
                                               lit.literal.string_value(),
                                               lit_right},
                              sel);
    }
    case ExprKind::kBetween: {
      const ColumnChunk* col = column(*expr.children[0]);
      const Expr& lo = *expr.children[1];
      const Expr& hi = *expr.children[2];
      return col != nullptr && literal(lo, true) && literal(hi, true) &&
             col->SelectLanes(BetweenNumbers{NumericLiteral(lo.literal),
                                             NumericLiteral(hi.literal)},
                              sel);
    }
    case ExprKind::kLike: {
      const ColumnChunk* col = column(*expr.children[0]);
      const Expr& pattern = *expr.children[1];
      return col != nullptr && literal(pattern, false) &&
             col->SelectLanes(LikePattern{pattern.literal.string_value()},
                              sel);
    }
    default:
      return false;
  }
}

}  // namespace

void SelRange(size_t begin, size_t end, SelVector* sel) {
  sel->resize(end - begin);
  for (size_t i = begin; i < end; ++i) {
    (*sel)[i - begin] = static_cast<uint32_t>(i);
  }
}

ColumnChunk EvalExprBatch(const Expr& expr, const Columns& columns,
                          const SelVector& sel) {
  return EvalVec(expr, columns, sel);
}

void EvalPredicateBatch(const Expr& expr, const Columns& columns,
                        SelVector* sel) {
  if (sel->empty()) return;
  // Conjunction = selection intersection: NULL and FALSE both reject,
  // exactly like scalar EvalPredicate on an AND.
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    EvalPredicateBatch(*expr.children[0], columns, sel);
    EvalPredicateBatch(*expr.children[1], columns, sel);
    return;
  }
  // Disjunction = selection union: a WHERE keeps only TRUE, and an OR is
  // TRUE exactly when one side is. The right side sees only the lanes the
  // left side did not keep.
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kOr) {
    SelVector left = *sel;
    EvalPredicateBatch(*expr.children[0], columns, &left);
    SelVector right;
    std::set_difference(sel->begin(), sel->end(), left.begin(), left.end(),
                        std::back_inserter(right));
    EvalPredicateBatch(*expr.children[1], columns, &right);
    sel->clear();
    std::merge(left.begin(), left.end(), right.begin(), right.end(),
               std::back_inserter(*sel));
    return;
  }
  if (SelectInPlace(expr, columns, sel)) return;
  ColumnChunk v = EvalVec(expr, columns, *sel);
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    if (LaneTruth(v, i) == Truth::kTrue) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
}

}  // namespace xdb
