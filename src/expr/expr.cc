#include "src/expr/expr.h"

#include <cmath>
#include <cstdint>

#include "src/common/str_util.h"

namespace xdb {

const char* BinaryOpToSql(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

const char* AggKindToSql(AggKind k) {
  switch (k) {
    case AggKind::kSum: return "SUM";
    case AggKind::kAvg: return "AVG";
    case AggKind::kCount: return "COUNT";
    case AggKind::kMin: return "MIN";
    case AggKind::kMax: return "MAX";
    case AggKind::kCountStar: return "COUNT";
  }
  return "?";
}

ExprPtr Expr::Column(std::string qualifier, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::BoundColumn(int index, TypeId type, std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  e->column_index = index;
  e->column_type = type;
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children = {std::move(operand)};
  return e;
}

ExprPtr Expr::Between(ExprPtr v, ExprPtr lo, ExprPtr hi) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBetween;
  e->children = {std::move(v), std::move(lo), std::move(hi)};
  return e;
}

ExprPtr Expr::Like(ExprPtr v, ExprPtr pattern) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLike;
  e->children = {std::move(v), std::move(pattern)};
  return e;
}

ExprPtr Expr::InList(ExprPtr v, std::vector<ExprPtr> list) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kInList;
  e->children.push_back(std::move(v));
  for (auto& x : list) e->children.push_back(std::move(x));
  return e;
}

ExprPtr Expr::Case(std::vector<ExprPtr> when_then_pairs, ExprPtr else_expr) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCaseWhen;
  e->children = std::move(when_then_pairs);
  if (else_expr) {
    e->children.push_back(std::move(else_expr));
    e->case_has_else = true;
  }
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunction;
  e->function_name = ToLower(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::Aggregate(AggKind kind, ExprPtr arg) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg_kind = kind;
  if (arg) e->children.push_back(std::move(arg));
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_shared<Expr>(*this);
  for (auto& c : e->children) c = c->Clone();
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregate) return true;
  for (const auto& c : children) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

std::string Expr::OutputName() const {
  if (!alias.empty()) return alias;
  if (kind == ExprKind::kColumnRef) return column;
  return ToSql();
}

std::string Expr::ToSql() const {
  return ToSql([](const Expr& c) {
    return c.qualifier.empty() ? c.column : c.qualifier + "." + c.column;
  });
}

std::string Expr::ToSql(
    const std::function<std::string(const Expr&)>& column) const {
  auto sql = [&](const ExprPtr& child) { return child->ToSql(column); };
  switch (kind) {
    case ExprKind::kColumnRef:
      return column(*this);
    case ExprKind::kLiteral:
      return literal.ToSqlLiteral();
    case ExprKind::kBinary:
      return "(" + sql(children[0]) + " " + BinaryOpToSql(binary_op) + " " +
             sql(children[1]) + ")";
    case ExprKind::kUnary:
      switch (unary_op) {
        case UnaryOp::kNot:
          return "(NOT " + sql(children[0]) + ")";
        case UnaryOp::kNeg:
          return "(-" + sql(children[0]) + ")";
        case UnaryOp::kIsNull:
          return "(" + sql(children[0]) + " IS NULL)";
        case UnaryOp::kIsNotNull:
          return "(" + sql(children[0]) + " IS NOT NULL)";
      }
      return "?";
    case ExprKind::kBetween:
      return "(" + sql(children[0]) + " BETWEEN " + sql(children[1]) +
             " AND " + sql(children[2]) + ")";
    case ExprKind::kLike:
      return "(" + sql(children[0]) + " LIKE " + sql(children[1]) + ")";
    case ExprKind::kInList: {
      std::string out = "(" + sql(children[0]) + " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += sql(children[i]);
      }
      return out + "))";
    }
    case ExprKind::kCaseWhen: {
      std::string out = "CASE";
      size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + sql(children[2 * i]) + " THEN " +
               sql(children[2 * i + 1]);
      }
      if (case_has_else) out += " ELSE " + sql(children.back());
      return out + " END";
    }
    case ExprKind::kFunction: {
      if (function_name == "extract_year") {
        return "EXTRACT(YEAR FROM " + sql(children[0]) + ")";
      }
      std::string out = ToUpper(function_name) + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += sql(children[i]);
      }
      return out + ")";
    }
    case ExprKind::kAggregate:
      if (agg_kind == AggKind::kCountStar) return "COUNT(*)";
      return std::string(AggKindToSql(agg_kind)) + "(" + sql(children[0]) +
             ")";
  }
  return "?";
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::kColumnRef:
      if (column_index >= 0 || other.column_index >= 0) {
        return column_index == other.column_index;
      }
      return EqualsIgnoreCase(qualifier, other.qualifier) &&
             EqualsIgnoreCase(column, other.column);
    case ExprKind::kLiteral:
      if (literal.is_null() != other.literal.is_null()) return false;
      return literal.Compare(other.literal) == 0;
    case ExprKind::kBinary:
      if (binary_op != other.binary_op) return false;
      break;
    case ExprKind::kUnary:
      if (unary_op != other.unary_op) return false;
      break;
    case ExprKind::kAggregate:
      if (agg_kind != other.agg_kind) return false;
      break;
    case ExprKind::kFunction:
      if (function_name != other.function_name) return false;
      break;
    case ExprKind::kCaseWhen:
      if (case_has_else != other.case_has_else) return false;
      break;
    default:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

namespace {

/// The scalar functions the evaluator implements, with their arity.
struct FunctionSignature {
  const char* name;
  size_t min_args;
  size_t max_args;
};

constexpr FunctionSignature kFunctions[] = {
    {"extract_year", 1, 1},
    {"coalesce", 1, SIZE_MAX},
    {"abs", 1, 1},
    {"round", 1, 2},
    {"substring", 3, 3},
};

Status CheckFunction(const Expr& e) {
  for (const FunctionSignature& f : kFunctions) {
    if (e.function_name != f.name) continue;
    if (e.children.size() < f.min_args || e.children.size() > f.max_args) {
      return Status::NotImplemented(
          "wrong number of arguments to " + ToUpper(e.function_name) + ": " +
          std::to_string(e.children.size()));
    }
    if (e.function_name == "extract_year" &&
        InferType(e.children[0]) != TypeId::kDate) {
      return Status::BindError("EXTRACT(YEAR FROM ...) needs a date, got " +
                               std::string(TypeIdToString(
                                   InferType(e.children[0]))) +
                               ": " + e.ToSql());
    }
    return Status::OK();
  }
  return Status::NotImplemented("unknown scalar function: " +
                                ToUpper(e.function_name));
}

/// The operands of AND, OR and NOT and the WHEN conditions of a CASE must
/// be truth values.
Status CheckBooleanOperands(const Expr& e) {
  if (e.kind == ExprKind::kBinary &&
      (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr)) {
    const char* clause = e.binary_op == BinaryOp::kAnd ? "AND" : "OR";
    for (const ExprPtr& c : e.children) {
      XDB_RETURN_NOT_OK(CheckBoolean(c, clause));
    }
  } else if (e.kind == ExprKind::kUnary && e.unary_op == UnaryOp::kNot) {
    return CheckBoolean(e.children[0], "NOT");
  } else if (e.kind == ExprKind::kCaseWhen) {
    const size_t pairs = (e.children.size() - (e.case_has_else ? 1 : 0)) / 2;
    for (size_t i = 0; i < pairs; ++i) {
      XDB_RETURN_NOT_OK(CheckBoolean(e.children[2 * i], "CASE/WHEN"));
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckBoolean(const ExprPtr& expr, std::string_view clause) {
  if (expr->kind == ExprKind::kLiteral && expr->literal.is_null()) {
    return Status::OK();
  }
  const TypeId type = InferType(expr);
  if (type == TypeId::kBool) return Status::OK();
  return Status::BindError("argument of " + std::string(clause) +
                           " must be type bool, not type " +
                           TypeIdToString(type) + ": " + expr->ToSql());
}

Result<ExprPtr> BindExpr(const ExprPtr& expr, const Schema& schema,
                         const std::vector<std::string>* qualifiers) {
  ExprPtr bound = expr->Clone();

  // Recursive in-place resolution over the cloned tree.
  struct Binder {
    const Schema& schema;
    const std::vector<std::string>* quals;

    Status Bind(Expr* e) {
      if (e->kind == ExprKind::kColumnRef) {
        if (e->column_index >= 0) {
          if (static_cast<size_t>(e->column_index) >= schema.num_fields()) {
            return Status::BindError("bound column index out of range: " +
                                     std::to_string(e->column_index));
          }
          e->column_type = schema.field(e->column_index).type;
          return Status::OK();
        }
        int found = -1;
        for (size_t i = 0; i < schema.num_fields(); ++i) {
          if (!EqualsIgnoreCase(schema.field(i).name, e->column)) continue;
          if (!e->qualifier.empty() && quals != nullptr &&
              !EqualsIgnoreCase((*quals)[i], e->qualifier)) {
            continue;
          }
          if (found >= 0) {
            return Status::BindError("ambiguous column reference: " +
                                     e->ToSql());
          }
          found = static_cast<int>(i);
        }
        if (found < 0) {
          return Status::BindError("unknown column: " + e->ToSql() +
                                   " in schema " + schema.ToString());
        }
        e->column_index = found;
        e->column_type = schema.field(found).type;
        return Status::OK();
      }
      for (auto& c : e->children) XDB_RETURN_NOT_OK(Bind(c.get()));
      if (e->kind == ExprKind::kFunction) return CheckFunction(*e);
      return CheckBooleanOperands(*e);
    }
  };

  Binder binder{schema, qualifiers};
  XDB_RETURN_NOT_OK(binder.Bind(bound.get()));
  return bound;
}

TypeId InferType(const ExprPtr& expr) {
  switch (expr->kind) {
    case ExprKind::kColumnRef:
      return expr->column_type;
    case ExprKind::kLiteral:
      return expr->literal.type();
    case ExprKind::kBinary:
      switch (expr->binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          TypeId l = InferType(expr->children[0]);
          TypeId r = InferType(expr->children[1]);
          if (l == TypeId::kDouble || r == TypeId::kDouble) {
            return TypeId::kDouble;
          }
          if (l == TypeId::kDate || r == TypeId::kDate) return TypeId::kDate;
          return TypeId::kInt64;
        }
        case BinaryOp::kDiv:
          return TypeId::kDouble;
        default:
          return TypeId::kBool;
      }
    case ExprKind::kUnary:
      if (expr->unary_op == UnaryOp::kNeg) {
        return InferType(expr->children[0]);
      }
      return TypeId::kBool;
    case ExprKind::kBetween:
    case ExprKind::kLike:
    case ExprKind::kInList:
      return TypeId::kBool;
    case ExprKind::kCaseWhen: {
      // Type of the first THEN branch.
      if (expr->children.size() >= 2) return InferType(expr->children[1]);
      return TypeId::kString;
    }
    case ExprKind::kFunction:
      if (expr->function_name == "extract_year") return TypeId::kInt64;
      if (expr->function_name == "substring") return TypeId::kString;
      if ((expr->function_name == "coalesce" ||
           expr->function_name == "abs") &&
          !expr->children.empty()) {
        return InferType(expr->children[0]);
      }
      return TypeId::kDouble;  // round
    case ExprKind::kAggregate:
      switch (expr->agg_kind) {
        case AggKind::kCount:
        case AggKind::kCountStar:
          return TypeId::kInt64;
        case AggKind::kAvg:
          return TypeId::kDouble;
        case AggKind::kSum: {
          TypeId t = InferType(expr->children[0]);
          return t == TypeId::kInt64 ? TypeId::kInt64 : TypeId::kDouble;
        }
        case AggKind::kMin:
        case AggKind::kMax:
          return InferType(expr->children[0]);
      }
  }
  return TypeId::kInt64;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

Value EvalBinary(const Expr& e, const Row& row) {
  // AND/OR use three-valued logic with short-circuiting.
  if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
    Value l = EvalExpr(*e.children[0], row);
    bool is_and = e.binary_op == BinaryOp::kAnd;
    if (!l.is_null()) {
      bool lb = l.bool_value();
      if (is_and && !lb) return Value::Bool(false);
      if (!is_and && lb) return Value::Bool(true);
    }
    Value r = EvalExpr(*e.children[1], row);
    if (!r.is_null()) {
      bool rb = r.bool_value();
      if (is_and && !rb) return Value::Bool(false);
      if (!is_and && rb) return Value::Bool(true);
    }
    if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
    return Value::Bool(is_and);
  }

  return EvalBinaryValues(e.binary_op,
                          EvalExpr(*e.children[0], row),
                          EvalExpr(*e.children[1], row));
}

}  // namespace

Value EvalBinaryValues(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (l.is_null() || r.is_null()) {
        return Value::Null(TypeId::kDouble);
      }
      bool as_int = l.type() != TypeId::kDouble &&
                    r.type() != TypeId::kDouble && op != BinaryOp::kDiv;
      if (as_int) {
        int64_t a = l.int64_value(), b = r.int64_value();
        int64_t out = op == BinaryOp::kAdd   ? a + b
                      : op == BinaryOp::kSub ? a - b
                                             : a * b;
        // Date +/- integer stays a date.
        if ((l.type() == TypeId::kDate || r.type() == TypeId::kDate) &&
            op != BinaryOp::kMul) {
          return Value::Date(out);
        }
        return Value::Int64(out);
      }
      double a = l.AsDouble(), b = r.AsDouble();
      switch (op) {
        case BinaryOp::kAdd: return Value::Double(a + b);
        case BinaryOp::kSub: return Value::Double(a - b);
        case BinaryOp::kMul: return Value::Double(a * b);
        default:
          if (b == 0.0) return Value::Null(TypeId::kDouble);
          return Value::Double(a / b);
      }
    }
    default: {
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
      int c = l.Compare(r);
      switch (op) {
        case BinaryOp::kEq: return Value::Bool(c == 0);
        case BinaryOp::kNe: return Value::Bool(c != 0);
        case BinaryOp::kLt: return Value::Bool(c < 0);
        case BinaryOp::kLe: return Value::Bool(c <= 0);
        case BinaryOp::kGt: return Value::Bool(c > 0);
        case BinaryOp::kGe: return Value::Bool(c >= 0);
        default: return Value::Null(TypeId::kBool);
      }
    }
  }
}

Value EvalUnaryValue(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(!v.bool_value());
    case UnaryOp::kNeg:
      if (v.is_null()) return v;
      if (v.type() == TypeId::kDouble) {
        return Value::Double(-v.double_value());
      }
      return Value::Int64(-v.int64_value());
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Value::Null(TypeId::kBool);
}

Value EvalExpr(const Expr& expr, const Row& row) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return row[static_cast<size_t>(expr.column_index)];
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kBinary:
      return EvalBinary(expr, row);
    case ExprKind::kUnary:
      return EvalUnaryValue(expr.unary_op, EvalExpr(*expr.children[0], row));
    case ExprKind::kBetween: {
      Value v = EvalExpr(*expr.children[0], row);
      Value lo = EvalExpr(*expr.children[1], row);
      Value hi = EvalExpr(*expr.children[2], row);
      if (v.is_null() || lo.is_null() || hi.is_null()) {
        return Value::Null(TypeId::kBool);
      }
      return Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case ExprKind::kLike: {
      Value v = EvalExpr(*expr.children[0], row);
      Value p = EvalExpr(*expr.children[1], row);
      if (v.is_null() || p.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(LikeMatch(v.string_value(), p.string_value()));
    }
    case ExprKind::kInList: {
      Value v = EvalExpr(*expr.children[0], row);
      if (v.is_null()) return Value::Null(TypeId::kBool);
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        Value c = EvalExpr(*expr.children[i], row);
        if (c.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(c) == 0) return Value::Bool(true);
      }
      return saw_null ? Value::Null(TypeId::kBool) : Value::Bool(false);
    }
    case ExprKind::kCaseWhen: {
      size_t pairs = (expr.children.size() - (expr.case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        Value c = EvalExpr(*expr.children[2 * i], row);
        if (!c.is_null() && c.bool_value()) {
          return EvalExpr(*expr.children[2 * i + 1], row);
        }
      }
      if (expr.case_has_else) return EvalExpr(*expr.children.back(), row);
      return Value::Null(TypeId::kString);
    }
    case ExprKind::kFunction: {
      if (expr.function_name == "extract_year") {
        Value v = EvalExpr(*expr.children[0], row);
        if (v.is_null()) return Value::Null(TypeId::kInt64);
        int y, m, d;
        CivilFromDays(v.date_value(), &y, &m, &d);
        return Value::Int64(y);
      }
      if (expr.function_name == "coalesce") {
        for (const auto& child : expr.children) {
          Value v = EvalExpr(*child, row);
          if (!v.is_null()) return v;
        }
        return Value::Null(expr.children.empty()
                               ? TypeId::kInt64
                               : InferType(expr.children[0]));
      }
      if (expr.function_name == "abs") {
        Value v = EvalExpr(*expr.children[0], row);
        if (v.is_null()) return v;
        if (v.type() == TypeId::kDouble) {
          return Value::Double(std::fabs(v.double_value()));
        }
        return Value::Int64(std::llabs(v.int64_value()));
      }
      if (expr.function_name == "round") {
        Value v = EvalExpr(*expr.children[0], row);
        if (v.is_null()) return Value::Null(TypeId::kDouble);
        double scale = 1.0;
        if (expr.children.size() > 1) {
          Value digits = EvalExpr(*expr.children[1], row);
          if (!digits.is_null()) {
            scale = std::pow(10.0, digits.AsDouble());
          }
        }
        return Value::Double(std::round(v.AsDouble() * scale) / scale);
      }
      // substring: BindExpr admits no other function.
      Value v = EvalExpr(*expr.children[0], row);
      Value start = EvalExpr(*expr.children[1], row);
      Value len = EvalExpr(*expr.children[2], row);
      if (v.is_null() || start.is_null() || len.is_null()) {
        return Value::Null(TypeId::kString);
      }
      const std::string& s = v.string_value();
      int64_t b = std::max<int64_t>(1, start.int64_value()) - 1;
      if (b >= static_cast<int64_t>(s.size())) return Value::String("");
      return Value::String(
          s.substr(static_cast<size_t>(b),
                   static_cast<size_t>(std::max<int64_t>(
                       0, len.int64_value()))));
    }
    case ExprKind::kAggregate:
      // Aggregates are computed by the HashAggregate operator; a bare
      // aggregate reaching the evaluator is a planner bug.
      return Value::Null(TypeId::kDouble);
  }
  return Value::Null(TypeId::kInt64);
}

bool EvalPredicate(const Expr& expr, const Row& row) {
  Value v = EvalExpr(expr, row);
  return !v.is_null() && v.bool_value();
}

void CollectColumnIndices(const Expr& expr, std::vector<int>* out) {
  if (expr.kind == ExprKind::kColumnRef && expr.column_index >= 0) {
    out->push_back(expr.column_index);
  }
  for (const auto& c : expr.children) CollectColumnIndices(*c, out);
}

void CollectColumnNames(
    const Expr& expr,
    std::vector<std::pair<std::string, std::string>>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    out->emplace_back(expr.qualifier, expr.column);
  }
  for (const auto& c : expr.children) CollectColumnNames(*c, out);
}

}  // namespace xdb
