#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/types/schema.h"
#include "src/types/table.h"

namespace xdb {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// \brief Node kinds of the scalar-expression AST.
enum class ExprKind : uint8_t {
  kColumnRef,   // qualified or unqualified column reference
  kLiteral,     // constant Value
  kBinary,      // arithmetic / comparison / AND / OR
  kUnary,       // NOT, negation, IS [NOT] NULL
  kBetween,     // a BETWEEN lo AND hi
  kLike,        // a LIKE 'pattern'
  kInList,      // a IN (v1, v2, ...)
  kCaseWhen,    // CASE WHEN c THEN v ... [ELSE e] END
  kFunction,    // scalar function call (EXTRACT-year, SUBSTRING, ...)
  kAggregate,   // SUM/AVG/COUNT/MIN/MAX(arg); only valid in SELECT lists
};

enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp : uint8_t { kNot, kNeg, kIsNull, kIsNotNull };

enum class AggKind : uint8_t { kSum, kAvg, kCount, kMin, kMax, kCountStar };

const char* BinaryOpToSql(BinaryOp op);
const char* AggKindToSql(AggKind k);

/// \brief A scalar expression tree node.
///
/// A single tagged node type (in the SQLite tradition) rather than a class
/// hierarchy: expressions here are small and the uniform representation keeps
/// cloning, binding, printing and hashing in one place each.
///
/// Column references exist in two states: *unbound* (identified by optional
/// qualifier + column name, as parsed) and *bound* (index into the input
/// schema, set by BindExpr). Evaluation requires a bound tree.
class Expr {
 public:
  ExprKind kind;

  // kColumnRef
  std::string qualifier;   // table alias or table name; may be empty
  std::string column;      // column name
  int column_index = -1;   // >= 0 once bound
  TypeId column_type = TypeId::kInt64;  // valid once bound

  // kLiteral
  Value literal = Value::Int64(0);

  // kBinary / kUnary
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNot;

  // kAggregate
  AggKind agg_kind = AggKind::kSum;

  // kFunction
  std::string function_name;  // lowercase

  // children: operands; for kCaseWhen: [when1, then1, when2, then2, ..., else?]
  std::vector<ExprPtr> children;
  bool case_has_else = false;

  /// Optional output alias (SELECT ... AS alias).
  std::string alias;

  // ---- factories ----
  static ExprPtr Column(std::string qualifier, std::string column);
  static ExprPtr BoundColumn(int index, TypeId type, std::string name);
  static ExprPtr Literal(Value v);
  static ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Between(ExprPtr v, ExprPtr lo, ExprPtr hi);
  static ExprPtr Like(ExprPtr v, ExprPtr pattern);
  static ExprPtr InList(ExprPtr v, std::vector<ExprPtr> list);
  static ExprPtr Case(std::vector<ExprPtr> when_then_pairs, ExprPtr else_expr);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Aggregate(AggKind kind, ExprPtr arg);  // arg null for COUNT(*)

  /// Deep copy.
  ExprPtr Clone() const;

  /// True if any node in the tree is an aggregate.
  bool ContainsAggregate() const;

  /// Output name: alias if set, else a derived name ("col", "sum(...)", ...).
  std::string OutputName() const;

  /// Renders as (dialect-neutral) SQL text.
  std::string ToSql() const;

  /// Renders as SQL text with `column` rendering each column reference.
  std::string ToSql(
      const std::function<std::string(const Expr&)>& column) const;

  /// Structural equality (ignores alias).
  bool Equals(const Expr& other) const;
};

/// \brief Resolves column references against `schema`, returning a bound
/// clone. Qualifiers are matched against `qualifiers[i]` for field i when
/// provided (same length as schema); otherwise only names are matched.
Result<ExprPtr> BindExpr(const ExprPtr& expr, const Schema& schema,
                         const std::vector<std::string>* qualifiers = nullptr);

/// \brief Static result type of a bound expression.
TypeId InferType(const ExprPtr& expr);

/// \brief OK when bound `expr` may stand where SQL needs a truth value: it
/// infers kBool or is a NULL literal. Otherwise a BindError naming `clause`
/// (WHERE, HAVING, AND, OR, NOT, CASE/WHEN) and the type. BindExpr applies
/// it to the operands of AND, OR and NOT and to every WHEN condition.
Status CheckBoolean(const ExprPtr& expr, std::string_view clause);

/// \brief Evaluates a bound, aggregate-free expression against a row.
Value EvalExpr(const Expr& expr, const Row& row);

/// \brief True iff the predicate evaluates to (non-NULL) TRUE on the row.
bool EvalPredicate(const Expr& expr, const Row& row);

/// \brief Applies a non-AND/OR binary operator to two already-evaluated
/// operands. This is the single value-level kernel behind both the scalar
/// evaluator and the vectorized fallback path (vector_eval.cc), so the two
/// agree bit for bit by construction.
Value EvalBinaryValues(BinaryOp op, const Value& l, const Value& r);

/// \brief Applies a unary operator to an already-evaluated operand (same
/// sharing contract as EvalBinaryValues).
Value EvalUnaryValue(UnaryOp op, const Value& v);

/// \brief Collects all column indices referenced by a bound tree.
void CollectColumnIndices(const Expr& expr, std::vector<int>* out);

/// \brief Collects all unbound column names (qualifier.column) in the tree.
void CollectColumnNames(const Expr& expr,
                        std::vector<std::pair<std::string, std::string>>* out);

}  // namespace xdb
