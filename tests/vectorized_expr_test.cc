// Property test for the vectorized expression kernels: EvalExprBatch /
// EvalPredicateBatch must be *bit-identical* to the scalar EvalExpr /
// EvalPredicate on every row — including NULL type tags, -0.0 payloads,
// int-vs-double promotion, date arithmetic and division by zero. Randomized
// bound trees drive both the typed fast paths and the scalar fallback.

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "src/expr/expr.h"
#include "src/expr/vector_eval.h"

namespace xdb {
namespace {

// Column layout of the random test table.
constexpr int kColA = 0;     // int64
constexpr int kColB = 1;     // int64, many NULLs
constexpr int kColX = 2;     // double (integral values, -0.0, fractions)
constexpr int kColY = 3;     // double, many NULLs
constexpr int kColD = 4;     // date
constexpr int kColFlag = 5;  // bool
constexpr int kColS = 6;     // string

bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case TypeId::kString:
      return a.string_value() == b.string_value();
    case TypeId::kDouble: {
      double x = a.double_value(), y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    default:
      return a.int64_value() == b.int64_value();
  }
}

std::vector<Row> MakeRows(std::mt19937* rng, size_t n) {
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int64_t> small(-50, 50);
  std::uniform_real_distribution<double> frac(-2.0, 2.0);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(pct(*rng) < 10 ? Value::Null(TypeId::kInt64)
                                 : Value::Int64(small(*rng)));
    row.push_back(pct(*rng) < 40 ? Value::Null(TypeId::kInt64)
                                 : Value::Int64(small(*rng) * 1000));
    // x: exercise -0.0, +0.0, integral doubles (normalized-key / promotion
    // edge cases) and fractions.
    int xs = pct(*rng);
    if (xs < 8) row.push_back(Value::Double(-0.0));
    else if (xs < 16) row.push_back(Value::Double(0.0));
    else if (xs < 40) row.push_back(Value::Double(double(small(*rng))));
    else if (xs < 50) row.push_back(Value::Null(TypeId::kDouble));
    else row.push_back(Value::Double(frac(*rng)));
    row.push_back(pct(*rng) < 40 ? Value::Null(TypeId::kDouble)
                                 : Value::Double(frac(*rng) * 100));
    row.push_back(pct(*rng) < 10
                      ? Value::Null(TypeId::kDate)
                      : Value::Date(DaysFromCivil(1995, 1, 1) + small(*rng)));
    row.push_back(pct(*rng) < 10 ? Value::Null(TypeId::kBool)
                                 : Value::Bool(pct(*rng) < 50));
    static const char* strs[] = {"alpha", "beta", "gamma", "", "alphabet"};
    row.push_back(pct(*rng) < 10
                      ? Value::Null(TypeId::kString)
                      : Value::String(strs[pct(*rng) % 5]));
    rows.push_back(std::move(row));
  }
  return rows;
}

ExprPtr NumericColumn(std::mt19937* rng) {
  switch ((*rng)() % 5) {
    case 0: return Expr::BoundColumn(kColA, TypeId::kInt64, "a");
    case 1: return Expr::BoundColumn(kColB, TypeId::kInt64, "b");
    case 2: return Expr::BoundColumn(kColX, TypeId::kDouble, "x");
    case 3: return Expr::BoundColumn(kColY, TypeId::kDouble, "y");
    default: return Expr::BoundColumn(kColD, TypeId::kDate, "d");
  }
}

ExprPtr NumericLiteral(std::mt19937* rng) {
  switch ((*rng)() % 6) {
    case 0: return Expr::Literal(Value::Int64(int64_t((*rng)() % 41) - 20));
    case 1: return Expr::Literal(Value::Double(-0.0));
    case 2: return Expr::Literal(Value::Double(1.5));
    case 3: return Expr::Literal(Value::Double(3.0));  // integral double
    case 4: return Expr::Literal(Value::Null(TypeId::kDouble));
    default:
      return Expr::Literal(Value::Date(DaysFromCivil(1995, 1, 10)));
  }
}

ExprPtr GenNumeric(std::mt19937* rng, int depth);
ExprPtr GenBool(std::mt19937* rng, int depth);

ExprPtr GenNumeric(std::mt19937* rng, int depth) {
  if (depth <= 0 || (*rng)() % 3 == 0) {
    return (*rng)() % 2 ? NumericColumn(rng) : NumericLiteral(rng);
  }
  switch ((*rng)() % 8) {
    case 0:
    case 1:
      return Expr::Binary(static_cast<BinaryOp>((*rng)() % 4),  // + - * /
                          GenNumeric(rng, depth - 1),
                          GenNumeric(rng, depth - 1));
    case 2:
      return Expr::Unary(UnaryOp::kNeg, GenNumeric(rng, depth - 1));
    case 3:  // scalar-fallback shapes
      return Expr::Function("abs", {GenNumeric(rng, depth - 1)});
    case 4:
      return Expr::Function("coalesce", {GenNumeric(rng, depth - 1),
                                         GenNumeric(rng, depth - 1)});
    case 5:
      return Expr::Case({GenBool(rng, depth - 1), GenNumeric(rng, depth - 1)},
                        GenNumeric(rng, depth - 1));
    default:
      return Expr::Binary(static_cast<BinaryOp>((*rng)() % 4),
                          GenNumeric(rng, depth - 1),
                          GenNumeric(rng, depth - 1));
  }
}

ExprPtr GenBool(std::mt19937* rng, int depth) {
  if (depth <= 0) {
    return Expr::Binary(
        static_cast<BinaryOp>(4 + (*rng)() % 6),  // = <> < <= > >=
        NumericColumn(rng), NumericLiteral(rng));
  }
  switch ((*rng)() % 10) {
    case 0:
    case 1:
      return Expr::Binary(static_cast<BinaryOp>(4 + (*rng)() % 6),
                          GenNumeric(rng, depth - 1),
                          GenNumeric(rng, depth - 1));
    case 2:
      return Expr::Binary(BinaryOp::kAnd, GenBool(rng, depth - 1),
                          GenBool(rng, depth - 1));
    case 3:
      return Expr::Binary(BinaryOp::kOr, GenBool(rng, depth - 1),
                          GenBool(rng, depth - 1));
    case 4:
      return Expr::Unary(UnaryOp::kNot, GenBool(rng, depth - 1));
    case 5:
      return Expr::Unary((*rng)() % 2 ? UnaryOp::kIsNull
                                      : UnaryOp::kIsNotNull,
                         GenNumeric(rng, depth - 1));
    case 6:
      return Expr::Between(GenNumeric(rng, depth - 1),
                           GenNumeric(rng, depth - 1),
                           GenNumeric(rng, depth - 1));
    case 7:  // string comparison (boxed lanes)
      return Expr::Binary(
          static_cast<BinaryOp>(4 + (*rng)() % 6),
          Expr::BoundColumn(kColS, TypeId::kString, "s"),
          Expr::Literal(Value::String((*rng)() % 2 ? "beta" : "alpha")));
    case 8:  // scalar-fallback shapes: LIKE / IN
      if ((*rng)() % 2) {
        return Expr::Like(Expr::BoundColumn(kColS, TypeId::kString, "s"),
                          Expr::Literal(Value::String("%a%")));
      }
      return Expr::InList(NumericColumn(rng),
                          {NumericLiteral(rng), NumericLiteral(rng),
                           Expr::Literal(Value::Null(TypeId::kInt64))});
    default:
      return Expr::Binary(BinaryOp::kEq,
                          Expr::BoundColumn(kColFlag, TypeId::kBool, "flag"),
                          Expr::Literal(Value::Bool((*rng)() % 2 == 0)));
  }
}

/// The random rows as tables: as built (plain columns) and encoded.
std::vector<Table> AsTables(const std::vector<Row>& rows) {
  Table plain(Schema({{"a", TypeId::kInt64},
                      {"b", TypeId::kInt64},
                      {"x", TypeId::kDouble},
                      {"y", TypeId::kDouble},
                      {"d", TypeId::kDate},
                      {"flag", TypeId::kBool},
                      {"s", TypeId::kString}}),
              rows);
  Table encoded = plain;
  encoded.Encode();
  return {plain, encoded};
}

/// Checks batch == scalar on a full and on a random sparse selection.
void CheckExpr(const Expr& e, const std::vector<Row>& rows,
               std::mt19937* rng) {
  SelVector full;
  SelRange(0, rows.size(), &full);
  SelVector sparse;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if ((*rng)() % 3 == 0) sparse.push_back(i);
  }
  for (const Table& table : AsTables(rows)) {
    for (const SelVector& sel : {full, sparse}) {
      const ColumnChunk batch = EvalExprBatch(e, table.columns(), sel);
      ASSERT_EQ(batch.size(), sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        const Value lane = batch.GetValue(i);
        Value scalar = EvalExpr(e, rows[sel[i]]);
        ASSERT_TRUE(BitEqual(lane, scalar))
            << e.ToSql() << " row " << sel[i] << ": batch="
            << lane.ToString() << " (" << TypeIdToString(lane.type())
            << (lane.is_null() ? ",null" : "") << ") scalar="
            << scalar.ToString() << " (" << TypeIdToString(scalar.type())
            << (scalar.is_null() ? ",null" : "") << ")";
      }
    }
  }
}

void CheckPredicate(const Expr& e, const std::vector<Row>& rows) {
  SelVector expected;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if (EvalPredicate(e, rows[i])) expected.push_back(i);
  }
  for (const Table& table : AsTables(rows)) {
    SelVector sel;
    SelRange(0, rows.size(), &sel);
    EvalPredicateBatch(e, table.columns(), &sel);
    ASSERT_EQ(sel, expected) << e.ToSql();
  }
}

TEST(VectorizedExprTest, RandomizedNumericExprsMatchScalarBitForBit) {
  for (uint32_t seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed);
    auto rows = MakeRows(&rng, 97);  // not a morsel multiple
    ExprPtr e = GenNumeric(&rng, 4);
    CheckExpr(*e, rows, &rng);
  }
}

TEST(VectorizedExprTest, RandomizedPredicatesMatchScalarBitForBit) {
  for (uint32_t seed = 100; seed < 180; ++seed) {
    std::mt19937 rng(seed);
    auto rows = MakeRows(&rng, 103);
    ExprPtr e = GenBool(&rng, 4);
    CheckExpr(*e, rows, &rng);
    CheckPredicate(*e, rows);
  }
}

TEST(VectorizedExprTest, DirectedEdgeCases) {
  std::mt19937 rng(7);
  auto rows = MakeRows(&rng, 64);
  auto x = [] { return Expr::BoundColumn(kColX, TypeId::kDouble, "x"); };
  auto a = [] { return Expr::BoundColumn(kColA, TypeId::kInt64, "a"); };
  auto b = [] { return Expr::BoundColumn(kColB, TypeId::kInt64, "b"); };
  auto d = [] { return Expr::BoundColumn(kColD, TypeId::kDate, "d"); };

  std::vector<ExprPtr> cases;
  // -0.0 vs 0 comparison and arithmetic sign propagation.
  cases.push_back(Expr::Binary(BinaryOp::kEq, x(),
                               Expr::Literal(Value::Double(0.0))));
  cases.push_back(Expr::Binary(BinaryOp::kMul, x(),
                               Expr::Literal(Value::Double(-1.0))));
  // int/double promotion and division by zero -> NULL(double).
  cases.push_back(Expr::Binary(BinaryOp::kDiv, a(), b()));
  cases.push_back(Expr::Binary(BinaryOp::kAdd, a(), x()));
  cases.push_back(Expr::Binary(BinaryOp::kMul, a(), b()));
  // Date arithmetic stays a date (boxed fallback path).
  cases.push_back(Expr::Binary(BinaryOp::kAdd, d(),
                               Expr::Literal(Value::Int64(5))));
  // Date comparison runs the int64 typed loop.
  cases.push_back(Expr::Binary(
      BinaryOp::kGe, d(),
      Expr::Literal(Value::Date(DaysFromCivil(1995, 1, 1)))));
  // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE (three-valued logic).
  cases.push_back(Expr::Binary(
      BinaryOp::kAnd, Expr::Unary(UnaryOp::kIsNull, b()),
      Expr::Binary(BinaryOp::kLt, a(), Expr::Literal(Value::Int64(0)))));
  cases.push_back(Expr::Binary(
      BinaryOp::kOr, Expr::Unary(UnaryOp::kIsNull, b()),
      Expr::Binary(BinaryOp::kGt, a(), Expr::Literal(Value::Int64(0)))));
  // NOT over a non-bool operand reads the int64 payload (double -> TRUE).
  cases.push_back(Expr::Unary(UnaryOp::kNot, x()));
  // Negation keeps a NULL operand's type; dates negate to int64.
  cases.push_back(Expr::Unary(UnaryOp::kNeg, b()));
  cases.push_back(Expr::Unary(UnaryOp::kNeg, d()));
  // BETWEEN with mixed int/double bounds.
  cases.push_back(Expr::Between(a(), Expr::Literal(Value::Double(-10.5)),
                                Expr::Literal(Value::Int64(10))));
  cases.push_back(Expr::Between(x(), Expr::Literal(Value::Int64(-1)),
                                Expr::Literal(Value::Double(1.0))));

  for (const auto& e : cases) {
    CheckExpr(*e, rows, &rng);
    CheckPredicate(*e, rows);
  }
}

TEST(VectorizedExprTest, EmptySelectionYieldsNothing) {
  std::mt19937 rng(3);
  auto rows = MakeRows(&rng, 8);
  ExprPtr e = Expr::Binary(BinaryOp::kAdd,
                           Expr::BoundColumn(kColA, TypeId::kInt64, "a"),
                           Expr::Literal(Value::Int64(1)));
  const Table table = AsTables(rows)[0];
  SelVector sel;
  EXPECT_EQ(EvalExprBatch(*e, table.columns(), sel).size(), 0u);
  EvalPredicateBatch(*e, table.columns(), &sel);
  EXPECT_TRUE(sel.empty());
}

}  // namespace
}  // namespace xdb
