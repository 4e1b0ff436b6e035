// Property test for the vectorized expression kernels: EvalExprBatch /
// EvalPredicateBatch must be *bit-identical* to the scalar EvalExpr /
// EvalPredicate on every row — including NULL type tags, -0.0 payloads,
// NaN and infinite lanes, int-vs-double promotion, date arithmetic and
// division by zero. Randomized bound trees drive the typed fast paths, the
// predicates that read stored lanes in place, and the scalar fallback, over
// plain, encoded and reference columns.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
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
constexpr int kColR = 7;     // int64 in runs of 20, no NULLs (RLE encoded)

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kMinI64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

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
  int64_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(pct(*rng) < 10 ? Value::Null(TypeId::kInt64)
                                 : Value::Int64(small(*rng)));
    row.push_back(pct(*rng) < 40 ? Value::Null(TypeId::kInt64)
                                 : Value::Int64(small(*rng) * 1000));
    // x: exercise -0.0, +0.0, integral doubles (normalized-key / promotion
    // edge cases), NaN, ±inf and fractions.
    int xs = pct(*rng);
    if (xs < 8) row.push_back(Value::Double(-0.0));
    else if (xs < 16) row.push_back(Value::Double(0.0));
    else if (xs < 40) row.push_back(Value::Double(double(small(*rng))));
    else if (xs < 50) row.push_back(Value::Null(TypeId::kDouble));
    else if (xs < 54) row.push_back(Value::Double(kNaN));
    else if (xs < 57) row.push_back(Value::Double(kInf));
    else if (xs < 60) row.push_back(Value::Double(-kInf));
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
    if (i % 20 == 0) run = small(*rng);
    row.push_back(Value::Int64(run));
    rows.push_back(std::move(row));
  }
  return rows;
}

ExprPtr NumericColumn(std::mt19937* rng) {
  switch ((*rng)() % 6) {
    case 0: return Expr::BoundColumn(kColA, TypeId::kInt64, "a");
    case 1: return Expr::BoundColumn(kColB, TypeId::kInt64, "b");
    case 2: return Expr::BoundColumn(kColX, TypeId::kDouble, "x");
    case 3: return Expr::BoundColumn(kColY, TypeId::kDouble, "y");
    case 4: return Expr::BoundColumn(kColR, TypeId::kInt64, "r");
    default: return Expr::BoundColumn(kColD, TypeId::kDate, "d");
  }
}

ExprPtr StringColumn() {
  return Expr::BoundColumn(kColS, TypeId::kString, "s");
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

/// A comparison operand: a numeric literal, or one that arithmetic must not
/// see (an int64 bound, NaN or an infinity).
ExprPtr PredicateLiteral(std::mt19937* rng) {
  switch ((*rng)() % 8) {
    case 0: return Expr::Literal(Value::Int64(kMinI64));
    case 1: return Expr::Literal(Value::Int64(kMaxI64));
    case 2: return Expr::Literal(Value::Double(kNaN));
    case 3: return Expr::Literal(Value::Double((*rng)() % 2 ? kInf : -kInf));
    default: return NumericLiteral(rng);
  }
}

/// `lhs op rhs`, or `rhs op lhs` with the operands swapped.
ExprPtr EitherSide(std::mt19937* rng, ExprPtr lhs, ExprPtr rhs) {
  const auto op = static_cast<BinaryOp>(4 + (*rng)() % 6);  // = <> < <= > >=
  if ((*rng)() % 2) return Expr::Binary(op, std::move(rhs), std::move(lhs));
  return Expr::Binary(op, std::move(lhs), std::move(rhs));
}

ExprPtr LikePatternLiteral(std::mt19937* rng) {
  static const char* patterns[] = {"%a%", "alpha%", "_eta", "%", "", "%ta"};
  return Expr::Literal(Value::String(patterns[(*rng)() % 6]));
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
    switch ((*rng)() % 4) {
      case 0:
        return Expr::Between(NumericColumn(rng), PredicateLiteral(rng),
                             PredicateLiteral(rng));
      case 1:
        return Expr::Like(StringColumn(), LikePatternLiteral(rng));
      default:
        return EitherSide(rng, NumericColumn(rng), PredicateLiteral(rng));
    }
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
    case 7:  // string comparison, either side
      return EitherSide(
          rng, StringColumn(),
          Expr::Literal(Value::String((*rng)() % 2 ? "beta" : "alpha")));
    case 8:  // LIKE / IN
      if ((*rng)() % 2) {
        return Expr::Like(StringColumn(), LikePatternLiteral(rng));
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

/// A table the kernels read, and the random row behind each of its lanes.
struct TestTable {
  std::string name;
  Table table;
  std::vector<uint32_t> origin;  // lane i holds rows[origin[i]]
};

/// The random rows as tables: as built (plain columns); encoded; and as
/// references to the encoded columns, without a position list and through a
/// shuffled list that repeats and drops rows.
std::vector<TestTable> AsTables(const std::vector<Row>& rows) {
  const Schema schema({{"a", TypeId::kInt64},
                       {"b", TypeId::kInt64},
                       {"x", TypeId::kDouble},
                       {"y", TypeId::kDouble},
                       {"d", TypeId::kDate},
                       {"flag", TypeId::kBool},
                       {"s", TypeId::kString},
                       {"r", TypeId::kInt64}});
  Table plain(schema, rows);
  auto encoded = std::make_shared<Table>(plain);
  encoded->Encode();
  // Every encoding the in-place predicates read is present.
  EXPECT_EQ(encoded->column(kColA).encoding(), ColumnEncoding::kFor);
  EXPECT_EQ(encoded->column(kColX).encoding(), ColumnEncoding::kPlain);
  EXPECT_EQ(encoded->column(kColS).encoding(), ColumnEncoding::kDictionary);
  EXPECT_EQ(encoded->column(kColR).encoding(), ColumnEncoding::kRle);
  EXPECT_EQ(plain.column(kColS).encoding(), ColumnEncoding::kPlain);

  const size_t n = rows.size();
  std::vector<uint32_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<uint32_t>(i);
  std::mt19937 rng(static_cast<uint32_t>(n));
  auto shuffled = std::make_shared<ColumnChunk::Positions>();
  for (size_t k = 0; k < n + n / 3; ++k) {
    shuffled->push_back(static_cast<uint32_t>(rng() % n));
  }
  std::vector<TestTable> out = {{"plain", plain, identity},
                                {"encoded", *encoded, identity}};
  for (const ColumnChunk::PositionsPtr& pos :
       {ColumnChunk::PositionsPtr(), ColumnChunk::PositionsPtr(shuffled)}) {
    std::vector<ColumnChunk> cols;
    ColumnChunk::Compositions composed;
    for (const ColumnChunk& c : encoded->columns()) {
      cols.push_back(ColumnChunk::Reference({encoded, &c}, pos, &composed));
      EXPECT_EQ(cols.back().encoding(), ColumnEncoding::kReference);
    }
    const size_t lanes = pos != nullptr ? pos->size() : n;
    out.push_back({pos != nullptr ? "shuffled reference" : "reference",
                   Table(schema, std::move(cols), lanes),
                   pos != nullptr ? *pos : identity});
  }
  return out;
}

/// The full selection over `n` lanes and a random sparse one.
std::vector<SelVector> Selections(size_t n, std::mt19937* rng) {
  SelVector full;
  SelRange(0, n, &full);
  SelVector sparse;
  for (uint32_t i = 0; i < n; ++i) {
    if ((*rng)() % 3 == 0) sparse.push_back(i);
  }
  return {full, sparse};
}

/// Checks batch == scalar on every table, on a full and on a random sparse
/// selection.
void CheckExpr(const Expr& e, const std::vector<Row>& rows,
               std::mt19937* rng) {
  for (const TestTable& t : AsTables(rows)) {
    for (const SelVector& sel : Selections(t.table.num_rows(), rng)) {
      const ColumnChunk batch = EvalExprBatch(e, t.table.columns(), sel);
      ASSERT_EQ(batch.size(), sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        const Value lane = batch.GetValue(i);
        const uint32_t row = t.origin[sel[i]];
        Value scalar = EvalExpr(e, rows[row]);
        ASSERT_TRUE(BitEqual(lane, scalar))
            << e.ToSql() << " on " << t.name << " row " << row
            << ": batch=" << lane.ToString() << " ("
            << TypeIdToString(lane.type()) << (lane.is_null() ? ",null" : "")
            << ") scalar=" << scalar.ToString() << " ("
            << TypeIdToString(scalar.type())
            << (scalar.is_null() ? ",null" : "") << ")";
      }
    }
  }
}

/// Checks that the batch predicate keeps exactly the selected lanes whose
/// row passes the scalar predicate, on every table and selection.
void CheckPredicate(const Expr& e, const std::vector<Row>& rows,
                    std::mt19937* rng) {
  for (const TestTable& t : AsTables(rows)) {
    for (SelVector sel : Selections(t.table.num_rows(), rng)) {
      SelVector expected;
      for (uint32_t lane : sel) {
        if (EvalPredicate(e, rows[t.origin[lane]])) expected.push_back(lane);
      }
      EvalPredicateBatch(e, t.table.columns(), &sel);
      ASSERT_EQ(sel, expected) << e.ToSql() << " on " << t.name;
    }
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
    CheckPredicate(*e, rows, &rng);
  }
}

TEST(VectorizedExprTest, DirectedEdgeCases) {
  std::mt19937 rng(7);
  auto rows = MakeRows(&rng, 64);
  auto x = [] { return Expr::BoundColumn(kColX, TypeId::kDouble, "x"); };
  auto a = [] { return Expr::BoundColumn(kColA, TypeId::kInt64, "a"); };
  auto b = [] { return Expr::BoundColumn(kColB, TypeId::kInt64, "b"); };
  auto d = [] { return Expr::BoundColumn(kColD, TypeId::kDate, "d"); };
  auto r = [] { return Expr::BoundColumn(kColR, TypeId::kInt64, "r"); };
  auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  // A row where `a BETWEEN x AND 10` meets a NaN lower bound.
  rows[0][kColA] = Value::Int64(5);
  rows[0][kColX] = Value::Double(kNaN);

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
  // A NaN bound: Value::Compare(5, NaN) is 1, so 5 >= NaN holds and the
  // scalar BETWEEN is TRUE. From a column, a literal, and an expression.
  cases.push_back(Expr::Between(a(), x(), lit(Value::Int64(10))));
  cases.push_back(
      Expr::Between(a(), lit(Value::Double(kNaN)), lit(Value::Int64(10))));
  auto inf_times = [&] {
    return Expr::Binary(BinaryOp::kMul, lit(Value::Double(1e308)),
                        lit(Value::Double(10.0)));
  };
  cases.push_back(
      Expr::Between(a(), Expr::Binary(BinaryOp::kSub, inf_times(), inf_times()),
                    lit(Value::Int64(10))));
  // The literal on the left keeps its place: NaN < x is never TRUE, while
  // x > NaN is TRUE for every x.
  cases.push_back(Expr::Binary(BinaryOp::kLt, lit(Value::Double(kNaN)), x()));
  cases.push_back(Expr::Binary(BinaryOp::kGt, x(), lit(Value::Double(kNaN))));
  cases.push_back(Expr::Binary(BinaryOp::kLt, lit(Value::Int64(5)), a()));
  cases.push_back(Expr::Binary(BinaryOp::kGe, lit(Value::Double(1.5)), x()));
  cases.push_back(Expr::Binary(BinaryOp::kGt, lit(Value::String("beta")),
                               Expr::BoundColumn(kColS, TypeId::kString, "s")));
  // int64 bounds stay exact against int lanes and widen against doubles.
  cases.push_back(Expr::Binary(BinaryOp::kGt, a(), lit(Value::Int64(kMinI64))));
  cases.push_back(Expr::Binary(BinaryOp::kGe, lit(Value::Int64(kMaxI64)), r()));
  cases.push_back(Expr::Between(d(), lit(Value::Int64(kMinI64)),
                                lit(Value::Int64(kMaxI64))));
  cases.push_back(Expr::Between(x(), lit(Value::Int64(kMinI64)),
                                lit(Value::Int64(kMaxI64))));
  cases.push_back(Expr::Between(r(), lit(Value::Int64(-10)),
                                lit(Value::Double(20.5))));
  // LIKE over plain and dictionary strings.
  cases.push_back(Expr::Like(Expr::BoundColumn(kColS, TypeId::kString, "s"),
                             lit(Value::String("%ph%"))));
  // OR in a WHERE clause: the union of two selections, NULLs included.
  cases.push_back(Expr::Binary(
      BinaryOp::kOr,
      Expr::Binary(BinaryOp::kAnd,
                   Expr::Binary(BinaryOp::kEq,
                                Expr::BoundColumn(kColS, TypeId::kString, "s"),
                                lit(Value::String("beta"))),
                   Expr::Binary(BinaryOp::kLt, a(), lit(Value::Int64(0)))),
      Expr::Binary(BinaryOp::kGe, b(), lit(Value::Int64(0)))));

  for (const auto& e : cases) {
    CheckExpr(*e, rows, &rng);
    CheckPredicate(*e, rows, &rng);
  }
}

TEST(VectorizedExprTest, EmptySelectionYieldsNothing) {
  std::mt19937 rng(3);
  auto rows = MakeRows(&rng, 8);
  ExprPtr e = Expr::Binary(BinaryOp::kAdd,
                           Expr::BoundColumn(kColA, TypeId::kInt64, "a"),
                           Expr::Literal(Value::Int64(1)));
  const Table table = AsTables(rows)[0].table;
  SelVector sel;
  EXPECT_EQ(EvalExprBatch(*e, table.columns(), sel).size(), 0u);
  EvalPredicateBatch(*e, table.columns(), &sel);
  EXPECT_TRUE(sel.empty());
}

}  // namespace
}  // namespace xdb
