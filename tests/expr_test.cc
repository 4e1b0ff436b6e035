#include <gtest/gtest.h>

#include "src/common/str_util.h"
#include "src/expr/expr.h"
#include "src/sql/parser.h"

namespace xdb {
namespace {

Schema TestSchema() {
  return Schema({{"a", TypeId::kInt64},
                 {"b", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDate}});
}

Row TestRow() {
  return {Value::Int64(10), Value::Double(2.5), Value::String("hello"),
          Value::Date(DaysFromCivil(1995, 3, 15))};
}

ExprPtr Parse(const std::string& text) {
  auto sel = sql::ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  return (*sel)->select_list[0];
}

Value Eval(const std::string& text) {
  auto bound = BindExpr(Parse(text), TestSchema());
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return EvalExpr(**bound, TestRow());
}

TEST(ValueTest, DateRoundTrip) {
  for (const char* s : {"1992-01-01", "1995-03-15", "1998-12-31",
                        "2000-02-29"}) {
    auto days = ParseDate(s);
    ASSERT_TRUE(days.ok());
    EXPECT_EQ(FormatDate(*days), s);
  }
}

TEST(ValueTest, DateOrdering) {
  auto a = ParseDate("1994-01-01");
  auto b = ParseDate("1995-01-01");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(*a, *b);
  EXPECT_EQ(*b - *a, 365);
}

TEST(ValueTest, CompareNullsFirst) {
  EXPECT_LT(Value::Null(TypeId::kInt64).Compare(Value::Int64(0)), 0);
  EXPECT_EQ(Value::Null(TypeId::kInt64).Compare(Value::Null(TypeId::kString)),
            0);
}

TEST(ValueTest, CrossNumericCompare) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::String("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Date(DaysFromCivil(1995, 3, 15)).ToSqlLiteral(),
            "DATE '1995-03-15'");
  EXPECT_EQ(Value::Null(TypeId::kInt64).ToSqlLiteral(), "NULL");
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("a + 5").int64_value(), 15);
  EXPECT_EQ(Eval("a * 2 - 3").int64_value(), 17);
  EXPECT_DOUBLE_EQ(Eval("b * 4").double_value(), 10.0);
  EXPECT_DOUBLE_EQ(Eval("a / 4").double_value(), 2.5);
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval("a / 0").is_null());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(Eval("a = 10").bool_value());
  EXPECT_TRUE(Eval("a <> 11").bool_value());
  EXPECT_TRUE(Eval("b < 3").bool_value());
  EXPECT_TRUE(Eval("s = 'hello'").bool_value());
  EXPECT_TRUE(Eval("d < DATE '1996-01-01'").bool_value());
}

TEST(ExprEvalTest, BooleanLogic) {
  EXPECT_TRUE(Eval("a = 10 AND b > 2").bool_value());
  EXPECT_TRUE(Eval("a = 99 OR b > 2").bool_value());
  EXPECT_FALSE(Eval("NOT (a = 10)").bool_value());
}

TEST(ExprEvalTest, ThreeValuedLogic) {
  // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
  EXPECT_FALSE(Eval("NULL AND FALSE").bool_value());
  EXPECT_FALSE(Eval("NULL AND FALSE").is_null());
  EXPECT_TRUE(Eval("NULL OR TRUE").bool_value());
  EXPECT_TRUE(Eval("NULL AND TRUE").is_null());
  EXPECT_TRUE(Eval("NULL = NULL").is_null());
}

TEST(ExprEvalTest, BetweenLikeIn) {
  EXPECT_TRUE(Eval("a BETWEEN 5 AND 15").bool_value());
  EXPECT_FALSE(Eval("a BETWEEN 11 AND 15").bool_value());
  EXPECT_TRUE(Eval("s LIKE 'he%'").bool_value());
  EXPECT_TRUE(Eval("s LIKE '%ell%'").bool_value());
  EXPECT_TRUE(Eval("s LIKE 'h_llo'").bool_value());
  EXPECT_FALSE(Eval("s LIKE 'x%'").bool_value());
  EXPECT_TRUE(Eval("a IN (1, 10, 100)").bool_value());
  EXPECT_FALSE(Eval("a IN (1, 2, 3)").bool_value());
  EXPECT_TRUE(Eval("a NOT IN (1, 2, 3)").bool_value());
}

TEST(ExprEvalTest, CaseWhen) {
  Value v = Eval(
      "CASE WHEN a < 5 THEN 'small' WHEN a < 50 THEN 'mid' "
      "ELSE 'large' END");
  EXPECT_EQ(v.string_value(), "mid");
  // No ELSE and no match yields NULL.
  EXPECT_TRUE(Eval("CASE WHEN a > 100 THEN 'big' END").is_null());
}

TEST(ExprEvalTest, ExtractYear) {
  EXPECT_EQ(Eval("EXTRACT(YEAR FROM d)").int64_value(), 1995);
}

TEST(ExprEvalTest, IsNull) {
  EXPECT_FALSE(Eval("a IS NULL").bool_value());
  EXPECT_TRUE(Eval("a IS NOT NULL").bool_value());
  EXPECT_TRUE(Eval("NULL IS NULL").bool_value());
}

TEST(ExprBindTest, UnknownColumnFails) {
  auto bound = BindExpr(Parse("nosuch + 1"), TestSchema());
  EXPECT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsBindError());
}

TEST(ExprBindTest, UnknownFunctionIsRejected) {
  for (const char* text : {"upper(s)", "nosuchfn(a)", "nosuchfn(a) IS NULL"}) {
    auto bound = BindExpr(Parse(text), TestSchema());
    ASSERT_FALSE(bound.ok()) << text;
    EXPECT_EQ(bound.status().code(), StatusCode::kNotImplemented) << text;
  }
  auto bound = BindExpr(Parse("upper(s)"), TestSchema());
  EXPECT_NE(bound.status().message().find("UPPER"), std::string::npos)
      << bound.status().ToString();
}

TEST(ExprBindTest, WrongArityIsRejected) {
  for (const char* text : {"abs(a, b)", "round(b, 1, 2)", "substring(s, 1)",
                           "coalesce()"}) {
    auto bound = BindExpr(Parse(text), TestSchema());
    ASSERT_FALSE(bound.ok()) << text;
    EXPECT_EQ(bound.status().code(), StatusCode::kNotImplemented) << text;
  }
  EXPECT_TRUE(BindExpr(Parse("round(b)"), TestSchema()).ok());
  EXPECT_TRUE(BindExpr(Parse("coalesce(a, b, 1)"), TestSchema()).ok());
}

TEST(ExprBindTest, ExtractYearNeedsADate) {
  auto bound = BindExpr(Parse("EXTRACT(YEAR FROM s)"), TestSchema());
  ASSERT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsBindError()) << bound.status().ToString();
  EXPECT_FALSE(BindExpr(Parse("EXTRACT(YEAR FROM a)"), TestSchema()).ok());
}

TEST(ExprBindTest, QualifierResolution) {
  Schema schema({{"id", TypeId::kInt64}, {"id", TypeId::kInt64}});
  std::vector<std::string> quals = {"c", "o"};
  auto e = Parse("o.id");
  auto bound = BindExpr(e, schema, &quals);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ((*bound)->column_index, 1);
  // Unqualified reference to a duplicated name is ambiguous.
  auto amb = BindExpr(Parse("id"), schema, &quals);
  EXPECT_FALSE(amb.ok());
}

TEST(ExprTest, StructuralEquality) {
  auto a = Parse("SUM(x + 1)");
  auto b = Parse("SUM(x + 1)");
  auto c = Parse("SUM(x + 2)");
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
}

TEST(ExprTest, ToSqlRoundTrip) {
  const char* exprs[] = {
      "((a + 5) * b)",
      "(a BETWEEN 1 AND 2)",
      "CASE WHEN (a > 1) THEN 'x' ELSE 'y' END",
      "(s LIKE '%x%')",
      "EXTRACT(YEAR FROM d)",
      "SUM((a * b))",
  };
  for (const char* text : exprs) {
    ExprPtr e = Parse(text);
    ExprPtr e2 = Parse(e->ToSql());
    EXPECT_TRUE(e->Equals(*e2)) << text << " vs " << e->ToSql();
  }
}

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("forest green metal", "%green%"));
  EXPECT_FALSE(LikeMatch("blue", "%green%"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("ab", "a%b"));
  EXPECT_TRUE(LikeMatch("aXXb", "a%b"));
}

}  // namespace
}  // namespace xdb
