#include <gtest/gtest.h>

#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace xdb {
namespace sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto r = Tokenize("SELECT a, b FROM t WHERE a >= 1.5 AND b <> 'x''y'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& toks = *r;
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks.back().type, TokenType::kEnd);
}

TEST(LexerTest, StringEscapes) {
  auto r = Tokenize("'it''s'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].text, "it's");
}

TEST(LexerTest, LineComments) {
  auto r = Tokenize("SELECT 1 -- comment\nFROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r).size(), 5u);  // SELECT 1 FROM t <end>
}

TEST(LexerTest, UnterminatedStringFails) {
  auto r = Tokenize("SELECT 'oops");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseSelect("SELECT a, b FROM t WHERE a > 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto sel = *r;
  EXPECT_EQ(sel->select_list.size(), 2u);
  EXPECT_EQ(sel->from.size(), 1u);
  EXPECT_EQ(sel->from[0].table, "t");
  ASSERT_NE(sel->where, nullptr);
  EXPECT_EQ(sel->where->ToSql(), "(a > 10)");
}

TEST(ParserTest, SelectStar) {
  auto r = ParseSelect("SELECT * FROM cvvnm");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)->select_star);
}

TEST(ParserTest, CrossDatabaseQualifiers) {
  auto r = ParseSelect(
      "SELECT c.id FROM cdb.citizen c, vdb.vaccination vn "
      "WHERE c.id = vn.c_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto sel = *r;
  EXPECT_EQ(sel->from[0].db, "cdb");
  EXPECT_EQ(sel->from[0].table, "citizen");
  EXPECT_EQ(sel->from[0].EffectiveAlias(), "c");
  EXPECT_EQ(sel->from[1].db, "vdb");
}

TEST(ParserTest, PaperExampleQuery) {
  // The motivating query of Section II-A (Figure 3).
  auto r = ParseSelect(
      "SELECT v.type, AVG(m.u_ml), "
      "  case when c.age between 20 and 30 then '20-30' "
      "       when c.age between 30 and 40 then '30-40' "
      "       else '40+' end as 'age_group' "
      "FROM cdb.citizen c, vdb.vaccines v, vdb.vaccination vn, "
      "     hdb.measurements m "
      "WHERE c.id = vn.c_id AND c.id = m.c_id AND v.id = vn.v_id "
      "  AND c.age > 20 "
      "GROUP BY age_group, v.type");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto sel = *r;
  EXPECT_EQ(sel->select_list.size(), 3u);
  EXPECT_EQ(sel->select_list[2]->alias, "age_group");
  EXPECT_EQ(sel->from.size(), 4u);
  EXPECT_EQ(sel->group_by.size(), 2u);
  EXPECT_TRUE(sel->select_list[1]->ContainsAggregate());
}

TEST(ParserTest, GroupOrderLimit) {
  auto r = ParseSelect(
      "SELECT a, SUM(b) AS s FROM t GROUP BY a ORDER BY s DESC, a LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto sel = *r;
  EXPECT_EQ(sel->group_by.size(), 1u);
  ASSERT_EQ(sel->order_by.size(), 2u);
  EXPECT_TRUE(sel->order_by[0].descending);
  EXPECT_FALSE(sel->order_by[1].descending);
  EXPECT_EQ(sel->limit, 10);
}

TEST(ParserTest, DateLiteralAndExtract) {
  auto r = ParseSelect(
      "SELECT EXTRACT(YEAR FROM o_orderdate) FROM orders "
      "WHERE o_orderdate < DATE '1995-03-15'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto sel = *r;
  EXPECT_EQ(sel->select_list[0]->function_name, "extract_year");
}

TEST(ParserTest, InListAndLike) {
  auto r = ParseSelect(
      "SELECT a FROM t WHERE a IN (1, 2, 3) AND b LIKE '%green%'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ParserTest, CreateView) {
  auto r = ParseStatement(
      "CREATE VIEW vvn AS SELECT v.type, vn.c_id FROM vaccines v, "
      "vaccination vn WHERE v.id = vn.v_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->kind, StatementKind::kCreateView);
  EXPECT_EQ((*r)->relation_name, "vvn");
  ASSERT_NE((*r)->select, nullptr);
}

TEST(ParserTest, CreateForeignTable) {
  // The paper's DDL 2-1 (Figure 7).
  auto r = ParseStatement("CREATE FOREIGN TABLE vvn(type, c_id) SERVER vdb");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->kind, StatementKind::kCreateForeignTable);
  EXPECT_EQ((*r)->server, "vdb");
  EXPECT_EQ((*r)->column_names.size(), 2u);
  EXPECT_EQ((*r)->remote_relation, "vvn");
}

TEST(ParserTest, CreateForeignTableWithOptions) {
  auto r = ParseStatement(
      "CREATE FOREIGN TABLE ft SERVER db2 OPTIONS (table 'remote_rel')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->remote_relation, "remote_rel");
}

TEST(ParserTest, CreateTableAs) {
  auto r = ParseStatement("CREATE TABLE mat AS SELECT * FROM ft");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->kind, StatementKind::kCreateTableAs);
}

TEST(ParserTest, DropStatements) {
  auto r1 = ParseStatement("DROP VIEW v1");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->relation_kind, RelationKind::kView);
  auto r2 = ParseStatement("DROP FOREIGN TABLE IF EXISTS ft");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE((*r2)->if_exists);
  EXPECT_EQ((*r2)->relation_kind, RelationKind::kForeignTable);
}

TEST(ParserTest, RoundTripToSql) {
  const std::string q =
      "SELECT a, SUM(b) AS s FROM db1.t AS x WHERE (a > 10) "
      "GROUP BY a ORDER BY s DESC LIMIT 5";
  auto r = ParseSelect(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Reparse of the printed SQL must succeed and print identically.
  auto r2 = ParseSelect((*r)->ToSql());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((*r)->ToSql(), (*r2)->ToSql());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("CREATE VIEW v").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t extra garbage ,").ok());
}

TEST(ParserTest, DistinctIsRejectedNotIgnored) {
  for (const char* q : {"SELECT DISTINCT k FROM t",
                        "select distinct k, w FROM db1.t WHERE w > 1"}) {
    auto r = ParseSelect(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented) << q;
    EXPECT_NE(r.status().message().find("DISTINCT"), std::string::npos) << q;
  }
  // Through a derived table and through EXPLAIN as well.
  EXPECT_EQ(ParseSelect("SELECT x.k FROM (SELECT DISTINCT k FROM t) x")
                .status()
                .code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(ParseStatement("EXPLAIN SELECT DISTINCT k FROM t").status().code(),
            StatusCode::kNotImplemented);
}

TEST(ParserTest, IntegerLiteralsParseExactly) {
  // 2^53 + 1 is not a double; it must not round on the way through.
  auto r = ParseSelect("SELECT a FROM t WHERE a = 9007199254740993");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->where->children[1]->literal.int64_value(),
            int64_t{9007199254740993});
  EXPECT_EQ((*r)->where->ToSql(), "(a = 9007199254740993)");
}

TEST(ParserTest, IntegerLiteralOutOfRangeIsAParseError) {
  for (const char* q : {"SELECT a FROM t WHERE a = 99999999999999999999",
                        "SELECT a FROM t LIMIT 99999999999999999999"}) {
    auto r = ParseSelect(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
}

TEST(ParserTest, OverflowingDoubleIsAParseError) {
  auto r = ParseSelect("SELECT a FROM t WHERE a = 1e999");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  // Underflow is not an error: it rounds toward zero.
  EXPECT_TRUE(ParseSelect("SELECT a FROM t WHERE a = 1e-999").ok());
}

}  // namespace
}  // namespace sql
}  // namespace xdb
