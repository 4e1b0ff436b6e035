// Tests for HAVING and derived tables (FROM subqueries) across the whole
// stack: parser, planner, local execution, and federated execution.

#include <gtest/gtest.h>

#include "src/dbms/server.h"
#include "src/sql/parser.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

class SqlFeaturesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fed_.SetNetwork(Network::Lan({"d1", "d2"}));
    d1_ = fed_.AddServer("d1", EngineProfile::Postgres());
    d2_ = fed_.AddServer("d2", EngineProfile::Postgres());
    auto sales = std::make_shared<Table>(Schema({{"emp", TypeId::kInt64},
                                                 {"amount",
                                                  TypeId::kInt64}}));
    // emp 0: 10+20+30=60 over 3 sales; emp 1: 100 over 1; emp 2: 5+5=10.
    sales->AppendRow({Value::Int64(0), Value::Int64(10)});
    sales->AppendRow({Value::Int64(0), Value::Int64(20)});
    sales->AppendRow({Value::Int64(0), Value::Int64(30)});
    sales->AppendRow({Value::Int64(1), Value::Int64(100)});
    sales->AppendRow({Value::Int64(2), Value::Int64(5)});
    sales->AppendRow({Value::Int64(2), Value::Int64(5)});
    ASSERT_TRUE(d1_->CreateBaseTable("sales", sales).ok());

    auto emps = std::make_shared<Table>(
        Schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}}));
    for (int i = 0; i < 3; ++i) {
      emps->AppendRow({Value::Int64(i),
                       Value::String("emp" + std::to_string(i))});
    }
    ASSERT_TRUE(d2_->CreateBaseTable("emps", emps).ok());
  }

  Federation fed_;
  DatabaseServer* d1_ = nullptr;
  DatabaseServer* d2_ = nullptr;
};

TEST_F(SqlFeaturesFixture, ParserAcceptsHaving) {
  auto sel = sql::ParseSelect(
      "SELECT emp, SUM(amount) AS s FROM sales GROUP BY emp "
      "HAVING SUM(amount) > 50 ORDER BY emp");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_NE((*sel)->having, nullptr);
  // Round-trips through ToSql.
  auto again = sql::ParseSelect((*sel)->ToSql());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*sel)->ToSql(), (*again)->ToSql());
}

TEST_F(SqlFeaturesFixture, HavingFiltersGroups) {
  auto r = d1_->ExecuteQuery(
      "SELECT emp, SUM(amount) AS s FROM sales GROUP BY emp "
      "HAVING SUM(amount) > 50 ORDER BY emp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2u);  // emps 0 (60) and 1 (100)
  EXPECT_EQ((*r)->row(0)[0].int64_value(), 0);
  EXPECT_EQ((*r)->row(0)[1].int64_value(), 60);
  EXPECT_EQ((*r)->row(1)[0].int64_value(), 1);
}

TEST_F(SqlFeaturesFixture, HavingOnGroupKeyAndCount) {
  auto r = d1_->ExecuteQuery(
      "SELECT emp, COUNT(*) AS n FROM sales GROUP BY emp "
      "HAVING COUNT(*) >= 2 AND emp < 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 1u);  // only emp 0 (3 sales, < 2)
  EXPECT_EQ((*r)->row(0)[0].int64_value(), 0);
}

TEST_F(SqlFeaturesFixture, HavingWithAggregateNotInSelect) {
  auto r = d1_->ExecuteQuery(
      "SELECT emp FROM sales GROUP BY emp HAVING MIN(amount) >= 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2u);  // emps 0 and 1
}

TEST_F(SqlFeaturesFixture, HavingWithoutAggregationIsError) {
  auto r = d1_->ExecuteQuery("SELECT emp FROM sales HAVING emp > 1");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
}

TEST_F(SqlFeaturesFixture, HavingOutsideGroupByIsError) {
  auto r = d1_->ExecuteQuery(
      "SELECT emp, COUNT(*) AS n FROM sales GROUP BY emp "
      "HAVING amount > 5");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
}

TEST_F(SqlFeaturesFixture, DerivedTableBasic) {
  auto r = d1_->ExecuteQuery(
      "SELECT t.s FROM (SELECT emp, SUM(amount) AS s FROM sales "
      "GROUP BY emp) AS t WHERE t.s > 50 ORDER BY t.s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2u);
  EXPECT_EQ((*r)->row(0)[0].int64_value(), 60);
  EXPECT_EQ((*r)->row(1)[0].int64_value(), 100);
}

TEST_F(SqlFeaturesFixture, DerivedTableJoinsWithBaseTable) {
  auto r = d1_->ExecuteQuery(
      "SELECT s.emp, t.total FROM sales s, "
      "(SELECT emp, SUM(amount) AS total FROM sales GROUP BY emp) t "
      "WHERE s.emp = t.emp AND s.amount = 100");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->row(0)[1].int64_value(), 100);
}

TEST_F(SqlFeaturesFixture, DerivedTableCrossDatabase) {
  // A derived aggregate over d1 joined with a base table on d2, through
  // the full XDB pipeline.
  XdbSystem xdb(&fed_);
  auto r = xdb.Query(
      "SELECT e.name, t.total FROM "
      "(SELECT emp, SUM(amount) AS total FROM sales GROUP BY emp) t, "
      "emps e WHERE t.emp = e.id AND t.total >= 60 ORDER BY t.total");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  EXPECT_EQ(r->result->row(0)[0].string_value(), "emp0");
  EXPECT_EQ(r->result->row(1)[0].string_value(), "emp1");
  // The aggregate runs on d1 (in-situ), only 2 small rows cross.
  for (const auto& t : r->trace.transfers) {
    EXPECT_LE(t.rows, 3.0);
  }
}

TEST_F(SqlFeaturesFixture, HavingCrossDatabase) {
  XdbSystem xdb(&fed_);
  auto r = xdb.Query(
      "SELECT e.name, SUM(s.amount) AS total FROM sales s, emps e "
      "WHERE s.emp = e.id GROUP BY e.name HAVING SUM(s.amount) > 50 "
      "ORDER BY total DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  EXPECT_EQ(r->result->row(0)[1].int64_value(), 100);
}

TEST_F(SqlFeaturesFixture, NestedDerivedTables) {
  auto r = d1_->ExecuteQuery(
      "SELECT u.m FROM (SELECT t.s AS m FROM "
      "(SELECT emp, SUM(amount) AS s FROM sales GROUP BY emp) t) u "
      "ORDER BY u.m DESC LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->row(0)[0].int64_value(), 100);
}

TEST_F(SqlFeaturesFixture, DerivedTableRequiresAlias) {
  auto sel = sql::ParseSelect("SELECT x FROM (SELECT emp FROM sales)");
  EXPECT_FALSE(sel.ok());
}

TEST_F(SqlFeaturesFixture, ExplainStatementProducesPlanText) {
  auto r = d1_->ExecuteSql("EXPLAIN SELECT emp, SUM(amount) FROM sales "
                           "GROUP BY emp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT((*r)->num_rows(), 2u);
  std::string all;
  for (const auto& row : (*r)->rows()) all += row[0].string_value() + "\n";
  EXPECT_NE(all.find("Aggregate"), std::string::npos);
  EXPECT_NE(all.find("Scan(d1.sales)"), std::string::npos);
  EXPECT_NE(all.find("cost="), std::string::npos);
}

TEST_F(SqlFeaturesFixture, UnsupportedFunctionsAreRejectedNotAnsweredNull) {
  for (const char* q : {"SELECT upper(name) FROM emps",
                        "SELECT nosuchfn(id) FROM emps",
                        "SELECT id FROM emps WHERE nosuchfn(id) IS NULL"}) {
    auto r = d2_->ExecuteQuery(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented) << q;
  }
  auto r = d2_->ExecuteQuery("SELECT EXTRACT(YEAR FROM name) FROM emps");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError()) << r.status().ToString();
}

}  // namespace
}  // namespace xdb
