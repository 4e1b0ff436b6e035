// CREATE VIEW binds its body instead of planning it (Planner::Bind). These
// tests hold Bind to Plan: the same output schema for the evaluation
// queries and for every view body XDB deploys under TD1-TD3, and, for each
// planner error, the same status code from CREATE VIEW as from the bare
// SELECT. The ExecDigest and property-test statements are checked next to
// their generators.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/tpch/distributions.h"
#include "src/tpch/queries.h"
#include "src/xdb/xdb.h"
#include "tests/bind_check.h"

namespace xdb {
namespace {

constexpr double kSf = 0.002;

TEST(PlannerBind, EvaluationQueriesOnOneServerAndOnTheGlobalCatalog) {
  tpch::TableDistribution one_server;
  for (const auto& [table, node] : tpch::TD1()) one_server[table] = "db1";
  auto fed = tpch::BuildTpchFederation(kSf, one_server);
  auto td1 = tpch::BuildTpchFederation(kSf, tpch::TD1());
  XdbSystem xdb(td1.get());
  PlannerOptions bushy;
  bushy.bushy_joins = true;
  for (const auto& q : tpch::EvaluationQueries()) {
    SCOPED_TRACE(q.id);
    ExpectBindMatchesPlan(fed->GetServer("db1"), q.sql);
    ExpectBindMatchesPlan(&xdb.catalog(), q.sql);
    ExpectBindMatchesPlan(&xdb.catalog(), q.sql, bushy);
  }
}

// Replays the DDL that XDB deployed for each evaluation query on a fresh
// federation; after each CREATE VIEW, the schema the view was bound to
// must be the one its plan produces when it is read.
TEST(PlannerBind, DeployedViewBodiesUnderTd1To3) {
  int views = 0;
  for (int td = 1; td <= 3; ++td) {
    auto fed = tpch::BuildTpchFederation(kSf, tpch::DistributionByIndex(td));
    XdbSystem xdb(fed.get());
    for (const auto& q : tpch::EvaluationQueries()) {
      SCOPED_TRACE("TD" + std::to_string(td) + " " + q.id);
      Result<XdbReport> r = xdb.Query(q.sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      auto replay =
          tpch::BuildTpchFederation(kSf, tpch::DistributionByIndex(td));
      for (const auto& [server_name, ddl] : r->ddl_log) {
        SCOPED_TRACE(ddl);
        DatabaseServer* server = replay->GetServer(server_name);
        ASSERT_NE(server, nullptr);
        ASSERT_TRUE(server->ExecuteDdl(ddl).ok());
        Result<sql::StatementPtr> stmt = sql::ParseStatement(ddl);
        ASSERT_TRUE(stmt.ok());
        if ((*stmt)->kind != sql::StatementKind::kCreateView) continue;
        ++views;
        const std::string& name = (*stmt)->relation_name;
        Result<Schema> bound = server->DescribeRelation(name);
        Result<PlanPtr> planned = server->Resolve("", name);
        ASSERT_TRUE(bound.ok()) << bound.status().ToString();
        ASSERT_TRUE(planned.ok()) << planned.status().ToString();
        const Schema& want = (*planned)->output_schema;
        ASSERT_EQ(bound->num_fields(), want.num_fields());
        for (size_t i = 0; i < want.num_fields(); ++i) {
          EXPECT_EQ(bound->field(i).name, want.field(i).name);
          EXPECT_EQ(bound->field(i).type, want.field(i).type);
        }
        ExpectBindMatchesPlan(server, (*stmt)->select->ToSql());
      }
    }
  }
  EXPECT_GE(views, 18);
}

/// A server with one table t(a, b, s).
std::unique_ptr<Federation> OneTable() {
  auto fed = std::make_unique<Federation>();
  fed->SetNetwork(Network::Lan({"d1"}));
  DatabaseServer* d1 = fed->AddServer("d1", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(Schema(
      {{"a", TypeId::kInt64}, {"b", TypeId::kDouble}, {"s", TypeId::kString}}));
  for (int i = 0; i < 10; ++i) {
    t->AppendRow({Value::Int64(i), Value::Double(i * 0.5),
                  Value::String(i % 2 ? "odd" : "even")});
  }
  EXPECT_TRUE(d1->CreateBaseTable("t", t).ok());
  return fed;
}

TEST(PlannerBind, EachPlannerErrorFailsCreateViewWithTheSelectsCode) {
  auto fed = OneTable();
  DatabaseServer* d1 = fed->GetServer("d1");
  std::string many = "SELECT x1.a FROM t x1";
  for (int i = 2; i <= 21; ++i) many += ", t x" + std::to_string(i);
  const std::vector<std::string> bad = {
      many,
      "SELECT a FROM nosuch",
      "SELECT nosuch FROM t",
      "SELECT a FROM t WHERE nosuch > 1",
      "SELECT a FROM t HAVING a > 1",
      "SELECT a, b FROM t GROUP BY a",
      "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING b > 1",
      "SELECT a FROM t ORDER BY nosuch",
      "SELECT a FROM t ORDER BY b",
      "SELECT d.x FROM (SELECT nosuch AS x FROM t) d",
      "SELECT d.x FROM (SELECT a AS x, b FROM t GROUP BY a) d",
  };
  int view = 0;
  for (const auto& sql : bad) {
    SCOPED_TRACE(sql);
    const Status select = d1->ExecuteQuery(sql).status();
    ASSERT_FALSE(select.ok());
    const std::string name = "v" + std::to_string(view++);
    const Status create = d1->ExecuteDdl("CREATE VIEW " + name + " AS " + sql);
    EXPECT_EQ(create.code(), select.code()) << create.ToString();
    EXPECT_FALSE(d1->HasRelation(name));
    ExpectBindMatchesPlan(d1, sql);
  }
  // The parser requires FROM, so a statement without one is built here.
  sql::SelectStmt no_from;
  no_from.select_list.push_back(Expr::Literal(Value::Int64(1)));
  Planner planner(d1);
  const Status bind = planner.Bind(no_from).status();
  EXPECT_TRUE(bind.IsBindError()) << bind.ToString();
  EXPECT_EQ(planner.Plan(no_from).status().code(), bind.code());
}

TEST(PlannerBind, ValidShapesBindToThePlannedSchema) {
  auto fed = OneTable();
  DatabaseServer* d1 = fed->GetServer("d1");
  for (const char* sql : {
           "SELECT * FROM t",
           "SELECT * FROM t x, t y WHERE x.a = y.a",
           "SELECT a + 1, b * 2 AS twice, s FROM t WHERE a > 2",
           "SELECT s, COUNT(*), SUM(a) AS total FROM t GROUP BY s",
           "SELECT s AS k FROM t GROUP BY k HAVING COUNT(*) > 1",
           "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY SUM(b) DESC LIMIT 3",
           "SELECT d.k, d.n FROM (SELECT s AS k, COUNT(*) AS n FROM t "
           "GROUP BY s) d ORDER BY n",
           "SELECT * FROM (SELECT a, s FROM t) d WHERE d.a < 5",
           "SELECT a FROM t ORDER BY a DESC",
       }) {
    ExpectBindMatchesPlan(d1, sql);
    PlannerOptions plain;
    plain.prune_columns = false;
    plain.push_down_filters = false;
    plain.reorder_joins = false;
    ExpectBindMatchesPlan(d1, sql, plain);
  }
  // A view's bound schema is what reading it returns.
  ASSERT_TRUE(d1->ExecuteDdl("CREATE VIEW grouped AS SELECT s AS k, "
                             "AVG(b) AS mean FROM t GROUP BY s")
                  .ok());
  Result<TablePtr> rows = d1->ExecuteQuery("SELECT * FROM grouped");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  Result<Schema> bound = d1->DescribeRelation("grouped");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->ToString(), (*rows)->schema().ToString());
}

}  // namespace
}  // namespace xdb
