// Failure injection: errors must surface as Status (never crash), carry
// context, and leave the federation in a clean state (no orphaned
// short-lived relations, no half-deployed plans).

#include <gtest/gtest.h>

#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/testing/fault_injector.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

class FailureFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fed_.SetNetwork(Network::Lan({"d1", "d2"}));
    d1_ = fed_.AddServer("d1", EngineProfile::Postgres());
    d2_ = fed_.AddServer("d2", EngineProfile::Postgres());
    auto t = std::make_shared<Table>(
        Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
    for (int i = 0; i < 10; ++i) {
      t->AppendRow({Value::Int64(i), Value::Int64(i)});
    }
    ASSERT_TRUE(d1_->CreateBaseTable("t1", t).ok());
    auto u = std::make_shared<Table>(
        Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
    for (int i = 0; i < 10; ++i) {
      u->AppendRow({Value::Int64(i), Value::Int64(i * 10)});
    }
    ASSERT_TRUE(d2_->CreateBaseTable("t2", u).ok());
  }

  void ExpectClean() {
    EXPECT_TRUE(d1_->TransientRelations().empty());
    EXPECT_TRUE(d2_->TransientRelations().empty());
  }

  Federation fed_;
  DatabaseServer* d1_ = nullptr;
  DatabaseServer* d2_ = nullptr;
};

TEST_F(FailureFixture, SyntaxErrorSurfacesAsParseError) {
  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECTT a FROM t1");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  ExpectClean();
}

TEST_F(FailureFixture, UnknownColumnIsBindError) {
  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECT nosuch FROM t1");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
  ExpectClean();
}

TEST_F(FailureFixture, UnknownTableIsCatalogErrorWithName) {
  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECT a FROM ghost");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCatalogError());
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
}

TEST_F(FailureFixture, MediatorsPropagateErrorsToo) {
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  EXPECT_FALSE(garlic.Query("SELECT x FROM ghost").ok());
  MediatorSystem presto(&fed_, MediatorKind::kPresto);
  EXPECT_FALSE(presto.Query("SELECT FROM").ok());
  ExpectClean();
}

TEST_F(FailureFixture, ForeignTableToUnknownServerFailsAtDdl) {
  auto st = d1_->ExecuteDdl("CREATE FOREIGN TABLE f SERVER ghost");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCatalogError());
  EXPECT_TRUE(d1_->TransientRelations().empty());
}

TEST_F(FailureFixture, ForeignTableToMissingRemoteRelationFailsOnUse) {
  ASSERT_TRUE(d1_->ExecuteDdl("CREATE FOREIGN TABLE f SERVER d2 "
                              "OPTIONS (table 'ghost')")
                  .ok());
  auto r = d1_->ExecuteQuery("SELECT * FROM f");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCatalogError());
}

TEST_F(FailureFixture, BrokenRemoteViewFailsWithContext) {
  // A view on d2 over a foreign table whose remote relation disappears:
  // the fetch error must name the chain.
  ASSERT_TRUE(
      d2_->ExecuteDdl("CREATE VIEW v2 AS SELECT a, c FROM t2").ok());
  ASSERT_TRUE(
      d1_->ExecuteDdl("CREATE FOREIGN TABLE v2(a, c) SERVER d2").ok());
  ASSERT_TRUE(d2_->ExecuteDdl("DROP VIEW v2").ok());
  auto r = d1_->ExecuteQuery("SELECT * FROM v2");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("d2"), std::string::npos);
}

TEST_F(FailureFixture, QueryFailureCleansUpDeployedRelations) {
  // Sabotage: pre-create a relation named like the delegation engine's
  // second view so Deploy fails halfway; everything already deployed must
  // be dropped again.
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query("SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_TRUE(probe.ok());
  ASSERT_GE(probe->plan.tasks.size(), 2u);
  ExpectClean();

  // The next query will be q2; block its root view name on its server.
  std::string victim = "xdb_q2_t" +
                       std::to_string(probe->plan.tasks.back().id);
  DatabaseServer* root_server =
      fed_.GetServer(probe->plan.tasks.back().server);
  ASSERT_TRUE(
      root_server
          ->ExecuteDdl("CREATE VIEW " + victim + " AS SELECT a FROM " +
                       (root_server == d1_ ? "t1" : "t2"))
          .ok());

  auto r = xdb.Query("SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCatalogError());

  // Only the sabotage view remains; the engine's partial deployment is
  // rolled back.
  ASSERT_TRUE(root_server->ExecuteDdl("DROP VIEW " + victim).ok());
  ExpectClean();

  // And the system recovers on the next query.
  auto again = xdb.Query("SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  ExpectClean();
}

TEST_F(FailureFixture, SelectOutsideGroupByFailsBeforeAnyDeployment) {
  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECT t1.b, COUNT(*) FROM t1 GROUP BY t1.a");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
  ExpectClean();
}

TEST_F(FailureFixture, StatusContextPrepends) {
  Status base = Status::NetworkError("boom");
  Status ctx = base.WithContext("fetching x");
  EXPECT_EQ(ctx.code(), StatusCode::kNetworkError);
  EXPECT_EQ(ctx.message(), "fetching x: boom");
  EXPECT_EQ(ctx.ToString(), "NetworkError: fetching x: boom");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST_F(FailureFixture, ExplainOnBadSqlFails) {
  auto r = d1_->ExecuteSql("EXPLAIN SELECT nosuch FROM t1");
  ASSERT_FALSE(r.ok());
  auto r2 = d1_->ExecuteSql("EXPLAIN not sql at all");
  ASSERT_FALSE(r2.ok());
}

TEST_F(FailureFixture, ExecuteDdlRejectsSelect) {
  EXPECT_FALSE(d1_->ExecuteDdl("SELECT a FROM t1").ok());
}

TEST_F(FailureFixture, CreateTableAsFromBrokenSelectLeavesNoTable) {
  auto st = d1_->ExecuteDdl("CREATE TABLE m AS SELECT ghost FROM t1");
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(d1_->HasRelation("m"));
}

TEST_F(FailureFixture, DuplicateBaseTableRejected) {
  auto t = std::make_shared<Table>(Schema({{"x", TypeId::kInt64}}));
  EXPECT_TRUE(d1_->CreateBaseTable("t1", t).IsCatalogError());
}

TEST_F(FailureFixture, RetriesExhaustedSurfaceUnavailableAndLeaveNoOrphans) {
  // Every DDL everywhere fails, forever: retries exhaust, every failover
  // alternate fails the same way, and the query must come back with a
  // clear kUnavailable — with nothing left deployed.
  FaultInjector injector(11);
  FaultSpec spec;
  spec.op = FaultOp::kDdl;
  spec.kind = FaultKind::kTransientError;
  injector.AddFault(spec);
  fed_.SetFaultInjector(&injector);

  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  ExpectClean();

  const RunTrace& trace = xdb.last_trace();
  EXPECT_EQ(trace.recovery_action, RecoveryAction::kFailed);
  ASSERT_FALSE(trace.retries.empty());
  for (const auto& ev : trace.retries) {
    EXPECT_EQ(ev.op, FaultOp::kDdl);
    EXPECT_FALSE(ev.succeeded);
    EXPECT_EQ(ev.attempts, 3);  // default policy: three attempts each
  }
  fed_.SetFaultInjector(nullptr);
}

TEST_F(FailureFixture, MidFetchFaultExhaustionCleansUpEverywhere) {
  // Every inter-DBMS fetch fails: deployment succeeds, execution cannot,
  // and every failover alternate hits the same wall. The deployed cascade
  // must be rolled back on every path.
  FaultInjector injector(12);
  FaultSpec spec;
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector.AddFault(spec);
  fed_.SetFaultInjector(&injector);

  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  ExpectClean();
  EXPECT_EQ(xdb.last_trace().recovery_action, RecoveryAction::kFailed);
  EXPECT_FALSE(xdb.last_trace().retries.empty());
  fed_.SetFaultInjector(nullptr);
}

TEST_F(FailureFixture, ResultValueOrAndAccessors) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  Result<int> err(Status::Internal("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(std::move(err).ValueOr(7), 7);
}

}  // namespace
}  // namespace xdb
