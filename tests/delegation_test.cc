// Unit tests for the delegation machinery: the global catalog, the
// connectors' counters, Algorithm 1's deployment order, cleanup, and the
// plan renderings.

#include <gtest/gtest.h>

#include "src/dbms/server.h"
#include "src/sql/parser.h"
#include "src/xdb/annotator.h"
#include "src/xdb/delegation_engine.h"
#include "src/xdb/finalizer.h"
#include "src/xdb/global_catalog.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

class DelegationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fed_.SetNetwork(Network::Lan({"d1", "d2", "d3"}));
    for (const char* name : {"d1", "d2", "d3"}) {
      servers_[name] = fed_.AddServer(name, EngineProfile::Postgres());
    }
    auto make = [](int rows) {
      auto t = std::make_shared<Table>(
          Schema({{"k", TypeId::kInt64}, {"w", TypeId::kInt64}}));
      for (int i = 0; i < rows; ++i) {
        t->AppendRow({Value::Int64(i % 20), Value::Int64(i)});
      }
      return t;
    };
    ASSERT_TRUE(servers_["d1"]->CreateBaseTable("big", make(400)).ok());
    ASSERT_TRUE(servers_["d2"]->CreateBaseTable("mid", make(100)).ok());
    ASSERT_TRUE(servers_["d3"]->CreateBaseTable("tiny", make(20)).ok());
    for (auto& [name, server] : servers_) {
      connectors_[name] = std::make_unique<DbmsConnector>(
          server, Dialect::Postgres(), &fed_, "xdb");
      dc_ptrs_[name] = connectors_[name].get();
    }
  }

  /// Annotated + finalized plan for the 3-way chain join.
  DelegationPlan MakePlan() {
    GlobalCatalog catalog(dc_ptrs_);
    Planner planner(&catalog);
    auto stmt = sql::ParseSelect(
        "SELECT b.w FROM big b, mid m, tiny t "
        "WHERE b.k = m.k AND m.k = t.k");
    EXPECT_TRUE(stmt.ok());
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Annotator annotator(dc_ptrs_, &fed_.network());
    EXPECT_TRUE(annotator.Annotate(plan->get()).ok());
    auto dplan = FinalizePlan(**plan, 1);
    EXPECT_TRUE(dplan.ok());
    return *dplan;
  }

  Federation fed_;
  std::map<std::string, DatabaseServer*> servers_;
  std::map<std::string, std::unique_ptr<DbmsConnector>> connectors_;
  std::map<std::string, DbmsConnector*> dc_ptrs_;
};

TEST_F(DelegationFixture, GlobalCatalogDiscoversAllTables) {
  GlobalCatalog catalog(dc_ptrs_);
  EXPECT_EQ(catalog.LocateTable("big"), "d1");
  EXPECT_EQ(catalog.LocateTable("mid"), "d2");
  EXPECT_EQ(catalog.LocateTable("TINY"), "d3");  // case-insensitive
  EXPECT_EQ(catalog.LocateTable("ghost"), "");
}

TEST_F(DelegationFixture, GlobalCatalogMetadataIsCached) {
  GlobalCatalog catalog(dc_ptrs_);
  GlobalCatalog::ResetThreadRoundtrips();
  ASSERT_TRUE(catalog.Resolve("", "big").ok());
  int first = GlobalCatalog::ThreadRoundtrips();
  EXPECT_GT(first, 0);
  ASSERT_TRUE(catalog.Resolve("", "big").ok());
  EXPECT_EQ(GlobalCatalog::ThreadRoundtrips(), first);  // cache hit
}

TEST_F(DelegationFixture, GlobalCatalogRejectsWrongQualifier) {
  GlobalCatalog catalog(dc_ptrs_);
  EXPECT_TRUE(catalog.Resolve("d1", "big").ok());
  auto r = catalog.Resolve("d2", "big");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCatalogError());
}

TEST_F(DelegationFixture, ConnectorCountsRoundTrips) {
  DbmsConnector* dc = dc_ptrs_["d1"];
  dc->ResetCounters();
  (void)dc->ListTables();
  (void)dc->DescribeTable("big");
  (void)dc->FetchStats("big");
  EXPECT_EQ(dc->roundtrip_count(), 3);
  EXPECT_EQ(dc->probe_count(), 0);
}

TEST_F(DelegationFixture, ConnectorCalibrationScalesProbes) {
  PlanPtr ph = PlanNode::MakePlaceholder(
      "x", Schema({{"k", TypeId::kInt64}}), {}, 1000);
  PlanPtr join = PlanNode::MakeJoin(ph, ph->Clone(), {0}, {0}, nullptr);
  DbmsConnector* dc = dc_ptrs_["d1"];
  double base = dc->ProbeCost(*join);
  dc->set_cost_calibration(2.0);
  EXPECT_NEAR(dc->ProbeCost(*join), 2.0 * base, 1e-9);
  dc->set_cost_calibration(1.0);
}

TEST_F(DelegationFixture, DeployCreatesRelationsInTopologicalOrder) {
  DelegationPlan plan = MakePlan();
  DelegationEngine engine(dc_ptrs_, &fed_);
  auto query = engine.Deploy(&plan);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // Every task's view exists on its server until cleanup.
  for (const auto& t : plan.tasks) {
    EXPECT_TRUE(servers_[t.server]->HasRelation(t.view_name))
        << t.view_name << " @" << t.server;
  }
  // A producer's view is created before any foreign table that points to
  // it: scan the DDL log.
  const auto& log = engine.ddl_log();
  auto index_of = [&](const std::string& needle, const std::string& kind) {
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].second.find(kind) == 0 &&
          log[i].second.find(needle) != std::string::npos) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  for (const auto& e : plan.edges) {
    const auto* producer = plan.FindTask(e.producer);
    int view_at = index_of(producer->view_name, "CREATE VIEW");
    int ft_at = index_of(producer->view_name, "CREATE FOREIGN TABLE");
    ASSERT_GE(view_at, 0);
    ASSERT_GE(ft_at, 0);
    EXPECT_LT(view_at, ft_at);
  }

  // The XDB query targets the root view.
  EXPECT_EQ(query->server, plan.root().server);
  EXPECT_NE(query->sql.find(plan.root().view_name), std::string::npos);

  // Executing it yields rows; cleanup removes everything.
  auto result = servers_[query->server]->ExecuteQuery(query->sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT((*result)->num_rows(), 0u);
  ASSERT_TRUE(engine.Cleanup().ok());
  for (auto& [name, server] : servers_) {
    EXPECT_TRUE(server->TransientRelations().empty()) << name;
  }
}

TEST_F(DelegationFixture, DeployFillsPublishedColumnNames) {
  DelegationPlan plan = MakePlan();
  DelegationEngine engine(dc_ptrs_, &fed_);
  ASSERT_TRUE(engine.Deploy(&plan).ok());
  for (const auto& t : plan.tasks) {
    EXPECT_EQ(t.column_names.size(), t.expr->output_schema.num_fields());
  }
  (void)engine.Cleanup();
}

TEST_F(DelegationFixture, CleanupIsIdempotent) {
  DelegationPlan plan = MakePlan();
  DelegationEngine engine(dc_ptrs_, &fed_);
  ASSERT_TRUE(engine.Deploy(&plan).ok());
  EXPECT_TRUE(engine.Cleanup().ok());
  EXPECT_TRUE(engine.Cleanup().ok());  // nothing left; still OK
}

TEST_F(DelegationFixture, ToDotRendersGraphviz) {
  DelegationPlan plan = MakePlan();
  std::string dot = plan.ToDot();
  EXPECT_NE(dot.find("digraph delegation"), std::string::npos);
  for (const auto& t : plan.tasks) {
    EXPECT_NE(dot.find("t" + std::to_string(t.id) + " [label="),
              std::string::npos);
  }
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST_F(DelegationFixture, PlanFromXdbReportExposesDot) {
  XdbSystem xdb(&fed_);
  auto r = xdb.Query("SELECT b.w FROM big b, tiny t WHERE b.k = t.k");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan.ToDot().find("digraph"), std::string::npos);
}

TEST(DelegationExplicitMovement, CtasMarksOnlyItsOwnFetchMaterialized) {
  // a materializes b.v_b; serving it, b reads a.v_a, which reads c.t. Only
  // the CTAS's own input (b -> a) is explicit movement; the fetches made
  // inside its chain — a's included — stay pipelined.
  Federation fed;
  fed.SetNetwork(Network::Lan({"a", "b", "c"}));
  DatabaseServer* a = fed.AddServer("a", EngineProfile::Postgres());
  DatabaseServer* b = fed.AddServer("b", EngineProfile::Postgres());
  DatabaseServer* c = fed.AddServer("c", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(Schema({{"x", TypeId::kInt64}}));
  for (int i = 0; i < 5; ++i) t->AppendRow({Value::Int64(i)});
  ASSERT_TRUE(c->CreateBaseTable("t", t).ok());
  for (const char* ddl :
       {"CREATE FOREIGN TABLE ft_c SERVER c OPTIONS (table 't')",
        "CREATE VIEW v_a AS SELECT * FROM ft_c",
        "CREATE FOREIGN TABLE ft_b SERVER b OPTIONS (table 'v_b')"}) {
    ASSERT_TRUE(a->ExecuteDdl(ddl).ok()) << ddl;
  }
  ASSERT_TRUE(b->ExecuteDdl("CREATE FOREIGN TABLE ft_a SERVER a "
                            "OPTIONS (table 'v_a')")
                  .ok());
  ASSERT_TRUE(b->ExecuteDdl("CREATE VIEW v_b AS SELECT * FROM ft_a").ok());

  fed.BeginRun("a");
  ASSERT_TRUE(a->ExecuteDdl("CREATE TABLE m AS SELECT * FROM ft_b").ok());
  RunTrace trace = fed.FinishRun();
  ASSERT_EQ(trace.transfers.size(), 3u);
  for (const auto& tr : trace.transfers) {
    const bool ctas_input = tr.src == "b" && tr.dst == "a";
    EXPECT_EQ(tr.materialized, ctas_input)
        << tr.src << " -> " << tr.dst << " " << tr.relation;
    EXPECT_EQ(tr.rows, 5.0);
  }
}

}  // namespace
}  // namespace xdb
