// MW-baseline behaviors: placement policies, pushdown scope, transfer
// patterns, worker scaling — the architectural contrasts the paper draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/timing/timing_model.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

class MediatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fed_.SetNetwork(Network::Lan({"d1", "d2"}));
    d1_ = fed_.AddServer("d1", EngineProfile::Postgres());
    d2_ = fed_.AddServer("d2", EngineProfile::Postgres());
    auto make = [](int rows, int ndv) {
      auto t = std::make_shared<Table>(
          Schema({{"k", TypeId::kInt64}, {"w", TypeId::kInt64},
                  {"tag", TypeId::kString}}));
      for (int i = 0; i < rows; ++i) {
        t->AppendRow({Value::Int64(i % ndv), Value::Int64(i),
                      Value::String(i % 2 ? "hot" : "cold")});
      }
      return t;
    };
    // Two co-located tables on d1 plus one on d2; keys are (near-)unique
    // so the pushed-down co-located join is reducing, the common case the
    // paper's Garlic numbers reflect.
    ASSERT_TRUE(d1_->CreateBaseTable("a", make(500, 500)).ok());
    ASSERT_TRUE(d1_->CreateBaseTable("b", make(300, 300)).ok());
    ASSERT_TRUE(d2_->CreateBaseTable("c", make(200, 200)).ok());
  }

  static constexpr const char* kThreeWay =
      "SELECT a.w FROM a, b, c "
      "WHERE a.k = b.k AND b.k = c.k AND c.w > 100";

  Federation fed_;
  DatabaseServer* d1_ = nullptr;
  DatabaseServer* d2_ = nullptr;
};

TEST_F(MediatorFixture, GarlicPushesDownColocatedJoins) {
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  auto r = garlic.Query(kThreeWay);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // a JOIN b is co-located on d1 and must be one pushed-down task; the
  // cross-database join runs on the mediator.
  bool d1_task_has_join = false;
  for (const auto& t : r->plan.tasks) {
    if (t.server == "d1" &&
        t.expr->ToAlgebraString().find("join") != std::string::npos) {
      d1_task_has_join = true;
    }
  }
  EXPECT_TRUE(d1_task_has_join);
  EXPECT_EQ(r->plan.root().server, "garlic");
}

TEST_F(MediatorFixture, PrestoPushesDownOnlyScans) {
  MediatorSystem presto(&fed_, MediatorKind::kPresto);
  auto r = presto.Query(kThreeWay);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No source-side task may contain a join — even co-located ones run in
  // the mediator (connector = scan-level pushdown only).
  for (const auto& t : r->plan.tasks) {
    if (t.server != "presto") {
      EXPECT_EQ(t.expr->ToAlgebraString().find("join"), std::string::npos)
          << t.expr->ToAlgebraString();
    }
  }
  // Hence one transfer per base table.
  EXPECT_EQ(r->trace.transfers.size(), 3u);
}

TEST_F(MediatorFixture, FiltersStillPushDownUnderPresto) {
  MediatorSystem presto(&fed_, MediatorKind::kPresto);
  auto r = presto.Query(kThreeWay);
  ASSERT_TRUE(r.ok());
  // The c.w > 100 filter runs on d2: the mediator must receive fewer rows
  // of `c` than the table holds.
  for (const auto& tr : r->trace.transfers) {
    if (tr.src == "d2") {
      EXPECT_LT(tr.rows, 200.0);
    }
  }
}

TEST_F(MediatorFixture, GarlicTransfersLessThanPresto) {
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  MediatorSystem presto(&fed_, MediatorKind::kPresto);
  auto g = garlic.Query(kThreeWay);
  auto p = presto.Query(kThreeWay);
  ASSERT_TRUE(g.ok() && p.ok());
  // Join pushdown reduces what crosses the wire (a joins b locally first).
  EXPECT_LE(g->trace.TotalTransferredRows(),
            p->trace.TotalTransferredRows());
}

TEST_F(MediatorFixture, ScleraSerializesMaterializations) {
  MediatorSystem sclera(&fed_, MediatorKind::kSclera);
  auto r = sclera.Query(kThreeWay);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const auto& tr : r->trace.transfers) {
    EXPECT_TRUE(tr.materialized);
  }
  // Sclera is the slowest of the three in modelled time.
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  auto g = garlic.Query(kThreeWay);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(r->exec_timing.total, g->exec_timing.total);
}

TEST_F(MediatorFixture, SingleSourceQueryPushedEntirely) {
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  auto r = garlic.Query(
      "SELECT a.tag, COUNT(*) AS n FROM a, b WHERE a.k = b.k "
      "GROUP BY a.tag");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Everything is on d1: Garlic delegates the whole query there, including
  // the aggregation; only the result flows.
  EXPECT_EQ(r->plan.root().server, "d1");
  EXPECT_EQ(r->trace.transfers.size(), 0u);
}

TEST_F(MediatorFixture, PrestoWorkerScalingFlattensTotals) {
  MediatorOptions o2;
  o2.presto_workers = 2;
  o2.scale_up = 1000;
  MediatorOptions o10;
  o10.presto_workers = 10;
  o10.scale_up = 1000;
  o10.mediator_node = "presto10";
  MediatorSystem p2(&fed_, MediatorKind::kPresto, o2);
  MediatorSystem p10(&fed_, MediatorKind::kPresto, o10);
  auto r2 = p2.Query(kThreeWay);
  auto r10 = p10.Query(kThreeWay);
  ASSERT_TRUE(r2.ok() && r10.ok());
  // Compute improves with workers...
  EXPECT_LT(r10->exec_timing.compute_only, r2->exec_timing.compute_only);
  // ...but the total barely moves (< 15% better) — Figure 11's flat bars.
  EXPECT_GT(r10->exec_timing.total, 0.85 * r2->exec_timing.total);
}

TEST_F(MediatorFixture, MediatorCleanupLeavesSourcesPristine) {
  MediatorSystem presto(&fed_, MediatorKind::kPresto);
  ASSERT_TRUE(presto.Query(kThreeWay).ok());
  EXPECT_TRUE(d1_->TransientRelations().empty());
  EXPECT_TRUE(d2_->TransientRelations().empty());
  EXPECT_TRUE(fed_.GetServer("presto")->TransientRelations().empty());
}

TEST_F(MediatorFixture, MediatorsCoexistOnOneFederation) {
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  MediatorSystem presto(&fed_, MediatorKind::kPresto);
  MediatorSystem sclera(&fed_, MediatorKind::kSclera);
  auto g = garlic.Query(kThreeWay);
  auto p = presto.Query(kThreeWay);
  auto s = sclera.Query(kThreeWay);
  ASSERT_TRUE(g.ok() && p.ok() && s.ok());
  EXPECT_EQ(g->result->num_rows(), p->result->num_rows());
  EXPECT_EQ(g->result->num_rows(), s->result->num_rows());
}

// Derived tables go through the same prepare stage as XDB's, so every
// mediator resolves the subquery's base tables and answers like XDB.
TEST_F(MediatorFixture, DerivedTableAnswersMatchXdb) {
  constexpr const char* kDerived =
      "SELECT t.s FROM (SELECT k, SUM(w) AS s FROM a GROUP BY k) t, c "
      "WHERE t.k = c.k";
  auto sorted_values = [](const Table& t) {
    std::vector<std::string> out;
    for (const Row& row : t.rows()) out.push_back(row[0].ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  XdbSystem xdb(&fed_);
  auto want = xdb.Query(kDerived);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->result->num_rows(), 200u);
  for (MediatorKind kind :
       {MediatorKind::kGarlic, MediatorKind::kPresto, MediatorKind::kSclera}) {
    MediatorSystem mediator(&fed_, kind);
    auto got = mediator.Query(kDerived);
    ASSERT_TRUE(got.ok()) << MediatorKindToString(kind) << ": "
                          << got.status().ToString();
    EXPECT_EQ(sorted_values(*got->result), sorted_values(*want->result))
        << MediatorKindToString(kind);
  }
}

TEST_F(MediatorFixture, HeterogeneousSourcesSlowTheMediatorToo) {
  // A Hive source adds startup latency to every subquery the mediator
  // issues against it.
  Federation fed2;
  fed2.SetNetwork(Network::Lan({"d1", "d2"}));
  auto* a1 = fed2.AddServer("d1", EngineProfile::Postgres());
  auto* a2 = fed2.AddServer("d2", EngineProfile::Hive());
  auto mk = [] {
    auto t = std::make_shared<Table>(
        Schema({{"k", TypeId::kInt64}, {"w", TypeId::kInt64}}));
    for (int i = 0; i < 100; ++i) {
      t->AppendRow({Value::Int64(i % 10), Value::Int64(i)});
    }
    return t;
  };
  ASSERT_TRUE(a1->CreateBaseTable("x", mk()).ok());
  ASSERT_TRUE(a2->CreateBaseTable("y", mk()).ok());

  MediatorOptions opts;
  opts.scale_up = 1.0;
  MediatorSystem presto(&fed2, MediatorKind::kPresto, opts);
  auto r = presto.Query("SELECT x.w FROM x, y WHERE x.k = y.k");
  ASSERT_TRUE(r.ok());
  // Hive's 8s startup must show in the modelled total.
  EXPECT_GT(r->exec_timing.total, 8.0);
}

}  // namespace
}  // namespace xdb
