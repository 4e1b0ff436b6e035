// Delegation-plan cache correctness (ISSUE 6 tentpole): hit/miss/LRU
// mechanics of the cache itself, and the end-to-end contract on XdbSystem —
// hits skip parse/optimize/annotate but return bit-identical results, and
// every placement-relevant change (catalog, statistics, failover
// replanning) invalidates.

#include <gtest/gtest.h>

#include "src/dbms/federation.h"
#include "src/dbms/server.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/testing/fault_injector.h"
#include "src/xdb/plan_cache.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

constexpr char kJoinSql[] =
    "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a";

void Populate(Federation* fed) {
  fed->SetNetwork(Network::Lan({"d1", "d2"}));
  DatabaseServer* d1 = fed->AddServer("d1", EngineProfile::Postgres());
  DatabaseServer* d2 = fed->AddServer("d2", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  auto u = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
  for (int i = 0; i < 10; ++i) {
    t->AppendRow({Value::Int64(i), Value::Int64(i)});
    u->AppendRow({Value::Int64(i), Value::Int64(i * 10)});
  }
  ASSERT_TRUE(d1->CreateBaseTable("t1", t).ok());
  ASSERT_TRUE(d2->CreateBaseTable("t2", u).ok());
}

// --- NormalizeSql ---

TEST(NormalizeSql, CollapsesCaseAndWhitespace) {
  EXPECT_EQ(NormalizeSql("SELECT  a\n FROM t ;"), "select a from t");
  EXPECT_EQ(NormalizeSql("select a from t"), "select a from t");
  EXPECT_EQ(NormalizeSql("  SELECT A FROM T  "), "select a from t");
}

TEST(NormalizeSql, PreservesStringLiterals) {
  EXPECT_EQ(NormalizeSql("SELECT 'FOO  Bar' FROM t"),
            "select 'FOO  Bar' from t");
}

TEST(NormalizeSql, DistinctQueriesStayDistinct) {
  EXPECT_NE(NormalizeSql("SELECT a FROM t"), NormalizeSql("SELECT b FROM t"));
}

// --- DelegationPlanCache unit ---

PlanPtr DummyPlan(const std::string& table) {
  TableStats stats;
  stats.row_count = 1;
  return PlanNode::MakeScan("d1", table, table,
                            Schema({{"a", TypeId::kInt64}}), stats);
}

TEST(DelegationPlanCache, HitReturnsCloneNotMaster) {
  DelegationPlanCache cache(4);
  cache.Insert("k", "fp", DummyPlan("t"));
  PlanPtr a = cache.Lookup("k", "fp");
  PlanPtr b = cache.Lookup("k", "fp");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());  // clones: callers may mutate freely
  EXPECT_EQ(a->table, "t");
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(DelegationPlanCache, MissOnUnknownKey) {
  DelegationPlanCache cache(4);
  EXPECT_EQ(cache.Lookup("nope", "fp"), nullptr);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(DelegationPlanCache, FingerprintMismatchRetiresEntry) {
  DelegationPlanCache cache(4);
  cache.Insert("k", "fp1", DummyPlan("t"));
  EXPECT_EQ(cache.Lookup("k", "fp2"), nullptr);  // stale -> retired
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 0u);
  // Even the old fingerprint misses now: the entry is gone, not shadowed.
  EXPECT_EQ(cache.Lookup("k", "fp1"), nullptr);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(DelegationPlanCache, LruEvictsOldest) {
  DelegationPlanCache cache(2);
  cache.Insert("a", "fp", DummyPlan("ta"));
  cache.Insert("b", "fp", DummyPlan("tb"));
  ASSERT_NE(cache.Lookup("a", "fp"), nullptr);  // refresh a: b is now LRU
  EXPECT_EQ(cache.Insert("c", "fp", DummyPlan("tc")), 1);
  EXPECT_EQ(cache.Lookup("b", "fp"), nullptr);
  ASSERT_NE(cache.Lookup("a", "fp"), nullptr);
  ASSERT_NE(cache.Lookup("c", "fp"), nullptr);
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(DelegationPlanCache, ClearCountsEvictions) {
  DelegationPlanCache cache(4);
  cache.Insert("a", "fp", DummyPlan("ta"));
  cache.Insert("b", "fp", DummyPlan("tb"));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 2);
}

TEST(PlanCacheFingerprint, CoversEveryProfileField) {
  // Annotation charges filter and project rows (ModeledPlanCost) and the
  // timing model the parallel fraction: federations differing in any of
  // them must not share cached plans.
  auto fingerprint = [](void (*tweak)(EngineProfile*)) {
    Federation fed;
    fed.SetNetwork(Network::Lan({"d1"}));
    EngineProfile profile = EngineProfile::Postgres();
    tweak(&profile);
    fed.AddServer("d1", profile);
    return XdbSystem(&fed).PlacementFingerprint();
  };
  const std::string base = fingerprint([](EngineProfile*) {});
  EXPECT_NE(fingerprint([](EngineProfile* p) { p->filter_row_cost *= 2; }),
            base);
  EXPECT_NE(fingerprint([](EngineProfile* p) { p->project_row_cost *= 2; }),
            base);
  EXPECT_NE(fingerprint([](EngineProfile* p) { p->parallel_fraction = 0.5; }),
            base);
}

// --- End-to-end on XdbSystem ---

class PlanCacheE2E : public ::testing::Test {
 protected:
  void SetUp() override { Populate(&fed_); }

  XdbOptions CachedOptions() {
    XdbOptions opts;
    opts.plan_cache_capacity = 8;
    return opts;
  }

  Federation fed_;
};

TEST_F(PlanCacheE2E, DisabledByDefault) {
  XdbSystem xdb(&fed_);
  EXPECT_EQ(xdb.plan_cache(), nullptr);
  auto r1 = xdb.Query(kJoinSql);
  auto r2 = xdb.Query(kJoinSql);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r1->plan_cache_hit);
  EXPECT_FALSE(r2->plan_cache_hit);
}

TEST_F(PlanCacheE2E, HitSkipsPlanningAndMatchesColdResult) {
  XdbSystem xdb(&fed_, CachedOptions());
  auto cold = xdb.Query(kJoinSql);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_GT(cold->phases.prep, 0.0);
  EXPECT_GT(cold->phases.lopt, 0.0);

  auto warm = xdb.Query(kJoinSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  // The hit path genuinely skips parse/prepare/optimize/annotate.
  EXPECT_EQ(warm->phases.prep, 0.0);
  EXPECT_EQ(warm->phases.lopt, 0.0);
  EXPECT_EQ(warm->phases.ann, 0.0);
  EXPECT_EQ(warm->metadata_roundtrips, 0);
  EXPECT_EQ(warm->consultations, 0);
  // Bit-identical result and execution to the cold-planned run.
  EXPECT_EQ(warm->result->ToDisplayString(100),
            cold->result->ToDisplayString(100));
  EXPECT_EQ(warm->phases.exec, cold->phases.exec);
  EXPECT_EQ(warm->xdb_query.server, cold->xdb_query.server);

  EXPECT_EQ(xdb.plan_cache()->hits(), 1);
  EXPECT_EQ(xdb.plan_cache()->misses(), 1);
}

TEST_F(PlanCacheE2E, NormalizedVariantsShareOneEntry) {
  XdbSystem xdb(&fed_, CachedOptions());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  auto r = xdb.Query(
      "select  t1.b,  t2.c  FROM t1, t2 WHERE t1.a = t2.a ;");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->plan_cache_hit);
  EXPECT_EQ(xdb.plan_cache()->size(), 1u);
}

TEST_F(PlanCacheE2E, HitHasNoOptimizeSpan) {
  SpanRecorder spans;
  fed_.SetSpanRecorder(&spans);
  XdbSystem xdb(&fed_, CachedOptions());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());

  auto has_span = [&](const char* name) {
    for (const auto& s : spans.spans()) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("logical-optimize"));
  EXPECT_TRUE(has_span("prepare"));
  EXPECT_TRUE(has_span("annotate"));

  spans.Clear();
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  EXPECT_FALSE(has_span("logical-optimize"));
  EXPECT_FALSE(has_span("prepare"));
  EXPECT_FALSE(has_span("annotate"));
  EXPECT_TRUE(has_span("plan-cache-hit"));
  fed_.SetSpanRecorder(nullptr);
}

TEST_F(PlanCacheE2E, CatalogInvalidationForcesMiss) {
  XdbSystem xdb(&fed_, CachedOptions());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  xdb.catalog().InvalidateTable("t1");
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
  // The stale entry was retired on lookup, then replaced by the re-planned
  // entry — which hits again.
  EXPECT_GE(xdb.plan_cache()->evictions(), 1);
  auto r2 = xdb.Query(kJoinSql);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->plan_cache_hit);
}

TEST_F(PlanCacheE2E, StatsInvalidationForcesMiss) {
  XdbSystem xdb(&fed_, CachedOptions());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  xdb.catalog().InvalidateStats("t2");
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
}

TEST_F(PlanCacheE2E, FailoverReplanningBumpsEpochAndInvalidates) {
  FaultInjector injector(7);
  fed_.SetFaultInjector(&injector);
  XdbSystem xdb(&fed_, CachedOptions());

  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  const std::string old_root = probe->xdb_query.server;
  const int64_t epoch0 = xdb.placement_epoch();

  // The old root refuses client queries: the next run replans to the
  // other node...
  FaultSpec spec;
  spec.server = old_root;
  spec.op = FaultOp::kQuery;
  spec.kind = FaultKind::kTransientError;
  int fault_id = injector.AddFault(spec);

  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kReplanned);
  // ...even though its cache lookup hit (the cached plan routed through
  // the now-dead root, which is exactly why the epoch must advance).
  EXPECT_GT(xdb.placement_epoch(), epoch0);

  // With the fault removed, the pre-failover entry must NOT be served:
  // the epoch change retires it, and the fresh plan misses then refills.
  injector.RemoveFault(fault_id);
  auto r2 = xdb.Query(kJoinSql);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->plan_cache_hit);
  auto r3 = xdb.Query(kJoinSql);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->plan_cache_hit);
  EXPECT_EQ(r3->result->ToDisplayString(100),
            r2->result->ToDisplayString(100));
  fed_.SetFaultInjector(nullptr);
}

TEST_F(PlanCacheE2E, MetricsCountersExported) {
  MetricsRegistry metrics;
  fed_.SetMetricsRegistry(&metrics);
  XdbSystem xdb(&fed_, CachedOptions());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  EXPECT_EQ(metrics.GetCounter("xdb_plan_cache_misses_total")->Value(), 1.0);
  EXPECT_EQ(metrics.GetCounter("xdb_plan_cache_hits_total")->Value(), 1.0);
  fed_.SetMetricsRegistry(nullptr);
}

TEST_F(PlanCacheE2E, LruCapacityOneStillCorrect) {
  XdbOptions opts;
  opts.plan_cache_capacity = 1;
  XdbSystem xdb(&fed_, opts);
  const char* kOther = "SELECT t1.a, t1.b FROM t1";
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  ASSERT_TRUE(xdb.Query(kOther).ok());  // evicts the join plan
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_GE(xdb.plan_cache()->evictions(), 1);
  EXPECT_EQ(xdb.plan_cache()->size(), 1u);
}

}  // namespace
}  // namespace xdb
