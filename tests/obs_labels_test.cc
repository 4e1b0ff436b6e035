// Dimensional observability: labeled metric cells (server / link / query
// dimensions), deterministic Prometheus exposition, bounded span retention
// with head/tail sampling, and the query-history log. The standing
// invariant: every labeled series is purely additive over the unlabeled
// totals, and the whole stack stays observational (bit-identical results
// attached vs. detached), even with retention and sampling active.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/span.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

constexpr char kJoinSql[] =
    "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a";

/// Two Postgres nodes, t1(a,b) on d1 and t2(a,c) on d2, 10 matching keys.
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

// --------------------------------------------------------------------------
// Labeled registry cells
// --------------------------------------------------------------------------

TEST(LabeledMetricsTest, SameNameAndLabelsYieldSameCell) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("m", {{"server", "db1"}});
  Counter* b = reg.GetCounter("m", {{"server", "db1"}});
  EXPECT_EQ(a, b);
  // Label order is canonicalized away.
  Counter* c1 = reg.GetCounter("m", {{"x", "1"}, {"y", "2"}});
  Counter* c2 = reg.GetCounter("m", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(c1, c2);
  // Different values, different keys, and the unlabeled series are all
  // distinct cells of the one family.
  EXPECT_NE(a, reg.GetCounter("m", {{"server", "db2"}}));
  EXPECT_NE(a, reg.GetCounter("m", {{"link", "db1"}}));
  EXPECT_NE(a, reg.GetCounter("m"));
}

TEST(LabeledMetricsTest, DuplicateKeysLastWins) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("m", {{"k", "old"}, {"k", "new"}});
  Counter* b = reg.GetCounter("m", {{"k", "new"}});
  EXPECT_EQ(a, b);
}

TEST(LabeledMetricsTest, HistogramFamilySharesBucketLayout) {
  MetricsRegistry reg;
  Histogram* plain = reg.GetHistogram("h", {10, 100}, "help");
  // A labeled cell registered with different bounds still gets the family's
  // layout, so `le` buckets line up across the family.
  Histogram* labeled = reg.GetHistogram("h", {{"link", "a->b"}}, {5, 7, 9});
  EXPECT_EQ(labeled->upper_bounds(), plain->upper_bounds());
}

TEST(LabeledMetricsTest, ExpositionIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry first;
  MetricsRegistry second;
  // Same cells and values, registered in opposite orders.
  first.GetCounter("zz_total", {{"server", "a"}}, "Z")->Increment(1);
  first.GetCounter("aa_total", {{"link", "a->b"}}, "A")->Increment(2);
  first.GetCounter("aa_total", {{"link", "b->a"}}, "A")->Increment(3);
  first.GetHistogram("hh", {{"link", "a->b"}}, {10, 100}, "H")->Observe(4);

  second.GetHistogram("hh", {{"link", "a->b"}}, {10, 100}, "H")->Observe(4);
  second.GetCounter("aa_total", {{"link", "b->a"}}, "A")->Increment(3);
  second.GetCounter("aa_total", {{"link", "a->b"}}, "A")->Increment(2);
  second.GetCounter("zz_total", {{"server", "a"}}, "Z")->Increment(1);

  EXPECT_EQ(first.ExposeText(), second.ExposeText());
  // Families render name-sorted.
  std::string text = first.ExposeText();
  EXPECT_LT(text.find("aa_total"), text.find("zz_total"));
}

TEST(LabeledMetricsTest, ExpositionEscapesLabelValuesAndHelp) {
  MetricsRegistry reg;
  reg.GetCounter("m_total", {{"v", "a\\b\"c\nd"}}, "help \\ with\nnewline")
      ->Increment();
  std::string text = reg.ExposeText();
  EXPECT_NE(text.find("# HELP m_total help \\\\ with\\nnewline\n"),
            std::string::npos);
  EXPECT_NE(text.find("m_total{v=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(LabeledMetricsTest, LabeledHistogramRendersBucketSumCount) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("tb", {{"link", "a->b"}}, {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  std::string text = reg.ExposeText();
  EXPECT_NE(text.find("tb_bucket{link=\"a->b\",le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tb_bucket{link=\"a->b\",le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tb_bucket{link=\"a->b\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("tb_sum{link=\"a->b\"} 555\n"), std::string::npos);
  EXPECT_NE(text.find("tb_count{link=\"a->b\"} 3\n"), std::string::npos);
}

// --------------------------------------------------------------------------
// Bounded span retention + sampling
// --------------------------------------------------------------------------

/// Records one closed root tree of `spans_per_tree` spans.
void RecordTree(SpanRecorder* rec, int spans_per_tree) {
  int64_t root = rec->StartSpan("root");
  for (int i = 0; i < spans_per_tree - 1; ++i) {
    rec->EndSpan(rec->StartSpan("child"));
  }
  rec->EndSpan(root);
}

TEST(SpanRetentionTest, CapacityEvictsWholeClosedTreesOldestFirst) {
  SpanRecorder rec;
  rec.set_capacity(10);
  for (int t = 0; t < 8; ++t) RecordTree(&rec, 4);
  // 8 trees x 4 spans recorded; at most capacity + one tree retained.
  EXPECT_LE(rec.size(), 10u + 4u);
  EXPECT_EQ(rec.next_id(), 32);
  EXPECT_EQ(rec.dropped_spans() + static_cast<int64_t>(rec.size()), 32);
  // The retained window is the most recent spans; the front is a root.
  EXPECT_EQ(rec.spans().front().parent_id, -1);
  EXPECT_EQ(rec.spans().back().id, 31);
  // Evicted ids resolve to nullptr; retained ids resolve by id, not index.
  EXPECT_EQ(rec.mutable_span(0), nullptr);
  ASSERT_NE(rec.mutable_span(31), nullptr);
  EXPECT_EQ(rec.mutable_span(31)->id, 31);
}

TEST(SpanRetentionTest, OversizedSingleTreeStaysUntilNextQuery) {
  SpanRecorder rec;
  rec.set_capacity(4);
  RecordTree(&rec, 8);  // twice the capacity, but the only tree
  EXPECT_EQ(rec.size(), 8u);  // inspectable until the next tree begins
  RecordTree(&rec, 2);
  EXPECT_LE(rec.size(), 4u);  // the oversized tree went first
  EXPECT_EQ(rec.spans().front().name, "root");
  EXPECT_EQ(rec.spans().front().id, 8);
}

TEST(SpanRetentionTest, ClearPreservesIdMonotonicity) {
  SpanRecorder rec;
  RecordTree(&rec, 3);
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  int64_t id = rec.StartSpan("after-clear");
  EXPECT_EQ(id, 3);  // ids never restart — windows by id stay valid
  rec.EndSpan(id);
}

TEST(SpanSamplingTest, HeadTailSamplingKeepsWholeTrees) {
  SpanRecorder rec;
  rec.SetSampling(/*head_trees=*/2, /*keep_every=*/3);
  for (int t = 0; t < 11; ++t) RecordTree(&rec, 2);
  // Kept: trees 1,2 (head) and 3,6,9 (every 3rd of the tail) = 5 trees.
  EXPECT_EQ(rec.trees_started(), 11);
  EXPECT_EQ(rec.size(), 5u * 2u);
  EXPECT_EQ(rec.dropped_spans(), 6 * 2);
  for (const auto& s : rec.spans()) {
    EXPECT_TRUE(s.name == "root" || s.name == "child");
  }
}

TEST(SpanSamplingTest, DroppedTreeWritesLandInScratch) {
  SpanRecorder rec;
  rec.SetSampling(/*head_trees=*/0, /*keep_every=*/0);  // drop everything
  int64_t id = rec.StartSpan("dropped");
  EXPECT_EQ(id, SpanRecorder::kDroppedSpan);
  Span* sp = rec.mutable_span(id);
  ASSERT_NE(sp, nullptr);
  sp->Tag("key", std::string("value"));  // must not crash or leak into spans_
  rec.EndSpan(id);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.current(), -1);
}

TEST(SpanSamplingTest, KeptTreesMatchUnsampledRecorderBitForBit) {
  Federation fed_full;
  Populate(&fed_full);
  XdbSystem xdb_full(&fed_full);
  SpanRecorder full;
  fed_full.SetSpanRecorder(&full);

  Federation fed_sampled;
  Populate(&fed_sampled);
  XdbSystem xdb_sampled(&fed_sampled);
  SpanRecorder sampled;
  sampled.SetSampling(/*head_trees=*/1, /*keep_every=*/0);  // first query only
  fed_sampled.SetSpanRecorder(&sampled);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(xdb_full.Query(kJoinSql).ok());
    ASSERT_TRUE(xdb_sampled.Query(kJoinSql).ok());
  }
  // The sampled recorder kept exactly the first query's tree, and that tree
  // matches the unsampled recorder's first tree span for span.
  ASSERT_LT(sampled.size(), full.size());
  for (size_t i = 0; i < sampled.size(); ++i) {
    const Span& a = sampled.spans()[i];
    const Span& b = full.spans()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.parent_id, b.parent_id);
    EXPECT_EQ(a.duration_seconds, b.duration_seconds);
    EXPECT_EQ(a.tags, b.tags);
  }
}

// --------------------------------------------------------------------------
// Federation-labeled dimensions
// --------------------------------------------------------------------------

TEST(DimensionalMetricsTest, LabeledCellsSumToUnlabeledTotals) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  MetricsRegistry reg;
  fed.SetMetricsRegistry(&reg);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(xdb.Query(kJoinSql).ok());

  auto total = [&](const char* name) { return reg.GetCounter(name)->Value(); };
  auto cell = [&](const char* name, const char* key, const char* value) {
    return reg.GetCounter(name, {{key, value}})->Value();
  };

  EXPECT_GT(total("xdb_federation_fetches_total"), 0);
  EXPECT_EQ(total("xdb_federation_fetches_total"),
            cell("xdb_federation_fetches_total", "server", "d1") +
                cell("xdb_federation_fetches_total", "server", "d2"));
  EXPECT_GT(total("xdb_federation_useful_bytes_total"), 0);
  // By-server and by-link decompositions both cover the same total.
  double by_server =
      cell("xdb_federation_useful_bytes_total", "server", "d1") +
      cell("xdb_federation_useful_bytes_total", "server", "d2");
  double by_link = cell("xdb_federation_useful_bytes_total", "link",
                        "d1->d2") +
                   cell("xdb_federation_useful_bytes_total", "link",
                        "d2->d1") +
                   cell("xdb_federation_useful_bytes_total", "link",
                        "d1->xdb") +
                   cell("xdb_federation_useful_bytes_total", "link",
                        "d2->xdb");
  EXPECT_DOUBLE_EQ(total("xdb_federation_useful_bytes_total"), by_server);
  EXPECT_DOUBLE_EQ(total("xdb_federation_useful_bytes_total"), by_link);

  EXPECT_GT(total("xdb_delegation_ddl_total"), 0);
  EXPECT_EQ(total("xdb_delegation_ddl_total"),
            cell("xdb_delegation_ddl_total", "server", "d1") +
                cell("xdb_delegation_ddl_total", "server", "d2"));

  // Network bytes decompose by directed link (control + data + result).
  double net_total = total("xdb_network_bytes_total");
  double net_links = 0;
  for (const auto& [pair, stats] : fed.network().stats()) {
    net_links += reg.GetCounter("xdb_network_bytes_total",
                                {{"link", pair.first + "->" + pair.second}})
                     ->Value();
    (void)stats;
  }
  EXPECT_GT(net_total, 0);
  EXPECT_DOUBLE_EQ(net_total, net_links);

  // Per-query counters carry the status and (bounded) query-label dims.
  EXPECT_EQ(reg.GetCounter("xdb_queries_total", {{"status", "ok"}})->Value(),
            3);
  EXPECT_GT(reg.GetCounter("xdb_query_modelled_seconds_total",
                           {{"query", "adhoc"}})
                ->Value(),
            0);
}

// --------------------------------------------------------------------------
// Query history
// --------------------------------------------------------------------------

TEST(QueryLogTest, RecordsPerQueryStatsAndEvictsAtCapacity) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  QueryLog log(2);
  fed.SetQueryLog(&log);

  QueryContext labelled;
  labelled.label = "Q-join";
  ASSERT_TRUE(xdb.Query(kJoinSql, labelled).ok());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());

  EXPECT_EQ(log.total_recorded(), 3);
  EXPECT_EQ(log.total_failed(), 0);
  ASSERT_EQ(log.entries().size(), 2u);  // capacity evicted the oldest
  const QueryStats& last = log.entries().back();
  EXPECT_EQ(last.sequence, 3);
  EXPECT_EQ(last.label, "q3");  // only query 1 carried a label
  EXPECT_EQ(last.system, "xdb");
  EXPECT_TRUE(last.ok);
  EXPECT_GT(last.total_seconds(), 0);
  EXPECT_GT(last.useful_bytes, 0);
  EXPECT_GT(last.transfers, 0);
  EXPECT_FALSE(last.per_server_seconds.empty());

  // The evicted first query kept its label only in the lifetime totals;
  // the retained window starts at sequence 2.
  EXPECT_EQ(log.entries().front().sequence, 2);

  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total_recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"per_server_seconds\""), std::string::npos);
  EXPECT_FALSE(log.Summary().empty());
}

TEST(QueryLogTest, FailedQueriesAreRecordedWithError) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  QueryLog log;
  fed.SetQueryLog(&log);
  ASSERT_FALSE(xdb.Query("SELECT x FROM missing m").ok());
  EXPECT_EQ(log.total_recorded(), 1);
  EXPECT_EQ(log.total_failed(), 1);
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_FALSE(log.entries().front().ok);
  EXPECT_FALSE(log.entries().front().error.empty());
}

TEST(QueryLogTest, PreExecutionFailureDoesNotInheritPreviousTrace) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  QueryLog log;
  fed.SetQueryLog(&log);
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  ASSERT_GT(log.entries().back().useful_bytes, 0);
  // A parse error never reaches execution; its record must not carry the
  // previous query's transfers/bytes/per-server compute.
  ASSERT_FALSE(xdb.Query("SELEC bogus").ok());
  const QueryStats& failed = log.entries().back();
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.useful_bytes, 0);
  EXPECT_EQ(failed.wasted_bytes, 0);
  EXPECT_EQ(failed.transfers, 0);
  EXPECT_EQ(failed.retries, 0);
  EXPECT_TRUE(failed.per_server_seconds.empty());
}

TEST(QueryLogTest, ExplainAnalyzeFillsHotOperators) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  QueryLog log;
  fed.SetQueryLog(&log);
  ASSERT_TRUE(xdb.ExplainAnalyze(kJoinSql).ok());
  ASSERT_EQ(log.entries().size(), 1u);
  const QueryStats& qs = log.entries().front();
  ASSERT_FALSE(qs.hot_operators.empty());
  EXPECT_LE(qs.hot_operators.size(), 3u);
  // Ranked by modelled seconds, descending.
  for (size_t i = 1; i < qs.hot_operators.size(); ++i) {
    EXPECT_GE(qs.hot_operators[i - 1].second, qs.hot_operators[i].second);
  }
}

// --------------------------------------------------------------------------
// Boundedness + bit-identity of the full stack
// --------------------------------------------------------------------------

TEST(BoundedObservabilityTest, TenThousandTreesStayWithinCapacity) {
  SpanRecorder rec;
  rec.set_capacity(512);
  QueryLog log(256);
  for (int q = 0; q < 10000; ++q) {
    RecordTree(&rec, 6);
    QueryStats qs;
    qs.system = "xdb";
    qs.sql = "SELECT 1";
    qs.exec_seconds = 0.001;
    log.Record(std::move(qs));
  }
  EXPECT_EQ(rec.next_id(), 60000);
  EXPECT_LE(rec.size(), 512u + 6u);  // capacity + the final tree
  EXPECT_EQ(log.entries().size(), 256u);
  EXPECT_EQ(log.total_recorded(), 10000);
  EXPECT_EQ(log.entries().back().sequence, 10000);
}

TEST(BoundedObservabilityTest, RepeatedQueriesKeepRecorderBounded) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  SpanRecorder rec;
  rec.set_capacity(128);
  QueryLog log(16);
  fed.SetSpanRecorder(&rec);
  fed.SetQueryLog(&log);
  size_t one_query_spans = 0;
  for (int q = 0; q < 50; ++q) {
    ASSERT_TRUE(xdb.Query(kJoinSql).ok());
    if (q == 0) one_query_spans = rec.size();
  }
  EXPECT_LE(rec.size(), 128u + one_query_spans);
  EXPECT_EQ(log.entries().size(), 16u);
  EXPECT_EQ(log.total_recorded(), 50);
}

TEST(BoundedObservabilityTest, FullStackAttachedIsBitIdenticalToDetached) {
  // Both sides run the same 3-query sequence (the first query warms the
  // metadata cache, so query N is only comparable to query N).
  Federation fed_plain;
  Populate(&fed_plain);
  XdbSystem xdb_plain(&fed_plain);
  std::optional<Result<XdbReport>> plain_r;
  for (int i = 0; i < 3; ++i) {
    plain_r.emplace(xdb_plain.Query(kJoinSql));
    ASSERT_TRUE(plain_r->ok());
  }
  const XdbReport& plain = **plain_r;

  Federation fed_obs;
  Populate(&fed_obs);
  XdbSystem xdb_obs(&fed_obs);
  SpanRecorder rec;
  rec.set_capacity(64);
  rec.SetSampling(/*head_trees=*/0, /*keep_every=*/2);
  MetricsRegistry reg;
  QueryLog log(4);
  fed_obs.SetSpanRecorder(&rec);
  fed_obs.SetMetricsRegistry(&reg);
  fed_obs.SetQueryLog(&log);
  std::optional<Result<XdbReport>> observed;
  for (int i = 0; i < 3; ++i) {
    observed.emplace(xdb_obs.Query(kJoinSql));
    ASSERT_TRUE(observed->ok());
  }

  const XdbReport& obs = **observed;
  EXPECT_EQ(plain.result->ToDisplayString(50),
            obs.result->ToDisplayString(50));
  EXPECT_EQ(plain.phases.total(), obs.phases.total());
  EXPECT_EQ(plain.exec_timing.total, obs.exec_timing.total);
  EXPECT_EQ(plain.trace.UsefulTransferredBytes(),
            obs.trace.UsefulTransferredBytes());
  EXPECT_EQ(plain.trace.TotalTransferredRows(),
            obs.trace.TotalTransferredRows());
}

}  // namespace
}  // namespace xdb
