// End-to-end query observability: span trees over the delegation pipeline,
// per-operator profiling (EXPLAIN ANALYZE at the server and federation
// level), the metrics registry, and the JSON exporters. The standing
// invariant everywhere: attached observers never change modelled seconds,
// transfer bytes, or result rows — the fault-free discipline applied to
// observability.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/exec/profile.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/testing/fault_injector.h"
#include "src/timing/timing_model.h"
#include "src/tpch/distributions.h"
#include "src/tpch/queries.h"
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

const Span* FindSpan(const std::vector<Span>& spans,
                     const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string Concatenate(const Table& table) {
  std::string all;
  for (const auto& row : table.rows()) all += row[0].string_value() + "\n";
  return all;
}

// --------------------------------------------------------------------------
// Span recorder mechanics
// --------------------------------------------------------------------------

TEST(SpanRecorderTest, NestingEstablishesParentLinks) {
  SpanRecorder rec;
  int64_t root = rec.StartSpan("query");
  int64_t child = rec.StartSpan("deploy");
  EXPECT_EQ(rec.current(), child);
  rec.EndSpan(child);
  int64_t sibling = rec.StartSpan("execute");
  rec.EndSpan(sibling);
  rec.EndSpan(root);
  EXPECT_EQ(rec.current(), -1);

  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent_id, -1);
  EXPECT_EQ(rec.spans()[1].parent_id, root);
  EXPECT_EQ(rec.spans()[2].parent_id, root);

  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(SpanRecorderTest, FinalizeTimelineLaysChildrenSequentially) {
  SpanRecorder rec;
  int64_t root = rec.StartSpan("query");
  int64_t a = rec.StartSpan("a");
  rec.mutable_span(a)->duration_seconds = 2.0;
  rec.EndSpan(a);
  int64_t b = rec.StartSpan("b");
  rec.mutable_span(b)->duration_seconds = 3.0;
  rec.EndSpan(b);
  rec.EndSpan(root);

  rec.FinalizeTimeline();
  const Span& rs = rec.spans()[0];
  const Span& as = rec.spans()[1];
  const Span& bs = rec.spans()[2];
  // Children are sequential within the parent; the parent covers them.
  EXPECT_DOUBLE_EQ(as.start_seconds, rs.start_seconds);
  EXPECT_DOUBLE_EQ(as.finish_seconds - as.start_seconds, 2.0);
  EXPECT_DOUBLE_EQ(bs.start_seconds, as.finish_seconds);
  EXPECT_DOUBLE_EQ(bs.finish_seconds - bs.start_seconds, 3.0);
  EXPECT_DOUBLE_EQ(rs.finish_seconds - rs.start_seconds, 5.0);

  // Idempotent: a second call changes nothing.
  std::vector<Span> before = rec.spans();
  rec.FinalizeTimeline();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(rec.spans()[i].start_seconds,
                     before[i].start_seconds);
    EXPECT_DOUBLE_EQ(rec.spans()[i].finish_seconds,
                     before[i].finish_seconds);
  }
}

TEST(SpanRecorderTest, ParentExtentIsMaxOfOwnDurationAndChildren) {
  SpanRecorder rec;
  int64_t root = rec.StartSpan("execute");
  rec.mutable_span(root)->duration_seconds = 10.0;  // own modelled cost
  int64_t child = rec.StartSpan("fetch");
  rec.mutable_span(child)->duration_seconds = 1.0;
  rec.EndSpan(child);
  rec.EndSpan(root);
  rec.FinalizeTimeline();
  // Own duration dominates the child sum.
  EXPECT_DOUBLE_EQ(rec.spans()[0].finish_seconds -
                       rec.spans()[0].start_seconds,
                   10.0);
}

TEST(SpanGuardTest, NullRecorderIsANoop) {
  SpanGuard guard(nullptr, "anything");
  EXPECT_FALSE(guard.active());
  EXPECT_EQ(guard.span(), nullptr);
}

TEST(SpanTest, TagsRoundTrip) {
  Span s;
  s.Tag("server", std::string("d1"));
  s.Tag("rows", static_cast<int64_t>(42));
  s.Tag("bytes", 10.5);
  ASSERT_NE(s.FindTag("server"), nullptr);
  EXPECT_EQ(*s.FindTag("server"), "d1");
  EXPECT_EQ(*s.FindTag("rows"), "42");
  EXPECT_EQ(s.FindTag("missing"), nullptr);
}

TEST(ChromeTraceTest, ExportsCompleteEventsInMicroseconds) {
  SpanRecorder rec;
  int64_t root = rec.StartSpan("query");
  int64_t child = rec.StartSpan("fetch t2");
  Span* sp = rec.mutable_span(child);
  sp->duration_seconds = 0.25;
  sp->Tag("server", std::string("d2"));
  rec.EndSpan(child);
  rec.EndSpan(root);
  rec.FinalizeTimeline();

  std::string json = SpansToChromeTrace(rec.spans());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fetch t2\""), std::string::npos);
  // 0.25 modelled seconds -> 250000 microseconds of trace time.
  EXPECT_NE(json.find("250000"), std::string::npos);
  EXPECT_NE(json.find("\"server\":\"d2\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Metrics registry
// --------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramSemantics) {
  Counter c;
  c.Increment();
  c.Increment(2.5);
  EXPECT_DOUBLE_EQ(c.Value(), 3.5);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);

  Gauge g;
  g.Set(7);
  g.Add(-2);
  EXPECT_DOUBLE_EQ(g.Value(), 5.0);

  Histogram h({10, 100, 1000});
  h.Observe(5);
  h.Observe(50);
  h.Observe(50);
  h.Observe(5000);  // overflow bucket
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 2);
  EXPECT_EQ(h.BucketCount(2), 0);
  EXPECT_EQ(h.BucketCount(3), 1);
  EXPECT_EQ(h.Count(), 4);
  EXPECT_DOUBLE_EQ(h.Sum(), 5105.0);
}

TEST(MetricsTest, RegistryIsIdempotentAndExposesPrometheusText) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("xdb_test_total", "a test counter");
  EXPECT_EQ(reg.GetCounter("xdb_test_total"), c);
  c->Increment(3);
  reg.GetGauge("xdb_test_gauge")->Set(1.5);
  Histogram* h = reg.GetHistogram("xdb_test_bytes", {10, 100});
  h->Observe(42);

  std::string text = reg.ExposeText();
  EXPECT_NE(text.find("# HELP xdb_test_total a test counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xdb_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("xdb_test_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xdb_test_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xdb_test_bytes histogram"),
            std::string::npos);
  EXPECT_NE(text.find("xdb_test_bytes_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xdb_test_bytes_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xdb_test_bytes_count 1"), std::string::npos);

  reg.ResetAll();
  EXPECT_DOUBLE_EQ(c->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0);
  // Metrics stay registered after a reset.
  EXPECT_EQ(reg.GetCounter("xdb_test_total"), c);
}

// --------------------------------------------------------------------------
// Operator profiling and EXPLAIN ANALYZE
// --------------------------------------------------------------------------

TEST(OperatorProfilerTest, RecordsPreOrderWithDepths) {
  OperatorProfiler prof;
  Schema s({{"a", TypeId::kInt64}});
  PlanPtr scan = PlanNode::MakeScan("d1", "t", "t", s, {});
  size_t root = prof.Enter(*scan);
  size_t child = prof.Enter(*scan);
  ASSERT_NE(prof.current(), nullptr);
  prof.current()->input_rows = 9;
  prof.Exit(child);
  prof.stats(root).output_rows = 5;
  prof.Exit(root);

  ASSERT_EQ(prof.records().size(), 2u);
  EXPECT_EQ(prof.records()[0].depth, 0);
  EXPECT_EQ(prof.records()[1].depth, 1);
  EXPECT_DOUBLE_EQ(prof.records()[1].input_rows, 9);
  EXPECT_DOUBLE_EQ(prof.records()[0].output_rows, 5);
  EXPECT_EQ(prof.current(), nullptr);

  prof.Clear();
  EXPECT_TRUE(prof.records().empty());
}

TEST(ExplainAnalyzeTest, ServerStatementAnnotatesThePlanWithActuals) {
  Federation fed;
  Populate(&fed);
  DatabaseServer* d1 = fed.GetServer("d1");

  auto r = d1->ExecuteSql(
      "EXPLAIN ANALYZE SELECT t1.b FROM t1 WHERE t1.a < 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string all = Concatenate(**r);
  // The filter line carries observed input/output rows and selectivity.
  EXPECT_NE(all.find("in=10"), std::string::npos);
  EXPECT_NE(all.find("rows=5"), std::string::npos);
  EXPECT_NE(all.find("sel=50.0%"), std::string::npos);
  EXPECT_NE(all.find("modelled="), std::string::npos);
  EXPECT_NE(all.find("(actual rows=5, modelled compute="),
            std::string::npos);

  // The profiler detaches afterwards: plain queries still run unprofiled.
  EXPECT_EQ(d1->profiler(), nullptr);
  auto plain = d1->ExecuteSql("SELECT t1.b FROM t1 WHERE t1.a < 5");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->num_rows(), 5u);
}

TEST(ExplainAnalyzeTest, TopNKeepsItsSortLine) {
  Federation fed;
  Populate(&fed);
  auto r = fed.GetServer("d1")->ExecuteSql(
      "EXPLAIN ANALYZE SELECT t1.a, t1.b FROM t1 ORDER BY t1.b DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string all = Concatenate(**r);
  EXPECT_NE(all.find("Limit(3)"), std::string::npos) << all;
  // The fused Sort holds its logical output: all ten rows, in order.
  EXPECT_NE(all.find("Sort  (in=10 rows=10 batches=1"), std::string::npos)
      << all;
}

// The profile accounts for every row the timing model charges: on one
// server holding every TPC-H table, each evaluation query's operator
// records sum to its compute frame's modelled seconds (less the engine's
// per-query startup), on a one-worker engine and on a parallel one. Q3 and
// Q10 end in a fused top-N Sort.
TEST(OperatorProfilerTest, ModelledSecondsSumToTheChargedCompute) {
  tpch::TableDistribution one_server;
  for (const auto& [table, node] : tpch::TD1()) one_server[table] = "db1";
  for (const EngineProfile& engine :
       {EngineProfile::Postgres(), EngineProfile::PrestoMediator(4)}) {
    SCOPED_TRACE(engine.vendor);
    auto fed = tpch::BuildTpchFederation(0.002, one_server,
                                         {{"db1", engine}});
    DatabaseServer* db1 = fed->GetServer("db1");
    const TimingModel model(fed.get());
    for (const auto& q : tpch::EvaluationQueries()) {
      SCOPED_TRACE(q.id);
      OperatorProfiler prof;
      db1->set_profiler(&prof);
      fed->BeginRun("db1");
      Result<TablePtr> r = db1->ExecuteQuery(q.sql);
      const RunTrace trace = fed->FinishRun();
      db1->set_profiler(nullptr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      double profiled = 0;
      for (const auto& s : prof.records()) {
        profiled += OperatorProfiler::ModelledSeconds(s, db1->profile());
      }
      const double charged =
          model.ComputeSeconds(trace.root_compute, db1->profile(), false) -
          db1->profile().startup_cost;
      EXPECT_NEAR(profiled, charged, 1e-9 * charged);
    }
  }
}

TEST(ExplainAnalyzeTest, FederationLevelRendersPhasesAndPerServerTrees) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);

  auto r = xdb.ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string all = Concatenate(**r);
  EXPECT_NE(all.find("phases: prep="), std::string::npos);
  EXPECT_NE(all.find("transfers: "), std::string::npos);
  EXPECT_NE(all.find("useful="), std::string::npos);
  EXPECT_NE(all.find("wasted=0 B"), std::string::npos);
  // Both component DBMSes executed something and report their trees.
  EXPECT_NE(all.find("server d1 (postgres):"), std::string::npos);
  EXPECT_NE(all.find("server d2 (postgres):"), std::string::npos);
  EXPECT_NE(all.find("Scan"), std::string::npos);

  // Profilers are detached again; a later query is bit-identical to one on
  // a never-profiled system.
  for (const auto& name : fed.ServerNames()) {
    EXPECT_EQ(fed.GetServer(name)->profiler(), nullptr);
  }
  auto after = xdb.Query(kJoinSql);
  Federation plain;
  Populate(&plain);
  XdbSystem fresh(&plain);
  auto baseline = fresh.Query(kJoinSql);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(baseline.ok());
  EXPECT_DOUBLE_EQ(after->phases.exec, baseline->phases.exec);
  EXPECT_DOUBLE_EQ(after->transferred_bytes(),
                   baseline->transferred_bytes());
}

// --------------------------------------------------------------------------
// End-to-end span trees over the delegation pipeline
// --------------------------------------------------------------------------

TEST(QuerySpansTest, PipelinePhasesAndFetchesAppearInTheTree) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  SpanRecorder rec;
  fed.SetSpanRecorder(&rec);
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::vector<Span>& spans = rec.spans();
  const Span* query = FindSpan(spans, "query 1");
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->parent_id, -1);
  ASSERT_NE(query->FindTag("sql"), nullptr);

  for (const char* name :
       {"prepare", "logical-optimize", "round 0", "annotate", "deploy",
        "execute", "cleanup"}) {
    EXPECT_NE(FindSpan(spans, name), nullptr) << name;
  }

  // Deploy emitted one child span per delegation task.
  const Span* deploy = FindSpan(spans, "deploy");
  int tasks = 0;
  for (const auto& s : spans) {
    if (s.parent_id == deploy->id) ++tasks;
  }
  EXPECT_EQ(tasks, static_cast<int>(r->plan.tasks.size()));

  // Every completed transfer has a tagged fetch span with its modelled wire
  // seconds attached; their sum matches the timing model exactly.
  double span_seconds = 0;
  int fetch_spans = 0;
  for (const auto& s : spans) {
    if (s.record_id < 0) continue;
    ++fetch_spans;
    ASSERT_NE(s.FindTag("rows"), nullptr);
    ASSERT_NE(s.FindTag("bytes"), nullptr);
    EXPECT_GT(s.duration_seconds, 0.0);
    span_seconds += s.duration_seconds;
  }
  EXPECT_EQ(fetch_spans, static_cast<int>(r->trace.transfers.size()));
  TimingModel model(&fed, TimingOptions{1.0});
  double model_seconds = 0;
  for (const auto& t : r->trace.transfers) {
    model_seconds += model.TransferSeconds(t);
  }
  EXPECT_NEAR(span_seconds, model_seconds, 1e-12);

  // Query() finalized the timeline on exit: the root covers every span.
  for (const auto& s : spans) {
    EXPECT_GE(s.finish_seconds, s.start_seconds);
    EXPECT_LE(s.finish_seconds, query->finish_seconds + 1e-9);
  }
  fed.SetSpanRecorder(nullptr);
}

TEST(QuerySpansTest, AttachedObserversAreBitIdentical) {
  Federation plain;
  Populate(&plain);
  Federation wired;
  Populate(&wired);
  SpanRecorder rec;
  MetricsRegistry reg;
  wired.SetSpanRecorder(&rec);
  wired.SetMetricsRegistry(&reg);

  XdbSystem a(&plain);
  XdbSystem b(&wired);
  auto ra = a.Query(kJoinSql);
  auto rb = b.Query(kJoinSql);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());

  EXPECT_DOUBLE_EQ(ra->phases.prep, rb->phases.prep);
  EXPECT_DOUBLE_EQ(ra->phases.lopt, rb->phases.lopt);
  EXPECT_DOUBLE_EQ(ra->phases.ann, rb->phases.ann);
  EXPECT_DOUBLE_EQ(ra->phases.exec, rb->phases.exec);
  EXPECT_DOUBLE_EQ(ra->exec_timing.total, rb->exec_timing.total);
  EXPECT_DOUBLE_EQ(ra->transferred_bytes(), rb->transferred_bytes());
  EXPECT_EQ(ra->ddl_statements, rb->ddl_statements);
  EXPECT_EQ(ra->result->num_rows(), rb->result->num_rows());
  EXPECT_GT(rec.size(), 0u);
}

TEST(QuerySpansTest, FederationMetricsMatchTheRunTrace) {
  Federation fed;
  Populate(&fed);
  MetricsRegistry reg;
  fed.SetMetricsRegistry(&reg);
  XdbSystem xdb(&fed);
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_DOUBLE_EQ(reg.GetCounter("xdb_federation_fetches_total")->Value(),
                   static_cast<double>(r->trace.transfers.size()));
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("xdb_federation_useful_bytes_total")->Value(),
      r->trace.UsefulTransferredBytes());
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("xdb_federation_wasted_bytes_total")->Value(),
      0.0);
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("xdb_federation_retries_total")->Value(), 0.0);
  Histogram* h = reg.GetHistogram("xdb_federation_transfer_bytes", {});
  EXPECT_EQ(h->Count(),
            static_cast<int64_t>(r->trace.transfers.size()));

  std::string text = reg.ExposeText();
  EXPECT_NE(text.find("xdb_federation_fetches_total"), std::string::npos);
  EXPECT_NE(text.find("xdb_network_bytes_total"), std::string::npos);
  fed.SetMetricsRegistry(nullptr);
}

// --------------------------------------------------------------------------
// Observability under faults: useful/wasted split, failed-round compute,
// last_trace() across multi-round failover
// --------------------------------------------------------------------------

TEST(FaultObservabilityTest, LinkDropSplitsUsefulFromWastedBytes) {
  Federation fed;
  Populate(&fed);
  FaultInjector inj(42);
  fed.SetFaultInjector(&inj);
  MetricsRegistry reg;
  fed.SetMetricsRegistry(&reg);

  FaultSpec drop;  // the first payload transfer aborts mid-flight
  drop.op = FaultOp::kTransfer;
  drop.kind = FaultKind::kLinkDrop;
  drop.first_attempt = 1;
  drop.last_attempt = 1;
  inj.AddFault(drop);

  XdbSystem xdb(&fed);
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const RunTrace& trace = r->trace;
  EXPECT_GT(trace.WastedTransferredBytes(), 0.0);
  EXPECT_GT(trace.UsefulTransferredBytes(), 0.0);
  EXPECT_DOUBLE_EQ(
      trace.UsefulTransferredBytes() + trace.WastedTransferredBytes(),
      trace.TotalTransferredBytes());
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("xdb_federation_wasted_bytes_total")->Value(),
      trace.WastedTransferredBytes());
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("xdb_federation_useful_bytes_total")->Value(),
      trace.UsefulTransferredBytes());
  EXPECT_GT(reg.GetCounter("xdb_federation_retries_total")->Value(), 0.0);
}

double SumScanRows(const RunTrace& trace) {
  double rows = 0;
  for (const auto& [srv, compute] : trace.per_server) {
    rows += compute.scan_rows;
  }
  return rows;
}

TEST(FaultObservabilityTest, PerServerKeepsComputeFromFailedReplanRounds) {
  Federation fed;
  Populate(&fed);
  FaultInjector inj(42);
  fed.SetFaultInjector(&inj);
  // Always-explicit movements: data moves during deploy (CTAS), so a round
  // whose execution step fails has still made its producers do real work.
  XdbOptions opts;
  opts.movement_policy = 2;
  XdbSystem xdb(&fed, opts);
  auto clean = xdb.Query(kJoinSql);
  ASSERT_TRUE(clean.ok());
  const std::string old_root = clean->xdb_query.server;
  const double clean_scan_rows = SumScanRows(clean->trace);
  ASSERT_GT(clean_scan_rows, 0.0);

  FaultSpec spec;  // the old root refuses to run client queries, forever
  spec.server = old_root;
  spec.op = FaultOp::kQuery;
  spec.kind = FaultKind::kTransientError;
  inj.AddFault(spec);

  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->trace.replan_rounds, 1);
  EXPECT_NE(r->xdb_query.server, old_root);
  EXPECT_GT(r->trace.wasted_attempt_seconds, 0.0);

  // The failed first round scanned and shipped data before its execution
  // step failed; that compute must survive into the final trace's
  // per-server totals rather than vanish with the failed round.
  EXPECT_GT(SumScanRows(r->trace), clean_scan_rows);
}

TEST(FaultObservabilityTest, LastTraceSurvivesMultiRoundFailover) {
  Federation fed;
  Populate(&fed);
  FaultInjector inj(42);
  fed.SetFaultInjector(&inj);
  MetricsRegistry reg;
  fed.SetMetricsRegistry(&reg);
  XdbOptions opts;
  opts.movement_policy = 2;  // deploy-time CTAS: failed rounds move data
  XdbSystem xdb(&fed, opts);

  // Every server refuses client queries: every failover round fails, and
  // the query is ultimately unrecoverable.
  for (const char* server : {"d1", "d2"}) {
    FaultSpec spec;
    spec.server = server;
    spec.op = FaultOp::kQuery;
    spec.kind = FaultKind::kTransientError;
    inj.AddFault(spec);
  }
  auto r = xdb.Query(kJoinSql);
  ASSERT_FALSE(r.ok());

  const RunTrace& trace = xdb.last_trace();
  EXPECT_EQ(trace.recovery_action, RecoveryAction::kFailed);
  EXPECT_GE(trace.replan_rounds, 1);
  EXPECT_FALSE(trace.excluded_servers.empty());
  // The banked rounds kept their per-server compute and their wasted cost
  // even though nothing was ever delivered to the client.
  EXPECT_GT(SumScanRows(trace), 0.0);
  EXPECT_GT(trace.wasted_attempt_seconds, 0.0);
  EXPECT_GT(reg.GetCounter("xdb_federation_rollbacks_total")->Value(), 0.0);
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("xdb_federation_replan_rounds_total")->Value(),
      static_cast<double>(trace.replan_rounds));

  // A later successful query replaces last_trace() wholesale.
  inj.Clear();
  auto ok = xdb.Query(kJoinSql);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(xdb.last_trace().recovery_action, RecoveryAction::kNone);
  EXPECT_EQ(xdb.last_trace().replan_rounds, 0);
  EXPECT_TRUE(xdb.last_trace().retries.empty());
}

// --------------------------------------------------------------------------
// JSON exporters
// --------------------------------------------------------------------------

TEST(ExportTest, RunTraceAndReportJsonCarryTheSplitByteCounters) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::string trace_json = RunTraceToJson(r->trace);
  EXPECT_NE(trace_json.find("\"useful_bytes\":"), std::string::npos);
  EXPECT_NE(trace_json.find("\"wasted_bytes\":"), std::string::npos);
  EXPECT_NE(trace_json.find("\"transfers\":"), std::string::npos);
  EXPECT_NE(trace_json.find("\"per_server\":"), std::string::npos);

  std::string report_json = XdbReportToJson(*r);
  EXPECT_NE(report_json.find("\"phases\":"), std::string::npos);
  EXPECT_NE(report_json.find("\"exec_timing\":"), std::string::npos);
  EXPECT_NE(report_json.find("\"trace\":"), std::string::npos);
  // Escaping: no raw control characters or stray quotes break the output.
  Span s;
  s.Tag("sql", std::string("SELECT \"x\"\nFROM t"));
  std::string chrome = SpansToChromeTrace({s});
  EXPECT_NE(chrome.find("SELECT \\\"x\\\"\\nFROM t"), std::string::npos);
}

}  // namespace
}  // namespace xdb
