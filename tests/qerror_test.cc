// The estimation accountability plane: planning-time estimates carried by
// every plan node, the per-operator/transfer estimate-vs-actual ledger on
// RunTrace, q-error edge cases (zero actuals, empty relations, NULL-only
// group keys), failover replanning (estimates belong to the executed plan),
// plan-cache estimate replay, the QueryLog misestimate ring + drill-down,
// the dimensional q-error histograms, and the calibration-log export.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/exec/profile.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/testing/fault_injector.h"
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

/// Skewed statistics: t1.b has ndv 2 (99 rows of 0, one row of 1), so the
/// uniform equality model estimates `b = 1` at 50 rows while one survives
/// (q-error 50). t2 is large enough (500 rows) that the misestimated
/// filtered side is the one the annotator ships.
void PopulateSkewed(Federation* fed) {
  fed->SetNetwork(Network::Lan({"d1", "d2"}));
  DatabaseServer* d1 = fed->AddServer("d1", EngineProfile::Postgres());
  DatabaseServer* d2 = fed->AddServer("d2", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  for (int i = 0; i < 100; ++i) {
    t->AppendRow({Value::Int64(i), Value::Int64(i == 7 ? 1 : 0)});
  }
  auto u = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
  for (int i = 0; i < 500; ++i) {
    u->AppendRow({Value::Int64(i % 100), Value::Int64(i)});
  }
  ASSERT_TRUE(d1->CreateBaseTable("t1", t).ok());
  ASSERT_TRUE(d2->CreateBaseTable("t2", u).ok());
}

constexpr char kSkewSql[] =
    "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a AND t1.b = 1";

/// True when an op=="transfer" ledger record restates a delivered transfer
/// of the trace (the executed plan's accounting, not an abandoned round's).
bool MatchesDeliveredTransfer(const EstimateActual& ea,
                              const RunTrace& trace) {
  for (const auto& t : trace.transfers) {
    if (!t.failed && t.relation == ea.detail && t.rows == ea.act_rows &&
        t.bytes == ea.act_bytes) {
      return true;
    }
  }
  return false;
}

// --------------------------------------------------------------------------
// QError arithmetic
// --------------------------------------------------------------------------

TEST(QErrorMathTest, ClampsZeroOnBothSides) {
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);     // empty est, empty act
  EXPECT_DOUBLE_EQ(QError(10, 0), 10.0);   // overestimate of an empty result
  EXPECT_DOUBLE_EQ(QError(0, 10), 10.0);   // underestimate, symmetric
  EXPECT_DOUBLE_EQ(QError(5, 5), 1.0);     // exact
  EXPECT_DOUBLE_EQ(QError(2, 8), QError(8, 2));  // direction-free
  EXPECT_GE(QError(0.25, 0.5), 1.0);       // sub-row estimates clamp to 1
}

// --------------------------------------------------------------------------
// The transfer ledger (always on — no observers required)
// --------------------------------------------------------------------------

TEST(QErrorLedgerTest, TransfersCarryEstimatesIntoTheLedger) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  auto report = xdb.Query(kJoinSql);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->trace.estimates.empty());
  for (const auto& ea : report->trace.estimates) {
    EXPECT_TRUE(ea.op.transfer);
    EXPECT_GE(ea.est_rows, 0);
    EXPECT_GE(ea.q_error, 1.0);
    EXPECT_TRUE(std::isfinite(ea.q_error));
    EXPECT_TRUE(MatchesDeliveredTransfer(ea, report->trace));
  }
  EXPECT_GE(report->trace.MaxQError(), 1.0);
  // The raw transfer records expose the same estimates for the exporter.
  bool any_estimated = false;
  for (const auto& t : report->trace.transfers) {
    if (t.est_rows >= 0) any_estimated = true;
  }
  EXPECT_TRUE(any_estimated);
}

TEST(QErrorLedgerTest, AttachedObserversChangeNoModelledNumbers) {
  Federation plain;
  Populate(&plain);
  XdbSystem xdb_plain(&plain);
  auto detached = xdb_plain.Query(kJoinSql);
  ASSERT_TRUE(detached.ok());

  Federation observed;
  Populate(&observed);
  MetricsRegistry metrics;
  QueryLog log(16);
  observed.SetMetricsRegistry(&metrics);
  observed.SetQueryLog(&log);
  XdbSystem xdb_observed(&observed);
  auto attached = xdb_observed.Query(kJoinSql);
  ASSERT_TRUE(attached.ok());

  EXPECT_DOUBLE_EQ(attached->phases.total(), detached->phases.total());
  EXPECT_DOUBLE_EQ(attached->trace.TotalTransferredBytes(),
                   detached->trace.TotalTransferredBytes());
  EXPECT_EQ(attached->result->num_rows(), detached->result->num_rows());
  // And the ledgers themselves agree: estimates are planning-time facts,
  // not observer-dependent ones.
  ASSERT_EQ(attached->trace.estimates.size(),
            detached->trace.estimates.size());
  for (size_t i = 0; i < attached->trace.estimates.size(); ++i) {
    EXPECT_DOUBLE_EQ(attached->trace.estimates[i].q_error,
                     detached->trace.estimates[i].q_error);
  }
}

// --------------------------------------------------------------------------
// Operator records (profiler attached) + EXPLAIN ANALYZE columns
// --------------------------------------------------------------------------

TEST(QErrorLedgerTest, ProfilerAddsPerOperatorRecords) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  std::map<std::string, OperatorProfiler> profilers;
  for (const auto& name : fed.ServerNames()) {
    fed.GetServer(name)->set_profiler(&profilers[name]);
  }
  auto report = xdb.Query(kJoinSql);
  for (const auto& name : fed.ServerNames()) {
    fed.GetServer(name)->set_profiler(nullptr);
  }
  ASSERT_TRUE(report.ok());
  bool any_operator = false;
  for (const auto& ea : report->trace.estimates) {
    if (ea.op.transfer) continue;
    any_operator = true;
    EXPECT_GE(ea.q_error, 1.0);
    EXPECT_GE(ea.est_rows, 0);
    EXPECT_GE(ea.est_seconds, 0);
    EXPECT_GE(ea.act_seconds, 0);
    EXPECT_FALSE(ea.server.empty());
  }
  EXPECT_TRUE(any_operator);
}

TEST(QErrorLedgerTest, ExplainAnalyzeShowsEstActQErrColumns) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  auto table = xdb.ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(table.ok());
  std::string all;
  for (const auto& row : (*table)->rows()) all += row[0].string_value() + "\n";
  EXPECT_NE(all.find("est="), std::string::npos) << all;
  EXPECT_NE(all.find("act="), std::string::npos) << all;
  EXPECT_NE(all.find("q-err="), std::string::npos) << all;
}

// --------------------------------------------------------------------------
// Edge cases: zero actual rows, empty relations, NULL-only group keys
// --------------------------------------------------------------------------

TEST(QErrorEdgeTest, ZeroActualRowsStayFinite) {
  Federation fed;
  PopulateSkewed(&fed);
  XdbSystem xdb(&fed);
  std::map<std::string, OperatorProfiler> profilers;
  for (const auto& name : fed.ServerNames()) {
    fed.GetServer(name)->set_profiler(&profilers[name]);
  }
  auto report = xdb.Query(
      "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a AND t1.b = 12345");
  for (const auto& name : fed.ServerNames()) {
    fed.GetServer(name)->set_profiler(nullptr);
  }
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->result->num_rows(), 0u);
  ASSERT_FALSE(report->trace.estimates.empty());
  for (const auto& ea : report->trace.estimates) {
    EXPECT_TRUE(std::isfinite(ea.q_error))
        << EstimateOpName(ea.op) << " " << ea.detail;
    EXPECT_GE(ea.q_error, 1.0);
  }
}

TEST(QErrorEdgeTest, EmptyRelationsClampToUnitQError) {
  Federation fed;
  fed.SetNetwork(Network::Lan({"d1", "d2"}));
  DatabaseServer* d1 = fed.AddServer("d1", EngineProfile::Postgres());
  DatabaseServer* d2 = fed.AddServer("d2", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  t->AppendRow({Value::Int64(1), Value::Int64(1)});
  auto empty = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
  ASSERT_TRUE(d1->CreateBaseTable("t1", t).ok());
  ASSERT_TRUE(d2->CreateBaseTable("t2", empty).ok());
  XdbSystem xdb(&fed);
  auto report = xdb.Query(kJoinSql);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->result->num_rows(), 0u);
  for (const auto& ea : report->trace.estimates) {
    // An empty relation estimated empty is a perfect estimate, not a
    // division by zero: both sides clamp to one row.
    EXPECT_TRUE(std::isfinite(ea.q_error));
    EXPECT_GE(ea.q_error, 1.0);
    if (ea.act_rows == 0 && ea.est_rows == 0) {
      EXPECT_DOUBLE_EQ(ea.q_error, 1.0);
    }
  }
}

TEST(QErrorEdgeTest, NullOnlyGroupKeysProfileCleanly) {
  Federation fed;
  fed.SetNetwork(Network::Lan({"d1"}));
  DatabaseServer* d1 = fed.AddServer("d1", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  for (int i = 0; i < 8; ++i) {
    t->AppendRow({Value::Int64(i), Value::Null(TypeId::kInt64)});
  }
  ASSERT_TRUE(d1->CreateBaseTable("t1", t).ok());
  XdbSystem xdb(&fed);
  OperatorProfiler prof;
  d1->set_profiler(&prof);
  auto report =
      xdb.Query("SELECT t1.b, COUNT(*) AS n FROM t1 GROUP BY t1.b");
  d1->set_profiler(nullptr);
  ASSERT_TRUE(report.ok());
  // All-NULL keys collapse into one SQL group.
  EXPECT_EQ(report->result->num_rows(), 1u);
  bool saw_aggregate = false;
  for (const auto& ea : report->trace.estimates) {
    if (ea.op.transfer || ea.op.kind != PlanKind::kAggregate) continue;
    saw_aggregate = true;
    EXPECT_TRUE(std::isfinite(ea.q_error));
    EXPECT_GE(ea.q_error, 1.0);
    EXPECT_DOUBLE_EQ(ea.act_rows, 1.0);
  }
  EXPECT_TRUE(saw_aggregate);
}

// --------------------------------------------------------------------------
// Failover + plan cache provenance
// --------------------------------------------------------------------------

TEST(QErrorProvenanceTest, ReplannedQueriesReportTheExecutedPlansEstimates) {
  Federation fed;
  Populate(&fed);
  FaultInjector inj(1);
  fed.SetFaultInjector(&inj);
  XdbSystem xdb(&fed);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  // The healthy root fails persistently; failover replans on the alternate.
  FaultSpec spec;
  spec.server = probe->xdb_query.server;
  spec.op = FaultOp::kQuery;
  spec.kind = FaultKind::kTransientError;
  inj.AddFault(spec);
  auto report = xdb.Query(kJoinSql);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->trace.replan_rounds, 1);
  EXPECT_EQ(report->trace.recovery_action, RecoveryAction::kReplanned);
  ASSERT_FALSE(report->trace.estimates.empty());
  // Every ledger record restates a transfer the *winning* round delivered;
  // the abandoned round's transfers left no estimate records behind.
  for (const auto& ea : report->trace.estimates) {
    EXPECT_TRUE(MatchesDeliveredTransfer(ea, report->trace))
        << ea.detail << " est=" << ea.est_rows << " act=" << ea.act_rows;
  }
}

TEST(QErrorProvenanceTest, PlanCacheHitsReplayIdenticalEstimates) {
  Federation fed;
  Populate(&fed);
  XdbOptions opts;
  opts.plan_cache_capacity = 4;
  XdbSystem xdb(&fed, opts);
  auto miss = xdb.Query(kJoinSql);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->plan_cache_hit);
  auto hit = xdb.Query(kJoinSql);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  ASSERT_EQ(hit->trace.estimates.size(), miss->trace.estimates.size());
  // Relation names embed the query id, so compare the numeric estimates: the
  // cached plan must replay bit-identical estimates and observations.
  for (size_t i = 0; i < hit->trace.estimates.size(); ++i) {
    const EstimateActual& a = miss->trace.estimates[i];
    const EstimateActual& b = hit->trace.estimates[i];
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.server, b.server);
    EXPECT_DOUBLE_EQ(a.est_rows, b.est_rows);
    EXPECT_DOUBLE_EQ(a.est_bytes, b.est_bytes);
    EXPECT_DOUBLE_EQ(a.act_rows, b.act_rows);
    EXPECT_DOUBLE_EQ(a.act_bytes, b.act_bytes);
    EXPECT_DOUBLE_EQ(a.q_error, b.q_error);
  }
}

// --------------------------------------------------------------------------
// Misestimate ring + \qerror drill-down + histograms + calibration export
// --------------------------------------------------------------------------

TEST(MisestimateRingTest, SkewedStatsLandInTheRing) {
  Federation fed;
  PopulateSkewed(&fed);
  QueryLog log(16);
  fed.SetQueryLog(&log);
  XdbSystem xdb(&fed);
  QueryContext ctx;
  ctx.label = "skew";
  auto report = xdb.Query(kSkewSql, ctx);
  ASSERT_TRUE(report.ok());
  // The uniform model says 50 rows of t1 survive b = 1; one does.
  EXPECT_GE(report->trace.MaxQError(), 4.0);

  auto events = log.MisestimateEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].label, "skew");
  EXPECT_GE(events[0].q_error, 4.0);
  EXPECT_FALSE(events[0].op.empty());
  EXPECT_FALSE(events[0].server.empty());

  // Drill-down surfaces the event (and filters by label).
  auto lines = log.QErrorDrilldown("");
  std::string all;
  for (const auto& l : lines) all += l + "\n";
  EXPECT_NE(all.find("misestimates:"), std::string::npos) << all;
  EXPECT_NE(all.find("q-err="), std::string::npos) << all;
  auto labeled = log.QErrorDrilldown("skew");
  EXPECT_GE(labeled.size(), 2u);
  auto other = log.QErrorDrilldown("nosuchlabel");
  ASSERT_EQ(other.size(), 1u);
  EXPECT_NE(other[0].find("no misestimates recorded"), std::string::npos);

  // The summary gains the misestimate line and flags the query.
  std::string summary;
  for (const auto& l : log.Summary()) summary += l + "\n";
  EXPECT_NE(summary.find("misestimates: 1 run(s)"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("[q-err="), std::string::npos) << summary;
}

TEST(MisestimateRingTest, WellEstimatedQueriesStayOut) {
  Federation fed;
  Populate(&fed);
  QueryLog log(16);
  fed.SetQueryLog(&log);
  XdbSystem xdb(&fed);
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  EXPECT_TRUE(log.MisestimateEvents().empty());
  auto entries = log.SnapshotEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_GE(entries[0].max_q_error, 1.0);
  EXPECT_FALSE(entries[0].estimates.empty());
}

TEST(QErrorMetricsTest, DimensionalHistogramsExpose) {
  Federation fed;
  PopulateSkewed(&fed);
  MetricsRegistry metrics;
  fed.SetMetricsRegistry(&metrics);
  XdbSystem xdb(&fed);
  ASSERT_TRUE(xdb.Query(kSkewSql).ok());
  std::string text = metrics.ExposeText();
  EXPECT_NE(text.find("xdb_qerror"), std::string::npos);
  EXPECT_NE(text.find("xdb_bytes_error"), std::string::npos);
  EXPECT_NE(text.find("op=\"transfer\""), std::string::npos) << text;
  EXPECT_NE(text.find("link=\""), std::string::npos) << text;
}

TEST(CalibrationLogTest, ExportsFeatureOutcomePairs) {
  Federation fed;
  PopulateSkewed(&fed);
  QueryLog log(16);
  fed.SetQueryLog(&log);
  XdbSystem xdb(&fed);
  std::map<std::string, OperatorProfiler> profilers;
  for (const auto& name : fed.ServerNames()) {
    fed.GetServer(name)->set_profiler(&profilers[name]);
  }
  ASSERT_TRUE(xdb.Query(kSkewSql).ok());
  for (const auto& name : fed.ServerNames()) {
    fed.GetServer(name)->set_profiler(nullptr);
  }
  std::string json = xdb.ExportCalibrationLog();
  EXPECT_NE(json.find("\"schema\":\"xdb-calibration-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"features\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\""), std::string::npos);
  EXPECT_NE(json.find("\"q_error\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"postgres\""), std::string::npos)
      << json.substr(0, 800);
  EXPECT_NE(json.find("\"engine\":\"wire\""), std::string::npos);
  EXPECT_NE(json.find("\"predicate_class\""), std::string::npos);
}

TEST(CalibrationLogTest, ClassifiesPredicatesFromThePlanNode) {
  auto fed = tpch::BuildTpchFederation(0.002, tpch::TD1());
  QueryLog log(16);
  fed->SetQueryLog(&log);
  XdbSystem xdb(fed.get());
  std::map<std::string, OperatorProfiler> profilers;
  for (const auto& name : fed->ServerNames()) {
    fed->GetServer(name)->set_profiler(&profilers[name]);
  }
  auto q8 = xdb.Query(tpch::FindQuery("Q8")->sql);
  // A literal holding '<' does not make an equality a range.
  auto quoted =
      xdb.Query("SELECT p.p_partkey FROM part p WHERE p.p_type = 'A<B'");
  for (const auto& name : fed->ServerNames()) {
    fed->GetServer(name)->set_profiler(nullptr);
  }
  ASSERT_TRUE(q8.ok()) << q8.status().ToString();
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();

  auto has = [](const std::string& s, const char* part) {
    return s.find(part) != std::string::npos;
  };
  int between = 0, with_case = 0, ab = 0;
  for (const auto& ea : q8->trace.estimates) {
    if (ea.op.transfer) {
      EXPECT_EQ(ea.predicate_class, ComparisonKind::kNone) << ea.detail;
      continue;
    }
    if (ea.op.kind == PlanKind::kFilter && has(ea.detail, "BETWEEN")) {
      ++between;
      EXPECT_EQ(ea.predicate_class, ComparisonKind::kRange) << ea.detail;
    }
    // The CASE's "=" sits in a projection or aggregate, not a predicate.
    if (has(ea.detail, "CASE")) {
      ++with_case;
      EXPECT_EQ(ea.predicate_class, ComparisonKind::kNone) << ea.detail;
    }
  }
  for (const auto& ea : quoted->trace.estimates) {
    if (ea.op.transfer || ea.op.kind != PlanKind::kFilter) continue;
    ++ab;
    EXPECT_EQ(ea.predicate_class, ComparisonKind::kEquality) << ea.detail;
  }
  EXPECT_EQ(between, 1);
  EXPECT_EQ(with_case, 2);  // the Aggregate and the Project above it
  EXPECT_EQ(ab, 1);
  const std::string json = xdb.ExportCalibrationLog();
  EXPECT_NE(json.find("\"predicate_class\":\"range\""), std::string::npos);
  EXPECT_NE(json.find("\"predicate_class\":\"equality\""),
            std::string::npos);
}

TEST(CalibrationLogTest, EmptyWithoutQueryLog) {
  Federation fed;
  Populate(&fed);
  XdbSystem xdb(&fed);
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  std::string json = xdb.ExportCalibrationLog();
  EXPECT_NE(json.find("\"records\":[]"), std::string::npos) << json;
}

}  // namespace
}  // namespace xdb
