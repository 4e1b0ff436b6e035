// Graceful degradation under deadlines (ISSUE 8 tentpole): modelled-time
// query budgets that fail fast with kTimeout, opt-in partial results with
// completeness accounting, per-server circuit breakers that route planning
// around sick nodes, and the Gilbert–Elliott / diurnal fault profiles that
// make the injected failures realistic. Nothing sleeps; every deadline and
// backoff is modelled seconds. CI runs these suites under sanitizers
// (`-R 'FaultSoak|Degradation|GilbertElliott|Diurnal'`).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/retry.h"
#include "src/dbms/federation.h"
#include "src/dbms/health.h"
#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/testing/fault_injector.h"
#include "src/xdb/session.h"
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

class DegradationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Populate(&fed_);
    fed_.SetFaultInjector(&injector_);
  }

  void ExpectClean() {
    EXPECT_TRUE(fed_.GetServer("d1")->TransientRelations().empty());
    EXPECT_TRUE(fed_.GetServer("d2")->TransientRelations().empty());
  }

  Federation fed_;
  FaultInjector injector_{42};
};

// --------------------------------------------------------------------------
// Retry accounting: the budget check runs before the backoff is charged
// --------------------------------------------------------------------------

TEST(DegradationRetryBudgetTest, AbandonedRetryChargesOnlyTimeSpent) {
  RetryPolicy p;  // 3 attempts, backoffs 0.05 then 0.10
  int calls = 0;
  auto always_flaky = [&] {
    ++calls;
    return Status::Unavailable("flaky");
  };

  // Budget covers the first backoff but not the second: the loop makes two
  // attempts, bills exactly the 0.05 s it actually waited — never the 0.10 s
  // phantom wait the abandoned third attempt would have needed.
  calls = 0;
  RetryOutcome out = RetryWithBackoffBudget(p, always_flaky, 0.05);
  EXPECT_TRUE(out.status.IsUnavailable());
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(out.backoff_seconds, 0.05);

  // A zero budget admits no backoff at all: one attempt, nothing billed.
  calls = 0;
  out = RetryWithBackoffBudget(p, always_flaky, 0.0);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(out.backoff_seconds, 0.0);

  // Negative budget = unlimited: full schedule, no exhaustion flag.
  calls = 0;
  out = RetryWithBackoffBudget(p, always_flaky, -1.0);
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_DOUBLE_EQ(out.backoff_seconds, 0.05 + 0.10);

  // Success inside the budget never sets the flag.
  calls = 0;
  out = RetryWithBackoffBudget(
      p,
      [&] { return ++calls < 2 ? Status::Unavailable("once") : Status::OK(); },
      10.0);
  EXPECT_TRUE(out.status.ok());
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_DOUBLE_EQ(out.backoff_seconds, 0.05);
}

// --------------------------------------------------------------------------
// Query deadlines: fail fast with kTimeout instead of burning recovery
// --------------------------------------------------------------------------

TEST_F(DegradationFixture, DeadlineFailsFastInsteadOfFailoverBurn) {
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const std::string victim = probe->xdb_query.server;

  // The root refuses to run client queries, and every refusal costs 10
  // modelled seconds — far beyond the deadline below.
  FaultSpec spec;
  spec.server = victim;
  spec.op = FaultOp::kQuery;
  spec.kind = FaultKind::kTransientError;
  spec.delay_seconds = 10.0;
  injector_.AddFault(spec);

  QueryContext ctx;
  ctx.deadline_seconds = probe->total_seconds() + 0.5;
  auto r = xdb.Query(kJoinSql, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos);
  const int fired_with_deadline = injector_.faults_fired();
  ExpectClean();

  // Without a deadline the very same fault heals through failover — the
  // deadline traded that recovery for a fast, typed timeout.
  auto healed = xdb.Query(kJoinSql);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_NE(healed->xdb_query.server, victim);
  EXPECT_EQ(healed->trace.recovery_action, RecoveryAction::kReplanned);
  EXPECT_GE(injector_.faults_fired(), fired_with_deadline);
  ExpectClean();
}

TEST_F(DegradationFixture, DeadlineSmallerThanPlanningFailsDuringPrep) {
  XdbSystem xdb(&fed_);
  QueryContext ctx;
  ctx.deadline_seconds = 1e-9;  // cannot even pay for prep + lopt
  auto r = xdb.Query(kJoinSql, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  EXPECT_NE(r.status().message().find("during preparation"),
            std::string::npos);
  ExpectClean();
}

TEST_F(DegradationFixture, GenerousDeadlineIsBitIdenticalToNoDeadline) {
  XdbSystem xdb(&fed_);
  auto warmup = xdb.Query(kJoinSql);  // populate the plan cache
  ASSERT_TRUE(warmup.ok());
  auto plain = xdb.Query(kJoinSql);
  ASSERT_TRUE(plain.ok());

  QueryContext ctx;
  ctx.deadline_seconds = plain->total_seconds() * 1000 + 1.0;
  auto budgeted = xdb.Query(kJoinSql, ctx);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_DOUBLE_EQ(plain->phases.prep, budgeted->phases.prep);
  EXPECT_DOUBLE_EQ(plain->phases.lopt, budgeted->phases.lopt);
  EXPECT_DOUBLE_EQ(plain->phases.exec, budgeted->phases.exec);
  EXPECT_DOUBLE_EQ(plain->transferred_bytes(), budgeted->transferred_bytes());
  EXPECT_EQ(plain->result->ToDisplayString(100),
            budgeted->result->ToDisplayString(100));
  EXPECT_TRUE(budgeted->completeness.complete);
  EXPECT_DOUBLE_EQ(budgeted->completeness.completeness_fraction, 1.0);
}

// --------------------------------------------------------------------------
// Partial results: surviving fragments instead of a failed query
// --------------------------------------------------------------------------

TEST_F(DegradationFixture, PartialResultSubstitutesLostNonRootFragment) {
  MetricsRegistry metrics;
  QueryLog history;
  fed_.SetMetricsRegistry(&metrics);
  fed_.SetQueryLog(&history);

  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const std::string root = probe->xdb_query.server;
  const std::string victim = root == "d1" ? "d2" : "d1";

  // Every fetch from the non-root server fails, persistently.
  FaultSpec spec;
  spec.server = victim;
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector_.AddFault(spec);

  // Without opting in, the result is never silently partial: either the
  // query fails, or failover found an alternate (push-based) data path and
  // the result is complete and correct.
  auto strict = xdb.Query(kJoinSql);
  if (strict.ok()) {
    EXPECT_TRUE(strict->completeness.complete);
    EXPECT_EQ(strict->result->ToDisplayString(100),
              probe->result->ToDisplayString(100));
    EXPECT_EQ(strict->trace.recovery_action, RecoveryAction::kReplanned);
  }
  ExpectClean();

  // Opted in: the query returns the surviving fragments — the lost side of
  // the join contributes an empty relation with its declared schema.
  QueryContext ctx;
  ctx.allow_partial = true;
  auto r = xdb.Query(kJoinSql, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->partial());
  EXPECT_FALSE(r->completeness.complete);
  EXPECT_LT(r->completeness.completeness_fraction, 1.0);
  ASSERT_EQ(r->completeness.lost.size(), 1u);
  const FragmentLoss& loss = r->completeness.lost[0];
  // Fetches name deployed views (xdb_q<N>_t<K>), not base tables.
  EXPECT_FALSE(loss.relation.empty());
  EXPECT_EQ(loss.server, victim);
  EXPECT_EQ(loss.consumer, root);
  EXPECT_EQ(loss.reason, "node-down");
  EXPECT_GT(loss.est_rows, 0.0);
  EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kDegraded);
  ASSERT_EQ(r->trace.lost_fragments.size(), 1u);
  // The inner join above the empty fragment is correctly empty — the
  // surviving side still executed.
  EXPECT_EQ(r->result->num_rows(), 0u);
  // The fetch was retried before giving up, and the abandoned attempts are
  // on the trail.
  EXPECT_FALSE(r->trace.retries.empty());
  ExpectClean();

  // Observability: the loss shows up in metrics and the query history.
  EXPECT_NE(metrics.ExposeText().find(
                "xdb_partial_results_total{reason=\"node-down\"}"),
            std::string::npos);
  const auto entries = history.SnapshotEntries();
  ASSERT_FALSE(entries.empty());
  const QueryStats& qs = entries.back();
  EXPECT_TRUE(qs.partial);
  EXPECT_EQ(qs.lost_fragments, 1);
  EXPECT_LT(qs.completeness_fraction, 1.0);
  bool partial_line = false;
  for (const auto& line : history.Summary()) {
    if (line.find("[PARTIAL") != std::string::npos) partial_line = true;
  }
  EXPECT_TRUE(partial_line);
}

TEST_F(DegradationFixture, DeadlineExhaustedFetchDegradesWithDeadlineReason) {
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  const std::string victim = probe->xdb_query.server == "d1" ? "d2" : "d1";

  // First backoff (100 s) never fits the remaining budget: the fetch's
  // retry loop is abandoned by the deadline, and the fragment's loss reason
  // says so.
  RetryPolicy slow;
  slow.initial_backoff_seconds = 100.0;
  slow.max_backoff_seconds = 100.0;
  fed_.set_retry_policy(slow);

  FaultSpec spec;
  spec.server = victim;
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector_.AddFault(spec);

  QueryContext ctx;
  ctx.deadline_seconds = probe->total_seconds() + 1.0;
  ctx.allow_partial = true;
  auto r = xdb.Query(kJoinSql, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->partial());
  ASSERT_EQ(r->completeness.lost.size(), 1u);
  EXPECT_EQ(r->completeness.lost[0].reason, "deadline");
  ExpectClean();
}

TEST_F(DegradationFixture, ExplainAnalyzeAnnotatesPartialResults) {
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  const std::string victim = probe->xdb_query.server == "d1" ? "d2" : "d1";

  FaultSpec spec;
  spec.server = victim;
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector_.AddFault(spec);

  QueryContext ctx;
  ctx.allow_partial = true;
  auto table = xdb.ExplainAnalyze(kJoinSql, ctx);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::string text = (*table)->ToDisplayString(500);
  EXPECT_NE(text.find("PARTIAL"), std::string::npos);
  EXPECT_NE(text.find("lost"), std::string::npos);
  ExpectClean();
}

// --------------------------------------------------------------------------
// Circuit breakers: trip, route around, half-open probe, close
// --------------------------------------------------------------------------

TEST(DegradationBreakerTest, StateMachineTripsCoolsAndProbes) {
  HealthTracker health;
  const int64_t epoch0 = health.state_epoch();

  // Three consecutive retryable failures trip the breaker.
  health.RecordOutcome("pg", false);
  health.RecordOutcome("pg", false);
  EXPECT_EQ(health.state("pg"), BreakerState::kClosed);
  health.RecordOutcome("pg", false);
  EXPECT_EQ(health.state("pg"), BreakerState::kOpen);
  EXPECT_EQ(health.trips("pg"), 1);
  EXPECT_GT(health.state_epoch(), epoch0);

  // Two planning consultations sit the server out; the third half-opens it
  // so the caller's query becomes the probe.
  EXPECT_EQ(health.PlanningExclusions(), std::vector<std::string>{"pg"});
  EXPECT_EQ(health.PlanningExclusions(), std::vector<std::string>{"pg"});
  EXPECT_TRUE(health.PlanningExclusions().empty());
  EXPECT_EQ(health.state("pg"), BreakerState::kHalfOpen);

  // A failed probe goes straight back to Open for another cooldown.
  health.RecordOutcome("pg", false);
  EXPECT_EQ(health.state("pg"), BreakerState::kOpen);
  EXPECT_EQ(health.trips("pg"), 2);
  EXPECT_EQ(health.PlanningExclusions(), std::vector<std::string>{"pg"});
  EXPECT_EQ(health.PlanningExclusions(), std::vector<std::string>{"pg"});
  EXPECT_TRUE(health.PlanningExclusions().empty());

  // A healthy probe closes with a clean window: the old burst cannot
  // immediately re-trip via the error-rate rule.
  health.RecordOutcome("pg", true);
  EXPECT_EQ(health.state("pg"), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(health.RollingErrorRate("pg"), 0.0);
}

TEST(DegradationBreakerTest, RollingErrorRateTripsWithoutAStreak) {
  BreakerOptions opts;
  opts.consecutive_failures = 100;  // only the rate rule can trip
  HealthTracker health(opts);
  // Alternate failure/success: never a streak, but the rolling rate hits
  // 0.5 once min_samples (4) outcomes are in the window.
  health.RecordOutcome("maria", false);
  health.RecordOutcome("maria", true);
  health.RecordOutcome("maria", false);
  EXPECT_EQ(health.state("maria"), BreakerState::kClosed);
  health.RecordOutcome("maria", true);
  EXPECT_EQ(health.state("maria"), BreakerState::kClosed);
  health.RecordOutcome("maria", false);
  EXPECT_EQ(health.state("maria"), BreakerState::kOpen);
  EXPECT_GE(health.RollingErrorRate("maria"), 0.5);
}

TEST(DegradationBreakerTest, RenderListsServersAndUnknownsAreClosed) {
  HealthTracker health;
  EXPECT_EQ(health.state("ghost"), BreakerState::kClosed);
  EXPECT_EQ(health.trips("ghost"), 0);
  ASSERT_EQ(health.Render().size(), 1u);  // "no health data yet"
  health.RecordOutcome("pg", false);
  const auto lines = health.Render();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("pg"), std::string::npos);
  EXPECT_NE(lines[0].find("closed"), std::string::npos);
}

TEST(DegradationBreakerTest, NestedFetchFailureChargesOnlyTheProducer) {
  // a reads b.v_b, a view over c.t. Every fetch from c fails: c's breaker
  // trips, while b — healthy, it only relayed c's failure — stays closed.
  Federation fed;
  fed.SetNetwork(Network::Lan({"a", "b", "c"}));
  DatabaseServer* a = fed.AddServer("a", EngineProfile::Postgres());
  DatabaseServer* b = fed.AddServer("b", EngineProfile::Postgres());
  DatabaseServer* c = fed.AddServer("c", EngineProfile::Postgres());
  auto t = std::make_shared<Table>(Schema({{"x", TypeId::kInt64}}));
  for (int i = 0; i < 5; ++i) t->AppendRow({Value::Int64(i)});
  ASSERT_TRUE(c->CreateBaseTable("t", t).ok());
  ASSERT_TRUE(b->ExecuteDdl("CREATE FOREIGN TABLE ft_c SERVER c "
                            "OPTIONS (table 't')")
                  .ok());
  ASSERT_TRUE(b->ExecuteDdl("CREATE VIEW v_b AS SELECT * FROM ft_c").ok());
  ASSERT_TRUE(a->ExecuteDdl("CREATE FOREIGN TABLE ft_b SERVER b "
                            "OPTIONS (table 'v_b')")
                  .ok());

  HealthTracker health;
  fed.SetHealthTracker(&health);
  FaultInjector injector;
  fed.SetFaultInjector(&injector);
  FaultSpec spec;
  spec.server = "c";
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector.AddFault(spec);

  fed.BeginRun("a");
  auto r = a->ExecuteQuery("SELECT * FROM ft_b");
  fed.FinishRun();
  ASSERT_FALSE(r.ok());
  ASSERT_NE(r.status().site(), nullptr);
  EXPECT_EQ(r.status().site()->server, "c");
  EXPECT_EQ(health.state("c"), BreakerState::kOpen);
  EXPECT_EQ(health.state("b"), BreakerState::kClosed);
  EXPECT_EQ(health.trips("b"), 0);
}

TEST_F(DegradationFixture, TrippedBreakerRoutesPlanningAroundSickServer) {
  HealthTracker health;
  fed_.SetHealthTracker(&health);
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const std::string root = probe->xdb_query.server;
  const std::string victim = root == "d1" ? "d2" : "d1";

  // Every foreign fetch from the victim fails: one query's 3-attempt retry
  // loop feeds 3 consecutive failures into the tracker — enough to trip —
  // and the query itself heals through failover replanning.
  FaultSpec spec;
  spec.server = victim;
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector_.AddFault(spec);

  auto tripping = xdb.Query(kJoinSql);
  ASSERT_TRUE(tripping.ok()) << tripping.status().ToString();
  EXPECT_EQ(tripping->trace.recovery_action, RecoveryAction::kReplanned);
  ASSERT_EQ(health.state(victim), BreakerState::kOpen);
  EXPECT_EQ(health.trips(victim), 1);
  EXPECT_EQ(health.state(root), BreakerState::kClosed);

  // The server heals (fault removed), but the breaker remembers: the next
  // query is planned around the previously sick server up front — it never
  // roots there, needs no failover, and fires no retries.
  injector_.Clear();
  const int fired_before = injector_.faults_fired();
  auto routed = xdb.Query(kJoinSql);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_NE(routed->xdb_query.server, victim);
  EXPECT_TRUE(routed->trace.retries.empty());
  EXPECT_EQ(routed->trace.recovery_action, RecoveryAction::kNone);
  EXPECT_EQ(routed->trace.replan_rounds, 0);
  EXPECT_EQ(injector_.faults_fired(), fired_before);
  ExpectClean();

  // Cooldown served: the breaker half-opens, the next query doubles as the
  // probe, and its success closes the breaker — the victim becomes a
  // placement candidate again.
  for (int i = 0; i < 6 && health.state(victim) != BreakerState::kClosed;
       ++i) {
    auto r = xdb.Query(kJoinSql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(health.state(victim), BreakerState::kClosed);
  ExpectClean();
}

// --------------------------------------------------------------------------
// Gilbert–Elliott bursty loss
// --------------------------------------------------------------------------

TEST(GilbertElliottTest, BurstPatternIsSeedReproducibleAndBursty) {
  auto pattern = [](uint64_t seed) {
    FaultInjector inj(seed);
    FaultSpec spec;
    spec.op = FaultOp::kFetch;
    spec.kind = FaultKind::kTransientError;
    spec.ge_p_enter = 0.15;
    spec.ge_p_exit = 0.4;
    int id = inj.AddFault(spec);
    std::vector<bool> fired;
    std::vector<bool> bursts;
    for (int i = 0; i < 256; ++i) {
      fired.push_back(!inj.OnOperation("d1", FaultOp::kFetch).ok());
      bursts.push_back(inj.InBurstState(id));
    }
    return std::make_pair(fired, bursts);
  };
  auto a = pattern(7);
  EXPECT_EQ(a, pattern(7));

  // With the default lossless-good / always-lossy-bad channel, firing IS
  // the burst state — and the losses arrive in runs, not as isolated coin
  // flips: at least one burst of >= 2 consecutive losses, and clean runs
  // of >= 2 between bursts.
  EXPECT_EQ(a.first, a.second);
  int longest_loss = 0, longest_clean = 0, run = 0;
  bool last = !a.first[0];
  for (bool f : a.first) {
    run = (f == last) ? run + 1 : 1;
    last = f;
    if (f) {
      longest_loss = std::max(longest_loss, run);
    } else {
      longest_clean = std::max(longest_clean, run);
    }
  }
  EXPECT_GE(longest_loss, 2);
  EXPECT_GE(longest_clean, 2);
  int fires = 0;
  for (bool f : a.first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 256);
}

TEST(GilbertElliottTest, StateDependentLossCoinsUseTheSeededStream) {
  // A lossy-good / partially-lossy-bad channel exercises both coins; the
  // whole schedule must still replay bit-for-bit from the seed.
  auto pattern = [](uint64_t seed) {
    FaultInjector inj(seed);
    FaultSpec spec;
    spec.op = FaultOp::kTransfer;
    spec.kind = FaultKind::kLinkDrop;
    spec.server = "a";
    spec.peer = "b";
    spec.ge_p_enter = 0.3;
    spec.ge_p_exit = 0.5;
    spec.ge_loss_good = 0.05;
    spec.ge_loss_bad = 0.8;
    inj.AddFault(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 128; ++i) {
      fired.push_back(!inj.OnOperation("a", FaultOp::kTransfer, "b").ok());
    }
    return fired;
  };
  EXPECT_EQ(pattern(11), pattern(11));
  EXPECT_NE(pattern(11), pattern(12));
}

TEST_F(DegradationFixture, SameSeedReproducesRecoveryUnderBurstyFaults) {
  auto run = [](uint64_t seed) {
    Federation fed;
    Populate(&fed);
    FaultInjector inj(seed);
    FaultSpec spec;
    spec.op = FaultOp::kFetch;
    spec.kind = FaultKind::kTransientError;
    spec.ge_p_enter = 0.3;
    spec.ge_p_exit = 0.6;
    inj.AddFault(spec);
    fed.SetFaultInjector(&inj);
    XdbSystem xdb(&fed);
    auto r = xdb.Query(kJoinSql);
    const RunTrace& trace = r.ok() ? r->trace : xdb.last_trace();
    return std::make_tuple(r.ok(), inj.faults_fired(), trace.retries.size(),
                           trace.total_backoff_seconds, trace.replan_rounds,
                           trace.recovery_action);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_EQ(run(1234), run(1234));
}

// --------------------------------------------------------------------------
// Diurnal slow-link profile
// --------------------------------------------------------------------------

TEST(DiurnalSlowLinkTest, SquareWaveDegradesPeakConsultationsOnly) {
  Network net = Network::Lan({"a", "b"});
  const LinkProps base = net.GetLink("a", "b");

  FaultInjector inj;
  FaultSpec slow;
  slow.server = "a";
  slow.peer = "b";
  slow.kind = FaultKind::kSlowLink;
  slow.slow_factor = 4.0;
  slow.diurnal_period = 4;
  slow.diurnal_duty = 0.5;  // first 2 consultations of every 4 are peak
  inj.AddFault(slow);
  net.set_fault_injector(&inj);

  for (int period = 0; period < 3; ++period) {
    for (int phase = 0; phase < 4; ++phase) {
      const LinkProps got = net.GetLink("a", "b");
      if (phase < 2) {
        EXPECT_DOUBLE_EQ(got.bandwidth, base.bandwidth / 4.0)
            << "period " << period << " phase " << phase;
        EXPECT_DOUBLE_EQ(got.latency, base.latency * 4.0);
      } else {
        EXPECT_DOUBLE_EQ(got.bandwidth, base.bandwidth)
            << "period " << period << " phase " << phase;
        EXPECT_DOUBLE_EQ(got.latency, base.latency);
      }
    }
  }
}

TEST(DiurnalSlowLinkTest, DutyCycleBoundsAndUnmatchedLinksUntouched) {
  Network net = Network::Lan({"a", "b", "c"});
  const LinkProps base = net.GetLink("a", "b");

  FaultInjector inj;
  FaultSpec always;  // duty 1.0 degenerates to an always-on slow link
  always.server = "a";
  always.peer = "b";
  always.kind = FaultKind::kSlowLink;
  always.slow_factor = 2.0;
  always.diurnal_period = 3;
  always.diurnal_duty = 1.0;
  inj.AddFault(always);
  net.set_fault_injector(&inj);
  for (int i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(net.GetLink("a", "b").bandwidth, base.bandwidth / 2.0);
    // The a<->c link never matches: its consultations must not advance the
    // wave or degrade.
    EXPECT_DOUBLE_EQ(net.GetLink("a", "c").bandwidth, base.bandwidth);
  }
}

// --------------------------------------------------------------------------
// Mediator baselines under bursty link faults: nothing stranded
// --------------------------------------------------------------------------

TEST_F(DegradationFixture, MediatorCleansUpUnderBurstyLinkFaultsAndBreakers) {
  HealthTracker health;
  fed_.SetHealthTracker(&health);

  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  auto reference = garlic.Query(kJoinSql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string ref_text = reference->result->ToDisplayString(100);

  // Bursty Gilbert–Elliott loss on every fetch: bursts long enough to
  // exhaust the 3-attempt retry schedule, so some queries fail outright.
  FaultSpec ge;
  ge.op = FaultOp::kFetch;
  ge.kind = FaultKind::kTransientError;
  ge.ge_p_enter = 0.35;
  ge.ge_p_exit = 0.25;
  injector_.AddFault(ge);

  int ok_count = 0, failed_count = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = garlic.Query(kJoinSql);
    if (r.ok()) {
      ++ok_count;
      EXPECT_EQ(r->result->ToDisplayString(100), ref_text);
    } else {
      ++failed_count;
      EXPECT_TRUE(r.status().IsRetryable()) << r.status().ToString();
    }
    // The invariant under test: success or failure, tripped breaker or
    // not, the mediator's materialized views never strand on the
    // components — cleanup flows regardless of breaker state.
    EXPECT_TRUE(fed_.GetServer("d1")->TransientRelations().empty())
        << "query " << i;
    EXPECT_TRUE(fed_.GetServer("d2")->TransientRelations().empty())
        << "query " << i;
    EXPECT_TRUE(
        fed_.GetServer(garlic.mediator_name())->TransientRelations().empty())
        << "query " << i;
  }
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(failed_count, 0);  // the bursts really did exhaust retries
  EXPECT_GT(injector_.faults_fired(), 0);
}

TEST_F(DegradationFixture, MediatorHonorsDeadlineAndPartialOptions) {
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  auto probe = garlic.Query(kJoinSql);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();

  // A deadline smaller than planning fails fast with kTimeout.
  QueryContext strict;
  strict.deadline_seconds = 1e-9;
  auto timed_out = garlic.Query(kJoinSql, strict);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsTimeout());
  ExpectClean();

  // allow_partial: a dead component degrades the mediator's result instead
  // of failing it.
  FaultSpec spec;
  spec.server = "d2";
  spec.op = FaultOp::kFetch;
  spec.kind = FaultKind::kTransientError;
  injector_.AddFault(spec);

  QueryContext lenient;
  lenient.allow_partial = true;
  auto r = garlic.Query(kJoinSql, lenient);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->partial());
  ASSERT_FALSE(r->completeness.lost.empty());
  EXPECT_EQ(r->completeness.lost[0].server, "d2");
  EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kDegraded);
  // The relations deployed under the mediator's own namespace are gone.
  ExpectClean();

  // Without the context the same mediator fails the query outright — and
  // still records the recovery trail of the lost fetch in its history.
  QueryLog log;
  fed_.SetQueryLog(&log);
  auto strict_partial = garlic.Query(kJoinSql);
  fed_.SetQueryLog(nullptr);
  ASSERT_FALSE(strict_partial.ok());
  EXPECT_TRUE(strict_partial.status().IsRetryable());
  const std::vector<QueryStats> history = log.SnapshotEntries();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].system, "garlic");
  EXPECT_FALSE(history[0].ok);
  EXPECT_EQ(history[0].recovery_action, RecoveryAction::kFailed);
  EXPECT_GT(history[0].retries, 0);
  ExpectClean();
}

// --------------------------------------------------------------------------
// Serving soak (TSan): concurrent sessions + deadlines + partials + bursts
// --------------------------------------------------------------------------

TEST(ServingFaultSoakTest, ConcurrentSessionsDegradeGracefullyUnderBursts) {
  Federation fed;
  Populate(&fed);
  Federation ref_fed;
  Populate(&ref_fed);
  XdbSystem ref(&ref_fed);
  auto ref_r = ref.Query(kJoinSql);
  ASSERT_TRUE(ref_r.ok());
  const std::string reference = ref_r->result->ToDisplayString(1000);

  FaultInjector injector(97);
  FaultSpec ge;  // bursty transient loss on every fetch
  ge.op = FaultOp::kFetch;
  ge.kind = FaultKind::kTransientError;
  ge.ge_p_enter = 0.05;
  ge.ge_p_exit = 0.5;
  injector.AddFault(ge);
  fed.SetFaultInjector(&injector);

  HealthTracker health;
  fed.SetHealthTracker(&health);
  MetricsRegistry metrics;
  fed.SetMetricsRegistry(&metrics);
  QueryLog history(128);
  fed.SetQueryLog(&history);

  XdbOptions opts;
  opts.plan_cache_capacity = 16;
  opts.exec_threads = 2;
  XdbSystem xdb(&fed, opts);
  ServingOptions sopts;
  sopts.default_deadline_seconds = 1e6;  // armed on every query, never hit
  sopts.allow_partial = true;
  SessionManager manager(&xdb, sopts);

  constexpr int kSessions = 6;
  constexpr int kPerSession = 40;
  std::vector<std::unique_ptr<XdbSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.OpenSession());
  }

  std::atomic<int> complete{0};
  std::atomic<int> partial{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    XdbSession* session = sessions[i].get();
    threads.emplace_back([&, session] {
      for (int q = 0; q < kPerSession; ++q) {
        auto r = session->Query(kJoinSql);
        if (!r.ok()) continue;
        if (r->partial()) {
          partial.fetch_add(1);
          if (r->completeness.completeness_fraction >= 1.0) {
            mismatches.fetch_add(1);
          }
          continue;  // degraded results are annotated, not compared
        }
        complete.fetch_add(1);
        if (r->result->ToDisplayString(1000) != reference) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(complete.load(), 0);
  EXPECT_EQ(manager.total_queries(), kSessions * kPerSession);
  // Complete results under concurrency remain byte-identical to serial;
  // everything else degraded (partial) or failed loudly — and nothing was
  // left deployed on either component.
  EXPECT_TRUE(fed.GetServer("d1")->TransientRelations().empty());
  EXPECT_TRUE(fed.GetServer("d2")->TransientRelations().empty());
  fed.SetFaultInjector(nullptr);
}

}  // namespace
}  // namespace xdb
