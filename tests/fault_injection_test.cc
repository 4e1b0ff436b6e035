// Deterministic fault injection: programmable faults with seeded triggers,
// retry with modelled backoff, all-or-nothing deploy rollback, failover
// replanning — and a fault-free path that is bit-identical to a build
// without the framework. Nothing here sleeps; every delay is modelled.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/retry.h"
#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/testing/fault_injector.h"
#include "src/xdb/delegation_engine.h"
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

class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Populate(&fed_);
    d1_ = fed_.GetServer("d1");
    d2_ = fed_.GetServer("d2");
    fed_.SetFaultInjector(&injector_);
  }

  void ExpectClean() {
    EXPECT_TRUE(d1_->TransientRelations().empty());
    EXPECT_TRUE(d2_->TransientRelations().empty());
  }

  Federation fed_;
  FaultInjector injector_{42};
  DatabaseServer* d1_ = nullptr;
  DatabaseServer* d2_ = nullptr;
};

// --------------------------------------------------------------------------
// Retry policy & injector mechanics
// --------------------------------------------------------------------------

TEST(RetryPolicyTest, BackoffScheduleIsExponentialAndCapped) {
  RetryPolicy p;  // 3 attempts, 0.05 s initial, x2, 5 s cap
  EXPECT_DOUBLE_EQ(p.BackoffAfter(1), 0.05);
  EXPECT_DOUBLE_EQ(p.BackoffAfter(2), 0.10);
  EXPECT_DOUBLE_EQ(p.BackoffAfter(3), 0.20);
  EXPECT_DOUBLE_EQ(p.BackoffAfter(20), 5.0);
  EXPECT_EQ(RetryPolicy::NoRetry().max_attempts, 1);
}

TEST(RetryPolicyTest, RetriesOnlyRetryableStatuses) {
  RetryPolicy p;
  int attempts = 0;
  double backoff = 0;
  int calls = 0;
  Status st = RetryWithBackoff(
      p,
      [&] {
        ++calls;
        return calls < 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      &attempts, &backoff);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_DOUBLE_EQ(backoff, 0.05 + 0.10);

  // A static error is never retried.
  calls = 0;
  st = RetryWithBackoff(
      p,
      [&] {
        ++calls;
        return Status::BindError("static");
      },
      &attempts, &backoff);
  EXPECT_TRUE(st.IsBindError());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(attempts, 1);
  EXPECT_DOUBLE_EQ(backoff, 0.0);
}

TEST(FaultInjectorTest, WindowEveryNthAndNodeDownTriggers) {
  FaultInjector inj;
  FaultSpec spec;
  spec.server = "x";
  spec.op = FaultOp::kDdl;
  spec.kind = FaultKind::kTransientError;
  spec.first_attempt = 2;
  spec.last_attempt = 3;
  int id = inj.AddFault(spec);
  EXPECT_TRUE(inj.OnOperation("x", FaultOp::kDdl).ok());       // 1
  EXPECT_FALSE(inj.OnOperation("x", FaultOp::kDdl).ok());      // 2
  EXPECT_FALSE(inj.OnOperation("x", FaultOp::kDdl).ok());      // 3
  EXPECT_TRUE(inj.OnOperation("x", FaultOp::kDdl).ok());       // 4
  EXPECT_TRUE(inj.OnOperation("y", FaultOp::kDdl).ok());       // other server
  EXPECT_TRUE(inj.OnOperation("x", FaultOp::kQuery).ok());     // other op
  inj.RemoveFault(id);

  FaultSpec nth;
  nth.server = "x";
  nth.op = FaultOp::kFetch;
  nth.kind = FaultKind::kTransientError;
  nth.every_nth = 2;
  inj.AddFault(nth);
  EXPECT_TRUE(inj.OnOperation("x", FaultOp::kFetch).ok());
  EXPECT_FALSE(inj.OnOperation("x", FaultOp::kFetch).ok());
  EXPECT_TRUE(inj.OnOperation("x", FaultOp::kFetch).ok());
  EXPECT_FALSE(inj.OnOperation("x", FaultOp::kFetch).ok());

  inj.MarkNodeDown("y");
  Status down = inj.OnOperation("y", FaultOp::kQuery);
  EXPECT_TRUE(down.IsUnavailable());
  EXPECT_NE(down.message().find("y"), std::string::npos);
  inj.MarkNodeUp("y");
  EXPECT_TRUE(inj.OnOperation("y", FaultOp::kQuery).ok());
}

// A fired fault's status names where it struck, through WithContext too,
// and its delay comes back from the same call.
TEST(FaultInjectorTest, FiredFaultsCarryTheirSiteAndDelay) {
  FaultInjector inj;
  FaultSpec transient;
  transient.server = "x";
  transient.op = FaultOp::kFetch;
  transient.kind = FaultKind::kTransientError;
  transient.delay_seconds = 0.5;
  transient.every_nth = 2;
  inj.AddFault(transient);
  double delay = 0;
  Status ok = inj.OnOperation("x", FaultOp::kFetch, "y", &delay);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.site(), nullptr);
  EXPECT_DOUBLE_EQ(delay, 0.0);
  Status st = inj.OnOperation("x", FaultOp::kFetch, "y", &delay)
                  .WithContext("foreign fetch of x.v by y");
  ASSERT_NE(st.site(), nullptr);
  EXPECT_EQ(st.site()->server, "x");
  EXPECT_EQ(st.site()->peer, "y");
  EXPECT_EQ(st.site()->op, FaultOp::kFetch);
  EXPECT_FALSE(st.site()->link_drop);
  EXPECT_TRUE(st.site()->on_fetch_path());
  EXPECT_DOUBLE_EQ(delay, 0.5);

  FaultSpec drop;
  drop.server = "x";
  drop.peer = "y";
  drop.op = FaultOp::kTransfer;
  drop.kind = FaultKind::kLinkDrop;
  inj.AddFault(drop);
  Status dropped = inj.OnOperation("x", FaultOp::kTransfer, "y");
  ASSERT_NE(dropped.site(), nullptr);
  EXPECT_TRUE(dropped.site()->link_drop);

  inj.MarkNodeDown("z");
  Status down = inj.OnOperation("z", FaultOp::kDdl);
  ASSERT_NE(down.site(), nullptr);
  EXPECT_EQ(down.site()->server, "z");
  EXPECT_FALSE(down.site()->on_fetch_path());
}

TEST(FaultInjectorTest, ProbabilisticTriggersAreSeedReproducible) {
  auto pattern = [](uint64_t seed) {
    FaultInjector inj(seed);
    FaultSpec spec;
    spec.op = FaultOp::kFetch;
    spec.kind = FaultKind::kTransientError;
    spec.probability = 0.4;
    spec.delay_seconds = 0.25;
    inj.AddFault(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!inj.OnOperation("d1", FaultOp::kFetch).ok());
    }
    return std::make_pair(fired, inj.injected_delay_seconds());
  };
  auto a = pattern(7);
  auto b = pattern(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);

  // The modelled delay matches the number of firings exactly.
  int fires = 0;
  for (bool f : a.first) fires += f ? 1 : 0;
  EXPECT_DOUBLE_EQ(a.second, 0.25 * fires);
}

TEST(FaultInjectorTest, SlowLinkDegradesModelledLinkProps) {
  Network net = Network::Lan({"a", "b", "c"});
  LinkProps base = net.GetLink("a", "b");

  FaultInjector inj;
  FaultSpec slow;
  slow.server = "a";
  slow.peer = "b";
  slow.kind = FaultKind::kSlowLink;
  slow.slow_factor = 4.0;
  inj.AddFault(slow);
  net.set_fault_injector(&inj);

  LinkProps degraded = net.GetLink("a", "b");
  EXPECT_DOUBLE_EQ(degraded.bandwidth, base.bandwidth / 4.0);
  EXPECT_DOUBLE_EQ(degraded.latency, base.latency * 4.0);
  // Symmetric, and other links untouched.
  EXPECT_DOUBLE_EQ(net.GetLink("b", "a").bandwidth, base.bandwidth / 4.0);
  EXPECT_DOUBLE_EQ(net.GetLink("a", "c").bandwidth, base.bandwidth);

  net.set_fault_injector(nullptr);
  EXPECT_DOUBLE_EQ(net.GetLink("a", "b").bandwidth, base.bandwidth);
}

TEST(NetworkValidationTest, UnknownNodeNamesAreRecordedAndNotCounted) {
  Network net = Network::Lan({"a", "b"});
  EXPECT_TRUE(net.unknown_nodes().empty());

  (void)net.GetLink("a", "ghost");
  EXPECT_EQ(net.unknown_nodes().count("ghost"), 1u);

  // A transfer naming an unregistered node must not skew the accounting.
  net.RecordTransfer("phantom", "a", 1e6, 3);
  net.RecordTransfer("a", "phantom", 1e6, 3);
  EXPECT_DOUBLE_EQ(net.TotalBytes(), 0.0);
  EXPECT_EQ(net.unknown_nodes().count("phantom"), 1u);

  net.RecordTransfer("a", "b", 1000, 1);
  EXPECT_DOUBLE_EQ(net.TotalBytes(), 1000.0);

  net.ClearUnknownNodes();
  EXPECT_TRUE(net.unknown_nodes().empty());
}

// --------------------------------------------------------------------------
// End-to-end: the fault-free path must not change
// --------------------------------------------------------------------------

TEST(FaultFreePathTest, AttachedIdleInjectorIsBitIdentical) {
  Federation plain;
  Populate(&plain);
  Federation wired;
  Populate(&wired);
  FaultInjector idle(123);  // attached but no fault specs
  wired.SetFaultInjector(&idle);

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
  EXPECT_DOUBLE_EQ(ra->transferred_bytes(), rb->transferred_bytes());
  EXPECT_EQ(ra->ddl_statements, rb->ddl_statements);
  EXPECT_EQ(ra->consultations, rb->consultations);
  EXPECT_EQ(ra->result->num_rows(), rb->result->num_rows());

  EXPECT_TRUE(rb->trace.retries.empty());
  EXPECT_EQ(rb->trace.replan_rounds, 0);
  EXPECT_EQ(rb->trace.recovery_action, RecoveryAction::kNone);
  EXPECT_DOUBLE_EQ(rb->trace.total_backoff_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rb->trace.injected_delay_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rb->trace.wasted_attempt_seconds, 0.0);
  EXPECT_EQ(idle.faults_fired(), 0);
}

// --------------------------------------------------------------------------
// Retry with modelled backoff
// --------------------------------------------------------------------------

TEST_F(FaultFixture, DdlTransientFaultRetriesUntilSuccess) {
  FaultSpec spec;  // first two DDL attempts anywhere fail
  spec.op = FaultOp::kDdl;
  spec.kind = FaultKind::kTransientError;
  spec.first_attempt = 1;
  spec.last_attempt = 2;
  injector_.AddFault(spec);

  XdbSystem xdb(&fed_);
  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result->num_rows(), 10u);

  ASSERT_EQ(r->trace.retries.size(), 1u);
  const RetryEvent& ev = r->trace.retries[0];
  EXPECT_EQ(ev.op, FaultOp::kDdl);
  EXPECT_EQ(ev.attempts, 3);
  EXPECT_TRUE(ev.succeeded);
  EXPECT_DOUBLE_EQ(ev.backoff_seconds, 0.05 + 0.10);
  EXPECT_DOUBLE_EQ(r->trace.total_backoff_seconds, 0.15);
  EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kRetried);
  EXPECT_EQ(r->trace.replan_rounds, 0);
  ExpectClean();
}

TEST_F(FaultFixture, InjectedDelayAndBackoffAreChargedToModelledExec) {
  XdbSystem xdb(&fed_);
  auto clean = xdb.Query(kJoinSql);
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;  // exactly one DDL attempt fails, costing 1.5 modelled s
  spec.op = FaultOp::kDdl;
  spec.kind = FaultKind::kTransientError;
  spec.first_attempt = 1;
  spec.last_attempt = 1;
  spec.delay_seconds = 1.5;
  injector_.AddFault(spec);

  auto faulted = xdb.Query(kJoinSql);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_DOUBLE_EQ(faulted->trace.injected_delay_seconds, 1.5);
  EXPECT_DOUBLE_EQ(faulted->trace.total_backoff_seconds, 0.05);
  // Same run plus the injected delay and one backoff — nothing else moves.
  EXPECT_DOUBLE_EQ(faulted->phases.exec, clean->phases.exec + 1.5 + 0.05);
  ExpectClean();
}

TEST_F(FaultFixture, FetchLinkDropRetriesAndAccountsWastedBytes) {
  XdbSystem xdb(&fed_);
  auto clean = xdb.Query(kJoinSql);
  ASSERT_TRUE(clean.ok());
  const double clean_bytes = clean->transferred_bytes();

  FaultSpec drop;  // the first payload transfer aborts mid-flight
  drop.op = FaultOp::kTransfer;
  drop.kind = FaultKind::kLinkDrop;
  drop.first_attempt = 1;
  drop.last_attempt = 1;
  injector_.AddFault(drop);

  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result->num_rows(), 10u);

  ASSERT_EQ(r->trace.retries.size(), 1u);
  EXPECT_EQ(r->trace.retries[0].op, FaultOp::kFetch);
  EXPECT_EQ(r->trace.retries[0].attempts, 2);
  EXPECT_TRUE(r->trace.retries[0].succeeded);
  EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kRetried);

  int failed_transfers = 0;
  double wasted = 0;
  for (const auto& t : r->trace.transfers) {
    if (t.failed) {
      ++failed_transfers;
      wasted += t.bytes;
    }
  }
  EXPECT_EQ(failed_transfers, 1);
  EXPECT_GT(wasted, 0.0);
  // The aborted attempt's bytes really crossed the wire — accounted, not
  // erased.
  EXPECT_GT(r->transferred_bytes(), clean_bytes);
  ExpectClean();
}

// --------------------------------------------------------------------------
// Rollback + failover replanning
// --------------------------------------------------------------------------

TEST_F(FaultFixture, MidDeployFaultAtEveryDdlIndexRollsBackAndRecovers) {
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  const int ddl_total = probe->ddl_statements;
  ASSERT_GE(ddl_total, 3);

  // No in-place retry: every injected fault must force rollback + replan.
  fed_.set_retry_policy(RetryPolicy::NoRetry());
  for (int k = 1; k <= ddl_total; ++k) {
    FaultSpec spec;  // exactly the k-th DDL statement of this query fails
    spec.op = FaultOp::kDdl;
    spec.kind = FaultKind::kTransientError;
    spec.first_attempt = k;
    spec.last_attempt = k;
    int id = injector_.AddFault(spec);

    auto r = xdb.Query(kJoinSql);
    ASSERT_TRUE(r.ok()) << "DDL index " << k << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->result->num_rows(), 10u) << "DDL index " << k;
    EXPECT_GE(r->trace.replan_rounds, 1) << "DDL index " << k;
    EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kReplanned)
        << "DDL index " << k;
    EXPECT_FALSE(r->trace.retries.empty());
    ExpectClean();
    injector_.RemoveFault(id);
  }
}

TEST_F(FaultFixture, FailoverMovesPlacementOffTheFailingRoot) {
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  const std::string old_root = probe->xdb_query.server;

  FaultSpec spec;  // the old root refuses to run client queries, forever
  spec.server = old_root;
  spec.op = FaultOp::kQuery;
  spec.kind = FaultKind::kTransientError;
  injector_.AddFault(spec);

  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->xdb_query.server, old_root);
  EXPECT_EQ(r->result->num_rows(), 10u);
  EXPECT_EQ(r->trace.replan_rounds, 1);
  EXPECT_EQ(r->trace.recovery_action, RecoveryAction::kReplanned);
  ASSERT_EQ(r->trace.excluded_servers.size(), 1u);
  EXPECT_EQ(r->trace.excluded_servers[0], old_root);
  ExpectClean();
}

TEST_F(FaultFixture, UnrecoverableNodeDownNamesTheDeadNodeAndStaysClean) {
  injector_.MarkNodeDown("d2");

  XdbSystem xdb(&fed_);
  auto r = xdb.Query(kJoinSql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_NE(r.status().message().find("d2"), std::string::npos);

  const RunTrace& trace = xdb.last_trace();
  EXPECT_EQ(trace.recovery_action, RecoveryAction::kFailed);
  EXPECT_FALSE(trace.retries.empty());
  ExpectClean();

  // Mediator baselines degrade the same way (no failover by design).
  MediatorSystem garlic(&fed_, MediatorKind::kGarlic);
  EXPECT_FALSE(garlic.Query(kJoinSql).ok());
  ExpectClean();

  // The node coming back heals the federation.
  injector_.MarkNodeUp("d2");
  auto again = xdb.Query(kJoinSql);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  ExpectClean();
}

// --------------------------------------------------------------------------
// Determinism: same seed => identical run, bit for bit
// --------------------------------------------------------------------------

TEST(FaultDeterminismTest, SameSeedReproducesTheWholeRecoveryTrail) {
  auto run = [](uint64_t seed) {
    Federation fed;
    Populate(&fed);
    FaultInjector inj(seed);
    FaultSpec flaky;  // every fetch attempt fails with probability 0.5
    flaky.op = FaultOp::kFetch;
    flaky.kind = FaultKind::kTransientError;
    flaky.probability = 0.5;
    flaky.delay_seconds = 0.01;
    inj.AddFault(flaky);
    fed.SetFaultInjector(&inj);

    XdbSystem xdb(&fed);
    auto r = xdb.Query(kJoinSql);
    const RunTrace& trace = r.ok() ? r->trace : xdb.last_trace();
    size_t retry_attempts = 0;
    for (const auto& ev : trace.retries) retry_attempts += ev.attempts;
    return std::make_tuple(r.ok(), inj.faults_fired(), trace.retries.size(),
                           retry_attempts, trace.total_backoff_seconds,
                           trace.injected_delay_seconds, trace.replan_rounds,
                           trace.recovery_action,
                           r.ok() ? r->phases.exec : -1.0,
                           r.ok() ? r->transferred_bytes() : -1.0);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_EQ(run(99), run(99));
}

// --------------------------------------------------------------------------
// Cleanup: idempotent, and loud about what it could not drop
// --------------------------------------------------------------------------

TEST_F(FaultFixture, CleanupReportsMissingConnectorAndFinishesLater) {
  XdbSystem xdb(&fed_);
  std::map<std::string, DbmsConnector*> conns{{"d1", xdb.connector("d1")}};
  DelegationEngine engine(conns, &fed_);

  auto schema = d1_->DescribeRelation("t1");
  ASSERT_TRUE(schema.ok());
  auto stats = d1_->GetRelationStats("t1");
  ASSERT_TRUE(stats.ok());
  DelegationPlan plan;
  DelegationTask task;
  task.id = 1;
  task.server = "d1";
  task.view_name = "eng_probe";
  task.expr = PlanNode::MakeScan("d1", "t1", "t1", *schema, *stats);
  plan.tasks.push_back(std::move(task));

  ASSERT_TRUE(engine.Deploy(&plan).ok());
  EXPECT_FALSE(d1_->TransientRelations().empty());

  // The connector disappears: cleanup must say so, by server name, and
  // keep the relation on its ledger instead of silently leaking it.
  auto saved = engine.connectors_for_test();
  engine.connectors_for_test().clear();
  Status st = engine.Cleanup();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCatalogError());
  EXPECT_NE(st.message().find("d1"), std::string::npos);
  EXPECT_NE(st.message().find("eng_probe"), std::string::npos);
  EXPECT_EQ(engine.pending_cleanup().size(), 1u);

  // Connector restored: a later Cleanup finishes the job.
  engine.connectors_for_test() = saved;
  EXPECT_TRUE(engine.Cleanup().ok());
  EXPECT_EQ(engine.pending_cleanup().size(), 0u);
  ExpectClean();
}

// A DROP failing after a successful execute leaks a relation, but it does
// not cost the caller the answer: the result comes back, the winning
// round's trace stays inspectable, and the leaked relation is listed on it.
TEST_F(FaultFixture, CleanupFailureAfterExecuteKeepsResultAndListsLeak) {
  XdbSystem xdb(&fed_);
  auto probe = xdb.Query(kJoinSql);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->trace.leaked_relations.empty());

  fed_.set_retry_policy(RetryPolicy::NoRetry());
  FaultSpec spec;  // the query's first DROP: its DDL after the deployment
  spec.op = FaultOp::kDdl;
  spec.kind = FaultKind::kTransientError;
  spec.first_attempt = probe->ddl_statements + 1;
  spec.last_attempt = probe->ddl_statements + 1;
  injector_.AddFault(spec);

  auto r = xdb.Query(kJoinSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result->ToDisplayString(100),
            probe->result->ToDisplayString(100));
  ASSERT_EQ(r->trace.leaked_relations.size(), 1u);
  const auto& [server, relation] = r->trace.leaked_relations[0];
  const std::vector<std::string> left =
      fed_.GetServer(server)->TransientRelations();
  EXPECT_NE(std::find(left.begin(), left.end(), relation), left.end())
      << server << "." << relation;

  const RunTrace& trace = xdb.last_trace();
  EXPECT_EQ(trace.leaked_relations, r->trace.leaked_relations);
  EXPECT_EQ(trace.transfers.size(), probe->trace.transfers.size());
  EXPECT_DOUBLE_EQ(trace.TotalTransferredBytes(),
                   probe->trace.TotalTransferredBytes());
}

TEST_F(FaultFixture, CleanupRetriesRelationsBlockedByAFaultWindow) {
  XdbSystem xdb(&fed_);
  std::map<std::string, DbmsConnector*> conns{{"d1", xdb.connector("d1")}};
  DelegationEngine engine(conns, &fed_);

  auto schema = d1_->DescribeRelation("t1");
  ASSERT_TRUE(schema.ok());
  auto stats = d1_->GetRelationStats("t1");
  ASSERT_TRUE(stats.ok());
  DelegationPlan plan;
  DelegationTask task;
  task.id = 1;
  task.server = "d1";
  task.view_name = "eng_probe";
  task.expr = PlanNode::MakeScan("d1", "t1", "t1", *schema, *stats);
  plan.tasks.push_back(std::move(task));
  ASSERT_TRUE(engine.Deploy(&plan).ok());

  // Every DDL on d1 fails for a while: the DROP cannot get through.
  fed_.set_retry_policy(RetryPolicy::NoRetry());
  FaultSpec spec;
  spec.server = "d1";
  spec.op = FaultOp::kDdl;
  spec.kind = FaultKind::kTransientError;
  int id = injector_.AddFault(spec);

  Status st = engine.Cleanup();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsRetryable());
  EXPECT_EQ(engine.pending_cleanup().size(), 1u);
  EXPECT_TRUE(d1_->HasRelation("eng_probe"));

  // Fault window over: the retained ledger entry is dropped after all.
  injector_.RemoveFault(id);
  EXPECT_TRUE(engine.Cleanup().ok());
  EXPECT_EQ(engine.pending_cleanup().size(), 0u);
  ExpectClean();
}

}  // namespace
}  // namespace xdb
