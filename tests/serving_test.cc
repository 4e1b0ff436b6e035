// Concurrent multi-tenant serving (ISSUE 6 tentpole): fair tagged morsel
// scheduling, the session layer's DDL namespacing and admission control,
// and — the core invariant — per-session results bit-identical to serial
// execution even with concurrent sessions and fault injection. These
// suites run under TSan in CI (`-R 'Serving|PlanCache'`).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dbms/federation.h"
#include "src/dbms/server.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/testing/fault_injector.h"
#include "src/xdb/session.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

// --- Fair morsel scheduling ---

TEST(ServingFairScheduling, RoundRobinAcrossQueryTags) {
  ThreadPool pool(1);  // single worker => execution order is deterministic
  std::promise<void> gate;
  std::shared_future<void> gate_f = gate.get_future().share();
  std::promise<void> gate_running;

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    std::lock_guard<std::mutex> lock(mu);
    order.emplace_back(name);
  };

  // Block the worker so the backlog below queues up in a known state.
  pool.Submit(1, [&] {
    gate_running.set_value();
    gate_f.wait();
  });
  gate_running.get_future().wait();

  // Query A floods three morsels before query B submits one. A strict FIFO
  // would run a1 a2 a3 b1; the fair scheduler alternates tags.
  pool.Submit(2, [&] { record("a1"); });
  pool.Submit(2, [&] { record("a2"); });
  pool.Submit(2, [&] { record("a3"); });
  pool.Submit(3, [&] { record("b1"); });

  std::promise<void> done;
  pool.Submit(2, [&] { done.set_value(); });  // tail of A's queue: runs last
  gate.set_value();
  done.get_future().wait();

  // Tag rotation at gate release: a1, b1, a2, a3, done — the assertion
  // that matters is b1 running before a2/a3.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a1");
  EXPECT_EQ(order[1], "b1");
  EXPECT_EQ(order[2], "a2");
  EXPECT_EQ(order[3], "a3");
}

TEST(ServingFairScheduling, ScopedQueryTagNestsAndRestores) {
  EXPECT_EQ(CurrentQueryTag(), 0u);
  {
    ScopedQueryTag outer(7);
    EXPECT_EQ(CurrentQueryTag(), 7u);
    {
      ScopedQueryTag inner(9);
      EXPECT_EQ(CurrentQueryTag(), 9u);
    }
    EXPECT_EQ(CurrentQueryTag(), 7u);
  }
  EXPECT_EQ(CurrentQueryTag(), 0u);
}

// --- Session-layer fixture: 2-node federation, 3 query shapes ---

const char* kQueries[] = {
    "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a",
    "SELECT t1.a, t1.b FROM t1 WHERE t1.a > 3",
    "SELECT COUNT(*) AS n, SUM(t2.c) AS s FROM t2",
};
constexpr int kNumQueries = 3;

void Populate(Federation* fed) {
  fed->SetNetwork(Network::Lan({"d1", "d2"}));
  DatabaseServer* d1 = fed->AddServer("d1", EngineProfile::Postgres());
  DatabaseServer* d2 = fed->AddServer("d2", EngineProfile::MariaDb());
  auto t = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  auto u = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
  for (int i = 0; i < 40; ++i) {
    t->AppendRow({Value::Int64(i), Value::Int64(i * 3)});
    u->AppendRow({Value::Int64(i % 20), Value::Int64(i * 10)});
  }
  ASSERT_TRUE(d1->CreateBaseTable("t1", t).ok());
  ASSERT_TRUE(d2->CreateBaseTable("t2", u).ok());
}

class ServingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Populate(&fed_);
    // Serial reference results from an identical, fault-free federation.
    Populate(&ref_fed_);
    XdbSystem ref(&ref_fed_);
    for (const char* sql : kQueries) {
      auto r = ref.Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      reference_[sql] = r->result->ToDisplayString(1000);
    }
  }

  Federation fed_;
  Federation ref_fed_;
  std::map<std::string, std::string> reference_;
};

// The stress test the TSan CI job is built around: >=8 concurrent sessions,
// >=100 queries each, transient faults firing throughout — and still every
// successful query's result table is byte-identical to the serial run.
TEST_F(ServingFixture, ConcurrentSessionsMatchSerialUnderFaults) {
  constexpr int kSessions = 8;
  constexpr int kPerSession = 102;  // 34 rounds x 3 query shapes

  FaultInjector injector(23);
  // A transient query-level fault somewhere every 17th execution: retries
  // (and occasionally failover replanning) fire constantly under load.
  FaultSpec spec;
  spec.op = FaultOp::kQuery;
  spec.kind = FaultKind::kTransientError;
  spec.every_nth = 17;
  injector.AddFault(spec);
  fed_.SetFaultInjector(&injector);

  XdbOptions opts;
  opts.plan_cache_capacity = 16;
  opts.exec_threads = 2;  // morsel workers shared across sessions
  XdbSystem xdb(&fed_, opts);
  SessionManager manager(&xdb);

  std::vector<std::unique_ptr<XdbSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.OpenSession());
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    XdbSession* session = sessions[i].get();
    threads.emplace_back([&, session] {
      for (int q = 0; q < kPerSession; ++q) {
        const char* sql = kQueries[q % kNumQueries];
        auto r = session->Query(sql);
        if (!r.ok()) continue;  // recovery exhausted: counted, not compared
        successes.fetch_add(1);
        if (r->result->ToDisplayString(1000) != reference_[sql]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Transient faults are retried (3 attempts) and replanned; virtually all
  // queries should come back. The floor just guards against a pathological
  // all-failed run.
  EXPECT_GE(successes.load(), kSessions * kPerSession * 9 / 10);
  EXPECT_EQ(manager.total_queries(), kSessions * kPerSession);
  EXPECT_GT(injector.faults_fired(), 0);
  fed_.SetFaultInjector(nullptr);
}

TEST_F(ServingFixture, SessionsGetDistinctDdlNamespaces) {
  XdbSystem xdb(&fed_);
  SessionManager manager(&xdb);
  auto s1 = manager.OpenSession();
  auto s2 = manager.OpenSession();
  ASSERT_NE(s1->ddl_prefix(), s2->ddl_prefix());
  EXPECT_EQ(s1->ddl_prefix(), "xdb_s1");
  EXPECT_EQ(s2->ddl_prefix(), "xdb_s2");

  auto r1 = s1->Query(kQueries[0]);
  auto r2 = s2->Query(kQueries[0]);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Deployed relation names carry the session namespace, so concurrent
  // deployments cannot collide even for identical SQL.
  ASSERT_FALSE(r1->plan.tasks.empty());
  for (const auto& task : r1->plan.tasks) {
    EXPECT_EQ(task.view_name.rfind("xdb_s1_q", 0), 0u) << task.view_name;
  }
  for (const auto& task : r2->plan.tasks) {
    EXPECT_EQ(task.view_name.rfind("xdb_s2_q", 0), 0u) << task.view_name;
  }
  EXPECT_EQ(r1->result->ToDisplayString(1000), reference_[kQueries[0]]);
  EXPECT_EQ(r2->result->ToDisplayString(1000), reference_[kQueries[0]]);
}

// Many sessions deploying the *same* SQL at the same instant: without
// per-session namespaces these CTAS/VIEW names would collide on the shared
// servers (CatalogError); with them every run must succeed.
TEST_F(ServingFixture, ConcurrentIdenticalQueriesNeverCollide) {
  XdbSystem xdb(&fed_);
  SessionManager manager(&xdb);
  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<XdbSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.OpenSession());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    XdbSession* session = sessions[i].get();
    threads.emplace_back([&, session] {
      for (int rep = 0; rep < 5; ++rep) {
        auto r = session->Query(kQueries[0]);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Nothing left deployed on either server.
  EXPECT_TRUE(fed_.GetServer("d1")->TransientRelations().empty());
  EXPECT_TRUE(fed_.GetServer("d2")->TransientRelations().empty());
}

TEST_F(ServingFixture, AdmissionControlBoundsInflightQueries) {
  XdbSystem xdb(&fed_);
  ServingOptions sopts;
  sopts.max_concurrent_queries = 2;
  SessionManager manager(&xdb, sopts);

  constexpr int kSessions = 6;
  std::vector<std::unique_ptr<XdbSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.OpenSession());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    XdbSession* session = sessions[i].get();
    threads.emplace_back([&, session] {
      for (int rep = 0; rep < 4; ++rep) {
        auto r = session->Query(kQueries[(rep + 1) % kNumQueries]);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.total_queries(), kSessions * 4);
}

TEST_F(ServingFixture, SharedPlanCacheServesAllSessionsIdentically) {
  XdbOptions opts;
  opts.plan_cache_capacity = 8;
  XdbSystem xdb(&fed_, opts);
  SessionManager manager(&xdb);

  // Warm serially, then hammer from 8 sessions: every result must equal
  // the cold-planned one and (after warmup) every lookup must hit.
  {
    auto warm = manager.OpenSession();
    for (const char* sql : kQueries) ASSERT_TRUE(warm->Query(sql).ok());
  }
  const int64_t miss_mark = xdb.plan_cache()->misses();

  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<XdbSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.OpenSession());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    XdbSession* session = sessions[i].get();
    threads.emplace_back([&, session] {
      for (int rep = 0; rep < 12; ++rep) {
        const char* sql = kQueries[rep % kNumQueries];
        auto r = session->Query(sql);
        if (!r.ok() || r->result->ToDisplayString(1000) != reference_[sql]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(xdb.plan_cache()->misses(), miss_mark);  // all hits after warmup
  int64_t session_hits = 0;
  for (const auto& s : sessions) session_hits += s->plan_cache_hits();
  EXPECT_EQ(session_hits, kSessions * 12);
}

TEST_F(ServingFixture, PerSessionSpanRecordersIsolateTimelines) {
  XdbSystem xdb(&fed_);
  ServingOptions sopts;
  sopts.session_span_capacity = 256;
  SessionManager manager(&xdb, sopts);
  auto s1 = manager.OpenSession();
  auto s2 = manager.OpenSession();
  ASSERT_NE(s1->spans(), nullptr);
  ASSERT_TRUE(s1->Query(kQueries[0]).ok());
  ASSERT_TRUE(s2->Query(kQueries[1]).ok());
  // Each session recorded exactly its own query's timeline.
  auto count_roots = [](SpanRecorder* rec) {
    int n = 0;
    for (const auto& s : rec->spans()) {
      if (s.name.rfind("query ", 0) == 0) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_roots(s1->spans()), 1);
  EXPECT_EQ(count_roots(s2->spans()), 1);
}

TEST_F(ServingFixture, SessionAndGaugeMetricsExported) {
  MetricsRegistry metrics;
  fed_.SetMetricsRegistry(&metrics);
  XdbSystem xdb(&fed_);
  SessionManager manager(&xdb);
  {
    auto s1 = manager.OpenSession();
    auto s2 = manager.OpenSession();
    EXPECT_EQ(metrics.GetGauge("xdb_active_sessions")->Value(), 2.0);
    ASSERT_TRUE(s1->Query(kQueries[0]).ok());
  }
  EXPECT_EQ(metrics.GetGauge("xdb_active_sessions")->Value(), 0.0);
  EXPECT_EQ(metrics.GetCounter("xdb_sessions_opened_total")->Value(), 2.0);
  fed_.SetMetricsRegistry(nullptr);
}

// --- Per-query failure attribution under concurrency ---

// Two sessions over disjoint server pairs, each hitting fetch faults on its
// own producers at the same time. Failover exclusions and injected delay
// come back from each query's own fault sites, so neither session may blame
// (or be charged for) a server only the other one touched.
TEST(ServingFailover, ConcurrentSessionsAttributeOnlyTheirOwnFaults) {
  struct Tenant {
    std::string left, right, sql;
    double delay;  // each fired fault's modelled delay; distinct per tenant
  };
  const Tenant tenants[2] = {
      {"d1", "d2", "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a", 0.75},
      {"d3", "d4", "SELECT t3.b, t4.c FROM t3, t4 WHERE t3.a = t4.a", 64.0},
  };
  Federation fed;
  fed.SetNetwork(Network::Lan({"d1", "d2", "d3", "d4"}));
  for (const Tenant& t : tenants) {
    const std::string l = "t" + t.left.substr(1);
    const std::string r = "t" + t.right.substr(1);
    auto lt = std::make_shared<Table>(
        Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
    auto rt = std::make_shared<Table>(
        Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
    for (int i = 0; i < 30; ++i) {
      lt->AppendRow({Value::Int64(i), Value::Int64(i * 3)});
      rt->AppendRow({Value::Int64(i % 15), Value::Int64(i * 10)});
    }
    ASSERT_TRUE(fed.AddServer(t.left, EngineProfile::Postgres())
                    ->CreateBaseTable(l, lt)
                    .ok());
    ASSERT_TRUE(fed.AddServer(t.right, EngineProfile::MariaDb())
                    ->CreateBaseTable(r, rt)
                    .ok());
  }

  // Every second fetch from either of a tenant's servers fails, with no
  // in-place retry: the round is lost and failover excludes the server the
  // failure names. The per-spec counters only advance on the tenant's own
  // fetches, so each session's sequence is deterministic.
  FaultInjector injector(7);
  for (const Tenant& t : tenants) {
    for (const std::string& server : {t.left, t.right}) {
      FaultSpec spec;
      spec.server = server;
      spec.op = FaultOp::kFetch;
      spec.kind = FaultKind::kTransientError;
      spec.every_nth = 2;
      spec.delay_seconds = t.delay;
      injector.AddFault(spec);
    }
  }
  fed.SetFaultInjector(&injector);
  fed.set_retry_policy(RetryPolicy::NoRetry());

  // One system per session, so each thread can read its own last_trace()
  // after a failed query too; the federation and injector are shared.
  // Implicit movement runs every fetch inside the root's query: no failed
  // DDL names a server, so the culprit comes from the fetch site alone.
  XdbOptions opts;
  opts.movement_policy = 1;
  XdbSystem systems[2] = {XdbSystem(&fed, opts), XdbSystem(&fed, opts)};
  constexpr int kPairs = 60;
  struct Outcome {
    int ok = 0, replanned = 0, misattributed = 0, mischarged = 0;
  };
  Outcome outcomes[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const Tenant& t = tenants[i];
      Outcome& out = outcomes[i];
      SessionManager manager(&systems[i]);
      auto session = manager.OpenSession();
      for (int q = 0; q < kPairs; ++q) {
        out.ok += session->Query(t.sql).ok() ? 1 : 0;
        const RunTrace& trace = systems[i].last_trace();
        if (trace.replan_rounds > 0) ++out.replanned;
        for (const auto& s : trace.excluded_servers) {
          if (s != t.left && s != t.right) ++out.misattributed;
        }
        // A whole number of this tenant's own fault delays. Any of the
        // other tenant's delays breaks that: 64 is not a multiple of 0.75,
        // and three rounds of 0.75 stay far below 64.
        const double delay = trace.injected_delay_seconds;
        if (std::fmod(delay, t.delay) != 0.0 ||
            (i == 0 && delay >= tenants[1].delay)) {
          ++out.mischarged;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(tenants[i].sql);
    EXPECT_GT(outcomes[i].ok, kPairs / 2);
    EXPECT_GT(outcomes[i].replanned, 0);
    EXPECT_EQ(outcomes[i].misattributed, 0);
    EXPECT_EQ(outcomes[i].mischarged, 0);
  }
  for (const char* server : {"d1", "d2", "d3", "d4"}) {
    EXPECT_TRUE(fed.GetServer(server)->TransientRelations().empty());
  }
  fed.SetFaultInjector(nullptr);
}

// --- QueryLog drift detection (ISSUE 6 satellite) ---

QueryStats MakeStats(const std::string& label, double exec_seconds) {
  QueryStats qs;
  qs.label = label;
  qs.system = "xdb";
  qs.sql = "SELECT 1";
  qs.exec_seconds = exec_seconds;
  return qs;
}

TEST(ServingQueryLogDrift, FlagsRunsDivergingFromLabelHistory) {
  QueryLog log(32);
  log.set_drift_threshold(0.25);
  for (int i = 0; i < 4; ++i) log.Record(MakeStats("Q5", 10.0));
  EXPECT_TRUE(log.DriftEvents().empty());

  log.Record(MakeStats("Q5", 10.5));  // +5%: within threshold
  EXPECT_TRUE(log.DriftEvents().empty());

  log.Record(MakeStats("Q5", 14.0));  // +39%: drift
  auto events = log.DriftEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].label, "Q5");
  EXPECT_NEAR(events[0].expected_seconds, 10.1, 0.01);
  EXPECT_EQ(events[0].actual_seconds, 14.0);
  EXPECT_GT(events[0].delta_fraction, 0.25);

  log.Record(MakeStats("Q5", 6.0));  // regression downward drifts too
  EXPECT_EQ(log.DriftEvents().size(), 2u);
  EXPECT_LT(log.DriftEvents()[1].delta_fraction, 0.0);
}

TEST(ServingQueryLogDrift, NeedsMinimumHistoryAndIgnoresFailures) {
  QueryLog log(32);
  log.Record(MakeStats("Q1", 10.0));
  log.Record(MakeStats("Q1", 100.0));  // only 1 prior sample: no drift yet
  EXPECT_TRUE(log.DriftEvents().empty());

  QueryLog log2(32);
  for (int i = 0; i < 3; ++i) log2.Record(MakeStats("Q2", 10.0));
  QueryStats failed = MakeStats("Q2", 500.0);
  failed.ok = false;
  log2.Record(failed);  // failures are never drift-scored...
  EXPECT_TRUE(log2.DriftEvents().empty());
  log2.Record(MakeStats("Q2", 10.0));  // ...nor do they poison the mean
  EXPECT_TRUE(log2.DriftEvents().empty());
}

TEST(ServingQueryLogDrift, DrilldownSurfacesAggregatesAndDrift) {
  QueryLog log(32);
  for (int i = 0; i < 4; ++i) log.Record(MakeStats("Q7", 10.0));
  log.Record(MakeStats("Q7", 20.0));
  QueryStats hit = MakeStats("Q7", 10.0);
  hit.plan_cache_hit = true;
  log.Record(hit);

  auto lines = log.LabelDrilldown("Q7");
  ASSERT_FALSE(lines.empty());
  std::string all;
  for (const auto& l : lines) all += l + "\n";
  EXPECT_NE(all.find("Q7: 6 run(s)"), std::string::npos) << all;
  EXPECT_NE(all.find("1 served from plan cache"), std::string::npos) << all;
  EXPECT_NE(all.find("drift: 1 run(s)"), std::string::npos) << all;
  EXPECT_NE(all.find("expected 10.000s, got 20.000s"), std::string::npos)
      << all;

  // Unknown label lists the vocabulary instead.
  auto unknown = log.LabelDrilldown("nope");
  ASSERT_FALSE(unknown.empty());
  EXPECT_NE(unknown[0].find("unknown label"), std::string::npos);
}

TEST(ServingQueryLogDrift, SummaryMentionsDrift) {
  QueryLog log(8);
  for (int i = 0; i < 4; ++i) log.Record(MakeStats("Q3", 10.0));
  log.Record(MakeStats("Q3", 99.0));
  std::string all;
  for (const auto& l : log.Summary()) all += l + "\n";
  EXPECT_NE(all.find("drift: 1 run(s)"), std::string::npos) << all;
}

TEST(ServingQueryLogDrift, ConcurrentRecordIsSafe) {
  QueryLog log(128);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&log, i] {
      for (int j = 0; j < kPerThread; ++j) {
        log.Record(MakeStats("T" + std::to_string(i), 10.0));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(log.SnapshotEntries().size(), 128u);
}

}  // namespace
}  // namespace xdb
