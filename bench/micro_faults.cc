// Deterministic degradation scenarios of the fault-injection framework:
// each graceful-degradation path — retry heal, failover replan, partial
// result on node-down, deadline-bounded partial, breaker avoidance —
// executes one seeded, schedule-independent TPC-H Q3. Recovery is charged
// to the timing model, never to real sleeps, so the modelled phases and
// bytes are bit-identical run to run. With --json the runs are recorded
// for comparison against the committed bench/baseline/BENCH_faults.json
// (the CI watchdog artifact).

#include "bench/bench_common.h"
#include "src/dbms/health.h"
#include "src/testing/fault_injector.h"

namespace xdb {
namespace bench {
namespace {

constexpr double kMicroSf = 0.002;

// Every scenario builds a fresh seeded federation, drives exactly one
// recovery path, and records the final (successful) query.

void PrintScenarioRow(const char* label, const XdbReport& r) {
  std::printf("%-24s %10.3f %12.0f %10s %5.0f%% lost=%zu retries=%zu\n",
              label, r.phases.total(), r.trace.TotalTransferredBytes(),
              RecoveryActionToString(r.trace.recovery_action),
              r.completeness.completeness_fraction * 100.0,
              r.completeness.lost.size(), r.trace.retries.size());
}

void RecordScenario(JsonReport* json, const char* label,
                    const std::string& sql, const Result<XdbReport>& r) {
  if (!r.ok()) {
    std::printf("%-24s FAILED: %s\n", label, r.status().ToString().c_str());
    return;
  }
  PrintScenarioRow(label, *r);
  json->Record(label, sql, *r);
}

void RunDegradationScenarios() {
  PrintHeader("Deterministic degradation scenarios (TD1, SF 0.002)");
  JsonReport& json = JsonReport::Instance();
  const auto& sql = tpch::FindQuery("Q3")->sql;
  std::printf("%-24s %10s %12s %10s %6s\n", "scenario", "total[s]", "bytes",
              "recovery", "compl");

  auto attach = [&json](Federation* fed) {
    fed->SetSpanRecorder(json.spans());
    fed->SetMetricsRegistry(json.metrics());
    fed->SetQueryLog(json.query_log());
  };

  // Retry heal: one transient DDL fault, healed in place by the backoff
  // loop — complete result, one retry on the trail.
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    attach(fed.get());
    FaultInjector inj(11);
    fed->SetFaultInjector(&inj);
    XdbSystem xdb(fed.get());
    FaultSpec spec;
    spec.op = FaultOp::kDdl;
    spec.kind = FaultKind::kTransientError;
    spec.first_attempt = 1;
    spec.last_attempt = 1;
    inj.AddFault(spec);
    RecordScenario(&json, "XDB/retry-heal", sql, xdb.Query(sql));
  }

  // Failover replan: the root DBMS dies persistently; recovery rolls back
  // and replans on an alternate placement — complete result, replanned.
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    attach(fed.get());
    FaultInjector inj(12);
    fed->SetFaultInjector(&inj);
    XdbSystem xdb(fed.get());
    auto probe = xdb.Query(sql);
    if (probe.ok()) {
      FaultSpec spec;
      spec.server = probe->xdb_query.server;
      spec.op = FaultOp::kQuery;
      spec.kind = FaultKind::kTransientError;
      inj.AddFault(spec);
      RecordScenario(&json, "XDB/failover-replan", sql, xdb.Query(sql));
    }
  }

  // Partial on node-down: a non-root DBMS stops serving fetches and the
  // query opted into partial results — surviving fragments, degraded.
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    attach(fed.get());
    FaultInjector inj(13);
    fed->SetFaultInjector(&inj);
    XdbSystem xdb(fed.get());
    auto probe = xdb.Query(sql);
    if (probe.ok() && !probe->trace.transfers.empty()) {
      // The first fetched-from server in the healthy plan is the victim.
      FaultSpec spec;
      spec.server = probe->trace.transfers.front().src;
      spec.op = FaultOp::kFetch;
      spec.kind = FaultKind::kTransientError;
      inj.AddFault(spec);
      QueryContext ctx;
      ctx.allow_partial = true;
      RecordScenario(&json, "XDB/partial-node-down", sql,
                     xdb.Query(sql, ctx));
    }
  }

  // Deadline partial: same node-down, but the retry backoff no longer fits
  // the remaining deadline budget — the fragment is abandoned early with
  // reason "deadline" instead of burning the full retry schedule.
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    attach(fed.get());
    FaultInjector inj(13);
    fed->SetFaultInjector(&inj);
    XdbSystem xdb(fed.get());
    auto probe = xdb.Query(sql);
    if (probe.ok() && !probe->trace.transfers.empty()) {
      RetryPolicy slow;
      slow.initial_backoff_seconds = 100.0;
      slow.max_backoff_seconds = 100.0;
      fed->set_retry_policy(slow);
      FaultSpec spec;
      spec.server = probe->trace.transfers.front().src;
      spec.op = FaultOp::kFetch;
      spec.kind = FaultKind::kTransientError;
      inj.AddFault(spec);
      QueryContext ctx;
      ctx.deadline_seconds = probe->total_seconds() + 1.0;
      ctx.allow_partial = true;
      RecordScenario(&json, "XDB/deadline-partial", sql, xdb.Query(sql, ctx));
    }
  }

  // Breaker avoidance: the healthy root's breaker is tripped (as repeated
  // retryable failures would), so planning routes the next query around it
  // up front — complete result, different placement, zero retries.
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    attach(fed.get());
    HealthTracker health;
    fed->SetHealthTracker(&health);
    XdbSystem xdb(fed.get());
    auto probe = xdb.Query(sql);
    if (probe.ok()) {
      for (int i = 0; i < 3; ++i) {
        health.RecordOutcome(probe->xdb_query.server, false);
      }
      RecordScenario(&json, "XDB/breaker-avoidance", sql, xdb.Query(sql));
    }
  }
  std::printf(
      "\nReading: every scenario ends in a successful query. retry/replan "
      "stay complete\n(100%%); the partial scenarios trade completeness for "
      "bounded modelled time;\nbreaker avoidance pays a placement penalty "
      "but zero retries.\n");
}

void Run() { RunDegradationScenarios(); }

}  // namespace
}  // namespace bench
}  // namespace xdb

XDB_BENCH_MAIN("micro_faults")
