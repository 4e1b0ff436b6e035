// Deterministic passes over the observability layer. Hook parity: TPC-H
// Q3 runs with the observability stack fully detached and then fully
// attached (spans + metrics + query log + per-operator profilers); modelled
// seconds and transfer bytes must be bit-identical, and both reports are
// recorded — the attached one carries the full estimate-vs-actual ledger.
// Introspection: after a short workload, each xdb_stat table's shape and a
// SELECT over xdb_stat.queries that must render identically on consecutive
// probes. With --json the runs are recorded for comparison against the
// committed bench/baseline/BENCH_obs.json (the CI watchdog artifact).

#include <chrono>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "src/dbms/server.h"
#include "src/exec/profile.h"
#include "src/obs/introspect.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace xdb {
namespace bench {
namespace {

constexpr double kMicroSf = 0.002;

// --------------------------------------------------------------------------
// Hook parity. One query runs with the observability stack detached and
// then fully attached; modelled numbers must be bit-identical, and the
// attached run's estimate ledger (per-operator + transfer est/act/q-error
// records) rides into the JSON for baseline comparison.
// --------------------------------------------------------------------------

void RunHookParityScenarios() {
  PrintHeader("Observability hook parity (TD1, SF 0.002)");
  JsonReport& json = JsonReport::Instance();
  const auto& sql = tpch::FindQuery("Q3")->sql;

  // Detached: no observers anywhere — the reference numbers.
  XdbReport detached;
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    XdbSystem xdb(fed.get());
    auto r = xdb.Query(sql);
    if (!r.ok()) {
      std::printf("detached query FAILED: %s\n",
                  r.status().ToString().c_str());
      return;
    }
    detached = *r;
    json.Record("XDB/hooks-detached", sql, *r);
  }

  // Attached: spans + metrics + query log + a per-operator profiler on
  // every component DBMS (the EXPLAIN ANALYZE configuration). Local sinks
  // stand in when the corresponding CLI flag did not supply one.
  {
    auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
    SpanRecorder local_spans;
    MetricsRegistry local_metrics;
    QueryLog local_log(64);
    fed->SetSpanRecorder(json.spans() != nullptr ? json.spans()
                                                 : &local_spans);
    fed->SetMetricsRegistry(json.metrics() != nullptr ? json.metrics()
                                                      : &local_metrics);
    QueryLog* qlog =
        json.query_log() != nullptr ? json.query_log() : &local_log;
    fed->SetQueryLog(qlog);
    std::map<std::string, OperatorProfiler> profilers;
    for (const auto& name : fed->ServerNames()) {
      fed->GetServer(name)->set_profiler(&profilers[name]);
    }
    XdbSystem xdb(fed.get());
    auto r = xdb.Query(sql);
    if (!r.ok()) {
      std::printf("attached query FAILED: %s\n",
                  r.status().ToString().c_str());
      return;
    }
    json.Record("XDB/hooks-attached", sql, *r);

    const bool parity =
        r->phases.total() == detached.phases.total() &&
        r->trace.TotalTransferredBytes() ==
            detached.trace.TotalTransferredBytes() &&
        r->result->num_rows() == detached.result->num_rows();
    std::printf("parity: %s — attached %.6fs / %.0f B vs detached "
                "%.6fs / %.0f B\n",
                parity ? "BIT-IDENTICAL" : "DIVERGED", r->phases.total(),
                r->trace.TotalTransferredBytes(), detached.phases.total(),
                detached.trace.TotalTransferredBytes());
    size_t operators = 0;
    for (const auto& [name, prof] : profilers) {
      operators += prof.records().size();
    }
    std::printf("accountability: %zu profiled operator(s), %zu estimate "
                "ledger record(s), max q-error %.2f\n",
                operators, r->trace.estimates.size(),
                r->trace.MaxQError());
  }
}

// --------------------------------------------------------------------------
// Introspection pass: provider snapshot overhead (wall-clock, printed) and
// a deterministic SELECT over xdb_stat.queries whose rendering must be
// stable across consecutive probes. With --json the probe run and a
// deterministic "introspection" block (per-table row/column counts, probe
// shape) ride into the artifact for schema validation and baselining.
// --------------------------------------------------------------------------

void RunIntrospectionScenarios() {
  PrintHeader("System introspection (xdb_stat.*, TD1, SF 0.002)");
  JsonReport& json = JsonReport::Instance();
  auto fed = tpch::BuildTpchFederation(kMicroSf, tpch::TD1());
  QueryLog log(64);
  fed->SetQueryLog(&log);
  XdbSystem xdb(fed.get());
  IntrospectionRegistry* reg = xdb.EnableIntrospection();

  // Workload history for the probe below: Q3 twice under a stable label.
  const auto& sql = tpch::FindQuery("Q3")->sql;
  QueryContext ctx;
  ctx.label = "Q3";
  for (int i = 0; i < 2; ++i) {
    auto r = xdb.Query(sql, ctx);
    if (!r.ok()) {
      std::printf("workload query FAILED: %s\n",
                  r.status().ToString().c_str());
      return;
    }
  }

  // Per-provider snapshot cost (wall-clock; stdout only — never JSON) and
  // the deterministic shape of each table after the workload.
  std::string tables_json = "[";
  bool first = true;
  for (const std::string& name : reg->TableNames()) {
    const SystemTableProvider* provider = reg->Find(name);
    constexpr int kReps = 100;
    auto start = std::chrono::steady_clock::now();
    TablePtr snap;
    for (int i = 0; i < kReps; ++i) snap = provider->Snapshot();
    std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    std::printf("xdb_stat.%-10s  %4zu row(s) x %zu col(s)  %8.2f us/snapshot\n",
                name.c_str(), snap->num_rows(), snap->schema().num_fields(),
                elapsed.count() / kReps);
    if (!first) tables_json += ',';
    first = false;
    tables_json += "{\"name\":\"" + JsonWriter::Escape(name) +
                   "\",\"rows\":" + std::to_string(snap->num_rows()) +
                   ",\"columns\":" +
                   std::to_string(snap->schema().num_fields()) + "}";
  }
  tables_json += "]";

  // Deterministic probe: aggregates the workload label only and runs under
  // a different label, so its own (recorded) history rows never match the
  // filter — consecutive probes must render byte-identically.
  const std::string probe =
      "SELECT q.label, q.status, COUNT(*) AS runs, "
      "SUM(q.useful_bytes) AS bytes FROM xdb_stat.queries q "
      "WHERE q.label = 'Q3' GROUP BY q.label, q.status "
      "ORDER BY q.label, q.status";
  QueryContext probe_ctx;
  probe_ctx.label = "introspect-probe";
  auto p1 = xdb.Query(probe, probe_ctx);
  auto p2 = xdb.Query(probe, probe_ctx);
  if (!p1.ok() || !p2.ok()) {
    std::printf("probe FAILED: %s\n",
                (p1.ok() ? p2 : p1).status().ToString().c_str());
    return;
  }
  const bool stable = p1->result->ToDisplayString(100) ==
                      p2->result->ToDisplayString(100);
  const bool pinned = p2->metadata_roundtrips == 0 &&
                      p2->trace.transfers.empty() && !p2->plan_cache_hit;
  std::printf("probe: %zu row(s), %s, %s — %.6fs modelled\n",
              p2->result->num_rows(),
              stable ? "STABLE across reruns" : "UNSTABLE",
              pinned ? "mediator-local (0 roundtrips, 0 transfers)"
                     : "NOT PINNED",
              p2->phases.total());
  json.Record("XDB/introspect-probe", probe, *p2);
  json.SetExtraBlock(
      "introspection",
      "{\"tables\":" + tables_json + ",\"probe_sql\":\"" +
          JsonWriter::Escape(probe) +
          "\",\"probe_rows\":" + std::to_string(p2->result->num_rows()) +
          ",\"probe_stable\":" + (stable ? "true" : "false") +
          ",\"probe_pinned\":" + (pinned ? "true" : "false") + "}");
}

void Run() {
  RunHookParityScenarios();
  RunIntrospectionScenarios();
}

}  // namespace
}  // namespace bench
}  // namespace xdb

XDB_BENCH_MAIN("micro_obs")
