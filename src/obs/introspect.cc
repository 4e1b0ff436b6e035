#include "src/obs/introspect.h"

#include <algorithm>
#include <utility>

#include "src/common/str_util.h"
#include "src/dbms/federation.h"
#include "src/dbms/health.h"
#include "src/dbms/server.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/xdb/plan_cache.h"
#include "src/xdb/session.h"
#include "src/xdb/xdb.h"

namespace xdb {

namespace {

/// Common base: fixed name + schema, rows supplied by the subclass.
class ProviderBase : public SystemTableProvider {
 public:
  ProviderBase(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

 protected:
  TablePtr MakeTable() const { return std::make_shared<Table>(schema_); }

  const std::string name_;
  const Schema schema_;
};

/// `xdb_stat.metrics`: one row per metric cell, in ExposeText() order.
/// Before snapshotting, refreshes the two always-present cells —
/// `xdb_build_info{threads=,version=}` (gauge, value 1) and
/// `xdb_uptime_queries_total` (queries started on this XdbSystem) — so a
/// cold system still has rows. When no registry is attached to the
/// federation, exactly those two rows are synthesized directly.
class MetricsProvider : public ProviderBase {
 public:
  MetricsProvider(Federation* fed, XdbSystem* xdb)
      : ProviderBase("metrics", Schema({{"family", TypeId::kString},
                                        {"labels", TypeId::kString},
                                        {"kind", TypeId::kString},
                                        {"value", TypeId::kDouble}})),
        fed_(fed),
        xdb_(xdb) {}

  TablePtr Snapshot() const override {
    const std::string threads = std::to_string(xdb_->options().exec_threads);
    const double started = static_cast<double>(xdb_->queries_started());
    std::vector<MetricSample> samples;
    if (MetricsRegistry* reg = fed_->metrics()) {
      reg->GetGauge("xdb_build_info",
                    {{"threads", threads}, {"version", kXdbVersion}},
                    "Constant 1; build/configuration in the labels")
          ->Set(1);
      Counter* up = reg->GetCounter("xdb_uptime_queries_total",
                                    "Queries started on this XdbSystem");
      up->Reset();
      up->Increment(started);
      samples = reg->CollectSamples();
    } else {
      const std::string info_labels =
          "{threads=\"" + threads + "\",version=\"" + kXdbVersion + "\"}";
      samples.push_back({"xdb_build_info", info_labels, "gauge", 1});
      samples.push_back({"xdb_uptime_queries_total", "", "counter", started});
    }
    TablePtr t = MakeTable();
    t->Reserve(samples.size());
    for (auto& s : samples) {
      t->AppendRow({Value::String(std::move(s.family)),
                    Value::String(std::move(s.labels)),
                    Value::String(std::move(s.kind)), Value::Double(s.value)});
    }
    return t;
  }

 private:
  Federation* fed_;
  XdbSystem* xdb_;
};

/// `xdb_stat.queries`: the QueryLog's retained history, by sequence.
class QueriesProvider : public ProviderBase {
 public:
  explicit QueriesProvider(Federation* fed)
      : ProviderBase("queries",
                     Schema({{"sequence", TypeId::kInt64},
                             {"label", TypeId::kString},
                             {"system", TypeId::kString},
                             {"status", TypeId::kString},
                             {"plan_cache_hit", TypeId::kBool},
                             {"modelled_seconds", TypeId::kDouble},
                             {"useful_bytes", TypeId::kDouble},
                             {"wasted_bytes", TypeId::kDouble},
                             {"retries", TypeId::kInt64},
                             {"replan_rounds", TypeId::kInt64},
                             {"completeness", TypeId::kDouble},
                             {"max_q_error", TypeId::kDouble}})),
        fed_(fed) {}

  TablePtr Snapshot() const override {
    TablePtr t = MakeTable();
    QueryLog* log = fed_->query_log();
    if (!log) return t;
    std::vector<QueryStats> entries = log->SnapshotEntries();
    t->Reserve(entries.size());
    for (const auto& q : entries) {
      t->AppendRow({Value::Int64(q.sequence), Value::String(q.label),
                    Value::String(q.system),
                    Value::String(q.ok ? "ok" : "error"),
                    Value::Bool(q.plan_cache_hit),
                    Value::Double(q.total_seconds()),
                    Value::Double(q.useful_bytes),
                    Value::Double(q.wasted_bytes), Value::Int64(q.retries),
                    Value::Int64(q.replan_rounds),
                    Value::Double(q.completeness_fraction),
                    Value::Double(q.max_q_error)});
    }
    return t;
  }

 private:
  Federation* fed_;
};

/// `xdb_stat.operators`: the per-operator estimate-vs-actual ledger across
/// the retained history, by (query sequence, ledger index).
class OperatorsProvider : public ProviderBase {
 public:
  explicit OperatorsProvider(Federation* fed)
      : ProviderBase("operators",
                     Schema({{"query_sequence", TypeId::kInt64},
                             {"query_label", TypeId::kString},
                             {"op", TypeId::kString},
                             {"server", TypeId::kString},
                             {"detail", TypeId::kString},
                             {"est_rows", TypeId::kDouble},
                             {"act_rows", TypeId::kDouble},
                             {"est_seconds", TypeId::kDouble},
                             {"act_seconds", TypeId::kDouble},
                             {"est_bytes", TypeId::kDouble},
                             {"act_bytes", TypeId::kDouble},
                             {"q_error", TypeId::kDouble}})),
        fed_(fed) {}

  TablePtr Snapshot() const override {
    TablePtr t = MakeTable();
    QueryLog* log = fed_->query_log();
    if (!log) return t;
    for (const auto& q : log->SnapshotEntries()) {
      for (const auto& e : q.estimates) {
        t->AppendRow({Value::Int64(q.sequence), Value::String(q.label),
                      Value::String(EstimateOpName(e.op)),
                      Value::String(e.server),
                      Value::String(e.detail), Value::Double(e.est_rows),
                      Value::Double(e.act_rows), Value::Double(e.est_seconds),
                      Value::Double(e.act_seconds), Value::Double(e.est_bytes),
                      Value::Double(e.act_bytes), Value::Double(e.q_error)});
      }
    }
    return t;
  }

 private:
  Federation* fed_;
};

/// `xdb_stat.transfers`: per-link aggregates over every transfer in the
/// retained history, by link ("src->dst").
class TransfersProvider : public ProviderBase {
 public:
  explicit TransfersProvider(Federation* fed)
      : ProviderBase("transfers", Schema({{"link", TypeId::kString},
                                          {"transfers", TypeId::kInt64},
                                          {"rows", TypeId::kDouble},
                                          {"bytes", TypeId::kDouble},
                                          {"raw_bytes", TypeId::kDouble},
                                          {"est_rows", TypeId::kDouble},
                                          {"est_bytes", TypeId::kDouble},
                                          {"failed", TypeId::kInt64}})),
        fed_(fed) {}

  TablePtr Snapshot() const override {
    TablePtr t = MakeTable();
    QueryLog* log = fed_->query_log();
    if (!log) return t;
    struct LinkAgg {
      int64_t transfers = 0;
      double rows = 0, bytes = 0, raw_bytes = 0, est_rows = 0, est_bytes = 0;
      int64_t failed = 0;
    };
    std::map<std::string, LinkAgg> links;  // key-sorted output order
    for (const auto& q : log->SnapshotEntries()) {
      for (const auto& tr : q.transfer_log) {
        LinkAgg& a = links[tr.src + "->" + tr.dst];
        ++a.transfers;
        a.rows += tr.rows;
        a.bytes += tr.bytes;
        a.raw_bytes += tr.raw_bytes;
        a.est_rows += tr.est_rows;
        a.est_bytes += tr.est_bytes;
        if (tr.failed) ++a.failed;
      }
    }
    t->Reserve(links.size());
    for (const auto& [link, a] : links) {
      t->AppendRow({Value::String(link), Value::Int64(a.transfers),
                    Value::Double(a.rows), Value::Double(a.bytes),
                    Value::Double(a.raw_bytes), Value::Double(a.est_rows),
                    Value::Double(a.est_bytes), Value::Int64(a.failed)});
    }
    return t;
  }

 private:
  Federation* fed_;
};

/// `xdb_stat.plan_cache`: resident cache entries, by normalized key.
class PlanCacheProvider : public ProviderBase {
 public:
  explicit PlanCacheProvider(XdbSystem* xdb)
      : ProviderBase("plan_cache", Schema({{"key", TypeId::kString},
                                           {"fingerprint", TypeId::kString},
                                           {"hits", TypeId::kInt64},
                                           {"age", TypeId::kInt64}})),
        xdb_(xdb) {}

  TablePtr Snapshot() const override {
    TablePtr t = MakeTable();
    DelegationPlanCache* cache = xdb_->plan_cache();
    if (!cache) return t;
    for (const auto& e : cache->SnapshotEntries()) {
      t->AppendRow({Value::String(e.key), Value::String(e.fingerprint),
                    Value::Int64(e.hits), Value::Int64(e.age)});
    }
    return t;
  }

 private:
  XdbSystem* xdb_;
};

/// `xdb_stat.sessions`: open serving sessions, by id. Empty when no
/// SessionManager is wired.
class SessionsProvider : public ProviderBase {
 public:
  explicit SessionsProvider(SessionManager* sessions)
      : ProviderBase("sessions",
                     Schema({{"id", TypeId::kInt64},
                             {"namespace", TypeId::kString},
                             {"inflight", TypeId::kInt64},
                             {"queries_served", TypeId::kInt64},
                             {"failures", TypeId::kInt64}})),
        sessions_(sessions) {}

  TablePtr Snapshot() const override {
    TablePtr t = MakeTable();
    if (!sessions_) return t;
    for (const auto& s : sessions_->SnapshotSessions()) {
      t->AppendRow({Value::Int64(s.id), Value::String(s.ddl_prefix),
                    Value::Int64(s.inflight), Value::Int64(s.queries_served),
                    Value::Int64(s.failures)});
    }
    return t;
  }

 private:
  SessionManager* sessions_;
};

/// `xdb_stat.servers`: every component DBMS with its engine profile and
/// breaker state, by server name. Without a HealthTracker every breaker
/// reads closed with a zero failure window.
class ServersProvider : public ProviderBase {
 public:
  explicit ServersProvider(Federation* fed)
      : ProviderBase("servers", Schema({{"server", TypeId::kString},
                                        {"vendor", TypeId::kString},
                                        {"parallelism", TypeId::kInt64},
                                        {"breaker_state", TypeId::kString},
                                        {"error_rate", TypeId::kDouble},
                                        {"trips", TypeId::kInt64}})),
        fed_(fed) {}

  TablePtr Snapshot() const override {
    TablePtr t = MakeTable();
    HealthTracker* health = fed_->health_tracker();
    for (const std::string& name : fed_->ServerNames()) {  // sorted
      const DatabaseServer* server = fed_->GetServer(name);
      const EngineProfile& profile = server->profile();
      std::string state = "closed";
      double error_rate = 0;
      int64_t trips = 0;
      if (health) {
        state = BreakerStateToString(health->state(name));
        error_rate = health->RollingErrorRate(name);
        trips = health->trips(name);
      }
      t->AppendRow({Value::String(name), Value::String(profile.vendor),
                    Value::Int64(profile.parallelism), Value::String(state),
                    Value::Double(error_rate), Value::Int64(trips)});
    }
    return t;
  }

 private:
  Federation* fed_;
};

}  // namespace

void IntrospectionRegistry::Register(
    std::unique_ptr<SystemTableProvider> provider) {
  std::string key = ToLower(provider->name());
  providers_[std::move(key)] = std::move(provider);
}

SystemTableProvider* IntrospectionRegistry::Find(
    const std::string& table) const {
  auto it = providers_.find(ToLower(table));
  return it == providers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> IntrospectionRegistry::TableNames() const {
  std::vector<std::string> names;
  names.reserve(providers_.size());
  for (const auto& [name, p] : providers_) names.push_back(name);
  return names;  // map iteration is sorted already
}

void RegisterStandardProviders(IntrospectionRegistry* registry,
                               Federation* fed, XdbSystem* xdb,
                               SessionManager* sessions) {
  registry->Register(std::make_unique<MetricsProvider>(fed, xdb));
  registry->Register(std::make_unique<QueriesProvider>(fed));
  registry->Register(std::make_unique<OperatorsProvider>(fed));
  registry->Register(std::make_unique<TransfersProvider>(fed));
  registry->Register(std::make_unique<PlanCacheProvider>(xdb));
  registry->Register(std::make_unique<SessionsProvider>(sessions));
  registry->Register(std::make_unique<ServersProvider>(fed));
}

}  // namespace xdb
