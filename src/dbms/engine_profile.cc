#include "src/dbms/engine_profile.h"

#include <functional>

namespace xdb {

uint64_t EngineProfile::Fingerprint() const {
  uint64_t h = std::hash<std::string>()(vendor);
  for (double field :
       {scan_row_cost, join_row_cost, agg_row_cost, sort_row_cost,
        filter_row_cost, project_row_cost, materialize_row_cost, startup_cost,
        fetch_row_cost, wire_inflation, static_cast<double>(parallelism),
        parallel_fraction}) {
    h = (h ^ std::hash<double>()(field)) * 1099511628211ULL;  // FNV-1a step
  }
  return h;
}

double EngineProfile::ParallelSeconds(double serial) const {
  if (parallelism <= 1) return serial;
  return serial * (1.0 - parallel_fraction) +
         serial * parallel_fraction / static_cast<double>(parallelism);
}

EngineProfile EngineProfile::Postgres() {
  EngineProfile p;
  p.vendor = "postgres";
  p.scan_row_cost = 1.5e-7;
  p.join_row_cost = 2.5e-7;
  p.agg_row_cost = 2.5e-7;
  p.sort_row_cost = 4.0e-7;
  return p;
}

EngineProfile EngineProfile::MariaDb() {
  EngineProfile p;
  p.vendor = "mariadb";
  p.scan_row_cost = 2.5e-7;
  p.join_row_cost = 7.0e-7;   // nested-loop-leaning OLTP engine
  p.agg_row_cost = 5.0e-7;
  p.sort_row_cost = 7.0e-7;
  p.fetch_row_cost = 3.0e-6;
  return p;
}

EngineProfile EngineProfile::Hive() {
  EngineProfile p;
  p.vendor = "hive";
  p.scan_row_cost = 5.0e-7;
  p.join_row_cost = 8.0e-7;
  p.agg_row_cost = 6.0e-7;
  p.sort_row_cost = 9.0e-7;
  p.startup_cost = 8.0;       // MR/Tez job launch, single node
  p.fetch_row_cost = 5.0e-6;  // no binary wire protocol
  p.wire_inflation = 1.6;
  return p;
}

EngineProfile EngineProfile::PrestoMediator(int workers) {
  EngineProfile p;
  p.vendor = "presto";
  p.scan_row_cost = 1.0e-7;   // vectorised execution
  p.join_row_cost = 1.5e-7;
  p.agg_row_cost = 1.2e-7;
  p.sort_row_cost = 2.0e-7;
  p.startup_cost = 1.0;       // coordinator scheduling
  p.fetch_row_cost = 4.0e-6;  // JDBC connector row iteration (paper §VI-B)
  p.wire_inflation = 2.2;     // serialized text/JDBC representation
  p.parallelism = workers;
  p.parallel_fraction = 0.85;
  return p;
}

EngineProfile EngineProfile::GarlicMediator() {
  EngineProfile p = Postgres();
  p.vendor = "garlic";
  // A PostgreSQL mediator: binary protocol (wire_inflation 1) but FDW
  // cursor overhead on every ingested row.
  p.fetch_row_cost = 2.0e-6;
  return p;
}

EngineProfile EngineProfile::ScleraMediator() {
  EngineProfile p;
  p.vendor = "sclera";
  p.scan_row_cost = 6.0e-7;
  p.join_row_cost = 1.2e-6;
  p.agg_row_cost = 8.0e-7;
  p.sort_row_cost = 1.0e-6;
  p.startup_cost = 0.5;
  p.fetch_row_cost = 1.0e-5;   // row-at-a-time driver loop
  p.wire_inflation = 2.5;
  p.materialize_row_cost = 4.0e-6;  // INSERT-based loading
  return p;
}

}  // namespace xdb
