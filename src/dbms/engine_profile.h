#pragma once

#include <cstdint>
#include <string>

namespace xdb {

/// \brief Per-vendor performance profile of a simulated DBMS engine.
///
/// The paper's testbed mixes PostgreSQL, MariaDB and Hive; their relevant
/// differences (OLAP row-processing speed, query startup, transfer protocol
/// overhead, worker parallelism) are captured here and consumed by the
/// timing model. All row costs are seconds per row at paper scale.
struct EngineProfile {
  std::string vendor = "postgres";

  // Compute costs (seconds/row).
  double scan_row_cost = 2.5e-7;
  double join_row_cost = 4.0e-7;   // per build + probe + output row
  double agg_row_cost = 3.0e-7;
  double sort_row_cost = 5.0e-7;
  double filter_row_cost = 5.0e-8;
  double project_row_cost = 5.0e-8;
  double materialize_row_cost = 6.0e-7;  // writing a local table (CTAS)

  // Per-query fixed startup (seconds). Hive pays multiple seconds here.
  double startup_cost = 0.05;

  // Consumer-side cost of ingesting one row through a remote fetch
  // (FDW cursor / JDBC iterator overhead) and the wire inflation factor of
  // the protocol (binary = 1, text/JDBC > 1).
  double fetch_row_cost = 2.0e-6;
  double wire_inflation = 1.0;

  // Degree of intra-query parallelism the engine can apply to its compute
  // (Presto worker scale-out sets this on the mediator profile).
  int parallelism = 1;

  // Fraction of compute that benefits from parallelism (Amdahl).
  double parallel_fraction = 0.7;

  /// Seconds that `serial` seconds of compute take on this engine: Amdahl
  /// scaling of the parallel fraction over `parallelism` workers, and
  /// `serial` itself on one worker. The timing model and the operator
  /// profiler both charge compute through it.
  double ParallelSeconds(double serial) const;

  /// Hash of every field above — extend it with each new field. The plan
  /// cache keys on it: profiles that cost any plan differently must never
  /// share an annotated plan.
  uint64_t Fingerprint() const;

  /// PostgreSQL: fast OLAP-ish row engine, binary transfer protocol.
  static EngineProfile Postgres();

  /// MariaDB: not designed for OLAP (paper §VI-B); slower joins/aggregates.
  static EngineProfile MariaDb();

  /// Hive: high query startup, slow per-row path when run on one node.
  static EngineProfile Hive();

  /// Presto/Trino mediator: fast vectorised engine but JDBC connectors
  /// with high per-row fetch overhead (paper §VI-B).
  static EngineProfile PrestoMediator(int workers);

  /// Garlic-like mediator: a PostgreSQL instance using binary protocols.
  static EngineProfile GarlicMediator();

  /// ScleraDB mediator: naive transfer path, high per-row overheads.
  static EngineProfile ScleraMediator();
};

}  // namespace xdb
