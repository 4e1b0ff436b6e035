#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/connect/connector.h"
#include "src/plan/planner.h"

namespace xdb {

/// \brief XDB's Global-as-a-View catalog: the union of the component
/// DBMSes' local schemas (paper Section III).
///
/// It doubles as the RelationResolver for XDB's logical optimizer: each
/// table resolves to a Scan annotated with the DBMS that stores it. Schema
/// and statistics come from the connectors' metadata interface; fetches are
/// cached across queries and counted per query, since they are what the
/// paper's "prep" phase pays for.
///
/// Concurrency: lazy metadata loads are mutex-guarded so concurrent
/// sessions may resolve tables in parallel. The catalog carries monotonic
/// schema/statistics version counters — the delegation-plan cache folds
/// them into its placement fingerprint, so invalidating a table's metadata
/// retires every cached plan built against the stale versions.
class GlobalCatalog : public RelationResolver {
 public:
  /// Discovers all base tables on all connectors (table listing only;
  /// schemas/stats are fetched lazily per query).
  explicit GlobalCatalog(std::map<std::string, DbmsConnector*> connectors);

  Result<PlanPtr> Resolve(const std::string& db,
                          const std::string& table) override;

  /// The DBMS storing `table` (empty when unknown).
  std::string LocateTable(const std::string& table) const;

  /// Metadata round trips performed by the *calling thread* since its last
  /// ResetThreadRoundtrips() — deterministic per query even when sessions
  /// share the catalog.
  static int ThreadRoundtrips();
  static void ResetThreadRoundtrips();

  // --- schema/statistics versioning (plan-cache fingerprint inputs) ---

  /// Monotonic counter bumped whenever a table's cached schema is
  /// invalidated (simulates DDL on a component DBMS).
  int64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }

  /// Monotonic counter bumped whenever a table's cached statistics are
  /// invalidated (simulates ANALYZE / significant data change).
  int64_t stats_version() const {
    return stats_version_.load(std::memory_order_acquire);
  }

  /// Drops `table`'s cached schema+stats (re-fetched on next resolve) and
  /// bumps the catalog version. Unknown tables still bump the version (the
  /// set of tables itself changed from the caller's point of view).
  void InvalidateTable(const std::string& table);

  /// Drops `table`'s cached metadata and bumps the *stats* version only —
  /// placements chosen from the old statistics are no longer trustworthy,
  /// but the schema is unchanged.
  void InvalidateStats(const std::string& table);

 private:
  struct TableMeta {
    std::string server;
    Schema schema;
    TableStats stats;
    bool loaded = false;
  };

  std::map<std::string, DbmsConnector*> connectors_;
  mutable std::mutex mu_;  // guards tables_ meta mutation (lazy loads)
  std::map<std::string, TableMeta> tables_;  // global table name -> meta
  std::atomic<int64_t> catalog_version_{0};
  std::atomic<int64_t> stats_version_{0};
};

}  // namespace xdb
