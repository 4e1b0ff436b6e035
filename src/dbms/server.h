#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/result.h"
#include "src/dbms/engine_profile.h"
#include "src/dbms/federation.h"
#include "src/exec/executor.h"
#include "src/exec/profile.h"
#include "src/plan/planner.h"
#include "src/sql/ast.h"

namespace xdb {

/// \brief A simulated autonomous DBMS.
///
/// The server exposes exactly what the paper assumes of component DBMSes: a
/// declarative SQL interface (queries + short-lived DDL), an EXPLAIN-style
/// costing interface, and a SQL/MED foreign-table implementation that lets
/// it read relations living on other servers. It is a black box otherwise —
/// it plans and executes delegated statements with its *own* optimizer.
///
/// Concurrency: catalog map operations (lookup/insert/erase/listing) are
/// mutex-guarded so concurrent sessions may deploy and drop their own
/// namespaced relations on one server. Entry *contents* are accessed
/// unlocked: base/materialized/view entries are immutable once created, and
/// a foreign entry's schema and row estimate are loaded once, on first use,
/// under the entry's own mutex (LoadForeign), and immutable after that.
class DatabaseServer : public RelationResolver {
 public:
  DatabaseServer(std::string name, EngineProfile profile, Federation* fed);

  const std::string& name() const { return name_; }
  const EngineProfile& profile() const { return profile_; }

  /// Sets the morsel-parallel worker budget for this server's executor.
  /// 0 (the default) resolves to the hardware concurrency; 1 forces the
  /// legacy single-threaded path. Wall-clock only — modelled times, traces,
  /// and results are identical for every setting.
  void set_exec_threads(int n) { exec_threads_ = n; }

  /// Resolved worker count (never 0).
  int exec_threads() const;

  /// Attaches a per-operator profiler to this server's executor (nullptr —
  /// the default — detaches; the executor then pays one pointer compare per
  /// plan node). EXPLAIN ANALYZE attaches one internally for the statement
  /// it executes; benches attach one across whole runs. Observational only.
  void set_profiler(OperatorProfiler* profiler) {
    profiler_.store(profiler, std::memory_order_release);
  }
  OperatorProfiler* profiler() const {
    return profiler_.load(std::memory_order_acquire);
  }

  // --- storage bootstrap (out-of-band; not part of the query interface) ---

  /// Loads a base table and computes its statistics (ANALYZE).
  Status CreateBaseTable(const std::string& table_name, TablePtr table);

  // --- declarative interface (what XDB and mediators are allowed to use) --

  /// Executes any supported statement; SELECT returns rows, DDL returns an
  /// empty table.
  Result<TablePtr> ExecuteSql(const std::string& sql);

  /// Executes a SELECT.
  Result<TablePtr> ExecuteQuery(const std::string& sql);

  /// Executes a DDL statement (CREATE VIEW / FOREIGN TABLE / TABLE AS,
  /// DROP ...).
  Status ExecuteDdl(const std::string& sql);

  /// Schema of a catalogued relation (metadata interface).
  Result<Schema> DescribeRelation(const std::string& relation);

  /// Row-count estimate for a catalogued relation.
  Result<double> EstimateRelationRows(const std::string& relation);

  /// True if the relation exists in this server's catalog.
  bool HasRelation(const std::string& relation) const;

  /// Names of short-lived relations (views/foreign/materialised) — used by
  /// the delegation engine's cleanup path and by tests.
  std::vector<std::string> TransientRelations() const;

  /// Names of base tables (the catalog-browsing metadata interface XDB's
  /// preparation phase uses to build the Global-as-a-View schema).
  std::vector<std::string> BaseRelations() const;

  /// Full statistics for a base/materialised relation.
  Result<TableStats> GetRelationStats(const std::string& relation) const;

  // --- server-to-server path (invoked via Federation::Fetch) ---

  /// Serves `SELECT * FROM relation` to a peer. The federation has already
  /// pushed a producer trace frame; compute lands there.
  Result<TablePtr> ServeRemote(const std::string& relation);

  // --- RelationResolver (local names; used by the local planner) ---
  Result<PlanPtr> Resolve(const std::string& db,
                          const std::string& table) override;

  /// Plans a SELECT with this server's local optimizer.
  Result<PlanPtr> PlanQuery(const sql::SelectStmt& stmt);

  /// Modelled local cost of executing a plan: the EXPLAIN statement's cost
  /// and, through DbmsConnector::ProbeCost, XDB's consultations.
  double ModeledPlanCost(const PlanNode& plan) const;

 private:
  enum class EntryKind { kBase, kMaterialized, kView, kForeign };

  struct CatalogEntry {
    EntryKind kind = EntryKind::kBase;
    TablePtr table;          // kBase / kMaterialized
    TableStats stats;        // kBase / kMaterialized
    sql::SelectPtr view_def; // kView
    std::string server;           // kForeign: remote DBMS
    std::string remote_relation;  // kForeign
    Schema cached_schema;    // kView / kForeign (filled by LoadForeign)
    bool loaded = false;     // kForeign: cached_schema and stats are set
    std::unique_ptr<std::mutex> load_mu;  // kForeign: guards the load
  };

  /// ExecContext wired to this server + the federation's trace stack.
  /// `materialized` is set only for a CTAS: its foreign scans are the
  /// explicit movement the CTAS performs (fetches made while serving them
  /// run in the producers' own contexts).
  class Context : public ExecContext {
   public:
    Context(DatabaseServer* server, bool materialized)
        : server_(server), materialized_(materialized) {}
    Result<TablePtr> GetLocalTable(const std::string& table) override;
    Result<TablePtr> ForeignFetch(const std::string& server,
                                  const std::string& relation,
                                  double est_rows,
                                  double est_bytes) override;
    ComputeTrace* trace() override;
    int exec_threads() const override;
    OperatorProfiler* profiler() override;

   private:
    DatabaseServer* server_;
    bool materialized_;
  };

  Result<TablePtr> ExecutePlanHere(const PlanNode& plan,
                                   bool materialized = false);
  /// Fills a foreign entry's schema and row estimate from its remote
  /// relation on first use: two control messages, the remote's
  /// DescribeRelation and EstimateRelationRows. Concurrent callers wait for
  /// one load; a failed load leaves the entry unloaded.
  Status LoadForeign(const std::string& key, CatalogEntry* entry);
  Status ExecuteParsed(const sql::Statement& stmt, TablePtr* out);

  /// Node-stable pointer to the entry for `key` (already lowercased), or
  /// nullptr when absent. The lock covers only the map lookup; see the
  /// class comment for why entry contents are safe to use unlocked.
  CatalogEntry* FindEntry(const std::string& key);
  const CatalogEntry* FindEntry(const std::string& key) const;

  std::string name_;
  EngineProfile profile_;
  Federation* fed_;
  mutable std::mutex catalog_mu_;  // guards catalog_ map operations
  std::map<std::string, CatalogEntry> catalog_;
  int exec_threads_ = 0;  // 0 = hardware concurrency
  std::atomic<OperatorProfiler*> profiler_{nullptr};

  friend class Context;
};

}  // namespace xdb
