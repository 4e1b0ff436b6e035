#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/xdb/pipeline.h"

namespace xdb {

/// \brief Which mediator-wrapper baseline to emulate (paper Section VI).
enum class MediatorKind {
  /// Garlic-like: a single PostgreSQL mediator with SQL/MED wrappers.
  /// Pushes down maximal single-DBMS subqueries (including co-located
  /// joins); fetches intermediates with the binary protocol, pipelined.
  kGarlic,

  /// Presto/Trino-like: an MPP mediator with W workers. Connectors push
  /// down only scans (filters + projections); all joins and aggregation run
  /// in the mediator; fetches pay JDBC per-row overhead.
  kPresto,

  /// ScleraDB-like: "in-situ" querying that nevertheless moves every
  /// intermediate table *explicitly* through its mediator (the paper's
  /// naive execution of Section V), with row-at-a-time transfer.
  kSclera,
};

const char* MediatorKindToString(MediatorKind kind);

/// \brief Options for a mediator system.
struct MediatorOptions {
  double scale_up = 1.0;
  int presto_workers = 4;
  /// Node name for the mediator; defaults to the kind's name.
  std::string mediator_node;
  /// Executor worker budget for the mediator node and every component DBMS:
  /// 0 = hardware concurrency, 1 = legacy serial (see XdbOptions).
  int exec_threads = 0;
};

/// \brief A mediator-wrapper federated query system (the paper's Figure 4a
/// baseline family).
///
/// Deliberately runs XDB's own QueryPipeline — the same parser, logical
/// optimizer, connectors, SQL/MED foreign tables, budget, failure handling
/// and accounting — so that the *only* differences are architectural: where
/// cross-database operators are placed (always the mediator, AnnotateMw)
/// and how intermediates move (always through the mediator), plus fixed
/// costing values (no failover, no client result hop; see the constructor).
/// This isolates the paper's claim: the MW architecture itself, not
/// implementation quality, causes the overhead.
class MediatorSystem {
 public:
  /// Registers a mediator DBMS node in `fed` (with the kind's engine
  /// profile) and builds connectors for the component DBMSes.
  MediatorSystem(Federation* fed, MediatorKind kind,
                 MediatorOptions options = {});
  MediatorSystem(const MediatorSystem&) = delete;
  MediatorSystem& operator=(const MediatorSystem&) = delete;

  /// Runs a federated query through the mediator. Like XdbSystem::Query,
  /// banks one QueryStats record (system = the mediator kind) when the
  /// federation has a QueryLog attached.
  Result<XdbReport> Query(const std::string& sql);

  /// Query() under a deadline / partial-results context. Mediators have
  /// no failover, so an undeliverable fragment either degrades under
  /// allow_partial or fails the query. Deployed relations are named after
  /// the mediator node unless `ctx.ddl_prefix` is set.
  Result<XdbReport> Query(const std::string& sql, const QueryContext& ctx);

  const std::string& mediator_name() const { return mediator_name_; }
  MediatorKind kind() const { return kind_; }

 private:
  Status AnnotateMw(PlanNode* node) const;

  MediatorKind kind_;
  std::string mediator_name_;
  std::map<std::string, std::unique_ptr<DbmsConnector>> connectors_;
  std::map<std::string, DbmsConnector*> connector_ptrs_;
  std::unique_ptr<GlobalCatalog> catalog_;
  std::unique_ptr<QueryPipeline> pipeline_;
};

}  // namespace xdb
