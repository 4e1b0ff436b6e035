#pragma once

#include <atomic>
#include <string>

#include "src/connect/dialect.h"
#include "src/dbms/federation.h"
#include "src/dbms/server.h"

namespace xdb {

/// \brief XDB's DBMS connector (DC): the only channel between the
/// middleware and a component DBMS.
///
/// Everything flows through the server's declarative interface — SQL text,
/// DDL, EXPLAIN-style probes, and catalog metadata — and every call records
/// a control-plane round trip on the simulated network (these round trips
/// are what the paper's prep/ann/delegation phase costs consist of).
class DbmsConnector {
 public:
  DbmsConnector(DatabaseServer* server, Dialect dialect, Federation* fed,
                std::string middleware_node)
      : server_(server),
        dialect_(std::move(dialect)),
        fed_(fed),
        middleware_node_(std::move(middleware_node)) {}

  const Dialect& dialect() const { return dialect_; }
  DatabaseServer* server() const { return server_; }
  const EngineProfile& profile() const { return server_->profile(); }

  // --- metadata (preparation phase) ---

  Result<Schema> DescribeTable(const std::string& table) {
    RoundTrip();
    return server_->DescribeRelation(table);
  }

  Result<TableStats> FetchStats(const std::string& table) {
    RoundTrip();
    return server_->GetRelationStats(table);
  }

  std::vector<std::string> ListTables() {
    RoundTrip();
    return server_->BaseRelations();
  }

  // --- consultation (plan annotation phase, Section IV-B-2) ---

  /// Cost of executing the plan fragment on this DBMS, obtained by wrapping
  /// the server's EXPLAIN-style costing (the Garlic-style "consulting"
  /// approach [44]). Placeholder leaves model the "?" inputs of a partial
  /// cross-database plan. Calibrated into common cost units via
  /// `cost_calibration`.
  double ProbeCost(const PlanNode& fragment) {
    RoundTrip();
    probe_count_.fetch_add(1, std::memory_order_relaxed);
    return server_->ModeledPlanCost(fragment) * cost_calibration_;
  }

  int probe_count() const {
    return probe_count_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    probe_count_.store(0, std::memory_order_relaxed);
    roundtrip_count_.store(0, std::memory_order_relaxed);
  }
  int roundtrip_count() const {
    return roundtrip_count_.load(std::memory_order_relaxed);
  }

  /// Aligns this DBMS's cost units with the federation-wide unit (paper
  /// footnote 6: a simple calibration approach across engines).
  void set_cost_calibration(double factor) { cost_calibration_ = factor; }

  // --- deployment (delegation phase) ---

  Status Deploy(const std::string& ddl) {
    RoundTrip();
    XDB_RETURN_NOT_OK(fed_->InjectFault(server_->name(), FaultOp::kDdl));
    return server_->ExecuteDdl(ddl);
  }

  Result<TablePtr> RunQuery(const std::string& sql) {
    RoundTrip();
    XDB_RETURN_NOT_OK(fed_->InjectFault(server_->name(), FaultOp::kQuery));
    return server_->ExecuteQuery(sql);
  }

 private:
  void RoundTrip() {
    roundtrip_count_.fetch_add(1, std::memory_order_relaxed);
    fed_->RecordControlMessage(middleware_node_, server_->name());
    fed_->RecordControlMessage(server_->name(), middleware_node_);
  }

  DatabaseServer* server_;
  Dialect dialect_;
  Federation* fed_;
  std::string middleware_node_;
  double cost_calibration_ = 1.0;
  std::atomic<int> probe_count_{0};
  std::atomic<int> roundtrip_count_{0};
};

}  // namespace xdb
