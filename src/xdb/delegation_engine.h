#pragma once

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/connect/connector.h"
#include "src/xdb/delegation_plan.h"

namespace xdb {

/// \brief The query that XDB hands back to the client (paper Section V):
/// a plain SELECT on one DBMS whose evaluation triggers the whole in-situ
/// cascade.
struct XdbQuery {
  std::string server;
  std::string sql;
};

/// \brief The Delegation Engine: rewrites a delegation plan into a cascade
/// of views chained with SQL/MED foreign tables (Algorithm 1).
///
/// For each task (children first): create foreign tables on the task's DBMS
/// pointing at the child tasks' views, then create the task's own view from
/// the deparsed algebraic instruction. Implicit edges are consumed through
/// the foreign table directly (pipelined); explicit edges materialise the
/// foreign table into a local table first. All DDL is issued through the
/// vendor-specific connectors; XDB never touches the data itself.
///
/// Deployment is all-or-nothing: a failure mid-cascade automatically drops
/// every relation already created (reverse order), so a failed query never
/// leaves transient relations behind. Every DDL statement goes through the
/// federation's retry gate (Federation::RunWithRetry): retryable failures
/// (kUnavailable/kTimeout) are retried with modelled backoff and recorded
/// in the active RunTrace.
class DelegationEngine {
 public:
  DelegationEngine(std::map<std::string, DbmsConnector*> connectors,
                   Federation* fed)
      : connectors_(std::move(connectors)), fed_(fed) {}

  /// What made Deploy give up, for the failover logic upstream.
  struct FailureInfo {
    std::string server;
    std::string ddl;
    Status status;
  };

  /// Deploys the plan (mutates it: fills tasks' column_names and rewrites
  /// placeholder names to the created relations) and returns the XDB query.
  /// On failure every already-created relation is rolled back before the
  /// error returns.
  Result<XdbQuery> Deploy(DelegationPlan* plan);

  /// Drops every short-lived relation Deploy created, in reverse order.
  /// Idempotent: relations that fail to drop (or whose server has no
  /// connector — reported by name) are retained for a later attempt;
  /// calling again on an empty ledger is a no-op.
  Status Cleanup();

  /// (server, relation) pairs still awaiting cleanup, in creation order
  /// (non-empty after a failed Cleanup).
  std::vector<std::pair<std::string, std::string>> pending_cleanup() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [server, relation, kind] : created_) {
      out.emplace_back(server, relation);
    }
    return out;
  }

  const std::optional<FailureInfo>& last_failure() const { return failure_; }

  /// Full DDL log of the last Deploy, for inspection/printing — the
  /// reproduction of the paper's Figure 7.
  const std::vector<std::pair<std::string, std::string>>& ddl_log() const {
    return ddl_log_;
  }

  /// DDL statements issued during the delegation phase (excludes the
  /// execution-time CTAS prologue).
  int ddl_count() const { return ddl_count_; }

  /// Test hook: the live connector map, for simulating a connector that
  /// disappears between Deploy and Cleanup.
  std::map<std::string, DbmsConnector*>& connectors_for_test() {
    return connectors_;
  }

 private:
  Status Issue(const std::string& server, const std::string& ddl);

  /// One DDL statement through `dc`, behind the federation's retry gate.
  Status IssueWithRetry(DbmsConnector* dc, const std::string& server,
                        const std::string& ddl);

  std::map<std::string, DbmsConnector*> connectors_;
  Federation* fed_;
  std::vector<std::pair<std::string, std::string>> ddl_log_;
  // (server, relation, kind) in creation order; dropped in reverse.
  std::vector<std::tuple<std::string, std::string, std::string>> created_;
  int ddl_count_ = 0;
  std::optional<FailureInfo> failure_;
};

}  // namespace xdb
