#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/executor.h"

namespace xdb {

/// \brief The q-error of a cardinality (or byte) estimate: the factor by
/// which it missed, symmetric in direction and always >= 1. Both sides are
/// clamped to 1 so empty relations and zero-row actuals stay well-defined.
inline double QError(double est, double act) {
  double e = std::max(est, 1.0);
  double a = std::max(act, 1.0);
  return std::max(e / a, a / e);
}

/// \brief What an estimate-vs-actual record measures: one executed plan
/// operator, or one inter-DBMS transfer.
struct EstimateOp {
  PlanKind kind = PlanKind::kScan;  // the operator (unused for transfers)
  bool foreign_scan = false;        // kScan through a SQL/MED foreign table
  bool transfer = false;            // an inter-DBMS transfer

  bool operator==(const EstimateOp&) const = default;
};

/// The op's name wherever a record leaves the process (bench JSON, the
/// xdb_qerror{op=} label, the QueryLog, xdb_stat.operators): "Scan",
/// "ForeignScan", "Filter", "Project", "Join", "Aggregate", "Sort",
/// "Limit", "Placeholder" or "transfer".
inline const char* EstimateOpName(const EstimateOp& op) {
  if (op.transfer) return "transfer";
  switch (op.kind) {
    case PlanKind::kScan:
      return op.foreign_scan ? "ForeignScan" : "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kPlaceholder:
      return "Placeholder";
  }
  return "Unknown";
}

/// \brief One planning-time estimate joined with its observed outcome.
///
/// Emitted onto the active RunTrace by the operator profiler (one record per
/// profiled operator) and by the fetch path (one transfer record per
/// delivered transfer). The q-error is the cardinality error; byte error is
/// derivable from est_bytes/act_bytes.
struct EstimateActual {
  EstimateOp op;
  // Strongest comparison in the operator's predicates (a calibration
  // feature; kNone for transfers).
  ComparisonKind predicate_class = ComparisonKind::kNone;
  std::string server;  // executing DBMS, or "src->dst" link for transfers
  std::string detail;  // operator label / fetched relation (drill-down key)
  double est_input_rows = 0;  // planning-time input cardinality (features)
  double est_rows = 0;
  double act_rows = 0;
  double est_seconds = 0;  // modelled seconds under estimated cardinalities
  double act_seconds = 0;  // modelled seconds under observed cardinalities
  double est_bytes = 0;    // estimated wire/output bytes
  double act_bytes = 0;    // observed wire/output bytes
  double q_error = 1.0;    // QError(est_rows, act_rows)
};

/// \brief One inter-DBMS transfer observed during a query run.
///
/// Transfers form a tree: `parent_id` is the transfer during whose producer
/// evaluation this transfer happened (-1 for transfers triggered directly by
/// the top-level query). The timing model composes finish times over this
/// tree (DESIGN.md §5).
struct TransferRecord {
  int id = -1;
  int parent_id = -1;
  std::string src;        // producing DBMS
  std::string dst;        // consuming DBMS
  std::string relation;   // remote relation fetched
  double rows = 0;
  double bytes = 0;       // bytes charged on the wire (encoded columnar
                          // payload when the federation ships compressed)
  double raw_bytes = 0;   // uncompressed row-format bytes (== bytes unless
                          // the transfer shipped encoded)
  uint64_t messages = 1;  // batches on the wire
  bool encoded = false;   // shipped as compressed column chunks
  bool materialized = false;  // consumer wrote it to a local table (CTAS)
  bool failed = false;        // link dropped mid-transfer; bytes were wasted
  double est_rows = 0;   // planner's row estimate for this transfer
  double est_bytes = 0;  // planner's wire-byte estimate (same inflation
                         // basis as `bytes`)

  /// Compute performed by the producer to serve this fetch (excluding
  /// compute already attributed to nested fetches).
  ComputeTrace producer_compute;
};

/// \brief One retried operation (DDL deployment or inter-DBMS fetch):
/// how many attempts it took, how long the modelled backoff waited, and
/// whether it eventually succeeded. Only operations that actually retried
/// or failed are recorded — a clean run has an empty retry log.
struct RetryEvent {
  std::string server;  // DBMS the operation targeted
  FaultOp op = FaultOp::kDdl;  // kDdl or kFetch
  int attempts = 1;
  double backoff_seconds = 0;  // modelled wait across all retries
  bool succeeded = true;
  std::string error;  // final error message when !succeeded
};

/// \brief One result fragment abandoned under graceful degradation: the
/// consumer substituted an empty relation for a fetch that could not be
/// delivered (producer down, link dead after retries, or the deadline
/// budget ran out) because the query opted into partial results.
struct FragmentLoss {
  std::string relation;  // remote relation whose fetch was abandoned
  std::string server;    // producing DBMS
  std::string consumer;  // DBMS that substituted the empty fragment
  std::string reason;    // "node-down" | "link-drop" | "deadline"
  double est_rows = 0;   // producer's row estimate for the lost fragment
};

/// \brief Per-result completeness annotation. Attached to every XdbReport;
/// a complete result has fraction 1.0 and an empty loss list. Only queries
/// running with `allow_partial` can ever be incomplete.
struct ResultCompleteness {
  bool complete = true;
  /// delivered / (delivered + lost) over the winning round's fragments
  /// (failed rounds' losses were replanned away and don't count).
  double completeness_fraction = 1.0;
  std::vector<FragmentLoss> lost;
};

/// \brief The most significant recovery action a query took. Enumerators
/// are in rank order: a later one outranks every earlier one.
enum class RecoveryAction {
  kNone,
  kRetried,
  kRolledBack,
  kReplanned,
  kDegraded,
  kFailed,
};

/// "none" | "retried" | "rolled-back" | "replanned" | "degraded" | "failed".
inline const char* RecoveryActionToString(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kNone:
      return "none";
    case RecoveryAction::kRetried:
      return "retried";
    case RecoveryAction::kRolledBack:
      return "rolled-back";
    case RecoveryAction::kReplanned:
      return "replanned";
    case RecoveryAction::kDegraded:
      return "degraded";
    case RecoveryAction::kFailed:
      return "failed";
  }
  return "unknown";
}

/// \brief Everything observed while executing one top-level query across
/// the federation: the root's compute plus the tree of transfers, and —
/// when faults struck — the recovery trail (retries, rollbacks, replans).
struct RunTrace {
  ComputeTrace root_compute;       // compute on the root (client-facing) DBMS
  std::string root_server;
  std::vector<TransferRecord> transfers;
  std::map<std::string, ComputeTrace> per_server;  // totals, for inspection

  // --- recovery trail (all zero/empty on a fault-free run) ---
  std::vector<RetryEvent> retries;
  double total_backoff_seconds = 0;   // modelled retry backoff
  double injected_delay_seconds = 0;  // modelled delay charged by faults
  double wasted_attempt_seconds = 0;  // modelled time of failed replanned
                                      // deploy/execution rounds
  int replan_rounds = 0;              // failover re-annotation rounds taken
  std::vector<std::string> excluded_servers;  // placements excluded by
                                              // failover
  /// Fragments abandoned under the partial-results policy (empty unless
  /// the query ran with allow_partial and lost a subtree).
  std::vector<FragmentLoss> lost_fragments;
  RecoveryAction recovery_action = RecoveryAction::kNone;
  /// (server, relation) pairs the post-query cleanup could not drop: the
  /// query still returned its result, but these stay deployed.
  std::vector<std::pair<std::string, std::string>> leaked_relations;

  /// Estimate-vs-actual ledger for the winning round: one record per
  /// delivered transfer; per-operator records appear when an
  /// OperatorProfiler was attached to the executing server.
  std::vector<EstimateActual> estimates;

  /// Worst cardinality q-error across the ledger (0 when it is empty).
  double MaxQError() const {
    double q = 0;
    for (const auto& e : estimates) q = std::max(q, e.q_error);
    return q;
  }

  /// All bytes that hit the wire, delivered or not. Equals
  /// UsefulTransferredBytes() + WastedTransferredBytes().
  double TotalTransferredBytes() const {
    double b = 0;
    for (const auto& t : transfers) b += t.bytes;
    return b;
  }
  /// Bytes of transfers that completed (the payload the consumer used).
  double UsefulTransferredBytes() const {
    double b = 0;
    for (const auto& t : transfers) {
      if (!t.failed) b += t.bytes;
    }
    return b;
  }
  /// Bytes of failed transfers (link dropped mid-flight, or the round was
  /// replanned away) — on the wire for nothing. Zero on a fault-free run.
  double WastedTransferredBytes() const {
    double b = 0;
    for (const auto& t : transfers) {
      if (t.failed) b += t.bytes;
    }
    return b;
  }
  double TotalTransferredRows() const {
    double r = 0;
    for (const auto& t : transfers) r += t.rows;
    return r;
  }
  /// Row-format bytes the same transfers would have cost uncompressed.
  /// Equals TotalTransferredBytes() when nothing shipped encoded.
  double TotalRawTransferredBytes() const {
    double b = 0;
    for (const auto& t : transfers) b += t.raw_bytes;
    return b;
  }
  /// raw/encoded byte ratio over the whole run (1.0 when nothing moved or
  /// nothing shipped encoded).
  double CompressionRatio() const {
    const double total = TotalTransferredBytes();
    return total > 0 ? TotalRawTransferredBytes() / total : 1.0;
  }
};

}  // namespace xdb
