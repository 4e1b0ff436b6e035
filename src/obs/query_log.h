#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/dbms/run_trace.h"

namespace xdb {

/// \brief One compact history record per top-level query: where its modelled
/// time and bytes went. Banked by XdbSystem::Query / MediatorSystem::Query
/// when a QueryLog is attached to the federation; sized so a bounded ring of
/// them summarizes a long session (the paper's §VI per-query statistics,
/// Trino-style query history).
struct QueryStats {
  int64_t sequence = 0;   // assigned by the log, monotonically increasing
  std::string label;      // "Q5" when hinted, else "q<sequence>"
  std::string system;     // "xdb" | "garlic" | "presto" | "sclera"
  std::string sql;
  bool ok = true;
  std::string error;  // final status message when !ok
  bool plan_cache_hit = false;  // plan served from the delegation-plan cache

  // Modelled phase seconds (the paper's Figure 15 buckets).
  double prep_seconds = 0;
  double lopt_seconds = 0;
  double ann_seconds = 0;
  double exec_seconds = 0;

  // Transfer accounting (local-scale bytes; multiply by scale_up for paper
  // scale, like RunTrace).
  double useful_bytes = 0;
  double wasted_bytes = 0;
  /// Uncompressed row-format bytes of the same transfers — exceeds
  /// useful+wasted only when the columnar wire shipped compressed chunks.
  double raw_bytes = 0;
  double transfer_rows = 0;
  int transfers = 0;

  // Recovery trail.
  int retries = 0;
  int replan_rounds = 0;
  RecoveryAction recovery_action = RecoveryAction::kNone;

  // Graceful degradation (allow_partial queries only; defaults mean a
  // complete result).
  bool partial = false;                // result is missing >= 1 fragment
  double completeness_fraction = 1.0;  // delivered / (delivered + lost)
  int lost_fragments = 0;

  /// Modelled compute seconds per component DBMS (at the system's
  /// scale-up) — the per-node breakdown a process-wide total cannot give.
  std::map<std::string, double> per_server_seconds;

  /// Top operators by modelled seconds ("server: OpLabel" -> seconds),
  /// filled when OperatorProfilers were attached (EXPLAIN ANALYZE, benches);
  /// empty otherwise.
  std::vector<std::pair<std::string, double>> hot_operators;

  /// Estimate-vs-actual ledger of the winning round (transfers always;
  /// operators when a profiler was attached). Retained so
  /// XdbSystem::ExportCalibrationLog can pair features with outcomes.
  std::vector<EstimateActual> estimates;

  /// The winning round's transfer records, retained verbatim so the
  /// `xdb_stat.transfers` system table can aggregate per-link raw/encoded
  /// bytes and est-vs-act over the history ring. Bounded by the ring
  /// capacity; not part of the ToJson artifact.
  std::vector<TransferRecord> transfer_log;

  /// Max operator/transfer q-error of this query (filled by Record from
  /// `estimates`; 0 = the ledger was empty).
  double max_q_error = 0;

  double total_seconds() const {
    return prep_seconds + lopt_seconds + ann_seconds + exec_seconds;
  }
};

/// \brief A recorded query whose modelled runtime diverged from its label's
/// running history by more than the drift threshold — the serving-layer
/// signal that a placement, statistic, or plan regressed for a recurring
/// query shape.
struct DriftEvent {
  int64_t sequence = 0;
  std::string label;
  double expected_seconds = 0;  // label's running mean before this query
  double actual_seconds = 0;
  double delta_fraction = 0;  // (actual - expected) / expected, signed
};

/// \brief A recorded query whose worst operator (or transfer) q-error
/// crossed the misestimate threshold — the accountability-plane signal that
/// the planner's cardinality model is wrong for this query shape. The
/// offending operator and its digit-normalized predicate shape are retained
/// so recurring shapes group together in the `\qerror` drill-down.
struct MisestimateEvent {
  int64_t sequence = 0;
  std::string label;
  std::string op;      // offending operator kind ("Join", "transfer", ...)
  std::string server;  // executing DBMS (or src->dst link for transfers)
  std::string predicate_shape;  // operator detail with digit runs -> '*'
  double est_rows = 0;
  double act_rows = 0;
  double q_error = 1.0;
};

/// \brief Bounded ring of QueryStats — the query-history side of the
/// observability layer. Attached to a Federation like the span recorder
/// (nullptr detaches; recording is observational only). Holds at most
/// `capacity` records: older queries are evicted, lifetime totals keep
/// counting, so a 10,000-query session holds O(capacity) memory.
///
/// Thread-safe: concurrent sessions Record() in parallel; readers get
/// snapshots. entries() still returns a reference and remains a
/// single-threaded inspection API — use SnapshotEntries() under concurrency.
///
/// Per-label drift detection: the log keeps running aggregates per label
/// (bounded by the label vocabulary, which is bounded by construction —
/// DESIGN.md §8). Once a label has `kDriftMinSamples` successful runs, any
/// further run whose modelled time diverges from the label's running mean
/// by more than `drift_threshold` (default 25%) is banked as a DriftEvent,
/// surfaced in Summary() and the `\stats <label>` drill-down.
class QueryLog {
 public:
  explicit QueryLog(size_t capacity = 256) : capacity_(capacity) {}

  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  /// Banks one record (assigns `sequence`; an empty `label` becomes
  /// "q<sequence>"). Evicts the oldest record when over capacity.
  void Record(QueryStats stats);

  const std::deque<QueryStats>& entries() const { return entries_; }
  /// Thread-safe copy of the retained history.
  std::vector<QueryStats> SnapshotEntries() const;
  /// Lifetime count, including evicted records.
  int64_t total_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_recorded_;
  }
  int64_t total_failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_failed_;
  }

  // --- drift detection ---

  /// Divergence-from-mean fraction beyond which a run counts as drifted
  /// (0.25 = 25%). Applies to queries recorded after the change.
  void set_drift_threshold(double fraction);
  double drift_threshold() const;

  /// Drifted runs observed so far (bounded ring of the most recent 64).
  std::vector<DriftEvent> DriftEvents() const;

  // --- misestimate tracking (estimation accountability) ---

  /// Misestimated runs observed so far (bounded ring of the most recent 64).
  std::vector<MisestimateEvent> MisestimateEvents() const;

  /// Shell-facing `\qerror [label]` drill-down: the retained misestimate
  /// ring (optionally filtered to one label), worst operator first per
  /// entry, with estimate, actual, q-error, and predicate shape.
  std::vector<std::string> QErrorDrilldown(const std::string& label) const;

  void Clear();

  /// Shell-facing summary: lifetime totals, then one line per retained
  /// query (label, system, modelled seconds, bytes, recovery).
  std::vector<std::string> Summary() const;

  /// Shell-facing per-label drill-down: the label's running aggregates
  /// (runs, failures, cache hits, mean/min/max modelled seconds), its
  /// retained runs, and any drift events. Empty label -> list of known
  /// labels.
  std::vector<std::string> LabelDrilldown(const std::string& label) const;

  /// JSON dump of the retained history (machine-readable `\stats` / the
  /// bench --querylog artifact).
  std::string ToJson() const;

 private:
  /// Running aggregates for one query label. Mean/min/max track successful
  /// runs only (a failed run's time measures the fault schedule, not the
  /// plan).
  struct LabelStats {
    int64_t runs = 0;
    int64_t failures = 0;
    int64_t cache_hits = 0;
    int64_t drifts = 0;
    double sum_seconds = 0;
    double min_seconds = 0;
    double max_seconds = 0;
    int64_t ok_runs() const { return runs - failures; }
    double mean_seconds() const {
      return ok_runs() > 0 ? sum_seconds / static_cast<double>(ok_runs()) : 0;
    }
  };

  static constexpr int64_t kDriftMinSamples = 3;
  static constexpr size_t kDriftRingCapacity = 64;
  static constexpr size_t kMisestimateRingCapacity = 64;
  /// Max q-error at or above which a recorded query is banked as a
  /// MisestimateEvent.
  static constexpr double kMisestimateQError = 4.0;

  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<QueryStats> entries_;
  int64_t total_recorded_ = 0;
  int64_t total_failed_ = 0;
  double lifetime_modelled_seconds_ = 0;
  double lifetime_useful_bytes_ = 0;
  double lifetime_wasted_bytes_ = 0;
  double drift_threshold_ = 0.25;
  std::map<std::string, LabelStats> label_stats_;
  std::deque<DriftEvent> drift_events_;
  std::deque<MisestimateEvent> misestimate_events_;
};

}  // namespace xdb
