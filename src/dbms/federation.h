#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/retry.h"
#include "src/dbms/engine_profile.h"
#include "src/dbms/health.h"
#include "src/dbms/run_trace.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/span.h"
#include "src/testing/fault_injector.h"

namespace xdb {

class DatabaseServer;

/// \brief How inter-DBMS transfers are shipped on the simulated wire.
enum class WireFormat : uint8_t {
  /// Classic row-format text protocol: bytes = sum of row serialized sizes
  /// times the engine-pair wire inflation. The default; all accounting is
  /// bit-identical to before the columnar wire existed.
  kRawRows,
  /// Compressed column chunks (dictionary/RLE; see ColumnChunk): bytes =
  /// the table's encoded size, with no text-protocol inflation. Always <=
  /// the raw-row bytes for the same payload; transfer records additionally
  /// carry the raw byte count so compression is measurable per transfer.
  kColumnar,
};

/// \brief The federation: the set of autonomous DBMS servers plus the
/// simulated network between them.
///
/// The federation owns every inter-DBMS fetch (Fetch): the fault gates, the
/// request, the producer's evaluation, the wire charge, retries under the
/// deadline budget, breaker blame and partial-result substitution. It is the
/// one retry gate (RunWithRetry) for fetches and the delegation engine's
/// DDL alike, and the one blame rule (RecordHealthOutcome) for every
/// outcome the health tracker sees. Servers only serve their side
/// (DatabaseServer::ServeRemote) and forward each foreign scan here.
///
/// The federation is also the run recorder: while a top-level query executes
/// it maintains a stack of compute-trace frames so that each inter-DBMS fetch
/// is attributed to its producing server and nests correctly under the fetch
/// that triggered it (RunTrace's transfer tree).
///
/// Concurrency: run-recording state is *thread-local* — each serving thread
/// records its own query's run independently, so concurrent sessions sharing
/// one federation never interleave their traces (BeginRun/FinishRun must be
/// called on the thread that executes the query, which the single-threaded
/// query systems already guarantee). Topology mutation (AddServer/SetNetwork)
/// and observability attachment (SetSpanRecorder/SetMetricsRegistry/...) are
/// setup-time only; labeled metric cells come straight from the registry,
/// which guards its own lookups, so concurrent runs may flush them safely.
class Federation {
 public:
  Federation();
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Creates and registers a server; the federation owns it.
  DatabaseServer* AddServer(const std::string& name,
                            EngineProfile profile);

  /// Returns nullptr when unknown.
  DatabaseServer* GetServer(const std::string& name) const;

  std::vector<std::string> ServerNames() const;

  Network& network() { return network_; }
  const Network& network() const { return network_; }
  void SetNetwork(Network net) {
    network_ = std::move(net);
    network_.set_fault_injector(injector_);
    network_.set_metrics(metrics_);
  }

  /// Wire format for inter-DBMS data transfers (setup-time only; benches
  /// flip it per testbed pass). Defaults to kRawRows, which keeps every
  /// byte count bit-identical to the pre-columnar accounting.
  void set_wire_format(WireFormat format) { wire_format_ = format; }
  WireFormat wire_format() const { return wire_format_; }

  /// What shipping one table costs on the wire.
  struct WireCharge {
    double raw = 0;        // row-format bytes x protocol inflation
    double bytes = 0;      // bytes charged on the wire
    bool encoded = false;  // shipped as compressed column chunks
  };

  /// The wire charge of `table` between engines whose protocols inflate row
  /// text by `inflation`: the raw row bytes, or on the columnar wire
  /// min(raw, encoded size) — a sender whose encoding does not pay falls
  /// back to the row protocol.
  WireCharge ChargeWire(const Table& table, double inflation = 1.0) const;

  /// Fetches `SELECT * FROM relation` from `producer` for `consumer` (one
  /// foreign scan): reachability, then per attempt the kFetch fault gate,
  /// the request message, the producer's evaluation (in a producer frame
  /// nested under the current one), the wire charge and the kTransfer gate
  /// (a link drop wastes half the payload), retried through RunWithRetry.
  /// An undeliverable fragment becomes an empty relation when the query
  /// allows partial results; otherwise the error carries a FailureSite.
  /// `est_rows`/`est_bytes` are the planner's estimates for the foreign
  /// scan; `materialized` marks the consumer's CTAS input.
  Result<TablePtr> Fetch(const DatabaseServer& consumer,
                         const std::string& producer,
                         const std::string& relation, double est_rows,
                         double est_bytes, bool materialized);

  // --- observability (no-ops unless a recorder/registry is attached) ---

  /// Attaches a span recorder (nullptr detaches — the default). While
  /// attached, every query run yields a hierarchical timeline: the systems
  /// open phase spans, the federation opens one span per inter-DBMS fetch
  /// and per retry. Recording is observational only: modelled seconds,
  /// transfer bytes, and results are bit-identical with and without it.
  void SetSpanRecorder(SpanRecorder* recorder) { spans_ = recorder; }

  /// The recorder the *calling thread* should use: the thread override when
  /// one is set (concurrent sessions each record their own timeline — a
  /// single SpanRecorder's open-span stack cannot be shared across threads),
  /// otherwise the federation-wide recorder.
  SpanRecorder* span_recorder() const;

  /// Sets (nullptr clears) the calling thread's span-recorder override.
  /// Scoped by the serving layer around each query it runs.
  static void SetThreadSpanRecorder(SpanRecorder* recorder);

  /// Attaches a metrics registry (nullptr detaches — the default; pass
  /// &MetricsRegistry::Global() for process-wide exposition). Federation
  /// counters: fetches, useful/wasted transferred bytes, retries, backoff,
  /// rollbacks, replans, injected faults — each both as a process-wide
  /// total and as per-`{server=...}` / per-`{link="src->dst"}` labeled
  /// series (DESIGN.md §8 label-cardinality rules). Also handed to the
  /// network for per-message and per-link accounting.
  void SetMetricsRegistry(MetricsRegistry* registry);
  MetricsRegistry* metrics() const { return metrics_; }

  /// Attaches a query-history log (nullptr detaches — the default). The
  /// query systems (XdbSystem, MediatorSystem) bank one QueryStats record
  /// per top-level query here. Observational only.
  void SetQueryLog(QueryLog* log) { query_log_ = log; }
  QueryLog* query_log() const { return query_log_; }

  /// Raises the federation-level counter for one completed replan round
  /// (failover accounting lives in XdbSystem; the counter lives here so
  /// every system sharing the federation reports to one place).
  void CountReplanRounds(int rounds);

  /// Counts one issued DDL statement on `server` (delegation deploy /
  /// cleanup path) under `xdb_delegation_ddl_total{server=...}`.
  void CountDdl(const std::string& server);

  // --- fault injection & retry (no-ops unless an injector is attached) ---

  /// Attaches a fault injector (nullptr detaches). The injector is also
  /// handed to the network for slow-link degradation. The caller keeps
  /// ownership and must outlive the federation's use.
  void SetFaultInjector(FaultInjector* injector) {
    injector_ = injector;
    network_.set_fault_injector(injector);
  }
  FaultInjector* fault_injector() const { return injector_; }

  /// Consults the injector for an operation on `server` (peer = other link
  /// endpoint for fetches/transfers). OK when no injector is attached; a
  /// fired fault's status carries its FailureSite. The modelled delay the
  /// fault charges lands on the calling thread's run and budget.
  Status InjectFault(const std::string& server, FaultOp op,
                     const std::string& peer = std::string());

  /// Federation-wide retry policy of RunWithRetry.
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// The retry gate for an `op` (kDdl or kFetch) against `server`: runs
  /// `attempt` under the retry policy and the calling thread's remaining
  /// budget, records a RetryEvent when it retried or failed retryably, and
  /// feeds the outcome to RecordHealthOutcome.
  RetryOutcome RunWithRetry(const std::string& server, FaultOp op,
                            const std::function<Status()>& attempt);

  /// Raises the active run's recovery action if `action` outranks it.
  void NoteRecovery(RecoveryAction action);

  // --- per-server health & circuit breakers ---

  /// Attaches a health tracker (nullptr detaches — the default). Retry
  /// sites feed operation outcomes into it passively; XdbSystem consults
  /// it when planning to route around open breakers. The caller keeps
  /// ownership and must outlive the federation's use.
  void SetHealthTracker(HealthTracker* tracker);
  HealthTracker* health_tracker() const { return health_; }

  /// Feeds one retried operation's outcome into the attached tracker:
  /// `attempts - 1` retryable failures plus the final outcome. The final
  /// status counts as a failure only when itself retryable — a catalog or
  /// parse error says nothing about the server's health. A failure whose
  /// site is on the fetch path of another server is skipped entirely: the
  /// fetch loop that named that server already charged it. No-op when no
  /// tracker is attached.
  void RecordHealthOutcome(const std::string& server, int attempts,
                           const Status& final_status);

  // --- per-query degradation budget (thread-local, armed by the query
  //     systems around each top-level query) ---

  /// Arms the calling thread's modelled-time deadline budget and partial-
  /// results policy for one top-level query. `deadline_seconds <= 0` means
  /// no deadline (allow_partial may still be set). Always pair with
  /// DisarmQueryBudget.
  void ArmQueryBudget(double deadline_seconds, bool allow_partial);
  void DisarmQueryBudget();

  /// Remaining modelled budget of the calling thread's query, clamped at
  /// zero; negative when no deadline is armed (unlimited).
  double RemainingBudget() const;

  /// Deducts modelled seconds from the armed budget (no-op when none).
  /// Retry backoff and injected fault delay charge automatically through
  /// RunWithRetry/InjectFault; the query systems charge planning phases and
  /// failed failover rounds explicitly.
  void ChargeBudget(double seconds);

  // --- run recording (thread-local: one active run per serving thread) ---

  /// Starts recording a top-level query run rooted at `root_server` on the
  /// calling thread.
  void BeginRun(const std::string& root_server);

  /// Ends recording and returns everything observed on the calling thread.
  RunTrace FinishRun();

  /// The compute-trace frame rows should currently be attributed to.
  ComputeTrace* CurrentTrace();

  /// Appends one estimate-vs-actual record to the active run's ledger
  /// (dropped when none) and observes its cardinality q-error — computed
  /// here from est/act rows — on `xdb_qerror{op=,server=}`. Called by the
  /// servers after a profiled statement; the fetch path feeds the ledger
  /// through the estimates its transfer records carry instead.
  void RecordEstimate(EstimateActual record);

  /// Accounts a small control-plane round trip (metadata, DDL, EXPLAIN).
  void RecordControlMessage(const std::string& a, const std::string& b,
                            double bytes = 256);

 private:
  struct Frame {
    int record_id;
    int64_t span_id;  // open fetch span (-1 when no recorder / no run)
    ComputeTrace trace;
  };

  /// Per-thread run-recording state. One serving thread drives one query at
  /// a time, so a thread_local instance (keyed by `owner`) replaces the
  /// former member state without changing single-threaded behaviour.
  struct RunState {
    const Federation* owner = nullptr;
    bool active = false;
    RunTrace run;
    // Deque, not vector: CurrentTrace() hands out pointers to the top frame
    // that must survive nested OpenTransfer growth (vector reallocation would
    // dangle them).
    std::deque<Frame> stack;
    ComputeTrace scratch;  // sink when no run is active
    int next_record_id = 0;
  };
  static RunState& ThreadRun();
  bool ActiveHere(const RunState& rs) const {
    return rs.active && rs.owner == this;
  }

  /// Per-thread deadline budget + partial policy. Separate from RunState
  /// because one query's budget spans preparation and *multiple* failover
  /// rounds, each of which is its own BeginRun/FinishRun pair.
  struct BudgetState {
    const Federation* owner = nullptr;
    bool deadline_armed = false;
    double remaining = 0;
    bool allow_partial = false;
  };
  static BudgetState& ThreadBudget();

  /// Pushes a producer-compute frame for a fetch of `relation` from `src`
  /// by `dst`; inside an active run also opens its transfer record (with
  /// the planner's estimates), fetch span and metrics.
  void OpenTransfer(const std::string& src, const std::string& dst,
                    const std::string& relation, double est_rows,
                    double est_bytes);

  /// Pops the innermost frame, filling its transfer record with what went
  /// on the wire and attributing the producer's compute to `src`.
  void CloseTransfer(double rows, const WireCharge& wire, uint64_t messages,
                     bool materialized, bool failed);

  /// Appends a retry event to the active run (dropped when none).
  void RecordRetry(RetryEvent event);

  /// Records a fragment abandoned under the partial-results policy on the
  /// active run: notes the "degraded" recovery action and bumps
  /// xdb_partial_results_total{reason=...}.
  void RecordLostFragment(FragmentLoss loss);

  /// Unlabeled metric handles, registered eagerly at SetMetricsRegistry so
  /// every family shows in the exposition even before its first event.
  /// Labeled cells are looked up in the registry per event.
  struct FedMetrics {
    Counter* fetches = nullptr;
    Counter* fetch_rows = nullptr;
    Counter* bytes_useful = nullptr;
    Counter* bytes_wasted = nullptr;
    Counter* retries = nullptr;
    Counter* backoff_seconds = nullptr;
    Counter* rollbacks = nullptr;
    Counter* replan_rounds = nullptr;
    Counter* faults_injected = nullptr;
    Counter* injected_delay_seconds = nullptr;
    Counter* ddl = nullptr;
    Histogram* transfer_bytes = nullptr;
    Histogram* qerror = nullptr;       // cardinality q-error, all operators
    Histogram* bytes_error = nullptr;  // transfer byte-volume q-error
  };

  std::map<std::string, std::unique_ptr<DatabaseServer>> servers_;
  Network network_;
  WireFormat wire_format_ = WireFormat::kRawRows;
  FaultInjector* injector_ = nullptr;
  HealthTracker* health_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  QueryLog* query_log_ = nullptr;
  FedMetrics m_;
  RetryPolicy retry_policy_;
};

}  // namespace xdb
