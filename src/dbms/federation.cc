#include "src/dbms/federation.h"

#include <algorithm>

#include "src/common/str_util.h"
#include "src/dbms/server.h"

namespace xdb {

namespace {
// Per-thread span-recorder override; concurrent sessions record their own
// timelines (a SpanRecorder's open-span stack is single-threaded).
thread_local SpanRecorder* t_span_override = nullptr;
}  // namespace

Federation::Federation() = default;
Federation::~Federation() = default;

Federation::RunState& Federation::ThreadRun() {
  static thread_local RunState t_run;
  return t_run;
}

SpanRecorder* Federation::span_recorder() const {
  return t_span_override != nullptr ? t_span_override : spans_;
}

void Federation::SetThreadSpanRecorder(SpanRecorder* recorder) {
  t_span_override = recorder;
}

DatabaseServer* Federation::AddServer(const std::string& name,
                                      EngineProfile profile) {
  auto server = std::make_unique<DatabaseServer>(name, std::move(profile),
                                                 this);
  DatabaseServer* ptr = server.get();
  servers_[name] = std::move(server);
  network_.AddNode(name);
  return ptr;
}

DatabaseServer* Federation::GetServer(const std::string& name) const {
  auto it = servers_.find(name);
  return it != servers_.end() ? it->second.get() : nullptr;
}

std::vector<std::string> Federation::ServerNames() const {
  std::vector<std::string> names;
  for (const auto& [n, s] : servers_) names.push_back(n);
  return names;
}

void Federation::BeginRun(const std::string& root_server) {
  RunState& rs = ThreadRun();
  rs.run = RunTrace{};
  rs.run.root_server = root_server;
  rs.stack.clear();
  rs.next_record_id = 0;
  rs.control_messages = 0;
  rs.owner = this;
  rs.active = true;
}

RunTrace Federation::FinishRun() {
  RunState& rs = ThreadRun();
  // Join delivered transfers with their planning-time estimates: failed
  // transfers (and replanned-away rounds — each round is its own run) never
  // enter the ledger, so estimates always describe executed work.
  for (const auto& t : rs.run.transfers) {
    // messages == 0 is the remote-evaluation-failure pop: nothing was
    // delivered, so there is no actual to hold the estimate against.
    if (t.failed || t.est_rows < 0 || t.messages == 0) continue;
    EstimateActual ea;
    ea.op = "transfer";
    ea.server = t.src + "->" + t.dst;
    ea.detail = t.relation;
    ea.est_rows = t.est_rows;
    ea.act_rows = t.rows;
    ea.est_bytes = std::max(0.0, t.est_bytes);
    ea.act_bytes = t.bytes;
    ea.q_error = QError(t.est_rows, t.rows);
    if (metrics_ != nullptr) {
      m_.qerror->Observe(ea.q_error);
      metrics_
          ->GetHistogram("xdb_qerror", {{"op", ea.op}, {"server", ea.server}},
                         {})
          ->Observe(ea.q_error);
      double berr = QError(ea.est_bytes, ea.act_bytes);
      m_.bytes_error->Observe(berr);
      metrics_->GetHistogram("xdb_bytes_error", {{"link", ea.server}}, {})
          ->Observe(berr);
    }
    rs.run.estimates.push_back(std::move(ea));
  }
  rs.active = false;
  rs.owner = nullptr;
  rs.run.per_server[rs.run.root_server].Add(rs.run.root_compute);
  if (metrics_ != nullptr) {
    // Useful/wasted split is only final once the run closed (a transfer can
    // be marked failed after its PopFetch), so bytes flush here — to the
    // process-wide totals and, per transfer, to the producing server's and
    // the link's labeled series.
    m_.bytes_useful->Increment(rs.run.UsefulTransferredBytes());
    m_.bytes_wasted->Increment(rs.run.WastedTransferredBytes());
    m_.backoff_seconds->Increment(rs.run.total_backoff_seconds);
    m_.injected_delay_seconds->Increment(rs.run.injected_delay_seconds);
    for (const auto& t : rs.run.transfers) {
      const std::string link = t.src + "->" + t.dst;
      const char* family = t.failed ? "xdb_federation_wasted_bytes_total"
                                    : "xdb_federation_useful_bytes_total";
      m_.transfer_bytes->Observe(t.bytes);
      metrics_->GetHistogram("xdb_federation_transfer_bytes",
                             {{"link", link}}, {})
          ->Observe(t.bytes);
      metrics_->GetCounter(family, {{"server", t.src}})->Increment(t.bytes);
      metrics_->GetCounter(family, {{"link", link}})->Increment(t.bytes);
    }
  }
  return std::move(rs.run);
}

int Federation::control_messages() const {
  return ThreadRun().control_messages;
}

ComputeTrace* Federation::CurrentTrace() {
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return &rs.scratch;
  if (!rs.stack.empty()) return &rs.stack.back().trace;
  return &rs.run.root_compute;
}

int Federation::PushFetch(const std::string& src, const std::string& dst,
                          const std::string& relation, double est_rows,
                          double est_bytes) {
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) {
    rs.stack.push_back({-1, -1, ComputeTrace{}});
    return -1;
  }
  TransferRecord rec;
  rec.id = rs.next_record_id++;
  rec.parent_id = rs.stack.empty() ? -1 : rs.stack.back().record_id;
  rec.src = src;
  rec.dst = dst;
  rec.relation = relation;
  rec.est_rows = est_rows;
  rec.est_bytes = est_bytes;
  rs.run.transfers.push_back(rec);
  int64_t span_id = -1;
  SpanRecorder* spans = span_recorder();
  if (spans != nullptr) {
    span_id = spans->StartSpan("fetch " + relation);
    Span* sp = spans->mutable_span(span_id);
    sp->record_id = rec.id;
    sp->Tag("src", src);
    sp->Tag("dst", dst);
    sp->Tag("relation", relation);
  }
  if (metrics_ != nullptr) {
    m_.fetches->Increment();
    metrics_->GetCounter("xdb_federation_fetches_total", {{"server", src}})
        ->Increment();
  }
  rs.stack.push_back({rec.id, span_id, ComputeTrace{}});
  return rec.id;
}

void Federation::PopFetch(int id, double rows, double bytes,
                          uint64_t messages, bool materialized,
                          double raw_bytes) {
  RunState& rs = ThreadRun();
  Frame frame = std::move(rs.stack.back());
  rs.stack.pop_back();
  // span_id == -1 means no span was opened (no recorder at PushFetch);
  // kDroppedSpan (sampled-out tree) must still be ended to keep the
  // recorder's open-span stack balanced.
  SpanRecorder* spans = span_recorder();
  if (spans != nullptr && frame.span_id != -1) {
    Span* sp = spans->mutable_span(frame.span_id);
    sp->Tag("rows", rows);
    sp->Tag("bytes", bytes);
    sp->Tag("messages", static_cast<int64_t>(messages));
    if (materialized) sp->Tag("materialized", std::string("true"));
    spans->EndSpan(frame.span_id);
  }
  if (metrics_ != nullptr) m_.fetch_rows->Increment(rows);
  if (!ActiveHere(rs) || id < 0) return;
  // Records are appended in id order (id == index within the run), so the
  // lookup is O(1) — the previous linear scan made deeply-fetching runs
  // quadratic in their transfer count.
  size_t idx = static_cast<size_t>(id);
  if (idx >= rs.run.transfers.size() || rs.run.transfers[idx].id != id) {
    return;
  }
  TransferRecord& rec = rs.run.transfers[idx];
  rec.rows = rows;
  rec.bytes = bytes;
  // Negative raw_bytes means "raw-row transfer": the wire bytes *are* the
  // row-format bytes. Encoded transfers pass the uncompressed size so the
  // per-transfer compression is preserved in the trace.
  rec.raw_bytes = raw_bytes < 0 ? bytes : raw_bytes;
  rec.encoded = raw_bytes >= 0;
  rec.messages = messages;
  rec.materialized = materialized;
  rec.producer_compute = frame.trace;
  rs.run.per_server[rec.src].Add(frame.trace);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("xdb_federation_fetch_rows_total",
                         {{"server", rec.src}})
        ->Increment(rows);
    if (rec.encoded && bytes > 0) {
      // Per relation *shape* (xdb_q12_t4 -> xdb_q*_t*): label cardinality
      // stays bounded by the schema rather than by query count.
      metrics_
          ->GetGauge("xdb_transfer_compression_ratio",
                     {{"relation", CollapseDigitRuns(rec.relation)}},
                     "Raw/encoded byte ratio of the latest columnar "
                     "transfer of this relation shape")
          ->Set(rec.raw_bytes / bytes);
    }
  }
}

Status Federation::InjectFault(const std::string& server, FaultOp op,
                               const std::string& peer) {
  if (injector_ == nullptr) return Status::OK();
  double delay = 0;
  Status st = injector_->OnOperation(server, op, peer, &delay);
  if (delay > 0) ChargeBudget(delay);
  RunState& rs = ThreadRun();
  if (ActiveHere(rs) && delay > 0) rs.run.injected_delay_seconds += delay;
  if (!st.ok() && metrics_ != nullptr) {
    m_.faults_injected->Increment();
    metrics_
        ->GetCounter("xdb_federation_faults_injected_total",
                     {{"server", server}})
        ->Increment();
  }
  return st;
}

void Federation::RecordRetry(RetryEvent event) {
  SpanRecorder* spans = span_recorder();
  if (spans != nullptr && (event.attempts > 1 || !event.succeeded)) {
    int64_t id = spans->StartSpan("retry " + event.op);
    Span* sp = spans->mutable_span(id);
    sp->duration_seconds = event.backoff_seconds;
    sp->Tag("server", event.server);
    sp->Tag("attempts", static_cast<int64_t>(event.attempts));
    sp->Tag("succeeded", std::string(event.succeeded ? "true" : "false"));
    if (!event.error.empty()) sp->Tag("error", event.error);
    spans->EndSpan(id);
  }
  if (metrics_ != nullptr && event.attempts > 1) {
    m_.retries->Increment(event.attempts - 1);
    metrics_
        ->GetCounter("xdb_federation_retries_total",
                     {{"server", event.server}})
        ->Increment(event.attempts - 1);
  }
  ChargeBudget(event.backoff_seconds);
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return;
  rs.run.total_backoff_seconds += event.backoff_seconds;
  if (event.attempts > 1 && event.succeeded) {
    NoteRecovery(RecoveryAction::kRetried);
  }
  rs.run.retries.push_back(std::move(event));
}

void Federation::NoteRecovery(RecoveryAction action) {
  if (metrics_ != nullptr && action == RecoveryAction::kRolledBack) {
    m_.rollbacks->Increment();
  }
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return;
  rs.run.recovery_action = std::max(rs.run.recovery_action, action);
}

void Federation::MarkTransferFailed(int id) {
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs) || id < 0) return;
  size_t idx = static_cast<size_t>(id);
  if (idx >= rs.run.transfers.size() || rs.run.transfers[idx].id != id) {
    return;
  }
  rs.run.transfers[idx].failed = true;
}

void Federation::RecordEstimate(EstimateActual record) {
  record.q_error = QError(record.est_rows, record.act_rows);
  if (metrics_ != nullptr) {
    m_.qerror->Observe(record.q_error);
    metrics_
        ->GetHistogram("xdb_qerror",
                       {{"op", record.op}, {"server", record.server}}, {})
        ->Observe(record.q_error);
  }
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return;
  rs.run.estimates.push_back(std::move(record));
}

void Federation::RecordControlMessage(const std::string& a,
                                      const std::string& b, double bytes) {
  network_.RecordTransfer(a, b, bytes, 1);
  RunState& rs = ThreadRun();
  if (ActiveHere(rs)) ++rs.control_messages;
}

void Federation::SetMetricsRegistry(MetricsRegistry* registry) {
  metrics_ = registry;
  network_.set_metrics(registry);
  // Drop every cached handle: they point into the previous registry.
  m_ = FedMetrics{};
  if (registry == nullptr) return;
  m_.fetches = registry->GetCounter(
      "xdb_federation_fetches_total", "Inter-DBMS foreign fetches started");
  m_.fetch_rows = registry->GetCounter(
      "xdb_federation_fetch_rows_total", "Rows delivered by foreign fetches");
  m_.bytes_useful = registry->GetCounter(
      "xdb_federation_useful_bytes_total",
      "Transferred bytes of completed fetches (payload the consumer used)");
  m_.bytes_wasted = registry->GetCounter(
      "xdb_federation_wasted_bytes_total",
      "Transferred bytes of failed fetches (dropped mid-flight / replanned "
      "away)");
  m_.retries = registry->GetCounter(
      "xdb_federation_retries_total", "Extra attempts beyond the first");
  m_.backoff_seconds = registry->GetCounter(
      "xdb_federation_backoff_seconds_total", "Modelled retry backoff");
  m_.rollbacks = registry->GetCounter(
      "xdb_federation_rollbacks_total", "All-or-nothing deploy rollbacks");
  m_.replan_rounds = registry->GetCounter(
      "xdb_federation_replan_rounds_total", "Failover re-annotation rounds");
  m_.faults_injected = registry->GetCounter(
      "xdb_federation_faults_injected_total", "Faults fired by the injector");
  m_.injected_delay_seconds = registry->GetCounter(
      "xdb_federation_injected_delay_seconds_total",
      "Modelled delay charged by injected faults");
  m_.ddl = registry->GetCounter(
      "xdb_delegation_ddl_total",
      "DDL statements issued to component DBMSs (deploy / cleanup)");
  m_.transfer_bytes = registry->GetHistogram(
      "xdb_federation_transfer_bytes",
      {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
      "Per-transfer payload size distribution");
  m_.qerror = registry->GetHistogram(
      "xdb_qerror", {1.5, 2, 4, 8, 16, 64, 256, 1024},
      "Cardinality q-error of planner estimates vs observed rows");
  m_.bytes_error = registry->GetHistogram(
      "xdb_bytes_error", {1.5, 2, 4, 8, 16, 64, 256, 1024},
      "Byte-volume q-error of transfer estimates vs wire bytes");
  if (health_ != nullptr) health_->SetMetricsRegistry(registry);
}

void Federation::CountReplanRounds(int rounds) {
  if (metrics_ != nullptr && rounds > 0) m_.replan_rounds->Increment(rounds);
}

void Federation::CountDdl(const std::string& server) {
  if (metrics_ == nullptr) return;
  m_.ddl->Increment();
  metrics_->GetCounter("xdb_delegation_ddl_total", {{"server", server}})
      ->Increment();
}

void Federation::SetHealthTracker(HealthTracker* tracker) {
  health_ = tracker;
  if (health_ != nullptr && metrics_ != nullptr) {
    health_->SetMetricsRegistry(metrics_);
  }
}

void Federation::RecordHealthOutcome(const std::string& server, int attempts,
                                     const Status& final_status) {
  if (health_ == nullptr) return;
  // Every intermediate attempt failed retryably by construction of the
  // retry loop; the final attempt counts only when its verdict speaks to
  // server health.
  for (int i = 1; i < attempts; ++i) health_->RecordOutcome(server, false);
  if (final_status.ok()) {
    health_->RecordOutcome(server, true);
  } else if (final_status.IsRetryable()) {
    health_->RecordOutcome(server, false);
  }
}

Federation::BudgetState& Federation::ThreadBudget() {
  static thread_local BudgetState t_budget;
  return t_budget;
}

void Federation::ArmQueryBudget(double deadline_seconds, bool allow_partial) {
  BudgetState& b = ThreadBudget();
  b.owner = this;
  b.deadline_armed = deadline_seconds > 0;
  b.remaining = deadline_seconds;
  b.allow_partial = allow_partial;
}

void Federation::DisarmQueryBudget() {
  BudgetState& b = ThreadBudget();
  b.owner = nullptr;
  b.deadline_armed = false;
  b.remaining = 0;
  b.allow_partial = false;
}

double Federation::RemainingBudget() const {
  const BudgetState& b = ThreadBudget();
  if (b.owner != this || !b.deadline_armed) return -1.0;
  return std::max(0.0, b.remaining);
}

void Federation::ChargeBudget(double seconds) {
  BudgetState& b = ThreadBudget();
  if (b.owner != this || !b.deadline_armed || seconds <= 0) return;
  b.remaining -= seconds;
}

bool Federation::PartialAllowed() const {
  const BudgetState& b = ThreadBudget();
  return b.owner == this && b.allow_partial;
}

void Federation::RecordLostFragment(FragmentLoss loss) {
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("xdb_partial_results_total", {{"reason", loss.reason}},
                     "Result fragments abandoned under the partial-results "
                     "policy")
        ->Increment();
  }
  NoteRecovery(RecoveryAction::kDegraded);
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return;
  rs.run.lost_fragments.push_back(std::move(loss));
}

}  // namespace xdb
