#include "src/dbms/federation.h"

#include <algorithm>

#include "src/common/str_util.h"
#include "src/dbms/server.h"

namespace xdb {

namespace {
// Per-thread span-recorder override; concurrent sessions record their own
// timelines (a SpanRecorder's open-span stack is single-threaded).
thread_local SpanRecorder* t_span_override = nullptr;

// When an injected link drop aborts a transfer, this fraction of the
// payload is modelled as already on the wire (wasted bytes that still
// count toward transfer accounting and modelled time).
constexpr double kLinkDropFraction = 0.5;
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
  rs.owner = this;
  rs.active = true;
}

RunTrace Federation::FinishRun() {
  RunState& rs = ThreadRun();
  // Join delivered transfers with their planning-time estimates: failed
  // transfers (and replanned-away rounds — each round is its own run) never
  // enter the ledger, so estimates always describe executed work.
  for (const auto& t : rs.run.transfers) {
    // messages == 0 is a failed remote evaluation: nothing was delivered,
    // so there is no actual to hold the estimate against.
    if (t.failed || t.messages == 0) continue;
    EstimateActual ea;
    ea.op.transfer = true;
    ea.server = t.src + "->" + t.dst;
    ea.detail = t.relation;
    ea.est_rows = t.est_rows;
    ea.act_rows = t.rows;
    ea.est_bytes = t.est_bytes;
    ea.act_bytes = t.bytes;
    ea.q_error = QError(t.est_rows, t.rows);
    if (metrics_ != nullptr) {
      m_.qerror->Observe(ea.q_error);
      metrics_
          ->GetHistogram("xdb_qerror",
                         {{"op", EstimateOpName(ea.op)}, {"server", ea.server}},
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
    // Bytes flush once per run — to the process-wide useful/wasted totals
    // and, per transfer, to the producing server's and the link's labeled
    // series.
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

ComputeTrace* Federation::CurrentTrace() {
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return &rs.scratch;
  if (!rs.stack.empty()) return &rs.stack.back().trace;
  return &rs.run.root_compute;
}

Federation::WireCharge Federation::ChargeWire(const Table& table,
                                              double inflation) const {
  WireCharge wire;
  wire.raw = static_cast<double>(table.SerializedSize()) * inflation;
  wire.encoded = wire_format_ == WireFormat::kColumnar;
  wire.bytes = wire.encoded
                   ? std::min(wire.raw, static_cast<double>(
                                            table.EncodedSerializedSize()))
                   : wire.raw;
  return wire;
}

Result<TablePtr> Federation::Fetch(const DatabaseServer& consumer,
                                   const std::string& producer,
                                   const std::string& relation,
                                   double est_rows, double est_bytes,
                                   bool materialized) {
  const std::string& dst = consumer.name();
  DatabaseServer* remote = GetServer(producer);
  if (remote == nullptr) {
    return Status::NetworkError("unknown foreign server: " + producer);
  }
  if (!network_.IsReachable(dst, producer)) {
    return Status::NetworkError("no connectivity between " + dst + " and " +
                                producer);
  }
  const double inflation = std::max(consumer.profile().wire_inflation,
                                    remote->profile().wire_inflation);
  // The planner's byte estimate is in serialized row-format bytes; put it
  // on the same wire-inflation basis as the observed charge so the byte
  // q-error reflects cardinality/width error, not protocol constants.
  const double est_wire_bytes = est_bytes * inflation;

  // One attempt end to end; an injected link drop aborts it mid-flight,
  // wasting the bytes already sent.
  TablePtr table;
  RetryOutcome out = RunWithRetry(producer, FaultOp::kFetch, [&]() -> Status {
    XDB_RETURN_NOT_OK(InjectFault(producer, FaultOp::kFetch, dst));
    // Request message (the `SELECT * FROM relation` text).
    network_.RecordTransfer(dst, producer, 128.0, 1);
    OpenTransfer(producer, dst, relation, est_rows, est_wire_bytes);
    Result<TablePtr> result = remote->ServeRemote(relation);
    if (!result.ok()) {  // nothing went on the wire
      CloseTransfer(0, WireCharge{}, 0, false, /*failed=*/false);
      return result.status();
    }
    TablePtr t = std::move(result).value();
    const WireCharge wire = ChargeWire(*t, inflation);
    const double rows = static_cast<double>(t->num_rows());
    const auto messages = static_cast<uint64_t>(Network::Batches(rows));
    Status drop = InjectFault(producer, FaultOp::kTransfer, dst);
    if (!drop.ok()) {
      // Link dropped mid-transfer: the producer's compute and part of the
      // payload are wasted but still accounted (they really happened).
      const WireCharge wasted{wire.raw * kLinkDropFraction,
                              wire.bytes * kLinkDropFraction, wire.encoded};
      const uint64_t partial = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(messages) *
                                   kLinkDropFraction));
      network_.RecordTransfer(producer, dst, wasted.bytes, partial,
                              wire.encoded);
      CloseTransfer(0, wasted, partial, false, /*failed=*/true);
      return drop;
    }
    network_.RecordTransfer(producer, dst, wire.bytes, messages,
                            wire.encoded);
    CloseTransfer(rows, wire, messages, materialized, /*failed=*/false);
    table = std::move(t);
    return Status::OK();
  });
  const Status& st = out.status;
  if (st.ok()) return table;
  // Graceful degradation: when the query opted into partial results, an
  // undeliverable non-root fragment becomes an empty relation with the
  // declared schema (available locally through the foreign-table mapping,
  // like an FDW's) so joins and aggregates above it still run over the
  // surviving fragments. The root query itself is never fetched, so the
  // top of the plan cannot be substituted.
  const BudgetState& budget = ThreadBudget();
  if (st.IsRetryable() && budget.owner == this && budget.allow_partial) {
    Result<Schema> schema = remote->DescribeRelation(relation);
    if (schema.ok()) {
      FragmentLoss loss;
      loss.relation = relation;
      loss.server = producer;
      loss.consumer = dst;
      loss.reason = out.budget_exhausted                  ? "deadline"
                    : st.code() == StatusCode::kTimeout ? "link-drop"
                                                        : "node-down";
      if (Result<double> est = remote->EstimateRelationRows(relation);
          est.ok()) {
        loss.est_rows = *est;
      }
      RecordLostFragment(std::move(loss));
      return std::make_shared<Table>(*schema);
    }
  }
  // The site tells the callers up the stack whom the fetch loop charged.
  Status failed = st.WithContext("foreign fetch of " + producer + "." +
                                 relation + " by " + dst);
  if (st.site() != nullptr) return failed;
  return failed.WithSite({producer, dst, FaultOp::kFetch, false});
}

void Federation::OpenTransfer(const std::string& src, const std::string& dst,
                              const std::string& relation, double est_rows,
                              double est_bytes) {
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) {
    rs.stack.push_back({-1, -1, ComputeTrace{}});
    return;
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
}

void Federation::CloseTransfer(double rows, const WireCharge& wire,
                               uint64_t messages, bool materialized,
                               bool failed) {
  RunState& rs = ThreadRun();
  Frame frame = std::move(rs.stack.back());
  rs.stack.pop_back();
  // span_id == -1 means no span was opened (no recorder at OpenTransfer);
  // kDroppedSpan (sampled-out tree) must still be ended to keep the
  // recorder's open-span stack balanced.
  SpanRecorder* spans = span_recorder();
  if (spans != nullptr && frame.span_id != -1) {
    Span* sp = spans->mutable_span(frame.span_id);
    sp->Tag("rows", rows);
    sp->Tag("bytes", wire.bytes);
    sp->Tag("messages", static_cast<int64_t>(messages));
    if (materialized) sp->Tag("materialized", std::string("true"));
    spans->EndSpan(frame.span_id);
  }
  if (metrics_ != nullptr) m_.fetch_rows->Increment(rows);
  if (frame.record_id < 0) return;  // opened outside an active run
  // Record ids are indices within the run.
  TransferRecord& rec = rs.run.transfers[static_cast<size_t>(frame.record_id)];
  rec.rows = rows;
  rec.bytes = wire.bytes;
  rec.raw_bytes = wire.raw;
  rec.encoded = wire.encoded;
  rec.messages = messages;
  rec.materialized = materialized;
  rec.failed = failed;
  rec.producer_compute = frame.trace;
  rs.run.per_server[rec.src].Add(frame.trace);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("xdb_federation_fetch_rows_total",
                         {{"server", rec.src}})
        ->Increment(rows);
    if (rec.encoded && wire.bytes > 0) {
      // Per relation *shape* (xdb_q12_t4 -> xdb_q*_t*): label cardinality
      // stays bounded by the schema rather than by query count.
      metrics_
          ->GetGauge("xdb_transfer_compression_ratio",
                     {{"relation", CollapseDigitRuns(rec.relation)}},
                     "Raw/encoded byte ratio of the latest columnar "
                     "transfer of this relation shape")
          ->Set(rec.raw_bytes / wire.bytes);
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

RetryOutcome Federation::RunWithRetry(const std::string& server, FaultOp op,
                                      const std::function<Status()>& attempt) {
  // The loop stops early when the remaining deadline budget cannot cover
  // the next backoff; only the backoff actually waited is charged.
  RetryOutcome out =
      RetryWithBackoffBudget(retry_policy_, attempt, RemainingBudget());
  const Status& st = out.status;
  if (out.attempts > 1 || st.IsRetryable()) {
    RecordRetry({server, op, out.attempts, out.backoff_seconds, st.ok(),
                 st.ok() ? std::string() : st.message()});
  }
  RecordHealthOutcome(server, out.attempts, st);
  return out;
}

void Federation::RecordRetry(RetryEvent event) {
  SpanRecorder* spans = span_recorder();
  if (spans != nullptr && (event.attempts > 1 || !event.succeeded)) {
    int64_t id = spans->StartSpan(std::string("retry ") +
                                  FaultOpToString(event.op));
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

void Federation::RecordEstimate(EstimateActual record) {
  record.q_error = QError(record.est_rows, record.act_rows);
  if (metrics_ != nullptr) {
    m_.qerror->Observe(record.q_error);
    metrics_
        ->GetHistogram("xdb_qerror",
                       {{"op", EstimateOpName(record.op)},
                        {"server", record.server}},
                       {})
        ->Observe(record.q_error);
  }
  RunState& rs = ThreadRun();
  if (!ActiveHere(rs)) return;
  rs.run.estimates.push_back(std::move(record));
}

void Federation::RecordControlMessage(const std::string& a,
                                      const std::string& b, double bytes) {
  network_.RecordTransfer(a, b, bytes, 1);
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
  // A failure on another server's fetch path was charged to that server by
  // the fetch loop that named it; blaming `server` too — the DDL, root
  // query or outer fetch it surfaced through — would trip every healthy
  // breaker on the path of one sick server.
  const FailureSite* site = final_status.site();
  if (site != nullptr && site->on_fetch_path() && site->server != server) {
    return;
  }
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
