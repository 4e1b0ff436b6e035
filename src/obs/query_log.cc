#include "src/obs/query_log.h"

#include <cmath>
#include <cstdio>

#include "src/common/json_writer.h"
#include "src/common/str_util.h"

namespace xdb {

void QueryLog::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (capacity_ > 0 && entries_.size() > capacity_) {
    entries_.pop_front();
  }
}

void QueryLog::set_drift_threshold(double fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  drift_threshold_ = fraction;
}

double QueryLog::drift_threshold() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_threshold_;
}

void QueryLog::Record(QueryStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats.sequence = ++total_recorded_;
  if (stats.label.empty()) stats.label = "q" + std::to_string(stats.sequence);
  if (!stats.ok) ++total_failed_;
  lifetime_modelled_seconds_ += stats.total_seconds();
  lifetime_useful_bytes_ += stats.useful_bytes;
  lifetime_wasted_bytes_ += stats.wasted_bytes;

  // Per-label aggregates + drift check against the history *before* this
  // run (a drifted run must not drag the mean toward itself first).
  LabelStats& ls = label_stats_[stats.label];
  const double total = stats.total_seconds();
  if (stats.ok && ls.ok_runs() >= kDriftMinSamples &&
      ls.mean_seconds() > 0) {
    const double mean = ls.mean_seconds();
    const double delta = (total - mean) / mean;
    if (std::fabs(delta) > drift_threshold_) {
      ++ls.drifts;
      drift_events_.push_back(
          DriftEvent{stats.sequence, stats.label, mean, total, delta});
      while (drift_events_.size() > kDriftRingCapacity) {
        drift_events_.pop_front();
      }
    }
  }
  // Misestimate check: the worst q-error across the run's estimate ledger
  // defines the query's accountability verdict; crossing the threshold
  // banks the offending operator (not the whole ledger) into the ring.
  const EstimateActual* worst = nullptr;
  for (const auto& ea : stats.estimates) {
    if (worst == nullptr || ea.q_error > worst->q_error) worst = &ea;
  }
  if (worst != nullptr) stats.max_q_error = worst->q_error;
  if (worst != nullptr && worst->q_error >= kMisestimateQError) {
    // The predicate's shape ("o_orderkey = *"): recurring misestimates of
    // one predicate with different literals group in the drill-down.
    misestimate_events_.push_back(MisestimateEvent{
        stats.sequence, stats.label, EstimateOpName(worst->op), worst->server,
        CollapseDigitRuns(worst->detail), worst->est_rows, worst->act_rows,
        worst->q_error});
    while (misestimate_events_.size() > kMisestimateRingCapacity) {
      misestimate_events_.pop_front();
    }
  }

  ++ls.runs;
  if (!stats.ok) ++ls.failures;
  if (stats.plan_cache_hit) ++ls.cache_hits;
  if (stats.ok) {
    if (ls.ok_runs() == 1) {
      ls.min_seconds = ls.max_seconds = total;
    } else {
      if (total < ls.min_seconds) ls.min_seconds = total;
      if (total > ls.max_seconds) ls.max_seconds = total;
    }
    ls.sum_seconds += total;
  }

  entries_.push_back(std::move(stats));
  while (capacity_ > 0 && entries_.size() > capacity_) {
    entries_.pop_front();
  }
}

std::vector<QueryStats> QueryLog::SnapshotEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryStats>(entries_.begin(), entries_.end());
}

std::vector<DriftEvent> QueryLog::DriftEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<DriftEvent>(drift_events_.begin(), drift_events_.end());
}

std::vector<MisestimateEvent> QueryLog::MisestimateEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<MisestimateEvent>(misestimate_events_.begin(),
                                       misestimate_events_.end());
}

std::vector<std::string> QueryLog::QErrorDrilldown(
    const std::string& label) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  char buf[256];
  size_t matched = 0;
  for (const auto& ev : misestimate_events_) {
    if (!label.empty() && ev.label != label) continue;
    ++matched;
  }
  if (matched == 0) {
    std::snprintf(buf, sizeof(buf),
                  "no misestimates recorded%s%s%s (threshold: max q-error "
                  ">= %.1f)",
                  label.empty() ? "" : " for label '",
                  label.c_str(), label.empty() ? "" : "'",
                  kMisestimateQError);
    lines.emplace_back(buf);
    return lines;
  }
  std::snprintf(buf, sizeof(buf),
                "misestimates: %zu retained run(s)%s%s%s (threshold: max "
                "q-error >= %.1f)",
                matched, label.empty() ? "" : " for label '", label.c_str(),
                label.empty() ? "" : "'", kMisestimateQError);
  lines.emplace_back(buf);
  for (const auto& ev : misestimate_events_) {
    if (!label.empty() && ev.label != label) continue;
    std::snprintf(buf, sizeof(buf),
                  "  #%-4lld %-8s %-9s @%-10s q-err=%8.2f est=%.0f act=%.0f",
                  static_cast<long long>(ev.sequence), ev.label.c_str(),
                  ev.op.c_str(), ev.server.c_str(), ev.q_error, ev.est_rows,
                  ev.act_rows);
    lines.emplace_back(buf);
    if (!ev.predicate_shape.empty()) {
      lines.emplace_back("        shape: " + ev.predicate_shape);
    }
  }
  return lines;
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  total_recorded_ = 0;
  total_failed_ = 0;
  lifetime_modelled_seconds_ = 0;
  lifetime_useful_bytes_ = 0;
  lifetime_wasted_bytes_ = 0;
  label_stats_.clear();
  drift_events_.clear();
  misestimate_events_.clear();
}

std::vector<std::string> QueryLog::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "queries: %lld total (%lld failed), %.2fs modelled, "
                "%.0f B useful / %.0f B wasted transferred; retaining last "
                "%zu of %lld",
                static_cast<long long>(total_recorded_),
                static_cast<long long>(total_failed_),
                lifetime_modelled_seconds_, lifetime_useful_bytes_,
                lifetime_wasted_bytes_, entries_.size(),
                static_cast<long long>(total_recorded_));
  lines.emplace_back(buf);
  if (!drift_events_.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "drift: %zu run(s) diverged >%.0f%% from label history "
                  "(drill down with \\stats <label>)",
                  drift_events_.size(), drift_threshold_ * 100.0);
    lines.emplace_back(buf);
  }
  if (!misestimate_events_.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "misestimates: %zu run(s) with max q-error >= %.1f "
                  "(drill down with \\qerror [label])",
                  misestimate_events_.size(), kMisestimateQError);
    lines.emplace_back(buf);
  }
  for (const auto& q : entries_) {
    // Compression token only when the columnar wire actually saved bytes —
    // raw-mode lines stay byte-identical to before the columnar wire.
    const double wire = q.useful_bytes + q.wasted_bytes;
    char comp[32] = "";
    if (q.raw_bytes > wire && wire > 0) {
      std::snprintf(comp, sizeof(comp), "  [%.2fx columnar]",
                    q.raw_bytes / wire);
    }
    // Partial token only for degraded results — complete-result lines stay
    // byte-identical to before graceful degradation.
    char part[32] = "";
    if (q.partial) {
      std::snprintf(part, sizeof(part), "  [PARTIAL %.0f%%]",
                    q.completeness_fraction * 100.0);
    }
    // Misestimate token only past the threshold — well-estimated lines stay
    // byte-identical to before the accountability plane.
    char qerr[32] = "";
    if (q.max_q_error >= kMisestimateQError) {
      std::snprintf(qerr, sizeof(qerr), "  [q-err=%.1f]", q.max_q_error);
    }
    std::snprintf(buf, sizeof(buf),
                  "#%-4lld %-8s %-7s %8.2fs  useful=%.0fB wasted=%.0fB "
                  "transfers=%d retries=%d replans=%d recovery=%s%s%s%s%s%s",
                  static_cast<long long>(q.sequence), q.label.c_str(),
                  q.system.c_str(), q.total_seconds(), q.useful_bytes,
                  q.wasted_bytes, q.transfers, q.retries, q.replan_rounds,
                  RecoveryActionToString(q.recovery_action), comp, part, qerr,
                  q.plan_cache_hit ? "  [cached plan]" : "",
                  q.ok ? "" : "  FAILED");
    lines.emplace_back(buf);
    for (const auto& [server, seconds] : q.per_server_seconds) {
      std::snprintf(buf, sizeof(buf), "      %-10s %8.2fs compute",
                    server.c_str(), seconds);
      lines.emplace_back(buf);
    }
    for (const auto& [op, seconds] : q.hot_operators) {
      std::snprintf(buf, sizeof(buf), "      hot: %-40s %8.3fs",
                    op.c_str(), seconds);
      lines.emplace_back(buf);
    }
  }
  return lines;
}

std::vector<std::string> QueryLog::LabelDrilldown(
    const std::string& label) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  char buf[256];
  if (label.empty() || label_stats_.find(label) == label_stats_.end()) {
    lines.emplace_back(label.empty() ? "known labels:"
                                     : "unknown label '" + label +
                                           "'; known labels:");
    if (label_stats_.empty()) {
      lines.emplace_back("  (no queries recorded yet)");
      return lines;
    }
    for (const auto& [name, ls] : label_stats_) {
      std::snprintf(buf, sizeof(buf), "  %-8s %lld run(s)%s", name.c_str(),
                    static_cast<long long>(ls.runs),
                    ls.drifts > 0 ? "  [drifted]" : "");
      lines.emplace_back(buf);
    }
    return lines;
  }
  const LabelStats& ls = label_stats_.at(label);
  std::snprintf(buf, sizeof(buf),
                "%s: %lld run(s), %lld failed, %lld served from plan cache",
                label.c_str(), static_cast<long long>(ls.runs),
                static_cast<long long>(ls.failures),
                static_cast<long long>(ls.cache_hits));
  lines.emplace_back(buf);
  if (ls.ok_runs() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  modelled seconds: mean=%.3f min=%.3f max=%.3f "
                  "(over %lld successful run(s))",
                  ls.mean_seconds(), ls.min_seconds, ls.max_seconds,
                  static_cast<long long>(ls.ok_runs()));
    lines.emplace_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "  drift: %lld run(s) diverged >%.0f%% from the running "
                "mean",
                static_cast<long long>(ls.drifts), drift_threshold_ * 100.0);
  lines.emplace_back(buf);
  for (const auto& ev : drift_events_) {
    if (ev.label != label) continue;
    std::snprintf(buf, sizeof(buf),
                  "    #%-4lld expected %.3fs, got %.3fs (%+.0f%%)",
                  static_cast<long long>(ev.sequence), ev.expected_seconds,
                  ev.actual_seconds, ev.delta_fraction * 100.0);
    lines.emplace_back(buf);
  }
  for (const auto& q : entries_) {
    if (q.label != label) continue;
    std::snprintf(buf, sizeof(buf),
                  "  #%-4lld %-7s %8.3fs  useful=%.0fB wasted=%.0fB "
                  "replans=%d%s%s",
                  static_cast<long long>(q.sequence), q.system.c_str(),
                  q.total_seconds(), q.useful_bytes, q.wasted_bytes,
                  q.replan_rounds,
                  q.plan_cache_hit ? "  [cached plan]" : "",
                  q.ok ? "" : "  FAILED");
    lines.emplace_back(buf);
  }
  return lines;
}

std::string QueryLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Field("total_recorded", total_recorded_);
  w.Field("total_failed", total_failed_);
  w.Field("lifetime_modelled_seconds", lifetime_modelled_seconds_);
  w.Field("lifetime_useful_bytes", lifetime_useful_bytes_);
  w.Field("lifetime_wasted_bytes", lifetime_wasted_bytes_);
  w.Field("capacity", static_cast<int64_t>(capacity_));
  w.Key("drift_events");
  w.BeginArray();
  for (const auto& ev : drift_events_) {
    w.BeginObject();
    w.Field("sequence", ev.sequence);
    w.Field("label", ev.label);
    w.Field("expected_seconds", ev.expected_seconds);
    w.Field("actual_seconds", ev.actual_seconds);
    w.Field("delta_fraction", ev.delta_fraction);
    w.EndObject();
  }
  w.EndArray();
  w.Key("misestimate_events");
  w.BeginArray();
  for (const auto& ev : misestimate_events_) {
    w.BeginObject();
    w.Field("sequence", ev.sequence);
    w.Field("label", ev.label);
    w.Field("op", ev.op);
    w.Field("server", ev.server);
    w.Field("predicate_shape", ev.predicate_shape);
    w.Field("est_rows", ev.est_rows);
    w.Field("act_rows", ev.act_rows);
    w.Field("q_error", ev.q_error);
    w.EndObject();
  }
  w.EndArray();
  w.Key("queries");
  w.BeginArray();
  for (const auto& q : entries_) {
    w.BeginObject();
    w.Field("sequence", q.sequence);
    w.Field("label", q.label);
    w.Field("system", q.system);
    w.Field("sql", q.sql);
    w.Field("ok", q.ok);
    if (!q.error.empty()) w.Field("error", q.error);
    w.Field("plan_cache_hit", q.plan_cache_hit);
    w.Key("phases");
    w.BeginObject();
    w.Field("prep", q.prep_seconds);
    w.Field("lopt", q.lopt_seconds);
    w.Field("ann", q.ann_seconds);
    w.Field("exec", q.exec_seconds);
    w.Field("total", q.total_seconds());
    w.EndObject();
    w.Field("useful_bytes", q.useful_bytes);
    w.Field("wasted_bytes", q.wasted_bytes);
    w.Field("raw_bytes", q.raw_bytes);
    w.Field("transfer_rows", q.transfer_rows);
    w.Field("transfers", q.transfers);
    w.Field("retries", q.retries);
    w.Field("replan_rounds", q.replan_rounds);
    w.Field("recovery_action", RecoveryActionToString(q.recovery_action));
    w.Field("partial", q.partial);
    w.Field("completeness_fraction", q.completeness_fraction);
    w.Field("lost_fragments", q.lost_fragments);
    w.Field("max_q_error", q.max_q_error);
    w.Key("per_server_seconds");
    w.BeginObject();
    for (const auto& [server, seconds] : q.per_server_seconds) {
      w.Field(server, seconds);
    }
    w.EndObject();
    w.Key("hot_operators");
    w.BeginArray();
    for (const auto& [op, seconds] : q.hot_operators) {
      w.BeginObject();
      w.Field("operator", op);
      w.Field("modelled_seconds", seconds);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace xdb
