#include "src/timing/timing_model.h"

#include <algorithm>

#include "src/dbms/server.h"

namespace xdb {

double TimingModel::ComputeSeconds(const ComputeTrace& t,
                                   const EngineProfile& p,
                                   bool free_network) const {
  double s = options_.scale_up;
  double work = t.scan_rows * s * p.scan_row_cost +
                t.filter_input_rows * s * p.filter_row_cost +
                t.project_rows * s * p.project_row_cost +
                (t.join_build_rows + t.join_probe_rows +
                 t.join_output_rows) * s * p.join_row_cost +
                (t.agg_input_rows + t.agg_output_rows) * s * p.agg_row_cost +
                t.sort_rows * s * p.sort_row_cost;
  // Note: materialized_rows is deliberately *not* costed here — explicit
  // movements charge their write in MaterializedDuration so the cost lands
  // on the correct consumer regardless of which frame recorded the counter.
  work = p.ParallelSeconds(work);
  if (!free_network) {
    // Ingesting foreign rows through the wrapper is compute on the
    // consumer, but it vanishes when tables are localized — matching the
    // paper's µ estimation method — so the free-network variant drops it.
    // It does NOT benefit from worker parallelism: connector ingestion is
    // serialized through the coordinator, which is exactly why scaling
    // Presto's workers does not help (paper Figure 11).
    work += t.foreign_rows * s * p.fetch_row_cost;
  }
  return work + p.startup_cost;
}

double TimingModel::TransferSeconds(const TransferRecord& rec) const {
  const double s = options_.scale_up;
  return fed_->network().TransferSeconds(rec.src, rec.dst, rec.bytes * s,
                                         rec.rows * s);
}

namespace {
EngineProfile ProfileOf(const Federation* fed, const std::string& server) {
  const DatabaseServer* srv = fed->GetServer(server);
  return srv != nullptr ? srv->profile() : EngineProfile{};
}
}  // namespace

/// End-to-end duration of one explicit (materialised) transfer: produce the
/// child fully, ship it, write it into the consumer's local table.
double TimingModel::Finish(const RunTrace& trace, int record_id,
                           const ComputeTrace& compute,
                           const std::string& server,
                           bool free_network, std::set<int>* path) const {
  EngineProfile profile = ProfileOf(fed_, server);
  double own = ComputeSeconds(compute, profile, free_network);
  path->insert(record_id);

  auto materialized_duration = [&](const TransferRecord& rec) {
    double child_finish =
        Finish(trace, rec.id, rec.producer_compute, rec.src, free_network,
               path);
    double wire = free_network ? 0.0 : TransferSeconds(rec);
    double write = rec.rows * options_.scale_up *
                   ProfileOf(fed_, rec.dst).materialize_row_cost;
    return child_finish + wire + write;
  };

  // Pipelined (implicit) children overlap with each other and with the
  // wire; explicit (materialised) children are issued as sequential DDL
  // statements, so their durations add up.
  double implicit_arrival = 0;
  double materialized_total = 0;
  for (const auto& rec : trace.transfers) {
    if (rec.parent_id != record_id) continue;
    if (rec.materialized) {
      materialized_total += materialized_duration(rec);
    } else {
      double child_finish =
          Finish(trace, rec.id, rec.producer_compute, rec.src, free_network,
                 path);
      double wire = free_network ? 0.0 : TransferSeconds(rec);
      implicit_arrival = std::max(implicit_arrival,
                                  std::max(child_finish, wire));
    }
  }

  // Cross-task prerequisite: a materialised input created *on this server*
  // by an earlier DDL (XDB's explicit movements run before the consumer
  // task's view is read) must exist before this frame can produce rows.
  double prereq = 0;
  for (const auto& rec : trace.transfers) {
    if (!rec.materialized || rec.dst != server) continue;
    if (rec.parent_id == record_id) continue;  // already counted above
    if (record_id >= 0 && rec.id >= record_id) continue;  // not earlier
    if (record_id < 0) continue;  // root's own children handled above
    if (path->count(rec.id)) continue;  // already accounted upstream
    prereq += materialized_duration(rec);
  }

  path->erase(record_id);
  return std::max(implicit_arrival, materialized_total + prereq) + own;
}

double TimingModel::LocalizedCompute(const RunTrace& trace) const {
  return ComputeSeconds(trace.root_compute,
                        ProfileOf(fed_, trace.root_server),
                        /*free_network=*/true);
}

TimingBreakdown TimingModel::ModelRun(const RunTrace& trace) const {
  TimingBreakdown out;
  std::set<int> path;
  out.total = Finish(trace, -1, trace.root_compute, trace.root_server,
                     /*free_network=*/false, &path);
  path.clear();
  out.compute_only = Finish(trace, -1, trace.root_compute,
                            trace.root_server, /*free_network=*/true,
                            &path);
  out.transfer_share = out.total - out.compute_only;
  return out;
}

}  // namespace xdb
