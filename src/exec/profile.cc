#include "src/exec/profile.h"

#include <cmath>
#include <cstdio>

#include "src/common/str_util.h"
#include "src/dbms/run_trace.h"

namespace xdb {

size_t OperatorProfiler::Enter(const PlanNode& node) {
  OperatorStats s;
  s.label = node.Label();
  s.kind = node.kind;
  s.depth = static_cast<int>(open_.size());
  s.is_foreign = node.kind == PlanKind::kScan && node.is_foreign;
  s.predicate_class = node.predicate_class();
  s.est_rows = node.estimate->rows;
  s.est_bytes = node.estimate->bytes();
  for (const auto& child : node.children) {
    s.est_input_rows += child->estimate->rows;
  }
  records_.push_back(std::move(s));
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void OperatorProfiler::Exit(size_t index) {
  // Balanced callers pop exactly one; popping through `index` is defensive
  // against an operator erroring out past its children's Exits.
  while (!open_.empty()) {
    size_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void OperatorProfiler::Clear() {
  records_.clear();
  open_.clear();
}

double OperatorProfiler::ModelledSeconds(const OperatorStats& s,
                                         const EngineProfile& p,
                                         double scale_up) {
  double rows = 0;
  switch (s.kind) {
    case PlanKind::kScan:
      // Ingesting foreign rows is serial, as in the timing model.
      if (s.is_foreign) return s.output_rows * scale_up * p.fetch_row_cost;
      return p.ParallelSeconds(s.output_rows * scale_up * p.scan_row_cost);
    case PlanKind::kFilter:
      rows = s.input_rows * p.filter_row_cost;
      break;
    case PlanKind::kProject:
      rows = s.input_rows * p.project_row_cost;
      break;
    case PlanKind::kJoin:
      rows = (s.build_rows + s.probe_rows + s.output_rows) * p.join_row_cost;
      break;
    case PlanKind::kAggregate:
      rows = (s.input_rows + s.output_rows) * p.agg_row_cost;
      break;
    case PlanKind::kSort:
      rows = s.input_rows * p.sort_row_cost;
      break;
    case PlanKind::kLimit:
    case PlanKind::kPlaceholder:
      rows = 0;
      break;
  }
  return p.ParallelSeconds(rows * scale_up);
}

double OperatorProfiler::EstimatedSeconds(const OperatorStats& s,
                                          const EngineProfile& p,
                                          double scale_up) {
  // Re-run the ModelledSeconds weights over the estimated cardinalities. The
  // join formula only consumes build + probe + output, so the combined
  // input estimate stands in for the per-side split.
  OperatorStats est = s;
  est.input_rows = s.est_input_rows;
  est.output_rows = s.est_rows;
  est.build_rows = s.est_input_rows;
  est.probe_rows = 0;
  return ModelledSeconds(est, p, scale_up);
}

std::vector<std::string> OperatorProfiler::Render(const EngineProfile& p,
                                                  double scale_up) const {
  std::vector<std::string> lines;
  lines.reserve(records_.size());
  for (const auto& s : records_) {
    std::string line(static_cast<size_t>(s.depth) * 2, ' ');
    line += s.label;
    char buf[160];
    if (s.kind == PlanKind::kJoin) {
      std::snprintf(buf, sizeof(buf),
                    "  (build=%.0f probe=%.0f rows=%.0f batches=%lld "
                    "threads=%d modelled=%.6fs)",
                    s.build_rows, s.probe_rows, s.output_rows,
                    static_cast<long long>(s.batches), s.threads,
                    ModelledSeconds(s, p, scale_up));
    } else if (s.kind == PlanKind::kFilter) {
      std::snprintf(buf, sizeof(buf),
                    "  (in=%.0f rows=%.0f sel=%.1f%% batches=%lld "
                    "threads=%d modelled=%.6fs)",
                    s.input_rows, s.output_rows, 100.0 * s.Selectivity(),
                    static_cast<long long>(s.batches), s.threads,
                    ModelledSeconds(s, p, scale_up));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  (in=%.0f rows=%.0f batches=%lld threads=%d "
                    "modelled=%.6fs)",
                    s.input_rows, s.output_rows,
                    static_cast<long long>(s.batches), s.threads,
                    ModelledSeconds(s, p, scale_up));
    }
    line += buf;
    std::snprintf(buf, sizeof(buf), "  [est=%.0f act=%.0f q-err=%.2f]",
                  s.est_rows, s.output_rows, QError(s.est_rows, s.output_rows));
    line += buf;
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace xdb
