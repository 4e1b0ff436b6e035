#pragma once

#include <string>
#include <vector>

#include "src/dbms/run_trace.h"
#include "src/obs/span.h"

namespace xdb {

struct XdbReport;
class MetricsRegistry;

/// \brief JSON exporters for run artefacts (machine-readable counterpart of
/// the bench tables; the `BENCH_*.json` files the perf trajectory collects).
///
/// Formats:
///  - Chrome trace-event JSON (`chrome://tracing` / Perfetto "JSON" import):
///    one complete ("ph":"X") event per span, ts/dur in microseconds of
///    modelled time. Call SpanRecorder::FinalizeTimeline() first.
///  - RunTrace JSON: the full transfer tree, per-server compute totals, and
///    the recovery trail.
///  - XdbReport JSON: phases + timing + trace for one query run (what the
///    bench `--json` emission is built from).

/// Serializes spans as a Chrome trace-event file.
std::string SpansToChromeTrace(const std::vector<Span>& spans);

/// Serializes the full RunTrace (transfers, per-server, recovery trail).
std::string RunTraceToJson(const RunTrace& trace);

/// Serializes one query run's report: phases, modelled timing, transfer
/// totals (useful/wasted split), DDL counts, and the embedded RunTrace.
std::string XdbReportToJson(const XdbReport& report);

}  // namespace xdb
