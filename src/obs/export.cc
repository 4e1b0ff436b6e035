#include "src/obs/export.h"

#include "src/common/json_writer.h"
#include "src/xdb/xdb.h"

namespace xdb {

std::string SpansToChromeTrace(const std::vector<Span>& spans) {
  JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& s : spans) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("ph", "X");
    // Modelled seconds -> trace microseconds.
    w.Field("ts", s.start_seconds * 1e6);
    w.Field("dur", (s.finish_seconds - s.start_seconds) * 1e6);
    w.Field("pid", 1);
    w.Field("tid", 1);
    w.Field("cat", "xdb");
    w.Key("args");
    w.BeginObject();
    w.Field("span_id", s.id);
    w.Field("parent_id", s.parent_id);
    if (s.record_id >= 0) w.Field("record_id", s.record_id);
    for (const auto& [k, v] : s.tags) w.Field(k, v);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

namespace {

void WriteComputeTrace(JsonWriter* w, const ComputeTrace& t) {
  w->BeginObject();
  w->Field("scan_rows", t.scan_rows);
  w->Field("foreign_rows", t.foreign_rows);
  w->Field("filter_input_rows", t.filter_input_rows);
  w->Field("project_rows", t.project_rows);
  w->Field("join_build_rows", t.join_build_rows);
  w->Field("join_probe_rows", t.join_probe_rows);
  w->Field("join_output_rows", t.join_output_rows);
  w->Field("agg_input_rows", t.agg_input_rows);
  w->Field("agg_output_rows", t.agg_output_rows);
  w->Field("sort_rows", t.sort_rows);
  w->Field("materialized_rows", t.materialized_rows);
  w->Field("output_rows", t.output_rows);
  w->EndObject();
}

void WriteRunTrace(JsonWriter* w, const RunTrace& trace) {
  w->BeginObject();
  w->Field("root_server", trace.root_server);
  w->Key("root_compute");
  WriteComputeTrace(w, trace.root_compute);
  w->Key("transfers");
  w->BeginArray();
  for (const auto& t : trace.transfers) {
    w->BeginObject();
    w->Field("id", t.id);
    w->Field("parent_id", t.parent_id);
    w->Field("src", t.src);
    w->Field("dst", t.dst);
    w->Field("relation", t.relation);
    w->Field("rows", t.rows);
    w->Field("bytes", t.bytes);
    w->Field("raw_bytes", t.raw_bytes);
    w->Field("messages", t.messages);
    w->Field("encoded", t.encoded);
    w->Field("materialized", t.materialized);
    w->Field("failed", t.failed);
    w->Field("est_rows", t.est_rows);
    w->Field("est_bytes", t.est_bytes);
    w->Key("producer_compute");
    WriteComputeTrace(w, t.producer_compute);
    w->EndObject();
  }
  w->EndArray();
  w->Key("per_server");
  w->BeginObject();
  for (const auto& [server, compute] : trace.per_server) {
    w->Key(server);
    WriteComputeTrace(w, compute);
  }
  w->EndObject();
  w->Key("retries");
  w->BeginArray();
  for (const auto& r : trace.retries) {
    w->BeginObject();
    w->Field("server", r.server);
    w->Field("op", FaultOpToString(r.op));
    w->Field("attempts", r.attempts);
    w->Field("backoff_seconds", r.backoff_seconds);
    w->Field("succeeded", r.succeeded);
    if (!r.error.empty()) w->Field("error", r.error);
    w->EndObject();
  }
  w->EndArray();
  w->Field("total_backoff_seconds", trace.total_backoff_seconds);
  w->Field("injected_delay_seconds", trace.injected_delay_seconds);
  w->Field("wasted_attempt_seconds", trace.wasted_attempt_seconds);
  w->Field("replan_rounds", trace.replan_rounds);
  w->Key("excluded_servers");
  w->BeginArray();
  for (const auto& s : trace.excluded_servers) w->String(s);
  w->EndArray();
  w->Key("lost_fragments");
  w->BeginArray();
  for (const auto& l : trace.lost_fragments) {
    w->BeginObject();
    w->Field("relation", l.relation);
    w->Field("server", l.server);
    w->Field("consumer", l.consumer);
    w->Field("reason", l.reason);
    w->Field("est_rows", l.est_rows);
    w->EndObject();
  }
  w->EndArray();
  w->Field("recovery_action", RecoveryActionToString(trace.recovery_action));
  w->Field("useful_bytes", trace.UsefulTransferredBytes());
  w->Field("wasted_bytes", trace.WastedTransferredBytes());
  w->Field("total_bytes", trace.TotalTransferredBytes());
  w->Field("raw_bytes", trace.TotalRawTransferredBytes());
  w->Field("total_rows", trace.TotalTransferredRows());
  w->EndObject();
}

}  // namespace

std::string RunTraceToJson(const RunTrace& trace) {
  JsonWriter w;
  WriteRunTrace(&w, trace);
  return w.str();
}

std::string XdbReportToJson(const XdbReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("phases");
  w.BeginObject();
  w.Field("prep", report.phases.prep);
  w.Field("lopt", report.phases.lopt);
  w.Field("ann", report.phases.ann);
  w.Field("exec", report.phases.exec);
  w.Field("total", report.phases.total());
  w.EndObject();
  w.Key("exec_timing");
  w.BeginObject();
  w.Field("total", report.exec_timing.total);
  w.Field("compute_only", report.exec_timing.compute_only);
  w.Field("transfer_share", report.exec_timing.transfer_share);
  w.EndObject();
  w.Field("wall_seconds", report.wall_seconds);
  w.Field("metadata_roundtrips", report.metadata_roundtrips);
  w.Field("consultations", report.consultations);
  w.Field("ddl_statements", report.ddl_statements);
  w.Field("result_rows",
          report.result ? static_cast<int64_t>(report.result->num_rows())
                        : int64_t{0});
  w.Key("completeness");
  w.BeginObject();
  w.Field("complete", report.completeness.complete);
  w.Field("completeness_fraction", report.completeness.completeness_fraction);
  w.Field("lost", static_cast<int64_t>(report.completeness.lost.size()));
  w.EndObject();
  w.Key("estimates");
  w.BeginObject();
  w.Field("max_q_error", report.trace.MaxQError());
  w.Key("operators");
  w.BeginArray();
  for (const auto& ea : report.trace.estimates) {
    w.BeginObject();
    w.Field("op", EstimateOpName(ea.op));
    w.Field("server", ea.server);
    w.Field("detail", ea.detail);
    w.Field("est_input_rows", ea.est_input_rows);
    w.Field("est_rows", ea.est_rows);
    w.Field("act_rows", ea.act_rows);
    w.Field("est_seconds", ea.est_seconds);
    w.Field("act_seconds", ea.act_seconds);
    w.Field("est_bytes", ea.est_bytes);
    w.Field("act_bytes", ea.act_bytes);
    w.Field("q_error", ea.q_error);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("trace");
  WriteRunTrace(&w, report.trace);
  w.EndObject();
  return w.str();
}

}  // namespace xdb
