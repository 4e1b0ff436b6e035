#!/usr/bin/env python3
"""Validates a BENCH_*.json file emitted by a bench binary's --json flag.

Checks the exporter schema (src/obs/export.cc + bench/bench_common.h) with
no third-party dependencies, so CI can gate on it:

  python3 tools/validate_bench_json.py out.json [--metrics metrics.txt]

With --metrics, also validates a Prometheus text exposition written by the
--metrics bench flag: sample-line syntax (labeled and unlabeled), label
keys sorted within each sample, histogram bucket monotonicity, and
histogram `_count` equal to the +Inf bucket.

Exit code 0 when the file matches the schema, 1 with a list of violations
otherwise. Also enforces the accounting invariants the exporters promise:
useful + wasted == total bytes, and phase totals summing up.
"""

import json
import re
import sys

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|[0-9.]+e[+-]?\d+))$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_labels(raw):
    """Returns the label (key, value) pairs, or None on a syntax error."""
    pairs = []
    pos = 0
    while pos < len(raw):
        m = LABEL_RE.match(raw, pos)
        if m is None:
            return None
        pairs.append((m.group(1), m.group(2)))
        pos = m.end()
        if pos < len(raw):
            if raw[pos] != ",":
                return None
            pos += 1
    return pairs


def validate_metrics_text(path):
    """Validates a Prometheus exposition file; returns a list of errors."""
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return [f"not readable: {e}"]

    # family name -> {label-tuple-without-le: cumulative bucket counts}
    buckets = {}
    counts = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        labels = parse_labels(m.group("labels") or "")
        if labels is None:
            errors.append(f"line {lineno}: bad label syntax: {line!r}")
            continue
        # Canonical order: keys sorted, except `le` which the exposition
        # renders last on histogram bucket samples.
        keys = [k for k, _ in labels]
        sortable = [k for k in keys if k != "le"]
        if sortable != sorted(sortable):
            errors.append(f"line {lineno}: label keys not sorted: {line!r}")
        if "le" in keys and keys[-1] != "le":
            errors.append(f"line {lineno}: le= must be last: {line!r}")
        name = m.group("name")
        value = float(m.group("value"))
        cell = tuple((k, v) for k, v in labels if k != "le")
        if name.endswith("_bucket"):
            le = dict(labels).get("le")
            if le is None:
                errors.append(f"line {lineno}: _bucket sample without le=")
                continue
            buckets.setdefault((name[:-len("_bucket")], cell), []).append(
                (le, value))
        elif name.endswith("_count"):
            counts[(name[:-len("_count")], cell)] = value
    for (family, cell), series in buckets.items():
        values = [v for _, v in series]
        if values != sorted(values):
            errors.append(f"{family}{dict(cell)}: buckets not cumulative")
        if series[-1][0] != "+Inf":
            errors.append(f"{family}{dict(cell)}: last bucket is not +Inf")
        elif (family, cell) in counts and counts[(family,
                                                 cell)] != values[-1]:
            errors.append(
                f"{family}{dict(cell)}: _count {counts[(family, cell)]} != "
                f"+Inf bucket {values[-1]}")
    return errors

PHASE_KEYS = {"prep", "lopt", "ann", "exec", "total"}
TIMING_KEYS = {"total", "compute_only", "transfer_share"}
REPORT_KEYS = {
    "phases",
    "exec_timing",
    "wall_seconds",
    "metadata_roundtrips",
    "consultations",
    "ddl_statements",
    "result_rows",
    "completeness",
    "estimates",
    "trace",
}
ESTIMATES_KEYS = {"max_q_error", "operators"}
ESTIMATE_OP_KEYS = {
    "op",
    "server",
    "detail",
    "est_input_rows",
    "est_rows",
    "act_rows",
    "est_seconds",
    "act_seconds",
    "est_bytes",
    "act_bytes",
    "q_error",
}
COMPLETENESS_KEYS = {"complete", "completeness_fraction", "lost"}
TRACE_KEYS = {
    "root_server",
    "root_compute",
    "transfers",
    "per_server",
    "retries",
    "total_backoff_seconds",
    "injected_delay_seconds",
    "wasted_attempt_seconds",
    "replan_rounds",
    "excluded_servers",
    "lost_fragments",
    "recovery_action",
    "useful_bytes",
    "wasted_bytes",
    "total_bytes",
    "raw_bytes",
    "total_rows",
}
LOST_FRAGMENT_KEYS = {"relation", "server", "consumer", "reason", "est_rows"}
LOSS_REASONS = {"node-down", "link-drop", "deadline"}
COMPUTE_KEYS = {
    "scan_rows",
    "foreign_rows",
    "filter_input_rows",
    "project_rows",
    "join_build_rows",
    "join_probe_rows",
    "join_output_rows",
    "agg_input_rows",
    "agg_output_rows",
    "sort_rows",
    "materialized_rows",
    "output_rows",
}
TRANSFER_KEYS = {
    "id",
    "parent_id",
    "src",
    "dst",
    "relation",
    "rows",
    "bytes",
    "raw_bytes",
    "messages",
    "encoded",
    "materialized",
    "failed",
    "est_rows",
    "est_bytes",
    "producer_compute",
}
RECOVERY_ACTIONS = {
    "none", "retried", "rolled-back", "replanned", "degraded", "failed"
}
INTROSPECTION_KEYS = {
    "tables", "probe_sql", "probe_rows", "probe_stable", "probe_pinned"
}
INTROSPECTION_TABLE_KEYS = {"name", "rows", "columns"}


class Validator:
    def __init__(self):
        self.errors = []

    def error(self, path, message):
        self.errors.append(f"{path}: {message}")

    def require_keys(self, obj, keys, path):
        if not isinstance(obj, dict):
            self.error(path, f"expected object, got {type(obj).__name__}")
            return False
        missing = keys - obj.keys()
        extra = obj.keys() - keys
        if missing:
            self.error(path, f"missing keys: {sorted(missing)}")
        if extra:
            self.error(path, f"unexpected keys: {sorted(extra)}")
        return not missing

    def require_number(self, obj, key, path, minimum=None):
        v = obj.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            self.error(f"{path}.{key}", f"expected number, got {v!r}")
            return None
        if minimum is not None and v < minimum:
            self.error(f"{path}.{key}", f"expected >= {minimum}, got {v}")
        return v

    def check_compute(self, obj, path):
        if self.require_keys(obj, COMPUTE_KEYS, path):
            for key in COMPUTE_KEYS:
                self.require_number(obj, key, path, minimum=0)

    def check_transfer(self, obj, path):
        if not self.require_keys(obj, TRANSFER_KEYS, path):
            return
        self.require_number(obj, "id", path, minimum=0)
        self.require_number(obj, "rows", path, minimum=0)
        b = self.require_number(obj, "bytes", path, minimum=0)
        raw = self.require_number(obj, "raw_bytes", path, minimum=0)
        self.require_number(obj, "messages", path, minimum=1)
        # Planner estimates ride on the transfer record: every plan node
        # carries one, so every fetch has one.
        self.require_number(obj, "est_rows", path, minimum=0)
        self.require_number(obj, "est_bytes", path, minimum=0)
        # Columnar-wire invariant: the wire charge never exceeds the
        # uncompressed row-format bytes of the same payload.
        if None not in (b, raw) and b > raw + 1e-6:
            self.error(f"{path}.bytes",
                       f"bytes ({b}) > raw_bytes ({raw})")
        for key in ("src", "dst", "relation"):
            if not isinstance(obj[key], str) or not obj[key]:
                self.error(f"{path}.{key}", "expected non-empty string")
        for key in ("encoded", "materialized", "failed"):
            if not isinstance(obj[key], bool):
                self.error(f"{path}.{key}", "expected bool")
        self.check_compute(obj["producer_compute"], f"{path}.producer_compute")

    def check_lost_fragment(self, obj, path):
        if not self.require_keys(obj, LOST_FRAGMENT_KEYS, path):
            return
        for key in ("relation", "server", "consumer"):
            if not isinstance(obj[key], str) or not obj[key]:
                self.error(f"{path}.{key}", "expected non-empty string")
        if obj.get("reason") not in LOSS_REASONS:
            self.error(f"{path}.reason",
                       f"expected one of {sorted(LOSS_REASONS)}, "
                       f"got {obj.get('reason')!r}")
        self.require_number(obj, "est_rows", path, minimum=0)

    def check_trace(self, trace, path):
        if not self.require_keys(trace, TRACE_KEYS, path):
            return
        self.check_compute(trace["root_compute"], f"{path}.root_compute")
        if not isinstance(trace["transfers"], list):
            self.error(f"{path}.transfers", "expected array")
            return
        useful = wasted = 0.0
        for i, t in enumerate(trace["transfers"]):
            self.check_transfer(t, f"{path}.transfers[{i}]")
            if isinstance(t, dict) and isinstance(t.get("bytes"), (int, float)):
                if t.get("failed"):
                    wasted += t["bytes"]
                else:
                    useful += t["bytes"]
        if not isinstance(trace["per_server"], dict):
            self.error(f"{path}.per_server", "expected object")
        else:
            for server, compute in trace["per_server"].items():
                self.check_compute(compute, f"{path}.per_server[{server}]")
        if not isinstance(trace["lost_fragments"], list):
            self.error(f"{path}.lost_fragments", "expected array")
        else:
            for i, l in enumerate(trace["lost_fragments"]):
                self.check_lost_fragment(l, f"{path}.lost_fragments[{i}]")
        if trace.get("recovery_action") not in RECOVERY_ACTIONS:
            self.error(f"{path}.recovery_action",
                       f"expected one of {sorted(RECOVERY_ACTIONS)}, "
                       f"got {trace.get('recovery_action')!r}")
        # Accounting invariants of the useful/wasted split.
        u = self.require_number(trace, "useful_bytes", path, minimum=0)
        w = self.require_number(trace, "wasted_bytes", path, minimum=0)
        total = self.require_number(trace, "total_bytes", path, minimum=0)
        if None not in (u, w, total):
            if abs((u + w) - total) > 1e-6:
                self.error(f"{path}.total_bytes",
                           f"useful ({u}) + wasted ({w}) != total ({total})")
            if abs(u - useful) > 1e-6 or abs(w - wasted) > 1e-6:
                self.error(f"{path}.useful_bytes",
                           "summary counters disagree with the transfer list")

    def check_estimates(self, est, transfers, path):
        if not self.require_keys(est, ESTIMATES_KEYS, path):
            return
        max_q = self.require_number(est, "max_q_error", path, minimum=0)
        if not isinstance(est["operators"], list):
            self.error(f"{path}.operators", "expected array")
            return
        observed_max = 0.0
        for i, op in enumerate(est["operators"]):
            opath = f"{path}.operators[{i}]"
            if not self.require_keys(op, ESTIMATE_OP_KEYS, opath):
                continue
            for key in ("op", "server"):
                if not isinstance(op[key], str) or not op[key]:
                    self.error(f"{opath}.{key}", "expected non-empty string")
            for key in ("est_input_rows", "est_rows", "act_rows",
                        "est_seconds", "act_seconds", "est_bytes",
                        "act_bytes"):
                self.require_number(op, key, opath, minimum=0)
            q = self.require_number(op, "q_error", opath, minimum=1.0)
            if q is not None:
                observed_max = max(observed_max, q)
            # A transfer's actuals are the run's own accounting: the record
            # must restate a delivered transfer's rows and wire bytes.
            if op.get("op") == "transfer":
                matched = any(
                    isinstance(t, dict) and not t.get("failed")
                    and t.get("relation") == op.get("detail")
                    and abs(t.get("rows", -1) - op.get("act_rows", -2)) <= 1e-6
                    and abs(t.get("bytes", -1) - op.get("act_bytes", -2))
                    <= 1e-6
                    for t in transfers)
                if not matched:
                    self.error(
                        f"{opath}.act_rows",
                        "transfer estimate record matches no delivered "
                        "transfer (relation/rows/bytes)")
        if max_q is not None and abs(max_q - observed_max) > 1e-6:
            self.error(f"{path}.max_q_error",
                       f"says {max_q}, operators' max is {observed_max}")

    def check_report(self, report, path):
        if not self.require_keys(report, REPORT_KEYS, path):
            return
        if self.require_keys(report["phases"], PHASE_KEYS, f"{path}.phases"):
            parts = [
                self.require_number(report["phases"], k, f"{path}.phases",
                                    minimum=0)
                for k in ("prep", "lopt", "ann", "exec")
            ]
            total = self.require_number(report["phases"], "total",
                                        f"{path}.phases", minimum=0)
            if None not in parts and total is not None:
                if abs(sum(parts) - total) > 1e-6:
                    self.error(f"{path}.phases.total",
                               f"phases sum to {sum(parts)}, total says "
                               f"{total}")
        if self.require_keys(report["exec_timing"], TIMING_KEYS,
                             f"{path}.exec_timing"):
            for key in TIMING_KEYS:
                self.require_number(report["exec_timing"], key,
                                    f"{path}.exec_timing")
        for key in ("metadata_roundtrips", "consultations", "ddl_statements",
                    "result_rows"):
            self.require_number(report, key, path, minimum=0)
        comp = report["completeness"]
        cpath = f"{path}.completeness"
        if self.require_keys(comp, COMPLETENESS_KEYS, cpath):
            if not isinstance(comp["complete"], bool):
                self.error(f"{cpath}.complete", "expected bool")
            frac = self.require_number(comp, "completeness_fraction", cpath,
                                       minimum=0)
            if frac is not None and frac > 1 + 1e-9:
                self.error(f"{cpath}.completeness_fraction",
                           f"expected <= 1, got {frac}")
            lost = self.require_number(comp, "lost", cpath, minimum=0)
            # A complete result has every fragment and vice versa.
            if (isinstance(comp["complete"], bool) and lost is not None
                    and comp["complete"] != (lost == 0)):
                self.error(f"{cpath}.complete",
                           f"complete={comp['complete']} but lost={lost}")
        trace = report["trace"]
        transfers = trace.get("transfers", []) if isinstance(trace,
                                                             dict) else []
        self.check_estimates(report["estimates"], transfers,
                             f"{path}.estimates")
        self.check_trace(trace, f"{path}.trace")

    def check_introspection(self, block, path):
        """Validates the optional micro_obs `introspection` block: the
        xdb_stat.* table shapes plus the deterministic-probe verdicts."""
        if not self.require_keys(block, INTROSPECTION_KEYS, path):
            return
        if not isinstance(block["tables"], list) or not block["tables"]:
            self.error(f"{path}.tables", "expected non-empty array")
            return
        names = []
        for i, t in enumerate(block["tables"]):
            tpath = f"{path}.tables[{i}]"
            if not self.require_keys(t, INTROSPECTION_TABLE_KEYS, tpath):
                continue
            if not isinstance(t["name"], str) or not t["name"]:
                self.error(f"{tpath}.name", "expected non-empty string")
            else:
                names.append(t["name"])
            self.require_number(t, "rows", tpath, minimum=0)
            self.require_number(t, "columns", tpath, minimum=1)
        if names != sorted(names):
            self.error(f"{path}.tables", "table names not sorted")
        if not isinstance(block["probe_sql"], str) or not block["probe_sql"]:
            self.error(f"{path}.probe_sql", "expected non-empty string")
        self.require_number(block, "probe_rows", path, minimum=0)
        for key in ("probe_stable", "probe_pinned"):
            if not isinstance(block.get(key), bool):
                self.error(f"{path}.{key}", "expected bool")
            elif not block[key]:
                # The probe diverging across reruns (or escaping the
                # mediator) is exactly what this artifact exists to catch.
                self.error(f"{path}.{key}", "expected true")

    def check_file(self, doc):
        keys = {"bench", "scale_up", "runs"}
        if "introspection" in (doc.keys() if isinstance(doc, dict) else ()):
            keys = keys | {"introspection"}
        if not self.require_keys(doc, keys, "$"):
            return
        if "introspection" in doc:
            self.check_introspection(doc["introspection"], "$.introspection")
        if not isinstance(doc["bench"], str) or not doc["bench"]:
            self.error("$.bench", "expected non-empty string")
        self.require_number(doc, "scale_up", "$", minimum=1)
        if not isinstance(doc["runs"], list):
            self.error("$.runs", "expected array")
            return
        if not doc["runs"]:
            self.error("$.runs", "expected at least one recorded run")
        for i, run in enumerate(doc["runs"]):
            path = f"$.runs[{i}]"
            if not self.require_keys(run, {"system", "sql", "report"}, path):
                continue
            if not isinstance(run["system"], str) or not run["system"]:
                self.error(f"{path}.system", "expected non-empty string")
            if not isinstance(run["sql"], str) or not run["sql"]:
                self.error(f"{path}.sql", "expected non-empty string")
            self.check_report(run["report"], f"{path}.report")


def main(argv):
    args = list(argv[1:])
    metrics_path = None
    if "--metrics" in args:
        i = args.index("--metrics")
        if i + 1 >= len(args):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        metrics_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args[0]}: not readable as JSON: {e}", file=sys.stderr)
        return 1
    v = Validator()
    v.check_file(doc)
    if v.errors:
        print(f"{args[0]}: {len(v.errors)} schema violation(s):",
              file=sys.stderr)
        for err in v.errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    runs = len(doc["runs"])
    print(f"{args[0]}: OK ({doc['bench']}, {runs} run(s))")
    if metrics_path is not None:
        errors = validate_metrics_text(metrics_path)
        if errors:
            print(f"{metrics_path}: {len(errors)} violation(s):",
                  file=sys.stderr)
            for err in errors:
                print(f"  {err}", file=sys.stderr)
            return 1
        print(f"{metrics_path}: OK (exposition well-formed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
