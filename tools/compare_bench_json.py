#!/usr/bin/env python3
"""Compares two BENCH_*.json files and fails on modelled regressions.

The query-history watchdog: CI runs the benches with --json and diffs the
result against the committed snapshots in bench/baseline/. Runs are matched
by (system, sql); for each pair the modelled end-to-end seconds
(report.phases.total) and the transfer volume (report.trace.total_bytes,
plus the useful/wasted split) are compared. A metric that grew by more than
--threshold (relative, default 5%) is a regression and the script exits 1.

Modelled values are deterministic, so the threshold only absorbs intended
re-calibrations — real regressions show up as large jumps. wall_seconds is
wall clock and therefore ignored entirely.

With --exact the documents must instead be equal, value for value, once
every key whose name contains "wall" is dropped (wall-clock numbers are the
only legitimately nondeterministic fields); the first differing path is
printed. A change that claims not to move any modelled figure runs this.

Usage:
  python3 tools/compare_bench_json.py baseline.json current.json \
      [--threshold 0.05] [--report diff.txt] [--exact]

Exit codes: 0 = no regression, 1 = regression (or, with --exact, any
difference) or unreadable input, 2 = usage error. Without --exact,
improvements and missing/new runs are reported but never fail the
comparison (new queries must be able to land with their baseline).
"""

import argparse
import json
import sys

# (label, extractor, minimum absolute change that matters). The floors keep
# byte-level noise on tiny queries (a few hundred bytes of control traffic)
# from tripping the relative threshold.
METRICS = [
    ("modelled_seconds", lambda r: r["phases"]["total"], 1e-3),
    ("total_bytes", lambda r: r["trace"]["total_bytes"], 64.0),
    ("wasted_bytes", lambda r: r["trace"]["wasted_bytes"], 64.0),
    # Estimator accountability: the per-query worst q-error. Growth means
    # the cardinality model got *worse* for this query; baselines predating
    # the estimates block are skipped (KeyError -> SKIP below).
    ("max_q_error", lambda r: r["estimates"]["max_q_error"], 1e-6),
]


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: not readable as JSON: {e}", file=sys.stderr)
        return None


def runs_by_key(doc):
    table = {}
    for run in doc.get("runs", []):
        key = (run.get("system", "?"), run.get("sql", "?"))
        # A bench may run the same (system, sql) repeatedly (sweeps over
        # topology or flags): disambiguate by occurrence index.
        n = sum(1 for k in table if k[0] == key)
        table[(key, n)] = run.get("report", {})
    return table


def compare(baseline, current, threshold):
    """Returns (lines, regressions)."""
    lines = []
    regressions = 0
    base_runs = runs_by_key(baseline)
    cur_runs = runs_by_key(current)

    for key in sorted(set(base_runs) | set(cur_runs), key=str):
        (system, sql), occurrence = key
        title = f"{system} | {sql}" + (
            f" (#{occurrence + 1})" if occurrence else "")
        if key not in cur_runs:
            lines.append(f"MISSING  {title} — in baseline only")
            continue
        if key not in base_runs:
            lines.append(f"NEW      {title} — not in baseline")
            continue
        base, cur = base_runs[key], cur_runs[key]
        for name, extract, floor in METRICS:
            try:
                b, c = extract(base), extract(cur)
            except (KeyError, TypeError):
                lines.append(f"SKIP     {title}: {name} missing in one side")
                continue
            delta = c - b
            if abs(delta) <= floor:
                continue
            rel = delta / b if b > 0 else float("inf")
            if rel > threshold:
                regressions += 1
                lines.append(
                    f"REGRESS  {title}: {name} {b:.6g} -> {c:.6g} "
                    f"(+{rel * 100:.1f}%, threshold {threshold * 100:.1f}%)")
            elif rel < -threshold:
                lines.append(
                    f"IMPROVE  {title}: {name} {b:.6g} -> {c:.6g} "
                    f"({rel * 100:.1f}%)")
    return lines, regressions


def without_wall(node):
    """The document with every key containing "wall" dropped, recursively."""
    if isinstance(node, dict):
        return {k: without_wall(v) for k, v in node.items() if "wall" not in k}
    if isinstance(node, list):
        return [without_wall(v) for v in node]
    return node


def first_difference(a, b, path="$"):
    """The path of the first difference between two JSON values, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON files; fail on regressions.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative growth that counts as a regression "
                             "(default 0.05 = 5%%)")
    parser.add_argument("--report", default=None,
                        help="also write the diff lines to this file")
    parser.add_argument("--exact", action="store_true",
                        help="require equal documents, ignoring keys that "
                             "contain 'wall'")
    args = parser.parse_args(argv[1:])

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline is None or current is None:
        return 1

    if args.exact:
        diff = first_difference(without_wall(baseline), without_wall(current))
        if diff:
            print(f"FAIL: {args.baseline} and {args.current} differ at {diff}",
                  file=sys.stderr)
            return 1
        print(f"OK: {args.current} equals {args.baseline} "
              "(keys containing 'wall' ignored)")
        return 0

    lines, regressions = compare(baseline, current, args.threshold)
    header = (f"baseline={args.baseline} current={args.current} "
              f"threshold={args.threshold * 100:.1f}%")
    body = [header] + (lines if lines else ["no differences beyond noise"])
    for line in body:
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("\n".join(body) + "\n")
    if regressions:
        print(f"FAIL: {regressions} regression(s)", file=sys.stderr)
        return 1
    print("OK: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
