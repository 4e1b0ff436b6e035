#!/usr/bin/env python3
"""Alternating parent/change pairs of the wall-clock benchmark, with verdicts.

    python3 tools/perf_pairs.py --parent <git ref> --workload <name> \\
        [--pairs 10] [--seed 7 [--seed 11 ...]] [--record]
    python3 tools/perf_pairs.py --self-test

Run from anywhere inside the repository. The change is the working tree this
script belongs to; the parent is <git ref>, exported with `git archive` into
.bench_build/perf_pairs/<commit>/ (a plain directory: the repository's own
state is left untouched). Each pair runs the unchanged `perfbench/run.py` once
on each side with the same seed and BENCHMARK.json's run length, and the side
that runs first alternates from pair to pair. The change builds in
.bench_build/perf_pairs/build-change/ and the parent in
.bench_build/perf_pairs/build-<commit>/, and every run's result line is
printed as it finishes.

For each end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles, how many pairs the change won (ties count for
neither), and two verdicts:

  gain   at least 10 pairs ran, the change won at least 9 of every 10, its
         median is better than the parent's by more than the parent's
         interquartile range, and its share of failed answers is no higher
         than the parent's;
  bound  WORSE when the change's median is worse than the parent's by more
         than the metric's bound; unresolved when the parent's own
         interquartile range, relative to its median, is wider than the
         bound and not every change run beats every parent run; ok
         otherwise.

The failed share of answers is reported per side, and every run that exited
non-zero or printed `"correct": false` is listed. Exit status: 0 when every
run completed and answered correctly (whatever the verdicts), 1 otherwise.

--seed may be given more than once: the pairs then run at each seed in turn,
each seed gets its own report, and a combined line per metric follows. The
combined verdicts are a gain only when every seed gains, WORSE when any seed
is WORSE, and otherwise unresolved when any seed is unresolved: one seed's
verdict can flip between runs, and the combined one asks all to agree.

--record appends the run to bench/baseline/BENCH_wall.json, the committed
wall-clock trajectory, one record per seed: the workload, seed, pair count,
the parent commit and the working tree's HEAD commit (`change_dirty` when the
tree had uncommitted changes, so the record describes the change on top of
that commit), and per end-to-end metric both medians, the ratio, the wins and
both verdicts.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS_DIR)
MIN_PAIRS = 10  # the fewest pairs a gain verdict may rest on
WALL_JSON = os.path.join(ROOT, "bench", "baseline", "BENCH_wall.json")


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def relative_worsening(change, parent, lower_is_better):
    """How much worse the change's median is, as a fraction of the parent's
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    ratio = change / parent
    return ratio - 1.0 if lower_is_better else 1.0 - ratio


def analyze(pairs, end_to_end):
    """Verdicts per metric. `pairs` is a list of (parent, change) result
    dicts as printed by perfbench/run.py; `end_to_end` the BENCHMARK.json
    list. Returns a list of dicts, one per metric."""
    rows = []
    n = len(pairs)
    p_failed, p_attempted = failed_share([pr for pr, _ in pairs])
    c_failed, c_attempted = failed_share([ch for _, ch in pairs])
    # Cross-multiplied shares: attempts differ between sides on a fixed run
    # length.
    fails_no_more = c_failed * p_attempted <= p_failed * c_attempted
    for spec in end_to_end:
        name = spec["name"]
        lower = spec["better"] == "lower"
        p = [pr["metrics"][name]["value"] for pr, _ in pairs]
        c = [ch["metrics"][name]["value"] for _, ch in pairs]
        wins = sum(1 for a, b in zip(c, p) if better(a, b, lower))
        p_med, c_med = quantile(p, 0.5), quantile(c, 0.5)
        p_iqr = quantile(p, 0.75) - quantile(p, 0.25)
        gap = (p_med - c_med) if lower else (c_med - p_med)
        gain = (n >= MIN_PAIRS and wins * 10 >= 9 * n and gap > p_iqr and
                fails_no_more)
        worse = relative_worsening(c_med, p_med, lower)
        spread = p_iqr / abs(p_med) if p_med != 0 else 0.0
        dominates = all(better(a, b, lower) for a in c for b in p)
        if worse > spec["bound"]:
            bound = "WORSE"
        elif spread > spec["bound"] and not dominates:
            bound = "unresolved"
        else:
            bound = "ok"
        rows.append({
            "name": name, "unit": spec["unit"], "bound_frac": spec["bound"],
            "parent": (quantile(p, 0.25), p_med, quantile(p, 0.75)),
            "change": (quantile(c, 0.25), c_med, quantile(c, 0.75)),
            "ratio": c_med / p_med if p_med != 0 else float("nan"),
            "wins": wins, "pairs": n, "gain": gain, "bound": bound,
        })
    return rows


def failed_share(results):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return failed, attempted


def run_ok(result, exit_code):
    return exit_code == 0 and result["correct"] is True


def report(rows, pairs, bad_runs, out=sys.stdout):
    fmt = "{:<18} {:<4} {:>30} {:>30} {:>7} {:>6} {:>5}  {}"
    out.write(fmt.format("metric", "unit", "parent median [q1, q3]",
                         "change median [q1, q3]", "ratio", "wins", "gain",
                         "bound") + "\n")
    for r in rows:
        def cell(q):
            return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
        out.write(fmt.format(
            r["name"], r["unit"], cell(r["parent"]), cell(r["change"]),
            "%.3f" % r["ratio"], "%d/%d" % (r["wins"], r["pairs"]),
            "yes" if r["gain"] else "no",
            "%s (bound %g)" % (r["bound"], r["bound_frac"])) + "\n")
    for side, k in (("parent", 0), ("change", 1)):
        failed, attempted = failed_share([pr[k] for pr in pairs])
        out.write("%s: %d of %d answers failed\n" % (side, failed, attempted))
    for label in bad_runs:
        out.write("BAD RUN %s\n" % label)


def combine(per_seed):
    """Verdicts across seeds; `per_seed` holds one analyze() result per seed.
    A gain needs every seed to gain; the bound verdict is the worst of the
    seeds' (WORSE, then unresolved, then ok)."""
    combined = []
    for rows in zip(*per_seed):
        bounds = [r["bound"] for r in rows]
        bound = next((b for b in ("WORSE", "unresolved") if b in bounds), "ok")
        combined.append({"name": rows[0]["name"],
                         "gain": all(r["gain"] for r in rows),
                         "bound": bound,
                         "wins": ["%d/%d" % (r["wins"], r["pairs"])
                                  for r in rows]})
    return combined


def report_combined(seeds, combined, out=sys.stdout):
    out.write("combined over seeds %s:\n" % ", ".join(map(str, seeds)))
    fmt = "{:<18} {:>24} {:>5}  {}"
    out.write(fmt.format("metric", "wins per seed", "gain", "bound") + "\n")
    for c in combined:
        out.write(fmt.format(c["name"], " ".join(c["wins"]),
                             "yes" if c["gain"] else "no", c["bound"]) + "\n")


def make_record(workload, seed, commits, rows, pairs, bad_runs):
    """One BENCH_wall.json record; `commits` is (parent, change, dirty)."""
    parent, change, dirty = commits
    metrics = {}
    for r in rows:
        metrics[r["name"]] = {
            "unit": r["unit"], "parent_median": r["parent"][1],
            "change_median": r["change"][1],
            "ratio": r["ratio"] if math.isfinite(r["ratio"]) else None,
            "wins": r["wins"], "gain": r["gain"], "bound": r["bound"]}
    failed = {}
    for side, k in (("parent", 0), ("change", 1)):
        f, attempted = failed_share([pr[k] for pr in pairs])
        failed[side] = {"failed": f, "attempted": attempted}
    return {"workload": workload, "seed": seed, "pairs": len(pairs),
            "parent": parent, "change": change, "change_dirty": dirty,
            "metrics": metrics, "failed": failed, "bad_runs": bad_runs}


def append_record(path, record):
    doc = {"bench": "wall", "records": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["records"].append(record)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def change_commit():
    """The working tree's HEAD and whether tracked files differ from it
    (the trajectory file itself aside)."""
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()
    status = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no",
         "--", ".", ":!" + os.path.relpath(WALL_JSON, ROOT)],
        check=True, text=True, stdout=subprocess.PIPE).stdout
    return head, status.strip() != ""


def export_parent(ref, work):
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          ref + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    dest = os.path.join(work, sha)
    if not os.path.isdir(dest):
        with tempfile.TemporaryFile() as tar:
            subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                           check=True, stdout=tar)
            tar.seek(0)
            tmp = dest + ".partial"
            with tarfile.open(fileobj=tar) as t:
                t.extractall(tmp)
            os.rename(tmp, dest)
    return sha, dest


def run_once(root, build_root, workload, seed, seconds):
    """Returns the run's result line, parsed, and its exit status."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_root)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=root, env=env, text=True, stdout=subprocess.PIPE)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("perfbench run in %s printed no result (exit %d)"
                           % (root, proc.returncode))
    return json.loads(lines[-1]), proc.returncode


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_seed(args, seed, sides, seconds):
    """The alternating pairs at one seed: (pairs, bad run labels)."""
    pairs = []
    bad_runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            root, build_root = sides[side]
            got[side], exit_code = run_once(root, build_root, args.workload,
                                            seed, seconds)
            label = "seed %d pair %d %s" % (seed, i + 1, side)
            print("%s: %s" % (label, json.dumps(got[side])), flush=True)
            if not run_ok(got[side], exit_code):
                bad_runs.append("%s: exit %d, correct %s" % (
                    label, exit_code, json.dumps(got[side]["correct"])))
        pairs.append((got["parent"], got["change"]))
    return pairs, bad_runs


def run_pairs(args):
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    work = os.path.join(ROOT, ".bench_build", "perf_pairs")
    os.makedirs(work, exist_ok=True)
    sha, parent_root = export_parent(args.parent, work)
    sides = {
        "parent": (parent_root, os.path.join(work, "build-" + sha)),
        "change": (ROOT, os.path.join(work, "build-change")),
    }
    seeds = args.seed or [7]
    print("workload %s: %d pairs at seed %s, %g s runs; parent %s (%s) vs "
          "the working tree" % (args.workload, args.pairs,
                                ", ".join(map(str, seeds)), seconds,
                                args.parent, sha[:12]), flush=True)
    per_seed = []
    any_bad = False
    for seed in seeds:
        pairs, bad_runs = run_seed(args, seed, sides, seconds)
        rows = analyze(pairs, bench["end_to_end"])
        print("seed %d:" % seed)
        report(rows, pairs, bad_runs)
        per_seed.append(rows)
        any_bad = any_bad or bool(bad_runs)
        if args.record:
            change, dirty = change_commit()
            append_record(WALL_JSON, make_record(args.workload, seed,
                                                 (sha, change, dirty), rows,
                                                 pairs, bad_runs))
            print("recorded in %s" % os.path.relpath(WALL_JSON, ROOT))
    if len(seeds) > 1:
        report_combined(seeds, combine(per_seed))
    return 1 if any_bad else 0


def canned(metrics, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in
                        metrics.items()}}


def self_test():
    spec = [
        {"name": "cpu", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "slow", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "same", "unit": "s", "better": "lower", "bound": 0.02},
        {"name": "close", "unit": "ms", "better": "lower", "bound": 0.25},
    ]

    def make(parent_fails_in=None, change_fails_in=None):
        """Ten canned pairs; the named pair's side fails one answer."""
        pairs = []
        for i in range(10):
            parent = {"cpu": 15.0 + 0.1 * i, "qps": 80.0 + i,
                      "noisy": [10, 30, 12, 28, 11, 29, 10, 31, 12, 30][i],
                      "slow": 10.0 + 0.01 * i, "same": 64.6,
                      "close": 10.0 + 0.1 * i}
            change = {"cpu": 8.0 + 0.1 * i, "qps": 140.0 + i,
                      "noisy": [9, 29, 11, 27, 10, 28, 9, 30, 13, 31][i],
                      "slow": 13.0 + 0.01 * i, "same": 64.6,
                      # Wins 8 of 10: not a gain under the 9/10 rule.
                      "close": 9.9 + 0.1 * i if i < 8 else 10.1 + 0.1 * i}
            pairs.append((canned(parent, failed=int(i == parent_fails_in)),
                          canned(change, failed=int(i == change_fails_in))))
        return pairs

    pairs = make()
    rows = {r["name"]: r for r in analyze(pairs, spec)}
    expect = {
        "cpu": (10, True, "ok"),
        "qps": (10, True, "ok"),
        "noisy": (8, False, "unresolved"),
        "slow": (0, False, "WORSE"),
        "same": (0, False, "ok"),
        "close": (8, False, "ok"),
    }
    for name, (wins, gain, bound) in expect.items():
        got = (rows[name]["wins"], rows[name]["gain"], rows[name]["bound"])
        assert got == (wins, gain, bound), "%s: got %s, want %s" % (
            name, got, (wins, gain, bound))
    assert abs(rows["cpu"]["parent"][1] - 15.45) < 1e-9
    assert abs(rows["cpu"]["parent"][0] - 15.225) < 1e-9

    def gains(pairs):
        return [r["name"] for r in analyze(pairs, spec) if r["gain"]]

    # A change that fails more answers than the parent claims no gain; the
    # same failed share on both sides leaves the gains standing.
    failing = make(change_fails_in=3)
    assert failed_share([c for _, c in failing]) == (1, 1000)
    assert gains(failing) == [], gains(failing)
    assert gains(make(parent_fails_in=5, change_fails_in=3)) == ["cpu", "qps"]
    # Three pairs won out of three are too few for a gain.
    assert gains(pairs[:3]) == [], gains(pairs[:3])
    # A run is bad when it exits non-zero or prints "correct": false.
    assert run_ok(pairs[0][1], 0)
    assert not run_ok(pairs[0][1], 1)
    assert not run_ok(failing[3][1], 0)
    # A line the tool printed parses back into the same result.
    line = "pair 1 change: " + json.dumps(pairs[0][1])
    assert json.loads(line.split(": ", 1)[1]) == pairs[0][1]
    report(analyze(failing, spec), failing,
           ["pair 4 change: exit 1, correct false"])
    # A record appended to the trajectory file reads back unchanged, after
    # the records already there.
    record = make_record("serving_sf1", 7, ("p" * 40, "c" * 40, True),
                         analyze(failing, spec), failing,
                         ["pair 4 change: exit 1, correct false"])
    assert record["metrics"]["cpu"]["wins"] == 10
    assert record["failed"]["change"] == {"failed": 1, "attempted": 1000}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_wall.json")
        append_record(path, record)
        append_record(path, record)
        with open(path) as f:
            doc = json.load(f)
    assert doc == {"bench": "wall", "records": [record, record]}, doc

    # Across seeds: one seed that gains and one that does not make no gain;
    # one seed that is WORSE, or unresolved, decides the combined bound.
    def combined(*seed_pairs):
        return {c["name"]: c for c in
                combine([analyze(p, spec) for p in seed_pairs])}

    other_seed = []
    for pr, ch in pairs:
        tight = pr["metrics"]["close"]
        other_seed.append((
            dict(pr, metrics=dict(pr["metrics"], noisy=tight)),
            dict(ch, metrics=dict(ch["metrics"], cpu=pr["metrics"]["cpu"],
                                  noisy=tight,
                                  same={"value": 70.0, "unit": ""}))))
    alone = {r["name"]: r for r in analyze(other_seed, spec)}
    assert (alone["cpu"]["gain"], alone["noisy"]["bound"],
            alone["same"]["bound"]) == (False, "ok", "WORSE"), alone
    mixed = combined(pairs, other_seed)
    assert not mixed["cpu"]["gain"], mixed["cpu"]
    assert mixed["cpu"]["wins"] == ["10/10", "0/10"], mixed["cpu"]
    assert mixed["qps"]["gain"] and mixed["qps"]["bound"] == "ok"
    assert mixed["noisy"]["bound"] == "unresolved", mixed["noisy"]
    assert mixed["same"]["bound"] == "WORSE", mixed["same"]
    both = combined(pairs, pairs)
    assert [n for n, c in both.items() if c["gain"]] == ["cpu", "qps"], both
    report_combined([7, 11], list(mixed.values()))
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git ref of the parent commit")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="perfbench seed (default 7); repeat to run the "
                        "pairs at each seed")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdicts on canned result lines")
    parser.add_argument("--record", action="store_true",
                        help="append the run to bench/baseline/"
                        "BENCH_wall.json")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.workload:
        parser.error("--parent and --workload are required")
    try:
        return run_pairs(args)
    except RuntimeError as e:
        sys.stderr.write("perf_pairs: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
