#!/usr/bin/env python3
"""Run the repository benchmark in interleaved parent/change pairs.

    python3 tools/pairs.py --base REV [--change REV] --workload W \\
        --seeds A-B [--trace]

Each side is a snapshot of its revision (`git archive`, unpacked under
.bench_build/pairs/<sha>/); without --change the change side is this
checkout's working tree, uncommitted edits included. Both sides build
first, then pair i runs rrbench/run.py on each side with seed i, the
parent first in even pairs and the change first in odd ones, so a slow
spell on the host hits both sides alike. Every run lasts BENCHMARK.json's
run_seconds.

For every metric the report gives both medians, the parent's
interquartile range (q1-q3), the change's wins out of N pairs and a
verdict. The verdict rule: the change is "better" when it wins at least
90% of the pairs (9 of 10) and its median is better than the parent's by
more than the parent's IQR; "worse" symmetrically; otherwise
"unresolved". End-to-end metrics also say when the change's median is
worse than the parent's by more than the metric's bound in
BENCHMARK.json. A pair where a side has no value for a metric (its run
printed no result) counts as a loss for that side.

Every run is kept and listed: its exit status, its `failed` operation
count, its host steal share and any `rrbench: check failed:` lines. A
failed run is never dropped, and its metrics (when it printed them)
still count. The tool stores no baselines; the report goes to stdout.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["rrbench", "rr_serverd", "rr_noded"]
WIN_SHARE = 0.9


def parse_seeds(text):
    """"A-B" (inclusive), "A,B,C" or "A" -> list of seeds."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty seed range {part}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    return seeds


def parse_run(code, stdout, stderr):
    """One rrbench run's record: exit status, metrics, failed count,
    steal share and check-failure lines. `metrics` is empty when the run
    printed no result line."""
    run = {"exit": code, "metrics": {}, "failed": None, "attempted": None,
           "steal": None, "checks": []}
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                continue
            run["metrics"] = {k: v["value"]
                              for k, v in result.get("metrics", {}).items()}
            run["failed"] = result.get("failed")
            run["attempted"] = result.get("attempted")
        m = re.match(r"# host steal share during the run: ([0-9.eE+-]+)", line)
        if m:
            run["steal"] = float(m.group(1))
    run["checks"] = [line.strip() for line in stderr.splitlines()
                     if line.startswith("rrbench: check failed:")]
    return run


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, change, better):
    """Per-metric summary over aligned pairs. `base` and `change` hold
    one value per pair, None where that side's run gave none; `better`
    is "lower" or "higher"."""
    n = len(base)
    wins = losses = 0
    for b, c in zip(base, change):
        if c is None and b is None:
            continue
        if c is None:
            losses += 1
        elif b is None:
            wins += 1
        elif c != b and (c < b) == (better == "lower"):
            wins += 1
        elif c != b:
            losses += 1
    base_vals = [b for b in base if b is not None]
    change_vals = [c for c in change if c is not None]
    out = {"n": n, "wins": wins, "losses": losses, "verdict": "unresolved",
           "base": None, "change": None, "q1": None, "q3": None}
    if not base_vals or not change_vals:
        return out
    out["q1"], out["base"], out["q3"] = quartiles(base_vals)
    out["change"] = statistics.median(change_vals)
    iqr = out["q3"] - out["q1"]
    gain = out["base"] - out["change"] if better == "lower" \
        else out["change"] - out["base"]
    need = math.ceil(WIN_SHARE * n)
    if wins >= need and gain > iqr:
        out["verdict"] = "better"
    elif losses >= need and -gain > iqr:
        out["verdict"] = "worse"
    return out


def over_bound(summary, better, bound):
    """True when the change's median is worse than the parent's by more
    than `bound` (a share of the parent's median)."""
    b, c = summary["base"], summary["change"]
    if b is None or c is None or bound is None or b == 0:
        return False
    worse = (c - b) / abs(b) if better == "lower" else (b - c) / abs(b)
    return worse > bound


def benchmark_spec(root):
    """(run_seconds, {name -> (better, bound or None)}) from
    BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec.get("per_layer", []):
        metrics[m["name"]] = (m["better"], None)
    for m in spec.get("end_to_end", []):
        metrics[m["name"]] = (m["better"], m.get("bound"))
    return spec["run_seconds"], metrics


def snapshot(rev):
    """Unpacks `rev` under .bench_build/pairs/<sha> once; returns the
    tree's path."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, capture_output=True,
                         text=True).stdout.strip()
    dest = os.path.join(ROOT, ".bench_build", "pairs", sha[:12])
    if not os.path.isdir(dest):
        tmp = dest + ".tmp"
        subprocess.run(["rm", "-rf", tmp], check=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        os.rename(tmp, dest)
    return dest


def build(tree):
    """The build rrbench/run.py does, done up front so no pair times it."""
    out = os.path.join(tree, ".bench_build", "rrbench")
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", os.path.join(tree, "rrbench"), "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr)


def run_side(tree, args, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "rrbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if args.trace else "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return parse_run(p.returncode, p.stdout, p.stderr)


def fmt(value):
    return "-" if value is None else f"{value:.4g}"


def report(runs, specs, out=sys.stdout):
    """Prints the per-run list and the per-metric table."""
    print("pair seed side   order exit failed steal", file=out)
    for i, pair in enumerate(runs):
        for side in ("base", "change"):
            r = pair[side]
            print(f"{i:4d} {pair['seed']:4d} {side:6s} {r['order']:5d} "
                  f"{r['exit']:4d} {fmt(r['failed']):>6s} {fmt(r['steal']):>5s}",
                  file=out)
            for line in r["checks"]:
                print(f"       {line}", file=out)
    names = sorted({k for p in runs for s in ("base", "change")
                    for k in p[s]["metrics"]})
    print(f"\n{'metric':34s} {'parent':>10s} {'q1-q3':>21s} {'change':>10s} "
          f"{'wins':>6s}  verdict", file=out)
    for name in names:
        better, bound = specs.get(name, ("lower", None))
        s = verdict([p["base"]["metrics"].get(name) for p in runs],
                    [p["change"]["metrics"].get(name) for p in runs], better)
        flag = "  OVER BOUND" if over_bound(s, better, bound) else ""
        iqr = f"{fmt(s['q1'])}-{fmt(s['q3'])}"
        print(f"{name:34s} {fmt(s['base']):>10s} {iqr:>21s} "
              f"{fmt(s['change']):>10s} {s['wins']:>3d}/{s['n']:<2d}  "
              f"{s['verdict']}{flag}", file=out)
    failed = [(i, side) for i, p in enumerate(runs) for side in ("base", "change")
              if p[side]["exit"] != 0 or p[side]["failed"]]
    print(f"\nfailed runs: {len(failed)}"
          + "".join(f" (pair {i} {side})" for i, side in failed), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", help="change revision (default: the "
                        "working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, A,B,C or A")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds, specs = benchmark_spec(ROOT)
    trees = {"base": snapshot(args.base),
             "change": snapshot(args.change) if args.change else ROOT}
    for tree in trees.values():
        build(tree)
    runs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed}
        for k, side in enumerate(order):
            pair[side] = run_side(trees[side], args, seed, seconds)
            pair[side]["order"] = k
            r = pair[side]
            print(f"# pair {i} seed {seed} {side}: exit {r['exit']} failed "
                  f"{fmt(r['failed'])}", file=sys.stderr, flush=True)
        runs.append(pair)
    report(runs, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
