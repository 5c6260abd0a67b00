#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag metric regressions.

Used by CI to diff the current commit's bench JSONs (bench_perf.json,
bench_ckpt_io.json, ...) against the previous commit's uploaded
artifacts. Each entry carries one metric key from the METRICS table
below; a regression is a drop in a higher-is-better metric (throughput)
or a rise in a lower-is-better one (checkpoint bytes/node, peak RSS) of
at least --threshold, and emits a GitHub Actions ::warning:: annotation.
Samples fold to medians per (name, metric) pair, so per-QoS-class
latency tails (bench_server's Server/mixed/<policy>/<class>_step rows
under p99_seconds) diff independently: an interactive-tail regression is
flagged by name even when the batch tail and every throughput row hold.
Exit code is always 0 — the diff annotates, it does not gate (hot-loop
noise on shared runners would make a hard gate flaky); a human decides
whether a flagged change is real.

Usage: bench_diff.py previous.json current.json [--threshold 0.10]
"""

import argparse
import json
import statistics
import sys

# Metric key -> regression direction. "higher" means a drop regresses
# (throughput); "lower" means a rise regresses (size/footprint budgets,
# e.g. rr-ckpt v2 density creeping back toward the text format's cost).
METRICS = {
    "items_per_second": "higher",
    "bytes_per_node": "lower",
    "rss_bytes": "lower",
    "p99_seconds": "lower",
}


def row_name(name):
    """Benchmark name without google-benchmark's "/real_time" suffix, so a
    row keeps its ledger identity when it switches to wall-clock timing."""
    suffix = "/real_time"
    return name[:-len(suffix)] if name.endswith(suffix) else name


def median_metrics(path):
    """(name, metric) -> median value over that benchmark's entries."""
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for bench in data.get("benchmarks", []):
        # Skip explicit aggregate rows (mean/median/stddev of repetitions);
        # we fold repetitions ourselves so both shapes are handled.
        if bench.get("run_type") == "aggregate":
            continue
        for metric in METRICS:
            value = bench.get(metric)
            if value is None:
                continue
            samples.setdefault((row_name(bench["name"]), metric),
                               []).append(value)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative change that counts as a regression")
    args = parser.parse_args()

    try:
        prev = median_metrics(args.previous)
        curr = median_metrics(args.current)
    except (OSError, ValueError, KeyError) as e:
        print(f"::notice::bench diff skipped (unreadable input: {e})")
        return 0

    regressions = []
    for name, metric in sorted(curr):
        key = (name, metric)
        if key not in prev or prev[key] <= 0:
            continue
        ratio = curr[key] / prev[key]
        direction = METRICS[metric]
        regressed = (ratio <= 1.0 - args.threshold if direction == "higher"
                     else ratio >= 1.0 + args.threshold)
        marker = ""
        if regressed:
            marker = "  <-- REGRESSION"
            regressions.append((name, metric, prev[key], curr[key], ratio))
        print(f"{name} [{metric}]: {prev[key]:.3e} -> {curr[key]:.3e} "
              f"({(ratio - 1.0) * 100.0:+.1f}%){marker}")

    for name, metric, p, c, ratio in regressions:
        verb = ("fell" if METRICS[metric] == "higher" else "rose")
        print(f"::warning title=bench regression::{name} {metric} {verb} "
              f"{abs(ratio - 1.0) * 100.0:.1f}% vs previous commit "
              f"({p:.3e} -> {c:.3e})")
    if regressions:
        print(f"::notice::{len(regressions)} benchmark metric(s) regressed "
              f">= {args.threshold * 100.0:.0f}%; see warnings")
    else:
        print("::notice::no benchmark metric regressed beyond "
              f"{args.threshold * 100.0:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
