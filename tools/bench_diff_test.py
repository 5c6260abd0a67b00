#!/usr/bin/env python3
"""Smoke tests for bench_diff.py (stdlib unittest; wired into ctest).

bench_diff is CI-critical glue with no compiler watching over it: these
tests pin the median folding (repetitions and aggregate rows), the
regression threshold math in both metric directions (throughput drops
and bytes/node rises), the exit-code contract (always 0 — the diff
annotates, it never gates), and robustness to unreadable input.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff


def write_json(directory, name, benchmarks):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump({"benchmarks": benchmarks}, f)
    return path


def entry(name, rate, run_type="iteration", metric="items_per_second"):
    return {"name": name, "run_type": run_type, metric: rate}


def run_main(argv):
    out = io.StringIO()
    old = sys.argv
    sys.argv = ["bench_diff.py"] + argv
    try:
        with redirect_stdout(out):
            code = bench_diff.main()
    finally:
        sys.argv = old
    return code, out.getvalue()


class MedianFolding(unittest.TestCase):
    def test_repetitions_fold_to_median(self):
        with tempfile.TemporaryDirectory() as d:
            path = write_json(d, "a.json", [
                entry("BM_X", 100.0), entry("BM_X", 300.0),
                entry("BM_X", 200.0),
            ])
            self.assertEqual(bench_diff.median_metrics(path),
                             {("BM_X", "items_per_second"): 200.0})

    def test_real_time_suffix_keeps_the_row_name(self):
        with tempfile.TemporaryDirectory() as d:
            path = write_json(d, "a.json", [
                entry("BM_X/8", 100.0), entry("BM_X/8/real_time", 300.0),
            ])
            self.assertEqual(bench_diff.median_metrics(path),
                             {("BM_X/8", "items_per_second"): 200.0})

    def test_aggregate_rows_and_rateless_entries_skipped(self):
        with tempfile.TemporaryDirectory() as d:
            path = write_json(d, "a.json", [
                entry("BM_X", 100.0),
                entry("BM_X_median", 999.0, run_type="aggregate"),
                {"name": "BM_NoRate", "run_type": "iteration"},
            ])
            self.assertEqual(bench_diff.median_metrics(path),
                             {("BM_X", "items_per_second"): 100.0})

    def test_metrics_fold_independently_per_key(self):
        # One benchmark name can carry several metric keys (the ckpt IO
        # bench publishes save throughput and bytes/node under one tag);
        # each (name, metric) pair folds on its own.
        with tempfile.TemporaryDirectory() as d:
            path = write_json(d, "a.json", [
                entry("CkptIO/v2", 5.0e7),
                entry("CkptIO/v2", 2.4, metric="bytes_per_node"),
                entry("CkptIO/v2", 2.6, metric="bytes_per_node"),
            ])
            self.assertEqual(bench_diff.median_metrics(path), {
                ("CkptIO/v2", "items_per_second"): 5.0e7,
                ("CkptIO/v2", "bytes_per_node"): 2.5,
            })


class RegressionFlagging(unittest.TestCase):
    def diff(self, prev_rate, curr_rate, threshold="0.10"):
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json", [entry("BM_X", prev_rate)])
            curr = write_json(d, "curr.json", [entry("BM_X", curr_rate)])
            return run_main([prev, curr, "--threshold", threshold])

    def test_drop_beyond_threshold_warns_but_exits_zero(self):
        code, out = self.diff(100.0, 85.0)
        self.assertEqual(code, 0)  # advisory, never gates
        self.assertIn("::warning", out)
        self.assertIn("REGRESSION", out)

    def test_drop_within_threshold_is_quiet(self):
        code, out = self.diff(100.0, 95.0)
        self.assertEqual(code, 0)
        self.assertNotIn("::warning", out)
        self.assertIn("no benchmark metric regressed", out)

    def test_improvement_is_not_a_regression(self):
        code, out = self.diff(100.0, 150.0)
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSION", out)

    def test_new_benchmark_without_baseline_is_skipped(self):
        # A backend added this commit has no previous-artifact entry; the
        # diff must not warn (or crash) about it.
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json", [entry("BM_Old", 100.0)])
            curr = write_json(d, "curr.json", [
                entry("BM_Old", 100.0),
                entry("EulerianCirculation/torus/k8", 2.3e8),
            ])
            code, out = run_main([prev, curr])
            self.assertEqual(code, 0)
            self.assertNotIn("::warning", out)

    def test_lower_is_better_metric_regresses_on_rise(self):
        # bytes_per_node growing past the threshold is a regression (the
        # v2 codec losing its density) even though the number went *up*.
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json",
                              [entry("CkptIO/v2", 2.4,
                                     metric="bytes_per_node")])
            curr = write_json(d, "curr.json",
                              [entry("CkptIO/v2", 3.0,
                                     metric="bytes_per_node")])
            code, out = run_main([prev, curr])
            self.assertEqual(code, 0)
            self.assertIn("REGRESSION", out)
            self.assertIn("rose", out)

    def test_p99_latency_regresses_on_rise(self):
        # bench_server publishes step-latency tails as p99_seconds; a
        # rising tail is a regression even though throughput may hold.
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json",
                              [entry("Server/evicting/step_latency", 0.10,
                                     metric="p99_seconds")])
            curr = write_json(d, "curr.json",
                              [entry("Server/evicting/step_latency", 0.25,
                                     metric="p99_seconds")])
            code, out = run_main([prev, curr])
            self.assertEqual(code, 0)
            self.assertIn("REGRESSION", out)
            self.assertIn("rose", out)

    def test_p99_latency_is_quiet_on_drop(self):
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json",
                              [entry("Server/evicting/step_latency", 0.25,
                                     metric="p99_seconds")])
            curr = write_json(d, "curr.json",
                              [entry("Server/evicting/step_latency", 0.10,
                                     metric="p99_seconds")])
            code, out = run_main([prev, curr])
            self.assertEqual(code, 0)
            self.assertNotIn("::warning", out)

    def test_lower_is_better_metric_is_quiet_on_drop(self):
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json",
                              [entry("CkptIO/v2", 3.0,
                                     metric="bytes_per_node")])
            curr = write_json(d, "curr.json",
                              [entry("CkptIO/v2", 2.4,
                                     metric="bytes_per_node")])
            code, out = run_main([prev, curr])
            self.assertEqual(code, 0)
            self.assertNotIn("::warning", out)

    def test_per_class_p99_tails_fold_independently(self):
        # bench_server's mixed-QoS lane publishes one p99 row per
        # (policy, class); repetitions of each row fold to their own
        # median, never across classes.
        with tempfile.TemporaryDirectory() as d:
            path = write_json(d, "a.json", [
                entry("Server/mixed/qos/interactive_step", 0.002,
                      metric="p99_seconds"),
                entry("Server/mixed/qos/interactive_step", 0.004,
                      metric="p99_seconds"),
                entry("Server/mixed/qos/batch_step", 0.300,
                      metric="p99_seconds"),
                entry("Server/mixed/qos/step_rounds_per_s", 1.0e7),
            ])
            self.assertEqual(bench_diff.median_metrics(path), {
                ("Server/mixed/qos/interactive_step", "p99_seconds"): 0.003,
                ("Server/mixed/qos/batch_step", "p99_seconds"): 0.300,
                ("Server/mixed/qos/step_rounds_per_s",
                 "items_per_second"): 1.0e7,
            })

    def test_interactive_tail_regression_flags_only_that_class(self):
        # The QoS scheduler's whole point is the interactive tail: if it
        # grows past threshold the diff must name that row, while a steady
        # batch tail stays quiet — one warning, aimed at the right class.
        with tempfile.TemporaryDirectory() as d:
            prev = write_json(d, "prev.json", [
                entry("Server/mixed/qos/interactive_step", 0.0002,
                      metric="p99_seconds"),
                entry("Server/mixed/qos/batch_step", 0.300,
                      metric="p99_seconds"),
            ])
            curr = write_json(d, "curr.json", [
                entry("Server/mixed/qos/interactive_step", 0.0009,
                      metric="p99_seconds"),
                entry("Server/mixed/qos/batch_step", 0.305,
                      metric="p99_seconds"),
            ])
            code, out = run_main([prev, curr])
            self.assertEqual(code, 0)
            self.assertIn(
                "::warning title=bench regression::"
                "Server/mixed/qos/interactive_step", out)
            self.assertNotIn("batch_step p99_seconds rose", out)

    def test_unreadable_input_is_a_notice_not_a_failure(self):
        code, out = run_main(["/does/not/exist.json", "/also/missing.json"])
        self.assertEqual(code, 0)
        self.assertIn("bench diff skipped", out)

    def test_malformed_json_is_a_notice_not_a_failure(self):
        with tempfile.TemporaryDirectory() as d:
            bad = os.path.join(d, "bad.json")
            with open(bad, "w") as f:
                f.write("{not json")
            good = write_json(d, "good.json", [entry("BM_X", 1.0)])
            code, out = run_main([bad, good])
            self.assertEqual(code, 0)
            self.assertIn("bench diff skipped", out)


if __name__ == "__main__":
    unittest.main()
