#!/usr/bin/env python3
"""Unit tests for pairs.py's verdict logic (stdlib unittest; wired into
ctest). They pin the seed parsing, the run-output parsing (a failed run
keeps its metrics, failed count and check lines), the win counting in
both metric directions, the 9-of-10 plus IQR rule and the bound flag."""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs

RUN_OK = """# rrbench workload=serve-mixed seed=3 seconds=30 trace=0
# host steal share during the run: 0.004
step_p99_ms 8.5 ms
{"correct": true, "attempted": 40, "failed": 0, "metrics": {"step_p99_ms": {"value": 8.5, "unit": "ms"}}}
"""

RUN_FAILED = """# host steal share during the run: 0.120
{"correct": false, "attempted": 40, "failed": 2, "metrics": {"step_p99_ms": {"value": 9.5, "unit": "ms"}}}
"""


class ParseTest(unittest.TestCase):
    def test_seeds(self):
        self.assertEqual(pairs.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(pairs.parse_seeds("7"), [7])
        self.assertEqual(pairs.parse_seeds("5,9,2-3"), [5, 9, 2, 3])
        with self.assertRaises(ValueError):
            pairs.parse_seeds("4-2")

    def test_ok_run(self):
        r = pairs.parse_run(0, RUN_OK, "build noise\n")
        self.assertEqual(r["metrics"], {"step_p99_ms": 8.5})
        self.assertEqual(r["failed"], 0)
        self.assertEqual(r["steal"], 0.004)
        self.assertEqual(r["checks"], [])

    def test_failed_run_keeps_metrics_and_checks(self):
        stderr = ("rrbench: check failed: serve-mixed: step reply timed out\n"
                  "other line\n")
        r = pairs.parse_run(1, RUN_FAILED, stderr)
        self.assertEqual(r["exit"], 1)
        self.assertEqual(r["failed"], 2)
        self.assertEqual(r["metrics"], {"step_p99_ms": 9.5})
        self.assertEqual(r["checks"],
                         ["rrbench: check failed: serve-mixed: step reply timed out"])

    def test_run_without_result(self):
        r = pairs.parse_run(1, "", "rrbench: build failed\n")
        self.assertEqual(r["metrics"], {})
        self.assertIsNone(r["failed"])


class VerdictTest(unittest.TestCase):
    def test_clear_win_lower_is_better(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [v - 2.0 for v in base]
        s = pairs.verdict(base, change, "lower")
        self.assertEqual((s["wins"], s["losses"], s["n"]), (10, 0, 10))
        self.assertEqual(s["verdict"], "better")

    def test_clear_loss_higher_is_better(self):
        base = [100.0 + i for i in range(10)]
        change = [v - 50.0 for v in base]
        s = pairs.verdict(base, change, "higher")
        self.assertEqual(s["losses"], 10)
        self.assertEqual(s["verdict"], "worse")

    def test_eight_of_ten_is_unresolved(self):
        base = [10.0] * 10
        change = [5.0] * 8 + [11.0] * 2
        self.assertEqual(pairs.verdict(base, change, "lower")["verdict"],
                         "unresolved")

    def test_nine_wins_inside_the_iqr_is_unresolved(self):
        base = [1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 5.0, 5.0]
        change = [v - 0.5 for v in base[:9]] + [6.0]
        s = pairs.verdict(base, change, "lower")
        self.assertEqual(s["wins"], 9)
        self.assertEqual(s["verdict"], "unresolved")

    def test_missing_value_is_a_loss_for_its_side(self):
        base = [10.0] * 10
        change = [5.0] * 9 + [None]
        s = pairs.verdict(base, change, "lower")
        self.assertEqual((s["wins"], s["losses"]), (9, 1))
        self.assertEqual(s["change"], 5.0)
        self.assertEqual(s["verdict"], "better")

    def test_ties_count_for_neither_side(self):
        s = pairs.verdict([3.0] * 4, [3.0] * 4, "lower")
        self.assertEqual((s["wins"], s["losses"]), (0, 0))
        self.assertEqual(s["verdict"], "unresolved")

    def test_over_bound(self):
        s = {"base": 10.0, "change": 12.6}
        self.assertTrue(pairs.over_bound(s, "lower", 0.25))
        self.assertFalse(pairs.over_bound(s, "higher", 0.25))
        self.assertFalse(pairs.over_bound(s, "lower", None))


class ReportTest(unittest.TestCase):
    def test_report_lists_every_run_and_failure(self):
        ok = pairs.parse_run(0, RUN_OK, "")
        bad = pairs.parse_run(1, RUN_FAILED,
                              "rrbench: check failed: serve-mixed: x\n")
        ok["order"], bad["order"] = 0, 1
        out = io.StringIO()
        pairs.report([{"seed": 3, "base": ok, "change": bad}],
                     {"step_p99_ms": ("lower", 0.25)}, out)
        text = out.getvalue()
        self.assertIn("rrbench: check failed: serve-mixed: x", text)
        self.assertIn("failed runs: 1 (pair 0 change)", text)
        self.assertIn("step_p99_ms", text)
        self.assertIn("0/1", text)


if __name__ == "__main__":
    unittest.main()
