#!/usr/bin/env python3
"""Tests for bench_trend.py: present, new and dropped series, and the
warn-only exit semantics.

Usage:
    python3 ci/test_bench_trend.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_trend  # noqa: E402


def write_artifact(directory, name, tree):
    with open(os.path.join(directory, name), "w") as f:
        json.dump(tree, f)


def run_trend(previous, current, *extra):
    """Runs bench_trend.main() on two artifact trees; returns (exit, log)."""
    with tempfile.TemporaryDirectory() as prev_dir, tempfile.TemporaryDirectory() as cur_dir:
        if previous is not None:
            write_artifact(prev_dir, "BENCH_micro_crypto.json", previous)
        write_artifact(cur_dir, "BENCH_micro_crypto.json", current)
        argv = ["bench_trend.py", "--previous", prev_dir, "--current", cur_dir, *extra]
        out = io.StringIO()
        saved = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out):
                code = bench_trend.main()
        finally:
            sys.argv = saved
        return code, out.getvalue()


class BenchTrendTest(unittest.TestCase):
    def test_present_series_is_compared(self):
        code, log = run_trend({"batch": {"w1_us_per_commit": 4.0}},
                              {"batch": {"w1_us_per_commit": 4.2}})
        self.assertEqual(code, 0)
        self.assertIn("batch.w1_us_per_commit: 4.000 -> 4.200 (+5.0%)", log)
        self.assertIn("1 tracked series compared, 0 over", log)
        self.assertNotIn("::warning", log)

    def test_regression_warns_but_exits_zero(self):
        code, log = run_trend({"w8_commits_per_s": 600000.0}, {"w8_commits_per_s": 300000.0})
        self.assertEqual(code, 0)
        self.assertIn("<-- REGRESSION", log)
        self.assertIn("::warning title=bench regression::", log)

    def test_regression_fails_with_fail_flag(self):
        code, log = run_trend({"us_per_msg": 1.0}, {"us_per_msg": 2.0}, "--fail")
        self.assertEqual(code, 1)
        self.assertIn("::error title=bench regression::", log)

    def test_new_series_is_reported_not_compared(self):
        code, log = run_trend({}, {"w8_us_per_commit": 1.6})
        self.assertEqual(code, 0)
        self.assertIn("w8_us_per_commit: no comparable baseline "
                      "(series absent from previous run); not compared", log)
        self.assertIn("0 tracked series compared", log)

    def test_dropped_series_is_reported_not_compared(self):
        code, log = run_trend({"w1_us_per_commit": 4.0, "w4_us_per_commit": 1.9},
                              {"w1_us_per_commit": 4.0})
        self.assertEqual(code, 0)
        self.assertIn("w4_us_per_commit: series absent from current run; no longer compared",
                      log)
        self.assertIn("1 tracked series compared", log)

    def test_dropped_untracked_key_is_silent(self):
        code, log = run_trend({"w1_us_per_commit": 4.0, "batch_size": 256},
                              {"w1_us_per_commit": 4.0})
        self.assertEqual(code, 0)
        self.assertNotIn("batch_size", log)

    def test_missing_previous_artifact_skips(self):
        code, log = run_trend(None, {"us_per_msg": 1.0})
        self.assertEqual(code, 0)
        self.assertIn("no previous BENCH_micro_crypto.json; skipping", log)


if __name__ == "__main__":
    unittest.main()
