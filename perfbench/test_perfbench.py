#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py on first use (as a benchmark run would).
"""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics whose value is a deterministic function of the inputs.
EXACT_UNITS = {"count"}
EXACT_RATIOS = {"sim.resolve_useful_ratio", "crypto.hash_ops_per_delivery",
                "core.center_accuracy", "ops_failed_ratio"}


def run_command(*args, cwd=ROOT, script=HERE / "run.py"):
    """Runs run.py at tiny size with --seconds 0 (one round untraced, three
    traced); returns (exit code, stdout lines, stderr)."""
    done = subprocess.run([sys.executable, str(script), "--size", "tiny", "--seconds", "0",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines(), done.stderr


def setUpModule():
    if not run.build():
        raise RuntimeError("benchmark build failed")


def run_planted(expected, workload, seed):
    """Runs run.benchmark() in process at tiny size against the recorded
    counts `expected`; returns (exit code, stdout lines, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    opts = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=0, size="tiny")
    saved = run.EXPECTED
    with tempfile.TemporaryDirectory() as tmp:
        run.EXPECTED = Path(tmp) / "expected.json"
        run.EXPECTED.write_text(json.dumps(expected))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.benchmark(opts)
        finally:
            run.EXPECTED = saved
    return code, out.getvalue().splitlines(), err.getvalue()


def result_of(lines):
    return json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, err = run_command("--workload", workload, "--seed", "3",
                                                   "--trace", str(trace))
                    self.assertEqual(code, 0, err)
                    result = result_of(lines)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(set(result["metrics"]), set(want))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], want[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                    if trace == 0:
                        for name in want:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_layers_a_workload_runs_are_measured_not_filled(self):
        # run.py reports n/a only for layers the workload never calls (and
        # serve_mixed has no deliveries to divide hash ops by).
        for workload, foreign in (("discovery_dense", "service."),
                                  ("serve_mixed", ("sim.", "core.",
                                                   "crypto.hash_ops_per_delivery"))):
            with self.subTest(workload=workload):
                code, lines, err = run_command("--workload", workload, "--seed", "1",
                                               "--trace", "1")
                self.assertEqual(code, 0, err)
                filled = [line.split()[0] for line in lines if line.split()[1:2] == ["n/a"]]
                self.assertTrue(filled)
                for name in filled:
                    self.assertTrue(name.startswith(foreign), name)


class Determinism(unittest.TestCase):
    def test_exact_counts_repeat_across_runs_of_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, lines, err = run_command("--workload", workload, "--seed", "7",
                                                   "--trace", "1")
                    self.assertEqual(code, 0, err)
                    runs.append(result_of(lines)["metrics"])
                exact = [name for name, m in runs[0].items()
                         if m["unit"] in EXACT_UNITS or name in EXACT_RATIOS]
                self.assertIn("crypto.hash_ops.run", exact)
                for name in exact:
                    self.assertEqual(runs[0][name], runs[1][name], name)

    def test_round_count_follows_from_seconds_alone(self):
        # Two commits measured with one seed and --seconds must run the same
        # inputs, however fast each is: the trial records list the pool
        # inputs a run walked.
        pools = []
        for _ in range(2):
            done = subprocess.run([str(run.BINARY), "--workload", "discovery_dense", "--size",
                                   "tiny", "--seed", "14", "--seconds", "13", "--trace", "0"],
                                  capture_output=True, text=True, timeout=600)
            self.assertEqual(done.returncode, 0, done.stderr)
            pools.append([json.loads(line.partition(" ")[2])["pool"]
                          for line in done.stdout.splitlines() if line.startswith("trial ")])
        # 13 s of 6 s trials: two, walking the pool from input 14.
        self.assertEqual(pools, [[14, 15], [14, 15]])


class Checks(unittest.TestCase):
    def test_planted_wrong_expected_count_fails_the_run(self):
        expected = json.loads((HERE / "expected.json").read_text())
        # Seed 4 with one round runs pool input 4.
        expected["discovery_dense"]["tiny"]["4"]["events"] += 1
        code, lines, err = run_planted(expected, "discovery_dense", 4)
        self.assertNotEqual(code, 0)
        result = result_of(lines)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("MISMATCH discovery_dense", err)
        self.assertIn("events", err)

    def test_unrecorded_input_fails_the_run(self):
        expected = json.loads((HERE / "expected.json").read_text())
        del expected["serve_mixed"]["tiny"]["2"]
        code, lines, _ = run_planted(expected, "serve_mixed", 2)
        self.assertNotEqual(code, 0)
        self.assertFalse(result_of(lines)["correct"])

    def test_fails_without_result_outside_a_source_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, _ = run_command("--workload", "discovery_dense", "--seed", "1",
                                         "--trace", "0", cwd=tmp,
                                         script=Path(tmp) / "perfbench" / "run.py")
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
