#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/snd_perfbench, runs one workload,
checks its outputs and prints one JSON result line last.

    python3 perfbench/run.py --workload discovery_dense --seed 3 --seconds 20 --trace 0

Run it from the root of a source checkout. The build goes to .bench_build/
there. The number of rounds a run makes follows from --seconds alone, so
one seed and one --seconds always run the same inputs. With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. Every trial or round
the binary reports is checked against the exact counts recorded in
perfbench/expected.json; a mismatch counts as a failed operation and the
exit code is 1.

    python3 perfbench/run.py --record [--size tiny|full] [--workload NAME]

re-records expected.json from the current sources (only for a change that
is meant to alter what the protocol or the service computes).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "snd_perfbench"
EXPECTED = HERE / "expected.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The binary's own budget; the benchmark must end within 180 s.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; run from a source checkout")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "snd_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_binary(args):
    """Runs snd_perfbench; returns (exit code, parsed report) or None."""
    try:
        done = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"snd_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(done.stderr)
    report = {"provenance": None, "trials": [], "metrics": [], "ops": None}
    for line in done.stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag == "provenance":
            report["provenance"] = json.loads(body)
        elif tag == "trial":
            report["trials"].append(json.loads(body))
        elif tag == "metric":
            report["metrics"].append(json.loads(body))
        elif tag == "ops":
            report["ops"] = json.loads(body)
    if report["provenance"] is None or report["ops"] is None:
        log(f"snd_perfbench exited {done.returncode} without a complete report")
        return None
    return done.returncode, report


def check_trials(trials, expected, workload, size):
    """Compares every trial record with the recorded counts; returns the
    number of mismatches."""
    recorded = expected.get(workload, {}).get(size, {})
    failed = 0
    for trial in trials:
        want = recorded.get(str(trial["pool"]))
        if want == trial["counts"]:
            continue
        failed += 1
        if want is None:
            log(f"no recorded counts for {workload}/{size} pool {trial['pool']}")
            continue
        for key in sorted(set(want) | set(trial["counts"])):
            got, exp = trial["counts"].get(key), want.get(key)
            if got != exp:
                log(f"MISMATCH {workload} round {trial['round']} ({trial['pass']}, pool "
                    f"{trial['pool']}): {key} = {got}, recorded {exp}")
    return failed


def benchmark(opts):
    wanted = SPEC["per_layer"] if opts.trace else SPEC["end_to_end"]
    expected = json.loads(EXPECTED.read_text())

    spans = ROOT / ".bench_build" / "spans" / f"{opts.workload}.spans"
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--size", opts.size, "--commit", source_revision()]
    if opts.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    result = run_binary(args)
    if result is None:
        return 1
    code, report = result

    mismatches = check_trials(report["trials"], expected, opts.workload, opts.size)
    attempted = report["ops"]["attempted"] + len(report["trials"])
    failed = report["ops"]["failed"] + mismatches
    emitted = {m["name"]: m for m in report["metrics"]}
    emitted["ops_failed_ratio"] = {"name": "ops_failed_ratio", "value": failed / attempted,
                                   "unit": "ratio", "samples": attempted}

    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for m in report["metrics"] + [emitted["ops_failed_ratio"]]:
        value = m["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {m['name']:<34} {shown:>16} {m['unit']:<6} ({m['samples']} samples)")

    metrics = {}
    missing_end_to_end = []
    for entry in wanted:
        m = emitted.get(entry["name"])
        if m is None:
            if not opts.trace:
                missing_end_to_end.append(entry["name"])
                continue
            # A layer this workload does not run (the service on a discovery
            # workload, the simulator on serve_mixed) reads 0.
            print(f"  {entry['name']:<34} {'n/a':>16} {entry['unit']}")
            m = {"value": 0, "unit": entry["unit"]}
        metrics[entry["name"]] = {"value": m["value"], "unit": entry["unit"]}
    if missing_end_to_end:
        log("end-to-end metrics not emitted: " + ", ".join(missing_end_to_end))
        failed += 1

    correct = failed == 0 and code == 0
    if spans.is_file() and opts.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def record(opts):
    """Runs every pool input once and stores its exact counts."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    workloads = [opts.workload] if opts.workload else list(WORKLOADS)
    for workload in workloads:
        base = ["--workload", workload, "--size", opts.size, "--trace", "0",
                "--commit", source_revision()]
        first = run_binary(base + ["--seed", "0", "--rounds", "1"])
        if first is None or first[0] != 0:
            return 1
        pool_size = first[1]["provenance"]["pool_size"]
        rest = run_binary(base + ["--seed", "1", "--rounds", str(pool_size - 1)])
        if rest is None or rest[0] != 0:
            return 1
        counts = {str(t["pool"]): t["counts"] for t in first[1]["trials"] + rest[1]["trials"]}
        expected.setdefault(workload, {})[opts.size] = counts
        log(f"recorded {len(counts)} {opts.size} inputs of {workload}")
    write_expected(expected)
    return 0


def write_expected(expected):
    """Writes expected.json with one line per recorded input, so that a
    re-recording shows as a readable diff."""
    blocks = []
    for workload, sizes in sorted(expected.items()):
        size_blocks = []
        for size, pools in sorted(sizes.items()):
            entries = [f'   "{pool}": {json.dumps(pools[pool])}'
                       for pool in sorted(pools, key=int)]
            size_blocks.append(f'  "{size}": {{\n' + ",\n".join(entries) + "\n  }")
        blocks.append(f' "{workload}": {{\n' + ",\n".join(size_blocks) + "\n }")
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json instead of benchmarking")
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    if not opts.record and opts.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    return record(opts) if opts.record else benchmark(opts)


if __name__ == "__main__":
    sys.exit(main())
