#!/usr/bin/env python3
"""End-to-end MARLIN benchmark: the single command.

    python3 bench/e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace [0|1]]

Builds `marlin_bench` (Release) into build-bench/ at the repository root,
runs each workload in its own process, prints every metric by name with its
unit, and checks the outputs: every pass must reproduce the sequential
reference's event digest, and for the recorded seed (expected.json) the
digest and query row counts must match the recorded ones. The last stdout
line is one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"name": {"value": V, "unit": "U"}, ...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Exits non-zero on any mismatch. README.md describes
the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
WORKLOADS = ["replay", "replay_sharded", "archive_soak", "live_feed"]
RUN_TIMEOUT_S = 170


def fail(message):
    """Exits non-zero without printing a result line."""
    print(f"run.py: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no MARLIN sources (CMakeLists.txt, src/) under {ROOT}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "marlin_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "marlin_bench"


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns its parsed result line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} exited {proc.returncode} without a result")
    if proc.returncode not in (0, 1):
        fail(f"{workload} exited {proc.returncode}")
    return result


def check_expected(result, seed, expected):
    """Compares against the digests recorded for the reference seed."""
    problems = []
    if seed != expected["seed"] or not result["complete"]:
        return problems
    want = expected["workloads"][result["workload"]]
    if result["digest"] != want["digest"]:
        problems.append(f"event digest {result['digest']} != recorded "
                        f"{want['digest']}")
    if result["query_rows"] != want["query_rows"]:
        problems.append(f"query rows {result['query_rows']} != recorded "
                        f"{want['query_rows']}")
    return problems


def contract_metrics(result, wanted):
    """The metrics BENCHMARK.json names for this mode, value and unit only."""
    out = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"{result['workload']}: metric {spec['name']} "
                 f"({spec['unit']}) missing or in another unit")
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    args = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    expected = load_json(HERE / "expected.json")
    seconds = args.seconds or bench["run_seconds"]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    binary = build()

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(binary, name, args.seed, seconds, args.trace)
        problems = result["problems"] + check_expected(result, args.seed,
                                                       expected)
        for p in problems[len(result["problems"]):]:
            print(f"PROBLEM: {p}")
        print(f"{name}: {'outputs correct' if not problems else 'FAILED'} "
              f"(digest {result['digest']}, query rows "
              f"{result['query_rows']}, {result['attempted']} operations, "
              f"{result['failed']} failed)")
        results[name] = {
            "correct": not problems,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(result, wanted),
        }

    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(line), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
