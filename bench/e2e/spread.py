#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baselines.

    python3 bench/e2e/spread.py [--runs 10] [--first-seed 100]
                                [--workload NAME ...] [--record LABEL]

Runs run.py once per (seed, workload), seed-major so that slow periods of
the host fall on every workload alike, each run with its own seed. Prints,
per workload and end-to-end metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
--record LABEL appends the set (median, q1, q3, n per metric and workload,
with nproc and the slowest run's wall time) to baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["replay", "replay_sharded", "archive_soak", "live_feed"]


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", nargs="*", default=WORKLOADS,
                        choices=WORKLOADS)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {w: {} for w in args.workload}
    slowest = {w: 0.0 for w in args.workload}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in args.workload:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            slowest[w] = max(slowest[w], wall)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: run failed (exit "
                         f"{proc.returncode})")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: {wall:.1f} s",
                  file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for w in args.workload:
        print(f"\n{w} (slowest run {slowest[w]:.1f} s)")
        summary[w] = {}
        for name, vs in values[w].items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print(f"  {name:16s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:6.3f}  bound "
                  f"{bounds[name]:.2f}{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "n": len(vs), "spread": spread}

    if args.record:
        path = HERE / "baseline.json"
        data = json.loads(path.read_text()) if path.exists() else {"sets": []}
        data["sets"].append({
            "label": args.record,
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "slowest_run_s": {w: round(s, 1) for w, s in slowest.items()},
            "workloads": summary,
        })
        path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
