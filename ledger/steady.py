#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

    python3 ledger/steady.py --workload serve-mixed --seeds 1-10 [--seconds S]

Runs run.py once per seed (untraced) and prints, for every end-to-end
metric, the median of the runs and the spread between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, against
the metric's bound in BENCHMARK.json. A spread above a third of the bound
is flagged; setup_s is held to the same target although only its median
is compared between commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    walls = []
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "ledger", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        walls.append(time.monotonic() - start)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} wall={walls[-1]:.1f}s",
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{'metric':24} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(runs, n=4)
        spread = (q3 - q1) / q2
        flag = "" if spread < metric["bound"] / 3 else "  <-- unsteady"
        print(f"{metric['name']:24} {q2:12.6g} {spread:8.3f} {metric['bound'] / 3:8.3f}{flag}")
    print(f"run wall: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")


if __name__ == "__main__":
    main()
