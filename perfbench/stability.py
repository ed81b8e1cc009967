#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py --workloads read-hot write-shared \
        --seeds 1 2 3 4 5 [--seconds 15]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median of its values and the distance
between their first and third quartiles (statistics.quantiles(n=4)) as a
share of the median, next to the metric's bound from BENCHMARK.json. A spread
above the bound (setup_s excepted) means the metric cannot gate a change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
                sys.exit(1)
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median if median else 0.0
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("%-12s %-18s median %12.5g  spread %6.2f%%  bound %4.0f%%%s" % (
                workload, m["name"], median, 100 * spread, 100 * m["bound"],
                "  OVER" if spread > m["bound"] else ""))
    print("worst spread / bound (setup_s excepted): %.2f" % worst)


if __name__ == "__main__":
    main()
