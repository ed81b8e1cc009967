#!/usr/bin/env python3
"""Runs one SCFS benchmark workload and prints its result line.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 25 --trace 0

Builds the benchmark program (perfbench/CMakeLists.txt) from the checkout's
own sources into $CARGO_TARGET_DIR (default .bench_build), runs the workload,
and prints as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1. The full report (every
metric, the problems found, the seed) and, for traced runs, the spans are
kept under $CARGO_TARGET_DIR/perfbench-results/.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 25 --self-check

runs the workload untraced and traced on the same seed and fails if the traced
run's end-to-end medians differ by more than the metrics' bounds (the gap is
the tracing overhead).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-cmake")
RESULTS_DIR = os.path.join(BUILD_ROOT, "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "scfs_perfbench")
# The compiler's and the program's temporary files stay inside the checkout.
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
RUN_TIMEOUT_S = 170
# Op-class medians the traced run must reproduce (tracing self-check).
TRACE_CHECKED = ("read_p50_ms", "append_p50_ms", "create_p50_ms",
                 "delete_p50_ms", "p99_ms")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scfs", "deployment.h")):
        fail("no SCFS sources in %s/src; nothing to build" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 2)]]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=ENV).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)


def run_program(workload, seed, seconds, trace):
    """Runs scfs_perfbench once and returns its report (a dict)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d" % (workload, seed, trace))
    work_dir = os.path.join(BUILD_ROOT, "perfbench-work", "%s-%d" % (workload, os.getpid()))
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir, "--report", stem + ".report.json"]
    if trace:
        command += ["--spans", stem + ".spans.csv"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("scfs_perfbench exited with code %d" % proc.returncode)
    with open(stem + ".report.json") as f:
        return json.load(f)


def result_line(spec, report, trace):
    """The result object: the metric set of the run's kind."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("report lacks metric %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def tracing_gaps(spec, untraced, traced):
    """Relative gap of each checked median, traced vs untraced."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for name in TRACE_CHECKED:
        if (untraced["sources"].get(name.split("_")[0]) != "window" and
                name != "p99_ms"):
            continue  # a probe median is not the traced window's
        base = untraced["metrics"][name]["value"]
        value = traced["metrics"][name]["value"]
        gap = (value - base) / base if base else 0.0
        rows.append((name, base, value, gap, bounds[name]))
    return rows


def print_gaps(rows):
    for name, base, value, gap, bound in rows:
        print("tracing overhead %-14s untraced %10.3f traced %10.3f gap %+7.2f%% "
              "(bound %.0f%%)" % (name, base, value, 100 * gap, 100 * bound))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run untraced and traced; compare their medians")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload, 2)
    build()

    if args.self_check:
        untraced = run_program(args.workload, args.seed, args.seconds, 0)
        traced = run_program(args.workload, args.seed, args.seconds, 1)
        rows = tracing_gaps(spec, untraced, traced)
        print_gaps(rows)
        bad = [r[0] for r in rows if abs(r[3]) > r[4]]
        if bad:
            fail("traced run disagrees with the untraced run on " + ", ".join(bad))
        print("tracing self-check passed")
        return

    report = run_program(args.workload, args.seed, args.seconds, args.trace)
    for problem in report["problems"]:
        print("PROBLEM: " + problem, file=sys.stderr)
    if report["flags"]:
        fail("not a valid measurement: " + "; ".join(report["flags"]), 3)
    if args.trace:
        # Report the tracing overhead against an untraced run of the same
        # seed, when one is at hand.
        other = os.path.join(RESULTS_DIR, "%s-seed%d-trace0.report.json"
                             % (args.workload, args.seed))
        if os.path.isfile(other):
            with open(other) as f:
                print_gaps(tracing_gaps(spec, json.load(f), report))
    result = result_line(spec, report, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
