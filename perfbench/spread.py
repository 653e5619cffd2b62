#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1,2,3] \
        [--seconds S] [--trace 0|1] [--out FILE]

Runs every workload (default: all of BENCHMARK.json) on every seed, the
workloads interleaved within each seed so that a drift in host speed
touches all of them alike. For every workload and metric prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)),
and the spread: (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. --out appends every raw result line, tagged with workload
and seed, to FILE as JSON lines (the form perfbench/baseline/ keeps).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    values = {w: {} for w in workloads}
    for seed in args.seeds.split(","):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(root, "perfbench", "run.py"),
                 "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", args.trace],
                cwd=root, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: benchmark exited with "
                         f"{proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload,
                                        "seed": int(seed),
                                        "trace": int(args.trace),
                                        "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)

    for workload in workloads:
        print(f"\n{workload}")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, v in values[workload].items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (med,) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
