#!/usr/bin/env python3
"""Build and run the Chimera benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (CMake, the library sources under src/)
into $CARGO_TARGET_DIR (default .bench_build) on first use, runs the
benchmark binary, and passes its output through. The last line of stdout
is the result object; it is printed only when the binary succeeded and
its metric names match BENCHMARK.json. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    body, last = lines[:-1], (lines[-1] if lines else "")
    for line in body:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(last, file=sys.stderr)
        fail(f"benchmark exited with {proc.returncode}")

    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("last line is not a JSON result")
    want = expected_metrics(root, args.trace == "1")
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(want - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - want)}")
    print(last)


if __name__ == "__main__":
    main()
