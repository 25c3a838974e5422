#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the driver (perfbench/driver.cpp)
and the library sources under src/ in Release into .bench_build/perfbench
(incremental after the first run), then runs one measurement and passes
its output through.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; its metric names
are checked against BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1).  Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the driver; returns its path or None."""
    log = sys.stderr
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [configure,
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    if (BUILD / "CMakeCache.txt").exists():
        steps = steps[1:]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=log, stderr=log,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=log)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}", file=log)
            return None
    binary = BUILD / "perfbench"
    return binary if binary.exists() else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: driver exited {done.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected_metrics(args.trace):
        print("perfbench: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
