#!/usr/bin/env python3
"""Builds and runs the simulator's wall-clock benchmark.

    python3 perfbench/run.py --workload leafspine_feed|session_storm|sharded_ring
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/ (or $CARGO_TARGET_DIR
when set); later runs rebuild incrementally. The benchmark binary's own
report is echoed, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Untraced runs carry every end-to-end metric of BENCHMARK.json, traced runs
every per-layer metric; a per-layer metric whose layer is not part of the
workload's rig reads 0. The exit code is nonzero when the build fails, the
binary fails, or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    build(out_dir)
    command = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")

    lines = done.stdout.splitlines()
    result_lines = [line for line in lines if line.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if done.returncode != 0 or len(result_lines) != 1:
        fail(f"benchmark exited with {done.returncode}")
    raw = json.loads(result_lines[0][len("RESULT "):])

    measured = raw["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, row in measured.items():
        if units.get(name) != row["unit"]:
            fail(f"metric {name} ({row['unit']}) is not in BENCHMARK.json for this mode")
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {m['name']} was not measured")
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
