#!/usr/bin/env python3
"""Builds the nvmenc benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick]

Workloads: paper_matrix, trace_replay, aging_loadgen (see BENCHMARK.json).
The library and the driver are compiled with CMake into the directory named
by CARGO_TARGET_DIR (default .bench_build); trace files and span dumps go to
its work/ subdirectory. The last line of standard output is the run's JSON
result; build output and diagnostics go to standard error. A run whose
correctness checks fail exits non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_matrix", "trace_replay", "aging_loadgen")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "sim", "experiment.hpp")):
        fail("no nvmenc sources under src/; run from the root of a checkout")
    binary = os.path.join(build_dir, "nvmenc_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.path.isfile(binary):
        fail("build produced no benchmark binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (the benchmark's self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    binary = build(root, os.path.join(out_dir, "perfbench"))
    workdir = os.path.join(out_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0:
        # A run with failed checks still prints its result; show it on
        # stderr, but give no result: wrong outputs are not a measurement.
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"benchmark exited with code {proc.returncode}")
    if not lines:
        fail("benchmark printed no result")
    if not json.loads(lines[-1]).get("correct"):
        print(lines[-1], file=sys.stderr)
        fail("the run's outputs are not correct")
    sys.stdout.write(lines[-1] + "\n")


if __name__ == "__main__":
    main()
