#!/usr/bin/env python3
"""Quick self-test of the nvmenc benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload briefly (--quick, 1 second) untraced and traced, on two
seeds, and checks that:
  * each run exits 0 and ends with one JSON result with exactly the keys
    correct/attempted/failed/metrics, correct and with no failures;
  * every printed metric is declared in BENCHMARK.json with its unit and a
    direction, and every declared metric is printed (end-to-end metrics
    untraced, per-layer metrics traced);
  * metric names use only [A-Za-z0-9_.-];
  * another seed changes the generated inputs but not the metric names;
  * the traced run reports the same simulated-output digest as the
    untraced run of the same seed;
  * from a directory that holds only BENCHMARK.json and the benchmark's
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEEDS = (1, 2)


def run(root, workload, seed, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def digests(stderr):
    found = re.findall(r"inputs_digest=(\w+) model_digest=(\w+)", stderr)
    return found[-1] if found else (None, None)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []

    def expect(ok, what):
        if not ok:
            errors.append(what)
            print("FAIL:", what, file=sys.stderr)

    declared = {0: {m["name"]: m for m in spec["end_to_end"]},
                1: {m["name"]: m for m in spec["per_layer"]}}
    for level in declared.values():
        for name, m in level.items():
            expect(NAME.match(name) is not None, f"declared name {name!r}")
            expect(bool(m.get("unit")), f"{name} declares a unit")
            expect(m.get("better") in ("higher", "lower"),
                   f"{name} declares a direction")

    for workload in (w["name"] for w in spec["workloads"]):
        seen = {}
        for trace in (0, 1):
            for seed in SEEDS:
                label = f"{workload} trace={trace} seed={seed}"
                done = run(root, workload, seed, trace)
                expect(done.returncode == 0, f"{label} exits 0")
                if done.returncode != 0:
                    print(done.stderr[-2000:], file=sys.stderr)
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                expect(set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, f"{label} result keys")
                expect(result["correct"] is True and result["failed"] == 0
                       and result["attempted"] >= 1, f"{label} is correct")
                metrics = result["metrics"]
                for name, entry in metrics.items():
                    expect(NAME.match(name) is not None,
                           f"{label} metric name {name!r}")
                    want = declared[trace].get(name)
                    expect(want is not None, f"{label} {name} is declared")
                    if want is not None:
                        expect(entry["unit"] == want["unit"],
                               f"{label} {name} unit {entry['unit']!r}")
                    expect(isinstance(entry["value"], (int, float)),
                           f"{label} {name} is a number")
                expect(set(metrics) == set(declared[trace]),
                       f"{label} prints every declared metric")
                seen[(trace, seed)] = (set(metrics), digests(done.stderr))
        if len(seen) < 4:
            continue
        for trace in (0, 1):
            names_a, (inputs_a, _) = seen[(trace, SEEDS[0])]
            names_b, (inputs_b, _) = seen[(trace, SEEDS[1])]
            expect(inputs_a != inputs_b,
                   f"{workload} trace={trace}: another seed changes inputs")
            expect(names_a == names_b,
                   f"{workload} trace={trace}: same names on every seed")
        for seed in SEEDS:
            model_plain = seen[(0, seed)][1][1]
            model_traced = seen[(1, seed)][1][1]
            expect(model_plain is not None and model_plain == model_traced,
                   f"{workload} seed={seed}: traced and untraced runs "
                   "give the same model digest")

    # Without the program's sources the benchmark must fail cleanly.
    out_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(root, out_dir, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180, env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    expect(done.returncode != 0 and not done.stdout.strip(),
           "a checkout without sources exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(errors)} failure(s)")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
