#!/usr/bin/env python3
"""Writes or checks the simulated-output ledger of the nvmenc benchmark.

Usage, from the root of a checkout:

    python3 perfbench/ledger.py --check    # compare with perfbench/ledger/
    python3 perfbench/ledger.py --write    # regenerate perfbench/ledger/

Runs every workload traced at seed 1 and keeps its simulated values: the
per-layer metrics named `<layer>.sim_*` or `model.*`, `model.digest` among
them. They do not depend on the host, so a change that touches only host
cost leaves every one of them unchanged. --check exits 1 and names each
value that differs from the ledger.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "ledger")
SEED = 1


def simulated(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"ledger: {workload} failed with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"ledger: {workload} failed its correctness checks")
    return {name: entry["value"]
            for name, entry in sorted(result["metrics"].items())
            if ".sim_" in name or name.startswith("model.")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    moved = []
    for workload in workloads:
        path = os.path.join(LEDGER, f"{workload}.json")
        values = simulated(workload)
        if args.write:
            os.makedirs(LEDGER, exist_ok=True)
            with open(path, "w") as f:
                json.dump({"workload": workload, "seed": SEED,
                           "values": values}, f, indent=1)
                f.write("\n")
            continue
        with open(path) as f:
            recorded = json.load(f)["values"]
        for name in sorted(set(recorded) | set(values)):
            if recorded.get(name) != values.get(name):
                moved.append(f"{workload} {name}: ledger {recorded.get(name)}"
                             f", now {values.get(name)}")
    for line in moved:
        print(line)
    if args.check:
        print(f"ledger: {len(moved)} simulated value(s) differ")
    sys.exit(1 if moved else 0)


if __name__ == "__main__":
    main()
