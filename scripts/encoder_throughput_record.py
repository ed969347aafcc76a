#!/usr/bin/env python3
"""Writes results/BENCH_encoder_throughput.json from two encoder_throughput runs.

Usage, from the root of a checkout:

    bench/encoder_throughput --benchmark_repetitions=5 \\
        --benchmark_report_aggregates_only=true \\
        --benchmark_out=after.json --benchmark_out_format=json
    # the same on a build of the baseline commit, into before.json
    python3 scripts/encoder_throughput_record.py --before before.json \\
        --after after.json --out results/BENCH_encoder_throughput.json

Each input is google-benchmark's JSON output. The record keeps, per scheme,
the median wall-clock ns per line of the encode and decode benchmarks
before and after, and their ratio. Provenance (schema version, git
describe, build type) comes from each run's "context" block, which
encoder_throughput stamps; a run without the stamp reads "unknown".
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        run = json.load(f)
    medians = {}
    for bench in run["benchmarks"]:
        if bench.get("aggregate_name", "median") != "median":
            continue
        medians["repetitions"] = bench.get("repetitions", 1)
        if bench.get("time_unit", "ns") != "ns":
            sys.exit(f"{path}: {bench['name']} is not in ns")
        kind, scheme = bench["run_name"].split("/", 1)
        medians.setdefault(kind, {})[scheme] = bench["real_time"]
    return run["context"], medians


def stamp(context):
    schema = context.get("schema_version")
    return {"schema_version": int(schema) if schema else "unknown",
            "git": context.get("git", "unknown"),
            "build_type": context.get("build_type", "unknown")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--out", default="results/BENCH_encoder_throughput.json")
    args = parser.parse_args()

    before_ctx, before = load(args.before)
    after_ctx, after = load(args.after)
    record = {
        "bench": "encoder_throughput",
        "provenance": stamp(after_ctx),
        "baseline_provenance": stamp(before_ctx),
        "host": {key: after_ctx.get(key) for key in
                 ("num_cpus", "mhz_per_cpu", "cpu_scaling_enabled",
                  "library_build_type")},
        "date": after_ctx.get("date"),
        "repetitions": after.get("repetitions"),
        "units": "ns per 64 B line, median wall-clock over the repetitions",
    }
    for kind in ("encode", "decode"):
        rows = {}
        for scheme, now in after.get(kind, {}).items():
            was = before.get(kind, {}).get(scheme)
            rows[scheme] = {"before": round(was, 1) if was else None,
                            "after": round(now, 1),
                            "speedup": round(was / now, 2) if was else None}
        record[kind] = rows
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
