#!/usr/bin/env python3
"""Fold perf-gate runs into a committed reference.

    scripts/perf_reference.py RUN.json [RUN.json ...] > BENCH_<bench>.json

Each RUN.json is one `--hcsim_json` output of the same bench on a Release
build. Take at least 7 runs across at least two host phases (two batches
half an hour apart, say). The reference keeps the first run's provenance plus
the run count, and for each scenario the minimum ratio over the runs,
rounded down to three significant figures. See docs/ENGINE.md.
"""
import json
import math
import sys


def floor3(x):
    """x rounded down to three significant figures."""
    if x <= 0:
        return 0
    e = math.floor(math.log10(x)) - 2
    v = math.floor(x / 10**e) * 10**e
    return int(v) if e >= 0 else round(v, -e)


def main(paths):
    runs = [json.load(open(p)) for p in paths]
    if len(runs) < 7:
        sys.exit(f"perf_reference.py: need at least 7 runs, got {len(runs)}")
    if {r["provenance"]["build_type"] for r in runs} != {"Release"}:
        sys.exit("perf_reference.py: every run must come from a Release build")
    names = set(runs[0]["scenarios"])
    if any(set(r["scenarios"]) != names for r in runs):
        sys.exit("perf_reference.py: the runs name different scenarios")
    ref = {
        "schema": runs[0]["schema"],
        "provenance": dict(runs[0]["provenance"], runs=len(runs)),
        "scenarios": {
            n: {"ratio": floor3(min(r["scenarios"][n]["ratio"] for r in runs))}
            for n in sorted(names)
        },
    }
    print(json.dumps(ref, indent=2, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
