#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload scale_1m --seeds 1-10 [--seconds 30]

Runs perfbench/run.py once per seed and prints, for each end-to-end
metric in BENCHMARK.json, the median, the quartile spread as a share of
the median (statistics.quantiles(values, n=4)), and the metric's bound.
A spread should stay below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (%d):\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("inf")
        print("%-14s median %-12.6g spread %6.2f%%  bound %4.0f%%  %s" % (
            m["name"], med, 100 * share, 100 * m["bound"],
            "ok" if share < m["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
