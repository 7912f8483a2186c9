#!/usr/bin/env python3
"""Smoke test of hcsim's benchmark.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at a tiny size (--size smoke) with
its output checks on, in both modes, and asserts that each result line
names every end-to-end (--trace 0) or per-layer (--trace 1) metric with
its unit. Also checks BENCHMARK.json's own shape, and that the benchmark
fails without printing a result when the simulator sources are absent.
Exits 0 when everything holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL " + what)


def check_spec(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "names are unique")
    for n in names:
        check(NAME.match(n) is not None, "name %r is well formed" % n)
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "unit of %s is well formed" % m["name"])
    for m in bench["end_to_end"]:
        check(0 < m["bound"] <= 0.25, "bound of %s is in (0, 0.25]" % m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is an end-to-end metric in s, lower is better")
    check(setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has the largest bound")


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(bench, workload, trace):
    out = run(ROOT, workload, trace)
    tag = "%s --trace %d" % (workload, trace)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and lines, tag + " exits 0 with output")
    if out.returncode != 0 or not lines:
        print(out.stderr[-2000:])
        return
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], tag + " result keys")
    check(result["correct"] is True, tag + " is correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, tag + " attempted")
    check(result["failed"] == 0, tag + " failed nothing")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in want), tag + " emits exactly its metrics")
    for m in want:
        v = got.get(m["name"], {})
        check(v.get("unit") == m["unit"], "%s %s has unit %s" % (tag, m["name"], m["unit"]))
        check(isinstance(v.get("value"), (int, float)), "%s %s is a number" % (tag, m["name"]))
        if not trace:
            check(v.get("value", 0) > 0, "%s %s is above zero" % (tag, m["name"]))


def check_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "sweep_small", 0)
        check(out.returncode != 0, "fails without the simulator sources")
        check('"metrics"' not in out.stdout, "prints no result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_spec(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace)
    check_fails_without_sources()
    print("smoke: %s" % ("FAIL (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
