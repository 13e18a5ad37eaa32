#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [WORKLOAD ...]

Runs each workload (default: all three) at minimal length, untraced and
traced, prints what each run prints, and checks that:
  * the run is correct and fails nothing;
  * every metric BENCHMARK.json names prints, with its unit, in the
    matching mode, and nothing else does;
  * every count-unit metric is an integer in the JSON line and prints
    as one;
  * campaign.measure_s <= campaign.span_s: the measure passes that start
    inside a traced sweep, each counted to its own end, fit in the
    sweep's wall time (the untraced wall_s is printed beside it);
then damages one CSV of a quick_parallel run and expects fail_ratio > 0
and correct=false. Takes a few minutes, most of it cuda_thorough.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cuda_thorough", "omp_thorough", "quick_parallel")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def fail(msg):
    print("smoke_test: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def check(workload, trace, spec):
    lines, r = run(workload, trace)
    if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
        fail(f"{workload} trace {trace}: {r['correct']=} {r['failed']=} {r['attempted']=}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = r["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace {trace}: metric set differs: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        name, unit = m["name"], m["unit"]
        if got[name]["unit"] != unit:
            fail(f"{name}: unit {got[name]['unit']} != {unit}")
        printed = [line[len(f"metric {name} = "):-len(" " + unit)] for line in lines
                   if line.startswith(f"metric {name} = ") and line.endswith(" " + unit)]
        if len(printed) != 1:
            fail(f"{name} is not printed once with its unit")
        if unit == "count":
            if not isinstance(got[name]["value"], int):
                fail(f"{name} = {got[name]['value']!r} is not an integer")
            try:
                shown = int(printed[0])
            except ValueError:
                fail(f"{name} prints as {printed[0]!r}, not as an integer")
            if shown != got[name]["value"]:
                fail(f"{name} prints as {shown}, the JSON line has {got[name]['value']}")
    for line in lines[:-1]:
        print(f"  {workload}: {line}")
    print(f"smoke_test: {workload} trace {trace}: {len(got)} metrics ok", flush=True)
    return got


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in sys.argv[1:] or WORKLOADS:
        e2e = check(workload, 0, spec)
        layers = check(workload, 1, spec)
        measure = layers["campaign.measure_s"]["value"]
        span = layers["campaign.span_s"]["value"]
        if not 0 < measure <= span:
            fail(f"{workload}: campaign.measure_s {measure} not in (0, span_s {span}]")
        print(f"smoke_test: {workload}: campaign.measure_s {measure:.4g} s <= "
              f"span_s {span:.4g} s (untraced wall_s {e2e['wall_s']['value']:.4g} s)")

    lines, r = run("quick_parallel", 0, "--corrupt-csv")
    fail_line = next(line for line in lines if line.startswith("fail_ratio "))
    if r["correct"] or r["failed"] < 1 or not float(fail_line.split()[1]) > 0:
        fail(f"a corrupted CSV went unnoticed: {fail_line}")
    print(f"smoke_test: corrupted CSV caught: {fail_line}")
    print("smoke_test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
