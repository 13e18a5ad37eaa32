#!/usr/bin/env python3
"""Compare two saved outputs of perfbench/run.py.

    python3 perfbench/run.py --workload omp_thorough ... > base.txt
    python3 perfbench/run.py --workload omp_thorough ... > new.txt
    python3 perfbench/compare.py base.txt new.txt

Prints each metric of both results with the relative change, marks an
end-to-end metric that got worse by more than its bound in
BENCHMARK.json, and warns when the two results carry different host
fingerprints (CPU model, nproc, compiler, build type, tracing): their
absolute numbers are then not comparable.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    fp, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("fingerprint "):
                fp = json.loads(line[len("fingerprint "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if result is None:
        raise SystemExit(f"compare: no result line in {path}")
    return fp, result


def shown(v):
    """Counts exactly, everything else to six significant digits."""
    return f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6g}"


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    (fa, ra), (fb, rb) = load(argv[1]), load(argv[2])
    if fa != fb:
        keys = sorted(set(fa or {}) | set(fb or {}))
        diff = [f"{k}: {(fa or {}).get(k)!r} vs {(fb or {}).get(k)!r}"
                for k in keys if (fa or {}).get(k) != (fb or {}).get(k)]
        print("compare: WARNING: the results come from different hosts or "
              "builds; compare ratios, not absolute values (" +
              "; ".join(diff or ["fingerprint missing"]) + ")", file=sys.stderr)
    spec = {}
    bench = os.path.join(HERE, "..", "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    for r, path in ((ra, argv[1]), (rb, argv[2])):
        if not r["correct"]:
            print(f"compare: {path} reports correct=false", file=sys.stderr)
    print(f"{'metric':32} {'base':>14} {'new':>14} {'change':>9}")
    for name, a in ra["metrics"].items():
        b = rb["metrics"].get(name)
        if b is None:
            continue
        va, vb = a["value"], b["value"]
        change = (vb - va) / va if va else 0.0
        flag = ""
        if name in spec:
            worse = change if spec[name]["better"] == "lower" else -change
            if worse > spec[name]["bound"]:
                flag = "  worse than bound"
        print(f"{name:32} {shown(va)} {shown(vb)} {change:>+8.1%} {a['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
