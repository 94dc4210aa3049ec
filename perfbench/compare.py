#!/usr/bin/env python3
"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them (the benchmark
writes one per run under .perfbench/results/). For every workload and
end-to-end metric in BENCHMARK.json it prints both medians, their change
and each side's spread (quartile distance over median), and marks a
metric that got worse by more than its bound.

Exit codes: 0 no regression, 1 a regression, 2 results that must not be
compared: their machine fingerprints differ (the commit may differ; that
is what is being compared), or a side has no untraced results.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE = ("nproc", "kernel", "cpu", "store_fs", "rustc")


def load(path):
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
        if os.path.isdir(path)
        else [path]
    )
    runs = []
    for f in files:
        with open(f) as fh:
            run = json.load(fh)
        if run.get("trace") == 0:
            runs.append(run)
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("no untraced results on one side", file=sys.stderr)
        return 2
    prints = {tuple(r["fingerprint"][k] for k in MACHINE) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: machine fingerprints differ:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(MACHINE, p)), file=sys.stderr)
        return 2
    regressed = False
    for w in spec["workloads"]:
        name = w["name"]
        b = [r for r in base if r["workload"] == name]
        n = [r for r in new if r["workload"] == name]
        if not b or not n:
            continue
        print(f"{name}: {len(b)} base runs, {len(n)} new runs")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = nm / bm - 1
            worse = -change if m["better"] == "higher" else change
            flag = "  REGRESSION" if worse > m["bound"] else ""
            regressed |= bool(flag)
            print(
                f"  {m['name']:<14} {bm:>14.4f} -> {nm:>14.4f} {m['unit']:<6} "
                f"{change:+7.1%} (bound {m['bound']:.0%}, spread {spread(bv):.1%} / "
                f"{spread(nv):.1%}){flag}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
