#!/usr/bin/env python3
"""Compares two sets of perfbench runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a directory of run records (run.py writes one per run
to .bench_build/perfbench/runs/) or a glob of record files. Run records are
paired in the order they were made. For every metric the tool prints each
side's median and quartiles and a verdict:

  improved     the new side wins at least 9 of every 10 pairs (ties count
               for neither side) and the medians differ by more than the
               base side's inter-quartile distance;
  no worse     the new median is not worse than the base median by more
               than the metric's bound in BENCHMARK.json;
  unresolved   the base runs spread wider than the bound, and not every new
               run beats every base run;
  worse        none of the above.

Per-layer metrics carry no bound: they get "improved" or "no claim".
Exit code 0 unless some end-to-end metric is worse.
"""
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402


def load_runs(spec):
    files = (sorted(glob.glob(os.path.join(spec, "*.json")))
             if os.path.isdir(spec) else sorted(glob.glob(spec)))
    runs = []
    for path in files:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def verdict(base, new, better, bound):
    """Verdict for one metric given the two sides' values in run order."""
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if is_better(n, b, better))
    q1, med_b, q3 = measure.quartiles(base)
    _, med_n, _ = measure.quartiles(new)
    if pairs and wins * 10 >= 9 * len(pairs) and abs(med_n - med_b) > q3 - q1:
        return "improved"
    if bound is None:
        return "no claim"
    all_better = all(is_better(n, b, better) for n in new for b in base)
    if measure.spread(base) > bound and not all_better:
        return "unresolved"
    if med_b == 0:
        return "no worse" if not is_better(med_b, med_n, better) else "worse"
    worse_by = ((med_b - med_n) if better == "higher" else (med_n - med_b))
    return "no worse" if worse_by / abs(med_b) <= bound else "worse"


def compare(base_runs, new_runs, bench):
    """Rows of (workload, metric, base quartiles, new quartiles, verdict)."""
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []
    workloads = sorted({r["workload"] for r in base_runs + new_runs})
    for wl in workloads:
        for trace in (0, 1):
            b = [r for r in base_runs if r["workload"] == wl and
                 r["trace"] == trace]
            n = [r for r in new_runs if r["workload"] == wl and
                 r["trace"] == trace]
            if not b or not n:
                continue
            for name in b[0]["metrics"]:
                if name not in specs or name not in n[0]["metrics"]:
                    continue
                bv = [r["metrics"][name]["value"] for r in b]
                nv = [r["metrics"][name]["value"] for r in n]
                spec = specs[name]
                rows.append((wl, name, measure.quartiles(bv),
                             measure.quartiles(nv),
                             verdict(bv, nv, spec["better"],
                                     spec.get("bound")),
                             len(bv), len(nv)))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), bench)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print("%-12s %-36s %-32s %-32s %s" % (
        "workload", "metric", "base median [q1, q3] (n)",
        "new median [q1, q3] (n)", "verdict"))
    worse = False
    for wl, name, bq, nq, v, nb, nn in rows:
        print("%-12s %-36s %-32s %-32s %s" % (
            wl, name, "%.5g [%.5g, %.5g] (%d)" % (bq[1], bq[0], bq[2], nb),
            "%.5g [%.5g, %.5g] (%d)" % (nq[1], nq[0], nq[2], nn), v))
        worse = worse or v == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
