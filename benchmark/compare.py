#!/usr/bin/env python3
"""Compare parent and change runs of bloom87_bench, metric by metric.

    python3 benchmark/compare.py --parent P1.json P2.json ... \
                                 --change C1.json C2.json ...

Each file is one run's report (`bloom87_bench --json PATH`). Give the runs
in the order they were made, alternating which side went first, so that
P_i and C_i form pair i. For every (end-to-end metric, workload) the script
prints each side's median and quartiles, the pairs the change won, and a
label, following the rule the bounds in BENCHMARK.json were set for:

  improved    the change won at least 9 of every 10 pairs (at least 10
              pairs), and the medians differ by more than the parent's own
              quartile distance;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread is wider than the bound, and not
              every change run is better than every parent run;
  unchanged   otherwise.

It also reports failed operations on each side: a change that fails more
operations than the parent counts as a regression. Exit code: 0 when
nothing regressed, 1 when something did, 2 on bad input.
"""
import argparse
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        report = json.load(f)
    if "results" not in report:
        print(f"{path}: not a bloom87_bench --json report", file=sys.stderr)
        sys.exit(2)
    return report["results"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(parent, change, bound, lower_is_better):
    """Label one (metric, workload) from per-run parent and change values."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)

    def better(c, p):
        return c < p if lower_is_better else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    spread = (p3 - p1) / pm if pm else float("inf")
    all_better = all(better(c, p) for c in change for p in parent)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return label, wins, len(pairs), worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent = [load(p) for p in args.parent]
    change = [load(c) for c in args.change]

    regressed = False
    header = (f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':<36} "
              f"{'change median [q1, q3]':<36} {'wins':>7} {'worse':>8} label")
    print(header)
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r[w]["metrics"][name]["median"] for r in parent
                  if w in r and name in r[w]["metrics"]]
            cv = [r[w]["metrics"][name]["median"] for r in change
                  if w in r and name in r[w]["metrics"]]
            if not pv or not cv:
                continue
            label, wins, pairs, worse_by = judge(
                pv, cv, m["bound"], m["better"] == "lower")
            regressed = regressed or label == "regressed"
            pq, cq = quartiles(pv), quartiles(cv)
            ps = f"{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
            cs = f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
            print(f"{w:<12} {name:<12} {ps:<36} {cs:<36} "
                  f"{wins:>3}/{pairs:<3} {worse_by:>+8.2%} {label}")
        pf = [r[w]["failed"] for r in parent if w in r]
        cf = [r[w]["failed"] for r in change if w in r]
        if pf and cf:
            rose = statistics.median(cf) > statistics.median(pf)
            regressed = regressed or rose
            print(f"{w:<12} failed ops: parent median {statistics.median(pf)}, "
                  f"change median {statistics.median(cf)}"
                  + ("  REGRESSED" if rose else ""))
    if len(parent) < 10 or len(change) < 10:
        print("note: fewer than 10 pairs; no gain can be claimed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
