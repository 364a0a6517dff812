#!/usr/bin/env python3
"""Compares run.py result files of two commits (see bench/e2e/README.md).

    python3 bench/e2e/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

A is the parent commit, B the change. List each side's runs in the order
they were made, alternating which side ran first (A1 B1 B2 A2 A3 B3 ...):
run i of A and run i of B form pair i. For every workload and every
BENCHMARK.json metric both sides report, prints each side's median and
quartiles and the share of pairs B wins. End-to-end metrics also get a
verdict:

  improved      B wins at least 9 of 10 pairs (10 pairs or more) and the
                medians differ by more than A's own quartile distance;
  unresolved    either side's quartile distance, as a share of its median,
                is wider than the bound, and not every B run beats every A
                run;
  regressed     B's median is worse than A's by more than the bound, or
                more requests failed;
  within bound  otherwise.

Exits 1 when any verdict is "regressed".
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(paths):
    """{workload: {"metrics": {name: [values]}, "failed": total}}."""
    runs = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for workload, run in result["workloads"].items():
            entry = runs.setdefault(workload, {"metrics": {}, "failed": 0})
            entry["failed"] += run["failed"]
            for name, metric in run["metrics"].items():
                entry["metrics"].setdefault(name, []).append(metric["value"])
    return runs


def verdict(a, b, sign, wins, bound):
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = min(len(a), len(b))
    if (pairs >= 10 and wins >= 0.9 * pairs
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return "improved"
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    every_b_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved"
    worse = -sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    return "regressed" if worse > bound else "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True,
                        help="result files of the parent commit")
    parser.add_argument("--b", nargs="+", required=True,
                        help="result files of the change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    specs = [(spec, True) for spec in benchmark["end_to_end"]]
    specs += [(spec, False) for spec in benchmark["per_layer"]]

    side_a, side_b = collect(args.a), collect(args.b)
    print("A: %d runs, B: %d runs, %d pairs" %
          (len(args.a), len(args.b), min(len(args.a), len(args.b))))
    row = "%-9s %-40s %-34s %-34s %6s  %s"
    print(row % ("workload", "metric", "A median [q1, q3]",
                 "B median [q1, q3]", "B wins", "verdict"))
    regressed = False
    for workload in [w for w in side_a if w in side_b]:
        a_run, b_run = side_a[workload], side_b[workload]
        for spec, end_to_end in specs:
            a = a_run["metrics"].get(spec["name"])
            b = b_run["metrics"].get(spec["name"])
            if not a or not b:
                continue
            sign = 1.0 if spec["better"] == "higher" else -1.0
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            result = (verdict(a, b, sign, wins, spec["bound"])
                      if end_to_end else "-")
            regressed = regressed or result == "regressed"
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append("%.4g [%.4g, %.4g]" % (med, q1, q3))
            print(row % (workload, spec["name"], cells[0], cells[1],
                         "%d/%d" % (wins, len(pairs)), result))
        failures = ("regressed" if b_run["failed"] > a_run["failed"]
                    else "within bound")
        regressed = regressed or failures == "regressed"
        print(row % (workload, "failed (total requests)", a_run["failed"],
                     b_run["failed"], "", failures))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
