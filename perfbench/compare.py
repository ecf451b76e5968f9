"""Compare benchmark results of a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --save FILE`` appends, one per
workload run.  The k-th untraced run of a workload in one file is paired
with the k-th in the other, so run the same seeds in the same order on
both sides, alternating which side runs first.
For every workload and end-to-end metric of BENCHMARK.json this prints
each side's median and quartiles, the share of pairs the change won
(ties count for neither side), and a verdict:

- improved: the change won at least 9 in 10 pairs and the medians
  differ, in the better direction, by more than the parent's
  interquartile distance;
- unresolved: the parent's own spread (interquartile distance over
  median) is wider than the metric's bound, and not every run of the
  change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- no worse: otherwise.

Exits 1 when any verdict is "worse" or a side has incorrect runs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: [record, ...]} of the untraced runs, in file order."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(verdict, share of pairs won); parent and change are paired lists."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (pmed - cmed)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if share >= 0.9 and gain > p3 - p1:
        return "improved", share
    if (p3 - p1) / abs(pmed) > bound and not all_better:
        return "unresolved", share
    if -gain / abs(pmed) > bound:
        return "worse", share
    return "no worse", share


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parent, change = load(argv[0]), load(argv[1])
    status = 0
    print("%-12s %-18s %-5s %-32s %-32s %6s  %s" % (
        "workload", "metric", "pairs", "parent q1/median/q3",
        "change q1/median/q3", "won", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        pairs = min(len(parent[workload]), len(change[workload]))
        sides = [parent[workload][:pairs], change[workload][:pairs]]
        for side, records in zip(("parent", "change"), sides):
            bad = sum(not r["result"]["correct"] for r in records)
            if bad:
                print("%-12s %s: %d of %d runs incorrect"
                      % (workload, side, bad, len(records)))
                status = 1
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [[r["result"]["metrics"][name]["value"] for r in recs]
                      for recs in sides]
            result, share = verdict(values[0], values[1], metric["better"],
                                    metric["bound"])
            if result == "worse":
                status = 1
            cells = ["%.4g / %.4g / %.4g %s" % (*quartiles(v), metric["unit"])
                     for v in values]
            print("%-12s %-18s %-5d %-32s %-32s %5.0f%%  %s" % (
                workload, name, pairs, cells[0], cells[1],
                100 * share, result))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
