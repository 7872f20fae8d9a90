"""Reduce the run table to a median and a spread per metric.

Usage, from the root of a checkout::

    python3 perfbench/summarize.py [perfbench/out/runs.jsonl]

For each workload and metric it prints the number of runs, the median,
the quartiles and the spread, which is the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  For an end-to-end metric it also prints the metric's
bound from ``BENCHMARK.json`` and flags a spread wider than a third of
it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else os.path.join(HERE, "out", "runs.jsonl")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            cell = (row["workload"], row["trace"])
            for name, m in row["metrics"].items():
                values[cell + (name,)].append(m["value"])
    wide = 0
    for (workload, trace, name), vals in sorted(values.items()):
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        line = (f"{workload:14s} t={trace} {name:28s} n={len(vals):2d} "
                f"median={med:12.4f} q1={q1:12.4f} q3={q3:12.4f} "
                f"spread={spread:6.3f}")
        bound = bounds.get(name) if trace == 0 else None
        if bound is not None:
            flag = "" if spread < bound / 3 else "  WIDE"
            wide += bool(flag)
            line += f" bound={bound}{flag}"
        print(line)
    print(f"{wide} end-to-end spreads at or above a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
