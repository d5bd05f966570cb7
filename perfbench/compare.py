#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit and a change.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes to .perfbench_out/results/
(copy them away between commits).  Records are grouped by workload, trace
mode and run length.  A group is compared only when every record in both
sets has the same environment record apart from the commit (backend,
Python, NumPy, SciPy and BLAS versions, BLAS threads, nproc, machine);
otherwise it is reported as not compared.  For each metric the table gives both medians,
the quartile spread of each set as a share of its median, the change, and
for end-to-end metrics whether the change stays within the bound fixed in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"], record["seconds"])].append(record)
    return groups


def environment(record: dict) -> str:
    return json.dumps({k: v for k, v in record["env"].items() if k != "commit"}, sort_keys=True)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    for key in sorted(set(base) & set(new)):
        workload, trace, seconds = key
        envs = {environment(r) for r in base[key] + new[key]}
        print(f"\n{workload} (trace {trace}, {seconds:g} s): "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        if len(envs) > 1:
            print("  not compared: the environment records differ")
            for env in sorted(envs):
                print(f"    {env}")
            continue
        print(f"  {'metric':40s} {'base':>12s} {'new':>12s} {'spread':>13s} {'change':>8s}")
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in base[key]]
            n = [r["metrics"][name]["value"] for r in new[key]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                verdict = "WORSE beyond bound" if worse > bound else "within bound"
            print(f"  {name:40s} {mb:12.4f} {mn:12.4f} {spread(b):6.3f}/{spread(n):6.3f} "
                  f"{change:+8.3f} {verdict}")
    for key in sorted(set(base) ^ set(new)):
        print(f"\n{key[0]} (trace {key[1]}, {key[2]:g} s): only in one set, not compared")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
