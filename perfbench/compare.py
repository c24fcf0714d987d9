#!/usr/bin/env python3
"""Compare two sets of run records, workload by workload and metric by metric.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of run records written by ``run.py`` (copies of
``perfbench/out/`` taken at two commits) or single record files.  For every
workload, trace setting and metric the script prints the median over the
records of each side, the ratio NEW/BASE with its base value, and, for the
end-to-end metrics of ``BENCHMARK.json``, whether NEW is worse than BASE by
more than the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> dict:
    """{(workload, trace): {metric: [values]}} plus units, from records."""
    path = Path(arg)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    values: dict = defaultdict(lambda: defaultdict(list))
    units = {}
    for f in files:
        rec = json.loads(f.read_text())
        for name, m in rec["metrics"].items():
            values[(rec["workload"], rec["trace"])][name].append(m["value"])
            units[name] = m["unit"]
    return values, units


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, units), (new, _) = load(argv[0]), load(argv[1])
    bench = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else {}
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench.get("end_to_end", [])}
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name in sorted(set(base[key]) & set(new[key])):
            b = statistics.median(base[key][name])
            n = statistics.median(new[key][name])
            ratio = n / b if b else float("nan")
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                change = (n - b) / b if better == "lower" else (b - n) / b
                verdict = "WORSE" if change > bound else "ok"
                worse += verdict == "WORSE"
            print(f"  {name:30s} base {b:14.6g} new {n:14.6g} {units[name]:8s}"
                  f" new/base {ratio:8.4f} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
