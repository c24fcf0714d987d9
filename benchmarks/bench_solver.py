#!/usr/bin/env python3
"""Time the factor-pair solver of two versions of the package on one machine.

Usage (from the repository root):

    python3 benchmarks/bench_solver.py --before REV --out BENCH.json

The before side is the ``src/`` of git revision REV, extracted with
``git archive``; the after side is the working tree's ``src/``.  The equations are the 102 of ``perfbench/expected.json`` (the
F_{m,n} equations for m = 1..6 and the 96 random ones), which this script
only reads.  Each side runs in its own child process, the two alternating
which goes first, and times ``integer_solutions(eq)`` and
``solve_factor_pairs(reduce(eq))`` per equation with ``time.perf_counter``.
The row and solution counts are deterministic and must agree on both sides;
the script exits 1 when they do not.

``perfbench/run.py --trace 1`` reports the same layer only as totals over
however many tasks a timed run completes, both functions together, so its
counters differ between a slower and a faster side; this script times each
function on each equation a fixed number of times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected.json"
ROUNDS = 6  # child processes per side
REPEATS = 5  # calls per equation per child


def equations() -> list[tuple[str, list[int]]]:
    expected = json.loads(EXPECTED.read_text())
    named = [(f"F_m={m}", entry["coeffs"]) for m, entry in expected["fan_equations"].items()]
    for cell, entries in expected["random_equations"].items():
        named += [(f"{cell}#{i}", entry["coeffs"]) for i, entry in enumerate(entries)]
    return named


def child(src: str) -> None:
    """Print, per equation, the median call times (s) and the counts."""
    sys.path.insert(0, src)
    import edgegraceful as eg

    if not Path(eg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported edgegraceful from {eg.__file__}, not from {src}")
    out = []
    for name, coeffs in equations():
        eq = eg.QuadraticDiophantine(*coeffs)
        solve, rows = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            solutions = eg.integer_solutions(eq)
            t1 = time.perf_counter()
            table = eg.solve_factor_pairs(eg.reduce(eq))
            t2 = time.perf_counter()
            solve.append(t1 - t0)
            rows.append(t2 - t1)
        out.append({
            "equation": name, "coeffs": coeffs, "rows": len(table),
            "integral_rows": sum(r.integral for r in table), "solutions": len(solutions),
            "integer_solutions_s": statistics.median(solve),
            "solve_factor_pairs_s": statistics.median(rows),
        })
    json.dump(out, sys.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> str:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return str(into / "src")


def run_side(src: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before")
    parser.add_argument("--out")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return 0
    if not args.before or not args.out:
        parser.error("--before and --out are required")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"before": extract(args.before, Path(tmp, "before").resolve()),
                 "after": str(ROOT / "src")}
        runs = {"before": [], "after": []}
        for r in range(ROUNDS):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_side(sides[side]))

    counts = ("rows", "integral_rows", "solutions")
    rows, mismatches = [], []
    for i, (name, coeffs) in enumerate(equations()):
        row = {"equation": name, "coeffs": coeffs}
        for side in ("before", "after"):
            first = runs[side][0][i]
            row[side] = {key: first[key] for key in counts}
            for metric in ("integer_solutions_s", "solve_factor_pairs_s"):
                row[side][metric] = statistics.median(run[i][metric] for run in runs[side])
        if any(row["before"][k] != row["after"][k] for k in counts):
            mismatches.append(name)
        rows.append(row)

    def total(side: str, metric: str) -> float:
        return sum(row[side][metric] for row in rows)

    totals = {
        side: {metric: round(total(side, metric), 6)
               for metric in ("integer_solutions_s", "solve_factor_pairs_s")}
        for side in ("before", "after")
    }
    for row in rows:
        for side in ("before", "after"):
            for metric in ("integer_solutions_s", "solve_factor_pairs_s"):
                row[side][metric] = round(row[side][metric], 7)
    record = {
        "what": "integer_solutions and solve_factor_pairs per equation of "
                "perfbench/expected.json, before and after",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, "
                   f"{len(os.sched_getaffinity(0))} CPUs available",
        "git_sha_before": git("rev-parse", args.before),
        "git_sha_after": f"working tree on {git('rev-parse', 'HEAD')}",
        "method": f"each side in its own child process, {ROUNDS} children per side "
                  f"alternating which goes first; per child, the median of {REPEATS} "
                  "calls per equation; per equation, the median over the children; "
                  "seconds",
        "totals_s": totals,
        "speedup": {metric: round(totals["before"][metric] / totals["after"][metric], 2)
                    for metric in ("integer_solutions_s", "solve_factor_pairs_s")},
        "counts_identical": not mismatches,
        "rows": rows,
    }
    # one line per equation keeps the file short enough to read
    text = json.dumps({**record, "rows": []}, indent=1).replace(
        '"rows": []', '"rows": [\n  ' + ",\n  ".join(json.dumps(row) for row in rows) + "\n ]"
    )
    Path(args.out).write_text(text + "\n")
    if mismatches:
        print(f"row or solution counts differ on: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
