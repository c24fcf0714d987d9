#!/usr/bin/env python3
"""Time the factor-pair solver, the search kernel, its edge order and the
start-up of two versions of the package on one machine.

Usage (from the repository root):

    python3 benchmarks/bench_solver.py --before REV --out BENCH.json
        [--records BEFORE_RUN.json AFTER_RUN.json ...]

The before side is the ``src/`` of git revision REV, extracted with
``git archive``; the after side is the working tree's ``src/``.  Each side
runs in its own child process, the two alternating which goes first, and
times four layers with ``time.perf_counter``:

- solver: ``integer_solutions(eq)`` and ``factor_pair_trace(reduce(eq))``,
  the table the ``dioph`` command prints, whose rows count the factor pairs
  and whose ``integral`` flags count the rows that solve the equation, per
  equation of ``perfbench/expected.json`` (the F_{m,n} equations for
  m = 1..6 and the 96 random ones), which this script only reads.  One
  summary row per cell, the F_{m,n} block and each random |N| decade and
  kind, gives each side's median over the cell's equations;
- search: ``search`` in modes "count" and "first" on ``SEARCH_GRAPHS``,
  where mode "first" is exhaustive on the graphs that have no labeling (C_8
  holds the median task of perfbench ``refute``, and P_11, with odd p, is a
  tree that count mode's multiplier rule leaves alone), in mode "count" on
  the octahedron K_{2,2,2} (p = 6, q = 12, 4-regular), and
  in mode "all" with ``limit=1000`` on F_{2,5} and F_{1,11}, whose leaves
  each stand for 128 and 512 labelings, so the call builds the labelings
  of several leaves, with ``limit=2`` on K_17, whose leaf stands for
  8!**17 labelings, so the call times how much of one leaf's expansion
  two labelings cost, in mode "first" on F_{4,52}, F_{6,37} and P_801,
  deep trees (q = 259, 258 and 800) whose labels run far past 64 bits (``DEEP_GRAPHS``), and in mode "first"
  on F_{1,11} and F_{2,10}, whose witnesses take 69 and 107 nodes, so the
  row shows what returning one kept leaf costs (``SEARCH_RUNS``).  A row
  whose first call takes under ``SHORT_S`` is called ``REPEATS`` times, so
  a row of a few milliseconds is not split by the host's swing between one
  call and the next.  A deep row is called once under each number of extra
  caller frames in ``CALLER_DEPTHS``: the recursion's time on a deep tree
  depends on where its frames fall on the interpreter's stack chunks, and
  so on the caller's depth (190-635 ms on F_{4,52} on CPython 3.11).  Each
  row reports its fastest call (``search_s``) and its slowest
  (``search_slowest_s``);
- order: one ``_search.completion_order`` call on each of ``ORDER_GRAPHS``,
  fans large enough that the edge order alone takes measurable time;
- startup: the wall time of a whole child interpreter per command of
  ``STARTUP_COMMANDS`` (a bare interpreter, the imports of ``edgegraceful``
  and of ``edgegraceful.cli``, a call of ``classify_fans`` alone and two CLI
  calls), the sides alternating which goes first on each command.

Every solver, search and order row, and each layer's total (one child's
rows summed), gives each side's median and quartiles over its ``ROUNDS``
children, so a reader can tell a host's swing from a change.

Row, solution and node counts, the first-mode witnesses, a sha256 of each
search call's whole sequence of returned labelings (so both sides must
return the same labelings in the same order), the edge orders' steps and
every start-up command's stdout are deterministic and must agree on both
sides; the script exits 1 when they do not.  Against a revision from before
count mode's shift rule it exits 1 by design: the K_5 and octahedron count
rows expand fewer nodes with the rule (58 869 -> 11 775 and
5 328 684 -> 888 117), and every other field of theirs agrees.

Each ``--records`` pair names two ``perfbench/run.py`` run records of the
same workload and seed, one per side.  Their ``nodes_expanded_per_task``
lists hold the same pool of tasks in the same order, so the script adds one
row per task kind comparing the two sides task by task: how many tasks
expanded fewer, as many or more nodes, and the total, median, 90th
percentile and maximum of each side.  These counts may differ by design
(an edge order change moves shuffled tasks), so they never fail the run.

``perfbench/run.py --trace 1`` reports each layer only as totals over
however many tasks a timed run completes, so its counters differ between a
slower and a faster side; this script makes a fixed number of calls on fixed
inputs.
"""

from __future__ import annotations

import argparse
import hashlib
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
REPEATS = 5  # calls per equation per child, and per short search row
SHORT_S = 0.05  # a search row whose first call is faster is timed over REPEATS calls
DEEP_GRAPHS = (("F_4_52", "fan", (4, 52)), ("F_6_37", "fan", (6, 37)), ("P_801", "path", (801,)))
CALLER_DEPTHS = range(0, 22, 3)  # extra caller frames for each call of a deep row
SEARCH_GRAPHS = (("F_1_5", "fan", (1, 5)), ("F_1_6", "fan", (1, 6)), ("F_2_4", "fan", (2, 4)),
                 ("C_8", "cycle", (8,)), ("C_9", "cycle", (9,)), ("C_11", "cycle", (11,)),
                 ("P_10", "path", (10,)), ("P_11", "path", (11,)), ("K_5", "complete", (5,)))
# one row per (graph, mode, limit): modes "count" and "first" on each graph,
# mode "count" on the octahedron, then mode "all" on two fans whose leaves
# stand for many labelings and on K_17, whose one leaf is cut at its second
# labeling, then mode "first" on deep trees and on two fans whose witness is
# a shallow search's one leaf
SEARCH_RUNS = ([(graph, mode, None) for graph in SEARCH_GRAPHS for mode in ("count", "first")]
               + [(("K_2_2_2", "octahedron", ()), "count", None)]
               + [(("F_2_5", "fan", (2, 5)), "all", 1000), (("F_1_11", "fan", (1, 11)), "all", 1000),
                  (("K_17", "complete", (17,)), "all", 2)]
               + [(graph, "first", None) for graph in DEEP_GRAPHS]
               + [(("F_1_11", "fan", (1, 11)), "first", None),
                  (("F_2_10", "fan", (2, 10)), "first", None)])
ORDER_GRAPHS = (("F_3_309", "fan", (3, 309)), ("F_4_836", "fan", (4, 836)))
STARTUP_ROUNDS = 25  # child processes per side and command
STARTUP_COMMANDS = (
    ("python -c pass", ["-c", "pass"]),
    ("import edgegraceful", ["-c", "import edgegraceful"]),
    ("import edgegraceful.cli", ["-c", "import edgegraceful.cli"]),
    ("classify_fans(100)", ["-c", "import edgegraceful as eg; print(eg.classify_fans(100))"]),
    ("lo --p 12 --q 21", ["-m", "edgegraceful", "lo", "--p", "12", "--q", "21",
                          "--format", "json"]),
    ("dioph 7 -2 0 -5 -2 0", ["-m", "edgegraceful", "dioph", "7", "-2", "0", "-5", "-2", "0",
                              "--format", "json"]),
)
SOLVER_COUNTS = ("rows", "integral_rows", "solutions")
SEARCH_COUNTS = ("solution_count", "nodes_expanded", "exhausted", "witness", "solutions_sha256")
SEARCH_METRICS = ("search_s", "search_slowest_s")
ORDER_COUNTS = ("q", "steps_sha256")


def equations() -> list[tuple[str, list[int]]]:
    expected = json.loads(EXPECTED.read_text())
    named = [(f"F_m={m}", entry["coeffs"]) for m, entry in expected["fan_equations"].items()]
    for cell, entries in expected["random_equations"].items():
        named += [(f"{cell}#{i}", entry["coeffs"]) for i, entry in enumerate(entries)]
    return named


def search_graph(eg, family: str, args):
    if family == "complete":
        (n,) = args
        return eg.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "octahedron":  # K_{2,2,2}: K_6 less a perfect matching
        return eg.Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                            if (u, v) not in ((0, 1), (2, 3), (4, 5))])
    return getattr(eg, family)(*args)


def timed_search(eg, graph, options, depth: int):
    """One search call under ``depth`` extra caller frames: its time (s) and outcome."""
    if depth:
        return timed_search(eg, graph, options, depth - 1)
    t0 = time.perf_counter()
    result = eg.search(graph, options)
    return time.perf_counter() - t0, result


def time_search(eg) -> list[dict]:
    """Per graph, mode and limit, the fastest and the slowest time (s) of its
    calls: one per caller depth of CALLER_DEPTHS on a deep row, else one, or
    REPEATS when the first takes under SHORT_S; the counts, the witness and a
    digest of every returned labeling in order."""
    out = []
    for spec, mode, limit in SEARCH_RUNS:
        name, family, args = spec
        graph = search_graph(eg, family, args)
        options = eg.SearchOptions(mode=mode, limit=limit)
        if spec in DEEP_GRAPHS:
            calls = [timed_search(eg, graph, options, depth) for depth in CALLER_DEPTHS]
        else:
            calls = [timed_search(eg, graph, options, 0)]
            while calls[0][0] < SHORT_S and len(calls) < REPEATS:
                calls.append(timed_search(eg, graph, options, 0))
        times = [elapsed for elapsed, _ in calls]
        result = calls[-1][1]
        labels = [s.labels for s in result.solutions]
        out.append({
            "graph": name, "mode": mode, "limit": limit,
            "solution_count": result.solution_count,
            "nodes_expanded": result.nodes_expanded, "exhausted": result.exhausted,
            "witness": [list(s) for s in labels[:1]],
            "solutions_sha256": hashlib.sha256(repr(labels).encode()).hexdigest(),
            "search_s": min(times), "search_slowest_s": max(times),
        })
    return out


def time_order(eg) -> list[dict]:
    """Per graph, the time (s) of one completion_order call and a digest of its steps."""
    from edgegraceful._search import completion_order

    out = []
    for name, family, args in ORDER_GRAPHS:
        graph = search_graph(eg, family, args)
        t0 = time.perf_counter()  # one call: F_{4,836} took seconds with a rescan per step
        steps = completion_order(graph)
        elapsed = time.perf_counter() - t0
        out.append({"graph": name, "q": graph.q,
                    "steps_sha256": hashlib.sha256(repr(steps).encode()).hexdigest(),
                    "order_s": elapsed})
    return out


def time_solver(eg) -> list[dict]:
    """Per equation, the median call times (s) and the counts."""
    from edgegraceful.diophantine import factor_pair_trace

    out = []
    for name, coeffs in equations():
        eq = eg.QuadraticDiophantine(*coeffs)
        solve, trace = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            solutions = eg.integer_solutions(eq)
            t1 = time.perf_counter()
            table = factor_pair_trace(eg.reduce(eq))
            t2 = time.perf_counter()
            solve.append(t1 - t0)
            trace.append(t2 - t1)
        out.append({
            "equation": name, "coeffs": coeffs, "rows": len(table),
            "integral_rows": sum(r["integral"] for r in table), "solutions": len(solutions),
            "integer_solutions_s": statistics.median(solve),
            "factor_pair_trace_s": statistics.median(trace),
        })
    return out


def child(src: str) -> None:
    """Print the solver, search and order layers' rows as one JSON object."""
    sys.path.insert(0, src)
    import edgegraceful as eg

    if not Path(eg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported edgegraceful from {eg.__file__}, not from {src}")
    json.dump({"solver": time_solver(eg), "search": time_search(eg), "order": time_order(eg)},
              sys.stdout)


def time_startup(sides: dict[str, str]) -> tuple[list[dict], list[str]]:
    """Per command, each side's median and quartiles of a child's wall time
    (ms); and the commands whose stdout differs between the sides."""
    times = {name: {side: [] for side in sides} for name, _ in STARTUP_COMMANDS}
    stdout: dict = {}
    for r in range(STARTUP_ROUNDS):
        for name, argv in STARTUP_COMMANDS:
            for side in (sides if r % 2 == 0 else reversed(sides)):
                env = dict(os.environ, PYTHONPATH=sides[side])
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                                      capture_output=True, text=True)
                times[name][side].append(time.perf_counter() - t0)
                stdout.setdefault(name, {})[side] = proc.stdout
    rows = []
    for name, _ in STARTUP_COMMANDS:
        row = {"command": name}
        for side in sides:
            q1, median, q3 = statistics.quantiles(times[name][side], n=4, method="inclusive")
            row[side] = {"median_ms": round(median * 1000, 2),
                         "quartiles_ms": [round(q1 * 1000, 2), round(q3 * 1000, 2)]}
        row["ratio"] = round(row["after"]["median_ms"] / row["before"]["median_ms"], 3)
        rows.append(row)
    return rows, [name for name, out in stdout.items() if len(set(out.values())) > 1]


def nodes_rows(before_path: str, after_path: str) -> list[dict]:
    """Per task kind of one workload's pool, the two sides' nodes_expanded
    compared task by task, from two perfbench run records."""
    sides = [json.loads(Path(path).read_text()) for path in (before_path, after_path)]
    for key in ("workload", "seed"):
        if sides[0][key] != sides[1][key]:
            raise SystemExit(f"--records {before_path} {after_path}: {key} differs")
    tasks = [side["nodes_expanded_per_task"] for side in sides]
    if [t["task"] for t in tasks[0]] != [t["task"] for t in tasks[1]]:
        raise SystemExit(f"--records {before_path} {after_path}: the pools differ")
    per_kind: dict[str, list[tuple[int, int]]] = {}
    for b, a in zip(*tasks):
        per_kind.setdefault(b["task"], []).append((b["nodes_expanded"], a["nodes_expanded"]))

    def summary(nodes: list[int]) -> dict:
        return {"total": sum(nodes), "median": statistics.median(nodes),
                "p90": statistics.quantiles(nodes, n=10, method="inclusive")[8],
                "max": max(nodes)}

    rows = []
    for kind, pairs in sorted(per_kind.items()):
        rows.append({
            "workload": sides[0]["workload"], "seed": sides[0]["seed"], "task": kind,
            "tasks": len(pairs), "fewer": sum(a < b for b, a in pairs),
            "same": sum(a == b for b, a in pairs), "more": sum(a > b for b, a in pairs),
            "before": summary([b for b, _ in pairs]), "after": summary([a for _, a in pairs]),
        })
    return rows


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> str:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return str(into / "src")


def run_side(src: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def spread(side: dict, metric: str, values: list[float], digits: int) -> None:
    """Put the median of ``values`` under ``metric`` and their lower and
    upper quartiles under ``metric + "_quartiles"``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    side[metric] = round(median, digits)
    side[metric + "_quartiles"] = [round(q1, digits), round(q3, digits)]


def compare(runs: dict, layer: str, keys: tuple[str, ...], counts: tuple[str, ...],
            metrics: tuple[str, ...]) -> tuple[list[dict], list[str]]:
    """One row per item of the layer: each side's counts from its first child
    and per metric the median and quartiles over its children; and the items
    whose counts differ between the sides."""
    rows, mismatches = [], []
    for i, item in enumerate(runs["before"][0][layer]):
        row = {key: item[key] for key in keys}
        for side in ("before", "after"):
            first = runs[side][0][layer][i]
            row[side] = {key: first[key] for key in counts}
            for metric in metrics:
                spread(row[side], metric, [run[layer][i][metric] for run in runs[side]], 7)
        if any(row["before"][k] != row["after"][k] for k in counts):
            mismatches.append(" ".join(str(row[key]) for key in keys))
        rows.append(row)
    return rows, mismatches


def totals(runs: dict, layer: str, metrics: tuple[str, ...]) -> dict:
    """Per side and metric, the median and quartiles over the children of
    each child's total over the layer's items."""
    total: dict = {side: {} for side in ("before", "after")}
    for side in total:
        for metric in metrics:
            spread(total[side], metric,
                   [sum(item[metric] for item in run[layer]) for run in runs[side]], 6)
    total["speedup"] = {metric: round(total["before"][metric] / total["after"][metric], 2)
                        for metric in metrics}
    return total


def cell_rows(rows: list[dict], metrics: tuple[str, ...]) -> list[dict]:
    """Per cell of the solver rows (the F_{m,n} block, then each random
    decade-kind cell), each side's median of each metric over the cell."""
    cells: dict[str, list[dict]] = {}
    for row in rows:
        name = row["equation"]
        cell = "F_{m,n}" if name.startswith("F_") else name.split("#")[0]
        cells.setdefault(cell, []).append(row)
    out = []
    for cell, members in cells.items():
        row = {"cell": cell, "equations": len(members)}
        for side in ("before", "after"):
            row[side] = {metric: round(statistics.median(r[side][metric] for r in members), 7)
                         for metric in metrics}
        row["speedup"] = {metric: round(row["before"][metric] / row["after"][metric], 2)
                          for metric in metrics}
        out.append(row)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before")
    parser.add_argument("--out")
    parser.add_argument("--records", nargs=2, action="append", default=[],
                        metavar=("BEFORE_RUN", "AFTER_RUN"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return 0
    if not args.before or not args.out:
        parser.error("--before and --out are required")
    task_nodes_rows = [row for pair in args.records for row in nodes_rows(*pair)]

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"before": extract(args.before, Path(tmp, "before").resolve()),
                 "after": str(ROOT / "src")}
        runs = {"before": [], "after": []}
        for r in range(ROUNDS):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_side(sides[side]))
        startup_rows, startup_bad = time_startup(sides)

    solver_metrics = ("integer_solutions_s", "factor_pair_trace_s")
    solver_rows, solver_bad = compare(runs, "solver", ("equation", "coeffs"),
                                      SOLVER_COUNTS, solver_metrics)
    search_rows, search_bad = compare(runs, "search", ("graph", "mode", "limit"),
                                      SEARCH_COUNTS, SEARCH_METRICS)
    order_rows, order_bad = compare(runs, "order", ("graph",), ORDER_COUNTS, ("order_s",))
    record = {
        "what": "integer_solutions and factor_pair_trace per equation of "
                "perfbench/expected.json and their medians per cell, search per graph, "
                "mode and limit, completion_order per graph, and child start-up per command, "
                "before and after",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, "
                   f"{len(os.sched_getaffinity(0))} CPUs available",
        "git_sha_before": git("rev-parse", args.before),
        "git_sha_after": f"working tree on {git('rev-parse', 'HEAD')}",
        "method": f"each side in its own child process, {ROUNDS} children per side "
                  f"alternating which goes first; per child, the median of {REPEATS} "
                  f"calls per equation; per search row the fastest and the slowest of "
                  f"one call under each of {list(CALLER_DEPTHS)} extra caller frames on "
                  f"the deep rows, of {REPEATS} calls on a row whose first call takes "
                  f"under {SHORT_S} s, and else of 1; and 1 call per order; "
                  "per row and per total, the median and quartiles over the children "
                  "(a total sums one child's rows); seconds; start-up: "
                  f"{STARTUP_ROUNDS} children per side and command, alternating which "
                  "side goes first, median and quartiles in ms",
        "solver_totals_s": totals(runs, "solver", solver_metrics),
        "search_totals_s": totals(runs, "search", SEARCH_METRICS),
        "order_totals_s": totals(runs, "order", ("order_s",)),
        "counts_identical": not (solver_bad or search_bad or order_bad or startup_bad),
        "solver_cell_rows": [],
        "startup_rows": [],
        "search_rows": [],
        "order_rows": [],
        "task_nodes_rows": [],
        "solver_rows": [],
    }
    # one line per row keeps the file short enough to read
    text = json.dumps(record, indent=1)
    for key, rows in (("solver_cell_rows", cell_rows(solver_rows, solver_metrics)),
                      ("startup_rows", startup_rows), ("search_rows", search_rows),
                      ("order_rows", order_rows), ("task_nodes_rows", task_nodes_rows),
                      ("solver_rows", solver_rows)):
        text = text.replace(f'"{key}": []', f'"{key}": [\n  '
                            + ",\n  ".join(json.dumps(row) for row in rows) + "\n ]")
    Path(args.out).write_text(text + "\n")
    bad = solver_bad + search_bad + order_bad + startup_bad
    if bad:
        print(f"counts, witnesses or output differ on: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
