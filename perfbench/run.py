#!/usr/bin/env python3
"""Benchmark of the edgegraceful package: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refute --seed 1 --seconds 20 --trace 0

Workloads: refute, construct, classify, cli (see WORKLOADS.md).  The run
imports the package from ``src/``, builds its inputs from the seed, warms up,
and then runs the workload's tasks one at a time (a closed loop with one
client) until ``--seconds`` have passed.  Every answer is checked against
``expected.json`` or the benchmark's own arithmetic; a wrong answer, an
exception or an exit code outside the CLI contract counts as a failed task.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics: the task pool is run in pairs of
passes, one untraced and one traced, and the spans of the traced passes give
each layer's busy and self time.  A run record with the seed, Python version,
git SHA, nproc and per-task node counts goes to ``perfbench/out/``, and the
spans of a traced run go beside it.  ``compare.py`` compares two sets of
records.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

from oracle import load_expected
from tracer import Tracer, busy_and_self
from workloads import Context, build_pool, warmup_tasks

WORKLOADS = ("refute", "construct", "classify", "cli")
LAYERS = ("search", "labeling", "graphs", "lo", "diophantine", "cli")
SETUP_REPEATS = 9
BASELINE_SAMPLES = 7
MAX_REPORTED_FAILURES = 5
MIN_SAMPLES = 100
REF_NOMINAL_MS = 2.5  # typical reference time on the 2-vCPU x86-64 VM the bounds were set on
REF_CALLS = 6
REF_INTERVAL_S = 0.5


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli_baselines(env: dict) -> tuple[float, float]:
    """Median start-up of a bare child interpreter, and the extra time a child
    needs to import ``edgegraceful.cli``; the two are sampled alternately."""
    samples: dict = {"pass": [], "import edgegraceful.cli": []}
    for _ in range(BASELINE_SAMPLES):
        for code, times in samples.items():
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            times.append(perf_counter() - t0)
    spawn, imported = (statistics.median(t) * 1000 for t in samples.values())
    return spawn, imported - spawn


def import_package():
    for name in [m for m in sys.modules if m == "edgegraceful" or m.startswith("edgegraceful.")]:
        del sys.modules[name]
    eg = importlib.import_module("edgegraceful")
    if Path(eg.__file__).resolve().parent != ROOT / "src" / "edgegraceful":
        raise RuntimeError(f"imported edgegraceful from {eg.__file__}, not from src/")
    return eg


class Runner:
    """Runs tasks and keeps the failure tally of the whole run."""

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.attempted = 0
        self.failed = Counter()

    def run(self, task, task_id) -> float:
        self.attempted += 1
        t0 = perf_counter()
        try:
            ok = self.tr.task(task_id, task.run, self.tr)
        except Exception:  # a crash in the program is a failed task, not a crashed run
            ok = False
            if sum(self.failed.values()) < MAX_REPORTED_FAILURES:
                traceback.print_exc()
        dt = perf_counter() - t0
        if ok is not True:
            self.failed[task.kind] += 1
        return dt


def set_up(workload: str, seed: int, expected: dict, runner: Runner):
    """Import the package, build the seeded task pool and warm up."""
    eg = import_package()
    ctx = Context(eg=eg, expected=expected, root=str(ROOT), env=child_env())
    rng = random.Random(f"{workload}:{seed}")
    rounds = build_pool(workload, ctx, runner.tr, rng)
    for i, task in enumerate(warmup_tasks(workload, ctx, runner.tr, rng)):
        runner.run(task, ("warmup", i))
    return rounds


class HostClock:
    """Tracks the speed of the host with a fixed reference computation.

    The vCPU of a shared machine runs the same Python code up to about 20 %
    slower or faster for minutes at a time, which no run length averages
    out.  The reference (``reference_kernel``, the benchmark's own code, run
    with the collector off) is sampled between tasks.  The package's times
    move about half as much as the reference's (by a power of 0.4 to 0.75,
    depending on the workload), so end-to-end times are reported as measured
    times the square root of REF_NOMINAL_MS / median reference time.  The
    raw values go into the run record.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        for _ in range(REF_CALLS):
            reference_kernel()
        dt = perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt / REF_CALLS)
        self.spent += dt

    def factor(self) -> float:
        return math.sqrt(REF_NOMINAL_MS / (statistics.median(self.samples) * 1000))


def reference_kernel() -> int:
    """Count the edge-graceful labelings of P_7 twice: by a permutation scan
    and by backtracking, the two kinds of work the package's layers do."""
    p, q = 7, 6
    edges = [(i, i + 1) for i in range(q)]
    scanned = 0
    for perm in itertools.permutations(range(1, q + 1)):
        sums = [0] * p
        for (u, v), lab in zip(edges, perm):
            sums[u] += lab
            sums[v] += lab
        scanned += len({s % p for s in sums}) == p

    done_at = [[u] if u == k else [] for k, (u, _v) in enumerate(edges)]
    done_at[-1].append(q)
    used = [False] * (q + 1)
    sums = [0] * p
    taken = [False] * p

    def place(k: int) -> int:
        if k == q:
            return 1
        u, v = edges[k]
        found = 0
        for lab in range(1, q + 1):
            if used[lab]:
                continue
            used[lab] = True
            sums[u] += lab
            sums[v] += lab
            fixed = []
            for w in done_at[k]:
                if taken[sums[w] % p]:
                    break
                taken[sums[w] % p] = True
                fixed.append(sums[w] % p)
            else:
                found += place(k + 1)
            for r in fixed:
                taken[r] = False
            sums[u] -= lab
            sums[v] -= lab
            used[lab] = False
        return found

    if place(0) != scanned:
        raise RuntimeError("reference kernel disagrees with itself")
    return scanned


def timed_run(rounds, runner: Runner, seconds: float, clock: HostClock):
    """Cycle through the pool, one task at a time, until ``seconds`` pass,
    MIN_SAMPLES tasks are done (so at least ten lie beyond task_p90_ms) and
    the current round is complete, so that no run ends in a partial round
    with an odd mix of short and long tasks.

    Returns the task latencies and the wall time spent on tasks, which
    excludes the host-clock samples taken between tasks.
    """
    latencies = []
    start = perf_counter()
    deadline = start + seconds
    spent_before = clock.spent
    next_sample = start
    r = 0
    while perf_counter() < deadline or len(latencies) < MIN_SAMPLES:
        for task in rounds[r % len(rounds)]:
            if perf_counter() >= next_sample:
                clock.sample()
                next_sample = perf_counter() + REF_INTERVAL_S
            latencies.append(runner.run(task, len(latencies)))
        r += 1
    return latencies, perf_counter() - start - (clock.spent - spent_before)


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(workload, seed, seconds, expected, record):
    """Set up several times, then run the timed loop; the end-to-end metrics."""
    tr = Tracer()
    runner = Runner(tr)
    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        rounds = None  # each set-up starts from the same heap
        gc.collect()
        clock.sample()
        t0 = perf_counter()
        rounds = set_up(workload, seed, expected, runner)
        setups.append(perf_counter() - t0)
    latencies, wall = timed_run(rounds, runner, seconds, clock)
    p90 = statistics.quantiles(latencies, n=10)[8]
    raw = {
        "task_p50_ms": statistics.median(latencies) * 1000,
        "task_p90_ms": p90 * 1000,
        "tasks_per_s": len(latencies) / wall,
        "setup_s": statistics.median(setups),
    }
    factor = clock.factor()
    record.update(
        samples=len(latencies),
        p90_samples_beyond=sum(1 for t in latencies if t > p90),
        host_reference_ms=statistics.median(clock.samples) * 1000,
        host_factor=factor,
        raw_metrics=raw,
        setup_samples_s=setups,
        nodes_expanded_per_task=[{"task": t.kind, "nodes_expanded": t.nodes}
                                 for tasks in rounds for t in tasks if t.nodes is not None],
    )
    metrics = {
        "task_p50_ms": (raw["task_p50_ms"] * factor, "ms"),
        "task_p90_ms": (raw["task_p90_ms"] * factor, "ms"),
        "tasks_per_s": (raw["tasks_per_s"] / factor, "1/s"),
        "setup_s": (raw["setup_s"] * factor, "s"),
        "peak_rss_mib": (peak_rss_mib(workload), "MiB"),
    }
    return runner, metrics


def traced(workload, seed, seconds, expected, record):
    """Untraced and traced passes over the pool; the per-layer metrics."""
    tr = Tracer()
    runner = Runner(tr)
    tr.enabled = True
    pool = [t for tasks in tr.task("setup", set_up, workload, seed, expected, runner)
            for t in tasks]
    setup_calls = Counter(tr.calls)
    setup_busy, setup_self = busy_and_self(tr.spans)
    tr.enabled = False

    clock = HostClock()
    walls = {False: 0.0, True: 0.0}
    per_pass = []  # (calls, counts) of each traced pass
    traced_spans = []
    start = perf_counter()
    n_pairs = 0
    # whole pairs only, and none that would end after ``seconds``
    while n_pairs == 0 or (perf_counter() - start) * (n_pairs + 1) / n_pairs <= seconds:
        for is_traced in ((False, True) if n_pairs % 2 == 0 else (True, False)):
            clock.sample()
            tr.reset_counts()
            tr.enabled = is_traced
            first = len(tr.spans)
            t0 = perf_counter()
            for i, task in enumerate(pool):
                runner.run(task, (n_pairs, i))
            walls[is_traced] += perf_counter() - t0
            tr.enabled = False
            if is_traced:
                per_pass.append((Counter(tr.calls), Counter(tr.counts)))
                traced_spans += tr.spans[first:]
        n_pairs += 1

    calls, counts = per_pass[0]
    record["counts_repeat"] = all(p == per_pass[0] for p in per_pass)
    busy, own = busy_and_self(traced_spans)
    busy = {k: v / n_pairs for k, v in busy.items()}
    own = {k: v / n_pairs for k, v in own.items()}
    calls["graphs"] = setup_calls["graphs"]
    busy["graphs"], own["graphs"] = setup_busy.get("graphs", 0.0), setup_self.get("graphs", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    untraced_tps = len(pool) * n_pairs / walls[False]
    traced_tps = len(pool) * n_pairs / walls[True]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        metrics[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    nodes = counts["search.nodes_expanded"]
    rows = counts["diophantine.rows"]
    metrics.update({
        "search.nodes_expanded": (nodes, "count"),
        "search.nodes_per_s": (ratio(nodes, busy.get("search", 0.0)), "1/s"),
        "search.solutions": (counts["search.solutions"], "count"),
        "search.solutions_per_knode": (ratio(1000 * counts["search.solutions"], nodes), "1/knode"),
        "lo.candidates": (counts["lo.candidates"], "count"),
        "lo.candidates_per_s": (ratio(counts["lo.candidates"], busy.get("lo", 0.0)), "1/s"),
        "diophantine.rows": (rows, "count"),
        "diophantine.integral_ratio": (ratio(counts["diophantine.integral_rows"], rows), "ratio"),
        "cli.spawn_ms": (record["cli_spawn_ms"], "ms"),
        "cli.import_ms": (record["cli_import_ms"], "ms"),
        "cli.bytes_io": (counts["cli.bytes_io"], "bytes"),
        "check.calls": (calls["check"], "count"),
        "check.busy_s": (busy.get("check", 0.0), "s"),
        "host.reference_ms": (statistics.median(clock.samples) * 1000, "ms"),
        "trace.tasks": (len(pool), "count"),
        "trace.spans": (len(traced_spans) // n_pairs, "count"),
        "trace.task_busy_s": (busy.get("task", 0.0), "s"),
        # task time that no layer span and no check span covers: the glue
        "trace.unattributed_s": (own.get("task", 0.0), "s"),
        "trace.untraced_tasks_per_s": (untraced_tps, "1/s"),
        "trace.traced_tasks_per_s": (traced_tps, "1/s"),
        "trace.overhead_ratio": (1 - traced_tps / untraced_tps, "ratio"),
    })
    record["passes"] = n_pairs
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")
    return runner, metrics


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "edgegraceful" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'edgegraceful'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = load_expected()
    spawn_ms, import_ms = cli_baselines(child_env())
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "git_sha": git_sha(), "source_sha256": source_digest(),
        "cli_spawn_ms": spawn_ms, "cli_import_ms": import_ms, "client": "closed loop, 1 client, 1 task at a time",
    }
    measure = traced if args.trace else end_to_end
    runner, metrics = measure(args.workload, args.seed, args.seconds, expected, record)

    failed = sum(runner.failed.values())
    record.update(
        attempted=runner.attempted, failed=failed,
        fail_ratio=failed / runner.attempted, failures=dict(runner.failed),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}", file=sys.stderr)
    print(f"{'fail_ratio':32s} {record['fail_ratio']:>16.6g} ({failed}/{runner.attempted})",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
