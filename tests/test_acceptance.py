"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All comparisons are exact unless a criterion states
a runtime bound, in which case wall-clock time is measured around the call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from edgegraceful import (
    QuadraticDiophantine,
    SearchOptions,
    classify_fans,
    fan,
    induce,
    integer_solutions,
    lo_check,
    reduce,
    search,
    verify,
)
from edgegraceful.diophantine import factor_pair_trace
from edgegraceful.labeling import EdgeLabeling
from fan_trace_reference import (
    EXPECTED_FAN_SOLUTIONS,
    EXPECTED_FAN_TRACE,
    matches_printed,
)
from support import all_graceful_oracle, random_simple_graph, small_corpus

FAN_EQ = QuadraticDiophantine(7, -2, 0, -5, -2, 0)


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] PASS: {text}")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def best_of(runs: int, fn, *args, **kwargs):
    result, elapsed = timed(fn, *args, **kwargs)
    for _ in range(runs - 1):
        result, t = timed(fn, *args, **kwargs)
        elapsed = min(elapsed, t)
    return result, elapsed


def test_c1_fan_classification_to_one_million():
    passing, elapsed = timed(classify_fans, 1_000_000)
    assert passing == [2, 3, 11]
    assert elapsed < 5.0, f"classification took {elapsed:.2f}s"

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "edgegraceful", "classify-fans",
         "--max", "1000000", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    cli_elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passing"] == [2, 3, 11]
    assert cli_elapsed < 5.0, f"CLI run took {cli_elapsed:.2f}s"
    report(1, f"classify-fans --max 1000000 -> [2, 3, 11] "
              f"(lib {elapsed:.2f}s, cli {cli_elapsed:.2f}s)")


def test_c2_factor_pair_trace_reproduction():
    # the rows `dioph --trace` prints; Fraction() parses each rendered value
    rows = factor_pair_trace(reduce(FAN_EQ))
    assert len(rows) == 56
    for row, (n1, n2, xs, ys, xxs, yys) in zip(rows, EXPECTED_FAN_TRACE):
        assert (row["N1"], row["N2"]) == (n1, n2)
        for name, printed in zip("XYxy", (xs, ys, xxs, yys)):
            assert matches_printed(Fraction(row[name]), printed), (n1, n2, name)
    assert set(integer_solutions(FAN_EQ)) == EXPECTED_FAN_SOLUTIONS
    report(2, "all 56 rows and the 8-pair solution set match exactly")


def test_c3_witness_construction_timings():
    out2, t2 = best_of(5, search, fan(1, 2), SearchOptions(mode="first"))
    assert out2.solution_count == 1
    assert verify(out2.solutions[0]).edge_graceful
    assert t2 < 0.001, f"fan(1,2) took {t2*1000:.3f}ms"

    out3, t3 = best_of(5, search, fan(1, 3), SearchOptions(mode="first"))
    assert out3.solution_count == 1
    assert verify(out3.solutions[0]).edge_graceful
    assert t3 < 0.010, f"fan(1,3) took {t3*1000:.3f}ms"

    out11, t11 = timed(search, fan(1, 11), SearchOptions(mode="first"))
    assert out11.solution_count == 1
    assert verify(out11.solutions[0]).edge_graceful
    assert t11 < 60.0, f"fan(1,11) took {t11:.2f}s"
    report(3, f"witnesses found and verified "
              f"(n=2: {t2*1000:.2f}ms, n=3: {t3*1000:.2f}ms, n=11: {t11*1000:.1f}ms)")


def test_c4_exhaustive_refutation():
    out4, t4 = timed(search, fan(1, 4), SearchOptions(mode="all"))
    assert out4.solution_count == 0
    assert out4.exhausted
    assert t4 < 10.0, f"fan(1,4) took {t4:.2f}s"
    assert not lo_check(5, 7).divides

    out5, t5 = timed(search, fan(1, 5), SearchOptions(mode="all"))
    assert out5.solution_count == 0
    assert out5.exhausted
    assert t5 < 10.0, f"fan(1,5) took {t5:.2f}s"
    assert not lo_check(6, 9).divides
    report(4, f"no labeling exists for n=4 ({t4:.2f}s) or n=5 ({t5:.2f}s), "
              "matching the failed divisibility screen")


def test_c5_handshake_congruence_bulk():
    rng = random.Random(987654321)
    checked = 0
    while checked < 10_000:
        g = random_simple_graph(rng)
        labels = list(range(1, g.q + 1))
        rng.shuffle(labels)
        residues = induce(EdgeLabeling(g, labels)).residues
        assert sum(residues) % g.p == g.q * (g.q + 1) % g.p
        checked += 1
    report(5, f"residue totals matched q(q+1) mod p on {checked} random pairs")


def test_c6_oracle_equivalence_over_corpus():
    corpus = small_corpus(n_random=50)
    assert len(corpus) == 68
    for g in corpus:
        expected = all_graceful_oracle(g)
        found = search(g, SearchOptions(mode="all"))
        assert {s.labels for s in found.solutions} == expected, (g.p, g.edges)
        counted = search(g, SearchOptions(mode="count"))
        assert counted.solution_count == len(expected), (g.p, g.edges)
    report(6, f"search solution sets (all mode) and totals (count mode) equal "
              f"the permutation oracle's on all {len(corpus)} corpus graphs")


def test_c7_diophantine_soundness_and_desk_scale_completeness():
    start = time.perf_counter()
    sols = integer_solutions(FAN_EQ)
    for x, y in sols:
        assert FAN_EQ.evaluate(x, y) == 0

    # full grid scan over [-2000, 2000]^2 in int64 (values stay < 2^26)
    side = np.arange(-2000, 2001, dtype=np.int64)
    found = set()
    for n_chunk in np.array_split(side, 16):
        n = n_chunk[:, None]
        k = side[None, :]
        lhs = 7 * n * n - 5 * n - 2 * n * k - 2 * k
        for i, j in zip(*np.nonzero(lhs == 0)):
            found.add((int(n_chunk[i]), int(side[j])))
    elapsed = time.perf_counter() - start
    assert found == set(sols)
    assert elapsed < 5.0, f"desk-scale check took {elapsed:.2f}s"
    report(7, f"solutions satisfy the equation and match the grid scan "
              f"({elapsed:.2f}s)")


def test_c8_divisibility_screen_necessity_across_corpus():
    produced = 0
    for g in small_corpus(n_random=50) + [fan(1, 11)]:
        if g.q == 0:
            continue
        out = search(g, SearchOptions(mode="first"))
        for sol in out.solutions:
            assert verify(sol).edge_graceful
            assert lo_check(sol.graph.p, sol.graph.q).divides, (g.p, g.edges)
            produced += 1
    assert produced > 0
    report(8, f"all {produced} labelings produced by search pass the screen")
