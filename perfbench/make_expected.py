#!/usr/bin/env python3
"""Regenerate ``expected.json``, the benchmark's table of expected answers.

Usage (from the repository root; needs sympy, which is a test-only tool):

    python3 perfbench/make_expected.py

Every answer comes from a method that is not the code under test:

* labeling counts: a plain scan over all q! label permutations of the graph
  built from its family definition;
* construction witnesses: found once by the package's search, then accepted
  only after this script's own residue check;
* Diophantine solution sets: sympy's ``diophantine``, cross-checked against
  a derivation over the divisors of one constant of the equation (see
  ``divisor_solutions``);
* the 56-row factor-pair trace: copied from the published table in
  ``tests/fan_trace_reference.py``.
"""

from __future__ import annotations

import itertools
import json
import random
import runpy
import sys
from pathlib import Path

import sympy
from sympy.solvers.diophantine import diophantine

from oracle import (
    EXPECTED_PATH,
    family_edges,
    fan_equation,
    is_edge_graceful,
    pell_n,
    solution_digest,
)
from workloads import (
    CONSTRUCT_GRAPHS,
    EQUATION_CELLS,
    EQUATIONS_PER_CELL,
    FAN_EQUATION_MS,
    REFUTE_GRAPHS,
)

ROOT = Path(__file__).resolve().parent.parent
GENERATOR_SEED = 20241211
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def permutation_count(p: int, edges) -> int:
    """Number of edge-graceful labelings, by scanning every permutation."""
    q = len(edges)
    total = 0
    for perm in itertools.permutations(range(1, q + 1)):
        sums = [0] * p
        for (u, v), lab in zip(edges, perm):
            sums[u] += lab
            sums[v] += lab
        if len({s % p for s in sums}) == p:
            total += 1
    return total


def sympy_solutions(coeffs) -> list[tuple[int, int]]:
    a, b, c, d, e, f = coeffs
    x, y = sympy.symbols("x y", integer=True)
    sols = diophantine(a * x**2 + b * x * y + c * y**2 + d * x + e * y + f)
    return sorted((int(s[0]), int(s[1])) for s in sols)


def divisor_solutions(coeffs) -> list[tuple[int, int]]:
    """All integer solutions of a c = 0 equation, derived without the package.

    y*(b*x + e) = -(a*x^2 + d*x + f), and t = b*x + e divides
    K = a*e^2 - b*d*e + f*b^2 whenever y is an integer, so x ranges over
    (t - e)/b for the signed divisors t of K.
    """
    a, b, c, d, e, f = coeffs
    assert c == 0 and b != 0
    K = a * e * e - b * d * e + f * b * b
    assert K != 0
    found = []
    for t in sympy.divisors(abs(K)):
        for t in (t, -t):
            if (t - e) % b:
                continue
            x = (t - e) // b
            num = -(a * x * x + d * x + f)
            if num % t == 0:
                found.append((x, num // t))
    return sorted(found)


def random_equation(rng: random.Random, decade: int, kind: str):
    """A c = 0 equation with 10^decade <= |N| < 10^(decade+1).

    N = 4*a*K (see ``divisor_solutions``), so K is chosen first: a prime for
    kind "prime", where trial division up to sqrt(N) dominates the solver's
    cost, and a product of small primes for kind "smooth", where the many
    factor-pair rows dominate.
    """
    lo, hi = 10**decade, 10 ** (decade + 1)
    while True:
        a = rng.choice((-1, 1)) * rng.randint(1, 9)
        b = rng.choice((1, -1, 2, -2))
        d = rng.randint(-60, 60)
        e = rng.randint(-60, 60)
        unit = 1
        if abs(b) == 2:
            e += e % 2  # with e even and 4 | K, b^2 divides K - a*e^2 + b*d*e
            unit = 4
        k_target = 10 ** rng.uniform(decade, decade + 1) / (4 * abs(a) * unit)
        if kind == "prime":
            K = unit * sympy.nextprime(int(k_target))
        else:
            K = unit
            while K < k_target * unit:
                K *= rng.choice(SMALL_PRIMES)
        K *= rng.choice((-1, 1))
        f = (K - a * e * e + b * d * e) // (b * b)
        coeffs = (a, b, 0, d, e, f)
        N = pell_n(coeffs)
        assert N == 4 * a * K
        if not lo <= abs(N) < hi:
            continue
        ndiv = int(sympy.divisor_count(abs(N)))
        if kind == "smooth" and not 100 <= ndiv <= 800:
            continue
        return coeffs, N, ndiv


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import edgegraceful as eg

    table: dict = {"generator_seed": GENERATOR_SEED}

    table["labeling_counts"] = {}
    for name, family, args, _copies in REFUTE_GRAPHS:
        p, edges = family_edges(family, args)
        table["labeling_counts"][name] = permutation_count(p, edges)
        print(name, table["labeling_counts"][name], flush=True)

    table["witnesses"] = {}
    for name, family, args in CONSTRUCT_GRAPHS:
        p, edges = family_edges(family, args)
        out = eg.search(eg.make_graph(p, edges), eg.SearchOptions(mode="first"))
        labels = list(out.solutions[0].labels)
        assert is_edge_graceful(p, edges, labels), name
        table["witnesses"][name] = labels

    table["fan_equations"] = {}
    for m in FAN_EQUATION_MS:
        coeffs = fan_equation(m)
        sols = divisor_solutions(coeffs)
        assert sols == sympy_solutions(coeffs), m
        N = pell_n(coeffs)
        table["fan_equations"][str(m)] = {
            "coeffs": list(coeffs), "N": N,
            "divisors": int(sympy.divisor_count(abs(N))),
            "solutions": [list(s) for s in sols],
        }

    ref = runpy.run_path(str(ROOT / "tests" / "fan_trace_reference.py"))
    table["fan_trace"] = [list(row) for row in ref["EXPECTED_FAN_TRACE"]]

    rng = random.Random(GENERATOR_SEED)
    table["random_equations"] = {}
    for decade, kind in EQUATION_CELLS:
        cell = []
        for _ in range(EQUATIONS_PER_CELL):
            coeffs, N, ndiv = random_equation(rng, decade, kind)
            sols = divisor_solutions(coeffs)
            assert sols == sympy_solutions(coeffs), coeffs
            cell.append({"coeffs": list(coeffs), "N": N, "divisors": ndiv,
                         "solutions": len(sols), "digest": solution_digest(sols)})
            print(decade, kind, N, ndiv, len(sols), flush=True)
        table["random_equations"][f"{decade}-{kind}"] = cell

    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
