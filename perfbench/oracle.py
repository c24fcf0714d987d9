"""The benchmark's own checks, written without the package under test.

Everything here is plain integer arithmetic on the definitions: graphs are
``(p, edges)`` pairs built from the family definitions, a labeling is checked
by summing incident labels mod p, and quadratic equations are evaluated
directly.  Expected answers that are too costly to derive at run time live in
``expected.json`` next to this file; ``make_expected.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# graphs and labelings
# ---------------------------------------------------------------------------

def family_edges(family: str, args) -> tuple[int, list[tuple[int, int]]]:
    """``(p, edges)`` of a fan F_{m,n}, cycle C_n or path P_n, by definition."""
    if family == "fan":
        m, n = args
        hub = [(h, m + i) for h in range(m) for i in range(n)]
        return m + n, hub + [(m + i, m + i + 1) for i in range(n - 1)]
    (n,) = args
    if family == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    raise ValueError(f"unknown family {family!r}")


def is_edge_graceful(p: int, edges, labels) -> bool:
    """Labels are a permutation of 1..q and the vertex sums are distinct mod p."""
    q = len(edges)
    if len(labels) != q or sorted(labels) != list(range(1, q + 1)):
        return False
    sums = [0] * p
    for (u, v), lab in zip(edges, labels):
        sums[u] += lab
        sums[v] += lab
    return len({s % p for s in sums}) == p


def residues(p: int, edges, labels) -> list[int]:
    sums = [0] * p
    for (u, v), lab in zip(edges, labels):
        sums[u] += lab
        sums[v] += lab
    return [s % p for s in sums]


def lo_divides(p: int, q: int) -> bool:
    """Lo's necessary condition: p divides q^2 + q - p(p-1)/2."""
    return (q * q + q - p * (p - 1) // 2) % p == 0


# ---------------------------------------------------------------------------
# quadratic Diophantine equations
# ---------------------------------------------------------------------------

def fan_equation(m: int) -> tuple[int, int, int, int, int, int]:
    """Lo's condition for F_{m,n} as a c = 0 equation in (x, y) with x = n."""
    return (2 * m * m + 4 * m + 1, -2, 0, -(4 * m + 1), -2 * m, m - m * m)


def pell_n(coeffs) -> int:
    """N of the reduced form X^2 - D*Y^2 = N (see the package docs)."""
    a, b, c, d, e, f = coeffs
    D = b * b - 4 * a * c
    E = b * d - 2 * a * e
    F = d * d - 4 * a * f
    return E * E - D * F


def solution_digest(pairs) -> str:
    """Order-free fingerprint of a set of integer (x, y) pairs."""
    canon = json.dumps(sorted([int(x), int(y)] for x, y in pairs), separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def matches_printed(value: Fraction, printed: str) -> bool:
    """Exact value equals a decimal printed to at most nine places, half-up."""
    places = len(printed.split(".")[1]) if "." in printed else 0
    exp = Decimal(1).scaleb(-places)
    exact = Decimal(value.numerator) / Decimal(value.denominator)
    return exact.quantize(exp, rounding=ROUND_HALF_UP) == Decimal(printed)
