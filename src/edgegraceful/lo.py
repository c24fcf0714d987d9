"""Lo's necessary divisibility condition and its usual-fan specialization.

If a graph on p vertices and q edges is edge-graceful, then p divides
q^2 + q - p(p-1)/2.  The condition is necessary only: passing it never
certifies edge-gracefulness.  Divisibility is the mathematical one (m = p*c
for some integer c), so negative residuals are handled; all arithmetic is
exact.

For the usual fan F_{1,n} (p = n+1, q = 2n-1) the condition says that
k = (7n^2 - 5n)/(2n + 2) is an integer, i.e. that (n, k) solves the c = 0
quadratic 7n^2 - 2nk - 5n - 2k = 0.  That equation has finitely many integer
solutions, which ``classify_fans`` takes from the factor-pair solver, so the
cost does not depend on the bound.  The solver is imported there, on first
use, so a program that only screens graphs does not load it.
"""

from __future__ import annotations

from .graphs import Record, require_int, shown

# (a, b, c, d, e, f) of the usual-fan equation in (x, y) = (n, k)
FAN_COEFFICIENTS = (7, -2, 0, -5, -2, 0)


class LoReport(Record):
    """Lo's screen for a graph of ``p`` vertices and ``q`` edges: ``divides``
    is true when p divides ``residual`` = q^2 + q - p(p-1)/2."""

    __slots__ = ("p", "q", "residual", "divides")


def lo_check(p: int, q: int) -> LoReport:
    """Evaluate the divisibility condition for a (p, q) graph.

    Every p >= 0 that ``Graph`` accepts is screened.  Since 0 divides only 0,
    the vertexless graph passes exactly when q = 0, as it has the empty
    labeling; counts below zero raise ValueError.
    """
    require_int("vertex and edge counts", p, q)
    if p < 0:
        raise ValueError(f"vertex count must be nonnegative, got {shown(p)}")
    if q < 0:
        raise ValueError(f"edge count must be nonnegative, got {shown(q)}")
    residual = q * q + q - p * (p - 1) // 2
    divides = residual % p == 0 if p else residual == 0
    return LoReport(p, q, residual, divides)


def classify_fans(n_max: int) -> list[int]:
    """All n in [1, n_max] whose usual fan passes the divisibility screen.

    Filters the solution set of the equation ``FAN_COEFFICIENTS`` to
    1 <= x <= n_max; no labeling search.  The answer is [2, 3, 11] for every
    n_max >= 11.
    """
    from .diophantine import QuadraticDiophantine, integer_solutions

    require_int("n_max", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {shown(n_max)}")
    solutions = integer_solutions(QuadraticDiophantine(*FAN_COEFFICIENTS))
    return sorted(x for x, _ in solutions if 1 <= x <= n_max)
