#!/usr/bin/env python3
"""Solving the fan equation 7x^2 - 2xy - 5x - 2y = 0 by factor pairs.

With c = 0 the reduced form X^2 - D*Y^2 = N has D = b^2, so it factors as
(X + bY)(X - bY) = N and every factor pair of N pins one candidate row.
Rows whose back-substituted (x, y) are both integers are the solutions.
"""

from edgegraceful import QuadraticDiophantine, integer_solutions, reduce
from edgegraceful.cli import main
from edgegraceful.diophantine import factor_pair_trace
from edgegraceful.lo import FAN_COEFFICIENTS

eq = QuadraticDiophantine(*FAN_COEFFICIENTS)
form = reduce(eq)
print(f"equation: {eq.a}x^2 + ({eq.b})xy + ({eq.d})x + ({eq.e})y = 0")
print(f"reduced:  X^2 - {form.D}*Y^2 = {form.N}   "
      f"(D={form.D}, E={form.E}, F={form.F})")

rows = factor_pair_trace(form)
print(f"\n{len(rows)} factor-pair rows, as `edgegraceful dioph --trace` prints them:\n")
assert main(["dioph", *map(str, FAN_COEFFICIENTS), "--trace"]) == 0

print("\nintegral rows:")
for r in rows:
    if r["integral"]:
        print(f"  (N1, N2) = ({r['N1']}, {r['N2']}) -> (x, y) = ({r['x']}, {r['y']})")

print("\ninteger solutions, sorted:")
for x, y in integer_solutions(eq):
    assert eq.evaluate(x, y) == 0
    print(f"  (x, y) = ({x}, {y})")

print("\nback-substitution spot checks:")
by_pair = {(r["N1"], r["N2"]): r for r in rows}
for pair in [(16, 84), (12, 112), (32, 42)]:
    r = by_pair[pair]
    verdict = "integral" if r["integral"] else "not integral"
    print(f"  (N1, N2) = {pair}: (X, Y) = ({r['X']}, {r['Y']}) -> "
          f"(x, y) = ({r['x']}, {r['y']}), {verdict}")

print("\nonly x >= 1 names a fan, leaving x in {2, 3, 11}")
