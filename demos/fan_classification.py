#!/usr/bin/env python3
"""End-to-end classification of edge-graceful usual fans.

A usual fan has a single hub joined to every vertex of a path, giving n+1
vertices and 2n-1 edges.  The script walks the whole argument:

  1. screen every n by the necessary divisibility condition,
  2. confirm the survivors by actually constructing a labeling,
  3. refute the smallest failures exhaustively, as independent evidence.
"""

from fractions import Fraction

from edgegraceful import (
    SearchOptions,
    classify_fans,
    fan,
    lo_check,
    search,
    verify,
)

print("=== step 1: the divisibility screen ===")
print("n   p   q   residual  quotient (7n^2-5n)/(2n+2)")
for n in range(1, 16):
    g = fan(1, n)
    rep = lo_check(g.p, g.q)
    quot = Fraction(rep.residual, g.p)
    mark = "pass" if rep.divides else "    "
    print(f"{n:<3} {g.p:<3} {g.q:<3} {rep.residual:<9} {str(quot):<8} {mark}")

survivors = classify_fans(1_000_000)
print(f"\nsurvivors for n up to 1,000,000: {survivors}")
print("(read off the finite solution set of 7n^2 - 2nk - 5n - 2k = 0,")
print(" so the list is complete for every larger bound as well)")

print("\n=== step 2: witnesses for the survivors ===")
for n in survivors:
    outcome = search(fan(1, n), SearchOptions(mode="first"))
    labeling = outcome.solutions[0]
    verdict = verify(labeling)
    assert verdict.edge_graceful
    print(f"n={n:<3} labels   {list(labeling.labels)}")
    print(f"      residues {list(verdict.induced.residues)}")

print("\n=== step 3: exhaustive refutation of the smallest failures ===")
for n in (4, 5):
    outcome = search(fan(1, n), SearchOptions(mode="all"))
    assert outcome.exhausted and outcome.solution_count == 0
    print(f"n={n}: searched the full space "
          f"({outcome.nodes_expanded} nodes expanded), no labeling exists")

print("\nconclusion: among all usual fans, exactly n = 2, 3, 11 are edge-graceful")
