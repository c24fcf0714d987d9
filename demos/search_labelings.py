#!/usr/bin/env python3
"""Searching for edge-graceful labelings on small graphs.

Shows count-mode search on small cycles and paths, checked against label
counts from a full permutation scan, and the DOT rendering of a found
labeling (edge labels on edges, induced residues on vertices).
"""

from edgegraceful import SearchOptions, cycle, path, search, verify
from edgegraceful.cli import labeling_to_dot

# edge-graceful labelings per graph, counted over all q! label permutations
SCANNED_COUNTS = {
    "cycle": {3: 6, 4: 0, 5: 20, 6: 0, 7: 336, 8: 0},
    "path": {2: 0, 3: 2, 4: 0, 5: 4, 6: 0, 7: 48, 8: 0, 9: 360},
}

print("=== labeling counts across small cycles and paths ===")
for name, build in (("cycle", cycle), ("path", path)):
    for n, expected in SCANNED_COUNTS[name].items():
        out = search(build(n), SearchOptions(mode="count"))
        assert out.solution_count == expected
        print(f"{name}({n}): {out.solution_count} labelings, "
              f"{out.nodes_expanded} nodes expanded")

print("\n=== one labeling of cycle(5), rendered as DOT ===")
out = search(cycle(5), SearchOptions(mode="first"))
labeling = out.solutions[0]
print(f"labels:   {list(labeling.labels)}")
print(f"residues: {list(verify(labeling).induced.residues)}")
print()
print(labeling_to_dot(labeling))
