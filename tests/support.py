"""Shared test helpers: independent oracles, random graphs, corpus."""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

from edgegraceful import Graph, cycle, fan, make_graph, path

CORPUS_SEED = 20250810
SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The current environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def residues_oracle(p: int, edges, labels) -> list[int]:
    """Direct per-vertex incident-label sums mod p, independent of the package."""
    sums = [0] * p
    for (u, v), lab in zip(edges, labels):
        sums[u] += lab
        sums[v] += lab
    return [s % p for s in sums]


def all_graceful_oracle(graph: Graph) -> set[tuple[int, ...]]:
    """Every valid labeling, by scanning every permutation (q <= 8 intended)."""
    return {
        perm
        for perm in itertools.permutations(range(1, graph.q + 1))
        if len(set(residues_oracle(graph.p, graph.edges, perm))) == graph.p
    }


def count_graceful_oracle(graph: Graph) -> int:
    """Count valid labelings by scanning every permutation (q <= 8 intended)."""
    return len(all_graceful_oracle(graph))


def fan_scan_oracle(n_max: int) -> list[int]:
    """Every n <= n_max with (7n^2 - 5n)/(2n + 2) integral, by direct scan."""
    return [n for n in range(1, n_max + 1) if (7 * n * n - 5 * n) % (2 * n + 2) == 0]


def random_simple_graph(rng: random.Random, max_p: int = 7, max_q: int = 8) -> Graph:
    """A random simple graph with 1 <= q <= max_q edges."""
    while True:
        p = rng.randint(2, max_p)
        all_pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
        q = rng.randint(1, min(max_q, len(all_pairs)))
        edges = rng.sample(all_pairs, q)
        rng.shuffle(edges)
        return make_graph(p, edges)


def small_corpus(n_random: int = 50) -> list[Graph]:
    """Fixed corpus with q <= 8: fans n <= 4, cycles 3..8, paths 2..9, randoms."""
    rng = random.Random(CORPUS_SEED)
    graphs = [fan(1, n) for n in range(1, 5)]
    graphs += [cycle(n) for n in range(3, 9)]
    graphs += [path(n) for n in range(2, 10)]
    graphs += [random_simple_graph(rng) for _ in range(n_random)]
    assert all(g.q <= 8 for g in graphs)
    return graphs
