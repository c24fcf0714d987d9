"""Shared test helpers: independent oracles, random graphs, corpus."""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from edgegraceful import Graph, cycle, fan, path

CORPUS_SEED = 20250810
SRC = Path(__file__).resolve().parent.parent / "src"

# values of the shapes bad input takes, nested: None, bools, numbers, strings,
# lists, pairs and dicts, for constructors that must raise only ValueError
junk_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=8,
)


def src_env() -> dict[str, str]:
    """The current environment with the package source first on PYTHONPATH.

    ``PYTHONWARNINGS=error`` makes a child interpreter fail on any warning,
    as the in-process suite does through pytest's ``filterwarnings``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONWARNINGS"] = "error"
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


def automorphism_edge_orbits(graph: Graph) -> set[frozenset[int]]:
    """Edge orbits under every automorphism networkx's GraphMatcher enumerates."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.p))
    nxg.add_edges_from(graph.edges)
    index = {frozenset(e): i for i, e in enumerate(graph.edges)}
    orbit_of = [{i} for i in range(graph.q)]
    for auto in GraphMatcher(nxg, nxg).isomorphisms_iter():
        for i, (u, v) in enumerate(graph.edges):
            orbit_of[i].add(index[frozenset((auto[u], auto[v]))])
    return {frozenset(orbit) for orbit in orbit_of}


def divisors_oracle(n: int) -> list[int]:
    """Ascending positive divisors of |n| by trial division up to sqrt|n|."""
    if n == 0:
        raise ValueError("zero has no finite divisor list")
    n = abs(n)
    small, large = [], []
    t = 1
    while t * t <= n:
        if n % t == 0:
            small.append(t)
            if t != n // t:
                large.append(n // t)
        t += 1
    return small + large[::-1]


def factor_pair_rows_oracle(eq) -> list[tuple]:
    """Every factor-pair row of a c = 0 equation, (N1, N2, X, Y, x, y, integral).

    The pairs come from sympy's divisors of N in the solver's table layout
    (|N1| < |N2| ascending, a square middle pair, the mirror, then all signs
    flipped); the values from the chain X = (N1 + N2)/2, Y = (N1 - N2)/(2b),
    y = (X - E)/D, x = (Y - b*y - d)/(2a) in Fraction arithmetic.
    """
    import sympy

    assert eq.c == 0
    D = eq.b * eq.b
    E = eq.b * eq.d - 2 * eq.a * eq.e
    N = E * E - D * (eq.d * eq.d - 4 * eq.a * eq.f)
    divs = sympy.divisors(abs(N))
    small = [t for t in divs if t * t < abs(N)]
    half = [(t, N // t) for t in small]
    half += [(t, N // t) for t in divs if t * t == abs(N)]
    half += [(N // t, t) for t in small]
    rows = []
    for n1, n2 in half + [(-n1, -n2) for n1, n2 in half]:
        X = Fraction(n1 + n2, 2)
        Y = Fraction(n1 - n2, 2 * eq.b)
        y = (X - E) / D
        x = (Y - eq.b * y - eq.d) / (2 * eq.a)
        integral = all(v.denominator == 1 for v in (X, Y, x, y))
        rows.append((n1, n2, X, Y, x, y, integral))
    return rows


def format_rational_oracle(value) -> str:
    """The exact rendering through ``Fraction``: integers plainly, terminating
    decimals as decimals, everything else as num/den."""
    fr = Fraction(value)
    num, den = fr.numerator, fr.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    places = max(twos, fives)
    scaled = abs(num) * 10**places // den
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def fan_scan_oracle(n_max: int) -> list[int]:
    """Every n <= n_max with (7n^2 - 5n)/(2n + 2) integral, by direct scan."""
    return [n for n in range(1, n_max + 1) if (7 * n * n - 5 * n) % (2 * n + 2) == 0]


def completion_order_oracle(graph: Graph) -> list[int]:
    """The greedy edge order from its rule, recounted at every step: the untaken
    edge with an endpoint that has the fewest untaken edges, then one with a
    started endpoint (one that a taken edge touches), then the lowest index."""
    return greedy_order_oracle(graph, started_first=True)


def lowest_index_order_oracle(graph: Graph) -> list[int]:
    """The same greedy order with ties to the lowest index alone."""
    return greedy_order_oracle(graph, started_first=False)


def greedy_order_oracle(graph: Graph, started_first: bool) -> list[int]:
    """Both greedy orders; without ``started_first`` no vertex counts as
    started, so every edge ties on the middle key."""
    untaken = list(range(graph.q))
    order = []
    while untaken:
        def left(w: int) -> int:
            return sum(w in graph.edges[j] for j in untaken)
        started = {w for j in order for w in graph.edges[j]} if started_first else set()
        best = min(untaken, key=lambda i: (min(map(left, graph.edges[i])),
                                           started.isdisjoint(graph.edges[i]), i))
        untaken.remove(best)
        order.append(best)
    return order


def completion_flags_oracle(graph: Graph, order) -> list[tuple[bool, bool]]:
    """Per position of ``order``, whether its edge is the last one of its u, of
    its v, by a reverse pass: an endpoint no later edge touches completes there."""
    flags = []
    seen: set[int] = set()
    for i in reversed(order):
        u, v = graph.edges[i]
        flags.append((u not in seen, v not in seen))
        seen.update((u, v))
    return flags[::-1]


def random_simple_graph(rng: random.Random, max_p: int = 7, max_q: int = 8) -> Graph:
    """A random simple graph with 1 <= q <= max_q edges."""
    while True:
        p = rng.randint(2, max_p)
        all_pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
        q = rng.randint(1, min(max_q, len(all_pairs)))
        edges = rng.sample(all_pairs, q)
        rng.shuffle(edges)
        return Graph(p, edges)


def shuffled_copy(graph: Graph, rng: random.Random) -> Graph:
    """An isomorphic copy: vertices relabelled, endpoints and edges reordered."""
    perm = list(range(graph.p))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in graph.edges]
    rng.shuffle(edges)
    return Graph(graph.p, edges)


def small_corpus(n_random: int = 50) -> list[Graph]:
    """Fixed corpus with q <= 8: fans n <= 4, cycles 3..8, paths 2..9, randoms."""
    rng = random.Random(CORPUS_SEED)
    graphs = [fan(1, n) for n in range(1, 5)]
    graphs += [cycle(n) for n in range(3, 9)]
    graphs += [path(n) for n in range(2, 10)]
    graphs += [random_simple_graph(rng) for _ in range(n_random)]
    assert all(g.q <= 8 for g in graphs)
    return graphs
