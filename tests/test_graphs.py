from __future__ import annotations

import random
import reprlib
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgegraceful import (
    Graph, SearchOptions, classify_fans, cycle, edge_orbits, fan, lo_check, make_graph, path,
)
from edgegraceful import _orbits
from edgegraceful.graphs import shown
from support import (
    automorphism_edge_orbits, junk_values, random_simple_graph, shuffled_copy, small_corpus,
)

_rng = random.Random(4)
SHUFFLED_FAMILIES = (
    [shuffled_copy(fan(1, n), _rng) for n in range(2, 9)]
    + [shuffled_copy(fan(2, n), _rng) for n in range(1, 6)]
    + [shuffled_copy(cycle(n), _rng) for n in range(3, 12)]
    + [shuffled_copy(path(n), _rng) for n in range(2, 12)]
)

# 4-regular graphs on which some leaves reached with matching cell sizes are
# not automorphisms, so the edge-by-edge check has to reject them
REGULAR_GRAPHS = [
    Graph(10, [(0, 1), (0, 2), (0, 5), (0, 9), (1, 2), (1, 3), (1, 6), (2, 4), (2, 9),
                    (3, 4), (3, 5), (3, 7), (4, 5), (4, 6), (5, 8), (6, 7), (6, 8), (7, 8),
                    (7, 9), (8, 9)]),
    Graph(11, [(0, 4), (0, 5), (0, 8), (0, 9), (1, 5), (1, 6), (1, 7), (1, 10), (2, 5),
                    (2, 7), (2, 8), (2, 9), (3, 6), (3, 8), (3, 9), (3, 10), (4, 6), (4, 8),
                    (4, 10), (5, 9), (6, 7), (7, 10)]),
]


def with_clones(graph: Graph, rng: random.Random) -> Graph:
    """``graph`` with up to three vertices added, each an open twin (same
    neighbours) or a closed twin (same neighbours and adjacent) of a vertex."""
    p, edges = graph.p, list(graph.edges)
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(p)
        nbrs = [x for e in edges if v in e for x in e if x != v]
        edges += [(p, x) for x in nbrs] + ([(p, v)] if rng.random() < 0.5 else [])
        p += 1
    return Graph(p, edges)


_twin_rng = random.Random(5)
# graphs whose automorphisms include twin transpositions: star leaves, fan
# hubs, bipartite parts, clones, and isolated vertices
TWIN_GRAPHS = (
    [with_clones(random_simple_graph(_twin_rng, max_p=6), _twin_rng) for _ in range(40)]
    + [shuffled_copy(g, _twin_rng) for g in (
        Graph(5, [(i, j) for i in range(2) for j in range(2, 5)]),  # K_{2,3}
        Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K_{3,3}
        fan(2, 4),
        fan(3, 3),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),  # C_4 with a pendant
        Graph(6, [(0, 1), (1, 2)]),
        Graph(6, [(0, 1), (1, 2), (2, 0)]),
        Graph(7, [(0, 1), (2, 3), (4, 5)]),
    )]
)


def orbit_partition(ids: list[int]) -> set[frozenset[int]]:
    return {frozenset(i for i, x in enumerate(ids) if x == orbit) for orbit in set(ids)}


class TestMakeGraph:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.p == 2
        assert g.q == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 1), (1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(-1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (0, 1)])

    def test_rejects_reversed_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, [])

    @pytest.mark.parametrize("p, edges", [
        (3, [(0, 1.9), (1, 2)]),  # not truncated to the edge (0, 1)
        (2, [(False, True)]),
        (3, [("0", 1)]),
        (3, [(0, None)]),
    ], ids=["float", "bool", "str", "none"])
    def test_rejects_non_integer_endpoint(self, p, edges):
        with pytest.raises(ValueError, match="endpoint must be an integer"):
            Graph(p, edges)

    @pytest.mark.parametrize("p", [2.5, True, "2", None, [2]])
    def test_rejects_non_integer_vertex_count(self, p):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Graph(p, ((0, 1),))

    @pytest.mark.parametrize("make", [lambda: fan(True, 2), lambda: fan(1, 3.0),
                                      lambda: cycle(5.0), lambda: path(True)],
                             ids=["fan-bool", "fan-float", "cycle-float", "path-bool"])
    def test_generators_reject_non_integer_sizes(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("edges", [[5], [(0, 1, 2)], [(0,)], ["01"], [{0, 1}],
                                       [{0: 1, 1: 0}], None, 5, [(0, 1), None]],
                             ids=["int", "triple", "single", "str", "set", "dict",
                                  "none", "int-edges", "none-edge"])
    def test_rejects_non_pair_edges(self, edges):
        with pytest.raises(ValueError):
            Graph(3, edges)

    def test_error_message_is_bounded(self):
        with pytest.raises(ValueError) as info:
            Graph(3, [[0] * 10**5])
        with pytest.raises(ValueError) as info_endpoint:
            Graph(3, [([0] * 10**5, 1)])
        assert len(str(info.value)) < 200
        assert len(str(info_endpoint.value)) < 200

    def test_make_graph_is_the_constructor(self):
        assert make_graph is Graph

    def test_any_iterable_of_pairs_stored_as_tuples(self):
        g = Graph(3, [[0, 1]])
        assert g == Graph(3, ((0, 1),))
        assert hash(g) == hash(Graph(3, ((0, 1),)))
        assert g.edges == ((0, 1),)
        assert type(g.edges[0]) is tuple
        assert Graph(3, (e for e in [(2, 1), [0, 1]])).edges == ((2, 1), (0, 1))

    def test_empty_graph_ok(self):
        assert Graph(0, []).q == 0
        assert Graph(5, []).q == 0

    def test_fan_1_11_shape(self):
        g = Graph(12, fan(1, 11).edges)
        assert g.p == 12
        assert g.q == 21


BIG = 10**700  # 700 digits and 2326 bits, past a lowered limit of 640 digits


@pytest.fixture
def low_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.usefixtures("low_digit_limit")
class TestMessagesPastTheDigitLimit:
    """Range errors name an int too long to print by its size, so the
    message survives Python's int-to-str digit limit."""

    @pytest.mark.parametrize("call,message", [
        (lambda: lo_check(-BIG, 1),
         "vertex count must be nonnegative, got a negative 2326-bit integer"),
        (lambda: lo_check(1, -BIG),
         "edge count must be nonnegative, got a negative 2326-bit integer"),
        (lambda: classify_fans(-BIG), "n_max must be positive, got a negative 2326-bit integer"),
        (lambda: Graph(-BIG, []),
         "vertex count must be nonnegative, got a negative 2326-bit integer"),
        (lambda: Graph(3, [(0, BIG)]),
         "edge (0,a 2326-bit integer) has an endpoint out of range [0, 3)"),
        (lambda: Graph(BIG, [(0, -BIG)]),
         "edge (0,a negative 2326-bit integer) has an endpoint out of range "
         "[0, a 2326-bit integer)"),
        (lambda: Graph(BIG, [(BIG - 1, BIG - 1)]),
         "self-loop at vertex a 2326-bit integer is not allowed"),
        (lambda: Graph(BIG, [(BIG - 1, 0), (0, BIG - 1)]),
         "duplicate edge (0,a 2326-bit integer)"),
        (lambda: Graph(3, [[BIG]]), "edge 0 is not a pair of vertices: [a 2326-bit integer]"),
        (lambda: Graph([-BIG], []),
         "vertex count must be an integer, got [a negative 2326-bit integer]"),
        (lambda: fan(-BIG, 1), "fan requires m, n >= 1, got m=a negative 2326-bit integer, n=1"),
        (lambda: fan(1, -BIG), "fan requires m, n >= 1, got m=1, n=a negative 2326-bit integer"),
        (lambda: cycle(-BIG), "cycle requires n >= 3, got a negative 2326-bit integer"),
        (lambda: path(-BIG), "path requires n >= 1, got a negative 2326-bit integer"),
        (lambda: SearchOptions(limit=-BIG),
         "limit must be >= 1 when given, got a negative 2326-bit integer"),
        (lambda: SearchOptions(mode=BIG),
         "mode must be one of ('first', 'all', 'count'), got a 2326-bit integer"),
    ])
    def test_message_names_the_int_by_its_size(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_other_values_print_as_reprlib_prints_them(self):
        for value in (-12, True, 1.5, "x", -(10**639), [10**639], (0, 1, 2)):
            assert shown(value) == reprlib.repr(value)


class TestConstructorFuzz:
    @given(st.one_of(junk_values, st.integers(0, 5)), junk_values)
    def test_graph_raises_only_value_error(self, p, edges):
        try:
            g = Graph(p, edges)
        except ValueError:
            return
        assert hash(g) == hash(Graph(g.p, g.edges))
        assert all(type(e) is tuple and len(e) == 2 for e in g.edges)


class TestFan:
    def test_usual_fan_11(self):
        g = fan(1, 11)
        assert (g.p, g.q) == (12, 21)

    def test_degenerate_single_edge(self):
        g = fan(1, 1)
        assert (g.p, g.q) == (2, 1)
        assert g.edges == ((0, 1),)

    def test_fan_2_3_matches_join_definition(self):
        g = fan(2, 3)
        assert (g.p, g.q) == (5, 8)
        # independent enumeration: hubs 0,1; path 2,3,4
        join_edges = {(h, v) for h in (0, 1) for v in (2, 3, 4)}
        join_edges |= {(2, 3), (3, 4)}
        assert {tuple(sorted(e)) for e in g.edges} == join_edges

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            fan(0, 3)
        with pytest.raises(ValueError):
            fan(1, 0)

    def test_usual_fan_counts_up_to_200(self):
        for n in range(1, 201):
            g = fan(1, n)
            assert g.p == n + 1
            assert g.q == 2 * n - 1

    @given(st.integers(1, 6), st.integers(1, 12))
    def test_join_counts(self, m, n):
        g = fan(m, n)
        assert g.p == m + n
        assert g.q == m * n + (n - 1)
        # generated graphs survive re-validation
        assert Graph(g.p, g.edges) == g

    def test_hub_edges_come_first(self):
        g = fan(1, 4)
        assert g.edges[:4] == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert g.edges[4:] == ((1, 2), (2, 3), (3, 4))


class TestCycleAndPath:
    def test_cycle_5(self):
        g = cycle(5)
        assert (g.p, g.q) == (5, 5)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))

    def test_triangle_equals_smallest_fan(self):
        triangle = {frozenset(e) for e in cycle(3).edges}
        assert triangle == {frozenset(e) for e in fan(1, 2).edges}

    def test_cycle_minimum(self):
        with pytest.raises(ValueError):
            cycle(2)

    @pytest.mark.parametrize("n,q", [(1, 0), (2, 1), (4, 3)])
    def test_path_counts(self, n, q):
        g = path(n)
        assert (g.p, g.q) == (n, q)

    def test_path_minimum(self):
        with pytest.raises(ValueError):
            path(0)

    def test_generators_deterministic(self):
        assert fan(3, 4) == fan(3, 4)
        assert cycle(7) == cycle(7)
        assert path(6) == path(6)

    @given(st.integers(3, 30))
    def test_cycles_validate(self, n):
        g = cycle(n)
        assert Graph(g.p, g.edges) == g


class TestEdgeOrbits:
    """edge_orbits against the orbits of every automorphism networkx finds."""

    @pytest.mark.parametrize(
        "g", small_corpus(n_random=50) + SHUFFLED_FAMILIES + REGULAR_GRAPHS + TWIN_GRAPHS
    )
    def test_matches_automorphism_orbits(self, g):
        assert orbit_partition(edge_orbits(g)) == automorphism_edge_orbits(g)

    def test_id_is_smallest_edge_index_of_the_orbit(self):
        for g in SHUFFLED_FAMILIES:
            ids = edge_orbits(g)
            assert all(ids[i] == min(orbit) for orbit in orbit_partition(ids) for i in orbit)

    def test_trivial_graphs(self):
        assert edge_orbits(path(1)) == []
        assert edge_orbits(path(2)) == [0]
        assert edge_orbits(Graph(5, [(0, 1), (3, 4)])) == [0, 0]

    def test_deep_graphs_stay_off_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        assert len(set(edge_orbits(path(n)))) == n // 2
        assert set(edge_orbits(cycle(n))) == {0}
        # a star's leaves are one twin cell, which the first path never splits
        star = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
        assert set(edge_orbits(star)) == {0}

    @pytest.mark.parametrize("n", [100, 500, 1000])
    def test_star_leaves_are_twins(self, n):
        # every transposition of two leaves is an automorphism; networkx would
        # enumerate all n! of them, so the one orbit is asserted directly
        star = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
        assert set(edge_orbits(star)) == {0}

    def test_complete_bipartite_parts_are_twins(self):
        k = Graph(60, [(i, j) for i in range(30) for j in range(30, 60)])
        assert set(edge_orbits(k)) == {0}

    @pytest.mark.parametrize("limit", [0, 150, 200, 400, 800])
    def test_out_of_work_leaves_orbits_finer(self, monkeypatch, limit):
        monkeypatch.setattr(_orbits, "ORBIT_WORK_LIMIT", limit)
        for g in (cycle(11), fan(2, 5), path(10)):
            truth = automorphism_edge_orbits(g)
            found = orbit_partition(edge_orbits(g))
            assert all(any(part <= orbit for orbit in truth) for part in found)
        if limit == 0:
            assert edge_orbits(cycle(11)) == list(range(11))
