from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgegraceful import cycle, fan, make_graph, path


class TestMakeGraph:
    def test_single_edge(self):
        g = make_graph(2, [(0, 1)])
        assert g.p == 2
        assert g.q == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_graph(3, [(0, 1), (1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            make_graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            make_graph(3, [(-1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_graph(3, [(0, 1), (0, 1)])

    def test_rejects_reversed_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_graph(3, [(0, 1), (1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_graph(-1, [])

    def test_empty_graph_ok(self):
        assert make_graph(0, []).q == 0
        assert make_graph(5, []).q == 0

    def test_fan_1_11_shape(self):
        g = make_graph(12, fan(1, 11).edges)
        assert g.p == 12
        assert g.q == 21


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
        assert make_graph(g.p, g.edges) == g

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
        assert make_graph(g.p, g.edges) == g
