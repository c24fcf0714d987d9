from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgegraceful import EdgeLabeling, Graph, cycle, fan, induce, lo_check, path, verify
from support import junk_values, random_simple_graph, residues_oracle


class TestEdgeLabelingInvariant:
    def test_accepts_permutation(self):
        EdgeLabeling(fan(1, 2), (3, 1, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="one per edge"):
            EdgeLabeling(fan(1, 2), (1, 2))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError, match="permutation"):
            EdgeLabeling(fan(1, 2), (1, 1, 2))

    @pytest.mark.parametrize("labels", [(1.0,), (True,), ("1",), (None,)],
                             ids=["float", "bool", "str", "none"])
    def test_rejects_non_integer_label(self, labels):
        with pytest.raises(ValueError, match="label must be an integer"):
            EdgeLabeling(Graph(2, [(0, 1)]), labels)

    def test_rejects_mixed_types_before_sorting(self):
        with pytest.raises(ValueError, match="label must be an integer"):
            EdgeLabeling(fan(1, 2), ("1", 2.7, 3))

    @pytest.mark.parametrize("labels", [None, 5, 2.0], ids=["none", "int", "float"])
    def test_rejects_non_iterable_labels(self, labels):
        with pytest.raises(ValueError, match="iterable"):
            EdgeLabeling(fan(1, 2), labels)

    def test_list_labels_stored_as_a_tuple(self):
        lab = EdgeLabeling(fan(1, 2), [1, 2, 3])
        assert lab == EdgeLabeling(fan(1, 2), (1, 2, 3))
        assert hash(lab) == hash(EdgeLabeling(fan(1, 2), (1, 2, 3)))
        assert type(lab.labels) is tuple

    def test_label_error_message_is_bounded(self):
        with pytest.raises(ValueError) as info:
            EdgeLabeling(Graph(2, [(0, 1)]), [[1] * 10**5])
        assert len(str(info.value)) < 200

    @given(junk_values)
    def test_junk_raises_only_value_error(self, labels):
        try:
            lab = EdgeLabeling(fan(1, 2), labels)
        except ValueError:
            return
        assert sorted(lab.labels) == [1, 2, 3]
        hash(lab)

    def test_rejects_zero_based(self):
        with pytest.raises(ValueError, match="permutation"):
            EdgeLabeling(fan(1, 2), (0, 1, 2))


class TestInduce:
    def test_smallest_fan_example(self):
        # hand computation: 1+2=3, 1+3=4, 2+3=5 (mod 3)
        got = induce(EdgeLabeling(fan(1, 2), (1, 2, 3)))
        assert got.residues == (0, 1, 2)

    def test_smallest_fan_against_full_enumeration(self):
        g = fan(1, 2)
        for perm in itertools.permutations((1, 2, 3)):
            expect = tuple(residues_oracle(g.p, g.edges, perm))
            assert induce(EdgeLabeling(g, perm)).residues == expect

    def test_single_edge(self):
        got = induce(EdgeLabeling(path(2), (1,)))
        assert got.residues == (1, 1)

    def test_cycle5_sequential(self):
        # vertex sums 1+5, 1+2, 2+3, 3+4, 4+5 (mod 5)
        got = induce(EdgeLabeling(cycle(5), (1, 2, 3, 4, 5)))
        assert got.residues == (1, 3, 0, 2, 4)

    def test_residue_range(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_simple_graph(rng)
            labels = list(range(1, g.q + 1))
            rng.shuffle(labels)
            res = induce(EdgeLabeling(g, labels)).residues
            assert all(0 <= r < g.p for r in res)

    @given(st.data())
    def test_invariant_under_edge_reindexing(self, data):
        # permute the edge list together with its labels: induced map unchanged
        p = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
        q = data.draw(st.integers(1, min(6, len(pairs))))
        edges = data.draw(st.permutations(pairs)).copy()[:q]
        labels = data.draw(st.permutations(list(range(1, q + 1))))
        perm = data.draw(st.permutations(list(range(q))))
        g1 = Graph(p, edges)
        g2 = Graph(p, [edges[i] for i in perm])
        l1 = EdgeLabeling(g1, labels)
        l2 = EdgeLabeling(g2, [labels[i] for i in perm])
        assert induce(l1).residues == induce(l2).residues


class TestVerify:
    def test_smallest_fan_yes(self):
        v = verify(EdgeLabeling(fan(1, 2), (1, 2, 3)))
        assert v.edge_graceful
        assert v.witness is None

    def test_single_edge_no_with_witness(self):
        v = verify(EdgeLabeling(path(2), (1,)))
        assert not v.edge_graceful
        assert v.induced.residues == (1, 1)
        assert v.witness == (0, 1)

    def test_cycle5_yes(self):
        v = verify(EdgeLabeling(cycle(5), (1, 2, 3, 4, 5)))
        assert v.edge_graceful

    def test_yes_means_residues_cover_range(self):
        for g, labels in [
            (fan(1, 2), (1, 2, 3)),
            (cycle(5), (1, 2, 3, 4, 5)),
        ]:
            v = verify(EdgeLabeling(g, labels))
            assert v.edge_graceful
            assert sorted(v.induced.residues) == list(range(g.p))

    def test_one_vertex_graph_vacuously_graceful(self):
        v = verify(EdgeLabeling(path(1), ()))
        assert v.edge_graceful
        assert v.induced.residues == (0,)

    def test_yes_implies_divisibility_screen(self):
        # necessity cross-check on known-good labelings
        for g, labels in [
            (fan(1, 2), (1, 2, 3)),
            (cycle(5), (1, 2, 3, 4, 5)),
        ]:
            assert verify(EdgeLabeling(g, labels)).edge_graceful
            assert lo_check(g.p, g.q).divides


class TestHandshakeCongruence:
    def test_seeded_random_pairs(self):
        rng = random.Random(11)
        for _ in range(500):
            g = random_simple_graph(rng)
            labels = list(range(1, g.q + 1))
            rng.shuffle(labels)
            res = induce(EdgeLabeling(g, labels)).residues
            assert sum(res) % g.p == g.q * (g.q + 1) % g.p

    @given(st.data())
    def test_holds_for_arbitrary_labelings(self, data):
        p = data.draw(st.integers(2, 8))
        pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
        q = data.draw(st.integers(1, min(7, len(pairs))))
        edges = data.draw(st.permutations(pairs))[:q]
        labels = data.draw(st.permutations(list(range(1, q + 1))))
        g = Graph(p, edges)
        res = induce(EdgeLabeling(g, labels)).residues
        assert sum(res) % p == q * (q + 1) % p
