from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegraceful import (
    EdgeLabeling,
    Graph,
    SearchOptions,
    cycle,
    fan,
    lo_check,
    path,
    search,
    verify,
)
from edgegraceful._search import STACK_MARGIN, completion_order
from edgegraceful import _orbits, _search
from support import (
    all_graceful_oracle,
    completion_flags_oracle,
    completion_order_oracle,
    count_graceful_dp,
    count_graceful_oracle,
    lowest_index_order_oracle,
    random_simple_graph,
    shuffled_copy,
    small_corpus,
    src_env,
)

# mode-"first" witnesses: trying each residue class once per level must find
# the same first labeling as trying every unused label
PINNED_WITNESSES = [
    (fan(1, 2), (1, 2, 3)),
    (fan(1, 3), (1, 3, 4, 2, 5)),
    (fan(1, 11), (1, 3, 5, 6, 8, 10, 11, 15, 17, 18, 21, 2, 4, 7, 9, 12, 13, 14, 19, 20, 16)),
    (fan(2, 5), (1, 4, 7, 8, 9, 2, 5, 10, 14, 13, 3, 6, 12, 11)),
    (cycle(9), (1, 2, 3, 4, 5, 6, 7, 8, 9)),
    (path(9), (1, 2, 3, 4, 5, 6, 7, 8)),
]

# nodes_expanded of each pinned graph in mode "first" and in mode "all" with
# limit 200, recorded from the kernel before count mode broke symmetries
PINNED_NODES = [(3, 15), (5, 152), (69, 69), (23, 34), (9, 10973), (8, 10972)]

# (solution_count, nodes_expanded) in mode "count" of the perfbench refute
# families, unshuffled; the node counts pin the symmetry-reduced class tree.
# The cycles and the even paths have q = p or p - 1, so their trees were
# recorded from the kernel that also applies the multiplier rule; the fans
# and P_9 keep the trees of the orbit rule alone.  On the cycles the shift
# rule replaced the orbit rule with the same trees: both put label p first
PINNED_COUNT_TREES = [
    (fan(1, 3), 32, 68), (fan(1, 4), 0, 1_498), (fan(1, 5), 0, 35_154),
    (fan(2, 2), 32, 76), (fan(2, 3), 0, 2_567),
    (cycle(7), 336, 149), (cycle(8), 0, 1_360), (cycle(9), 3_240, 4_953),
    (path(8), 0, 825), (path(9), 360, 10_116), (path(10), 0, 14_610),
]


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# sha256 of repr() of the labels of every labeling that mode "all" with
# limit 1000 returns, in order.  The fans' digests were recorded from the
# kernel that built each leaf's labelings inside the recursion, K_7's from
# the one that expanded a leaf through an eager itertools.product.  A leaf
# of F_{2,5} stands for 128 labelings and one of F_{1,11} for 512, all in
# classes of two labels; K_7's classes hold three
PINNED_ALL_ORDERS = [
    (fan(2, 5), "4478a4ed88336a6ed389c5fcc00d2ce0d2ae9e946d2c5ce624f966fd905bd740"),
    (fan(1, 11), "d1078d72751ec15d477ceb0b3985eef62c3ab2eeea4b355a4b376ca8f87f9a25"),
    (complete(7), "e75b6ef6c0e2903939fd53efee26028bbecb6b31ec80a8c3444eaf0e16acbaa5"),
]

# (graph, nodes_expanded, sha256 of repr() of the witness labels) in mode
# "first" of trees whose labels run far past 64 bits: q = 259, 258 and 800,
# the last exactly at the depth guard of the default recursion limit.
# Recorded from the kernel that walked every label with a class test at each
# node
PINNED_DEEP_FIRST = [
    (fan(4, 52), 867_293, "1ae3db951885d9469dfc3d4494da2d43fc8b7e08fab5746735352de63be9d6b4"),
    (fan(6, 37), 11_166, "06b9062d4f24429933a9779beda108a890a01f61a5ce02285fbc86506a4443f6"),
    (path(801), 800, "d6dc2adf0df31950d667dd42585cd91ac50286cdc735f431c85c6f185bca5ec5"),
]

# K_5 has q = 2p, so no label is alone in its residue class; 787 200 is the
# count of the 10! permutation scan, 235 470 the plain class tree's size,
# 58 869 the size left by the multiplier rule and 11 775 by it and the shift
# rule, since K_5 is regular
K5 = complete(5)
# the octahedron K_{2,2,2}: 4-regular, p = 6 and q = 12
OCTAHEDRON = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in
                       ((0, 1), (2, 3), (4, 5))])
# a triangle with a two-edge tail: p = q = 5 but not regular, so no shift
TAILED_TRIANGLE = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])


def cycles(*lengths: int) -> Graph:
    """The disjoint union of cycles of the given lengths: 2-regular, q = p."""
    edges, start = [], 0
    for n in lengths:
        edges += [(start + u, start + v) for u, v in cycle(n).edges]
        start += n
    return Graph(start, edges)


def solution_set(outcome) -> set[tuple[int, ...]]:
    return {sol.labels for sol in outcome.solutions}


class TestOptions:
    def test_defaults(self):
        opts = SearchOptions()
        assert opts.mode == "first"
        assert opts.limit is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SearchOptions(mode="some")

    def test_rejects_unknown_edge_order(self):
        # completion_order is the only edge order; there is no field to set
        with pytest.raises(TypeError, match="edge_order"):
            SearchOptions(edge_order="as-given")

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError, match="limit"):
            SearchOptions(mode="all", limit=0)


    @pytest.mark.parametrize("limit", [2.5, True, "2"])
    def test_rejects_non_integer_limit(self, limit):
        # the limit caps solution_count, so a float would come back as the count
        with pytest.raises(ValueError, match="limit must be an integer"):
            SearchOptions(mode="count", limit=limit)


def assert_steps_match_oracles(g) -> None:
    steps = completion_order(g)
    order = [i for i, _, _ in steps]
    assert order == completion_order_oracle(g)
    assert [(u_done, v_done) for _, u_done, v_done in steps] == completion_flags_oracle(g, order)


class TestCompletionOrder:
    def test_is_a_permutation_of_edge_indices(self):
        for g in (fan(1, 5), cycle(6), path(7), fan(2, 3)):
            order = [i for i, _, _ in completion_order(g)]
            assert sorted(order) == list(range(g.q))

    def test_is_the_kernel_plan_not_a_public_name(self):
        import edgegraceful

        assert "completion_order" not in edgegraceful.__all__
        with pytest.raises(AttributeError):
            edgegraceful.completion_order

    def test_fan_order_walks_the_path(self):
        # early prefix completes the first path vertex after two edges
        g = fan(1, 11)
        steps = completion_order(g)
        # (hub, p1) then (p1, p2), which completes p1
        assert steps[:2] == [(0, False, False), (11, True, False)]

    def test_matches_the_oracles_on_the_corpus_and_shuffles(self):
        rng = random.Random(2024)
        for g in small_corpus():
            for h in (g, shuffled_copy(g, rng), shuffled_copy(g, rng)):
                assert_steps_match_oracles(h)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_oracles_on_random_graphs(self, rng):
        assert_steps_match_oracles(random_simple_graph(rng, max_p=9, max_q=14))

    def test_generator_graphs_keep_their_order(self):
        # on the plain generator graphs the started-first tie never overrides
        # the lowest index, so their orders, witnesses and trees stay
        graphs = [fan(m, n) for m in range(1, 4) for n in range(1, 13)]
        graphs += [cycle(n) for n in range(3, 21)] + [path(n) for n in range(2, 21)]
        for g in graphs:
            assert completion_order_oracle(g) == lowest_index_order_oracle(g)

    def test_hub_fan_is_ordered_in_one_pass(self):
        # q = 25 241 with six hubs of degree 3 606: a rescan per step takes
        # minutes here, and a walk of a hub's edges at every placement seconds
        g = fan(6, 3606)
        steps = completion_order(g)
        order = [i for i, _, _ in steps]
        assert sorted(order) == list(range(g.q))
        assert [(u_done, v_done) for _, u_done, v_done in steps] == completion_flags_oracle(g, order)

    def test_shuffled_path_walks_end_to_end(self):
        # the started-first tie keeps one walk however the edges are listed,
        # so every shuffle finds the witness with one node per edge
        rng = random.Random(17)
        for _ in range(20):
            out = search(shuffled_copy(path(17), rng), SearchOptions(mode="first"))
            assert out.solution_count == 1
            assert out.nodes_expanded == 16


class TestSearchFirst:
    def test_smallest_fan(self):
        out = search(fan(1, 2), SearchOptions(mode="first"))
        assert out.solution_count == 1
        assert verify(out.solutions[0]).edge_graceful
        # (1,2,3) is itself valid on the triangle
        assert verify(EdgeLabeling(fan(1, 2), (1, 2, 3))).edge_graceful

    def test_found_means_not_exhausted(self):
        out = search(fan(1, 2), SearchOptions(mode="first"))
        assert not out.exhausted

    def test_no_solution_means_exhausted(self):
        out = search(fan(1, 1), SearchOptions(mode="first"))
        assert out.solution_count == 0
        assert out.exhausted

    def test_fan_11_with_pruning(self):
        out = search(fan(1, 11), SearchOptions(mode="first"))
        assert out.solution_count == 1
        assert verify(out.solutions[0]).edge_graceful

    def test_deterministic_across_runs(self):
        a = search(fan(1, 3), SearchOptions(mode="first"))
        b = search(fan(1, 3), SearchOptions(mode="first"))
        assert a.solutions[0].labels == b.solutions[0].labels
        assert a.nodes_expanded == b.nodes_expanded


class TestSearchAllAndCount:
    def test_refutes_fan_4(self):
        out = search(fan(1, 4), SearchOptions(mode="all"))
        assert out.solution_count == 0
        assert out.exhausted

    def test_triangle_count_matches_oracle(self):
        expected = count_graceful_oracle(fan(1, 2))
        assert expected == 6
        out = search(fan(1, 2), SearchOptions(mode="count"))
        assert out.solution_count == 6
        assert out.solutions == ()
        assert out.exhausted

    def test_fan_3_count_matches_oracle(self):
        expected = count_graceful_oracle(fan(1, 3))
        assert expected == 32
        out = search(fan(1, 3), SearchOptions(mode="all"))
        assert out.solution_count == 32

    def test_limit_caps_collection(self):
        out = search(fan(1, 2), SearchOptions(mode="all", limit=2))
        assert out.solution_count == 2
        assert len(out.solutions) == 2
        assert not out.exhausted

    def test_limit_caps_count_mode(self):
        out = search(fan(1, 2), SearchOptions(mode="count", limit=4))
        assert out.solution_count == 4
        assert not out.exhausted

    def test_all_solutions_pass_verify(self):
        out = search(cycle(5), SearchOptions(mode="all"))
        assert out.solution_count == 20
        for sol in out.solutions:
            assert verify(sol).edge_graceful


class TestPruningSoundness:
    """Pruning removes no valid labeling: the kernel's all-mode set equals the
    set found by scanning every permutation, and its tree is no larger than
    the unpruned tree that places every unused label at every level."""

    @pytest.mark.parametrize("build", [lambda: fan(1, 3), lambda: cycle(5), lambda: path(5)])
    def test_same_solution_set_with_and_without_pruning(self, build):
        g = build()
        pruned = search(g, SearchOptions(mode="all"))
        plain = all_graceful_oracle(g)
        assert solution_set(pruned) == plain
        assert pruned.solution_count == len(plain)
        unpruned_nodes = sum(math.perm(g.q, k) for k in range(1, g.q + 1))
        assert pruned.nodes_expanded <= unpruned_nodes


class TestResidueClassSearch:
    """The kernel tries one label per residue class and level; the permutation
    oracle, which shares no code with it, checks what each leaf stands for."""

    @pytest.mark.parametrize(
        "g",
        [g for g in small_corpus(n_random=50) if g.q <= 7]
        + [fan(1, 3), fan(2, 2), fan(2, 3), cycle(7), cycle(8), cycles(3, 4), cycles(3, 5)],
    )
    def test_count_matches_permutation_oracle(self, g):
        expected = count_graceful_oracle(g)
        rng = random.Random(str(g.edges))
        for h in (g, shuffled_copy(g, rng), shuffled_copy(g, rng)):
            out = search(h, SearchOptions(mode="count"))
            assert out.solution_count == expected
            assert out.exhausted

    @pytest.mark.parametrize("g", [fan(1, 3), fan(2, 2), cycle(5), path(5)],
                             ids=["fan13", "fan22", "cycle5", "path5"])
    def test_all_matches_permutation_oracle(self, g):
        out = search(g, SearchOptions(mode="all"))
        assert solution_set(out) == all_graceful_oracle(g)
        assert out.solution_count == len(out.solutions)
        assert out.exhausted

    @pytest.mark.parametrize("g, labels", PINNED_WITNESSES)
    def test_first_mode_witness_is_pinned(self, g, labels):
        assert search(g).solutions[0].labels == labels

    @pytest.mark.parametrize("g, nodes, digest", PINNED_DEEP_FIRST,
                             ids=["fan4_52", "fan6_37", "path801"])
    def test_deep_first_mode_trees_are_pinned(self, g, nodes, digest):
        out = search(g)
        witness = out.solutions[0]
        assert out.nodes_expanded == nodes
        assert hashlib.sha256(repr(witness.labels).encode()).hexdigest() == digest
        assert verify(witness).edge_graceful

    def test_all_mode_limit_with_multiplicity_three(self):
        # p = 12, q = 29: five classes hold three labels, seven hold two
        g = fan(2, 10)
        out = search(g, SearchOptions(mode="all", limit=50))
        assert out.solution_count == 50
        assert len(solution_set(out)) == 50
        assert all(verify(sol).edge_graceful for sol in out.solutions)
        assert out.solutions[0] == search(g).solutions[0]
        assert not out.exhausted

    def test_count_limit_clamps_a_weighted_leaf(self):
        # p = 4, q = 5: every leaf stands for 2! labelings
        out = search(fan(1, 3), SearchOptions(mode="count", limit=5))
        assert out.solution_count == 5
        assert not out.exhausted

    @pytest.mark.parametrize("g, nodes", list(zip((g for g, _ in PINNED_WITNESSES), PINNED_NODES)))
    def test_first_and_all_mode_trees_are_pinned(self, g, nodes):
        first = search(g, SearchOptions(mode="first")).nodes_expanded
        assert (first, search(g, SearchOptions(mode="all", limit=200)).nodes_expanded) == nodes


def frame_depth() -> int:
    """Frames on the stack from the caller of this function outward."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestLeafRule:
    """Every mode adds the leaf's weight; modes "first" and "all" keep the
    leaf and build its labelings after the recursion has returned."""

    @pytest.mark.parametrize("g", [fan(1, 3), fan(2, 2), cycle(5)],
                             ids=["fan13", "fan22", "cycle5"])
    def test_a_limit_returns_a_prefix_of_the_whole_sequence(self, g):
        whole = search(g, SearchOptions(mode="all")).solutions
        for k in range(1, len(whole) + 1):
            assert search(g, SearchOptions(mode="all", limit=k)).solutions == whole[:k]

    @pytest.mark.parametrize("g, digest", PINNED_ALL_ORDERS, ids=["fan25", "fan1_11", "K7"])
    def test_all_mode_order_is_pinned(self, g, digest):
        labels = [sol.labels for sol in search(g, SearchOptions(mode="all", limit=1000)).solutions]
        assert len(labels) == 1000
        assert hashlib.sha256(repr(labels).encode()).hexdigest() == digest

    def test_labelings_are_built_near_the_caller(self, monkeypatch):
        # an odd path reaches its leaf 199 place frames deep; the labeling is
        # built after those frames have returned
        depths = []

        class DepthProbe(EdgeLabeling):
            def __init__(self, *args):
                depths.append(frame_depth())
                super().__init__(*args)

        monkeypatch.setattr(_search, "EdgeLabeling", DepthProbe)
        caller = frame_depth()
        out = search(path(201))
        assert out.solution_count == 1 and len(depths) == 1
        assert depths[0] - caller <= 5

    def test_a_limit_builds_only_what_it_returns(self):
        # K_17's 17 classes hold 8 labels each; expanding every class's
        # 8! permutations up front peaked at 73 MiB
        tracemalloc.start()
        try:
            out = search(complete(17), SearchOptions(mode="all", limit=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.solutions) == out.solution_count == 2
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("g", [fan(1, 11), fan(2, 10)], ids=["fan1_11", "fan2_10"])
    def test_first_mode_never_permutes(self, g, monkeypatch):
        # a kept leaf is already its own first labeling, so mode "first"
        # returns it without building any class's permutations
        def no_permutations(*args):
            raise AssertionError("mode 'first' permuted a class")

        monkeypatch.setattr(_search.itertools, "permutations", no_permutations)
        out = search(g)
        assert out.solution_count == 1 and len(out.solutions) == 1
        assert verify(out.solutions[0]).edge_graceful


class TestSymmetryBreaking:
    """Count mode puts a label that is alone in its residue class on one edge
    per automorphism orbit and weights the leaf by the orbit's size."""

    def test_count_without_a_class_unique_label(self):
        out = search(K5, SearchOptions(mode="count"))
        assert (out.solution_count, out.nodes_expanded) == (787_200, 11_775)
        assert out.exhausted

    @pytest.mark.parametrize("g, count, nodes", PINNED_COUNT_TREES)
    def test_count_mode_trees_are_pinned(self, g, count, nodes):
        out = search(g, SearchOptions(mode="count"))
        assert (out.solution_count, out.nodes_expanded, out.exhausted) == (count, nodes, True)

    def test_count_limit_cuts_a_shift_weighted_leaf(self):
        # C_5: one leaf, weighted by 5 shifts and 4 unit multiples, holds all 20
        out = search(cycle(5), SearchOptions(mode="count", limit=7))
        assert out.solution_count == 7
        assert not out.exhausted

    @pytest.mark.parametrize("limit, nodes", [(1, 4), (3, 25)])
    def test_count_limit_cuts_an_orbit_weighted_leaf(self, limit, nodes):
        # P_5: the orbit rule alone (odd p, q = p - 1), its label 1 on one
        # edge of the two orbits of 2 edges, so each of its 2 leaves adds 2 of
        # the 4; both limits stop inside a leaf
        out = search(path(5), SearchOptions(mode="count", limit=limit))
        assert (out.solution_count, out.nodes_expanded, out.exhausted) == (limit, nodes, False)
        assert search(path(5), SearchOptions(mode="count")).solution_count == 4

    @pytest.mark.parametrize("g, before", [(cycle(7), 6_223), (cycle(8), 31_584),
                                           (cycle(9), 178_353), (path(10), 103_109),
                                           (fan(1, 5), 61_614)])
    def test_tree_shrinks(self, g, before):
        # before: the class tree's size without symmetry breaking
        assert search(g, SearchOptions(mode="count")).nodes_expanded < before

    def test_count_is_exact_when_edge_orbits_gives_up(self, monkeypatch):
        monkeypatch.setattr(_orbits, "ORBIT_WORK_LIMIT", 0)
        for g in (TAILED_TRIANGLE, fan(1, 3), fan(2, 3), path(6)):
            assert search(g, SearchOptions(mode="count")).solution_count == count_graceful_oracle(g)

    @pytest.mark.parametrize("limit", [1, 5, 50_000])
    def test_count_without_either_rule_searches_the_plain_tree(self, limit, monkeypatch):
        # q >= 2p and q mod p is neither 0 nor p - 1: count mode breaks no
        # symmetry, so it walks mode "all"'s tree and stops at the same leaf.
        # A leaf stands for 6 912 (q = 19) or 20 736 (q = 20) labelings, so
        # only the last limit passes leaves; mode "all" builds no records here
        monkeypatch.setattr(_search, "EdgeLabeling", lambda graph, labels: None)
        for g in neither_rule_corpus():
            outcomes = {(out.solution_count, out.nodes_expanded, out.exhausted)
                        for out in (search(g, SearchOptions(mode=mode, limit=limit))
                                    for mode in ("count", "all"))}
            assert len(outcomes) == 1, (g, outcomes)

    def test_only_the_orbit_rule_loads_the_orbit_search(self):
        # K_5 has q = 2p: the multiplier and shift rules, which need no
        # automorphisms; C_5 is 2-regular, so the shift rule replaces the
        # orbit rule; F_{1,3} has q < 2p and is not regular
        code = ("import sys, edgegraceful as eg\n"
                "k5 = eg.Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])\n"
                "count = eg.SearchOptions(mode='count')\n"
                "assert eg.search(k5, count).solution_count == 787_200\n"
                "assert eg.search(eg.cycle(5), count).solution_count == 20\n"
                "assert 'edgegraceful._orbits' not in sys.modules\n"
                "assert eg.search(eg.fan(1, 3), count).solution_count == 32\n"
                "assert 'edgegraceful._orbits' in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True, timeout=60)


def neither_rule_corpus(n: int = 6) -> list[Graph]:
    """Seeded edge-graceful graphs with p = 8 and q = 19 or 20, which pass
    Lo's condition and have q >= 2p with q mod p neither 0 nor p - 1."""
    rng = random.Random(30)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    graphs = []
    while len(graphs) < n:
        g = Graph(8, rng.sample(pairs, 19 + len(graphs) % 2))
        if search(g).solution_count:
            graphs.append(g)
    return graphs


def multiplier_corpus(n: int = 60) -> list[Graph]:
    """Seeded random graphs with q = 0 or -1 mod p, 2 <= q <= 8, a fifth of
    them with one isolated vertex added."""
    rng = random.Random(29)
    graphs = []
    while len(graphs) < n:
        g = random_simple_graph(rng, max_p=9, max_q=8)
        if len(graphs) % 5 == 0:
            g = Graph(g.p + 1, g.edges)
        if g.q >= 2 and g.q % g.p in (0, g.p - 1):
            graphs.append(g)
    return graphs


class TestMultiplierSymmetry:
    """When q = 0 or -1 mod p, count mode lets the first label off a residue
    that every unit fixes take one residue per unit orbit, and weights the
    leaf by that orbit's size."""

    def test_count_matches_permutation_oracle(self):
        graphs = multiplier_corpus()
        # q = p and q = p - 1, odd and even p, with and without an isolated vertex
        kinds = {(g.q == g.p, g.p % 2, len({w for e in g.edges for w in e}) < g.p)
                 for g in graphs}
        assert len(kinds) == 8
        rng = random.Random(2029)
        for g in graphs:
            expected = count_graceful_oracle(g)
            for h in (g, shuffled_copy(g, rng)):
                out = search(h, SearchOptions(mode="count"))
                assert (out.solution_count, out.exhausted) == (expected, True), g

    @pytest.mark.parametrize("g, expected", [
        (K5, 787_200), (cycle(9), 3_240),
        *[(Graph(5, random.Random(seed).sample(K5.edges, 9)), 78_720) for seed in range(3)],
    ], ids=["K5", "cycle9", "K5-e-0", "K5-e-1", "K5-e-2"])
    def test_count_matches_all_mode(self, g, expected, monkeypatch):
        # mode "all" sums the plain class tree's weights; its labelings are
        # not read here, so they are not built as records
        monkeypatch.setattr(_search, "EdgeLabeling", lambda graph, labels: None)
        assert search(g, SearchOptions(mode="all")).solution_count == expected
        assert search(g, SearchOptions(mode="count")).solution_count == expected

    @pytest.mark.parametrize("g, limit", [(cycle(7), 50), (cycle(9), 100), (K5, 1_000)],
                             ids=["cycle7", "cycle9", "K5"])
    def test_count_limit_clamps(self, g, limit):
        # a leaf of C_7 stands for 7 shifts times 6 unit multiples: 42 labelings
        out = search(g, SearchOptions(mode="count", limit=limit))
        assert (out.solution_count, out.exhausted) == (limit, False)

    def test_even_p_fails_lo_whenever_the_rule_applies(self):
        # q(q + 1) = 0 and p(p - 1)/2 = p/2 mod p, so the p/2 marker that
        # q = p - 1 uses for even p only ever prunes refutations
        for p in range(2, 61, 2):
            for q in range(1, p * (p - 1) // 2 + 1):
                if q % p in (0, p - 1):
                    assert not lo_check(p, q).divides, (p, q)


class TestShiftSymmetry:
    """On a regular graph with p | q, count mode gives the first-placed edge
    residue 0 and weights the leaf by the p shifts of every residue."""

    @pytest.mark.parametrize("g, expected", [
        (cycles(3, 6), 3_888), (cycles(4, 5), 2_160), (cycles(3, 3, 3), 12_960),
    ], ids=["C3+C6", "C4+C5", "3C3"])
    def test_count_matches_all_mode(self, g, expected, monkeypatch):
        # mode "all" sums the plain class tree's weights; its labelings are
        # not read here, so they are not built as records
        monkeypatch.setattr(_search, "EdgeLabeling", lambda graph, labels: None)
        assert search(g, SearchOptions(mode="all")).solution_count == expected
        rng = random.Random(str(g.edges))
        for h in (g, shuffled_copy(g, rng), shuffled_copy(g, rng)):
            for limit in (None, 1, 1_000):
                out = search(h, SearchOptions(mode="count", limit=limit))
                want = expected if limit is None else min(limit, expected)
                assert (out.solution_count, out.exhausted) == (want, want == expected), h

    @pytest.mark.parametrize("g", [K5, cycles(3, 4), cycles(3, 5), cycles(3, 6), cycles(4, 5),
                                   cycles(3, 3, 3), cycle(9)],
                             ids=["K5", "C3+C4", "C3+C5", "C3+C6", "C4+C5", "3C3", "C9"])
    def test_count_matches_the_residue_dp(self, g):
        expected = count_graceful_dp(g)
        for h in (g, shuffled_copy(g, random.Random(str(g.edges)))):
            for limit in (None, 1_000):
                out = search(h, SearchOptions(mode="count", limit=limit))
                want = expected if limit is None else min(limit, expected)
                assert (out.solution_count, out.exhausted) == (want, want == expected), h

    def test_a_non_regular_graph_is_not_shifted(self):
        # p = q = 5 as on C_5, but the degrees differ: shifting the residues
        # would move the vertex sums unevenly, and a rule that skipped the
        # degree test counted 0 here
        out = search(TAILED_TRIANGLE, SearchOptions(mode="count"))
        assert (out.solution_count, out.exhausted) == (16, True)
        assert count_graceful_oracle(TAILED_TRIANGLE) == 16

    @pytest.mark.parametrize("g, count, nodes", [
        (K5, 787_200, 11_775), (OCTAHEDRON, 0, 888_117),
        (cycles(3, 6), 3_888, 4_497), (cycles(4, 5), 2_160, 4_929),
    ], ids=["K5", "octahedron", "C3+C6", "C4+C5"])
    def test_count_trees_are_pinned(self, g, count, nodes):
        # where no orbit rule gave a factor p the tree shrinks: K_5 and the
        # octahedron to a p-th of the 58 869 and 5 328 684 nodes the
        # multiplier rule leaves, C_3+C_6 and C_4+C_5 to about half of the
        # 9 045 and 10 305 that the orbit rule, whose edge orbits are smaller
        # than p there, and the multiplier rule leave.  The octahedron fails
        # Lo's condition, and mode "all" takes 10 657 350 nodes there
        out = search(g, SearchOptions(mode="count"))
        assert (out.solution_count, out.nodes_expanded, out.exhausted) == (count, nodes, True)
        out = search(shuffled_copy(g, random.Random(str(g.edges))), SearchOptions(mode="count"))
        assert (out.solution_count, out.exhausted) == (count, True)


class TestResidueDP:
    """``count_graceful_dp``, the oracle the shift rule is checked against,
    shares no code with the search; it is checked here against the scan."""

    def test_matches_permutation_oracle(self):
        for g in small_corpus():
            assert count_graceful_dp(g) == count_graceful_oracle(g), g

    def test_state_cap_raises(self):
        with pytest.raises(ValueError, match="states"):
            count_graceful_dp(cycle(11), max_states=1_000)


class TestDegenerateInputs:
    def test_single_vertex_graph_has_the_empty_labeling(self):
        # also the vertexless graph: verify finds the empty labeling graceful
        for g in (path(1), Graph(0, [])):
            empty = EdgeLabeling(g, ())
            assert verify(empty).edge_graceful
            for mode, solutions, exhausted in [("first", (empty,), False),
                                               ("all", (empty,), True),
                                               ("count", (), True)]:
                out = search(g, SearchOptions(mode=mode))
                assert out.solutions == solutions
                assert (out.solution_count, out.nodes_expanded, out.exhausted) == (
                    1, 0, exhausted)
            assert not search(g, SearchOptions(mode="count", limit=1)).exhausted

    def test_edgeless_multi_vertex_graph_refuted(self):
        for p in (2, 3, 7):
            g = Graph(p, [])
            assert not verify(EdgeLabeling(g, ())).edge_graceful
            for mode in ("first", "all", "count"):
                out = search(g, SearchOptions(mode=mode))
                assert (out.solutions, out.solution_count, out.exhausted) == ((), 0, True)
        # refuted before anything of size p is built
        assert search(Graph(10**18, [])).exhausted

    def test_one_edge_graphs_refuted_in_one_node(self):
        # both ends of the one edge induce 1 mod p; the lone vertex of the
        # second graph induces 0, which the edge's ends do not take
        for g in (path(2), Graph(3, [(0, 1)])):
            for mode in ("first", "all", "count"):
                out = search(g, SearchOptions(mode=mode))
                assert (out.solutions, out.solution_count, out.nodes_expanded,
                        out.exhausted) == ((), 0, 1, True)

    def test_isolated_vertices_collide(self):
        # one edge plus two isolated vertices: residues 0 repeat, no labeling
        out = search(Graph(4, [(0, 1)]), SearchOptions(mode="all"))
        assert out.solution_count == 0
        assert out.exhausted

    def test_isolated_rule_answers_before_the_depth_guard(self):
        # a path too deep for the recursion (1 000 edges at the default limit)
        # plus two isolated vertices is refuted, not refused
        q = sys.getrecursionlimit()
        g = Graph(q + 3, path(q + 1).edges)
        for mode in ("first", "all", "count"):
            out = search(g, SearchOptions(mode=mode))
            assert (out.solutions, out.solution_count, out.nodes_expanded,
                    out.exhausted) == ((), 0, 0, True)

    def test_entry_rules_run_before_any_set_up(self, monkeypatch):
        def no_set_up(graph):
            raise AssertionError("search built an edge order")

        monkeypatch.setattr(_search, "completion_order", no_set_up)
        q = sys.getrecursionlimit()
        deep = path(q + 1)
        out = search(Graph(q + 3, deep.edges))
        assert (out.solution_count, out.nodes_expanded, out.exhausted) == (0, 0, True)
        out = search(path(1))
        assert (out.solutions, out.solution_count, out.nodes_expanded, out.exhausted) == (
            (EdgeLabeling(path(1), ()),), 1, 0, False)
        out = search(Graph(3, [(0, 1)]), SearchOptions(mode="count"))
        assert (out.solution_count, out.nodes_expanded, out.exhausted) == (0, 1, True)
        with pytest.raises(ValueError, match="recursion limit"):
            search(deep)

    def test_depth_beyond_recursion_limit_rejected(self):
        # odd paths are labeled 1..q in order, so q levels are reached at once
        depth = sys.getrecursionlimit() - STACK_MARGIN
        n = depth + 1 if depth % 2 == 0 else depth
        assert search(path(n)).solution_count == 1
        with pytest.raises(ValueError, match="recursion limit"):
            search(path(depth + 2))

    def test_deep_caller_gets_value_error(self):
        # the check above leaves STACK_MARGIN frames to the caller; this one uses more
        depth = sys.getrecursionlimit() - STACK_MARGIN
        graph = path(depth + 1 if depth % 2 == 0 else depth)

        def nested(frames: int):
            return nested(frames - 1) if frames else search(graph)

        with pytest.raises(ValueError, match="recursion limit"):
            nested(STACK_MARGIN + 50)
        assert search(graph).solution_count == 1


class TestExhaustiveOracle:
    def test_small_fans(self):
        assert all_graceful_oracle(fan(1, 2))
        assert not all_graceful_oracle(fan(1, 1))
        assert not all_graceful_oracle(fan(1, 4))

    def test_single_edge(self):
        assert not all_graceful_oracle(path(2))

    def test_cycle5(self):
        assert all_graceful_oracle(cycle(5))


class TestOracleEquivalenceSubset:
    # the full corpus run lives in the acceptance suite; spot-check here
    def test_small_graphs(self):
        for g in small_corpus(n_random=8):
            if g.q > 6:
                continue
            out = search(g, SearchOptions(mode="all"))
            assert solution_set(out) == all_graceful_oracle(g)
            for sol in out.solutions:
                assert verify(sol).edge_graceful

    def test_found_labelings_pass_divisibility_screen(self):
        for g in small_corpus(n_random=8):
            if g.q > 6:
                continue
            out = search(g, SearchOptions(mode="first"))
            if out.solution_count:
                assert lo_check(g.p, g.q).divides
