"""Backtracking construction (or exhaustive refutation) of edge-graceful labelings.

The search assigns labels to edges depth-first, one edge per level, never
reusing a label.  A vertex's residue depends only on its incident labels mod
p, so labels ``l`` and ``l + p`` are interchangeable: the search tries each
residue class once per level, always with the smallest unused label of that
class.  Those labels are the candidates, and each call gets them as the set
bits of one int, ``avail``, label l as bit l - 1: the root passes labels
1..min(p, q), and a child gets its parent's with the placed label's bit
swapped for that of the next label of its class, if any, so nothing is
undone on the way back.  A call takes the set bits lowest first, so labels
are tried in increasing order, and its work grows with its candidates, at
most min(p, q), not with q.  With q <= 8 every such int, and every step
of taking one apart, is below 256, among the ints the interpreter keeps
cached, so the candidates of a small tree allocate nothing.  Since each
class offers only its smallest unused label, the labels used within a
class always form a prefix, and every leaf reached is the canonical
member of a set of ``prod m_c!`` labelings (``m_c`` the number of labels in
1..q congruent to c) that differ only by permuting labels within classes
and share the leaf's residues.  With ``q = k*p + r`` that weight is
``(k+1)!**r * k!**(p-r)``.  Every mode adds the weight per leaf and stops
once the sum reaches its limit; modes "first" and "all" also keep the leaf,
and after the recursion return the first that many labelings of the kept
leaves.  Each call writes its label at its edge, so a kept leaf is a tuple
in ``graph.edges`` order, already a labeling, and it is its own first
labeling.  So mode "first" returns the first leaf as it is, building
nothing more: of all valid labelings, the one whose labels read in search
order are smallest.  The rest of a leaf's labelings are built lazily, so a
limit builds only those it returns: a recursive generator walks the classes
that hold two or more labels in residue order, and each level runs
``itertools.permutations`` over its class's edges, giving them the class's
labels in ascending order.  The first class varies slowest, as in
``itertools.product``, and every level yields its identity first, so the
walk starts at the leaf itself, which is skipped.

A vertex's residue is finalized the moment its last incident edge gets a
label.  Before a label is placed, the residues it would finalize are checked;
if one is already held by another finalized vertex (or both endpoints would
finalize the same residue) the label is rejected before any state changes,
so every leaf reached is valid.  Edges are placed in ``completion_order``,
which finalizes vertices as early as possible and marks the ones each
position completes.  It picks the whole order in one heap pass, and among
edges that are equally close to completing a vertex it prefers one at a
vertex that already has a placed edge, so a path is walked from one end to
the other however the input lists its edges.  ``nodes_expanded``
counts the labels tried in the class tree, the rejected ones included, not
labelings.

Mode "count" also breaks the graph's symmetry when q < 2p.  Then the label
L = max(q - p, 0) + 1 is the only one in its residue class, so no
within-class permutation moves it, and an automorphism that maps edge e to
e' maps the labelings with L on e one-to-one onto those with L on e'.  The
search puts L only on the first-placed edge of each orbit that
``edge_orbits`` reports, forces it onto the last such edge if it is still
unused there, and weights each leaf by the size of the orbit that holds L.
In mode "count", ``nodes_expanded`` therefore counts placements in the class
tree after symmetry reduction.  Modes "first" and "all" search the plain
class tree, so their witnesses, their order and their node counts do not
depend on the graph's automorphisms.

Everything is deterministic: labels are tried in increasing order and the
edge order is fixed up front, so repeated runs give identical outcomes,
including the node counter and, in mode "first", the same labeling.

The recursion goes one Python frame per edge but the last, whose label is
the one left over: it is checked, not searched.  With one label left, its
class is the only one with a candidate, so the penultimate frame reads it as
the one set bit of the ``avail`` it would pass down.  A leaf makes no call, so
the deepest frame is a ``place`` frame and ``STACK_MARGIN`` is exactly the
frames left to the caller.  The expansion runs after the recursion has
returned and nests the frame of ``leaf_labelings`` and one ``expand`` frame
per class of two or more labels, plus one.  There are none unless q > p,
and then at most min(p, q - p), so at most min(p, q - p) + 2 frames.  A
simple graph on at most 3 vertices has at most 3 edges, so q > p means
p >= 4, and min(p, q - p) + 2 <= q - p + 2 <= q - 2: the expansion stays
below the q - 1 ``place`` frames before it.  With q <= p it nests two
frames, within ``STACK_MARGIN``.
A graph that ``search`` does not answer by rule first is refused with one
ValueError, instead of overflowing, when it has more edges than the
interpreter's recursion limit less ``STACK_MARGIN`` or when a caller deeper
than ``STACK_MARGIN`` frames leaves too little of the limit.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from heapq import heapify, heappop, heappush
from math import factorial

from .graphs import Graph, Record, require_int, shown
from .labeling import EdgeLabeling, verify

MODES = ("first", "all", "count")

STACK_MARGIN = 200  # frames left for the caller above the one-per-edge recursion


class SearchOptions(Record):
    """Knobs for one search run.

    mode: "first" stops at one solution, "all" collects every one, "count"
    tallies without storing labelings.  ``limit`` caps how many solutions the
    run may take in modes "all" and "count" (mode "first" is implicitly 1).
    """

    __slots__ = ("mode", "limit")

    def __init__(self, mode: str = "first", limit: int | None = None) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {shown(mode)}")
        if limit is not None:
            require_int("limit", limit)
            if limit < 1:
                raise ValueError(f"limit must be >= 1 when given, got {shown(limit)}")
        super().__init__(mode, limit)


class SearchOutcome(Record):
    """Result of a search run.

    ``nodes_expanded`` counts the search nodes the run expanded.
    ``exhausted`` is true iff the whole assignment space was covered, i.e.
    the run was not cut short by mode "first" or by ``limit``.
    ``solution_count`` equals len(solutions) except in mode "count", where
    no labelings are stored.
    """

    __slots__ = ("solutions", "solution_count", "nodes_expanded", "exhausted")


def completion_order(graph: Graph) -> list[tuple[int, bool, bool]]:
    """Edge order that finalizes low-degree vertices as early as possible.

    Greedy: repeatedly take the edge whose endpoint is closest to having all
    its incident edges placed; among those, one with an endpoint that is
    already started (has a placed edge), then the lowest edge index.  On a
    fan this walks the path outward from one end, completing a vertex every
    two edges, which is where the residue pruning bites.  The started-first
    tie keeps a path's walk on one growing segment wherever its edges are
    listed, so a shuffled path is ordered end to end like a plain one.  Each
    step ``(i, u_done, v_done)`` places edge ``i = (u, v)`` and flags the
    endpoints it completes.

    One heap pass: edge i's key ``(2 * min count + neither started) * q + i``
    only falls, so it is pushed again when it drops and a popped entry that
    is no longer the edge's key is skipped.  Placing an edge at w walks w's
    edges to lower their keys, unless no key there can fall: w is complete,
    or w was already started and its count is at least the degree of each
    neighbour.  So a hub is walked only at its first and last few
    placements, not once per placement.
    """
    p, q, edges = graph.p, graph.q, graph.edges
    remaining = [0] * p  # incident edges not yet placed, per vertex
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(p)]  # (edge, other end)
    for i, (u, v) in enumerate(edges):
        remaining[u] += 1
        remaining[v] += 1
        nbrs[u].append((i, v))
        nbrs[v].append((i, u))
    top = [0] * p  # the largest degree among each vertex's neighbours
    key = []  # per edge its current key, -1 once placed
    q2 = 2 * q
    for i, (u, v) in enumerate(edges):
        du, dv = remaining[u], remaining[v]
        if dv > top[u]:
            top[u] = dv
        if du > top[v]:
            top[v] = du
        key.append((du if du < dv else dv) * q2 + q + i)  # neither end is started
    first = [d - 1 for d in remaining]  # a vertex's count after its first placement
    heap = key[:]
    heapify(heap)
    steps: list[tuple[int, bool, bool]] = []
    for _ in range(q):
        k = heappop(heap)
        i = k % q
        while key[i] != k:  # stale, or the edge is placed
            k = heappop(heap)
            i = k % q
        key[i] = -1
        u, v = edges[i]
        ru = remaining[u] = remaining[u] - 1
        rv = remaining[v] = remaining[v] - 1
        steps.append((i, ru == 0, rv == 0))
        for w, rw in ((u, ru), (v, rv)):
            if rw == 0 or top[w] <= rw < first[w]:  # no key at w can fall
                continue
            for j, x in nbrs[w]:  # w is started, so these keys have no +q
                rx = remaining[x]
                k = (rw if rw < rx else rx) * q2 + j
                if k < key[j]:
                    key[j] = k
                    heappush(heap, k)
    return steps


def _too_deep(q: int) -> ValueError:
    """The one refusal of a graph too deep for the one-frame-per-edge recursion."""
    return ValueError(f"graph has {q} edges; the search recurses once per edge and "
                      f"would pass the interpreter's recursion limit of {sys.getrecursionlimit()}")


def search(graph: Graph, options: SearchOptions | None = None) -> SearchOutcome:
    """Depth-first search for edge-graceful labelings of ``graph``.

    Every graph the constructor accepts gets an answer, unless it reaches the
    recursion with more edges than the depth guard (module docstring) allows.
    Two isolated vertices both induce residue 0, so a graph with more than
    one is refuted at once, whatever its size.  A graph with at most one edge
    has one labeling, 1..q, and ``verify`` decides it (only the empty one, on
    at most one vertex, passes).
    """
    opts = options or SearchOptions()
    p, q = graph.p, graph.q
    target = 1 if opts.mode == "first" else opts.limit
    collect = opts.mode != "count"

    # isolated vertices all induce residue 0; two of them collide for good.
    # Checked before anything of size p is built, so p may be any size.
    isolated = p - len({w for edge in graph.edges for w in edge})
    if isolated > 1:
        return SearchOutcome((), 0, 0, True)
    if q <= 1:
        # the one labeling, on p <= 3 vertices now; each of its q labels is a node
        labeling = EdgeLabeling(graph, range(1, q + 1))
        found = verify(labeling).edge_graceful
        return SearchOutcome((labeling,) if found and collect else (), int(found), q,
                             not found or target != 1)
    if q > sys.getrecursionlimit() - STACK_MARGIN:
        raise _too_deep(q)

    steps = completion_order(graph)

    # labelings each leaf stands for: rem classes hold k+1 labels, p-rem hold k
    k, rem = divmod(q, p)
    weight = factorial(k + 1) ** rem * factorial(k) ** (p - rem)

    sym_label, forced_pos, orbit_size_at = 0, -1, []  # 0: no symmetry breaking
    masks = [-1] * q  # per position, the labels it may take (label l is bit l - 1): all
    if not collect and q < 2 * p:
        # symmetry breaking (module docstring): sym_label, alone in its class,
        # goes on each orbit's first-placed edge only; the orbit search is
        # loaded here, so modes "first" and "all" never compile it
        from ._orbits import edge_orbits

        sym_label = max(q - p, 0) + 1
        orbit = edge_orbits(graph)
        orbit_size = Counter(orbit)
        rep_pos: dict[int, int] = {}
        for pos, (i, _, _) in enumerate(steps):
            rep_pos.setdefault(orbit[i], pos)
        reps = set(rep_pos.values())
        forced_pos = max(reps)
        masks = [-1 if pos in reps else ~(1 << sym_label - 1) for pos in range(q)]
        orbit_size_at = [orbit_size[o] for o in orbit]  # per edge
    # per position: the edge, its ends, whether it completes them, the labels it may take
    plan = [(i, *graph.edges[i], u_done, v_done, masks[pos])
            for pos, (i, u_done, v_done) in enumerate(steps)]
    last, a, b = plan[-1][:3]  # the last edge, checked at position q - 2
    penult = q - 2

    # per label x, the bits that swap it for the next label of its class (x's alone if none)
    flip = [0] + [1 << x - 1 | (1 << x + p - 1 if x + p <= q else 0) for x in range(1, q + 1)]
    sums = [0] * p
    residue_taken = [False] * p
    residue_taken[0] = bool(isolated)
    labels = [0] * q  # per edge, the label on the current path
    leaves: list[tuple[int, ...]] = []  # modes "first" and "all": every leaf reached
    count = 0
    nodes = 0
    stopped = False

    def leaf_labelings(leaf: tuple[int, ...]):
        """A kept leaf's labelings, one at a time: the leaf itself first.

        The leaf is already a labeling in edge order, so it is yielded before
        anything is built.  Only a request for a second labeling builds the
        edges of each class, in level order, and runs ``expand`` on a copy,
        skipping its identity, which is the leaf.
        """
        yield leaf
        classes: list[list[int]] = [[] for _ in range(p)]  # edges per class, in level order
        for i, _, _ in steps:
            classes[leaf[i] % p].append(i)
        # the classes that can move, each with its labels, which ascend in level order
        moves = [(c, [leaf[i] for i in c]) for c in classes if len(c) > 1]
        yield from itertools.islice(expand(list(leaf), moves, 0), 1, None)

    def expand(labeling: list[int], moves: list[tuple[list[int], list[int]]], level: int):
        """Every within-class permutation from ``level`` on, the first class slowest."""
        if level == len(moves):
            yield tuple(labeling)
            return
        edges, ascending = moves[level]
        for perm in itertools.permutations(edges):  # the identity first
            for i, lab in zip(perm, ascending):
                labeling[i] = lab
            yield from expand(labeling, moves, level + 1)

    def place(pos: int, avail: int) -> None:
        nonlocal nodes, count, stopped
        i, u, v, cu, cv, mask = plan[pos]
        su, sv = sums[u], sums[v]
        if pos == forced_pos and avail >> sym_label - 1 & 1:
            mask = 1 << sym_label - 1  # the last representative: nowhere else is left
        cand = avail & mask
        while cand:
            left = cand & cand - 1  # cand without its lowest bit, the smallest label
            lab = (cand ^ left).bit_length()
            cand = left
            nodes += 1
            # reject a colliding label before any state changes
            if cu:
                ru = (su + lab) % p
                if residue_taken[ru]:
                    continue
            if cv:
                rv = (sv + lab) % p
                if residue_taken[rv] or (cu and rv == ru):
                    continue
            labels[i] = lab
            sums[u] = su + lab
            sums[v] = sv + lab
            if cu:
                residue_taken[ru] = True
            if cv:
                residue_taken[rv] = True
            rest = avail ^ flip[lab]  # lab's class moves on to its next label
            if pos == penult:
                # the last edge takes the one label left, x, and completes both
                # ends.  One label is left, so rest holds its bit alone.  No
                # symmetry test: if the last position is a representative, x is
                # sym_label just when it is unused, as forcing asks; if not,
                # forced_pos placed sym_label
                nodes += 1
                x = rest.bit_length()
                ra = (sums[a] + x) % p
                rb = (sums[b] + x) % p
                if ra != rb and not residue_taken[ra] and not residue_taken[rb]:
                    # the leaf: its weight, times the orbit holding sym_label
                    labels[last] = x
                    count += (weight * orbit_size_at[labels.index(sym_label)]
                              if sym_label else weight)
                    if collect:
                        leaves.append(tuple(labels))
                    if target is not None and count >= target:
                        count = target
                        stopped = True
            else:
                place(pos + 1, rest)
            if cu:
                residue_taken[ru] = False
            if cv:
                residue_taken[rv] = False
            sums[u] = su
            sums[v] = sv
            if stopped:
                return

    try:
        place(0, (1 << min(p, q)) - 1)  # each class's smallest label: 1..min(p, q)
    except RecursionError:
        # the caller holds more than the STACK_MARGIN frames the check leaves it
        raise _too_deep(q) from None
    # the first count labelings of the kept leaves, each leaf's own first
    labelings = itertools.chain.from_iterable(map(leaf_labelings, leaves))
    solutions = tuple(EdgeLabeling(graph, labels)
                      for labels in itertools.islice(labelings, count))
    return SearchOutcome(solutions, count, nodes, not stopped)
