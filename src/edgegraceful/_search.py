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

Mode "count" also breaks three symmetries.  Multiplying every label's
residue by a unit a mod p multiplies every vertex residue by a, so distinct
residues stay distinct.  When q = kp or kp + p - 1 it also keeps every
class's size, so it maps the leaves of the class tree one-to-one onto leaves
of the same weight.  The residues every unit fixes are 0 and, for even p,
p/2; any other residue r lies in a unit orbit of phi(p/g) residues, g =
gcd(r, p), and the leaves whose first label in search order off a
unit-fixed residue has residue r are as many for every r of that orbit.  So
the multiplier rule lets that label be only a divisor g of p, which is the
label g, and weights the leaf by phi(p/g).  It can come no later than one
past the number of unit-fixed labels, so only the positions up to there
read the path to find their labels.  For even p every graph the rule
applies to fails Lo's condition, since q(q + 1) = 0 and p(p - 1)/2 = p/2
mod p: there the rule only shortens refutations.  Where the rule is off,
count mode uses the trivial unit group instead: every residue is unit-fixed,
no label is moved, and no position reads the path for this rule.

The shift rule applies when p | q and every vertex has the same degree d.
Adding t to every label's residue adds t*d to every vertex residue, S_v ->
S_v + t*d, so distinct residues stay distinct, and since every class holds
q/p labels it keeps every class's size: it maps leaves one-to-one onto
leaves of the same weight.  Exactly one of the p shifts gives the
first-placed edge residue 0, so position 0 takes only the label p and each
leaf is weighted by p.  With p | q the multiplier rule applies too, and
the two chain: every unit fixes residue 0, so the units map the leaves with
residue 0 at position 0 onto each other and the multiplier rule runs on them
unchanged; together they break the maps x -> a*x + t.  When q = p the graph
is 2-regular, a union of cycles, and the orbit rule would also put the
label p first; the shift's factor p is at least the size of any edge orbit,
so the shift rule replaces the orbit rule there.

The orbit rule applies when q < 2p and the shift rule does not.  A label L
alone in its residue class is moved by no within-class permutation, so an
automorphism that maps edge e to e' maps the labelings with L on e
one-to-one onto those with L on e'.  The search puts L only on the
first-placed edge of each orbit that ``edge_orbits`` reports, forces it onto
the last such edge if it is still unused there, and weights each leaf by the
size of the orbit that holds L.  With the multiplier rule, L must sit on a
residue that every unit fixes, so that multiplying keeps it in place: L = p
when p <= q < 2p and L = p/2 when q = p - 1 and p is even.  A graph with
q = p - 1 and odd p has no such label, so it gets the orbit rule alone, as
does every graph with q < 2p outside the multiplier rule, with
L = max(q - p, 0) + 1.  When q >= 2p only the multiplier and shift rules
can apply, so ``edge_orbits`` is loaded only when q < 2p and the graph is
not 2-regular.  In mode "count", ``nodes_expanded`` therefore counts
placements in the class tree after symmetry reduction.  Modes "first" and
"all" search the plain class tree, so their witnesses, their order and
their node counts do not depend on the graph's automorphisms or on the
multiplier and shift rules.

Everything is deterministic: labels are tried in increasing order and the
edge order is fixed up front, so repeated runs give identical outcomes,
including the node counter and, in mode "first", the same labeling.

The recursion goes one Python frame per edge but the last, whose label is
the one left over: it is checked, not searched.  With one label left, its
class is the only one with a candidate, so the penultimate frame reads it as
the one set bit of the ``avail`` it would pass down.  ``search`` never
raises the interpreter's recursion limit.  A graph that it does not answer
by rule first is refused with one ValueError, instead of overflowing, when
its q - 1 ``place`` frames and ``search``'s own cannot fit below the limit,
or when they, or the lazy expansion after them, pass the limit where the
caller stands.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from heapq import heapify, heappop, heappush
from math import factorial, gcd

from .graphs import Graph, Record, require_int, shown
from .labeling import EdgeLabeling, verify

MODES = ("first", "all", "count")


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

    ``nodes_expanded`` counts the search nodes the run expanded; in mode
    "count" that is the class tree left after the orbit, multiplier and shift
    rules (module docstring), and modes "first" and "all" search the plain tree.
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

    Every graph the constructor accepts gets an answer, unless its
    one-frame-per-edge recursion would pass ``sys.getrecursionlimit()`` where
    ``search`` is called (module docstring).
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
    if q >= sys.getrecursionlimit():  # q - 1 place frames and this one never fit
        raise _too_deep(q)

    steps = completion_order(graph)

    # labelings each leaf stands for: rem classes hold k+1 labels, p-rem hold k
    k, rem = divmod(q, p)
    weight = factorial(k + 1) ** rem * factorial(k) ** (p - rem)

    masks = [-1] * q  # per position, the labels it may take (label l is bit l - 1): all
    leaf_weight = path_mask = None  # None: no symmetry breaking
    # the positions whose labels path_mask decides: those up to head, which the
    # multiplier rule reads, and the orbit rule's forced_pos; none by default
    head = forced_pos = -1
    # the multiplier rule (module docstring): x -> a*x, for a unit a mod p, keeps
    # every class's size when q = kp or kp + p - 1; with q = p - 1 the orbit
    # rule's label must be p/2, so p must be even
    multiply = not collect and (rem == 0 or rem == p - 1 and (k or p % 2 == 0))
    # the shift rule (module docstring): x -> x + t keeps every class's size
    # when p | q, and keeps residues distinct when the graph is regular, i.e.
    # when its largest degree is the mean degree 2q/p = 2k
    shift = not collect and rem == 0 and max(Counter(w for edge in graph.edges
                                                     for w in edge).values()) == 2 * k
    # the orbit rule, which the shift rule replaces when q = p
    orbits = not collect and q < 2 * p and not shift
    if multiply or orbits:
        # symmetry breaking (module docstring).  With the orbit rule off no label
        # is sym_label; with the multiplier rule off the unit group is the trivial
        # one, so no label is moved, every label is allowed and head stays -1
        sym_label, unit_orbit = 0, [1] * p  # unit_orbit: per residue, its unit orbit's size
        if multiply:
            # the residues sharing r's gcd with p form r's unit orbit
            by_gcd = Counter(gcd(r, p) for r in range(p))
            unit_orbit = [by_gcd[gcd(r, p)] for r in range(p)]
            # the unit-fixed labels (on 0 or p/2), all that can precede the first moved one
            head = sum(unit_orbit[x % p] == 1 for x in range(1, q + 1))
        # the first labels of the moved classes, all in avail until one is placed;
        # until then a position takes a unit-fixed label or a divisor g of p
        unmoved = sum(1 << r - 1 for r in range(1, p) if unit_orbit[r] > 1)
        allowed = sum(1 << x - 1 for x in range(1, q + 1) if unit_orbit[x % p] == 1 or p % x == 0)
        head_edges = [i for i, _, _ in steps[:head + 1]]
        if shift:
            # position 0 takes residue 0, the label p; each leaf stands for its p shifts
            masks[0] = 1 << p - 1
            weight *= p
        if orbits:
            # sym_label, alone in its class, goes on each orbit's first-placed
            # edge only; with the multiplier rule its class is one every unit fixes.
            # The orbit search is loaded here, so no other search compiles it
            from ._orbits import edge_orbits

            sym_label = (p if q >= p else p // 2) if multiply else max(q - p, 0) + 1
            orbit = edge_orbits(graph)
            orbit_size = Counter(orbit)
            rep_pos: dict[int, int] = {}  # per orbit, the position of its first-placed edge
            for pos, (i, _, _) in enumerate(steps):
                rep_pos.setdefault(orbit[i], pos)
            forced_pos = max(rep_pos.values())
            masks = [-1 if rep_pos[orbit[i]] == pos else ~(1 << sym_label - 1)
                     for pos, (i, _, _) in enumerate(steps)]

        def path_mask(pos: int, avail: int) -> int:
            """The labels a position up to ``head``, or ``forced_pos``, may take on this path."""
            if pos == forced_pos and avail >> sym_label - 1 & 1:
                return 1 << sym_label - 1  # the last representative: nowhere else is left
            if avail & unmoved == unmoved:  # no label is off a unit-fixed residue yet
                return masks[pos] & allowed
            return masks[pos]

        def leaf_weight() -> int:
            """The leaf's weight, times the orbit that holds sym_label and the
            unit orbit of the first label off a unit-fixed residue."""
            w = weight * orbit_size[orbit[labels.index(sym_label)]] if sym_label else weight
            for i in head_edges:
                if unit_orbit[labels[i] % p] > 1:
                    return w * unit_orbit[labels[i] % p]
            return w
    # per position: the edge, its ends, whether it completes them, and the
    # labels it may take, or None if path_mask decides them
    plan = [(i, *graph.edges[i], u_done, v_done, None if pos <= head or pos == forced_pos
             else masks[pos]) for pos, (i, u_done, v_done) in enumerate(steps)]
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
        if mask is None:
            mask = path_mask(pos, avail)
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
                    # the leaf: its weight, or leaf_weight's when symmetry is broken
                    labels[last] = x
                    count += leaf_weight() if leaf_weight else weight
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
        # the first count labelings of the kept leaves, each leaf's own first
        labelings = itertools.chain.from_iterable(map(leaf_labelings, leaves))
        solutions = tuple(EdgeLabeling(graph, labels)
                          for labels in itertools.islice(labelings, count))
    except RecursionError:
        # the caller stands too deep for this graph's recursion
        raise _too_deep(q) from None
    return SearchOutcome(solutions, count, nodes, not stopped)
