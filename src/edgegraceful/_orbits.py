"""Edge orbits of a graph, from an automorphism search.

It is a module of its own so that programs which never ask for edge orbits
do not pay for compiling it: ``search`` imports it only in mode "count" on a
graph with q < 2p that is not 2-regular, where the orbit rule applies, and
``edgegraceful.edge_orbits`` loads it on first access.
"""

from __future__ import annotations

from .graphs import Edge, Graph

# neighbour visits and list entries of partition copies that edge_orbits may
# spend before it stops looking for automorphisms: each child copy is charged
# its refinement's visits and its 4 * p entries.  A copy is four lists of p
# entries, so this also caps the memory the first path and the stack hold.
# Not charged: the twin pass and the root refinement, each run once and
# near-linear in the graph, and the automorphism tests, each linear and made
# only on a charged copy
ORBIT_WORK_LIMIT = 1_000_000


class _OutOfWork(Exception):
    """Raised inside edge_orbits once ORBIT_WORK_LIMIT is spent."""


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], a: int, b: int) -> None:
    """Merge the classes of a and b; the smaller root stays the root."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def edge_orbits(graph: Graph) -> list[int]:
    """Orbit id of each edge: the smallest edge index found in its orbit.

    Two edges share an id only when vertex permutations that were checked,
    edge by edge, to be automorphisms link them, so edges of different orbits
    never share an id.  Twins, vertices with equal open or equal closed
    neighbourhoods, are found first, and the transposition of each twin with
    the first vertex of its class is merged: it is always an automorphism.
    The other automorphisms come from colour refinement with
    individualisation.  The first path individualises the first vertex of the
    smallest cell that has more than one vertex and does not lie inside one
    twin class, until no such cell is left; a cell inside one twin class is
    never split, since any order of its vertices is reached by twin
    transpositions.  Then, level by level from the deepest, each other vertex
    of that level's cell whose orbit is not yet known is tried in the first
    vertex's place, and the subtree below it is searched for a leaf that an
    automorphism maps the first leaf onto.  The subtree searches use an
    explicit stack, not recursion.  Once the work passes ``ORBIT_WORK_LIMIT``
    the search stops, and edges that no automorphism found so far links keep
    separate ids, so the orbits may then be finer than the true ones, never
    coarser.
    """
    edge_parent = list(range(graph.q))
    if graph.q > 1:
        try:
            _merge_orbits(graph, edge_parent)
        except _OutOfWork:
            pass
    return [_find(edge_parent, i) for i in range(graph.q)]


def _refine(adj: list[list[int]], part: tuple[list[int], ...], queue: list[int]) -> int:
    """Split cells by neighbour counts in each queued cell until equitable.

    ``part`` is an ordered partition (lab, pos, cell_of, cell_end): ``lab[i]``
    is the vertex at position i and ``pos`` its inverse, a cell is a run of
    positions named by its first one, s, ending before ``cell_end[s]``, and
    ``cell_of[v]`` names v's cell.  Each split decides by positions and counts
    only, so partitions that a vertex permutation maps onto each other stay
    so.  Hopcroft's rule keeps the work near-linear: a split cell that is not
    queued queues all its pieces but the first largest.  Returns the number of
    neighbour visits made.
    """
    lab, pos, cell_of, cell_end = part
    queued = set(queue)
    visits = 0
    for s in queue:  # the loop also takes the cells queued on the way
        queued.discard(s)
        count: dict[int, int] = {}
        for v in lab[s:cell_end[s]]:
            visits += len(adj[v])
            for w in adj[v]:
                count[w] = count.get(w, 0) + 1
        by_cell: dict[int, list[int]] = {}
        for w in count:
            by_cell.setdefault(cell_of[w], []).append(w)
        for cs in sorted(by_cell):
            ce = cell_end[cs]
            touched = sorted(by_cell[cs], key=count.__getitem__)
            j = ce - len(touched)
            if j == cs and count[touched[0]] == count[touched[-1]]:
                continue
            # the touched vertices go to the cell's tail, in count order
            for k, t in enumerate(touched, j):
                x = lab[k]
                lab[pos[t]], lab[k] = x, t
                pos[x], pos[t] = pos[t], k
            starts = [cs] if j > cs else []
            starts += [k for k in range(j, ce)
                       if k == j or count[lab[k]] != count[lab[k - 1]]]
            ends = starts[1:] + [ce]
            largest = max(range(len(starts)), key=lambda n: ends[n] - starts[n])
            requeue = cs in queued
            for n, a in enumerate(starts):
                cell_end[a] = ends[n]
                if a != cs:
                    for x in lab[a:ends[n]]:
                        cell_of[x] = a
                if a not in queued and (requeue or n != largest):
                    queued.add(a)
                    queue.append(a)
    return visits


def _merge_orbits(graph: Graph, edge_parent: list[int]) -> None:
    """Union ``edge_parent`` through every automorphism the search finds."""
    p = graph.p
    adj: list[list[int]] = [[] for _ in range(p)]
    edge_index: dict[Edge, int] = {}
    for i, (u, v) in enumerate(graph.edges):
        adj[u].append(v)
        adj[v].append(u)
        edge_index[u, v] = edge_index[v, u] = i
    # twin[v] is the first vertex of v's class of equal open neighbourhoods
    # N(v) or equal closed ones N[v]; a vertex has twins of one kind only, so
    # t and v are still roots of vertex_parent when they are merged
    twin, vertex_parent = list(range(p)), list(range(p))
    for closed in (False, True):
        first: dict[frozenset[int], int] = {}
        for v, nbrs in enumerate(adj):
            t = first.setdefault(frozenset(nbrs + [v] if closed else nbrs), v)
            if t != v:
                twin[v] = vertex_parent[v] = t
                # the transposition of t and v moves only the edges at t and v
                for x in nbrs:
                    if x != t:
                        _union(edge_parent, edge_index[v, x], edge_index[t, x])

    work = 0

    def spend(amount: int) -> None:
        nonlocal work
        work += amount
        if work > ORBIT_WORK_LIMIT:
            raise _OutOfWork

    def child(part, v):
        """A refined copy of ``part`` with v split off the front of its cell,
        and the cell start at each position, which corresponding partitions share."""
        lab, pos, cell_of, cell_end = part = tuple(x[:] for x in part)
        s, i = cell_of[v], pos[v]
        lab[s], lab[i] = v, lab[s]
        pos[lab[i]], pos[v] = i, s
        cell_end[s + 1], cell_end[s] = cell_end[s], s + 1
        for x in lab[s + 1:cell_end[s + 1]]:
            cell_of[x] = s + 1
        spend(_refine(adj, part, [s]) + 4 * p)  # four lists copied
        return part, [cell_of[x] for x in lab]

    def target_cell(part) -> int:
        """First smallest cell with more than one vertex that does not lie
        inside one twin class, or -1."""
        best, size, s, lab, cell_end = -1, p + 1, 0, part[0], part[3]
        while s < p:
            e = cell_end[s]
            if 1 < e - s < size and any(twin[v] != twin[lab[s]] for v in lab[s + 1:e]):
                best, size = s, e - s
            s = e
        return best

    part = (list(range(p)), list(range(p)), [0] * p, [p] * p)
    _refine(adj, part, [0])
    levels: list[tuple[tuple, int]] = []  # partition and target cell per level
    shapes: list[list[int]] = []  # shape of the first path's child of each level
    while (cs := target_cell(part)) >= 0:
        levels.append((part, cs))
        part, shape = child(part, part[0][cs])
        shapes.append(shape)
    leaf = part[0]

    def merge_if_automorphism(lab: list[int]) -> bool:
        perm = [0] * p
        for a, b in zip(leaf, lab):
            perm[a] = b
        images = [edge_index.get((perm[u], perm[v])) for u, v in graph.edges]
        if None in images:
            return False
        for i, j in enumerate(images):
            _union(edge_parent, i, j)
        for v in range(p):
            _union(vertex_parent, v, perm[v])
        return True

    def subtree_has_automorphism(depth: int, w: int) -> bool:
        """Search below ``levels[depth]`` with w individualised for a leaf
        that an automorphism maps the first leaf onto."""
        stack = [(depth, levels[depth][0], [w])]
        while stack:
            d, base, candidates = stack[-1]
            if not candidates:
                stack.pop()
                continue
            part, shape = child(base, candidates.pop())
            if shape != shapes[d]:
                continue
            if d + 1 == len(levels):
                if merge_if_automorphism(part[0]):
                    return True
                continue
            t = levels[d + 1][1]
            stack.append((d + 1, part, part[0][t:part[3][t]]))
        return False

    # automorphisms found at a level fix the first path's vertices above it,
    # and a twin link through a first-path vertex conjugates to a twin
    # transposition that fixes the path, so at each level vertex_parent holds
    # orbits of that level's stabiliser
    for depth in range(len(levels) - 1, -1, -1):
        base, cs = levels[depth]
        anchor, *others = base[0][cs:base[3][cs]]
        rejected: list[int] = []
        for w in others:
            root = _find(vertex_parent, w)
            if root == _find(vertex_parent, anchor) or any(
                root == _find(vertex_parent, x) for x in rejected
            ):
                continue
            if not subtree_has_automorphism(depth, w):
                rejected.append(w)
