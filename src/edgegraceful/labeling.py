"""Edge labelings, the induced vertex map, and the edge-graceful test.

An edge labeling assigns the labels 1..q bijectively to the edges.  Each
vertex then receives the sum of its incident edge labels reduced mod p.  The
labeling is edge-graceful when those p residues are pairwise distinct, i.e.
the induced map is a bijection onto {0, ..., p-1}.

Because every edge meets exactly two vertices, the residue total always
satisfies the handshake congruence  sum(residues) = q(q+1) (mod p); tests
use it as a cheap structural invariant.

Labels are carried 1-based, straight from the definition.  An equivalent
convention stores them 0-based and adds the vertex degree back in when
summing (each incident edge then contributes one less); this module does not
need the per-vertex correction.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graphs import Graph, Record, require_int


class EdgeLabeling(Record):
    """A bijection from edges to {1..q}, stored in edge-list order.

    ``labels[i]`` is the label of ``graph.edges[i]``.  ``labels`` may be any
    iterable and is stored as a tuple.  Construction rejects anything that is
    not a permutation of the integers 1..q with ValueError.
    """

    __slots__ = ("graph", "labels")

    def __init__(self, graph: Graph, labels: Iterable[int]) -> None:
        if type(labels) is not tuple:
            try:
                labels = tuple(labels)
            except TypeError:
                raise ValueError(
                    f"labels must be an iterable of integers, got {type(labels).__name__}"
                ) from None
        q = graph.q
        if len(labels) != q:
            raise ValueError(f"{len(labels)} labels for {q} edges; need one per edge")
        require_int("a label", *labels)
        if sorted(labels) != list(range(1, q + 1)):
            raise ValueError(f"labels must be a permutation of 1..{q}")
        super().__init__(graph, labels)


class InducedLabels(Record):
    """Per-vertex ``residues`` in [0, p), indexed by vertex."""

    __slots__ = ("residues",)


class Verdict(Record):
    """Outcome of the edge-graceful test.

    On failure ``witness`` names one pair of vertices sharing a residue
    (the first collision in vertex order); on success it is None.
    """

    __slots__ = ("edge_graceful", "induced", "witness")


def induce(labeling: EdgeLabeling) -> InducedLabels:
    """Sum each vertex's incident labels and reduce mod p into [0, p)."""
    g = labeling.graph
    sums = [0] * g.p
    for (u, v), lab in zip(g.edges, labeling.labels):
        sums[u] += lab
        sums[v] += lab
    return InducedLabels(tuple(s % g.p for s in sums))


def verify(labeling: EdgeLabeling) -> Verdict:
    """Edge-graceful iff the induced residues are pairwise distinct."""
    induced = induce(labeling)
    first_at: dict[int, int] = {}
    for v, r in enumerate(induced.residues):
        if r in first_at:
            return Verdict(False, induced, (first_at[r], v))
        first_at[r] = v
    return Verdict(True, induced, None)
