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

from dataclasses import dataclass

from .graphs import Graph, require_int


@dataclass(frozen=True)
class EdgeLabeling:
    """A bijection from edges to {1..q}, stored in edge-list order.

    ``labels[i]`` is the label of ``graph.edges[i]``.  ``labels`` may be any
    iterable and is stored as a tuple.  Construction rejects anything that is
    not a permutation of the integers 1..q with ValueError.
    """

    graph: Graph
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.labels) is not tuple:
            try:
                object.__setattr__(self, "labels", tuple(self.labels))
            except TypeError:
                raise ValueError(
                    f"labels must be an iterable of integers, got {type(self.labels).__name__}"
                ) from None
        q = self.graph.q
        if len(self.labels) != q:
            raise ValueError(f"{len(self.labels)} labels for {q} edges; need one per edge")
        require_int("a label", *self.labels)
        if sorted(self.labels) != list(range(1, q + 1)):
            raise ValueError(f"labels must be a permutation of 1..{q}")


@dataclass(frozen=True)
class InducedLabels:
    """Per-vertex residues in [0, p), indexed by vertex."""

    residues: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of the edge-graceful test.

    On failure ``witness`` names one pair of vertices sharing a residue
    (the first collision in vertex order).
    """

    edge_graceful: bool
    induced: InducedLabels
    witness: tuple[int, int] | None = None


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
            return Verdict(False, induced, witness=(first_at[r], v))
        first_at[r] = v
    return Verdict(True, induced)
