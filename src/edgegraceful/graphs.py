"""Simple undirected graphs and the deterministic family generators.

A graph is a vertex count ``p`` plus an ordered tuple of edges.  Edge order is
part of every generator's contract: labelings are stored as arrays aligned
with it, so two calls with equal arguments must produce identical edge lists.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterable

Edge = tuple[int, int]


def require_int(what: str, *values) -> None:
    """Raise ValueError unless every value is an int (a bool is not one).

    Run before any comparison, so a float is never truncated and no TypeError
    escapes; graph and labeling fields and numeric arguments all go through it.
    The ``type(v) is not int`` test first lets a plain int through at once.
    The message shows the value through ``shown``, so it stays short and
    cannot itself raise.
    """
    for v in values:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            raise ValueError(f"{what} must be an integer, got {shown(v)}")


class _ShortRepr(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:  # str() raises past Python's int-to-str digit limit
            return f"{'a negative' if x < 0 else 'a'} {x.bit_length()}-bit integer"


# The text of a value in an error message: a shortened repr, as reprlib gives,
# that never raises; an int too long for str() is named by sign and bit length.
shown = _ShortRepr().repr


class Record:
    """Base of the package's immutable records.

    A record class derives from ``Record`` directly, and its fields are its
    ``__slots__``, in order.  The constructor stores the fields, given by
    position or by keyword, once each; a record with checks or defaults ends
    its ``__init__`` with ``super().__init__``.  Later assignment or deletion
    raises AttributeError.  Two records are equal, and hash alike, when they
    share a class and their fields are equal; the repr names every field;
    ``__reduce__`` calls the class with the fields in order, so ``pickle`` and
    ``copy`` go through the public constructor.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__qualname__}() takes {', '.join(names)} by position or "
                    f"keyword, got {len(args)} by position and {sorted(kwargs)} by keyword")
            args += tuple([kwargs[name] for name in rest])
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """Immutable simple undirected graph on vertices ``0..p-1``.

    The one graph constructor: ``edges`` may be any iterable of vertex pairs,
    each a tuple or list of two integers, and is stored as a tuple of
    ``(u, v)`` tuples in the order given, so equal graphs hash alike.  One
    pass over the edges enforces the edge rule: every edge is a pair, its
    endpoints are integers in range, and there are no self-loops and no
    duplicate edges as unordered pairs.  Anything else raises ValueError.
    """

    __slots__ = ("p", "edges")

    def __init__(self, p: int, edges: Iterable[Edge]) -> None:
        require_int("vertex count", p)
        if p < 0:
            raise ValueError(f"vertex count must be nonnegative, got {shown(p)}")
        try:
            pairs = iter(edges)
        except TypeError:
            raise ValueError(
                f"edges must be an iterable of vertex pairs, got {type(edges).__name__}"
            ) from None
        stored: list[Edge] = []
        seen: set[Edge] = set()
        for item in pairs:
            # a list (as JSON documents give) or a tuple subclass becomes a tuple
            e = item if type(item) is tuple else (
                tuple(item) if isinstance(item, (tuple, list)) else ())
            if len(e) != 2:
                raise ValueError(
                    f"edge {len(stored)} is not a pair of vertices: {shown(item)}"
                )
            u, v = e
            require_int("an edge endpoint", u, v)
            if not (0 <= u < p and 0 <= v < p):
                raise ValueError(
                    f"edge ({shown(u)},{shown(v)}) has an endpoint out of range [0, {shown(p)})"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {shown(u)} is not allowed")
            key = e if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({shown(u)},{shown(v)})")
            seen.add(key)
            stored.append(e)
        super().__init__(p, tuple(stored))

    @property
    def q(self) -> int:
        """Number of edges."""
        return len(self.edges)


# the historical name of the constructor; perfbench's workloads are its last reader
make_graph = Graph


def fan(m: int, n: int) -> Graph:
    """Join of ``m`` isolated hub vertices with the path on ``n`` vertices.

    Vertices 0..m-1 are the hubs, m..m+n-1 the path in index order.  The edge
    list starts with all hub-path edges (hub-major, path-minor), followed by
    the path edges; p = m+n and q = m*n + (n-1).  The usual fan is m=1.
    """
    require_int("fan size", m, n)
    if m < 1 or n < 1:
        raise ValueError(f"fan requires m, n >= 1, got m={shown(m)}, n={shown(n)}")
    hub_edges = [(h, m + i) for h in range(m) for i in range(n)]
    path_edges = [(m + i, m + i + 1) for i in range(n - 1)]
    return Graph(m + n, hub_edges + path_edges)


def cycle(n: int) -> Graph:
    """Cycle on ``n`` vertices; edges (i, i+1 mod n) in index order."""
    require_int("cycle size", n)
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {shown(n)}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path on ``n`` vertices; edges (i, i+1)."""
    require_int("path size", n)
    if n < 1:
        raise ValueError(f"path requires n >= 1, got {shown(n)}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
