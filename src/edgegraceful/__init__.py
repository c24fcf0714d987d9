"""Edge-graceful labeling toolkit.

Generators for fans, cycles and paths; the induced-residue labeling test;
the necessary divisibility screen; an exact factor-pair solver for the
associated quadratic Diophantine equations; and a pruned backtracking search
that constructs or exhaustively refutes labelings.

The screen (``lo``), the solver (``diophantine``) and the edge-orbit search
(``_orbits``) are imported on first use of one of their names, so a program
that only generates, searches or verifies does not compile them; a search in
mode "count" loads ``_orbits`` itself.
"""

import importlib

from .graphs import Graph, cycle, fan, make_graph, path
from .labeling import EdgeLabeling, InducedLabels, Verdict, induce, verify
from .search import SearchOptions, SearchOutcome, completion_order, search

_LAZY = {
    **dict.fromkeys(("LoReport", "lo_check", "classify_fans"), "lo"),
    "edge_orbits": "_orbits",
    **dict.fromkeys(
        ("QuadraticDiophantine", "ReducedForm", "FactorPairRow", "reduce",
         "solve_factor_pairs", "integer_solutions",
         "positive_divisors", "format_rational"),
        "diophantine",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "Graph", "make_graph", "fan", "cycle", "path",
    "EdgeLabeling", "InducedLabels", "Verdict", "induce", "verify",
    "SearchOptions", "SearchOutcome", "search", "completion_order",
    *_LAZY,
]
