"""Edge-graceful labeling toolkit.

Generators for fans, cycles and paths; the induced-residue labeling test;
the necessary divisibility screen; an exact factor-pair solver for the
associated quadratic Diophantine equations; and a pruned backtracking search
that constructs or exhaustively refutes labelings.
"""

from .diophantine import (
    FactorPairRow,
    QuadraticDiophantine,
    ReducedForm,
    back_substitute,
    format_rational,
    integer_solutions,
    positive_divisors,
    reduce,
    solve_factor_pairs,
)
from .graphs import Graph, cycle, fan, make_graph, path
from .labeling import EdgeLabeling, InducedLabels, Verdict, induce, verify
from .lo import LoReport, classify_fans, lo_check
from .search import SearchOptions, SearchOutcome, completion_order, search

__all__ = [
    "Graph", "make_graph", "fan", "cycle", "path",
    "EdgeLabeling", "InducedLabels", "Verdict", "induce", "verify",
    "LoReport", "lo_check", "classify_fans",
    "QuadraticDiophantine", "ReducedForm", "FactorPairRow",
    "reduce", "solve_factor_pairs", "back_substitute", "integer_solutions",
    "positive_divisors", "format_rational",
    "SearchOptions", "SearchOutcome", "search", "completion_order",
]
