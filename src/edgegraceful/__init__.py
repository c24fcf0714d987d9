"""Edge-graceful labeling toolkit.

Generators for fans, cycles and paths; the induced-residue labeling test;
the necessary divisibility screen; an exact factor-pair solver for the
associated quadratic Diophantine equations; and a pruned backtracking search
that constructs or exhaustively refutes labelings.

Every public name is imported from its module on first use, so a program
compiles only the modules whose names it reads.
"""

import importlib

_LAZY = {
    **dict.fromkeys(("Graph", "make_graph", "fan", "cycle", "path"), "graphs"),
    **dict.fromkeys(("EdgeLabeling", "InducedLabels", "Verdict", "induce", "verify"),
                    "labeling"),
    **dict.fromkeys(("SearchOptions", "SearchOutcome", "search"), "_search"),
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


__all__ = list(_LAZY)
