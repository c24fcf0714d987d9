"""Command-line front-end.

Subcommands compose through JSON documents on stdin/stdout:

    gen           emit a generated graph         {"p": ..., "edges": [[u,v], ...]}
    lo            divisibility screen for a graph or a bare --p/--q pair
    dioph         integer solutions / full factor-pair trace of a quadratic
    search        find or refute edge-graceful labelings
    verify        check a labeling document      {"graph": ..., "labels": [...]}
    classify-fans screen usual fans, optionally confirming by search

Exit codes: 0 success or positive verdict, 1 definitive negative verdict,
2 malformed input, violated restriction, closed output pipe or a closed
standard input or output.  A process started with stderr closed drops its
diagnostics; stdout still gets only documents.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .graphs import Graph, cycle, fan, path
from .labeling import EdgeLabeling, induce, verify
from .lo import classify_fans, lo_check
from ._search import MODES, SearchOptions, search

OK, NO, USAGE = 0, 1, 2

# verify builds and prints one residue per vertex, and gen one pair per edge,
# so verify's graphs are capped at this many vertices and gen's at this many
# vertices and edges
MAX_GRAPH_SIZE = 10**6


# ---------------------------------------------------------------------------
# interchange documents
# ---------------------------------------------------------------------------

def graph_to_doc(graph: Graph) -> dict:
    return {"p": graph.p, "edges": [[u, v] for u, v in graph.edges]}


def graph_from_doc(doc) -> Graph:
    """Graph of a parsed ``{"p": ..., "edges": [[u, v], ...]}`` document.

    Only the JSON types are checked here; ``Graph`` checks the vertex count
    and every edge, so a malformed document raises ValueError either way.
    """
    if not isinstance(doc, dict) or "p" not in doc or "edges" not in doc:
        raise ValueError("graph document needs fields 'p' and 'edges'")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array of vertex pairs")
    return Graph(doc["p"], edges)


def labeling_to_doc(labeling: EdgeLabeling) -> dict:
    return {"graph": graph_to_doc(labeling.graph), "labels": list(labeling.labels)}


def labeling_from_doc(doc) -> EdgeLabeling:
    if not isinstance(doc, dict) or "graph" not in doc or "labels" not in doc:
        raise ValueError("labeling document needs fields 'graph' and 'labels'")
    graph_field = doc["graph"]
    if isinstance(graph_field, str):
        # by file reference
        graph_field = _read_json(graph_field)
    graph = graph_from_doc(graph_field)
    if graph.p > MAX_GRAPH_SIZE:
        raise ValueError(
            f"labeling documents are limited to {MAX_GRAPH_SIZE} vertices, "
            f"got {graph.p}"
        )
    labels = doc["labels"]
    if not isinstance(labels, list):
        raise ValueError("'labels' must be an integer array")
    return EdgeLabeling(graph, labels)


def labeling_to_dot(labeling: EdgeLabeling) -> str:
    """DOT rendering: edge labels as edge attributes, residues as node labels."""
    lines = ["graph {"]
    for v, r in enumerate(induce(labeling).residues):
        lines.append(f'  {v} [label="{v}: {r}"];')
    for (u, v), lab in zip(labeling.graph.edges, labeling.labels):
        lines.append(f'  {u} -- {v} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)


def _read_json(source: str):
    if source == "-":
        if sys.stdin is None:  # the process was started with stdin closed
            raise ValueError("standard input is closed")
        text = sys.stdin.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise ValueError("JSON document nests too deeply") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    m, n = args.m, args.n
    size = max(m + n, m * n + n - 1) if args.family == "fan" else n  # max(p, q)
    if size > MAX_GRAPH_SIZE:
        # refused before anything is built
        raise ValueError(
            f"gen documents are limited to {MAX_GRAPH_SIZE} vertices and edges, "
            f"got {size}"
        )
    if args.family == "fan":
        graph = fan(m, n)
    elif args.family == "cycle":
        graph = cycle(n)
    else:
        graph = path(n)
    print(json.dumps(graph_to_doc(graph)))
    return OK


def cmd_lo(args) -> int:
    if args.p is not None or args.q is not None:
        if args.p is None or args.q is None:
            raise ValueError("--p and --q must be given together")
        report = lo_check(args.p, args.q)
    else:
        graph = graph_from_doc(_read_json(args.input))
        report = lo_check(graph.p, graph.q)
    if args.format == "json":
        print(json.dumps({
            "p": report.p, "q": report.q,
            "residual": report.residual, "divides": report.divides,
        }))
    else:
        print(f"p = {report.p}")
        print(f"q = {report.q}")
        print(f"residual = {report.residual}")
        verdict = "pass" if report.divides else "fail"
        rel = "divides" if report.divides else "does not divide"
        print(f"lo: {verdict} ({report.p} {rel} {report.residual})")
    return OK if report.divides else NO


def cmd_dioph(args) -> int:
    # imported here so that the other subcommands never load the solver
    from .diophantine import (
        QuadraticDiophantine, factor_pair_trace, integer_solutions, reduce,
    )

    eq = QuadraticDiophantine(args.a, args.b, args.c, args.d, args.e, args.f)
    form = reduce(eq)
    if args.trace:
        rows = factor_pair_trace(form)
        if args.format == "json":
            print(json.dumps({
                "D": form.D, "E": form.E, "F": form.F, "N": form.N, "rows": rows,
            }))
        else:
            print(f"X^2 - {form.D}*Y^2 = {form.N}")
            header = ("N1", "N2", "X", "Y", "x", "y")
            table = [header] + [tuple(str(r[k]) for k in header) for r in rows]
            widths = [max(len(row[i]) for row in table) for i in range(6)]
            for row in table:
                print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return OK
    pairs = integer_solutions(eq)
    if args.positive_x:
        pairs = [(x, y) for x, y in pairs if x >= 1]
    if args.format == "json":
        print(json.dumps({"solutions": [[x, y] for x, y in pairs]}))
    else:
        for x, y in pairs:
            print(f"({x}, {y})")
        if not pairs:
            print("no integer solutions")
    return OK


def cmd_search(args) -> int:
    options = SearchOptions(mode=args.mode, limit=args.limit)  # checked before stdin is read
    graph = graph_from_doc(_read_json(args.input))
    if not lo_check(graph.p, graph.q).divides:
        # advisory only: the screen is necessary, so the search must come up
        # empty, but exhaustive refutation is still independent evidence
        print(
            f"warning: (p={graph.p}, q={graph.q}) fails the divisibility "
            "screen; no labeling can exist",
            file=sys.stderr,
        )
    outcome = search(graph, options)
    if args.mode == "count":
        print(f"solutions = {outcome.solution_count}")
    elif args.fmt == "dot":
        for sol in outcome.solutions:
            print(labeling_to_dot(sol))
    else:
        for sol in outcome.solutions:
            print(json.dumps(labeling_to_doc(sol)))
    return OK if outcome.solution_count > 0 else NO


def cmd_verify(args) -> int:
    labeling = labeling_from_doc(_read_json(args.input))
    verdict = verify(labeling)
    if args.format == "json":
        print(json.dumps({
            "edge_graceful": verdict.edge_graceful,
            "residues": list(verdict.induced.residues),
            "witness": list(verdict.witness) if verdict.witness else None,
        }))
    else:
        print(f"residues = {list(verdict.induced.residues)}")
        if verdict.edge_graceful:
            print("edge-graceful: yes")
        else:
            u, v = verdict.witness
            print(f"edge-graceful: no (vertices {u} and {v} share a residue)")
    return OK if verdict.edge_graceful else NO


def cmd_classify_fans(args) -> int:
    passing = classify_fans(args.max)
    witnesses = {}
    if args.confirm_search:
        for n in passing:
            outcome = search(fan(1, n), SearchOptions(mode="first"))
            witnesses[n] = outcome.solutions[0] if outcome.solutions else None
    if args.format == "json":
        out = {"max": args.max, "passing": passing}
        if args.confirm_search:
            out["witnesses"] = {
                str(n): labeling_to_doc(w) if w else None for n, w in witnesses.items()
            }
        print(json.dumps(out))
    else:
        print(f"usual fans passing the divisibility screen for n <= {args.max}: "
              + (" ".join(map(str, passing)) if passing else "(none)"))
        for n, w in witnesses.items():
            if w is None:
                print(f"n={n}: no labeling found")
            else:
                residues = list(induce(w).residues)
                print(f"n={n}: labels {list(w.labels)} residues {residues}")
    return OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgegraceful",
        description="Edge-graceful labeling toolkit: generators, divisibility "
                    "screening, factor-pair Diophantine solving, and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a generated graph document")
    p_gen.add_argument("family", choices=("fan", "cycle", "path"))
    p_gen.add_argument("--m", type=int, default=1, help="hub count (fan only)")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_lo = sub.add_parser("lo", help="divisibility screen")
    p_lo.add_argument("input", nargs="?", default="-",
                      help="graph document path or '-' for stdin")
    p_lo.add_argument("--p", type=int, default=None)
    p_lo.add_argument("--q", type=int, default=None)
    p_lo.add_argument("--format", choices=("text", "json"), default="text")
    p_lo.set_defaults(func=cmd_lo)

    p_dioph = sub.add_parser("dioph", help="solve a*x^2+b*x*y+c*y^2+d*x+e*y+f = 0")
    for name in "abcdef":
        p_dioph.add_argument(name, type=int)
    p_dioph.add_argument("--trace", action="store_true",
                         help="print every factor-pair row, not just solutions")
    p_dioph.add_argument("--positive-x", action="store_true",
                         help="keep only solutions with x >= 1")
    p_dioph.add_argument("--format", choices=("text", "json"), default="text")
    p_dioph.set_defaults(func=cmd_dioph)

    p_search = sub.add_parser("search", help="find or refute edge-graceful labelings")
    p_search.add_argument("input", nargs="?", default="-")
    p_search.add_argument("--mode", choices=MODES, default="first",
                          help="first: one labeling; all: every labeling; count: how many")
    p_search.add_argument("--limit", type=int, default=None,
                          help="caps the labelings in modes all and count; "
                               "mode first returns at most one")
    p_search.add_argument("--format", dest="fmt", choices=("labels", "dot"),
                          default="labels")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="check a labeling document")
    p_verify.add_argument("input", nargs="?", default="-")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_cls = sub.add_parser("classify-fans", help="screen usual fans F_{1,n}")
    p_cls.add_argument("--max", type=int, required=True)
    p_cls.add_argument("--confirm-search", action="store_true",
                       help="search a witness labeling for each survivor")
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.set_defaults(func=cmd_classify_fans)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:
        # started with stderr closed: drop diagnostics, since print and
        # argparse's usage would otherwise fall back to stdout
        sys.stderr = io.StringIO()
    args = build_parser().parse_args(argv)
    if sys.stdout is None:
        # started with stdout closed: nothing can be written, as with a closed pipe
        return USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); send what is still
        # buffered to devnull so the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
