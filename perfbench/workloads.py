"""The four workloads: seeded inputs, the tasks that use them, and their checks.

A task answers one question and checks the answer, e.g. "how many
edge-graceful labelings does this shuffled C_9 have?".  Each workload builds
a pool of tasks from the seed in rounds (one round holds every kind of task
of the workload once, in a shuffled order); the runner cycles through the
pool and stops only at the end of a round, so every run has the same mix.  Every call into the package goes through ``Tracer.call`` under the
name of its layer, and every check under the layer ``check``.  Why each
workload exists is recorded in ``WORKLOADS.md``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from oracle import (
    family_edges,
    fan_equation,
    is_edge_graceful,
    lo_divides,
    matches_printed,
    pell_n,
    residues,
    solution_digest,
)

# name, family, args, copies per round.  Copies place task_p50_ms inside the
# C_8 block and task_p90_ms inside the F_{1,5} block of the sorted task times,
# so neither percentile sits on the edge between two graphs of unequal cost.
REFUTE_GRAPHS = (
    ("F_1_3", "fan", (1, 3), 1),
    ("F_1_4", "fan", (1, 4), 1),
    ("F_1_5", "fan", (1, 5), 3),
    ("F_2_2", "fan", (2, 2), 1),
    ("F_2_3", "fan", (2, 3), 1),
    ("C_7", "cycle", (7,), 1),
    ("C_8", "cycle", (8,), 3),
    ("C_9", "cycle", (9,), 1),
    ("P_8", "path", (8,), 1),
    ("P_9", "path", (9,), 1),
    ("P_10", "path", (10,), 1),
)

# Edge-graceful graphs: the paper's fans, the F_{2,n} that pass Lo's screen
# and have a labeling, odd cycles and odd paths.  C_17 is the largest cycle:
# larger ones have a heavy first-mode tail (see WORKLOADS.md).
CONSTRUCT_GRAPHS = (
    (("F_1_2", "fan", (1, 2)), ("F_1_3", "fan", (1, 3)), ("F_1_11", "fan", (1, 11)),
     ("F_2_2", "fan", (2, 2)), ("F_2_5", "fan", (2, 5)), ("F_2_10", "fan", (2, 10)))
    + tuple((f"C_{n}", "cycle", (n,)) for n in range(9, 18, 2))
    + tuple((f"P_{n}", "path", (n,)) for n in range(5, 18, 2))
)

FAN_EQUATION_MS = tuple(range(1, 7))
# (decade of |N|, kind) cells of the random equation table
EQUATION_CELLS = tuple((dec, kind) for dec in (9, 10, 11) for kind in ("prime", "smooth"))
EQUATIONS_PER_CELL = 16

POOL_ROUNDS = {"refute": 6, "construct": 300, "classify": 16, "cli": 6}
CLASSIFY_N_MAX = (100_000, 1_000_000)
CLI_CLASSIFY_MAX = (50_000, 100_000)
CLI_ODD_CYCLES = (9, 11, 13, 15, 17)
CHILD_TIMEOUT_S = 120


@dataclass
class Task:
    kind: str
    run: Callable  # (Tracer) -> bool, True when the checked answer is right
    nodes: int | None = None  # nodes_expanded of the last run, for search tasks


@dataclass
class Context:
    eg: object  # the imported package
    expected: dict
    root: str  # the checkout; children run here with src/ on PYTHONPATH
    env: dict


def shuffled_graph(ctx: Context, tr, rng, family: str, args):
    """The package's generator output with vertices relabelled and edges shuffled."""
    base = tr.call("graphs", getattr(ctx.eg, family), *args)
    perm = list(range(base.p))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in base.edges]
    rng.shuffle(edges)
    return tr.call("graphs", ctx.eg.make_graph, base.p, edges)


# ---------------------------------------------------------------------------
# refute: exhaustive count searches
# ---------------------------------------------------------------------------

def refute_round(ctx: Context, tr, rng) -> list[Task]:
    opts = ctx.eg.SearchOptions(mode="count")
    tasks = []
    for name, family, args, copies in REFUTE_GRAPHS:
        for _ in range(copies):
            graph = shuffled_graph(ctx, tr, rng, family, args)
            tasks.append(count_task(ctx, name, graph, opts,
                                    ctx.expected["labeling_counts"][name]))
    return tasks


def count_task(ctx: Context, name: str, graph, opts, expected: int) -> Task:
    task = Task(name, None)

    def run(tr) -> bool:
        out = tr.call("search", ctx.eg.search, graph, opts)
        task.nodes = out.nodes_expanded
        tr.add("search.nodes_expanded", out.nodes_expanded)
        tr.add("search.solutions", out.solution_count)
        return tr.call("check", lambda: out.exhausted and out.solution_count == expected)

    task.run = run
    return task


# ---------------------------------------------------------------------------
# construct: first-mode witness searches, then verify
# ---------------------------------------------------------------------------

def construct_round(ctx: Context, tr, rng) -> list[Task]:
    opts = ctx.eg.SearchOptions(mode="first")
    tasks = []
    for name, family, args in CONSTRUCT_GRAPHS:
        # a task fails unless it finds a labeling, so the table must prove one exists
        if name not in ctx.expected["witnesses"]:
            raise ValueError(f"expected.json has no witness for {name}")
        graph = shuffled_graph(ctx, tr, rng, family, args)
        tasks.append(witness_task(ctx, name, graph, opts))
    return tasks


def witness_task(ctx: Context, name: str, graph, opts) -> Task:
    eg = ctx.eg
    p, edges = graph.p, list(graph.edges)
    task = Task(name, None)

    def run(tr) -> bool:
        out = tr.call("search", eg.search, graph, opts)
        task.nodes = out.nodes_expanded
        tr.add("search.nodes_expanded", out.nodes_expanded)
        tr.add("search.solutions", out.solution_count)
        if not out.solutions:
            return False
        labeling = tr.call("labeling", eg.EdgeLabeling, graph, out.solutions[0].labels)
        verdict = tr.call("labeling", eg.verify, labeling)
        return tr.call("check", check_witness, p, edges, out, verdict)

    task.run = run
    return task


def check_witness(p: int, edges, out, verdict) -> bool:
    sol = out.solutions[0]
    labels = list(sol.labels)
    return (
        out.solution_count == 1
        and sol.graph.p == p
        and list(sol.graph.edges) == edges
        and is_edge_graceful(p, edges, labels)
        and verdict.edge_graceful is True
        and list(verdict.induced.residues) == residues(p, edges, labels)
    )


# ---------------------------------------------------------------------------
# classify: divisibility screen and factor-pair solver, no search
# ---------------------------------------------------------------------------

def classify_rounds(ctx: Context, tr, rng, rounds: int) -> list[list[Task]]:
    """Rounds of classify tasks.  The n_max values and the random equations
    are stratified over the rounds, so every seed gets the same mix of sizes
    and the seed decides only which inputs fill each stratum."""
    eg, exp = ctx.eg, ctx.expected
    lo_n, hi_n = CLASSIFY_N_MAX
    n_maxes = [lo_n + int((r + rng.random()) / rounds * (hi_n - lo_n)) for r in range(rounds)]
    rng.shuffle(n_maxes)
    fan_m1 = exp["fan_equations"]["1"]["solutions"]
    cells = {key: rng.sample(eqs, len(eqs)) for key, eqs in exp["random_equations"].items()}
    used = {key: 0 for key in cells}

    def draw(key: str) -> dict:
        entry = cells[key][used[key] % len(cells[key])]
        used[key] += 1
        return entry

    fan_eqs = {m: eg.QuadraticDiophantine(*fan_equation(m)) for m in FAN_EQUATION_MS}
    fan_sols = {m: [tuple(s) for s in exp["fan_equations"][str(m)]["solutions"]]
                for m in FAN_EQUATION_MS}
    out = []
    for r, n_max in enumerate(n_maxes):
        passing = [x for x, _y in fan_m1 if 1 <= x <= n_max]
        tasks = [classify_task(ctx, n_max, passing), fan_trace_task(ctx, fan_eqs[1]),
                 fan_equations_task(ctx, fan_eqs, fan_sols)]
        for decade in (9, 10, 11):
            kind = "prime" if (r + decade) % 2 else "smooth"
            entry = draw(f"{decade}-{kind}")
            eq = eg.QuadraticDiophantine(*entry["coeffs"])
            tasks.append(random_solutions_task(ctx, f"eq_{decade}_{kind}", eq, entry))
        entry = draw(f"{9 + r % 2}-smooth")
        tasks.append(random_trace_task(ctx, eg.QuadraticDiophantine(*entry["coeffs"]), entry))
        out.append(tasks)
    return out


def classify_task(ctx: Context, n_max: int, passing: list[int]) -> Task:
    def run(tr) -> bool:
        got = tr.call("lo", ctx.eg.classify_fans, n_max)
        tr.add("lo.candidates", n_max)
        return tr.call("check", lambda: got == passing)

    return Task("classify_fans", run)


def fan_equations_task(ctx: Context, eqs: dict, want: dict) -> Task:
    """Lo's equation for F_{m,n}, m = 1..6, solved in one task.  Each solve
    takes 1-5 ms; as separate tasks they would hold task_p50_ms, and such
    short Fraction-bound calls follow the host's speed swings the least."""
    def run(tr) -> bool:
        got = {m: tr.call("diophantine", ctx.eg.integer_solutions, eq) for m, eq in eqs.items()}
        return tr.call("check", lambda: all([tuple(s) for s in got[m]] == want[m] for m in eqs))

    return Task("fan_equations", run)


def random_solutions_task(ctx: Context, kind: str, eq, entry: dict) -> Task:
    def run(tr) -> bool:
        got = tr.call("diophantine", ctx.eg.integer_solutions, eq)
        return tr.call("check", lambda: len(got) == entry["solutions"]
                       and solution_digest(got) == entry["digest"])

    return Task(kind, run)


def factor_pair_rows(eg, eq):
    return eg.solve_factor_pairs(eg.reduce(eq))


def count_rows(tr, rows) -> None:
    tr.add("diophantine.rows", len(rows))
    tr.add("diophantine.integral_rows", sum(1 for r in rows if r.integral))


def fan_trace_task(ctx: Context, eq) -> Task:
    reference = ctx.expected["fan_trace"]

    def run(tr) -> bool:
        rows = tr.call("diophantine", factor_pair_rows, ctx.eg, eq)
        count_rows(tr, rows)
        return tr.call("check", check_fan_trace,
                       [(r.N1, r.N2, r.X, r.Y, r.x, r.y, r.integral) for r in rows],
                       reference)

    return Task("fan_trace", run)


def check_fan_trace(rows, reference) -> bool:
    """Rows match the published table in order, value by printed value."""
    if len(rows) != len(reference):
        return False
    for (n1, n2, *values, integral), (r1, r2, *printed) in zip(rows, reference):
        if (n1, n2) != (r1, r2):
            return False
        if not all(matches_printed(Fraction(v), s) for v, s in zip(values, printed)):
            return False
        if integral != all(Fraction(v).denominator == 1 for v in values):
            return False
    return True


def random_trace_task(ctx: Context, eq, entry: dict) -> Task:
    def run(tr) -> bool:
        rows = tr.call("diophantine", factor_pair_rows, ctx.eg, eq)
        count_rows(tr, rows)
        return tr.call("check", check_trace, rows, entry)

    return Task("eq_trace", run)


def check_trace(rows, entry: dict) -> bool:
    """Every ordered signed factor pair of N once; integral rows give the solutions."""
    N = entry["N"]
    pairs = {(r.N1, r.N2) for r in rows}
    sols = [(int(r.x), int(r.y)) for r in rows if r.integral]
    return (
        len(rows) == 2 * entry["divisors"] == len(pairs)
        and all(n1 * n2 == N for n1, n2 in pairs)
        and len(sols) == entry["solutions"]
        and solution_digest(sols) == entry["digest"]
    )


# ---------------------------------------------------------------------------
# cli: sequential child processes
# ---------------------------------------------------------------------------

def graph_doc(p: int, edges) -> dict:
    return {"p": p, "edges": [[u, v] for u, v in edges]}


def encode(doc) -> bytes:
    return (json.dumps(doc) + "\n").encode()


def child(ctx: Context, tr, args, stdin: bytes = b""):
    proc = tr.call("cli", subprocess.run,
                   [sys.executable, "-m", "edgegraceful", *map(str, args)],
                   input=stdin, capture_output=True, cwd=ctx.root, env=ctx.env,
                   timeout=CHILD_TIMEOUT_S)
    tr.add("cli.bytes_io", len(stdin) + len(proc.stdout) + len(proc.stderr))
    return proc


def cli_round(ctx: Context, tr, rng) -> list[Task]:
    exp = ctx.expected
    c7 = shuffled_graph(ctx, tr, rng, "cycle", (7,))
    c8 = shuffled_graph(ctx, tr, rng, "cycle", (8,))
    wrong = rng.sample(range(1, c8.q + 1), c8.q)
    malformed = list(wrong)
    malformed[0] = malformed[1]
    _name, family, args, _copies = rng.choice(REFUTE_GRAPHS)
    screened = shuffled_graph(ctx, tr, rng, family, args)
    p = rng.randint(3, 60)
    q = rng.randint(p - 1, p * (p - 1) // 2)
    m = rng.randint(1, 6)
    n_max = rng.randint(*CLI_CLASSIFY_MAX)
    equation = rng.choice(exp["random_equations"][f"9-{rng.choice(('prime', 'smooth'))}"])
    return [
        pipeline_task(ctx, "fan", (1, 11)),
        pipeline_task(ctx, "cycle", (rng.choice(CLI_ODD_CYCLES),)),
        search_all_task(ctx, graph_doc(c7.p, c7.edges), exp["labeling_counts"]["C_7"]),
        dioph_trace_task(ctx, m),
        dioph_task(ctx, equation),
        lo_task(ctx, ["--p", p, "--q", q], p, q),
        lo_task(ctx, ["-"], screened.p, screened.q,
                encode(graph_doc(screened.p, screened.edges))),
        classify_cli_task(ctx, n_max),
        verify_task(ctx, graph_doc(c8.p, c8.edges), wrong),
        malformed_task(ctx, graph_doc(c8.p, c8.edges), malformed),
    ]


def pipeline_task(ctx: Context, family: str, args) -> Task:
    """gen | search | verify, each stage's stdout fed to the next stage."""
    flags = ["--m", args[0], "--n", args[1]] if family == "fan" else ["--n", args[0]]

    def run(tr) -> bool:
        gen = child(ctx, tr, ["gen", family, *flags])
        found = child(ctx, tr, ["search", "-"], gen.stdout)
        checked = child(ctx, tr, ["verify", "-", "--format", "json"], found.stdout)
        return tr.call("check", check_pipeline, family, args, gen, found, checked)

    return Task(f"pipe_{family}", run)


def check_pipeline(family: str, args, gen, found, checked) -> bool:
    if (gen.returncode, found.returncode, checked.returncode) != (0, 0, 0):
        return False
    p, edges = family_edges(family, args)
    doc = json.loads(gen.stdout)
    if doc["p"] != p or {frozenset(e) for e in doc["edges"]} != {frozenset(e) for e in edges}:
        return False
    lines = found.stdout.decode().splitlines()
    if len(lines) != 1:
        return False
    labeling = json.loads(lines[0])
    labels = labeling["labels"]
    verdict = json.loads(checked.stdout)
    return (
        labeling["graph"] == doc
        and is_edge_graceful(p, doc["edges"], labels)
        and verdict["edge_graceful"] is True
        and verdict["residues"] == residues(p, doc["edges"], labels)
    )


def search_all_task(ctx: Context, doc: dict, expected: int) -> Task:
    def run(tr) -> bool:
        proc = child(ctx, tr, ["search", "-", "--mode", "all"], encode(doc))
        return tr.call("check", check_all, doc, proc, expected)

    return Task("search_all_C_7", run)


def check_all(doc: dict, proc, expected: int) -> bool:
    if proc.returncode != 0:
        return False
    seen = set()
    for line in proc.stdout.decode().splitlines():
        labeling = json.loads(line)
        labels = labeling["labels"]
        if labeling["graph"] != doc or not is_edge_graceful(doc["p"], doc["edges"], labels):
            return False
        seen.add(tuple(labels))
    return len(seen) == expected


def dioph_trace_task(ctx: Context, m: int) -> Task:
    coeffs = fan_equation(m)
    entry = ctx.expected["fan_equations"][str(m)]
    reference = ctx.expected["fan_trace"] if m == 1 else None

    def run(tr) -> bool:
        proc = child(ctx, tr, ["dioph", *coeffs, "--trace", "--format", "json"])
        return tr.call("check", check_dioph_trace, coeffs, entry, reference, proc)

    return Task("dioph_trace", run)


def check_dioph_trace(coeffs, entry: dict, reference, proc) -> bool:
    if proc.returncode != 0:
        return False
    doc = json.loads(proc.stdout)
    a, b, _c, d, e, f = coeffs
    if (doc["D"], doc["E"], doc["F"], doc["N"]) != (
            b * b, b * d - 2 * a * e, d * d - 4 * a * f, pell_n(coeffs)):
        return False
    rows = doc["rows"]
    table = [(r["N1"], r["N2"], *(Fraction(r[k]) for k in "XYxy"), r["integral"])
             for r in rows]
    sols = sorted([int(x), int(y)] for _n1, _n2, _X, _Y, x, y, integral in table if integral)
    return (
        len(rows) == 2 * entry["divisors"]
        and all(n1 * n2 == doc["N"] for n1, n2, *_rest in table)
        and sols == entry["solutions"]
        and (reference is None or check_fan_trace(table, reference))
    )


def dioph_task(ctx: Context, entry: dict) -> Task:
    def run(tr) -> bool:
        proc = child(ctx, tr, ["dioph", *entry["coeffs"], "--format", "json"])
        return tr.call("check", check_dioph, entry, proc)

    return Task("dioph", run)


def check_dioph(entry: dict, proc) -> bool:
    if proc.returncode != 0:
        return False
    sols = json.loads(proc.stdout)["solutions"]
    return len(sols) == entry["solutions"] and solution_digest(sols) == entry["digest"]


def lo_task(ctx: Context, args, p: int, q: int, stdin: bytes = b"") -> Task:
    """The screen on a bare (p, q) pair or on a graph document from stdin."""
    def run(tr) -> bool:
        proc = child(ctx, tr, ["lo", *args, "--format", "json"], stdin)
        return tr.call("check", check_lo, p, q, proc)

    return Task("lo_graph" if stdin else "lo", run)


def check_lo(p: int, q: int, proc) -> bool:
    divides = lo_divides(p, q)
    if proc.returncode != (0 if divides else 1):
        return False
    doc = json.loads(proc.stdout)
    return doc == {"p": p, "q": q, "residual": q * q + q - p * (p - 1) // 2,
                   "divides": divides}


def classify_cli_task(ctx: Context, n_max: int) -> Task:
    passing = [x for x, _y in ctx.expected["fan_equations"]["1"]["solutions"]
               if 1 <= x <= n_max]

    def run(tr) -> bool:
        proc = child(ctx, tr, ["classify-fans", "--max", n_max, "--format", "json"])
        return tr.call("check", lambda: proc.returncode == 0
                       and json.loads(proc.stdout) == {"max": n_max, "passing": passing})

    return Task("classify_fans", run)


def verify_task(ctx: Context, doc: dict, labels) -> Task:
    """A permutation labeling; the exit code must match the own residue check."""
    def run(tr) -> bool:
        proc = child(ctx, tr, ["verify", "-", "--format", "json"],
                     encode({"graph": doc, "labels": labels}))
        return tr.call("check", check_verify, doc, labels, proc)

    return Task("verify", run)


def check_verify(doc: dict, labels, proc) -> bool:
    graceful = is_edge_graceful(doc["p"], doc["edges"], labels)
    if proc.returncode != (0 if graceful else 1):
        return False
    verdict = json.loads(proc.stdout)
    own = residues(doc["p"], doc["edges"], labels)
    if verdict["edge_graceful"] is not graceful or verdict["residues"] != own:
        return False
    if graceful:
        return verdict["witness"] is None
    u, v = verdict["witness"]
    return u != v and own[u] == own[v]


def malformed_task(ctx: Context, doc: dict, labels) -> Task:
    """Labels that are not a permutation: exit 2, a one-line error, no traceback."""
    def run(tr) -> bool:
        proc = child(ctx, tr, ["verify", "-"], encode({"graph": doc, "labels": labels}))
        return tr.call("check", lambda: proc.returncode == 2 and proc.stdout == b""
                       and proc.stderr.startswith(b"error:")
                       and b"Traceback" not in proc.stderr)

    return Task("verify_malformed", run)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def build_pool(name: str, ctx: Context, tr, rng) -> list[list[Task]]:
    """The rounds of one pass over the pool, each round in shuffled order."""
    rounds = POOL_ROUNDS[name]
    if name == "classify":
        per_round = classify_rounds(ctx, tr, rng, rounds)
    else:
        make = {"refute": refute_round, "construct": construct_round, "cli": cli_round}[name]
        per_round = [make(ctx, tr, rng) for _ in range(rounds)]
    for tasks in per_round:
        rng.shuffle(tasks)
    return per_round


def warmup_tasks(name: str, ctx: Context, tr, rng) -> list[Task]:
    """Small tasks run before timing starts, one per layer the workload uses."""
    eg = ctx.eg
    if name == "refute":
        graph = shuffled_graph(ctx, tr, rng, "fan", (1, 3))
        return [count_task(ctx, "F_1_3", graph, eg.SearchOptions(mode="count"),
                           ctx.expected["labeling_counts"]["F_1_3"])]
    if name == "construct":
        graph = shuffled_graph(ctx, tr, rng, "cycle", (9,))
        return [witness_task(ctx, "C_9", graph, eg.SearchOptions(mode="first"))]
    if name == "classify":
        passing = [x for x, _y in ctx.expected["fan_equations"]["1"]["solutions"]
                   if 1 <= x <= 1000]
        return [classify_task(ctx, 1000, passing),
                fan_trace_task(ctx, eg.QuadraticDiophantine(*fan_equation(1)))]
    return [lo_task(ctx, ["--p", 12, "--q", 21], 12, 21)]
