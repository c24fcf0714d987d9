from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgegraceful import EdgeLabeling, Graph, QuadraticDiophantine, fan, reduce, verify
from edgegraceful.cli import (
    graph_from_doc,
    graph_to_doc,
    labeling_from_doc,
    labeling_to_doc,
    main,
)
from support import factor_pair_rows_oracle, format_rational_oracle, src_env

CLI = [sys.executable, "-m", "edgegraceful"]
TRIANGLE_EDGES = [[0, 1], [1, 2], [2, 0]]
# JSON values that int() would accept or choke on, each where an integer belongs
NON_INTEGER_GRAPHS = {
    "float_p": {"p": 3.9, "edges": TRIANGLE_EDGES},
    "bool_endpoint": {"p": 3, "edges": [[True, 2], [0, 1], [2, 0]]},
    "null_endpoint": {"p": 3, "edges": [[None, 1], [1, 2], [2, 0]]},
    "list_p": {"p": [1], "edges": []},
}
NON_INTEGER_LABELINGS = {
    "string_and_float_labels": {"graph": {"p": 3, "edges": TRIANGLE_EDGES},
                                "labels": ["1", 2.7, 3]},
    "null_label": {"graph": {"p": 3, "edges": TRIANGLE_EDGES}, "labels": [1, None, 3]},
}
NON_INTEGER_CASES = (
    [("lo", name, doc) for name, doc in NON_INTEGER_GRAPHS.items()]
    + [("search", name, doc) for name, doc in NON_INTEGER_GRAPHS.items()]
    + [("verify", name, {"graph": doc, "labels": [1, 2, 3]})
       for name, doc in NON_INTEGER_GRAPHS.items()]
    + [("verify", name, doc) for name, doc in NON_INTEGER_LABELINGS.items()]
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv)


def trace_oracle(eq: QuadraticDiophantine) -> list[tuple]:
    """(N1, N2, X, Y, x, y, integral) per row, the values rendered through Fraction."""
    return [(n1, n2, *map(format_rational_oracle, values), integral)
            for n1, n2, *values, integral in factor_pair_rows_oracle(eq)]


class TestDocuments:
    def test_graph_round_trip(self):
        g = fan(1, 3)
        assert graph_from_doc(graph_to_doc(g)) == g

    def test_labeling_round_trip(self):
        lab = EdgeLabeling(fan(1, 2), (3, 1, 2))
        assert labeling_from_doc(labeling_to_doc(lab)) == lab

    def test_labeling_graph_by_file_reference(self, tmp_path):
        g = fan(1, 2)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph_to_doc(g)))
        doc = {"graph": str(gpath), "labels": [1, 2, 3]}
        assert labeling_from_doc(doc) == EdgeLabeling(g, (1, 2, 3))

    @pytest.mark.parametrize("command, name, doc", NON_INTEGER_CASES,
                             ids=[f"{c}-{n}" for c, n, _ in NON_INTEGER_CASES])
    def test_non_integer_fields_exit_2(self, capsys, monkeypatch, command, name, doc):
        code, out, err = run_with_stdin(capsys, monkeypatch, json.dumps(doc), command, "-")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            graph_from_doc({"p": 3})
        with pytest.raises(ValueError):
            labeling_from_doc({"labels": [1]})


class TestGen:
    def test_fan(self, capsys):
        code, out, _ = run(capsys, "gen", "fan", "--m", "1", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == 4
        assert len(doc["edges"]) == 5

    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "--n", "5")
        doc = json.loads(out)
        assert code == 0
        assert (doc["p"], len(doc["edges"])) == (5, 5)

    def test_path(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--n", "4")
        doc = json.loads(out)
        assert (doc["p"], len(doc["edges"])) == (4, 3)

    def test_invalid_params_exit_nonzero(self, capsys):
        code, _, err = run(capsys, "gen", "fan", "--m", "1", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_round_trip_through_parse(self, capsys):
        code, out, _ = run(capsys, "gen", "fan", "--m", "2", "--n", "3")
        assert graph_from_doc(json.loads(out)) == fan(2, 3)

    @pytest.mark.parametrize("argv", [["path", "--n", "1000000001"],
                                      ["fan", "--m", "1000", "--n", "1000"]])
    def test_oversized_graph_is_refused_before_it_is_built(self, capsys, argv):
        # p = 10^9 + 1, and q = 1 000 999 for the fan: both over MAX_GRAPH_SIZE
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "limited to 1000000 vertices and edges" in err


class TestLo:
    def test_pq_pass(self, capsys):
        code, out, _ = run(capsys, "lo", "--p", "12", "--q", "21")
        assert code == 0
        assert "396" in out
        assert "pass" in out

    def test_pq_fail(self, capsys):
        code, out, _ = run(capsys, "lo", "--p", "5", "--q", "7")
        assert code == 1
        assert "46" in out

    def test_piped_graph_document(self, capsys, monkeypatch):
        doc = json.dumps(graph_to_doc(fan(1, 3)))
        code, out, _ = run_with_stdin(capsys, monkeypatch, doc, "lo", "-")
        assert code == 0
        assert "residual = 24" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "lo", "--p", "3", "--q", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"p": 3, "q": 3, "residual": 9, "divides": True}

    def test_malformed_document(self, capsys, monkeypatch):
        code, _, err = run_with_stdin(capsys, monkeypatch, '{"nope": 1}', "lo", "-")
        assert code == 2

    def test_invalid_json(self, capsys, monkeypatch):
        code, _, _ = run_with_stdin(capsys, monkeypatch, "p=2 edges", "lo", "-")
        assert code == 2

    def test_deeply_nested_json(self, capsys, monkeypatch):
        code, _, err = run_with_stdin(capsys, monkeypatch, "[" * 100_000, "lo", "-")
        assert code == 2
        assert err.startswith("error:")


class TestDioph:
    def test_fan_solutions(self, capsys):
        code, out, _ = run(capsys, "dioph", "7", "-2", "0", "-5", "-2", "0")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 8
        assert "(11, 33)" in out
        assert "(-13, -52)" in out

    def test_positive_x_filter(self, capsys):
        code, out, _ = run(
            capsys, "dioph", "7", "-2", "0", "-5", "-2", "0", "--positive-x"
        )
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines == ["(2, 3)", "(3, 6)", "(11, 33)"]

    def test_no_solutions_in_text(self, capsys):
        # 2x^2 + 2xy + 1 = 0: N = 32, and none of its factor-pair rows is integral
        code, out, _ = run(capsys, "dioph", "2", "2", "0", "0", "0", "1")
        assert code == 0
        assert out == "no integer solutions\n"

    def test_trace_table(self, capsys):
        code, out, _ = run(capsys, "dioph", "7", "-2", "0", "-5", "-2", "0", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert "X^2 - 4*Y^2 = 1344" in lines[0]
        # header + 56 rows
        assert len(lines) == 58
        assert "672.5" in out and "335.75" in out
        assert "41/7" in out  # non-terminating rationals stay exact

    def test_trace_json(self, capsys):
        code, out, _ = run(
            capsys, "dioph", "7", "-2", "0", "-5", "-2", "0", "--trace",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["N"] == 1344
        assert len(doc["rows"]) == 56
        assert doc["rows"][0] == {
            "N1": 1, "N2": 1344, "X": "672.5", "Y": "335.75",
            "x": "47", "y": "158.625", "integral": False,
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-30, 30).filter(lambda v: v != 0),
        st.integers(-30, 30).filter(lambda v: v != 0),
        st.integers(-300, 300),
        st.integers(-300, 300),
        st.integers(-300, 300),
    )
    # b < 0, or a*b < 0, puts the sign of Y, or of x, in a negative denominator
    @example(3, -7, 5, 11, -13)
    @example(-5, 3, 2, -9, 4)
    @example(-6, -9, 4, 1, 7)
    @example(2, 3, 0, 0, 1)
    def test_trace_json_matches_fraction_oracle(self, a, b, d, e, f):
        eq = QuadraticDiophantine(a, b, 0, d, e, f)
        assume(reduce(eq).N != 0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["dioph", *map(str, (a, b, 0, d, e, f)), "--trace", "--format", "json"])
        assert code == 0
        rows = [tuple(r[k] for k in ("N1", "N2", "X", "Y", "x", "y", "integral"))
                for r in json.loads(out.getvalue())["rows"]]
        assert rows == trace_oracle(eq)

    def test_trace_table_with_negative_denominators(self, capsys):
        # b = -7 and a*b = -21: Y and x have negative denominators
        code, out, _ = run(capsys, "dioph", "3", "-7", "0", "5", "11", "-13", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "X^2 - 49*Y^2 = 1332"
        assert lines[1].split() == ["N1", "N2", "X", "Y", "x", "y"]
        assert len({len(line) for line in lines[1:]}) == 1
        expected = [(str(n1), str(n2), *cells)
                    for n1, n2, *cells, _ in trace_oracle(QuadraticDiophantine(3, -7, 0, 5, 11, -13))]
        assert [tuple(line.split()) for line in lines[2:]] == expected

    def test_restriction_violation_named(self, capsys):
        code, _, err = run(capsys, "dioph", "1", "0", "0", "0", "1", "0")
        assert code == 2
        assert "b != 0" in err

    def test_c_nonzero_rejected(self, capsys):
        code, _, err = run(capsys, "dioph", "1", "1", "1", "0", "0", "-3")
        assert code == 2
        assert "c = 0" in err

    def test_solutions_json(self, capsys):
        code, out, _ = run(
            capsys, "dioph", "7", "-2", "0", "-5", "-2", "0", "--format", "json"
        )
        doc = json.loads(out)
        assert [11, 33] in doc["solutions"]
        assert len(doc["solutions"]) == 8


    def test_large_n_factors_fast(self, capsys):
        # N = 4 * 10**15; x(x + y) = -f has one solution per signed divisor x of f
        f = 10**15
        code, out, _ = run(capsys, "dioph", "1", "1", "0", "0", "0", str(f), "--format", "json")
        assert code == 0
        divisors = [2**a * 5**b for a in range(16) for b in range(16)]
        expected = sorted((x, -f // x - x) for d in divisors for x in (d, -d))
        assert [tuple(s) for s in json.loads(out)["solutions"]] == expected

    def test_uncertifiable_cofactor_exits_2(self, capsys):
        # N = 4 * 3317044064679887385961981 (the first prime past the bound
        # below which Miller-Rabin on bases 2..41 is a proof)
        code, _, err = run(capsys, "dioph", "1", "1", "0", "0", "0",
                           "3317044064679887385962123")
        assert code == 2
        assert "certify" in err

    def test_unsplit_1000_digit_cofactor_exits_2_in_bounded_time(self, capsys):
        # f is the product of the next primes after 10^499 and 10^500, too far
        # apart for Pollard-Brent; its budget shrinks with f's size in words
        f = (10**499 + 153) * (10**500 + 961)
        start = time.perf_counter()
        code, out, err = run(capsys, "dioph", "1", "1", "0", "0", "0", str(f))
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert "Pollard-Brent" in err and "Traceback" not in err


class TestSearch:
    def graph_doc(self, g):
        return json.dumps(graph_to_doc(g))

    def test_first_on_fan3(self, capsys, monkeypatch):
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 3)), "search", "-"
        )
        assert code == 0
        lab = labeling_from_doc(json.loads(out))
        assert verify(lab).edge_graceful

    def test_all_on_fan4_exhausts_empty(self, capsys, monkeypatch):
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 4)), "search", "-",
            "--mode", "all",
        )
        assert code == 1
        assert out.strip() == ""

    def test_count_mode(self, capsys, monkeypatch):
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 2)), "search", "-",
            "--mode", "count",
        )
        assert code == 0
        assert out.strip() == "solutions = 6"

    def test_dot_output(self, capsys, monkeypatch):
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 2)), "search", "-",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph {")
        assert "--" in out and "[label=" in out

    def test_no_prune_flag(self, capsys):
        # the collision cut is always on; the flag is unknown to the parser
        with pytest.raises(SystemExit) as exc:
            main(["search", "-", "--mode", "count", "--no-prune"])
        assert exc.value.code == 2

    def test_malformed_input(self, capsys, monkeypatch):
        code, _, _ = run_with_stdin(capsys, monkeypatch, "{}", "search", "-")
        assert code == 2

    def test_warns_when_screen_fails_but_still_searches(self, capsys, monkeypatch):
        code, out, err = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 4)), "search", "-",
            "--mode", "all",
        )
        assert code == 1
        assert "divisibility" in err

    def test_no_warning_when_screen_passes(self, capsys, monkeypatch):
        code, _, err = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 3)), "search", "-"
        )
        assert code == 0
        assert err == ""

    def test_bad_limit_fails_before_the_input_is_read(self, capsys, monkeypatch):
        # {"p": 2, "edges": []} fails the screen, so reading it would warn first
        code, out, err = run_with_stdin(
            capsys, monkeypatch, '{"p": 2, "edges": []}', "search", "-", "--limit", "0"
        )
        assert code == 2
        assert err.startswith("error:")
        assert "warning" not in err
        assert out == ""

    def test_help_says_what_the_limit_caps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "first: one labeling; all: every labeling; count: how many" in out
        assert "caps the labelings in modes all and count; mode first returns at most one" in out

    def test_first_mode_returns_one_labeling_whatever_the_limit(self, capsys, monkeypatch):
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, self.graph_doc(fan(1, 3)), "search", "-", "--limit", "5"
        )
        assert code == 0
        assert verify(labeling_from_doc(json.loads(out))).edge_graceful


class TestVerify:
    def test_cycle5_sequential_valid(self, capsys, monkeypatch):
        from edgegraceful import cycle

        doc = json.dumps(
            {"graph": graph_to_doc(cycle(5)), "labels": [1, 2, 3, 4, 5]}
        )
        code, out, _ = run_with_stdin(capsys, monkeypatch, doc, "verify", "-")
        assert code == 0
        assert "edge-graceful: yes" in out
        assert "[1, 3, 0, 2, 4]" in out

    def test_single_edge_invalid(self, capsys, monkeypatch):
        from edgegraceful import path

        doc = json.dumps({"graph": graph_to_doc(path(2)), "labels": [1]})
        code, out, _ = run_with_stdin(capsys, monkeypatch, doc, "verify", "-")
        assert code == 1
        assert "edge-graceful: no" in out

    def test_non_permutation_is_malformed(self, capsys, monkeypatch):
        from edgegraceful import cycle

        doc = json.dumps(
            {"graph": graph_to_doc(cycle(5)), "labels": [1, 1, 2, 3, 4]}
        )
        code, _, err = run_with_stdin(capsys, monkeypatch, doc, "verify", "-")
        assert code == 2
        assert "permutation" in err

    def test_deeply_nested_graph_reference_exits_2(self, capsys, monkeypatch, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        doc = json.dumps({"graph": str(deep), "labels": [1]})
        code, out, err = run_with_stdin(capsys, monkeypatch, doc, "verify", "-")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_labels_string_is_malformed(self, capsys, monkeypatch):
        # "" would otherwise pass as the empty labeling of the one-vertex graph
        doc = json.dumps({"graph": {"p": 1, "edges": []}, "labels": ""})
        code, out, err = run_with_stdin(capsys, monkeypatch, doc, "verify", "-")
        assert code == 2
        assert "'labels' must be an integer array" in err
        assert out == ""

    def test_json_format(self, capsys, monkeypatch):
        doc = json.dumps({"graph": graph_to_doc(fan(1, 2)), "labels": [1, 2, 3]})
        code, out, _ = run_with_stdin(
            capsys, monkeypatch, doc, "verify", "-", "--format", "json"
        )
        got = json.loads(out)
        assert got["edge_graceful"] is True
        assert got["residues"] == [0, 1, 2]


class TestClassifyFans:
    def test_max_1000(self, capsys):
        for n_max in ("1000", "1000000000000"):
            code, out, _ = run(capsys, "classify-fans", "--max", n_max, "--format", "json")
            assert code == 0
            assert json.loads(out)["passing"] == [2, 3, 11]

    def test_max_1_empty(self, capsys):
        code, out, _ = run(capsys, "classify-fans", "--max", "1")
        assert code == 0
        assert "(none)" in out

    def test_confirm_search_reports_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "classify-fans", "--max", "100", "--confirm-search",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["passing"] == [2, 3, 11]
        for n in (2, 3, 11):
            lab = labeling_from_doc(doc["witnesses"][str(n)])
            assert lab.graph == fan(1, n)
            assert verify(lab).edge_graceful

    def test_confirm_search_in_text(self, capsys):
        code, out, _ = run(capsys, "classify-fans", "--max", "100", "--confirm-search")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(": 2 3 11")
        witnesses = [re.fullmatch(r"n=(\d+): labels (\[.*\]) residues (\[.*\])", line)
                     for line in lines[1:]]
        assert [int(m[1]) for m in witnesses] == [2, 3, 11]
        for m in witnesses:
            verdict = verify(EdgeLabeling(fan(1, int(m[1])), json.loads(m[2])))
            assert verdict.edge_graceful
            assert list(verdict.induced.residues) == json.loads(m[3])


class TestPipeline:
    def test_gen_search_verify_composition(self, capsys, monkeypatch):
        code, gen_out, _ = run(capsys, "gen", "fan", "--m", "1", "--n", "3")
        assert code == 0
        code, search_out, _ = run_with_stdin(
            capsys, monkeypatch, gen_out, "search", "-"
        )
        assert code == 0
        code, verify_out, _ = run_with_stdin(
            capsys, monkeypatch, search_out, "verify", "-"
        )
        assert code == 0
        assert "edge-graceful: yes" in verify_out

    def test_single_vertex_path_composes(self, capsys, monkeypatch):
        # the empty labeling of a one-vertex graph is found and verified
        code, gen_out, _ = run(capsys, "gen", "path", "--n", "1")
        assert code == 0
        code, search_out, _ = run_with_stdin(capsys, monkeypatch, gen_out, "search", "-")
        assert code == 0
        assert json.loads(search_out) == {"graph": {"p": 1, "edges": []}, "labels": []}
        code, verify_out, _ = run_with_stdin(capsys, monkeypatch, search_out, "verify", "-")
        assert code == 0
        assert "edge-graceful: yes" in verify_out

    def test_edgeless_multi_vertex_search_refutes(self, capsys, monkeypatch):
        code, out, err = run_with_stdin(capsys, monkeypatch, '{"p": 3, "edges": []}',
                                        "search", "-", "--mode", "count")
        assert (code, out, err) == (1, "solutions = 0\n", "")

    @pytest.mark.parametrize("k, lo_code, search_code", [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 0, 1)])
    def test_edgeless_graphs_keep_the_screen_necessary(self, capsys, monkeypatch,
                                                        k, lo_code, search_code):
        # residual -k(k-1)/2: 0 | 0, 1 | 0, 2 does not divide -1, 3 | -3
        doc = json.dumps({"p": k, "edges": []})
        code, out, _ = run_with_stdin(capsys, monkeypatch, doc, "lo", "-", "--format", "json")
        assert code == lo_code
        assert json.loads(out)["divides"] is (code == 0)
        code, _, err = run_with_stdin(capsys, monkeypatch, doc, "search", "-")
        assert code == search_code
        assert ("divisibility" in err) is (lo_code == 1)
        # the screen is necessary: whatever search finds, lo passes
        assert search_code == 1 or lo_code == 0

    def test_file_input(self, capsys, tmp_path):
        gpath = tmp_path / "graph.json"
        gpath.write_text(json.dumps(graph_to_doc(Graph(3, [(0, 1), (1, 2), (2, 0)]))))
        code, out, _ = run(capsys, "lo", str(gpath))
        assert code == 0

    def test_search_deeper_than_recursion_limit_exits_2(self):
        # a traceback here would also exit 1, the "definitive no" code
        env = src_env()
        gen = subprocess.run(CLI + ["gen", "path", "--n", "1501"], capture_output=True,
                             text=True, env=env, timeout=60, check=True)
        proc = subprocess.run(CLI + ["search", "-"], input=gen.stdout,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_search_refutes_a_deep_graph_with_isolated_vertices_exits_1(
            self, capsys, monkeypatch):
        # two isolated vertices refute the graph before the depth guard is asked
        q = sys.getrecursionlimit()
        doc = json.dumps({"p": q + 3, "edges": [[i, i + 1] for i in range(q)]})
        code, out, err = run_with_stdin(capsys, monkeypatch, doc, "search", "-")
        assert code == 1
        assert out == ""
        assert "error" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["lo"], ["search", "-"]], ids=["lo", "search"])
    def test_closed_stdin_exits_2_with_one_error_line(self, capsys, monkeypatch, argv):
        # a process started with stdin closed has sys.stdin None
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: standard input is closed\n"

    def test_closed_stdout_exits_2_quietly(self, capsys, monkeypatch):
        # a process started with stdout closed has sys.stdout None
        monkeypatch.setattr("sys.stdout", None)
        code = main(["lo", "--p", "12", "--q", "21"])
        monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv, fd, doc, code, out",
        [(["lo"], 0, None, 2, ""), (["search", "-"], 0, None, 2, ""),
         (["lo", "--p", "12", "--q", "21"], 1, None, 2, ""),
         (["lo", "-"], 2, '{"nope": 1}', 2, ""),
         (["search", "-", "--mode", "count"], 2, '{"p": 2, "edges": []}', 1, "solutions = 0\n"),
         (["lo", "--p", "x"], 2, None, 2, "")],
        ids=["lo-stdin", "search-stdin", "lo-stdout", "lo-stderr-error", "search-stderr-warning",
             "lo-stderr-usage"])
    def test_closed_standard_stream_exits_2_without_traceback(self, argv, fd, doc, code, out):
        # as `lo <&-`, `search - <&-`, `lo --p 12 --q 21 >&-` and `... 2>&-` in a
        # shell; with stderr closed the error, the warning and the usage are
        # dropped, not written to stdout, and the exit code is kept
        proc = subprocess.run(CLI + argv, env=src_env(), input=doc, capture_output=True,
                              text=True, timeout=60, preexec_fn=lambda: os.close(fd))
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr == ("error: standard input is closed\n" if fd == 0 else "")

    @pytest.mark.parametrize("n, head", [(200_000, 10), (3, 0)],
                             ids=["in-print", "in-final-flush"])
    def test_closed_output_pipe_exits_2_quietly(self, n, head):
        # 3 MB fails inside print, as in `gen | head -c 10`; a few bytes stay
        # buffered until the flush at exit, long after the reader is gone
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(CLI + ["gen", "path", "--n", str(n)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(head)) == head
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


# ---------------------------------------------------------------------------
# fuzzing the document commands
# ---------------------------------------------------------------------------

big_int = st.sampled_from([10**6 + 1, 2**63, 10**30, -(10**30)])
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), big_int,
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)


@st.composite
def valid_graph_docs(draw):
    p = draw(st.integers(1, 7))
    pairs = [[u, v] for u in range(p) for v in range(u + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique_by=tuple)) if pairs else []
    # a huge p keeps the document valid: the extra vertices are isolated
    p = draw(st.one_of(st.just(p), st.just(p), big_int.filter(lambda n: n > 0)))
    return {"p": p, "edges": [e[::-1] if draw(st.booleans()) else e for e in edges]}


@st.composite
def mutated(draw, docs, keys):
    """A document with one field dropped or replaced by junk, or left intact."""
    doc = dict(draw(docs))
    key = draw(st.sampled_from(keys))
    action = draw(st.sampled_from(["keep", "drop", "junk"]))
    if action == "drop":
        doc.pop(key, None)
    elif action == "junk":
        doc[key] = draw(junk)
    return doc


graph_docs = st.one_of(
    valid_graph_docs(),
    mutated(valid_graph_docs(), ["p", "edges"]),
    # edge entries: arrays of near-valid or junk endpoints, or junk in place of an array
    st.fixed_dictionaries({
        "p": st.one_of(st.integers(-2, 9), big_int),
        "edges": st.lists(st.one_of(st.lists(st.one_of(st.integers(-1, 9), junk),
                                             min_size=1, max_size=3), junk), max_size=5),
    }),
    junk,
)


@st.composite
def labeling_docs(draw):
    graph = draw(st.one_of(valid_graph_docs(), graph_docs, st.text(max_size=4)))
    q = len(graph["edges"]) if isinstance(graph, dict) and isinstance(graph.get("edges"), list) else 3
    labels = draw(st.one_of(st.permutations(list(range(1, q + 1))),
                            st.lists(st.one_of(st.integers(-1, q + 1), junk), max_size=q + 1),
                            junk))
    return draw(st.one_of(st.just({"graph": graph, "labels": labels}),
                          mutated(st.just({"graph": graph, "labels": labels}), ["graph", "labels"])))


def document_text(doc_strategy):
    return st.one_of(doc_strategy.map(json.dumps), st.text(max_size=12),
                     doc_strategy.map(lambda d: json.dumps(d)[:-1]))


fuzz_cases = st.one_of(
    st.tuples(st.just(["lo", "-"]), document_text(graph_docs)),
    st.tuples(st.sampled_from([["lo", "-", "--format", "json"], ["lo", "--p", "5"]]),
              document_text(graph_docs)),
    st.tuples(st.tuples(st.just("search"), st.just("-"), st.just("--mode"),
                        st.sampled_from(["first", "all", "count"]),
                        st.sampled_from(["--limit=1", "--limit=3", "--limit=0", "--limit=-2",
                                         "--format=dot", "--format=labels"])).map(list),
              document_text(graph_docs)),
    st.tuples(st.sampled_from([["verify", "-"], ["verify", "-", "--format", "json"]]),
              document_text(labeling_docs())),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fuzz_cases)
    def test_documents_keep_the_exit_code_contract(self, case):
        argv, text = case
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue()
