from __future__ import annotations

import functools
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgegraceful import (
    FactorPairRow,
    QuadraticDiophantine,
    ReducedForm,
    format_rational,
    integer_solutions,
    positive_divisors,
    reduce,
    solve_factor_pairs,
)
from edgegraceful import diophantine
from edgegraceful.diophantine import factor_pair_trace
from support import (
    divisors_oracle,
    factor_pair_rows_oracle,
    format_rational_oracle,
    src_env,
)
from fan_trace_reference import (
    EXPECTED_FAN_SOLUTIONS,
    EXPECTED_FAN_TRACE,
    matches_printed,
)

FAN_EQ = QuadraticDiophantine(7, -2, 0, -5, -2, 0)


def fan_mn_equation(m: int) -> QuadraticDiophantine:
    """Lo's condition for F_{m,n} as a c = 0 equation with x = n (m = 1: FAN_EQ)."""
    return QuadraticDiophantine(2 * m * m + 4 * m + 1, -2, 0, -(4 * m + 1), -2 * m, m - m * m)


def row_tuples(rows) -> list[tuple]:
    return [(r.N1, r.N2, r.X, r.Y, r.x, r.y, r.integral) for r in rows]


@functools.cache
def smooth_c0_equations(per_cell: int = 3) -> list[QuadraticDiophantine]:
    """Seeded c = 0 equations with 10^9 <= |N| <= 10^12 and at least 200
    divisors, per_cell for each sign of a, of b and of N.  Each has a planted
    solution (x0, y0), so its solution set is not empty."""
    rng = random.Random(19)
    out = []
    for sa, sb, sn in itertools.product((1, -1), repeat=3):
        kept = 0
        while kept < per_cell:
            a, b = sa * rng.randint(1, 12), sb * rng.randint(1, 12)
            d, e = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            x0, y0 = rng.randint(-10**3, 10**3), rng.randint(-10**3, 10**3)
            f = -(a * x0 * x0 + b * x0 * y0 + d * x0 + e * y0)
            eq = QuadraticDiophantine(a, b, 0, d, e, f)
            N = reduce(eq).N
            if 10**9 <= sn * N <= 10**12 and sympy.divisor_count(N) >= 200:
                out.append(eq)
                kept += 1
    return out


coef = st.integers(-8, 8)
nonzero = coef.filter(lambda v: v != 0)


def brute_solutions_c0(eq: QuadraticDiophantine, window: int) -> set[tuple[int, int]]:
    """Oracle for c = 0: once x is fixed, y is pinned by a linear equation."""
    assert eq.c == 0
    sols = set()
    for x in range(-window, window + 1):
        den = eq.b * x + eq.e
        num = -(eq.a * x * x + eq.d * x + eq.f)
        if den == 0:
            assert num != 0, "degenerate solution family (N = 0 case)"
            continue
        if num % den == 0:
            sols.add((x, num // den))
    return sols


class TestReduce:
    def test_fan_equation_constants(self):
        form = reduce(FAN_EQ)
        assert (form.D, form.E, form.F, form.N) == (4, 38, 25, 1344)

    def test_all_zero_constants(self):
        form = reduce(QuadraticDiophantine(1, 0, 0, 0, 0, 0))
        assert (form.D, form.E, form.F, form.N) == (0, 0, 0, 0)

    def test_hand_applied_formulas(self):
        form = reduce(QuadraticDiophantine(1, 2, 0, 4, 6, 8))
        assert (form.D, form.E, form.F, form.N) == (4, -4, -16, 80)

    def test_rejects_a_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            QuadraticDiophantine(0, 1, 0, 1, 1, 1)

    @pytest.mark.parametrize("coefficients", [(7.0, -2, 0, -5, -2, 0), (7, -2, 0, -5, -2, 0.5),
                                              (7, -2, False, -5, -2, 0), (7, "-2", 0, -5, -2, 0)])
    def test_rejects_non_integer_coefficient(self, coefficients):
        # rejected at construction, not with a TypeError inside integer_solutions
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            QuadraticDiophantine(*coefficients)

    @given(nonzero, coef, coef, coef, coef, st.integers(-50, 50), st.integers(-50, 50))
    def test_solutions_map_onto_the_reduced_form(self, a, b, c, d, e, x, y):
        # choose f so that (x, y) solves the equation, then check the identity
        f = -(a * x * x + b * x * y + c * y * y + d * x + e * y)
        eq = QuadraticDiophantine(a, b, c, d, e, f)
        form = reduce(eq)
        X = form.D * y + form.E
        Y = 2 * a * x + b * y + d
        assert X * X - form.D * Y * Y == form.N


class TestSolveFactorPairs:
    def test_rejects_c_nonzero(self):
        with pytest.raises(ValueError, match="c = 0"):
            solve_factor_pairs(reduce(QuadraticDiophantine(1, 3, 1, 0, 0, 5)))

    def test_rejects_b_zero(self):
        with pytest.raises(ValueError, match="b != 0"):
            solve_factor_pairs(reduce(QuadraticDiophantine(1, 0, 0, 0, 1, 0)))

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError, match="N != 0"):
            solve_factor_pairs(reduce(QuadraticDiophantine(1, 1, 0, 0, 0, 0)))

    @pytest.mark.parametrize("field,value",
                             [("D", 9), ("D", 5), ("E", 40), ("F", 24), ("N", 1345)])
    def test_rejects_form_inconsistent_with_equation(self, field, value):
        good = {"D": 4, "E": 38, "F": 25, "N": 1344}
        form = ReducedForm(FAN_EQ, **{**good, field: value})
        with pytest.raises(ValueError, match="does not match reduce"):
            solve_factor_pairs(form)

    def test_fan_highlighted_row(self):
        rows = {(r.N1, r.N2): r for r in solve_factor_pairs(reduce(FAN_EQ))}
        r = rows[(4, 336)]
        assert (r.X, r.Y, r.x, r.y) == (170, 83, 11, 33)
        assert r.integral

    def test_fan_first_row_kept_but_nonintegral(self):
        rows = solve_factor_pairs(reduce(FAN_EQ))
        r = rows[0]
        assert (r.N1, r.N2) == (1, 1344)
        assert r.X == Fraction(1345, 2)
        assert r.Y == Fraction(1343, 4)
        assert not r.integral

    def test_fan_zero_row(self):
        rows = {(r.N1, r.N2): r for r in solve_factor_pairs(reduce(FAN_EQ))}
        r = rows[(48, 28)]
        assert (r.X, r.Y, r.x, r.y) == (38, -5, 0, 0)
        assert r.integral

    def test_fan_trace_reproduces_published_rows(self):
        rows = solve_factor_pairs(reduce(FAN_EQ))
        assert len(rows) == len(EXPECTED_FAN_TRACE) == 56
        for row, (n1, n2, xs, ys, xxs, yys) in zip(rows, EXPECTED_FAN_TRACE):
            assert (row.N1, row.N2) == (n1, n2)
            assert matches_printed(row.X, xs)
            assert matches_printed(row.Y, ys)
            assert matches_printed(row.x, xxs)
            assert matches_printed(row.y, yys)

    def test_pair_products(self):
        form = reduce(FAN_EQ)
        for r in solve_factor_pairs(form):
            assert r.N1 * r.N2 == form.N
            assert r.X == Fraction(r.N1 + r.N2, 2)
            assert r.Y == Fraction(r.N1 - r.N2, 2 * FAN_EQ.b)

    def test_negative_n_enumeration(self):
        # N = -16 here: every pair mixes signs, block layout mirrors the N > 0 one
        eq = QuadraticDiophantine(1, -2, 0, -3, 0, -1)
        form = reduce(eq)
        assert form.N == -16
        rows = solve_factor_pairs(form)
        assert all(r.N1 * r.N2 == -16 for r in rows)
        # every divisor of N appears exactly once as N1; both orders per pair
        assert [r.N1 for r in rows] == [1, 2, 4, -16, -8, -1, -2, -4, 16, 8]
        assert not any(r.integral for r in rows)

    def test_perfect_square_n_has_self_paired_row_once(self):
        # N = 16: (4, 4) and (-4, -4) each appear exactly once
        eq = QuadraticDiophantine(1, -2, 0, -3, -2, -3)
        rows = solve_factor_pairs(reduce(eq))
        assert [r.N1 for r in rows] == [1, 2, 4, 16, 8, -1, -2, -4, -16, -8]
        assert sum(1 for r in rows if (r.N1, r.N2) == (4, 4)) == 1


class TestFactorPairOracle:
    """Rows of the closed forms against the Fraction chain, row for row."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_fan_mn_equations(self, m):
        eq = fan_mn_equation(m)
        assert row_tuples(solve_factor_pairs(reduce(eq))) == factor_pair_rows_oracle(eq)

    def test_oracle_reproduces_fan_trace(self):
        oracle = factor_pair_rows_oracle(FAN_EQ)
        assert len(oracle) == len(EXPECTED_FAN_TRACE) == 56
        for row, (n1, n2, *printed) in zip(oracle, EXPECTED_FAN_TRACE):
            assert row[:2] == (n1, n2)
            assert all(matches_printed(v, text) for v, text in zip(row[2:6], printed))

    @settings(deadline=None)
    @given(
        st.integers(-100, 100).filter(lambda v: v != 0),
        st.integers(-100, 100).filter(lambda v: v != 0),
        st.integers(-3000, 3000),
        st.integers(-3000, 3000),
        st.integers(-300_000, 300_000),
    )
    def test_random_c0_equations(self, a, b, d, e, f):
        # |N| reaches about 10^12 with these ranges
        eq = QuadraticDiophantine(a, b, 0, d, e, f)
        assume(reduce(eq).N != 0)
        assert row_tuples(solve_factor_pairs(reduce(eq))) == factor_pair_rows_oracle(eq)

    def test_smooth_n_equations(self):
        # hundreds of divisors per N, which the hypothesis ranges above rarely
        # reach, and a perfect-square |N| whose middle pair sits once per sign
        square = QuadraticDiophantine(-3, 2, 0, 5, 7, 169_087_723)
        assert reduce(square).N == -(2 * 3**2 * 5 * 7 * 11 * 13) ** 2
        for eq in smooth_c0_equations() + [square]:
            form, want = reduce(eq), factor_pair_rows_oracle(eq)
            assert row_tuples(solve_factor_pairs(form)) == want, eq
            assert factor_pair_trace(form) == [
                {"N1": n1, "N2": n2,
                 **{k: format_rational_oracle(v) for k, v in zip("XYxy", values)},
                 "integral": integral}
                for n1, n2, *values, integral in want
            ], eq


class TestLazyRows:
    """Rows store integer numerators and read X, Y, x and y as Fractions."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_rows_rebuilt_from_their_fields_are_equal(self, m):
        # m = 1 is FAN_EQ, the 56-row table
        eq = fan_mn_equation(m)
        rows = solve_factor_pairs(reduce(eq))
        if m == 1:
            assert len(rows) == 56
        built = [FactorPairRow(r.N1, r.N2, r.integral, r.numerators, r.denominators)
                 for r in rows]
        assert built == rows and rows == built
        assert [hash(r) for r in built] == [hash(r) for r in rows]
        assert row_tuples(built) == factor_pair_rows_oracle(eq)

    def test_computed_fields_cannot_be_assigned_or_deleted(self):
        row = solve_factor_pairs(reduce(FAN_EQ))[0]
        for name in "XYxy":
            with pytest.raises(AttributeError):
                setattr(row, name, Fraction(1))
            with pytest.raises(AttributeError):
                delattr(row, name)
        assert row.X == Fraction(1345, 2)

    def test_repr_names_the_stored_fields(self):
        rows = solve_factor_pairs(reduce(FAN_EQ))
        assert repr(rows[0]) == (
            "FactorPairRow(N1=1, N2=1344, integral=False, numerators=(1345, -1343, -1316, 1269), "
            "denominators=(2, -4, -28, 8))"
        )

    def test_constructor_takes_the_stored_fields(self):
        row = FactorPairRow(48, 28, True, numerators=(76, 20, 0, 0), denominators=(2, -4, -28, 8))
        assert (row.X, row.Y, row.x, row.y) == (38, -5, 0, 0)
        assert type(row.X) is Fraction
        assert row == {(r.N1, r.N2): r for r in solve_factor_pairs(reduce(FAN_EQ))}[(48, 28)]


class TestBackSubstitute:
    """(X, Y) back to (x, y), as the factor-pair rows of the fan equation carry it."""

    ROWS = {(r.N1, r.N2): r for r in solve_factor_pairs(reduce(FAN_EQ))}

    def test_recovers_small_solution(self):
        r = self.ROWS[(16, 84)]
        assert (r.X, r.Y, r.x, r.y) == (50, 17, 2, 3)
        assert r.integral

    def test_recovers_middle_solution(self):
        r = self.ROWS[(12, 112)]
        assert (r.X, r.Y, r.x, r.y) == (62, 25, 3, 6)
        assert r.integral

    def test_rejects_integral_point_off_lattice(self):
        # X = 37 is an integer, but y = -1/4
        r = self.ROWS[(32, 42)]
        assert (r.X, r.Y, r.y) == (37, Fraction(5, 2), Fraction(-1, 4))
        assert not r.integral


class TestIntegerSolutions:
    def test_fan_equation_full_set(self):
        got = integer_solutions(FAN_EQ)
        assert got == sorted(EXPECTED_FAN_SOLUTIONS)
        assert len(got) == 8

    def test_fan_solutions_satisfy_equation(self):
        for x, y in integer_solutions(FAN_EQ):
            assert FAN_EQ.evaluate(x, y) == 0

    def test_positive_x_filter_downstream(self):
        xs = {x for x, _ in integer_solutions(FAN_EQ) if x >= 1}
        assert xs == {2, 3, 11}

    def test_empty_solution_set(self):
        eq = QuadraticDiophantine(1, -2, 0, -3, -2, -3)
        assert integer_solutions(eq) == []
        assert brute_solutions_c0(eq, 2000) == set()

    def test_fan_matches_brute_force_at_desk_scale(self):
        assert set(integer_solutions(FAN_EQ)) == brute_solutions_c0(FAN_EQ, 2000)

    def test_propagates_restriction_errors(self, monkeypatch):
        # c != 0, b = 0, N = 0: the table's message, raised before N is factored
        equations = [QuadraticDiophantine(1, 3, 1, 0, 0, 5),
                     QuadraticDiophantine(1, 0, 0, 0, 1, 0),
                     QuadraticDiophantine(1, 1, 0, 0, 0, 0)]
        messages = []
        for eq in equations:
            with pytest.raises(ValueError) as table_error:
                solve_factor_pairs(reduce(eq))
            messages.append(str(table_error.value))

        def no_factoring(n):
            raise AssertionError(f"positive_divisors({n}) called before the form checks")

        monkeypatch.setattr(diophantine, "positive_divisors", no_factoring)
        for eq, message, part in zip(equations, messages, ("c = 0", "b != 0", "N != 0")):
            assert part in message
            with pytest.raises(ValueError) as solve_error:
                integer_solutions(eq)
            assert str(solve_error.value) == message

    def test_matches_the_row_oracle_on_smooth_n(self):
        smooth = smooth_c0_equations()
        assert {(eq.a > 0, eq.b > 0) for eq in smooth} == {(True, True), (True, False),
                                                          (False, True), (False, False)}
        for eq in [fan_mn_equation(m) for m in range(1, 7)] + smooth:
            want = sorted({(int(x), int(y))
                           for *_, x, y, integral in factor_pair_rows_oracle(eq) if integral})
            assert want, eq
            assert integer_solutions(eq) == want, eq

    @given(nonzero, nonzero, coef, coef, coef)
    def test_random_c0_equations_sound(self, a, b, d, e, f):
        eq = QuadraticDiophantine(a, b, 0, d, e, f)
        if reduce(eq).N == 0:
            return
        for x, y in integer_solutions(eq):
            assert eq.evaluate(x, y) == 0

    @settings(deadline=None)
    @given(
        st.integers(-30, 30).filter(lambda v: v != 0),
        st.integers(-30, 30).filter(lambda v: v != 0),
        st.integers(-300, 300),
        st.integers(-300, 300),
        st.integers(-300, 300),
    )
    def test_random_c0_equations_match_sympy(self, a, b, d, e, f):
        eq = QuadraticDiophantine(a, b, 0, d, e, f)
        assume(reduce(eq).N != 0)
        x, y = sympy.symbols("x y", integer=True)
        expect = sympy.diophantine(
            a * x**2 + b * x * y + d * x + e * y + f, syms=[x, y]
        )
        assert set(integer_solutions(eq)) == {(int(u), int(v)) for u, v in expect}

    @given(nonzero, nonzero, coef, coef, coef)
    def test_random_c0_equations_complete_in_window(self, a, b, d, e, f):
        eq = QuadraticDiophantine(a, b, 0, d, e, f)
        if reduce(eq).N == 0:
            return
        got = set(integer_solutions(eq))
        expect = brute_solutions_c0(eq, 300)
        assert {s for s in got if max(abs(s[0]), 0) <= 300} >= expect
        assert expect == {s for s in got if abs(s[0]) <= 300}


class TestHelpers:
    def test_positive_divisors(self):
        assert positive_divisors(1344) == [
            1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 21, 24, 28, 32,
            42, 48, 56, 64, 84, 96, 112, 168, 192, 224, 336, 448, 672, 1344,
        ]
        assert positive_divisors(-16) == [1, 2, 4, 8, 16]
        with pytest.raises(ValueError):
            positive_divisors(0)

    @pytest.mark.parametrize(
        "value,text",
        [
            ((1345, 2), "672.5"),
            ((1343, 4), "335.75"),
            ((41, 7), "41/7"),
            ((-27, 28), "-27/28"),
            ((46, 5), "9.2"),
            ((33, 1), "33"),
            ((-1, 4), "-0.25"),
            ((0, 1), "0"),
            # unreduced, negative denominator, both signs negative
            ((2690, 4), "672.5"),
            ((1343, -4), "-335.75"),
            ((-1345, -2), "672.5"),
            ((0, -7), "0"),
        ],
    )
    def test_format_rational(self, value, text):
        assert format_rational(*value) == text

    @pytest.mark.parametrize("n", [12.0, True, "12"])
    def test_positive_divisors_rejects_non_integer(self, n):
        # a float would give float divisors
        with pytest.raises(ValueError, match="must be an integer"):
            positive_divisors(n)

    @pytest.mark.parametrize("num, den", [(1.5, 2), (1, 2.0), (True, 2)])
    def test_format_rational_rejects_non_integer(self, num, den):
        with pytest.raises(ValueError, match="must be an integer"):
            format_rational(num, den)

    def test_format_rational_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="nonzero denominator"):
            format_rational(1, 0)

    @given(
        st.integers(-10**9, 10**9),
        st.one_of(
            st.integers(-10**6, 10**6),
            st.builds(lambda i, j, s: s * 2**i * 5**j, st.integers(0, 12),
                      st.integers(0, 12), st.sampled_from([-1, 1])),
        ).filter(lambda d: d != 0),
    )
    def test_format_rational_matches_fraction_oracle(self, num, den):
        assert format_rational(num, den) == format_rational_oracle(Fraction(num, den))


class TestPositiveDivisors:
    """Divisors built from a Pollard-Brent factorization, against trial
    division and against sympy."""

    def test_matches_trial_division_up_to_1e5(self):
        for n in range(1, 100_001):
            assert positive_divisors(n) == divisors_oracle(n), n
        for n in (-1, -2, -360, -99_991):
            assert positive_divisors(n) == divisors_oracle(n)

    @settings(deadline=None)
    @given(st.integers(1, 10**20))
    def test_matches_sympy_up_to_1e20(self, n):
        assert positive_divisors(n) == sympy.divisors(n)

    @pytest.mark.parametrize("n", [
        997 * 997, 1009 * 1009, 991 * 997 * 1009, 4 * 10**13 + 3, 4 * 10**15,
        999_999_937 * 999_999_929, 999_999_937**2,
        (2**31 - 1) * (2**61 - 1), sympy.prevprime(diophantine.MR_EXACT_BELOW),
        # strong pseudoprimes to the bases 2, 3, 5; to 2..23; and to 2..37
        25_326_001, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    ])
    def test_hard_cases_match_sympy(self, n):
        assert positive_divisors(n) == sympy.divisors(n)

    def test_uncertifiable_prime_cofactor_raises(self):
        prime = sympy.nextprime(diophantine.MR_EXACT_BELOW)
        with pytest.raises(ValueError, match="certify"):
            positive_divisors(12 * prime)

    def test_unsplit_composite_raises(self, monkeypatch):
        monkeypatch.setattr(diophantine, "RHO_STEP_LIMIT", 64)
        with pytest.raises(ValueError, match="Pollard-Brent"):
            positive_divisors(999_983 * 1_000_003)

    def test_batch_overshoot_is_replayed_step_by_step(self, monkeypatch):
        # both factors pass TRIAL_LIMIT, and a batch of differences multiplies
        # to 0 mod n: the gcd is n itself, and only the one-step replay of that
        # batch splits n within 63 iterations, the least budget that does
        monkeypatch.setattr(diophantine, "RHO_STEP_LIMIT", 63)
        assert positive_divisors(1009 * 1049) == [1, 1009, 1049, 1058441]

    def test_rho_budget_shrinks_with_the_cofactor_in_words(self, monkeypatch):
        # below 2^64 the whole budget; a 3-word cofactor gets a third of it
        monkeypatch.setattr(diophantine, "RHO_STEP_LIMIT", 64)
        small = 999_983 * 1_000_003
        big = sympy.nextprime(2**80) * sympy.nextprime(2**90)
        assert (small.bit_length(), -(-big.bit_length() // 64)) == (40, 3)
        for n, budget in ((small, 64), (big, 21)):
            with pytest.raises(ValueError, match=f"in {budget} Pollard-Brent iterations"):
                positive_divisors(n)

    def test_cofactor_messages_survive_the_int_to_str_limit(self, monkeypatch):
        # a cofactor is named by its size: formatting a 700-digit one would
        # itself raise past a 640-digit limit and hide the message
        monkeypatch.setattr(diophantine, "RHO_STEP_LIMIT", 64)
        semiprime = (10**349 + 297) * (10**350 + 133)  # both factors are prime
        prime = 10**699 + 1279
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError, match=r"2323-bit cofactor of N found in 1 "
                                                 r"Pollard-Brent iterations"):
                positive_divisors(semiprime)
            with pytest.raises(ValueError, match="cannot certify that a 2323-bit cofactor"):
                positive_divisors(12 * prime)
        finally:
            sys.set_int_max_str_digits(limit)


class TestLazyImport:
    def test_package_import_defers_solver_and_screen(self):
        code = ("import sys, edgegraceful as eg; "
                "assert 'edgegraceful.diophantine' not in sys.modules; "
                "assert 'edgegraceful.lo' not in sys.modules; "
                "assert eg.classify_fans(20) == [2, 3, 11]; "
                "assert 'edgegraceful.diophantine' in sys.modules")
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)

    def test_cli_subcommands_without_the_solver_do_not_load_it(self, tmp_path):
        from edgegraceful import cycle, fan, search
        from edgegraceful.cli import graph_to_doc, labeling_to_doc

        graph_doc = tmp_path / "graph.json"
        graph_doc.write_text(json.dumps(graph_to_doc(fan(1, 3))))
        cycle_doc = tmp_path / "cycle.json"
        cycle_doc.write_text(json.dumps(graph_to_doc(cycle(5))))
        labeling_doc = tmp_path / "labeling.json"
        labeling_doc.write_text(json.dumps(labeling_to_doc(search(fan(1, 3)).solutions[0])))
        code = (
            "import contextlib, io, sys\n"
            "from edgegraceful import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['gen', 'fan', '--n', '3']),\n"
            "             cli.main(['lo', '--p', '4', '--q', '5']),\n"
            f"             cli.main(['search', {str(graph_doc)!r}]),\n"
            f"             cli.main(['search', {str(graph_doc)!r}, '--mode', 'all']),\n"
            f"             cli.main(['verify', {str(labeling_doc)!r}])]\n"
            "assert codes == [0, 0, 0, 0, 0], codes\n"
            "assert 'edgegraceful.diophantine' not in sys.modules\n"
            "assert 'fractions' not in sys.modules\n"
            "assert 'edgegraceful._orbits' not in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['search', {str(cycle_doc)!r}, '--mode', 'count']) == 0\n"
            "assert 'edgegraceful._orbits' in sys.modules\n"
            "fan_eq = ['dioph', '7', '-2', '0', '-5', '-2', '0']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(fan_eq), cli.main(fan_eq + ['--trace']),\n"
            "             cli.main(fan_eq + ['--trace', '--format', 'json']),\n"
            "             cli.main(['classify-fans', '--max', '100'])]\n"
            "assert codes == [0, 0, 0, 0], codes\n"
            "assert 'edgegraceful.diophantine' in sys.modules\n"
            "assert 'fractions' not in sys.modules\n"
            "from edgegraceful import QuadraticDiophantine, reduce, solve_factor_pairs\n"
            "rows = solve_factor_pairs(reduce(QuadraticDiophantine(7, -2, 0, -5, -2, 0)))\n"
            "assert 'fractions' not in sys.modules\n"
            "assert repr(rows[0].X) == 'Fraction(1345, 2)'\n"
            "assert 'fractions' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)

    def test_cli_commands_do_not_load_dataclasses_or_inspect(self, tmp_path):
        # only modules new since start-up count, so a site hook that loads
        # either one does not decide the test
        from edgegraceful import fan, search
        from edgegraceful.cli import graph_to_doc, labeling_to_doc

        graph_doc = tmp_path / "graph.json"
        graph_doc.write_text(json.dumps(graph_to_doc(fan(1, 3))))
        labeling_doc = tmp_path / "labeling.json"
        labeling_doc.write_text(json.dumps(labeling_to_doc(search(fan(1, 3)).solutions[0])))
        code = (
            "import sys\n"
            "at_start = set(sys.modules)\n"
            "import contextlib, io\n"
            "from edgegraceful import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['gen', 'fan', '--n', '3']),\n"
            "             cli.main(['lo', '--p', '12', '--q', '21']),\n"
            f"             cli.main(['search', {str(graph_doc)!r}]),\n"
            f"             cli.main(['verify', {str(labeling_doc)!r}]),\n"
            "             cli.main(['dioph', '7', '-2', '0', '-5', '-2', '0', '--trace']),\n"
            "             cli.main(['classify-fans', '--max', '100'])]\n"
            "assert codes == [0] * 6, codes\n"
            "loaded = set(sys.modules) - at_start\n"
            "assert 'edgegraceful.diophantine' in loaded, sorted(loaded)\n"
            "assert not {'dataclasses', 'inspect'} & loaded, sorted(loaded)\n"
        )
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)

    def test_package_import_loads_no_submodule(self):
        code = ("import sys, edgegraceful; "
                "loaded = sorted(m for m in sys.modules if m.startswith('edgegraceful.')); "
                "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)

    def test_screen_and_solver_do_not_load_search_or_labeling(self):
        code = ("import sys, edgegraceful as eg; "
                "assert eg.classify_fans(20) == [2, 3, 11]; "
                "eq = eg.QuadraticDiophantine(7, -2, 0, -5, -2, 0); "
                "assert eg.integer_solutions(eq); "
                "loaded = {'edgegraceful.search', 'edgegraceful._search', "
                "'edgegraceful.labeling'} & set(sys.modules); "
                "assert not loaded, sorted(loaded)")
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)

    def test_search_is_the_function_after_the_cli_is_imported(self):
        # importing a submodule binds its name on the package; no submodule
        # may be named like the public function it would then shadow
        code = ("import edgegraceful.cli, edgegraceful as eg; "
                "assert eg.search(eg.fan(1, 2)).solution_count == 1")
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)

    def test_every_public_name_resolves(self):
        import edgegraceful
        for name in edgegraceful.__all__:
            assert getattr(edgegraceful, name) is not None
        with pytest.raises(AttributeError, match="no_such_name"):
            edgegraceful.no_such_name
