from __future__ import annotations

from fractions import Fraction

import pytest

from edgegraceful import LoReport, classify_fans, fan, lo_check
from support import fan_scan_oracle


class TestLoCheck:
    def test_usual_fan_11(self):
        report = lo_check(12, 21)
        assert report.residual == 396
        assert report.divides
        assert report.residual // report.p == 33

    def test_usual_fan_4_fails(self):
        report = lo_check(5, 7)
        assert report.residual == 46
        assert not report.divides

    def test_usual_fan_2_passes(self):
        report = lo_check(3, 3)
        assert report.residual == 9
        assert report.divides

    def test_usual_fan_3_passes(self):
        report = lo_check(4, 5)
        assert report.residual == 24
        assert report.divides

    def test_negative_residual_divisibility(self):
        # sparse graph: residual 1 + 1 - 6 = -4, and 4 | -4
        report = lo_check(4, 1)
        assert report.residual == -4
        assert report.divides

    def test_negative_residual_nondivisible(self):
        report = lo_check(10, 1)
        assert report.residual == -43
        assert not report.divides

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            lo_check(-1, 3)
        with pytest.raises(ValueError):
            lo_check(-1, 0)

    def test_vertexless_graph(self):
        # 0 divides only 0: the empty graph passes, p = 0 with edges cannot
        assert lo_check(0, 0) == LoReport(0, 0, 0, True)
        assert lo_check(0, 3).divides is False

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            lo_check(3, -1)

    @pytest.mark.parametrize("p, q", [(12.0, 21), (12, 21.0), (True, 1), ("12", 21)])
    def test_rejects_non_integer_counts(self, p, q):
        # a float would give a float residual, 396.0 for (12.0, 21)
        with pytest.raises(ValueError, match="must be an integer"):
            lo_check(p, q)

    def test_exact_at_large_inputs(self):
        p, q = 2**31, 2**31
        report = lo_check(p, q)
        assert report.residual == q * q + q - p * (p - 1) // 2

    def test_pure(self):
        assert lo_check(12, 21) == lo_check(12, 21)


class TestFanQuotient:
    """For F_{1,n} the screen's quotient residual/p is (7n^2 - 5n)/(2n + 2)."""

    @pytest.mark.parametrize(
        "n,expected",
        [(11, Fraction(33)), (2, Fraction(3)), (4, Fraction(46, 5)), (1, Fraction(1, 2))],
    )
    def test_values(self, n, expected):
        report = lo_check(n + 1, 2 * n - 1)
        assert Fraction(report.residual, report.p) == expected

    def test_rejects_nonpositive(self):
        # n = 0 names no fan, and its q = 2n - 1 = -1 is not an edge count
        with pytest.raises(ValueError):
            fan(1, 0)
        with pytest.raises(ValueError):
            lo_check(1, -1)

    def test_agrees_with_divisibility_screen(self):
        passing = set(fan_scan_oracle(10_000))
        for n in range(1, 10_001):
            assert (n in passing) == lo_check(n + 1, 2 * n - 1).divides


class TestClassifyFans:
    def test_to_100(self):
        assert classify_fans(100) == [2, 3, 11]

    def test_to_1(self):
        assert classify_fans(1) == []

    def test_prefixes(self):
        assert classify_fans(2) == [2]
        assert classify_fans(10) == [2, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_fans(0)

    @pytest.mark.parametrize("n_max", [11.5, True, "100"])
    def test_rejects_non_integer_bound(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            classify_fans(n_max)

    @pytest.mark.parametrize("n_max", [10**5, 10**18], ids=["1e5", "1e18"])
    def test_no_solutions_past_11(self, n_max):
        assert classify_fans(n_max) == [2, 3, 11]

    def test_agrees_with_diophantine_solution_set(self):
        # classify_fans reads the Diophantine solution set; the scan is independent
        for n_max in (50, 100_000):
            assert classify_fans(n_max) == fan_scan_oracle(n_max)
