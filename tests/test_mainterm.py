import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d3lab.arith import divisors, euler_phi, mobius, ramanujan_sum
from d3lab.laurent import (
    LaurentExpansion,
    bernoulli_numbers,
    stieltjes_constants,
    zeta_near_1,
    zeta_power_laurent,
)
from d3lab.mainterm import (
    LAURENT_ORDER,
    class_main_term,
    mainterm_expsum,
    mainterm_poly,
    mainterm_progression,
    residue_by_contour,
    restricted_series_eval,
    restricted_series_laurent,
    x_power_over_s,
)


class TestLaurentAlgebra:
    def test_constructors(self):
        e = LaurentExpansion.from_exp(2.0, 6)
        assert e.coeff(0) == 1.0
        assert e.coeff(3) == pytest.approx(8.0 / 6.0)
        g = LaurentExpansion.geometric_one_over_s(4)
        assert g.coeffs == (1.0, -1.0, 1.0, -1.0, 1.0)

    def test_mul_truncation_range(self):
        a = LaurentExpansion(-1, (1.0, 2.0, 3.0))  # degrees -1..1
        b = LaurentExpansion(0, (1.0, 1.0))  # degrees 0..1
        p = a * b
        assert p.lo == -1 and p.hi == 0  # degree 1 of the product is unknown
        assert p.coeff(-1) == 1.0 and p.coeff(0) == 3.0

    def test_inverse(self):
        a = LaurentExpansion(-2, (2.0, -1.0, 0.5, 0.25, 1.0))
        prod = a * a.inverse()
        assert prod.coeff(0) == pytest.approx(1.0)
        for d in range(prod.lo, prod.hi + 1):
            if d != 0:
                assert prod.coeff(d) == pytest.approx(0.0, abs=1e-14)

    @given(
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_mul_associative(self, xs, ys, zs):
        A = LaurentExpansion(-1, tuple(xs))
        B = LaurentExpansion(0, tuple(ys))
        C = LaurentExpansion(-1, tuple(zs))
        left = (A * B) * C
        right = A * (B * C)
        assert left.lo == right.lo and left.hi == right.hi
        for d in range(left.lo, left.hi + 1):
            assert left.coeff(d) == pytest.approx(right.coeff(d), rel=1e-12, abs=1e-12)

    def test_shift_and_residue(self):
        z3 = zeta_power_laurent(3, 3)
        depoled = z3 * LaurentExpansion(3, (1.0,) + (0.0,) * 8)
        assert depoled.pole_order == 0
        assert depoled.coeff(0) == pytest.approx(1.0)


def _log_power_derivative_polys(j: int, m_max: int) -> list[list[int]]:
    """Integer polynomials v_m with d^m/dt^m [log^j t / t] = v_m(log t)/t^(m+1).

    v_0 = y^j and v_{m+1} = v_m' - (m+1) v_m.
    """
    v = [0] * j + [1]
    out = [v]
    for m in range(m_max):
        deriv = [(i + 1) * v[i + 1] for i in range(len(v) - 1)]
        nxt = [d - (m + 1) * c for d, c in zip(deriv + [0] * len(v), v + [0])]
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        v = nxt
        out.append(v)
    return out


def _stieltjes_euler_maclaurin(j_max: int, N: int = 400, R: int = 15) -> tuple[float, ...]:
    """Oracle: gamma_0..gamma_j_max by Euler-Maclaurin summation at cutoff N.

    gamma_j = sum_{k<=N} log^j k / k  -  log^{j+1} N/(j+1)  -  f_j(N)/2
              - sum_{r<=R} B_{2r}/(2r)! * f_j^{(2r-1)}(N),
    with f_j(t) = log^j t / t.  At N = 400, R = 15 the truncated tail is
    far below double precision for every j <= 15; the evaluation runs in
    40-digit floats (mpmath arithmetic only, no special-function calls)
    so the returned doubles are correctly rounded.
    """
    B = bernoulli_numbers(2 * R)
    out = []
    with mpmath.workdps(40):
        logs = [mpmath.log(k) for k in range(1, N + 1)]
        logN = logs[-1]
        terms = [1 / mpmath.mpf(k) for k in range(1, N + 1)]  # log^j k / k, j = 0
        for j in range(j_max + 1):
            if j:
                terms = [t * lg for t, lg in zip(terms, logs)]
            head = mpmath.fsum(terms)
            head -= logN ** (j + 1) / (j + 1)
            head -= (logN**j / N) / 2
            polys = _log_power_derivative_polys(j, 2 * R - 1)
            for r in range(1, R + 1):
                m = 2 * r - 1
                deriv = mpmath.polyval(list(reversed(polys[m])), logN) / mpmath.mpf(N) ** (m + 1)
                head -= mpmath.mpf(B[2 * r].numerator) / B[2 * r].denominator / math.factorial(2 * r) * deriv
            out.append(float(head))
    return tuple(out)


class TestStieltjes:
    def test_table_is_the_euler_maclaurin_sum(self):
        assert stieltjes_constants(15) == _stieltjes_euler_maclaurin(15)
        assert stieltjes_constants(4) == stieltjes_constants(15)[:5]
        with pytest.raises(ValueError):
            stieltjes_constants(16)

    def test_against_mpmath(self):
        gammas = stieltjes_constants(8)
        for j, g in enumerate(gammas):
            assert abs(g - float(mpmath.stieltjes(j))) < 1e-12, j

    def test_literature_cross_checks(self):
        g = stieltjes_constants(2)
        assert g[0] == pytest.approx(0.5772156649015329, abs=1e-12)
        assert g[1] == pytest.approx(-0.0728158454836767, abs=1e-12)

    def test_bernoulli(self):
        from fractions import Fraction

        B = bernoulli_numbers(12)
        assert B[2] == Fraction(1, 6)
        assert B[4] == Fraction(-1, 30)
        assert B[12] == Fraction(-691, 2730)
        assert all(B[m] == 0 for m in (3, 5, 7, 9, 11))

    def test_zeta_cube_leading(self):
        z3 = zeta_power_laurent(3, 3)
        g = stieltjes_constants(0)
        assert z3.coeff(-3) == pytest.approx(1.0, abs=1e-15)
        assert z3.coeff(-2) == pytest.approx(3 * g[0], rel=1e-13)

    def test_zeta_near_1(self):
        for s in (2.0, 1.25 + 0.25j, 0.8 - 0.2j):
            assert zeta_near_1(s) == pytest.approx(complex(mpmath.zeta(s)), rel=1e-11)


class TestRestrictedSeries:
    def test_q1_is_zeta_cubed(self):
        D = restricted_series_laurent(1, 1)
        Z = zeta_power_laurent(3, D.hi)
        for d in range(D.lo, D.hi + 1):
            assert D.coeff(d) == pytest.approx(Z.coeff(d), rel=1e-13, abs=1e-13)

    def test_analytic_factor_q2(self):
        # D_{2,1} = zeta^3 (1-2^{-s})^3; at s = 1 the analytic factor is 1/8,
        # visible as the coefficient of (s-1)^{-3}
        D = restricted_series_laurent(2, 1)
        assert D.coeff(-3) == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_delta_must_divide(self):
        with pytest.raises(ValueError):
            restricted_series_laurent(6, 4)

    def test_eval_vs_expansion_on_circle(self):
        for q, delta in ((2, 1), (2, 2), (12, 4), (9, 3)):
            D = restricted_series_laurent(q, delta, hi=8)
            for ang in (0.0, 1.3, 2.9):
                s = 1.0 + 0.08 * complex(math.cos(ang), math.sin(ang))
                assert D.eval_at(s) == pytest.approx(
                    restricted_series_eval(q, delta, s), rel=1e-9
                )

    @given(st.integers(1, 400), st.sampled_from([2, 3]), st.floats(3.0, 7.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_principal_part_is_the_longer_series_cut(self, q, k, log10_x):
        # the default keeps degrees -k..-1 only; the hi = 3 series is the
        # oracle, and every number read from the series keeps its bits
        x = 10.0**log10_x
        for delta in divisors(q):
            D = restricted_series_laurent(q, delta, k)
            longer = restricted_series_laurent(q, delta, k, hi=3)
            assert (D.lo, D.hi) == (-k, -1)
            assert [c.hex() for c in D.coeffs] == [longer.coeff(j).hex() for j in range(-k, 0)]
            res = longer.product_coeff(x_power_over_s(x, 3 + k), -1)
            expected = x * res / euler_phi(q // delta)
            assert class_main_term(q, delta, x, k).hex() == expected.hex(), (q, delta, k)
            if k == 3:
                phi = euler_phi(q // delta)
                d3c, d2c, d1c = longer.coeff(-3), longer.coeff(-2), longer.coeff(-1)
                poly = mainterm_poly(q, delta)
                assert [v.hex() for v in (poly.a2, poly.a1, poly.a0)] == [
                    v.hex() for v in (d3c / 2.0 / phi, (d2c - d3c) / phi, (d3c - d2c + d1c) / phi)
                ]

    def test_eval_at_2_vs_tail_extrapolated_sum(self, d3_table_1e6):
        # direct summation oracle: partial sums at many cutoffs, the limit
        # recovered by least squares against the tail shape
        # (a log^2 N + b log N + c)/N + d N^{-4/3}; fitting across 81
        # cutoffs averages the divisor fluctuations out of the estimate
        Ns = np.arange(100_000, 1_000_001, 5_000)
        design = np.column_stack(
            [
                np.ones_like(Ns, dtype=float),
                -np.log(Ns) ** 2 / Ns,
                -np.log(Ns) / Ns,
                -1.0 / Ns,
                -(Ns ** (-4.0 / 3.0)),
            ]
        )
        # whiten by the fluctuation scale ~ N^{-4/3}
        weights = (Ns.astype(float) ** (4.0 / 3.0))[:, None]
        vals = d3_table_1e6.values
        n = np.arange(len(vals), dtype=float)
        for q in (1, 2, 6, 12, 20):
            for delta in divisors(q):
                mask = np.zeros(len(vals), dtype=bool)
                mask[1:] = np.gcd(np.arange(1, len(vals)), q) == delta
                term = np.where(mask, vals / np.maximum(n, 1) ** 2, 0.0)
                csum = np.cumsum(term)
                partial = csum[Ns]
                coef, *_ = np.linalg.lstsq(design * weights, partial * weights[:, 0], rcond=None)
                oracle = float(coef[0])
                analytic = restricted_series_eval(q, delta, 2.0).real
                assert analytic == pytest.approx(oracle, rel=1e-6), (q, delta)


class TestMainTerms:
    def test_leading_coefficient(self):
        poly = mainterm_poly(1, 1)
        assert poly.a2 == pytest.approx(0.5, abs=1e-14)

    def test_poly_matches_value(self):
        for q, a in ((1, 1), (4, 2), (12, 9)):
            poly = mainterm_poly(q, a)
            for x in (1e3, 1e5):
                assert poly(x) == pytest.approx(mainterm_progression(q, a, x), rel=1e-12)

    def test_q1_residual_below_x08(self, d3_table_1e5):
        for x in (10**4, 10**5):
            err = abs(d3_table_1e5.prefix_sum(x) - mainterm_progression(1, 1, x))
            assert err <= x**0.8

    def test_partition_consistency(self):
        x = 1e5
        full = mainterm_progression(1, 1, x)
        for q in range(2, 13):
            total = math.fsum(mainterm_progression(q, a, x) for a in range(1, q + 1))
            assert total == pytest.approx(full, rel=1e-6)

    def test_monotone_in_x(self):
        for q, a in ((1, 1), (7, 3), (12, 8)):
            vals = [mainterm_progression(q, a, float(x)) for x in range(10, 2000, 97)]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_two_residue_paths(self):
        for q, delta in ((1, 1), (2, 1), (2, 2), (12, 4), (9, 3)):
            x = 1e5
            lau = class_main_term(q, delta, x) * euler_phi(q // delta)
            con = residue_by_contour(q, delta, x)
            assert lau == pytest.approx(con, rel=1e-8)

    def test_expsum_mainterm(self):
        x = 1e5
        assert mainterm_expsum(1, x) == pytest.approx(
            mainterm_progression(1, 1, x), rel=1e-14
        )
        # the pairing sum_{delta | q} c_{q/delta}(h) M-class(q, delta) is the
        # same at every reduced numerator h
        for h in (1, 5, 7, 11):
            paired = math.fsum(ramanujan_sum(12 // d, h) * class_main_term(12, d, x)
                               for d in divisors(12))
            assert paired == mainterm_expsum(12, x), h

    def test_expsum_pairing_recovers_full_main_term(self):
        # sum over a mod q of the paired main term telescopes to q * M_x(q, q)
        x = 1e4
        for q in (2, 6, 12):
            total = math.fsum(
                euler_phi(d) * mainterm_expsum(d, x) for d in divisors(q)
            )
            assert total == pytest.approx(q * mainterm_progression(q, q, x), rel=1e-9)

    @given(st.integers(1, 400), st.floats(3.0, 7.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_shared_factor_paths_against_oracles(self, q, log10_x):
        x = 10.0**log10_x
        # every class, the mu(q/delta) = 0 ones included, bit for bit
        unskipped = math.fsum(mobius(q // d) * class_main_term(q, d, x) for d in divisors(q))
        assert mainterm_expsum(q, x).hex() == unskipped.hex()
        for d in divisors(q):
            D = restricted_series_laurent(q, d)
            full = (D * x_power_over_s(x, LAURENT_ORDER + 3)).coeff(-1)
            cmt = class_main_term(q, d, x)
            assert cmt.hex() == (x * full / euler_phi(q // d)).hex(), (q, d)
            con = residue_by_contour(q, d, x)
            assert cmt * euler_phi(q // d) == pytest.approx(con, rel=1e-8), (q, d)

    def test_x_power_over_s(self):
        e = x_power_over_s(math.e**2, 4)
        # x^{s-1}/s at s=1 equals 1
        assert e.coeff(0) == pytest.approx(1.0)
        assert e.coeff(1) == pytest.approx(2.0 - 1.0)  # log x - 1

    def test_k2_mode(self, d2_table_1e4):
        x = 10**4
        err = abs(d2_table_1e4.prefix_sum(x) - mainterm_progression(1, 1, x, k=2))
        # classical divisor problem error is O(x^{1/3})
        assert err <= 10 * x ** (1.0 / 3.0)
