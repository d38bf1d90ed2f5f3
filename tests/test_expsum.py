import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d3lab.arith import ReducedFraction, divisors, euler_phi, kloosterman_sum, sigma
from d3lab.expsum import (
    CorrelationArgs,
    GuardError,
    PrimePowerCase,
    _unit_rows,
    a_sum,
    corr_identity_deviation,
    correlation_bound_ratio,
    correlation_multiplicativity_check,
    correlation_sum,
    cq_pair_sum,
    cq_pair_sum_prime_power,
    cq_table,
    dk_exact,
    prime_power_catalog,
    correlation_bound_scan,
    ordered_triples,
    round_to_integer,
    r_sum_bruteforce,
    r_sum_bruteforce_table,
    r_sum_fast,
    r_sum_fast_table,
)


def reduced(q):
    return [h for h in range(1, q + 1) if math.gcd(h, q) == 1]


class TestRSum:
    def test_examples(self):
        assert r_sum_bruteforce(1, 1, 1, ReducedFraction(1, 2)) == pytest.approx(2)
        assert r_sum_fast(5, 7, 3, ReducedFraction(0, 1)) == 1
        val = r_sum_bruteforce(1, 1, 1, ReducedFraction(1, 3))
        assert val.real == pytest.approx(-3, abs=1e-9)
        assert val == pytest.approx(3 * kloosterman_sum(1, 1, 3), abs=1e-9)

    def test_guard(self):
        with pytest.raises(GuardError):
            r_sum_bruteforce(1, 1, 1, ReducedFraction(1, 211))

    def test_fast_equals_bruteforce_exhaustive(self):
        for q in range(1, 13):
            for h in reduced(q):
                pt = ReducedFraction.reduce(h, q)
                bt = r_sum_bruteforce_table(pt)
                ft = r_sum_fast_table(pt)
                assert np.max(np.abs(bt - ft)) < 1e-6, (q, h)

    def test_scalar_matches_table(self):
        pt = ReducedFraction(5, 12)
        ft = r_sum_fast_table(pt)
        for a, b, c in ((0, 0, 0), (1, 2, 3), (11, 6, 4), (7, 0, 9)):
            assert r_sum_fast(a, b, c, pt) == pytest.approx(complex(ft[a, b, c]), abs=1e-9)

    def test_degenerate_branch(self):
        # q | b and q | c collapses to q * sum_{d | (q,a)} d phi(q/d)
        for q in (2, 4, 6, 9):
            for h in reduced(q):
                pt = ReducedFraction.reduce(h, q)
                for a in range(q):
                    expect = q * sum(
                        d * euler_phi(q // d) for d in divisors(math.gcd(q, a) or q)
                    )
                    got = r_sum_fast(a, 0, 0, pt)
                    assert got == pytest.approx(expect, abs=1e-9)
                    brute = r_sum_bruteforce(a, q, q, pt)
                    assert brute == pytest.approx(expect, abs=1e-6)

    def test_real_and_reflection(self):
        # R is real (x,y,z -> -x,-y,-z pairs terms with their conjugates);
        # reflecting the point negates the triple: R_{a,b,c}((q-h)/q) =
        # R_{-a,-b,-c}(h/q).  Both verified against brute force.
        for q in (5, 7, 12):
            for h in reduced(q):
                if h == q:
                    continue
                pt = ReducedFraction.reduce(h, q)
                cpt = ReducedFraction.reduce(q - h, q)
                for a, b, c in ((1, 2, 3), (0, 4, 1)):
                    val = r_sum_fast(a, b, c, pt)
                    assert abs(val.imag) < 1e-9
                    assert r_sum_fast(*((-a) % q, (-b) % q, (-c) % q), pt) == pytest.approx(
                        r_sum_fast(a, b, c, cpt), abs=1e-9
                    )

    def test_kloosterman_identity_coprime(self):
        # gcd(abc, q) = 1 gives R = q * S_{1, hbar * abc}(q)
        for q in range(2, 13):
            for h in reduced(q):
                if h == q:
                    continue
                pt = ReducedFraction.reduce(h, q)
                hbar = pow(h, -1, q)
                for a in range(1, q + 1):
                    for b in range(1, q + 1):
                        for c in range(1, q + 1):
                            n = a * b * c
                            if math.gcd(n, q) != 1:
                                continue
                            expect = q * kloosterman_sum(1, hbar * n, q)
                            assert r_sum_fast(a, b, c, pt) == pytest.approx(
                                expect, abs=1e-6
                            ), (q, h, a, b, c)


class TestASum:
    def test_examples(self):
        pt = ReducedFraction(1, 2)
        assert a_sum(pt, 1) == pytest.approx(r_sum_fast(1, 1, 1, pt))
        assert a_sum(pt, 2) == pytest.approx(-6, abs=1e-9)
        assert a_sum(ReducedFraction(1, 3), 1) == pytest.approx(-3, abs=1e-9)

    def test_triples(self):
        assert sorted(ordered_triples(4)) == sorted(
            [(1, 1, 4), (1, 4, 1), (4, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
        )
        assert len(ordered_triples(12)) == dk_exact(3, 12)


class TestCorrelation:
    @given(
        st.integers(1, 40),
        st.lists(st.tuples(*[st.integers(-100, 100)] * 3), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_unit_rows_match_per_h(self, q, triples):
        # row i of the twisted table is the point h = units[i]^{-1}
        M = _unit_rows(q, triples)
        for i, u in enumerate(reduced(q)):
            pt = ReducedFraction.reduce(pow(u, -1, q), q)
            for j, t in enumerate(triples):
                ref = r_sum_fast(*t, pt)
                assert abs(M[i, j] - ref) <= 1e-9 * (1 + abs(ref)), (q, t, u)
                if q <= 24:
                    brute = r_sum_bruteforce(*t, pt)
                    assert abs(M[i, j] - brute) <= 1e-9 * (1 + abs(brute)), (q, t, u)

    def test_sum_equals_definition(self):
        # sum'_h R_t(h/q) conj(R_t'(h/q)) from the brute-force oracle
        rng = np.random.default_rng(7)
        for _ in range(24):
            q = int(rng.integers(1, 61))
            t1, t2 = (tuple(int(v) for v in rng.integers(0, 2 * q, 3)) for _ in range(2))
            direct = 0j
            for h in reduced(q):
                pt = ReducedFraction.reduce(h, q)
                direct += r_sum_bruteforce(*t1, pt) * np.conj(r_sum_bruteforce(*t2, pt))
            expect = round_to_integer(direct, scale=1.0 + abs(direct))
            assert correlation_sum(CorrelationArgs(t1, t2, q)) == complex(expect, 0.0), (q, t1, t2)

    def test_examples(self):
        assert correlation_sum(CorrelationArgs((1, 1, 1), (1, 1, 1), 2)).real == 4
        assert correlation_sum(CorrelationArgs((3, 1, 4), (1, 5, 9), 1)).real == 1

    def test_swap_conjugates(self):
        args = CorrelationArgs((1, 2, 3), (2, 0, 5), 12)
        swapped = CorrelationArgs((2, 0, 5), (1, 2, 3), 12)
        assert correlation_sum(args) == pytest.approx(np.conj(correlation_sum(swapped)))

    def test_guard(self):
        with pytest.raises(GuardError):
            correlation_sum(CorrelationArgs((1, 1, 1), (1, 1, 1), 61))

    def test_multiplicativity_examples(self):
        rep = correlation_multiplicativity_check(2, 3, (1, 1, 1), (1, 1, 1))
        assert rep["passed"]
        rep = correlation_multiplicativity_check(1, 7, (2, 3, 4), (1, 1, 5))
        assert rep["passed"] and rep["s1"] == 1
        rng = np.random.default_rng(11)
        for _ in range(4):
            t1 = tuple(int(v) for v in rng.integers(0, 36, 3))
            t2 = tuple(int(v) for v in rng.integers(0, 36, 3))
            assert correlation_multiplicativity_check(4, 9, t1, t2)["passed"]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            correlation_multiplicativity_check(4, 6, (1, 1, 1), (1, 1, 1))


class TestPairSum:
    def test_examples(self):
        assert cq_pair_sum(0, 0, 1, 1, 3) == 2
        assert cq_pair_sum(0, 0, 3, 1, 3) == -4
        assert cq_pair_sum(1, 2, 3, 4, 1) == 1

    def test_integer_valued_at_guard_scale(self):
        # q = 500 is the brute-force cost-guard limit; the counting path
        # must still round exactly
        rng = np.random.default_rng(2)
        for _ in range(3):
            a, a2, b, b2 = (int(v) for v in rng.integers(0, 500, 4))
            assert isinstance(cq_pair_sum(a, a2, b, b2, 500), int)
        with pytest.raises(GuardError):
            cq_pair_sum(1, 2, 3, 4, 501)

    def test_cq_table(self):
        from d3lab.arith import ramanujan_sum

        for q in (1, 2, 12, 30):
            assert [int(v) for v in cq_table(q)] == [ramanujan_sum(q, r) for r in range(q)]

    def test_closed_form_examples(self):
        case, val = cq_pair_sum_prime_power(0, 0, 1, 1, 3, 1)
        assert case is PrimePowerCase.Q_EQUALS_P and val == 2
        case, val = cq_pair_sum_prime_power(0, 0, 3, 1, 3, 1)
        assert case is PrimePowerCase.P_DIVIDES_BB and val == -4

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_closed_form_exhaustive(self, p, k):
        rows = prime_power_catalog(p, k)
        assert all(r["match"] for r in rows)

    def test_second_case_formula(self):
        # p^2 | Q requires k >= 2 with small gcd(q, b, b2)
        q = 9
        for a in range(9):
            for a2 in range(9):
                case, val = cq_pair_sum_prime_power(a, a2, 1, 2, 3, 2)
                assert case is PrimePowerCase.P2_DIVIDES_Q
                assert val == cq_pair_sum(a, a2, 1, 2, q)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            cq_pair_sum_prime_power(0, 0, 1, 1, 6, 1)


class TestBounds:
    def test_ratio_examples(self):
        assert correlation_bound_ratio((1, 1, 1), (1, 1, 1), 2) == pytest.approx(1 / 6)
        assert correlation_bound_ratio((1, 1, 1), (1, 1, 1), 1) == pytest.approx(1)

    def test_small_scan_golden(self):
        best = correlation_bound_scan(list(range(1, 25)), 4, log_power=0)
        assert best["ratio"] == pytest.approx(2.5, abs=1e-9)
        assert best["q"] == 6

    def test_critical_bound_fitted_constant(self):
        # |S| <= C * q * (q,b,b') * sum_{f | (q, ab-a'b')} f * (1+log q)^3
        # over the prime-power scan family; C is the fitted max ratio and
        # stays well below 1 (deterministic seeded family)
        worst = 0.0
        for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
            q = p**k
            logfac = (1.0 + math.log(q)) ** 3
            for r in prime_power_catalog(p, k, n_samples=2000, seed=3):
                denom = (
                    q
                    * math.gcd(q, math.gcd(r["b"], r["b2"]))
                    * sigma(math.gcd(q, r["a"] * r["b"] - r["a2"] * r["b2"]))
                    * logfac
                )
                worst = max(worst, abs(r["brute"]) / denom)
        assert math.isfinite(worst) and worst < 0.5

    def test_corr_identity(self):
        assert corr_identity_deviation(1, 1, 2) == pytest.approx(0.5, abs=1e-9)
        assert corr_identity_deviation(2, 3, 1) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            corr_identity_deviation(2, 1, 4)
        with pytest.raises(GuardError):
            corr_identity_deviation(1, 1, 41)
