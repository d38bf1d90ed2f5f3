import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d3lab import arith
from d3lab.arith import (
    CapacityError,
    ReducedFraction,
    divisors,
    euler_phi,
    factorize,
    kloosterman_sum,
    kloosterman_table,
    mobius,
    mod_inverse,
    ramanujan_sum,
    ramanujan_sum_bruteforce,
    sieve_dk,
    sieve_dk_convolution,
    sigma,
    _unit_roots,
    unit_phase,
)
from d3lab.voronoi import _kronrod, _leggauss


def dk_by_enumeration(k, n):
    """Count ordered k-tuples with product n, by direct recursion."""
    if k == 1:
        return 1
    return sum(dk_by_enumeration(k - 1, n // d) for d in divisors(n))


class TestSieve:
    def test_small_values(self):
        t3 = sieve_dk(3, 10)
        assert t3[1] == 1 and t3[4] == 6 and t3[8] == 10 and t3[6] == 9
        assert sieve_dk(2, 12)[12] == 6

    def test_primes_and_prime_powers(self):
        t = sieve_dk(3, 200)
        for p in (2, 3, 5, 7, 11, 197):
            assert t[p] == 3
        for p, e in ((2, 5), (3, 4), (5, 3)):
            assert t[p**e] == math.comb(e + 2, 2)

    def test_against_enumeration(self):
        for k in (2, 3):
            t = sieve_dk(k, 2000)
            for n in range(1, 2001):
                assert t[n] == dk_by_enumeration(k, n), (k, n)

    @given(st.integers(2, 40), st.integers(2, 40))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_multiplicative(self, m, n):
        if math.gcd(m, n) != 1:
            return
        t = sieve_dk(3, 1600)
        assert t[m * n] == t[m] * t[n]

    @given(st.integers(2, 5), st.integers(1, 3000))
    @example(2, 1)
    @example(5, 3000)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_convolution_oracle(self, k, limit):
        fast, oracle = sieve_dk(k, limit), sieve_dk_convolution(k, limit)
        assert fast.values.dtype == oracle.values.dtype
        assert np.array_equal(fast.values, oracle.values)

    @given(st.integers(2, 5), st.integers(1, 2000))
    @example(3, 64)
    @example(4, 65)
    @example(2, 1999)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_blocks_match_convolution_oracle(self, k, limit):
        # 64-entry blocks: limits straddle blocks, and every p^e >= 64 (p = 2
        # from e = 6, p >= 11 from e = 2) takes the strided pass and its
        # sparse cofactor hits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SIEVE_BLOCK", 64)
            fast = sieve_dk(k, limit)
        oracle = sieve_dk_convolution(k, limit)
        assert fast.values.dtype == oracle.values.dtype == np.uint32
        assert np.array_equal(fast.values, oracle.values)

    def test_matches_convolution_oracle_1e5(self):
        assert np.array_equal(sieve_dk(3, 10**5).values, sieve_dk_convolution(3, 10**5).values)

    def test_dk_max_is_the_table_max(self):
        # the running maximum of each oracle table is _dk_max at every N
        for k in range(2, 7):
            running = np.maximum.accumulate(sieve_dk_convolution(k, 3000).values)
            assert [arith._dk_max(k, n) for n in range(1, 3001)] == running[1:].tolist()

    def test_d3_is_uint32_to_the_budget(self):
        assert arith._dk_max(3, arith.MAX_SIEVE_LIMIT) == 45_360
        assert sieve_dk(3, 100).values.dtype == np.uint32

    def test_uint64_when_uint32_overflows(self):
        # max d_12(n), n <= 10^6, is 18,487,961,856 > 2^32
        fast, oracle = sieve_dk(12, 10**6), sieve_dk_convolution(12, 10**6)
        assert int(fast.values.max()) == arith._dk_max(12, 10**6) == 18_487_961_856
        assert fast.values.dtype == oracle.values.dtype == np.uint64
        assert np.array_equal(fast.values, oracle.values)

    def test_beyond_64_bits_is_refused(self):
        # d_60(2^10 3^6) = C(69, 59) C(65, 59), about 2.8e19, wrapped int64 once
        assert math.comb(69, 59) * math.comb(65, 59) >= 2**64
        with pytest.raises(OverflowError, match="beyond 64 bits"):
            sieve_dk(60, 10**6)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            sieve_dk(3, 10**9)

    def test_immutability(self):
        t = sieve_dk(3, 100)
        with pytest.raises(ValueError):
            t.values[5] = 0

    def test_prefix_sum_exact_beyond_64_bits(self):
        # every d_72(n), n <= 10^5, fits uint64 but their sum does not:
        # sum_{n <= x} d_k(n) = sum_{n <= x} d_{k-1}(n) floor(x / n)
        x = 10**5
        t = sieve_dk(72, x)
        lower = sieve_dk(71, x).values.tolist()
        expected = sum(lower[n] * (x // n) for n in range(1, x + 1))
        assert t.values.dtype == np.uint64 and expected >= 2**64
        assert t.prefix_sum(x) == expected


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(97) == ((97, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(1, 10**6))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_roundtrip(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        for p, _ in f:
            assert factorize(p) == ((p, 1),)

    def test_large_semiprime(self):
        n = 999983 * 999979
        assert factorize(n) == ((999979, 1), (999983, 1))

    def test_cached_value_holds_python_ints(self):
        # a cached entry holds Python ints whatever type of n made it, in
        # tuples, so it cannot be mutated
        f = factorize(np.int64(10**6 + 3))
        assert f is factorize(np.int64(10**6 + 3))
        assert type(f) is tuple and all(type(pe) is tuple for pe in f)
        assert all(type(p) is int and type(e) is int for p, e in f)


class TestDivisors:
    def test_against_enumeration(self):
        for n in range(1, 2001):
            got = divisors(n)
            assert type(got) is tuple
            assert got == tuple(d for d in range(1, n + 1) if n % d == 0), n


class TestRamanujan:
    def test_examples(self):
        assert all(ramanujan_sum(1, n) == 1 for n in range(-3, 4))
        assert ramanujan_sum(6, 0) == euler_phi(6) == 2
        assert ramanujan_sum(6, 3) == -2
        assert ramanujan_sum(5, 2) == -1 == mobius(5)

    def test_dual_algorithms_agree(self):
        for q in range(1, 61):
            for n in range(0, 61):
                assert ramanujan_sum(q, n) == ramanujan_sum_bruteforce(q, n), (q, n)

    def test_negative_and_periodic(self):
        for q in (5, 12, 30):
            for n in range(-12, 13):
                assert ramanujan_sum(q, n) == ramanujan_sum(q, -n)
                assert ramanujan_sum(q, n) == ramanujan_sum(q, n + q)

    def test_multiplicative_in_q(self):
        for q1 in range(1, 51):
            for q2 in range(1, 51):
                if math.gcd(q1, q2) != 1 or q1 * q2 > 200:
                    continue
                for n in (0, 1, 7, 30, 50):
                    assert ramanujan_sum(q1 * q2, n) == ramanujan_sum(q1, n) * ramanujan_sum(q2, n)

    def test_scaling_law_small(self):
        # c_q(n) * phi(qd) = phi(q) * c_{qd}(nd), exact integers
        for q in range(1, 13):
            for d in range(1, 13):
                for n in range(0, 13):
                    lhs = ramanujan_sum(q, n) * euler_phi(q * d)
                    rhs = euler_phi(q) * ramanujan_sum(q * d, n * d)
                    assert lhs == rhs, (q, d, n)

    def test_divisor_bound(self):
        for q in range(1, 201):
            for n in range(0, 201):
                assert abs(ramanujan_sum(q, n)) <= sigma(math.gcd(q, n) or q)


class TestKloosterman:
    def test_examples(self):
        assert kloosterman_sum(1, 1, 2) == pytest.approx(1)
        assert kloosterman_sum(1, 1, 3).real == pytest.approx(-1)
        assert abs(kloosterman_sum(1, 1, 3).imag) < 1e-9

    def test_reduces_to_ramanujan(self):
        for q in (1, 2, 5, 12, 30):
            for m in range(q):
                assert kloosterman_sum(0, m, q).real == pytest.approx(ramanujan_sum(q, m))

    def test_symmetry(self):
        for q in (5, 7, 12, 35):
            for n in range(q):
                for m in range(q):
                    lhs = kloosterman_sum(n, m, q)
                    rhs = kloosterman_sum(m, n, q)
                    assert lhs == pytest.approx(rhs, abs=1e-9 * q)

    def test_weil_type_bound_sampled(self):
        rng = np.random.default_rng(4)
        for q in (2, 13, 36, 97, 200, 341, 500):
            d_q = len(divisors(q))
            for _ in range(12):
                n, m = (int(v) for v in rng.integers(0, q, 2))
                bound = d_q * math.sqrt(q) * math.sqrt(math.gcd(math.gcd(n, m) or q, q))
                assert abs(kloosterman_sum(n, m, q)) <= bound + 1e-9

    def test_table_matches_direct(self):
        for q in (1, 2, 7, 12, 30):
            for m in range(q):
                column = kloosterman_table(q, m)
                assert column.shape == (q,) and column.dtype == np.float64
                for n in range(q):
                    assert column[n] == pytest.approx(kloosterman_sum(n, m, q), abs=1e-9 * q)

    def test_table_read_only(self):
        with pytest.raises(ValueError):
            kloosterman_table(7, 1)[0] = 1
        # the cached units, inverses and roots the tables are built from
        # (a write to them would move every later table at that q), and
        # the cached quadrature rules of the contour, ramp and moment integrals
        for table in (*_unit_roots(12), *_kronrod(), *_leggauss(16), *_leggauss(32),
                      *_leggauss(64)):
            with pytest.raises(ValueError):
                table[1] = 7

    @given(st.integers(1, 2000))
    @example(1)
    @example(2000)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_units_and_inverses(self, q):
        units, inverses, _ = _unit_roots(q)
        assert units.tolist() == [a for a in range(q) if math.gcd(a, q) == 1]
        assert inverses.tolist() == [pow(a, -1, q) for a in units.tolist()]

    def test_inverses_at_a_large_prime(self):
        q = 100003  # q^2 is beyond 32 bits
        units, inverses, _ = _unit_roots.__wrapped__(q)
        assert units.tolist() == list(range(1, q))
        assert inverses.tolist() == [pow(a, -1, q) for a in range(1, q)]
        # beyond q^2 < 2^63 the int64 products would overflow: refused
        with pytest.raises(ValueError, match="overflow"):
            _unit_roots.__wrapped__(2**32)

    def test_real_valued(self):
        for q in (7, 16, 45):
            for n, m in ((1, 1), (2, 5), (0, 3)):
                assert abs(kloosterman_sum(n, m, q).imag) < 1e-9 * q


class TestSmallPieces:
    def test_unit_phase(self):
        assert unit_phase(0, 7) == 1
        assert unit_phase(1, 2) == pytest.approx(-1)
        assert unit_phase(1, 4) == pytest.approx(1j)
        for a, q in ((3, 7), (123456, 789), (-5, 9)):
            assert abs(abs(unit_phase(a, q)) - 1.0) < 1e-15

    def test_mod_inverse(self):
        for q in (2, 7, 100, 97):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert a * mod_inverse(a, q) % q == 1
        with pytest.raises(ValueError):
            mod_inverse(6, 9)

    def test_reduced_fraction(self):
        assert ReducedFraction.reduce(4, 6) == ReducedFraction(2, 3)
        assert ReducedFraction.reduce(0, 5) == ReducedFraction(0, 1)
        assert ReducedFraction.reduce(14, 7) == ReducedFraction(0, 1)
        with pytest.raises(ValueError):
            ReducedFraction(2, 4)
        with pytest.raises(ValueError):
            ReducedFraction(0, 3)
        for h, q in ((3, 3), (7, 5), (1, 1), (-1, 5)):
            with pytest.raises(ValueError):
                ReducedFraction(h, q)

    @given(st.integers(1, 400), st.integers(-400, 400))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_reduce_always_valid(self, q, a):
        fr = ReducedFraction.reduce(a, q)
        assert math.gcd(fr.h, fr.q) == 1 or (fr.h == 0 and fr.q == 1)
        assert (a * fr.q - fr.h * q) % q == 0
