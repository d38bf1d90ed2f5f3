import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d3lab.arith import (
    ReducedFraction,
    divisors,
    euler_phi,
    kloosterman_sum,
    ramanujan_sum,
    sigma,
)
from d3lab import expsum
from d3lab.expsum import (
    GuardError,
    PrimePowerCase,
    _PAIR_CHUNK,
    _twist_column,
    _unit_rows,
    _units,
    a_sum,
    corr_identity_values,
    correlation_multiplicativity_check,
    correlation_sums,
    cq_pair_sum,
    cq_pair_sum_bruteforce,
    cq_pair_sum_prime_power,
    cq_table,
    dk_exact,
    prime_power_catalog,
    correlation_bound_scan,
    ordered_triples,
    r_sum_bruteforce,
    r_sum_bruteforce_table,
    r_sum_fast,
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
        # every (a, b, c) mod q through the twisted rows and the scalar path;
        # row i of _unit_rows is the point h = units[i]^{-1}
        for q in range(1, 13):
            triples = np.indices((q,) * 3).reshape(3, -1).T  # the ravel order of [a, b, c]
            M = _unit_rows(q, triples)
            for i, u in enumerate(_units(q).tolist()):
                pt = ReducedFraction.reduce(pow(u, -1, q), q)
                bt = r_sum_bruteforce_table(pt).ravel()
                assert np.max(np.abs(bt - M[i])) < 1e-6, (q, u)
                scalar = np.array([r_sum_fast(*t, pt) for t in triples.tolist()])
                assert np.max(np.abs(bt - scalar)) < 1e-6, (q, u)

    def test_scalar_matches_table(self):
        # the same Kloosterman columns summed in the same order: equal exactly
        for q in (5, 12, 30):
            pt = ReducedFraction.reduce(1, q)
            for b in range(q):
                for c in range(q):
                    column = _twist_column(q, b, c)
                    for a in range(q):
                        assert r_sum_fast(a, b, c, pt) == column[a], (q, a, b, c)

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
                    assert val.imag == 0
                    assert r_sum_fast(*((-a) % q, (-b) % q, (-c) % q), pt) == pytest.approx(
                        r_sum_fast(a, b, c, cpt), abs=1e-9
                    )
        assert r_sum_fast(2, 4, 8, ReducedFraction(7, 60)).imag == 0

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
        # row i of the twisted table is the point h = units[i]^{-1}; the
        # last two triples take the closed-form branch b = c = 0 mod q
        triples = triples + [(triples[0][0], 0, q), (7, -q, 2 * q)]
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
        # sum'_h R_t(h/q) conj(R_t'(h/q)) from the brute-force oracle, all
        # the pairs drawn for one q in one batch
        rng = np.random.default_rng(7)
        by_q = {}
        for _ in range(24):
            q = int(rng.integers(1, 61))
            t1, t2 = (tuple(int(v) for v in rng.integers(0, 2 * q, 3)) for _ in range(2))
            direct = 0j
            for h in reduced(q):
                pt = ReducedFraction.reduce(h, q)
                direct += r_sum_bruteforce(*t1, pt) * np.conj(r_sum_bruteforce(*t2, pt))
            expect = round(direct.real)
            assert max(abs(direct.imag), abs(direct.real - expect)) <= 1e-6 * (1 + abs(direct))
            by_q.setdefault(q, []).append((t1, t2, expect))
        for q, cases in by_q.items():
            t1, t2, expect = zip(*cases)
            got = correlation_sums(q, t1, t2)
            assert got.tolist() == list(expect), q

    def test_examples(self):
        assert correlation_sums(2, [(1, 1, 1)], [(1, 1, 1)]).tolist() == [4]
        assert correlation_sums(1, [(3, 1, 4)], [(1, 5, 9)]).tolist() == [1]
        assert correlation_sums(5, [], []).shape == (0,)
        assert _unit_rows(5, []).shape == (4, 0)

    def test_swap_conjugates(self):
        # R is real, so swapping the triples leaves the sum unchanged
        s = correlation_sums(12, [(1, 2, 3), (2, 0, 5)], [(2, 0, 5), (1, 2, 3)])
        assert s[0] == s[1]

    def test_guard(self, monkeypatch):
        with pytest.raises(GuardError):
            correlation_sums(61, [(1, 1, 1)], [(1, 1, 1)])
        monkeypatch.setattr(expsum, "CORRELATION_Q_GUARD", 61)
        assert correlation_sums(61, [(1, 1, 1)], [(1, 1, 1)]).shape == (1,)
        with pytest.raises(ValueError):
            correlation_sums(5, [(1, 1, 1), (1, 2, 3)], [(1, 1, 1)])

    def test_multiplicativity_examples(self):
        rep = correlation_multiplicativity_check(2, 3, [(1, 1, 1)], [(1, 1, 1)])
        assert rep["passed"].tolist() == [True]
        rep = correlation_multiplicativity_check(1, 7, [(2, 3, 4)], [(1, 1, 5)])
        assert rep["passed"].tolist() == [True] and rep["s1"].tolist() == [1]
        rng = np.random.default_rng(11)
        t1, t2 = [], []
        for _ in range(4):
            t1.append(tuple(int(v) for v in rng.integers(0, 36, 3)))
            t2.append(tuple(int(v) for v in rng.integers(0, 36, 3)))
        assert correlation_multiplicativity_check(4, 9, t1, t2)["passed"].all()

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(3)
        for q1, q2 in ((1, 7), (4, 15), (5, 12), (7, 8)):
            t1, t2 = rng.integers(-q1 * q2, 2 * q1 * q2, size=(2, 40, 3))
            batch = correlation_multiplicativity_check(q1, q2, t1, t2)
            assert all(len(col) == 40 for col in batch.values())
            for i in range(40):
                one = correlation_multiplicativity_check(q1, q2, t1[i:i + 1], t2[i:i + 1])
                for key in ("s12", "s1", "s2", "passed"):
                    assert batch[key][i] == one[key][0], (q1, q2, i, key)
                split = one["splitting_deviation"][0]
                assert abs(batch["splitting_deviation"][i] - split) <= 1e-12, (q1, q2, i)

    def test_splitting_identity_matches_scalar_sums(self, monkeypatch):
        # the splitting rows read from the tables against r_sum_fast
        q1, q2, t = 4, 15, (3, 7, 11)
        lhs_rhs = [
            (r_sum_fast(*t, ReducedFraction.reduce(h * q2 + h2 * q1, q1 * q2)),
             r_sum_fast(*t, ReducedFraction.reduce(h * q2**3, q1))
             * r_sum_fast(*t, ReducedFraction.reduce(h2 * q1**3, q2)))
            for h in reduced(q1) for h2 in reduced(q2)
        ]
        for samples in (1, 4, len(lhs_rhs)):
            expect = max(abs(l - r) / (1 + abs(l)) for l, r in lhs_rhs[:samples])
            monkeypatch.setattr(expsum, "SPLITTING_SAMPLES", samples)
            rep = correlation_multiplicativity_check(q1, q2, [t], [t])
            assert abs(rep["splitting_deviation"][0] - expect) <= 1e-12, samples

    def test_splitting_identity_reads_scalar_route(self, monkeypatch):
        # the left side comes from r_sum_fast, so an error there fails every row
        rng = np.random.default_rng(5)
        t1, t2 = rng.integers(0, 60, size=(2, 6, 3))
        assert correlation_multiplicativity_check(4, 15, t1, t2)["passed"].all()
        r_sum_fast = expsum.r_sum_fast
        monkeypatch.setattr(expsum, "r_sum_fast", lambda *args: r_sum_fast(*args) + 1)
        assert not correlation_multiplicativity_check(4, 15, t1, t2)["passed"].any()

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            correlation_multiplicativity_check(4, 6, [(1, 1, 1)], [(1, 1, 1)])


class TestPairSum:
    def test_examples(self):
        assert cq_pair_sum(0, 0, 1, 1, 3) == 2
        assert cq_pair_sum(0, 0, 3, 1, 3) == -4
        assert cq_pair_sum(1, 2, 3, 4, 1) == 1

    @given(st.integers(1, 40).flatmap(
        lambda q: st.tuples(st.just(q), *[st.integers(-3 * q, 3 * q)] * 4)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_definition(self, args):
        # the double loop over the units with c_q from the divisor formula
        q, a, a2, b, b2 = args
        units = reduced(q)
        total = sum(
            cmath.exp(2j * cmath.pi * (a * X - a2 * Y) / q) * ramanujan_sum(q, b * X - b2 * Y)
            for X in units
            for Y in units
        )
        expect = round(total.real)
        assert abs(total - expect) < 1e-6
        assert cq_pair_sum(a, a2, b, b2, q) == expect, args
        assert cq_pair_sum_bruteforce(a, a2, b, b2, q) == expect, args

    @given(
        st.integers(1, 80).flatmap(lambda q: st.tuples(
            st.just(q),
            st.lists(st.tuples(*[st.integers(-3 * q, 3 * q)] * 4), min_size=1, max_size=12),
            st.integers(-2, 2),
            st.integers(0, 3),
        ))
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_array_matches_bruteforce(self, args):
        # the distinct rows tiled to within 2 of the rows per chunk (at
        # least 420 for q <= 80), so batches end just short of a chunk
        # boundary or just past it
        q, rows, offset, scalar_col = args
        n = _PAIR_CHUNK // euler_phi(q) + offset
        which = np.arange(n) % len(rows)
        T = np.array(rows, dtype=np.int64)[which]
        expect = np.array([cq_pair_sum_bruteforce(*row, q) for row in rows])[which]
        got = cq_pair_sum(*T.T, q)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert np.array_equal(got, expect), q
        # one argument a scalar broadcast against the other three columns
        cols = list(T.T)
        cols[scalar_col] = int(rows[0][scalar_col])
        fixed = [row[:scalar_col] + (rows[0][scalar_col],) + row[scalar_col + 1:] for row in rows]
        expect = np.array([cq_pair_sum_bruteforce(*row, q) for row in fixed])[which]
        assert np.array_equal(cq_pair_sum(*cols, q), expect), (q, scalar_col)
        # ints in, a Python int out
        got = cq_pair_sum(*rows[0], q)
        assert type(got) is int and got == cq_pair_sum_bruteforce(*rows[0], q)
        with pytest.raises(GuardError):
            cq_pair_sum(*T.T, 501)

    def test_catalogs_match_bruteforce(self):
        # every row of the exhaustive catalogs and a seeded subsample of
        # the sampled ones: the catalogs' "brute" column is the definition
        pick = np.random.default_rng(5)
        for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                     (2, 4), (2, 5), (2, 6), (3, 3), (5, 2)):
            cat = prime_power_catalog(p, k, seed=20250810)
            rows = range(len(cat.brute))
            if (p**k) ** 4 > 10_000:
                rows = pick.choice(len(cat.brute), 500, replace=False)
            for i in rows:
                args = (*cat.tuples[i].tolist(), cat.q)
                assert cat.brute[i] == cq_pair_sum_bruteforce(*args), args

    def test_integer_valued_at_guard_scale(self):
        # q = 500 is the cost-guard limit of both kernels; the brute
        # force's counting path must still round exactly there.
        # (1, 1, 0, 0) at a prime near 500 leaves the largest rounding
        # residual measured at q <= 500 (1.6e-8 at q = 479 and 499,
        # against the 1e-6 tolerance).
        rng = np.random.default_rng(2)
        for _ in range(3):
            a, a2, b, b2 = (int(v) for v in rng.integers(0, 500, 4))
            assert isinstance(cq_pair_sum(a, a2, b, b2, 500), int)
        for q in (499, 500):
            for kernel in (cq_pair_sum, cq_pair_sum_bruteforce):
                assert kernel(1, 1, 0, 0, q) == (498 if q == 499 else 0)
                assert kernel(0, 0, 0, 0, q) == euler_phi(q) ** 3
        rows = [(1, 1, 0, 0), (0, 0, 0, 0)]
        _, closed = cq_pair_sum_prime_power(np.array(rows, dtype=np.int64), 499, 1)
        assert closed.tolist() == [cq_pair_sum(*row, 499) for row in rows]
        for kernel in (cq_pair_sum, cq_pair_sum_bruteforce):
            with pytest.raises(GuardError):
                kernel(1, 2, 3, 4, 501)

    def test_units_read_only(self):
        assert _units(12).tolist() == [1, 5, 7, 11]
        assert _units(1).tolist() == [0]
        for q in range(1, 300):
            assert _units(q).dtype == np.int64
            assert _units(q).tolist() == [h % q for h in reduced(q)], q
        with pytest.raises(ValueError):
            _units(12)[0] = 1

    def test_cq_table(self):
        for q in (1, 2, 12, 30):
            assert [int(v) for v in cq_table(q)] == [ramanujan_sum(q, r) for r in range(q)]
        with pytest.raises(ValueError):
            cq_table(12)[0] = 1

    def test_closed_form_examples(self):
        cases, values = cq_pair_sum_prime_power(
            np.array([[0, 0, 1, 1], [0, 0, 3, 1]], dtype=np.int64), 3, 1)
        assert [PrimePowerCase(case) for case in cases] == [
            PrimePowerCase.Q_EQUALS_P, PrimePowerCase.P_DIVIDES_BB]
        assert values.tolist() == [2, -4]

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_closed_form_exhaustive(self, p, k):
        cat = prime_power_catalog(p, k)
        assert cat.brute.shape == ((p**k) ** 4,)
        assert np.array_equal(cat.brute, cat.closed)

    def test_catalog_columns(self, monkeypatch):
        # exhaustive order (a slowest, b2 fastest), int64, read-only
        cat = prime_power_catalog(2, 2)
        assert cat.q == 4 and cat.tuples.shape == (256, 4)
        assert cat.tuples[:3].tolist() == [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2]]
        for column in (cat.tuples, cat.brute, cat.closed):
            assert column.dtype == np.int64
        for column in cat[1:]:
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert set(cat.case) <= {case.value for case in PrimePowerCase}
        # sampled: the seed decides the tuples
        assert np.array_equal(prime_power_catalog(2, 5, seed=1).tuples,
                              prime_power_catalog(2, 5, seed=1).tuples)
        assert not np.array_equal(prime_power_catalog(2, 5, seed=1).tuples,
                                  prime_power_catalog(2, 5, seed=2).tuples)
        monkeypatch.setattr(expsum, "CATALOG_SAMPLES", 7)
        assert prime_power_catalog(2, 5).tuples.shape == (7, 4)

    def test_second_case_formula(self):
        # p^2 | Q requires k >= 2 with small gcd(q, b, b2)
        q = 9
        rows = [(a, a2, 1, 2) for a in range(9) for a2 in range(9)]
        cases, values = cq_pair_sum_prime_power(np.array(rows, dtype=np.int64), 3, 2)
        assert all(PrimePowerCase(case) is PrimePowerCase.P2_DIVIDES_Q for case in cases)
        assert values.tolist() == [cq_pair_sum(*row, q) for row in rows]

    @given(
        st.sampled_from([(p, k) for p in (2, 3, 5, 7) for k in range(1, 9) if p**k <= 343])
        .flatmap(lambda pk: st.tuples(
            st.just(pk),
            st.lists(st.tuples(*[st.integers(-3 * pk[0] ** pk[1], 3 * pk[0] ** pk[1])] * 4),
                     min_size=1, max_size=30),
        ))
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_closed_form_batch_matches_scalar(self, args):
        # every row against the exact pair sum, one scalar cq_pair_sum call
        # each, and its case label against the split read off
        # Bb = gcd(q, b, b2), Q = q/Bb, B = b/Bb and B2 = b2/Bb
        (p, k), rows = args
        q = p**k
        # rows with b = b2 = 0 mod q (Q = 1)
        rows = rows + [(rows[0][0], rows[0][1], 0, q), (1, -1, -q, 2 * q)]
        cases, values = cq_pair_sum_prime_power(np.array(rows, dtype=np.int64), p, k)
        assert len(cases) == len(values) == len(rows)
        for (a, a2, b, b2), case, val in zip(rows, cases, values.tolist()):
            Bb = math.gcd(q, b % q, b2 % q)
            if (b % q // Bb) * (b2 % q // Bb) % p == 0:
                want = PrimePowerCase.P_DIVIDES_BB
            elif q // Bb % (p * p) == 0:
                want = PrimePowerCase.P2_DIVIDES_Q
            else:
                want = PrimePowerCase.Q_EQUALS_P
            assert (PrimePowerCase(case), val) == (want, cq_pair_sum(a, a2, b, b2, q)), (
                p, k, (a, a2, b, b2))

    def test_rejects_non_prime(self):
        for p, k in ((6, 1), (1, 2), (3, 0)):
            with pytest.raises(ValueError):
                cq_pair_sum_prime_power(np.array([[0, 0, 1, 1]], dtype=np.int64), p, k)

    @pytest.mark.parametrize("p, k", [(-3, 1), (4, 1), (2, 0)])
    def test_catalog_checks_prime_power_first(self, p, k, monkeypatch):
        # refused before a tuple is drawn or a pair sum computed
        def reached(*args, **kw):
            raise AssertionError("cq_pair_sum reached")

        monkeypatch.setattr(expsum, "cq_pair_sum", reached)
        with pytest.raises(ValueError, match="prime"):
            prime_power_catalog(p, k)


class TestBounds:
    def test_ratio_examples(self, monkeypatch):
        # entries 1..1 leave the one pair (1, 1, 1) x (1, 1, 1)
        monkeypatch.setattr(expsum, "LOG_POWER", 0)
        assert correlation_bound_scan([2], 1)["ratio"] == pytest.approx(1 / 6)
        assert correlation_bound_scan([1], 1)["ratio"] == pytest.approx(1)

    def test_small_scan_golden(self, monkeypatch):
        monkeypatch.setattr(expsum, "LOG_POWER", 0)
        best = correlation_bound_scan(list(range(1, 25)), 4)
        assert best["ratio"] == pytest.approx(2.5, abs=1e-9)
        assert best["q"] == 6

    def test_tied_maximum_reports_first_pair(self):
        # 40 pairs tie at q = 70 and differ only in their last bits; the
        # next ratio is a third lower
        best = correlation_bound_scan(list(range(61, 121)), 6)
        assert (best["q"], best["triple"], best["triple2"]) == (70, (2, 2, 2), (5, 5, 5))
        assert best["ratio"] == pytest.approx(0.0213427947386, rel=1e-11)
        # at q = 1 every ratio is exactly 1
        best = correlation_bound_scan([1, 2], 3)
        assert (best["q"], best["triple"], best["triple2"]) == (1, (1, 1, 1), (1, 1, 1))

    @given(
        st.sets(st.integers(1, 60), max_size=10).map(lambda s: sorted(s | {30, 42, 60})),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_prime_power_factors_match_direct_ratios(self, q_values, entry_max, log_power):
        # every ratio of the scan, a product of prime-power factors, against
        # the ratio of the definition at q itself, from correlation_sums
        t = np.array(list(np.ndindex(*(entry_max,) * 3))) + 1  # the scan's triples, in order
        n = t.prod(axis=1)
        rows, cols = np.divmod(np.arange(len(t) ** 2), len(t))
        best = {"ratio": 0.0}
        derived = expsum._correlation_ratios(q_values, [tuple(v) for v in t.tolist()], log_power)
        for q, ratios in derived:
            S = correlation_sums(q, t[rows], t[cols]).reshape(len(t), len(t))
            sigma_of = np.zeros(q + 1, dtype=np.int64)
            sigma_of[list(divisors(q))] = [sigma(d) for d in divisors(q)]
            denom = (q**3 * np.gcd(np.gcd.outer(n, n), q)
                     * sigma_of[np.gcd(np.subtract.outer(n, n), q)])
            direct = np.abs(S) / denom / (1.0 + math.log(q)) ** log_power
            np.testing.assert_allclose(ratios, direct, rtol=1e-12, atol=0, err_msg=str(q))
            i, j = np.argwhere(direct >= direct.max() * (1.0 - expsum.TIE_RTOL))[0]
            if direct[i, j] > best["ratio"]:
                best = {"ratio": direct[i, j], "q": q,
                        "triple": tuple(t[i].tolist()), "triple2": tuple(t[j].tolist())}
        with mock.patch.object(expsum, "LOG_POWER", log_power):
            scan = correlation_bound_scan(q_values, entry_max)
        assert scan["ratio"] == pytest.approx(best["ratio"], rel=1e-12)
        assert [scan[k] for k in ("q", "triple", "triple2")] == [
            best[k] for k in ("q", "triple", "triple2")]

    def test_non_integer_prime_power_correlation_raises(self, monkeypatch):
        # a correlation at q = 12 is the product of those at 4 and 3; each
        # prime-power correlation must round to an integer
        unit_rows = expsum._unit_rows
        monkeypatch.setattr(expsum, "_unit_rows", lambda q, triples: unit_rows(q, triples) + 0.25)
        with pytest.raises(ArithmeticError, match="q=4 is not an integer"):
            correlation_bound_scan([12], 2)

    def test_critical_bound_fitted_constant(self, monkeypatch):
        # |S| <= C * q * (q,b,b') * sum_{f | (q, ab-a'b')} f * (1+log q)^3
        # over the prime-power scan family; C is the fitted max ratio and
        # stays well below 1 (deterministic seeded family)
        monkeypatch.setattr(expsum, "CATALOG_SAMPLES", 2000)
        worst = 0.0
        for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
            q = p**k
            logfac = (1.0 + math.log(q)) ** 3
            cat = prime_power_catalog(p, k, seed=3)
            for (a, a2, b, b2), s in zip(cat.tuples.tolist(), cat.brute.tolist()):
                denom = (
                    q
                    * math.gcd(q, math.gcd(b, b2))
                    * sigma(math.gcd(q, a * b - a2 * b2))
                    * logfac
                )
                worst = max(worst, abs(s) / denom)
        assert math.isfinite(worst) and worst < 0.5

    def test_corr_identity(self):
        def deviation(n, m, q):
            lhs, rhs = corr_identity_values(n, m, q)
            return abs(lhs - rhs) / q**3

        assert deviation(1, 1, 2) == pytest.approx(0.5, abs=1e-9)
        assert deviation(2, 3, 1) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            corr_identity_values(2, 1, 4)
        with pytest.raises(GuardError):
            corr_identity_values(1, 1, 41)


# each cost guard, a call at modulus q, and the first costly step of that call
_GUARDED = [
    pytest.param("BRUTE_Q_GUARD", lambda q: r_sum_bruteforce(1, 2, 3, ReducedFraction(1, q)),
                 np, "bincount", id="r_sum_bruteforce"),
    pytest.param("TABLE_Q_GUARD", lambda q: r_sum_bruteforce_table(ReducedFraction(1, q)),
                 np.fft, "ifftn", id="r_sum_bruteforce_table"),
    pytest.param("CORRELATION_Q_GUARD", lambda q: correlation_sums(q, [(1, 1, 1)], [(1, 2, 3)]),
                 expsum, "_paired_unit_rows", id="correlation_sums"),
    pytest.param("CORRELATION_Q_GUARD",
                 lambda q: correlation_multiplicativity_check(1, q, [(1, 1, 1)], [(1, 2, 3)]),
                 expsum, "_paired_unit_rows", id="correlation_multiplicativity_check"),
    pytest.param("PAIR_SUM_Q_GUARD", lambda q: cq_pair_sum(1, 2, 3, 4, q),
                 expsum, "_units", id="cq_pair_sum"),
    pytest.param("PAIR_SUM_Q_GUARD", lambda q: cq_pair_sum_bruteforce(1, 2, 3, 4, q),
                 expsum, "_units", id="cq_pair_sum_bruteforce"),
    pytest.param("IDENTITY_Q_GUARD", lambda q: corr_identity_values(1, 1, q),
                 expsum, "_unit_rows", id="corr_identity_values"),
]


class TestCostGuards:
    @pytest.mark.parametrize("name, call, owner, costly", _GUARDED)
    def test_guard_refuses_before_any_work(self, name, call, owner, costly, monkeypatch):
        guard = getattr(expsum, name)
        call(guard)  # the guard itself is taken

        def reached(*args, **kw):
            raise AssertionError(f"{costly} reached")

        monkeypatch.setattr(owner, costly, reached)
        with pytest.raises(GuardError, match=f"guard {guard}$"):
            call(guard + 1)

    def test_force_lifts_the_overridable_guards(self):
        pt = ReducedFraction(1, 211)
        with pytest.raises(GuardError):
            r_sum_bruteforce(1, 2, 3, pt)
        brute = r_sum_bruteforce(1, 2, 3, pt, force=True)
        assert brute == pytest.approx(r_sum_fast(1, 2, 3, pt), abs=1e-6)
        with pytest.raises(GuardError):
            correlation_sums(61, [(1, 1, 1)], [(1, 2, 3)])
        got = correlation_sums(61, [(1, 1, 1)], [(1, 2, 3)], force=True)
        direct = sum(r_sum_fast(1, 1, 1, ReducedFraction(h, 61)).real
                     * r_sum_fast(1, 2, 3, ReducedFraction(h, 61)).real for h in range(1, 61))
        assert got.tolist() == [round(direct)]
