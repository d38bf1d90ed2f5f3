import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d3lab.arith import DivisorTable, divisors, sieve_dk
from d3lab import variance
from d3lab.cli import fmt12, main
from d3lab.mainterm import mainterm_expsum
from d3lab.variance import (
    bound_bhs,
    bound_first_moment,
    bound_nguyen,
    bound_second_moment,
    delta_all,
    dft_direct,
    divisor_decomposition_check,
    exponent_scan,
    fit_log_slopes,
    fold_progression_sums,
    progression_error,
    progression_sums,
    variance_report,
)


class TestProgressionSums:
    def test_example_q2_x10(self, d3_table_1e4):
        S = progression_sums(2, 10, d3_table_1e4)
        assert S[1] == 16  # d3(1)+d3(3)+d3(5)+d3(7)+d3(9)
        assert S[0] + S[1] == d3_table_1e4.prefix_sum(10)

    def test_partition(self, d3_table_1e4):
        for q in (1, 7, 12):
            S = progression_sums(q, 100, d3_table_1e4)
            assert S.sum() == d3_table_1e4.prefix_sum(100)

    def test_uint64_table(self):
        # d_8 tables are uint64 past N = 10^7 (max d_8 is 4,892,659,200 at
        # 5*10^7); their sums are the same int64 as a uint32 table's
        table = sieve_dk(8, 1000)
        wide = DivisorTable(k=8, limit=1000, values=table.values.astype(np.uint64))
        for q, x in ((1, 1000), (7, 1000), (12, 999)):
            assert np.array_equal(progression_sums(q, x, wide), progression_sums(q, x, table))

    def test_sieve_too_short(self, d3_table_1e4):
        with pytest.raises(ValueError):
            progression_sums(3, 10**7, d3_table_1e4)

    @given(st.integers(1, 2 * 10**6))
    @example(1)
    @example(2 * 10**6)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_matches_bincount_oracle(self, d3_table_1e6, q):
        # float64 bincount is exact here: every partial sum is below 2^53
        x = d3_table_1e6.limit
        n = np.arange(1, x + 1, dtype=np.int64)
        weights = d3_table_1e6.values[1:].astype(np.float64)
        oracle = np.bincount(n % q, weights=weights, minlength=q).astype(np.int64)
        S = progression_sums(q, x, d3_table_1e6)
        assert S.dtype == np.int64 and np.array_equal(S, oracle)

    @given(st.integers(1, 600), st.integers(0, 1000))
    @example(1, 1000)
    @example(360, 100)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_fold_matches_direct(self, d3_table_1e4, q, x):
        # q > x leaves residue classes with no n <= x, and q = 1 folds to itself
        S = progression_sums(q, x, d3_table_1e4)
        for d in divisors(q):
            assert np.array_equal(fold_progression_sums(S, d), progression_sums(d, x, d3_table_1e4))

    @pytest.mark.parametrize("q, x", [
        (7, 6999),  # q divides x + 1: whole rows only
        (7, 7000),  # a short last row
        (360, 100),  # x < q: the short row alone
        (1, 5000),
        (12, 10**5),  # x = table.limit
        (13, 0),
        # the sums run over rows of width q * ceil(256 / q), folded to q
        (7, 2589),  # x + 1 = 10 wide rows of 259
        (2, 2590),  # a short last wide row
        (3, 257),  # x < the wide row of 258
        (1, 255),  # x + 1 = one wide row of 256
        (1, 10**5),
        (257, 5139),  # q > 256 is its own wide row: x + 1 = 20 rows
        (300, 10**4),
    ])
    def test_matches_definition_at_the_row_edges(self, d3_table_1e5, q, x):
        # values[0] is unused: a table that holds a value there must not see it
        values = d3_table_1e5.values.copy()
        values[0] = 10**9
        marked = DivisorTable(k=3, limit=d3_table_1e5.limit, values=values)
        for table in (d3_table_1e5, marked):
            n = np.arange(1, x + 1)
            oracle = np.bincount(n % q, weights=table.values[1 : x + 1], minlength=q)
            S = progression_sums(q, x, table)
            assert S.dtype == np.int64 and np.array_equal(S, oracle.astype(np.int64))

    def test_fold_rejects_non_divisor(self, d3_table_1e4):
        with pytest.raises(ValueError):
            fold_progression_sums(progression_sums(12, 100, d3_table_1e4), 5)


class TestDeltaAll:
    def test_chirp_vs_direct(self, d3_table_1e4):
        for q in (7, 12, 30):
            d1 = delta_all(q, 1e4, d3_table_1e4)
            S = progression_sums(q, 1e4, d3_table_1e4).astype(float)
            g = np.gcd(np.arange(q), q)
            f = np.array([mainterm_expsum(int(q // gv), 1e4, 3) for gv in g])
            d2 = dft_direct(S) - f
            assert np.max(np.abs(d1 - d2)) <= 1e-9 * np.max(np.abs(d1))

    def test_conjugate_symmetry(self, d3_table_1e4):
        for q in (11, 30):
            d = delta_all(q, 1e4, d3_table_1e4)
            for a in range(q):
                assert d[(q - a) % q] == pytest.approx(np.conj(d[a]), rel=1e-9)

    def test_q1_error_small(self, d3_table_1e5):
        d = delta_all(1, 1e5, d3_table_1e5)
        assert abs(d[0]) <= (1e5) ** 0.8

    def test_reduction_invariance(self, d3_table_1e4):
        # Delta(a/q) equals Delta at the reduced level, recomputed independently
        q = 12
        d_q = delta_all(q, 1e4, d3_table_1e4)
        for a in range(q):
            g = math.gcd(a, q)
            dlev = q // g if a else 1
            d_red = delta_all(dlev, 1e4, d3_table_1e4)
            assert d_q[a] == pytest.approx(d_red[(a // g) % dlev], rel=1e-9)


class TestProgressionError:
    def test_q1_equals_delta(self, d3_table_1e5):
        e = progression_error(1, 1, 1e5, d3_table_1e5)
        d = delta_all(1, 1e5, d3_table_1e5)[0]
        assert e == pytest.approx(d.real, rel=1e-12)

    def test_partition(self, d3_table_1e4):
        x = 1e4
        full = progression_error(1, 1, x, d3_table_1e4)
        for q in (3, 10):
            total = math.fsum(progression_error(q, a, x, d3_table_1e4) for a in range(1, q + 1))
            assert total == pytest.approx(full, rel=1e-6)

    def test_sign_changes(self, d3_table_1e5):
        errs = [progression_error(11, a, 1e5, d3_table_1e5) for a in range(1, 12)]
        assert any(e > 0 for e in errs) and any(e < 0 for e in errs)


class TestReports:
    def test_parseval_small_grid(self, d3_table_1e4):
        for q in (2, 9, 30, 47):
            r = variance_report(q, 1e4, d3_table_1e4)
            assert r.parseval_dev <= 1e-9

    def test_decomposition(self, d3_table_1e4):
        assert divisor_decomposition_check(12, 1e4, d3_table_1e4) <= 1e-9
        assert divisor_decomposition_check(1, 1e4, d3_table_1e4) <= 1e-15

    def test_decomposition_memo_keeps_the_bits(self, d3_table_1e5):
        # cold memo and no delta, warm memo and the caller's delta, and the
        # report: one float, because fsum is correctly rounded in any order
        from d3lab.variance import _level_abs2

        q, x = 360, 1e5
        S = progression_sums(q, x, d3_table_1e5)
        delta = delta_all(q, x, d3_table_1e5, sums=S)
        _level_abs2.cache_clear()
        cold = divisor_decomposition_check(q, x, d3_table_1e5)
        assert _level_abs2.cache_info().misses == len(divisors(q)) - 1
        warm = divisor_decomposition_check(q, x, d3_table_1e5, sums=S, delta=delta)
        assert _level_abs2.cache_info().hits == len(divisors(q)) - 1
        report = variance_report(q, x, d3_table_1e5).decomp_dev
        assert cold.hex() == warm.hex() == report.hex()
        assert cold <= 1e-9

    def test_decomposition_memo_recomputes_a_changed_level(self, d3_table_1e5):
        # one more at n = 9999 changes S_d at every level d | 12; a memo that
        # served the first table's levels would leave a deviation near 1e-4
        from d3lab.variance import _level_abs2

        q, x = 12, 10**4
        values = d3_table_1e5.values.copy()
        values[9999] += 1
        changed = DivisorTable(k=3, limit=d3_table_1e5.limit, values=values)
        divisor_decomposition_check(q, x, d3_table_1e5)
        warm = divisor_decomposition_check(q, x, changed)
        _level_abs2.cache_clear()
        cold = divisor_decomposition_check(q, x, changed)
        assert warm.hex() == cold.hex()
        assert warm <= 1e-9

    @pytest.mark.parametrize("q, parseval_hex, decomp_hex", [
        (12, "0x1.415fdd84b1a52p-41", "0x1.bd985be2ebc5ep-44"),
        (360, "0x1.7ad07bf81f0fdp-51", "0x1.7265738684c54p-49"),
    ])
    def test_deviation_bits(self, d3_table_1e5, q, parseval_hex, decomp_hex):
        # recorded when the sums read numpy arrays; fsum of a list is the same
        # correctly rounded sum
        r = variance_report(q, 1e5, d3_table_1e5)
        assert (r.parseval_dev.hex(), r.decomp_dev.hex()) == (parseval_hex, decomp_hex)
        assert divisor_decomposition_check(q, 1e5, d3_table_1e5).hex() == decomp_hex

    def test_prime_decomposition_structure(self, d3_table_1e4):
        # for prime q the right side is |Delta(0/1)|^2 plus the primitive sum
        q = 13
        d = delta_all(q, 1e4, d3_table_1e4)
        lhs = math.fsum(np.abs(d) ** 2)
        d1 = delta_all(1, 1e4, d3_table_1e4)
        rhs = abs(d1[0]) ** 2 + math.fsum(np.abs(d[1:]) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_hermitian_aggregates(self, d3_table_1e4):
        r = variance_report(30, 1e4, d3_table_1e4)
        assert r.v2_all >= r.v2_prim >= 0
        assert r.v1_prim >= 0 and r.v2_e >= 0

    def test_cauchy_schwarz(self, d3_table_1e4):
        from d3lab.arith import euler_phi

        for q in (7, 30):
            r = variance_report(q, 1e4, d3_table_1e4)
            S = progression_sums(q, 1e4, d3_table_1e4)
            from d3lab.variance import _class_main_terms

            E = S.astype(float) - _class_main_terms(q, 1e4, 3)
            prim = np.gcd(np.arange(q), q) == 1
            v2_prim_E = math.fsum(E[prim] ** 2)
            assert r.v1_prim <= math.sqrt(euler_phi(q) * v2_prim_E) * (1 + 1e-12)

    def test_golden_fixture_q3_x1e3(self, d3_table_1e4):
        # regression fixture recorded from the first verified run
        r = variance_report(3, 1e3, d3_table_1e4)
        assert fmt12(r.v2_all) == "10455.1353239"
        assert fmt12(r.v2_prim) == "9774.66638025"
        assert fmt12(r.v2_e) == "3485.04510797"
        assert fmt12(r.v1_prim) == "61.1034002159"
        assert fmt12(r.ratio2) == "2.01209173123"
        assert r.parseval_dev <= 1e-9 and r.decomp_dev <= 1e-9

    def test_rho2_fixture_1e5_317(self, d3_table_1e5):
        r = variance_report(317, 1e5, d3_table_1e5)
        assert fmt12(r.ratio2) == "22.3806204368"

    def test_k2_pipeline(self, d2_table_1e4):
        r = variance_report(12, 1e4, d2_table_1e4, k=2)
        assert r.parseval_dev <= 1e-9
        assert r.decomp_dev <= 1e-9
        assert r.bound_thm1 == 1e4
        assert r.bound_thm2 == pytest.approx(math.sqrt(1e4 * 12))

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_no_bounds_beyond_k3(self, k):
        # the identities still hold; the report's decomp_dev is the standalone
        # check's, bit for bit
        table = sieve_dk(k, 10**4)
        for q in (5, 12, 30, 97):
            r = variance_report(q, 1e4, table, k)
            bounds = (r.bound_thm1, r.bound_thm2, r.bound_nguyen, r.ratio2, r.ratio1)
            assert all(math.isnan(v) for v in bounds)
            assert r.parseval_dev <= 1e-9 and r.decomp_dev <= 1e-9
            assert r.decomp_dev.hex() == divisor_decomposition_check(q, 1e4, table, k).hex()


# the slopes each grid shape determines: (slope_x, slope_q)
_DETERMINED = {"point": (False, False), "one_x": (False, True), "one_q": (True, False),
               "collinear": (False, False), "full": (True, True)}


@st.composite
def _shaped_grids(draw):
    """(shape, points): a grid of one of the shapes of _DETERMINED."""
    shape = draw(st.sampled_from(sorted(_DETERMINED)))
    xs, qs = st.integers(1, 10**7), st.integers(1, 10**5)

    def several(values):
        return draw(st.lists(values, min_size=2, max_size=8, unique=True))

    if shape == "point":
        return shape, [(draw(xs), draw(qs))]
    if shape == "one_x":
        x = draw(xs)
        return shape, [(x, q) for q in several(qs)]
    if shape == "one_q":
        q = draw(qs)
        return shape, [(x, q) for x in several(xs)]
    if shape == "collinear":
        # x = s m^2 and q = r m: log q = log r - (log s)/2 + (log x)/2
        s, r = draw(st.integers(1, 100)), draw(st.integers(1, 100))
        return shape, [(s * m * m, r * m) for m in several(st.integers(1, 300))]
    (x1, x2), (q1, q2) = several(xs)[:2], several(qs)[:2]
    extra = draw(st.lists(st.tuples(xs, qs), max_size=5))
    return shape, [(x1, q1), (x1, q2), (x2, q1), *extra]


class TestBoundsAndScan:
    def test_nguyen_branches(self):
        x = 1e6
        assert bound_nguyen(x, 10) == pytest.approx(x ** (11 / 12))
        assert bound_nguyen(x, 100) == pytest.approx(x ** (7 / 9) * 10)
        assert bound_nguyen(x, 700) == pytest.approx(x)
        assert bound_nguyen(x, 3000) == pytest.approx(x ** (5 / 6) * 3000**0.25)
        assert math.isinf(bound_nguyen(x, 20000))

    def test_bhs_branches(self):
        x = 1e6
        assert bound_bhs(x, 9) == pytest.approx(x**0.75)
        assert bound_bhs(x, 50) == pytest.approx(x ** (2 / 3) * 50**0.5)
        assert bound_bhs(x, 500) == pytest.approx(x**0.7 * 500**0.4)
        assert bound_bhs(x, 5000) == pytest.approx(x**0.8 * 5000**0.2)
        assert math.isinf(bound_bhs(x, 2 * 10**6))

    def test_moment_bounds(self):
        assert bound_second_moment(1e4, 30, 3) == pytest.approx(1e4 * 30**1.5)
        assert bound_first_moment(1e4, 30, 3) == pytest.approx(100 * 30**0.75)

    def test_scan_and_slopes(self, d3_table_1e4):
        grid = [(10**3, 5), (10**3, 11), (10**4, 10), (10**4, 22), (10**4, 47)]
        reports = exponent_scan(grid, d3_table_1e4)
        assert [(int(r.x), r.q) for r in reports] == sorted(grid)
        slopes = fit_log_slopes(reports)
        assert abs(slopes["ratio2"]["slope_x"]) < 2.0

    @given(_shaped_grids(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_slopes_only_where_the_grid_determines_them(self, grid, data):
        shape, points = grid
        ratios = st.lists(st.floats(1e-6, 1e6), min_size=len(points), max_size=len(points))
        r2, r1 = data.draw(ratios), data.draw(ratios)
        # a ratio that is nan at one point (no bound, k >= 4) leaves no coefficient
        if data.draw(st.booleans()):
            r2[data.draw(st.integers(0, len(points) - 1))] = math.nan
        reports = [SimpleNamespace(x=float(x), q=q, ratio2=a, ratio1=b)
                   for (x, q), a, b in zip(points, r2, r1)]
        slopes = fit_log_slopes(reports)

        def finite(fit):
            return math.isfinite(fit["slope_x"]), math.isfinite(fit["slope_q"])

        assert finite(slopes["ratio1"]) == _DETERMINED[shape]
        if all(map(math.isfinite, r2)):
            assert finite(slopes["ratio2"]) == _DETERMINED[shape]
        else:
            assert all(math.isnan(v) for v in slopes["ratio2"].values())

    def test_theorem1_fitted_constant_stable(self, d3_table_1e5):
        # V2_all <= C * x q^{3/2} (1+log x)^A with A fitted (capped at 6);
        # the per-x normalized maxima must agree within a factor 3
        import numpy as np

        grid = {
            10**3: (10, 32, 100),
            10**4: (22, 100, 465),
            10**5: (47, 317, 2155),
        }
        per_x = {}
        for x, qs in grid.items():
            per_x[x] = max(
                variance_report(q, float(x), d3_table_1e5).ratio2 for q in qs
            )
        xs = sorted(per_x)
        L = np.log([1.0 + math.log(x) for x in xs])
        y = np.log([per_x[x] for x in xs])
        A = float(np.clip(np.polyfit(L, y, 1)[0], 0.0, 6.0))
        normalized = [per_x[x] / (1.0 + math.log(x)) ** A for x in xs]
        assert max(normalized) / min(normalized) <= 3.0

    def test_scan_workers_use_the_given_table(self):
        # a table that no sieve would rebuild: workers must read this one
        values = np.arange(2001, dtype=np.int64) % 7
        values[0] = 0
        table = DivisorTable(k=3, limit=2000, values=values)
        grid = [(10**3, 5), (2000, 12)]
        serial = exponent_scan(grid, table, workers=1)
        parallel = exponent_scan(grid, table, workers=2)
        assert serial == parallel

    def test_scan_workers_match_serial(self, d3_table_1e4):
        grid = [(10**3, 5), (10**3, 12), (10**4, 30)]
        serial = exponent_scan(grid, d3_table_1e4, workers=1)
        parallel = exponent_scan(grid, d3_table_1e4, workers=3)
        assert serial == parallel


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedScan:
    GRID = [(10**3, 5), (10**3, 12), (10**4, 30)]

    def failing_report(self, monkeypatch, fail):
        """variance_report that calls fail() for q = 12, in a worker only."""
        parent, real = os.getpid(), variance.variance_report

        def report(q, x, table, k=3):
            if q == 12 and os.getpid() != parent:
                fail()
            return real(q, x, table, k)

        monkeypatch.setattr(variance, "variance_report", report)

    def test_worker_exception_keeps_its_type(self, monkeypatch, d3_table_1e4):
        def fail():
            raise ValueError("no report for q = 12")

        self.failing_report(monkeypatch, fail)
        with pytest.raises(ValueError, match="no report for q = 12"):
            exponent_scan(self.GRID, d3_table_1e4, workers=2)
        assert_no_child_left()

    def test_worker_without_result_is_child_process_error(self, monkeypatch, capsys,
                                                          d3_table_1e4):
        self.failing_report(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="status 3"):
            exponent_scan(self.GRID, d3_table_1e4, workers=2)
        assert_no_child_left()
        argv = ["--threads", "2", "scan", "--grid", "1e3:5,1e3:12,2e3:30"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: scan worker 1 exited with status 3")
        assert_no_child_left()

    def test_more_workers_than_points(self, d3_table_1e4):
        serial = exponent_scan(self.GRID, d3_table_1e4, workers=1)
        assert exponent_scan(self.GRID, d3_table_1e4, workers=8) == serial
        assert_no_child_left()

    def test_serial_without_fork(self, monkeypatch, d3_table_1e4):
        serial = exponent_scan(self.GRID, d3_table_1e4, workers=1)
        monkeypatch.delattr(os, "fork")
        assert exponent_scan(self.GRID, d3_table_1e4, workers=2) == serial
