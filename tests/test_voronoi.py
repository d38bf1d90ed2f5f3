import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d3lab import voronoi
from d3lab.arith import ReducedFraction
from d3lab.expsum import dk_exact
from d3lab.laurent import bernoulli_numbers
from d3lab.voronoi import (
    SmoothWindow,
    dual_sum_eval,
    gamma_ratio_cubed,
    kernel_U,
    smoothed_delta_direct,
    w_transform,
    w_transform_direct,
)

from benchmark_commands import timed_commands


class TestGammaRatio:
    def test_symmetry_point(self):
        assert gamma_ratio_cubed(0.5 + 0j) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        for s in (0.1 + 7j, 0.05 + 123.4j):
            assert gamma_ratio_cubed(np.conj(s)) == pytest.approx(
                np.conj(gamma_ratio_cubed(s)), rel=1e-13
            )

    def test_decay_exponent(self):
        c = 0.1
        r100 = abs(gamma_ratio_cubed(c + 100j)) * 100 ** (3 * (0.5 - c))
        r1000 = abs(gamma_ratio_cubed(c + 1000j)) * 1000 ** (3 * (0.5 - c))
        assert r100 == pytest.approx(r1000, rel=2e-5)

    def test_pole_rejection(self):
        for s in (0j, -2 + 1e-12j, -4.0 + 0j):
            with pytest.raises(ValueError):
                gamma_ratio_cubed(s)

    def test_mpmath_cross_check(self):
        import mpmath

        for s in (0.1 + 3j, 0.05 + 40j):
            ref = complex((mpmath.gamma(s / 2) / mpmath.gamma((1 - s) / 2)) ** 3)
            assert gamma_ratio_cubed(s) == pytest.approx(ref, rel=1e-12)


def _recorded_nodes(monkeypatch, q, n, window):
    """The s arrays (and nodes_hint) that one uncached w_transform passes
    to G(s) and to W(s), one entry per pass."""
    gammas, mellins = [], []
    gamma, mellin = voronoi.gamma_ratio_cubed, SmoothWindow.mellin

    def recording_gamma(s):
        gammas.append(np.array(s))
        return gamma(s)

    def recording_mellin(self, s, nodes_hint, **kw):
        mellins.append((np.array(s), nodes_hint))
        return mellin(self, s, nodes_hint, **kw)

    monkeypatch.setattr(voronoi, "gamma_ratio_cubed", recording_gamma)
    monkeypatch.setattr(SmoothWindow, "mellin", recording_mellin)
    w_transform.__wrapped__(q, n, window)
    monkeypatch.undo()
    return gammas, mellins


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit: -0.0 is not 0.0."""
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _mp_gamma_ratio(s: complex) -> complex:
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpc(s)
        return complex((mpmath.gamma(z / 2) / mpmath.gamma((1 - z) / 2)) ** 3)


class TestStirlingGamma:
    """G(s) from Stirling's series against 30-digit values, bounded at the
    level scipy's complex loggamma reaches on the same points."""

    @staticmethod
    def _rel_errors(points):
        ref = np.array([_mp_gamma_ratio(complex(s)) for s in points])
        return np.abs(gamma_ratio_cubed(points) - ref) / np.abs(ref)

    def _contour_nodes(self, monkeypatch, leg):
        """The first-pass s-nodes of the contour of w_hat_10(17783) at
        (x, Y) = (1e4, 1e2), with the leg on Re s = leg, split at |s| = 60
        into the foot and the far nodes."""
        monkeypatch.setattr(voronoi, "_LEG", leg)
        N = math.pi**3 * 17783 / 10**3
        lo, hi = N * 1e2, N * 1e4
        T = max(voronoi._T_FLOOR, 2.0 * math.e * hi ** (1.0 / 3.0))
        s, _ = voronoi._contour_nodes(T, math.log(lo), math.log(hi), 1.0 / voronoi._REFINE)
        return s[np.abs(s) < 60], s[np.abs(s) >= 60]

    def test_contour_nodes(self, monkeypatch):
        # the leg on Re s = 0.1, next to the pole at s = 0
        foot, far = self._contour_nodes(monkeypatch, 0.1)
        assert len(foot) == 1243
        # scipy.special.loggamma measured rms 2.6e-14, max 1.33e-13 here
        rel = self._rel_errors(foot)
        assert np.sqrt(np.mean(rel**2)) <= 3.5e-14 and rel.max() <= 2e-13
        # scipy: max 4.1e-12 on every 40th far node, as 3 ln Gamma grows like |s| log |s|
        assert self._rel_errors(far[::40]).max() <= 6e-12

    def test_contour_nodes_on_leg(self, monkeypatch):
        # the contour's own leg, Re s = 1/2
        foot, far = self._contour_nodes(monkeypatch, 0.5)
        assert len(foot) == 1194
        # scipy.special.loggamma measured rms 2.7e-14, max 1.73e-13 here
        rel = self._rel_errors(foot)
        assert np.sqrt(np.mean(rel**2)) <= 3.5e-14 and rel.max() <= 2e-13
        # scipy: max 4.7e-12 on every 40th far node, and so did this G
        assert self._rel_errors(far[::40]).max() <= 7e-12

    def test_coefficient_table(self):
        B = bernoulli_numbers(2 * len(voronoi._STIRLING))
        assert voronoi._STIRLING == tuple(float(B[2 * k] / (2 * k * (2 * k - 1)))
                                          for k in range(1, len(voronoi._STIRLING) + 1))

    def test_term_choice_boundaries(self):
        # z = s/2 and z = (1-s)/2 on both sides of |Im z| = 20 and of |z| = 12
        # with Re z >= 6, where the series switches between 8 terms at z and
        # 22 terms after the shift to Re z >= 6
        zs = [x + 1j * y for x in (-7.0, -3.0, 0.25, 3.0, 5.9) for y in (19.999, 20.0, 20.001)]
        zs += [x + 1j * math.sqrt(144.0 - x * x) * f for x in (6.0, 6.5) for f in (0.999, 1.001)]
        zs += [12.0 + 0.5j, 11.99 + 0.1j, 6.0 + 0.1j]
        zs = np.array(zs)
        rel = self._rel_errors(np.concatenate([2.0 * zs, 1.0 - 2.0 * zs]))
        # shifting every node and summing 22 terms measured max 1.1e-13 here;
        # the per-node choice 7e-14
        assert rel.max() <= 1.2e-13

    def test_sweep(self):
        re, im = np.meshgrid(np.linspace(-14.0, 1.0, 16), np.linspace(0.37, 4000.0, 41))
        rel = self._rel_errors((re + 1j * im).ravel())
        # scipy: rms 4.9e-12, max 2.4e-11 on the same grid
        assert np.sqrt(np.mean(rel**2)) <= 7e-12 and rel.max() <= 3.5e-11


class TestKernel:
    def test_contour_invariance(self, monkeypatch):
        # deform the contour by its leg and its turn height; G has no poles
        # in 0 < Re s < 1, so U depends on neither
        for X in (1.0, 10.0, 100.0):
            vals = []
            for leg in (0.3, 0.5, 0.7):
                monkeypatch.setattr(voronoi, "_LEG", leg)
                for t in (30.0, 40.0, 60.0):
                    monkeypatch.setattr(voronoi, "_T_FLOOR", t)
                    vals.append(kernel_U(X))
            ref = max(abs(v) for v in vals)
            assert max(vals) - min(vals) <= 1e-4 * ref

    def test_absolute_convergence_bound(self):
        # |U(X)| <= X^{-c} * (1/2pi) int |G(c+it)| dt, measured numerically
        c = 0.10
        ts = np.linspace(0, 4000, 120001)
        g = np.abs(gamma_ratio_cubed(c + 1j * ts))
        integral = 2 * np.trapezoid(g, ts)
        tail = 2 * g[-1] * ts[-1] / (0.5 - 3 * c - 1 + 1)  # t^{3c-3/2} tail: /(1/2-3c)
        C = (integral + tail) / (2 * math.pi)
        for X in (1.0, 3.0, 31.0, 316.0, 1000.0):
            assert abs(kernel_U(X)) <= C * X ** (-c)

    def test_oscillation_amplitude_bounded(self):
        vals = [abs(kernel_U(float(X))) * X ** (1 / 3)
                for X in np.geomspace(1e3, 1e6, 16)]
        assert max(vals) < 5.0

    def test_meijer_g_oracle(self):
        # U(X) = 2 G^{3,0}_{0,6}(X^2 | -; 0,0,0,1/2,1/2,1/2): substitute s = 2w
        # in the Mellin-Barnes integral; an independent closed form, unlike
        # contour invariance, which a consistently wrong quadrature passes
        import mpmath

        xs = np.geomspace(0.05, 1e6, 25)
        for X, U in zip(xs, kernel_U(xs)):
            with mpmath.workdps(30):
                ref = float(2 * mpmath.meijerg([[], []], [[0, 0, 0], [0.5, 0.5, 0.5]],
                                               mpmath.mpf(float(X)) ** 2))
            assert abs(U - ref) <= 1e-10 * abs(ref)

    def test_rejects_bad_abscissa(self):
        for X in (-1.0, 0.0, math.inf, np.array([1.0, -1.0]), np.array([2.0, math.nan])):
            with pytest.raises(ValueError):
                kernel_U(X)


class TestKernelBlocks:
    """U(X) for an array of X on one contour per block with X_hi < 8 X_lo,
    against the one-X calls."""

    @pytest.mark.parametrize("xs", [np.geomspace(1.0, 1e6, 50), np.geomspace(0.05, 1e6, 25)],
                             ids=["benchmark", "meijer-g"])
    def test_matches_one_x_calls(self, monkeypatch, xs):
        errors = {}
        integrate = voronoi._contour_integral

        def recording(scales, *args):
            value, err, floor = integrate(scales, *args)
            for X, e in zip(scales, err):
                errors.setdefault(X, []).append(e)
            return value, err, floor

        monkeypatch.setattr(voronoi, "_contour_integral", recording)
        batch = kernel_U(xs)
        assert batch.shape == xs.shape
        for X, U in zip(xs.tolist(), batch):
            one = kernel_U(X)
            # the contours differ, not the integral; the two estimates are
            # not bounds at rounding level (ROADMAP item 1(c)): the worst
            # difference is 1.90 times their sum, 3.0e-15 at U(4.29e5) =
            # -0.00169, and 0.90 times on the Meijer-G grid (docs/LEDGER.md)
            assert len(errors[X]) == 2 and abs(U - one) <= 2 * sum(errors[X])

    def test_order_and_repeats(self):
        xs = np.geomspace(1.0, 10.0, 25)
        up = kernel_U(xs)
        assert np.array_equal(kernel_U(xs[::-1]), up[::-1])
        # a block of one distinct X is the one-X call, bit for bit
        assert np.array_equal(kernel_U(np.full(3, 5.0)), np.full(3, kernel_U(5.0)))
        mixed = np.concatenate([xs[::-1], xs[:5]]).reshape(6, 5)
        assert np.array_equal(kernel_U(mixed).ravel(), np.concatenate([up[::-1], up[:5]]))
        assert kernel_U(np.array([])).shape == (0,)

    def test_missed_tolerance_names_the_worst_x(self, monkeypatch):
        xs = np.geomspace(7.0, 1.0, 5)  # one block, descending
        found = []
        integrate = voronoi._contour_integral

        def recording(*args):
            found.append(integrate(*args))
            return found[-1]

        # a floor of 1e4 ulps puts every error near 1e-11: above 100x the
        # tolerance 1e-17 |U| + 1e-15, and within rtol = 1e-9, where the
        # same one pass runs and the estimates can be recorded
        monkeypatch.setattr(voronoi, "_ROUNDING_ULPS", 1e4)
        monkeypatch.setattr(voronoi, "_MAX_REFINEMENTS", 1)
        monkeypatch.setattr(voronoi, "_contour_integral", recording)
        kernel_U(xs)
        [(value, err, _)] = found
        worst = int(np.argmax(err / (1e-17 * np.abs(value) + 1e-15)))
        monkeypatch.setattr(voronoi, "_RTOL", 1e-17)
        with pytest.raises(voronoi.QuadratureError,
                           match=f"at X = {np.sort(xs)[worst]:g}; estimate {err[worst]:g}$"):
            kernel_U(xs)


class TestWindow:
    def test_knot_values_exact(self):
        w = SmoothWindow(x=1e4, Y=1e3)
        assert w(1e3) == 0.0 and w(1e4) == 0.0
        assert w(2e3) == 1.0 and w(9e3) == 1.0
        assert 0.0 < w(1.5e3) < 1.0

    def test_geometry_guard(self):
        with pytest.raises(ValueError):
            SmoothWindow(x=100.0, Y=40.0)
        with pytest.raises(ValueError):
            SmoothWindow(x=100.0, Y=0.5)

    @given(st.floats(0, 1.2e4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_range(self, t):
        w = SmoothWindow(x=1e4, Y=1e3)
        assert 0.0 <= w(t) <= 1.0

    def test_moments(self):
        w = SmoothWindow(x=1e4, Y=1e3)
        m = w.log_moments()
        assert w.x - 3 * w.Y <= m[0] <= w.x
        assert m[0] == pytest.approx(w.x - 2 * w.Y, rel=1e-12)
        # against plain numerical integration
        ts = np.linspace(1e3, 1e4, 200001)
        for j in (1, 2, 3):
            ref = np.trapezoid(w(ts) * np.log(ts) ** j, ts)
            assert m[j] == pytest.approx(float(ref), rel=1e-6)

    def test_mellin_vs_quadrature(self):
        from scipy.integrate import quad

        w = SmoothWindow(x=1e4, Y=1e3)
        for sv in (0.1 + 0j, 0.1 + 5j):
            re = quad(lambda t: float(w(t)) * t ** (-sv.real) * math.cos(sv.imag * math.log(t)),
                      1e3, 1e4, limit=400)[0]
            im = -quad(lambda t: float(w(t)) * t ** (-sv.real) * math.sin(sv.imag * math.log(t)),
                       1e3, 1e4, limit=400)[0]
            mine = w.mellin(np.array([sv]), nodes_hint=16)[0]
            assert mine == pytest.approx(re + 1j * im, rel=1e-9)


def _term_scale(w: SmoothWindow, s: np.ndarray, hint: float) -> np.ndarray:
    """Sum of the magnitudes of the terms W(s) is summed from: both plateau
    end values and every ramp node's w(t_k) t_k^{-s} dt_k.  Rounding acts
    at this scale; W itself cancels far below it once Im s outgrows the
    ramp width in log t (at T = 2349 on the ray, to 1e-10 of its terms)."""
    one_minus_s = 1.0 - s
    out = (np.abs((w.x - w.Y) ** one_minus_s) + np.abs((2.0 * w.Y) ** one_minus_s)) / np.abs(
        one_minus_s
    )
    for _, _, tn, wn in w._ramp_rules(hint):
        out = out + np.exp(-np.outer(s.real, np.log(tn))) @ np.abs(wn)
    return out


class TestFastMellin:
    """The moment-expanded W(s) against the dense oracle and mpmath."""

    @given(
        st.floats(math.log(3.0), math.log(1e5)),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2000.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_dense_oracle_on_both_legs(self, log_x, y_exp, T, ts, us):
        x = math.exp(log_x)
        Y = (x / 3.0) ** y_exp
        assume(1.0 <= Y and 3.0 * Y <= x)
        w = SmoothWindow(x=x, Y=Y)
        c, u_max = voronoi._LEG, voronoi._U_MAX
        s = np.concatenate([
            c + 1j * T * np.array(ts),
            c + 1j * T + (-1.0 + 1j) * u_max * np.array(us),
        ])
        hint = T + u_max * 1.05
        fast, dense = w.mellin(s, nodes_hint=hint), w.mellin_dense(s, nodes_hint=hint)
        # measured worst 2.0e-12 over 300 draws with T up to 4000: the
        # phase rounding |s| log t * eps both paths share
        assert np.all(np.abs(fast - dense) <= 2e-11 * _term_scale(w, s, hint))

    def test_mpmath_discrete_sum(self):
        import mpmath

        w = SmoothWindow(x=1e4, Y=1e2)
        T, c = 946.0, voronoi._LEG
        hint = T + voronoi._U_MAX * 1.05
        s = np.array([c, c + 7j, c + 300j, c + 1j * T,
                      c + 1j * T + (-1.0 + 1j) * 7.0, c + 1j * T + (-1.0 + 1j) * 13.9])
        rules = list(w._ramp_rules(hint))
        fast, dense = w.mellin(s, nodes_hint=hint), w.mellin_dense(s, nodes_hint=hint)
        for i, sv in enumerate(s):
            with mpmath.workdps(40):
                z = mpmath.mpc(sv)
                ref = ((mpmath.mpf(w.x - w.Y) ** (1 - z) - mpmath.mpf(2 * w.Y) ** (1 - z))
                       / (1 - z))
                for _, _, tn, wn in rules:
                    ref += mpmath.fsum(mpmath.mpf(float(wk))
                                       * mpmath.exp(-z * mpmath.log(mpmath.mpf(float(tk))))
                                       for tk, wk in zip(tn, wn))
                ref = complex(ref)
            # both paths measured at 4e-16 .. 6.4e-12: shared plateau and phase rounding
            assert abs(fast[i] - ref) <= 2e-11 * abs(ref)
            assert abs(dense[i] - ref) <= 2e-11 * abs(ref)

    def test_matches_dense_oracle_across_slabs_and_tables(self, monkeypatch):
        # the far tail's nodes: on the lower ramp they fall into 122 cells,
        # 18 slabs of 7 cells, with 3 real and 120 imaginary cell indices,
        # so every row of the three exponential tables is used
        w = SmoothWindow(1e4, 1e2)
        _, [(s, hint)] = _recorded_nodes(monkeypatch, 10, 17783, w)
        scale = _term_scale(w, s, hint)
        for lo, hi, tn, wn in w._ramp_rules(hint):
            if lo == w.Y:
                side = math.sqrt(2.0) * voronoi._MOMENT_RADIUS / (0.5 * math.log(hi / lo))
                cells = np.unique(np.rint(s.real / side) + 1j * np.rint(s.imag / side))
                assert len(cells) * len(tn) > voronoi._MOMENT_SLAB
                assert len(np.unique(cells.real)) >= 3 and len(np.unique(cells.imag)) > 16
            args = (s, np.log(tn), wn, math.log(lo), math.log(hi))
            fast, dense = voronoi._ramp_sum_moments(*args), voronoi._ramp_sum_dense(*args)
            assert np.all(np.abs(fast - dense) <= 2e-11 * scale)

    def test_memo_reuses_only_the_same_cells(self, monkeypatch):
        # the far tail's first pass and a refinement at density 1 fall into
        # the same cells: the refinement reuses the first pass's moments,
        # the bits a fresh build gives; nodes in other cells build their own
        w = SmoothWindow(1e4, 1e2)
        _, [(first, hint)] = _recorded_nodes(monkeypatch, 10, 17783, w)
        N = math.pi**3 * 17783 / 10**3
        T = 2.0 * math.e * (N * w.x) ** (1.0 / 3.0)
        s, _ = voronoi._contour_nodes(T, math.log(N * w.Y), math.log(N * w.x), 1.0)
        assert len(s) > len(first) and np.isin(first, s).sum() < len(first) // 2
        for lo, hi, tn, wn in w._ramp_rules(hint):
            # without the middle node's cell: fewer cells in the same extent
            side = math.sqrt(2.0) * voronoi._MOMENT_RADIUS / (0.5 * math.log(hi / lo))
            cells = np.rint(s.real / side) + 1j * np.rint(s.imag / side)
            kept = cells != cells[len(s) // 2]
            extent = [(f(c.real), f(c.imag)) for c in (cells, cells[kept]) for f in (min, max)]
            assert extent[:2] == extent[2:]
            fewer = s[kept]
            args = (np.log(tn), wn, math.log(lo), math.log(hi))
            memo = {}
            voronoi._ramp_sum_moments(first, *args, memo=memo)
            built = memo["cells"][2]
            for nodes, reused in ((s, True), (fewer, False)):
                value = voronoi._ramp_sum_moments(nodes, *args, memo=memo)
                assert _same_bits(value, voronoi._ramp_sum_moments(nodes, *args))
                assert (memo["cells"][2] is built) == reused

    def test_memo_lives_as_long_as_one_contour(self, monkeypatch):
        # the far tail builds the moments of each of its two ramps once, and
        # a second call of the same transform builds them again
        built = []
        cell_moments = voronoi._cell_moments
        monkeypatch.setattr(voronoi, "_cell_moments",
                            lambda *args: built.append(1) or cell_moments(*args))
        w = SmoothWindow(1e4, 1e2)
        counts = []
        for _ in range(2):
            built.clear()
            w_transform.__wrapped__(10, 17783, w)
            counts.append(len(built))
        assert counts == [2, 2]

    @pytest.mark.parametrize("q, n, x, Y", [(10, 17783, 1e4, 1e2), (5, 17, 1e4, 1e3)])
    def test_w_transform_matches_dense(self, monkeypatch, q, n, x, Y):
        w = SmoothWindow(x=x, Y=Y)
        fast = w_transform.__wrapped__(q, n, w)
        # the dense sums take no memo of the contour's ramp sums
        monkeypatch.setattr(SmoothWindow, "mellin",
                            lambda self, s, nodes_hint, memo: self.mellin_dense(s, nodes_hint))
        dense = w_transform.__wrapped__(q, n, w)
        assert fast == pytest.approx(dense, rel=1e-10)


def _panels_doubled(window: SmoothWindow, rules):
    """Each ramp rule laid out again on twice its equal 32-point panels."""
    for lo, hi, tn, _ in rules:
        t, dt = voronoi._composite_rule(np.linspace(lo, hi, 2 * len(tn) // 32 + 1),
                                        voronoi._leggauss(32))
        yield lo, hi, t, dt * window(t)


def _ramp_total(s, rules):
    return sum(voronoi._ramp_sum_moments(s, np.log(tn), wn, math.log(lo), math.log(hi))
               for lo, hi, tn, wn in rules)


class TestRampRule:
    """The composite ramp rule against finer panels and against mpmath's
    quadrature of the integral itself: the contour's refinement passes
    keep nodes_hint, so they cannot see a ramp rule that is too coarse."""

    @pytest.mark.parametrize("q, n, x, Y", [(10, 17783, 1e4, 1e2), (5, 17, 1e4, 1e3)])
    def test_stable_under_doubled_panels(self, monkeypatch, q, n, x, Y):
        w = SmoothWindow(x=x, Y=Y)
        _, mellins = _recorded_nodes(monkeypatch, q, n, w)
        for s, hint in mellins:
            rules = list(w._ramp_rules(hint))
            dW = _ramp_total(s, list(_panels_doubled(w, rules))) - _ramp_total(s, rules)
            # measured 1.4e-12 at (10, 17783) and 7.3e-12 at (5, 17), both rounding:
            # four times the panels moves W as much again
            assert np.abs(dW).max() <= 1e-11 * np.abs(w.mellin(s, nodes_hint=hint)).max()

    def test_mpmath_quadrature(self):
        import mpmath

        w = SmoothWindow(x=1e4, Y=1e3)

        def ramp(v):
            f1, f2 = mpmath.exp(-1 / v), mpmath.exp(-1 / (1 - v))
            return f1 / (f1 + f2)

        for sv in (0.1 + 7j, 0.1 + 100j, -4.9 + 65j):
            with mpmath.workdps(30):
                z, x, Y = mpmath.mpc(sv), mpmath.mpf(w.x), mpmath.mpf(w.Y)
                ref = ((x - Y) ** (1 - z) - (2 * Y) ** (1 - z)) / (1 - z)
                ref += mpmath.quad(lambda t: ramp((t - Y) / Y) * t ** (-z),
                                   mpmath.linspace(Y, 2 * Y, 17))
                ref += mpmath.quad(lambda t: ramp((x - t) / Y) * t ** (-z),
                                   mpmath.linspace(x - Y, x, 5))
                ref = complex(ref)
            # measured 4e-15 .. 5e-13 relative
            assert abs(w.mellin(np.array([sv]), nodes_hint=100.0)[0] - ref) <= 2e-12 * abs(ref)


def _traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """W(s) and the rows of a block are built in cache-sized slabs, not as
    whole (cells, t-nodes) or (scales, s-nodes) matrices."""

    def test_far_tail_mellin(self, monkeypatch):
        # the 12,804 Gauss-Kronrod nodes, cell moments built afresh: measured
        # 1,699,751 bytes; 2,193,623 at the 12,176 nodes of the two-pass
        # Gauss ladder's value pass, and 7.3 MB for whole matrices and a
        # (moments, nodes) gather
        w = SmoothWindow(1e4, 1e2)
        _, [(s, hint)] = _recorded_nodes(monkeypatch, 10, 17783, w)
        assert _traced_peak(w.mellin, s, hint) <= 4.5e6

    def test_ranged_transform(self):
        # measured 2.7 MB, against 9.0 MB with slabs of 2^22 entries
        w = SmoothWindow(1e4, 1e3)
        assert _traced_peak(w_transform.__wrapped__, 3, range(1, 101), w) <= 4e6


class TestTransform:
    def test_mellin_vs_direct(self):
        w = SmoothWindow(x=1e4, Y=1e3)
        for q, n in ((2, 1), (3, 2), (5, 4)):
            a = w_transform(q, n, w)
            b = w_transform_direct(q, n, w)
            assert a == pytest.approx(b, rel=2e-4, abs=1e-9)

    def test_trivial_bound(self):
        w = SmoothWindow(x=1e4, Y=1e3)
        q, n = 3, 2
        N = math.pi**3 * n / q**3
        ts = np.geomspace(w.Y, w.x, 30)
        max_u = max(abs(kernel_U(float(N * t))) for t in ts)
        assert abs(w_transform(q, n, w)) <= 1.05 * w.x * max_u

    def test_cache_hit_is_identical(self):
        w = SmoothWindow(x=1e4, Y=1e3)
        assert w_transform(2, 1, w) == w_transform(2, 1, w)

    def test_midrange_scaling(self):
        # the dimensionless ratio |w_hat| n^{2/3} / (x^{1/3} q^2) stays
        # bounded through the mid-range (measured max ~0.03)
        w = SmoothWindow(x=1e4, Y=1e2)
        for n in (50, 200, 1000, 5000):
            v = abs(w_transform(10, n, w))
            assert v * n ** (2 / 3) / (1e4 ** (1 / 3) * 100) < 0.1


def _kronrod_mp(n: int = 16):
    """The n-point Gauss nodes, the n + 1 Kronrod nodes and the weights of
    both rules on [-1, 1] in 60 digits: P_n from its recurrence in exact
    rationals, the Stieltjes polynomial E_{n+1} = x^{n+1} + ... from its
    orthogonality to x^j P_n for j <= n, and the weights from the moments."""
    from fractions import Fraction

    import mpmath

    p0, p1 = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] + [Fraction(2 * k + 1, k + 1) * c for c in p1]
        for i, c in enumerate(p0):
            nxt[i] -= Fraction(k, k + 1) * c
        p0, p1 = p1, nxt

    def moment(m):  # int_{-1}^{1} x^m dx
        return Fraction(2, m + 1) if m % 2 == 0 else Fraction(0)

    def against_p(m):  # int x^m P_n(x) dx
        return sum(c * moment(i + m) for i, c in enumerate(p1))

    with mpmath.workdps(60):
        mp = lambda f: mpmath.mpf(f.numerator) / f.denominator
        degs = range(n - 1, -1, -2)  # E's lower terms, of the parity of n + 1
        odd = range(1, n + 1, 2)  # x^j P_n with j of another parity integrate to 0
        coef = mpmath.lu_solve(mpmath.matrix([[mp(against_p(d + j)) for d in degs] for j in odd]),
                               mpmath.matrix([-mp(against_p(n + 1 + j)) for j in odd]))
        stieltjes = [mpmath.mpf(0)] * (n + 2)
        stieltjes[n + 1] = mpmath.mpf(1)
        for d, c in zip(degs, coef):
            stieltjes[d] = c
        roots = lambda cs: sorted(mpmath.re(r) for r in mpmath.polyroots(
            [mp(c) if isinstance(c, Fraction) else c for c in reversed(cs)],
            maxsteps=200, extraprec=200))
        gauss, nodes = roots(p1), sorted(roots(p1) + roots(stieltjes))

        def weights(xs):
            vander = mpmath.matrix([[x**j for x in xs] for j in range(len(xs))])
            return list(mpmath.lu_solve(vander, mpmath.matrix([mp(moment(j))
                                                               for j in range(len(xs))])))

        return gauss, weights(gauss), nodes, weights(nodes)


class TestKronrodRule:
    """The 16/33-point Gauss-Kronrod table against its derivation in 60
    digits, and the Kronrod-Gauss difference against the actual error."""

    def test_table_is_the_rule_in_60_digits(self):
        import mpmath

        gauss, wg, nodes, wk = _kronrod_mp()
        x, w, ratio = voronoi._kronrod()
        # the table holds the 60-digit values, rounded once
        assert x.tolist() == [float(v) for v in nodes]
        assert w.tolist() == [float(v) for v in wk]
        assert (w * ratio)[1::2].tolist() == pytest.approx([float(v) for v in wg], rel=4e-16)
        assert min(wk) > 0 and np.all(ratio[::2] == 0.0)
        with mpmath.workdps(60):
            exact = [mpmath.mpf(2) / (j + 1) if j % 2 == 0 else 0 for j in range(51)]
            errors = [abs(mpmath.fsum(c * v**j for c, v in zip(wk, nodes)) - exact[j])
                      for j in range(51)]
        # exact to degree 49 = 3n + 1, not beyond
        assert max(errors[:50]) < 1e-50 and errors[50] > 1e-20
        # the doubles too, to rounding
        for j in range(50):
            assert abs(math.fsum(w * x**j) - (2.0 / (j + 1) if j % 2 == 0 else 0.0)) <= 1e-15

    def test_embedded_gauss_rule_is_leggauss(self):
        x, w, ratio = voronoi._kronrod()
        xg, wg = voronoi._leggauss(16)
        assert np.all(np.abs(x[1::2] - xg) <= np.spacing(np.abs(xg)))
        # numpy's weights are the less accurate: up to 63 ulps from the
        # rounded 60-digit ones
        assert np.all(np.abs((w * ratio)[1::2] - wg) <= 64 * np.spacing(wg))

    @given(st.floats(0.0, 1.0), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_gauss_difference_dominates_the_error(self, frac, coefs):
        # e^{i omega x} p(x) on one panel of the first pass, which spans a
        # phase of at most 4 pi _REFINE (_ORDER nodes per _NODES_PER_OSC):
        # |omega| <= 2 pi _REFINE on [-1, 1]
        import mpmath

        top = max(abs(c) for c in coefs)
        assume(top > 0.0)
        coefs = [c / top for c in coefs]  # mpmath's quad stops at an absolute tolerance
        omega = frac * math.pi * voronoi._ORDER / voronoi._NODES_PER_OSC * voronoi._REFINE
        x, w, ratio = voronoi._kronrod()
        f = np.exp(1j * omega * x) * np.polynomial.polynomial.polyval(x, coefs)
        kronrod, gauss = np.sum(w * f), np.sum(w * ratio * f)
        with mpmath.workdps(30):
            exact = complex(mpmath.quad(lambda t: mpmath.expj(omega * t) * mpmath.polyval(
                coefs[::-1], t), [-1, 0, 1]))
        # as in the contour's estimate: the difference plus a floor of
        # _ROUNDING_ULPS ulps of the summed term magnitudes
        floor = voronoi._ROUNDING_ULPS * np.finfo(float).eps * np.sum(w * np.abs(f))
        assert abs(kronrod - exact) <= abs(kronrod - gauss) + floor


class TestRowRefinement:
    def test_only_the_rows_that_miss_are_refined(self, monkeypatch):
        # make row 3 of the block n <= 7 miss at the first pass: only its
        # scale is integrated again, and every other row keeps its value
        rows = voronoi._contour_rows
        calls = []

        def one_row_misses(s, w, g, weights, log_scales):
            out = rows(s, w, g, weights, log_scales)
            calls.append((len(s), log_scales.copy(), out.copy()))
            if len(calls) == 1:
                out[1, 3] += 1e-3  # its Gauss sum, and so its error estimate
            return out

        monkeypatch.setattr(voronoi, "_contour_rows", one_row_misses)
        values = w_transform.__wrapped__(5, range(1, 8), SmoothWindow(1e4, 1e3))
        (nodes, scales, first), (more_nodes, rescaled, second) = calls
        assert len(scales) == 7 and np.array_equal(rescaled, scales[3:4])
        assert more_nodes > nodes
        kept = np.arange(7) != 3
        assert np.array_equal(values[kept], first[0, kept]) and values[3] == second[0, 0]


class TestContourConvergence:
    """With the leg on Re s = 1/2 and its panels graded at the s = 0 pole,
    every U and w-hat quadrature of the benchmark and of criterion 08
    meets rtol at its first Gauss-Kronrod pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Record (contour builds, value, error estimate) per quadrature."""
        log = []
        build_nodes, integrate = voronoi._contour_nodes, voronoi._contour_integral

        def counting_nodes(*args):
            log[-1][0] += 1
            return build_nodes(*args)

        def recording(*args):
            log.append([0])
            value, err, floor = integrate(*args)
            log[-1] += [value, err, floor]
            return value, err, floor

        monkeypatch.setattr(voronoi, "_contour_nodes", counting_nodes)
        monkeypatch.setattr(voronoi, "_contour_integral", recording)
        return log

    def _check(self, log, count):
        rtol = voronoi._RTOL
        assert len(log) == count
        for builds, value, err, _ in log:
            assert builds == 1 and np.all(err <= rtol * np.abs(value))

    def test_kernel_stops_at_first_pass(self, passes):
        # the Meijer-G points, 3 per block with X_hi < 8 X_lo
        kernel_U(np.geomspace(0.05, 1e6, 25))
        assert [len(value) for _, value, _, _ in passes] == [3] * 8 + [1]
        self._check(passes, 9)

    def test_benchmark_kernel_builds_7_contours(self, passes):
        # the voronoi workload's kernel command: 8 of its 50 X per block,
        # one contour per block
        kernel_U(np.geomspace(1.0, 1e6, 50))
        assert [len(value) for _, value, _, _ in passes] == [8] * 6 + [2]
        self._check(passes, 7)
        assert sum(builds for builds, *_ in passes) == 7

    def test_transform_stops_at_first_pass(self, passes):
        # the voronoi workload's points, and criterion 08's at q = 2, 3,
        # whose sums cancel up to 3e4-fold (a leg at Re s = 0.1, next to
        # the pole, took 3 or 4 Gauss passes at 4 of the 8 q = 2 points)
        points = [(10, n, SmoothWindow(1e4, 1e2)) for n in (1, 32, 17783)]
        points += [(q, n, SmoothWindow(1e4, 1e3)) for q, top in ((5, 17), (3, 8), (2, 8))
                   for n in range(1, top + 1)]
        for q, n, w in points:
            w_transform.__wrapped__(q, n, w)
        self._check(passes, len(points))

    def test_transform_blocks_stop_at_first_pass(self, passes):
        # the ranges of the voronoi workload's dual sum (blocks n <= 7 and
        # 8..17) and of criterion 08 at q = 2, 3: a row that misses rtol is
        # one whose change is below its rounding floor
        rtol = voronoi._RTOL
        for q, top in ((5, 17), (3, 8), (2, 8)):
            w_transform.__wrapped__(q, range(1, top + 1), SmoothWindow(1e4, 1e3))
        assert [len(value) for _, value, _, _ in passes] == [7, 10, 7, 1, 7, 1]
        for builds, value, err, floor in passes:
            assert builds == 1 and np.all((err <= rtol * np.abs(value)) | (err <= 2 * floor))

    def test_rounding_floor_stops_refinement(self, passes):
        # w_hat_3(18) = -1.8973e-5 is a sum of terms 1.9e6 times larger, so
        # rounding alone is 2e-9 of it: refining cannot reach rtol = 1e-9
        value = w_transform.__wrapped__(3, 18, SmoothWindow(1e4, 1e3))
        [(builds, _, (err,), _)] = passes
        assert builds == 1 and 1e-9 * abs(value) < err < 1e-8 * abs(value)

    @pytest.fixture
    def unreachable(self, monkeypatch):
        """A tolerance of 1e-17 and one refinement; w_transform.__wrapped__
        bypasses the cache, whose entries were computed at the defaults."""
        monkeypatch.setattr(voronoi, "_RTOL", 1e-17)
        monkeypatch.setattr(voronoi, "_MAX_REFINEMENTS", 1)

    def test_missed_tolerance_raises(self, unreachable):
        # error 1.5e-12 at two passes, 8.1e-13 of it the rounding floor of
        # terms whose magnitudes sum to 917 pi: no refinement gets to 1e-17
        with pytest.raises(voronoi.QuadratureError):
            w_transform.__wrapped__(10, 1, SmoothWindow(1e4, 1e2))

    def test_missed_tolerance_names_the_worst_n(self, unreachable):
        # every row of the block misses 1e-17; the message names the one
        # furthest from its tolerance, and its estimate
        w = SmoothWindow(1e4, 1e3)
        with pytest.raises(voronoi.QuadratureError, match=r"at n = \d+; estimate") as exc:
            w_transform.__wrapped__(5, range(1, 8), w)
        worst = int(exc.value.args[0].split("n = ")[1].split(";")[0])
        assert 1 <= worst <= 7
        with pytest.raises(voronoi.QuadratureError, match=f"at n = {worst};"):
            w_transform.__wrapped__(5, worst, w)


class TestWorkloadContours:
    """Every contour of the voronoi workload's five commands, recorded
    from an empty w_transform cache, as in a fresh process."""

    @pytest.fixture(scope="class")
    def contours(self, tmp_path_factory):
        """Per contour: its nodes s of each pass, and (window, s, nodes_hint,
        W(s)) of each W(s) it formed."""
        from d3lab.cli import main

        log = []
        build_nodes, integrate = voronoi._contour_nodes, voronoi._contour_integral
        mellin = SmoothWindow.mellin

        def recording_nodes(*args):
            s, w = build_nodes(*args)
            log[-1]["s"].append(s)
            return s, w

        def recording(*args, **kw):
            log.append({"s": [], "W": []})
            return integrate(*args, **kw)

        def recording_mellin(self, s, nodes_hint, **kw):
            value = mellin(self, s, nodes_hint, **kw)
            log[-1]["W"].append((self, s, nodes_hint, value.copy()))
            return value

        out = tmp_path_factory.mktemp("workload") / "out"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(voronoi, "_contour_nodes", recording_nodes)
            mp.setattr(voronoi, "_contour_integral", recording)
            mp.setattr(SmoothWindow, "mellin", recording_mellin)
            w_transform.cache_clear()
            for argv in timed_commands("voronoi").values():
                assert main([*argv, "--out", str(out)]) == 0
        return log

    def test_every_contour_converges_at_its_first_pass(self, contours):
        # 7 kernel blocks, 2 dual-sum blocks (n <= 7 and 8..17) and 3 single n,
        # each one Gauss-Kronrod pass
        assert len(contours) == 12
        assert [len(c["s"]) for c in contours] == [1] * 12
        # the benchmark's traced G(s) points and W(s) nodes: 55,664 and
        # 31,040 with a Gauss-16 probe and value pass in place of one
        # Kronrod pass
        assert sum(len(s) for c in contours for s in c["s"]) == 38_841
        assert sum(len(s) for c in contours for _, s, _, _ in c["W"]) == 21_648

    def test_gamma_and_w_are_the_direct_forms(self, contours):
        # G(s) with one ln Gamma on Re s = 1/2, and W(s) with a^{1-s} as
        # exp((1-s) log a) and the cell moments of the contour's memo,
        # against the expressions they replace, bit for bit at every node
        lg = voronoi._log_gamma
        for c in contours:
            for s in c["s"]:
                direct = np.exp(3.0 * (lg(s / 2.0) - lg((1.0 - s) / 2.0)))
                assert _same_bits(gamma_ratio_cubed(s), direct)
            for w, s, hint, value in c["W"]:
                one_minus_s = 1.0 - s
                direct = ((w.x - w.Y) ** one_minus_s - (2.0 * w.Y) ** one_minus_s) / one_minus_s
                for lo, hi, tn, wn in w._ramp_rules(hint):
                    direct += voronoi._ramp_sum_moments(s, np.log(tn), wn,
                                                        math.log(lo), math.log(hi))
                assert _same_bits(value, direct)
        assert sum(bool(c["W"]) for c in contours) == 5


class TestTransformRange:
    """w_hat_q(n) for a range of n on one contour per block, against the
    one-n calls."""

    @given(
        st.integers(1, 10),
        st.integers(1, 200),
        st.integers(0, 199),
        st.floats(math.log(300.0), math.log(1e4)),
        st.floats(0.0, 1.0),
        st.data(),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_matches_one_n_calls(self, q, lo, width, log_x, y_exp, data):
        x = math.exp(log_x)
        w = SmoothWindow(x=x, Y=max(1.0, (x / 3.0) ** y_exp))
        ns = range(lo, min(lo + width, 200) + 1)
        batch = w_transform(q, ns, w)
        assert len(batch) == len(ns)
        for i in {0, len(ns) - 1, data.draw(st.integers(0, len(ns) - 1))}:
            # the contours differ, not the integral: 1.8e-13 apart at most
            # where measured (w_hat_5(2) in range(1, 18))
            assert abs(batch[i] - w_transform(q, ns[i], w)) <= 1e-10

    def test_range_of_one_is_the_one_n_call(self):
        w = SmoothWindow(1e4, 1e3)
        for q, n in ((2, 5), (3, 18), (5, 17)):
            assert w_transform(q, range(n, n + 1), w)[0] == w_transform(q, n, w)

    def test_slabs_match_the_whole_block(self, monkeypatch):
        # slabs of 3 * 4096 entries hold one row of these 6576- and
        # 9216-node contours; each row's sums are the same, bit for bit
        w = SmoothWindow(1e4, 1e3)
        monkeypatch.setattr(voronoi, "_BLOCK", 1 << 22)
        whole = w_transform.__wrapped__(2, range(8, 64), w)
        monkeypatch.setattr(voronoi, "_BLOCK", 3 * 4096)
        slabs = w_transform.__wrapped__(2, range(8, 64), w)
        assert np.array_equal(whole, slabs)

    def test_result_is_read_only(self):
        w = SmoothWindow(1e4, 1e3)
        vals = w_transform(5, range(1, 18), w)
        with pytest.raises(ValueError):
            vals[0] = 0.0
        assert w_transform(5, range(1, 18), w) is vals
        assert len(w_transform(5, range(3, 3), w)) == 0

    def test_rejects_bad_ranges(self):
        w = SmoothWindow(1e4, 1e3)
        for q, ns in ((5, range(0, 4)), (5, range(9, 1, -1)), (0, range(1, 4))):
            with pytest.raises(ValueError):
                w_transform(q, ns, w)


class TestSmoothedDelta:
    def test_q1_residual_small(self, d3_table_1e5):
        w = SmoothWindow(x=1e5, Y=1e3)
        val = smoothed_delta_direct(ReducedFraction(0, 1), w, d3_table_1e5)
        assert abs(val) <= (1e5) ** 0.8

    def test_conjugation(self, d3_table_1e4):
        w = SmoothWindow(x=1e4, Y=1e3)
        for q in (3, 5):
            for h in range(1, q):
                a = smoothed_delta_direct(ReducedFraction(h, q), w, d3_table_1e4)
                b = smoothed_delta_direct(ReducedFraction(q - h, q), w, d3_table_1e4)
                assert b == pytest.approx(np.conj(a), rel=1e-9)

    def test_smoothed_vs_sharp(self, d3_table_1e4):
        # |smoothed - sharp| <= C * Y * log^2 x with a modest constant
        from d3lab.variance import delta_all

        w = SmoothWindow(x=1e4, Y=100.0)
        sharp = delta_all(3, 1e4, d3_table_1e4)
        sm = smoothed_delta_direct(ReducedFraction(1, 3), w, d3_table_1e4)
        assert abs(sm - sharp[1]) <= 5 * 100.0 * math.log(1e4) ** 2


class TestDualSum:
    def test_q1_degenerate_is_d3(self):
        # A_{0/1}(n) = sum over triples of R at q=1, i.e. d_3(n)
        from d3lab.expsum import a_sum

        for n in (1, 4, 12):
            assert a_sum(ReducedFraction(0, 1), n).real == pytest.approx(dk_exact(3, n))

    def test_guard(self):
        from d3lab.expsum import GuardError

        w = SmoothWindow(x=1e4, Y=1e3)
        with pytest.raises(GuardError):
            dual_sum_eval(ReducedFraction(1, 23), w)

    def test_magnitude_comparison_single(self, d3_table_1e4):
        w = SmoothWindow(x=1e4, Y=1e3)
        pt = ReducedFraction(1, 2)
        direct = smoothed_delta_direct(pt, w, d3_table_1e4)
        dual, tail = dual_sum_eval(pt, w)
        r = abs(dual) / abs(direct)
        assert 0.1 <= r <= 10.0
