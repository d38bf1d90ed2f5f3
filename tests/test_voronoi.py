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

    def recording_mellin(self, s, nodes_hint):
        mellins.append((np.array(s), nodes_hint))
        return mellin(self, s, nodes_hint)

    monkeypatch.setattr(voronoi, "gamma_ratio_cubed", recording_gamma)
    monkeypatch.setattr(SmoothWindow, "mellin", recording_mellin)
    w_transform.__wrapped__(q, n, window)
    monkeypatch.undo()
    return gammas, mellins


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
        """The first-pass s-nodes of w_hat_10(17783) with the leg on Re s = leg,
        split at |s| = 60 into the foot and the far nodes."""
        monkeypatch.setattr(voronoi, "_LEG", leg)
        gammas, _ = _recorded_nodes(monkeypatch, 10, 17783, SmoothWindow(1e4, 1e2))
        s = gammas[0]
        return s[np.abs(s) < 60], s[np.abs(s) >= 60]

    def test_contour_nodes(self, monkeypatch):
        # the leg on Re s = 0.1, next to the pole at s = 0
        foot, far = self._contour_nodes(monkeypatch, 0.1)
        assert len(foot) == 837
        # scipy.special.loggamma measured rms 2.6e-14, max 1.15e-13 here
        rel = self._rel_errors(foot)
        assert np.sqrt(np.mean(rel**2)) <= 3.5e-14 and rel.max() <= 2e-13
        # scipy: max 3.8e-12 on every 40th far node, as 3 ln Gamma grows like |s| log |s|
        assert self._rel_errors(far[::40]).max() <= 6e-12

    def test_contour_nodes_on_leg(self, monkeypatch):
        # the contour's own leg, Re s = 1/2
        foot, far = self._contour_nodes(monkeypatch, 0.5)
        assert len(foot) == 804
        # scipy.special.loggamma measured rms 2.7e-14, max 1.36e-13 here
        rel = self._rel_errors(foot)
        assert np.sqrt(np.mean(rel**2)) <= 3.5e-14 and rel.max() <= 2e-13
        # scipy: max 4.5e-12 on every 40th far node; this G measured 6.2e-12
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
            # difference is 1.88 times their sum, 2.5e-15 at U(1e6) =
            # -2.9e-4 (2.03 times with G shifted and summed to 22 terms at
            # every node, so the blocks, not the series, move these rows)
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
        # same two passes run and the estimates can be recorded
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
        # the far tail's pass-2 nodes: on the lower ramp they fall into 122
        # cells, 18 slabs of 7 cells, with 3 real and 120 imaginary cell
        # indices, so every row of the three exponential tables is used
        w = SmoothWindow(1e4, 1e2)
        _, [_, (s, hint)] = _recorded_nodes(monkeypatch, 10, 17783, w)
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

    @pytest.mark.parametrize("q, n, x, Y", [(10, 17783, 1e4, 1e2), (5, 17, 1e4, 1e3)])
    def test_w_transform_matches_dense(self, monkeypatch, q, n, x, Y):
        w = SmoothWindow(x=x, Y=Y)
        fast = w_transform.__wrapped__(q, n, w)
        monkeypatch.setattr(SmoothWindow, "mellin", SmoothWindow.mellin_dense)
        dense = w_transform.__wrapped__(q, n, w)
        assert fast == pytest.approx(dense, rel=1e-10)


def _panels_doubled(window: SmoothWindow, rules):
    """Each ramp rule laid out again on twice its equal 32-point panels."""
    for lo, hi, tn, _ in rules:
        t, dt = voronoi._composite_rule(np.linspace(lo, hi, 2 * len(tn) // 32 + 1), 32)
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
        # 12,176 pass-2 nodes: measured 3.3 MB, against 7.3 MB for whole
        # matrices and a (moments, nodes) gather
        w = SmoothWindow(1e4, 1e2)
        _, [_, (s, hint)] = _recorded_nodes(monkeypatch, 10, 17783, w)
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


class TestContourConvergence:
    """With the leg on Re s = 1/2 and its panels graded at the s = 0 pole,
    every U and w-hat quadrature of the benchmark and of criterion 08
    meets rtol at its first refinement."""

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
            assert builds == 2 and np.all(err <= rtol * np.abs(value))

    def test_kernel_stops_at_second_pass(self, passes):
        # the Meijer-G points, 3 per block with X_hi < 8 X_lo
        kernel_U(np.geomspace(0.05, 1e6, 25))
        assert [len(value) for _, value, _, _ in passes] == [3] * 8 + [1]
        self._check(passes, 9)

    def test_benchmark_kernel_builds_14_contours(self, passes):
        # the voronoi workload's kernel command: 8 of its 50 X per block,
        # 2 contours per block
        kernel_U(np.geomspace(1.0, 1e6, 50))
        assert [len(value) for _, value, _, _ in passes] == [8] * 6 + [2]
        self._check(passes, 7)
        assert sum(builds for builds, *_ in passes) == 14

    def test_transform_stops_at_second_pass(self, passes):
        # the voronoi workload's points, and criterion 08's at q = 2, 3,
        # whose sums cancel up to 3e4-fold (a leg at Re s = 0.1, next to
        # the pole, took 3 or 4 passes at 4 of the 8 q = 2 points)
        points = [(10, n, SmoothWindow(1e4, 1e2)) for n in (1, 32, 17783)]
        points += [(q, n, SmoothWindow(1e4, 1e3)) for q, top in ((5, 17), (3, 8), (2, 8))
                   for n in range(1, top + 1)]
        for q, n, w in points:
            w_transform.__wrapped__(q, n, w)
        self._check(passes, len(points))

    def test_transform_blocks_stop_at_second_pass(self, passes):
        # the ranges of the voronoi workload's dual sum (blocks n <= 7 and
        # 8..17) and of criterion 08 at q = 2, 3: a row that misses rtol is
        # one whose change is below its rounding floor
        rtol = voronoi._RTOL
        for q, top in ((5, 17), (3, 8), (2, 8)):
            w_transform.__wrapped__(q, range(1, top + 1), SmoothWindow(1e4, 1e3))
        assert [len(value) for _, value, _, _ in passes] == [7, 10, 7, 1, 7, 1]
        for builds, value, err, floor in passes:
            assert builds == 2 and np.all((err <= rtol * np.abs(value)) | (err <= 2 * floor))

    def test_rounding_floor_stops_refinement(self, passes):
        # w_hat_3(18) = -1.8973e-5 is a sum of terms 1.9e6 times larger, so
        # rounding alone is 2e-9 of it: refining cannot reach rtol = 1e-9
        value = w_transform.__wrapped__(3, 18, SmoothWindow(1e4, 1e3))
        [(builds, _, (err,), _)] = passes
        assert builds == 2 and 1e-9 * abs(value) < err < 1e-8 * abs(value)

    @pytest.fixture
    def unreachable(self, monkeypatch):
        """A tolerance of 1e-17 and one refinement; w_transform.__wrapped__
        bypasses the cache, whose entries were computed at the defaults."""
        monkeypatch.setattr(voronoi, "_RTOL", 1e-17)
        monkeypatch.setattr(voronoi, "_MAX_REFINEMENTS", 1)

    def test_missed_tolerance_raises(self, unreachable):
        # error 8.6e-13 at two passes, nearly all of it the rounding floor
        # of terms whose magnitudes sum to 917 pi: no refinement gets to 1e-17
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
