"""Mellin-Barnes kernel, smooth windows, and the dual-sum transform.

The kernel is

    U(X) = (1/2 pi i) int_{(c)} (Gamma(s/2)/Gamma((1-s)/2))^3 X^{-s} ds,
    0 < c < 1/6,

whose integrand decays only like |t|^{3(c-1/2)} on the vertical line but
oscillates with phase ~ 3t log(t/2) - t log X, stationary at
t* = 2 X^{1/3} (whence the sin/cos(6 X^{1/3}) behaviour).  The Gamma
ratio G(s) has no poles in 0 < Re s < 1, so the contour used here runs
up the line Re s = 1/2, where |G| = 1, to height T = 2e X^{1/3} (through
the stationary point), then turns onto the ray s = 1/2 + iT + (-1+i)u.
The integrand is analytic off the real axis, the swept sector is
pole-free, and on the ray the modulus decays at least like e^{-3u}, so
truncation is certified by the last evaluated magnitudes.  The vertical
panels are graded geometrically toward the triple pole of G at s = 0,
so the first pass is accurate to rounding and a quadrature converges at
its second pass.  Its error estimate is the change under one 1.4x
refinement plus the tail bound and a rounding floor of a few ulps of the
summed term magnitudes; ``QuadratureError`` is raised when that misses
the tolerance _RTOL by more than 100x.  One private driver,
``_contour_integral``, holds the contour, its panels and the pass loop
for every kernel, and evaluates it for an array of scales X at once:
only X^{-s} depends on X, so G(s) and the weight are formed once per
pass, and each scale keeps its own error estimate.  ``kernel_U`` takes an
array of X and shares one contour among the X of each block with
X_hi < 8 X_lo, so a grid of X costs one contour per block, not per X.

The window transform int_0^infty w(t) U(Nt) dt is evaluated on the same
contour after exchanging the absolutely convergent integrals:

    w_hat = (1/2 pi i) int_{(1/2)} G(s) N^{-s} W(s) ds,
    W(s) = int w(t) t^{-s} dt,

where W(s) splits into an exact plateau term and two short smooth ramp
integrals.  Each ramp integral is a composite Gauss-Legendre sum, equal
panels of the 32-point rule, over nodes L_k = log t_k that every contour
node s shares; it is evaluated from Taylor moments of the nodes about the
centres of square cells of s-nodes, built in cache-sized slabs of cells
from three small tables of exponentials, with a truncation error below
float64 rounding (see ``_ramp_sum_moments``).  The dense (s, t)
exponential matrix is retained as the oracle ``SmoothWindow.mellin_dense``,
and a direct t-space quadrature of w(t) U(Nt) as an oracle for moderate
N.  For a range of n, ``w_transform`` shares one contour among the n of
each block with n_hi < 8 n_lo, so the dual sum over n <= n_max costs
about log_8(n_max) contours, not n_max of them.

G(s) is exp(3 (ln Gamma(s/2) - ln Gamma((1-s)/2))) with ln Gamma from
Stirling's series, chosen per node (see ``_log_gamma``): 8 terms at z
itself where |Im z| >= 20 or Re z >= 6 and |z| >= 12, which is nearly
every contour node, and 22 terms after the recurrence has stepped Re z up
to 6 elsewhere.  The coefficients are a table of doubles, so the module
needs numpy alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial  # numpy 2 loads it on first use: load it here, at import

from .arith import ReducedFraction, divisors, euler_phi, mobius
from .expsum import GuardError, a_sum
from .laurent import LaurentExpansion
from .mainterm import restricted_series_laurent

__all__ = [
    "QuadratureError",
    "SmoothWindow",
    "dual_sum_eval",
    "gamma_ratio_cubed",
    "kernel_U",
    "smoothed_delta_direct",
    "w_transform",
    "w_transform_direct",
]


class QuadratureError(ArithmeticError):
    """Requested tolerance was not reached; carries the achieved estimate."""


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for table in rule:
        table.flags.writeable = False
    return rule


def _composite_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on every
    panel between consecutive edges."""
    xg, wg = _leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    return nodes, (half[:, None] * wg[None, :]).ravel()


# ln Gamma(z) is summed by Stirling's series
#
#   (z - 1/2) ln z - z + ln(2 pi)/2 + sum_{k=1}^{K} B_2k / (2k (2k-1) z^{2k-1}),
#
# whose terms fall until k is about pi |z|; the number of terms and the
# recurrence shift are chosen per node.  Where |Im z| >= 20, or Re z >= 6
# and |z| >= 12, which holds at nearly every contour node, K = 8 terms are
# summed at z itself: the first one left out, 0.18 / |z|^17, is 8e-20 at
# |z| = 12 and below 1e-22 at |z| >= 20 (the contour's arguments have
# Re z >= -7, so the sector factor of the remainder stays below 2e4).  Every
# other node is stepped up by ln Gamma(z) = ln Gamma(z + m) - ln(z (z+1) ...
# (z+m-1)) until Re z >= _STIRLING_SHIFT and summed with all 22 terms; the
# first one left out is 1e-17 at |z| = 6 and smaller beyond.  So rounding is
# the error: G(s) agrees with 30-digit values as closely as scipy's loggamma
# does.  The shift product (at most 13 factors on the contour) overflows
# only where G(s) itself leaves the float range.
_STIRLING_SHIFT = 6.0
_STIRLING_FAR_TERMS = 8
# B_2k / (2k (2k-1)) for k = 1..22, from the exact Bernoulli numbers of
# laurent.bernoulli_numbers, which a test checks every entry against
_STIRLING = (
    0.08333333333333333,
    -0.002777777777777778,
    0.0007936507936507937,
    -0.0005952380952380953,
    0.0008417508417508417,
    -0.0019175269175269176,
    0.00641025641025641,
    -0.029550653594771242,
    0.17964437236883057,
    -1.3924322169059011,
    13.402864044168393,
    -156.84828462600203,
    2193.1033333333335,
    -36108.77125372499,
    691472.268851313,
    -15238221.539407415,
    382900751.39141417,
    -10882266035.784391,
    347320283765.00226,
    -12369602142269.275,
    488788064793079.3,
    -2.1320333960919372e+16,
)


def _stirling_series(z: np.ndarray, terms: int) -> np.ndarray:
    """Stirling's series for ln Gamma(z) with its first ``terms`` terms."""
    coef = _STIRLING[:terms]
    inv_sq = 1.0 / (z * z)
    series = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        series *= inv_sq
        series += c
    return (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series / z


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) up to a multiple of 2 pi i, which exp(3 ln Gamma) ignores."""
    far = (np.abs(z.imag) >= 20.0) | ((z.real >= _STIRLING_SHIFT) & (np.abs(z) >= 12.0))
    out = np.empty_like(z)
    out[far] = _stirling_series(z[far], _STIRLING_FAR_TERMS)
    near = z[~far]
    steps = np.ceil(np.maximum(_STIRLING_SHIFT - near.real, 0.0))
    prod = np.ones_like(near)
    for j in range(int(steps.max(initial=0.0))):
        np.multiply(prod, near + j, out=prod, where=steps > j)
    out[~far] = _stirling_series(near + steps, len(_STIRLING)) - np.log(prod)
    return out


def gamma_ratio_cubed(s: complex | np.ndarray) -> complex | np.ndarray:
    """(Gamma(s/2) / Gamma((1-s)/2))^3 from Stirling's series for ln Gamma.

    Scalar calls closer than 1e-8 to a pole s in {0, -2, -4, ...} are
    rejected.
    """
    if np.isscalar(s) or isinstance(s, complex):
        sc = complex(s)
        nearest = -2.0 * max(0, round(-sc.real / 2.0))
        if abs(sc - nearest) < 1e-8:
            raise ValueError(f"s = {sc} is within 1e-8 of a pole of Gamma(s/2)")
        return complex(gamma_ratio_cubed(np.array([sc]))[0])
    s = np.asarray(s, dtype=np.complex128)
    return np.exp(3.0 * (_log_gamma(s / 2.0) - _log_gamma((1.0 - s) / 2.0)))


# The vertical leg runs on Re s = _LEG = 1/2, where |G(s)| = 1; G has no
# poles in 0 < Re s < 1 and N^{-s}, W(s) are entire, so the integral does
# not depend on the leg.  The integrand's nearest singularity is still the
# triple pole of G(s) at s = 0, a distance 1/2 from the foot of the contour,
# and vertical panels are graded toward it: the pole adds _POLE_RATE / |s|
# to the phase rate, so a panel spans at most 4 pi / _POLE_RATE = 1.05
# times |s| at density 1 and the widths grow geometrically away from the
# pole.  For the model integrand s^{-3} at distance c = 1/2 the first pass
# then errs by 1.9e-16 of its magnitude 1/c^2 = 4 (4.5e-8 with the weight
# 3, 2.9e-16 with 10; summed in 30 digits), much as at any other c.
# The leg at 1/2 still needs the grading: without it, U(1) still changes
# by 7e-4 at its fourth pass and raises QuadratureError.  On the ray the
# integrand varies like e^{lambda u} with |lambda| about sqrt(2) (the phase
# rate at T, less 1); 16 nodes on each of _RAY_PANELS panels per unit of u
# integrate that to rounding for |lambda| up to about 35.  The ray ends at
# u = _U_MAX, where the integrand has decayed at least like e^{-3u}, so the
# last node magnitudes / 3 bound the tail.
_LEG = 0.5
_POLE_RATE = 12.0
# Every contour integral targets the relative error _RTOL, turns at height
# at least _T_FLOOR and refines at most _MAX_REFINEMENTS times.  _RTOL is a
# target, not a guarantee: where a sum cancels deeply, refinement stops
# once the change between passes is below its rounding floor, and a value
# may miss _RTOL by up to 100x before QuadratureError is raised.  The
# functions read these at call time, so a test may monkeypatch them; it
# must then call w_transform.__wrapped__ or clear w_transform's cache,
# whose entries do not record the constants they were computed under.
_RTOL = 1e-9
_T_FLOOR = 40.0
_MAX_REFINEMENTS = 3
_RAY_PANELS = 2.0
_U_MAX = 14.0
_NODES_PER_OSC = 8.0
_ORDER = 16
# A pass's sum is no closer than a few ulps of its summed term magnitudes:
# w_hat_2(5) and w_hat_3(18) at (x, Y) = (1e4, 1e3) cancel 2e3- and 2e6-fold,
# and their changes between passes 2 to 5 are 0.1 to 1.1 times this floor.
_ROUNDING_ULPS = 4.0


def _vertical_panels(T: float, log_lo: float, log_hi: float, density: float):
    """Panel edges on [0, T] sized so each panel spans a bounded phase,
    graded geometrically toward the pole at s = 0.  The phase rate of
    G(s) Z^{-s} is |3 log(t/2) - log Z| + O(1) for every Z in [lo, hi]."""
    edges = [0.0]
    t = 0.0
    max_phase = 2.0 * math.pi * _ORDER / (_NODES_PER_OSC * density)
    while t < T:
        g = 3.0 * math.log(max(t, 2.0) / 2.0)
        rate = max(abs(g - log_lo), abs(g - log_hi)) + 1.0 + _POLE_RATE / math.hypot(_LEG, t)
        t = min(T, t + max(max_phase / rate, T * 1e-6))
        edges.append(t)
    return np.array(edges)


def _contour_nodes(T: float, log_lo: float, log_hi: float, density: float):
    """Gauss-Legendre nodes and complex ds-weights for the contour.

    Vertical part: s = 1/2 + it, t in [0, T], ds = i dt.
    Diagonal part: s = 1/2 + iT + (-1 + i)u, u in [0, _U_MAX], ds = (-1+i) du.
    """
    t_nodes, t_weights = _composite_rule(_vertical_panels(T, log_lo, log_hi, density), _ORDER)
    n_diag = math.ceil(_RAY_PANELS * _U_MAX * density)
    u_nodes, u_weights = _composite_rule(np.linspace(0.0, _U_MAX, n_diag + 1), _ORDER)
    s = np.concatenate([_LEG + 1j * t_nodes, _LEG + 1j * T + (-1.0 + 1j) * u_nodes])
    return s, np.concatenate([1j * t_weights, (-1.0 + 1j) * u_weights])


def _contour_integral(scales, lo: float, hi: float, weight=None,
                      label=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/2 pi i) int G(s) X^{-s} weight(s) ds for every scale X in
    ``scales``, with error estimates and rounding floors, one array each.

    The weight is 1 or W(s) for a window supported on [lo, hi] in units of
    X^{-1}, for every X; ``weight(s, nodes_hint)`` is called once per pass,
    and so is G(s).  The turn height T = max(_T_FLOOR, 2e hi^{1/3}) passes
    the stationary point of every phase, and the panels resolve the phase
    rates of scales in [lo, hi].  The full line integral is 2i Im of the
    upper path by conjugate symmetry of the integrand, so each value is
    Im(int_upper)/pi.
    Each error estimate is the change under a 1.4x node-density
    refinement, plus the tail bound and a rounding floor of _ROUNDING_ULPS
    ulps of the summed term magnitudes.  Refinement stops when every scale
    meets the tolerance _RTOL |value| + 1e-15 or has a change below its
    floor, where no refinement can help; QuadratureError is raised, naming
    ``label(i)`` of the worst scale i (by default X itself), if an error
    then exceeds 100x its tolerance.
    """
    log_scales = np.array([math.log(x) for x in scales])
    log_lo, log_hi = math.log(lo), math.log(hi)
    T = max(_T_FLOOR, 2.0 * math.e * hi ** (1.0 / 3.0))
    hint = T + _U_MAX * 1.05
    err = floor = np.full(len(log_scales), math.inf)
    prev, density = None, 1.0
    for _ in range(_MAX_REFINEMENTS + 1):
        s, w = _contour_nodes(T, log_lo, log_hi, density)
        result, mass, tail = _contour_rows(
            s, w, gamma_ratio_cubed(s), None if weight is None else weight(s, hint), log_scales)
        if prev is not None:
            change = np.abs(result - prev) + tail / 3.0
            floor = _ROUNDING_ULPS * np.finfo(float).eps * mass / math.pi
            err = change + floor
            if np.all((err <= _RTOL * np.abs(result) + 1e-15) | (change <= floor)):
                break
        prev, density = result, density * 1.4
    excess = err / (100 * (_RTOL * np.abs(result) + 1e-15))
    worst = int(np.argmax(excess))
    if excess[worst] > 1.0:
        where = label(worst) if label else f"X = {scales[worst]:g}"
        raise QuadratureError(
            f"tolerance {_RTOL} not reached at {where}; estimate {err[worst]:g}")
    return result, err, floor


def _contour_rows(s, w, g, weights, log_scales):
    """For each scale L = log X, with v_k = g_k e^{-s_k L} weights_k: the
    value Im(sum_k w_k v_k)/pi, the term mass sum_k |w_k v_k| and the tail
    magnitude max |v_k| over the last panel.  The rows e^{-s L} are formed
    in slabs of at most _BLOCK complex entries (whole rows, so a row's sums
    do not depend on the slab it falls in)."""
    out = np.empty((3, len(log_scales)))
    rows = max(1, _BLOCK // len(s))
    for i in range(0, len(log_scales), rows):
        vals = np.multiply(-s, log_scales[i : i + rows, None])
        np.exp(vals, out=vals)
        # g and w stay the left operands: numpy's complex product (fused
        # multiply-adds) is not commutative to the last bit
        np.multiply(g, vals, out=vals)
        if weights is not None:
            vals *= weights
        out[2, i : i + rows] = np.abs(vals[:, -_ORDER:]).max(axis=1)
        np.multiply(w, vals, out=vals)
        out[0, i : i + rows] = vals.sum(axis=1).imag / math.pi
        out[1, i : i + rows] = np.abs(vals).sum(axis=1)
    return out


def _blocks(values):
    """(start, stop) index pairs that split an ascending sequence into
    blocks of consecutive values with hi < 8 lo; each block shares one
    contour, resolved for every scale of the block."""
    i = 0
    while i < len(values):
        j = bisect.bisect_left(values, 8 * values[i], lo=i)
        yield i, j
        i = j


def kernel_U(X: float | np.ndarray) -> float | np.ndarray:
    """U(X) by contour quadrature, for one X or an array of X (a float, or
    an array of the same shape); real by conjugate symmetry.

    The distinct X are sorted and split into blocks with X_hi < 8 X_lo,
    and each block shares one contour and one G(s) per pass; each X keeps
    its own error estimate and tolerance check, and ``QuadratureError``
    names the worst X of a block.  Any order and repeated X are accepted.
    The relative error target is _RTOL = 1e-9; under deep cancellation a
    value may meet only the rounding floor, within 100x of _RTOL, without
    raising."""
    xs = np.asarray(X, dtype=float)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("X must be positive and finite")
    distinct, where = np.unique(xs, return_inverse=True)
    grid = distinct.tolist()
    out = np.empty(len(grid))
    for i, j in _blocks(grid):
        out[i:j] = _contour_integral(grid[i:j], grid[i], grid[j - 1])[0]
    return float(out[0]) if xs.ndim == 0 else out[where].reshape(xs.shape)


# ---------------------------------------------------------------------------
# smooth window and its Mellin transform
# ---------------------------------------------------------------------------


def _ramp_value(v: np.ndarray) -> np.ndarray:
    """r(v) = f(v)/(f(v)+f(1-v)), f(v) = exp(-1/v); exact 0/1 past the cuts."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    out[v >= 1.0] = 1.0
    inside = (v > 0.0) & (v < 1.0)
    vi = v[inside]
    with np.errstate(over="ignore"):
        f1 = np.exp(-1.0 / vi)
        f2 = np.exp(-1.0 / (1.0 - vi))
    out[inside] = f1 / (f1 + f2)
    return out


# A ramp sum F(s) = sum_k wn_k e^{-s L_k} over the Gauss nodes L_k = log t_k
# of [lo, hi].  With m the midpoint of [log lo, log hi], d_k = L_k - m and
# h = log(hi/lo)/2 >= |d_k|, every s within rho/h of a cell centre s0 has
#
#   F(s) = e^{-s m} (sum_{j<J} M_j(s0) (s0 - s)^j + R),
#   M_j(s0) = sum_k wn_k e^{-s0 d_k} d_k^j / j!,
#   |R| <= sum_k |wn_k e^{-s0 d_k}| (rho^J / J!) / (1 - rho/(J+1)),
#
# and rho = 2, J = 26 make the factor 1.8e-19, below float64 rounding.
# The centres lie on the grid s0 = side (a + r0 + i (b + i0)), so with
# b = 16 u + v each e^{-s0 d_k} is a product of three table entries:
# e^{-side (a + r0) d_k} (one real row per a), e^{-i side (v + i0) d_k} (16
# rows) and e^{-16 i side u d_k} (one row per u).  The moments are formed
# in slabs of _MOMENT_SLAB entries, a few cells at a time, so no
# (cells, t-nodes) or (J, s-nodes) matrix is built.
_MOMENT_RADIUS = 2.0
_MOMENT_TERMS = 26
_MOMENT_SLAB = 1 << 13  # complex entries (128 KB) per slab of cells x t-nodes
_BLOCK = 1 << 16  # complex entries (1 MB) per slab of an (s, t) or (scale, s) matrix
# Ramp rules are composite: equal panels of this many Gauss nodes.  With
# 16-point panels the 48-node floor of the short upper ramp is 3 panels,
# and W(s) at the contour nodes of w_hat_5(17) errs by up to 4e-8
# relative; with 32 by 9e-12, which is rounding.
_RAMP_ORDER = 32


def _ramp_sum_dense(s, logt, wn, log_lo, log_hi) -> np.ndarray:
    """F(s) as chunked products of the dense matrix e^{-s L_k}."""
    out = np.empty(len(s), dtype=np.complex128)
    chunk = max(1, _BLOCK // len(logt))
    for i in range(0, len(s), chunk):
        out[i : i + chunk] = np.exp(-np.outer(s[i : i + chunk], logt)) @ wn
    return out


def _ramp_sum_moments(s, logt, wn, log_lo, log_hi) -> np.ndarray:
    """F(s) by Taylor moments about the centres s0 of square cells whose
    half-diagonal is rho/h; see the expansion above."""
    m = 0.5 * (log_lo + log_hi)
    h = 0.5 * (log_hi - log_lo)
    d = logt - m
    side = math.sqrt(2.0) * _MOMENT_RADIUS / h
    gr, gi = np.rint(s.real / side), np.rint(s.imag / side)
    r0, i0 = gr.min(), gi.min()
    width = int(gi.max() - i0) + 1
    key = (gr - r0).astype(np.int64) * width + (gi - i0).astype(np.int64)
    keys, cell = np.unique(key, return_inverse=True)
    a, b = np.divmod(keys, width)
    s0 = side * ((a + r0) + 1j * (b + i0))
    # the three tables of e^{-s0 d}; see the expansion above
    u, v = np.divmod(b, 16)
    real_rows = np.exp(np.multiply.outer(-side * (np.arange(a.max() + 1) + r0), d)) * wn
    fine = np.exp(np.multiply.outer(-1j * side * (np.arange(16) + i0), d))
    coarse = np.exp(np.multiply.outer(-16j * side * np.arange(u.max() + 1), d))
    # powers[k, j] = d_k^j / j!, complex so that no slab's product casts it
    steps = np.empty((len(d), _MOMENT_TERMS))
    steps[:, 0] = 1.0
    steps[:, 1:] = d[:, None] / np.arange(1, _MOMENT_TERMS)
    powers = np.cumprod(steps, axis=1).astype(np.complex128)
    moments = np.empty((_MOMENT_TERMS, len(keys)), dtype=np.complex128)
    rows = max(1, _MOMENT_SLAB // len(d))
    slab = np.empty((rows, len(d)), dtype=np.complex128)
    for i in range(0, len(keys), rows):
        c = slice(i, i + rows)
        e = slab[: len(a[c])]
        np.multiply(real_rows[a[c]], fine[v[c]], out=e)
        e *= coarse[u[c]]
        moments[:, c] = (e @ powers).T
    z = s0[cell] - s
    acc = moments[-1].take(cell)
    tmp = np.empty_like(acc)
    for j in range(_MOMENT_TERMS - 2, -1, -1):
        acc *= z
        acc += moments[j].take(cell, out=tmp)
    return np.exp(-s * m) * acc


@dataclass(frozen=True)
class SmoothWindow:
    """C-infinity cutoff: 0 on [0,Y], 1 on [2Y, x-Y], 0 on [x, inf).

    Ramps are the standard exp(-1/u) partition-of-unity quotient, so the
    knot values are exact and every derivative scales like Y^{-j}.
    """

    x: float
    Y: float

    def __post_init__(self):
        if self.Y < 1.0 or 3.0 * self.Y > self.x:
            raise ValueError("window geometry requires 1 <= Y and 3Y <= x")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        plateau = (t >= 2.0 * self.Y) & (t <= self.x - self.Y)
        out[plateau] = 1.0
        up = (t > self.Y) & (t < 2.0 * self.Y)
        out[up] = _ramp_value((t[up] - self.Y) / self.Y)
        down = (t > self.x - self.Y) & (t < self.x)
        out[down] = _ramp_value((self.x - t[down]) / self.Y)
        return out if out.ndim else float(out)

    # -- integral transforms ------------------------------------------------

    def mellin(self, s: np.ndarray, nodes_hint: float) -> np.ndarray:
        """W(s) = int w(t) t^{-s} dt, vectorized over s.

        Exact plateau antiderivative plus composite Gauss-Legendre ramps; the
        ramp node counts resolve |Im s| up to the required nodes_hint.  Each
        ramp sum F(s) = sum_k wn_k e^{-s L_k}, L_k = log t_k, is expanded
        about the centre s0 of a square cell of s-nodes as
        e^{-s m} sum_{j<J} M_j(s0) (s0 - s)^j with moments
        M_j(s0) = sum_k wn_k e^{-s0 d_k} d_k^j / j!, d_k = L_k - m, and
        summed by Horner.  The moments are built a few cells at a time, in
        128 KB slabs, and e^{-s0 d_k} is the product of a real row per
        Re s0 and two rows of phases, so a t-node costs about
        (real cell indices + 16 + imaginary ones / 16) exponentials, not
        one per cell.  With cells of radius rho/h, h = max |d_k|, the
        truncation is at most |e^{-s m}| sum_k |wn_k e^{-s0 d_k}| times
        1.8e-19 (rho = 2, J = 26), so the result is the same discrete sum
        as the dense oracle ``mellin_dense`` to rounding.
        """
        return self._mellin(s, nodes_hint, _ramp_sum_moments)

    def mellin_dense(self, s: np.ndarray, nodes_hint: float) -> np.ndarray:
        """Oracle for ``mellin``: the same plateau and ramp rules at the same
        nodes_hint, with each ramp sum a dense (s, t) matrix of exponentials."""
        return self._mellin(s, nodes_hint, _ramp_sum_dense)

    def _mellin(self, s, nodes_hint, ramp_sum) -> np.ndarray:
        s = np.atleast_1d(s)
        one_minus_s = 1.0 - s
        plateau = ((self.x - self.Y) ** one_minus_s - (2.0 * self.Y) ** one_minus_s) / one_minus_s
        out = plateau.astype(np.complex128)
        for lo, hi, tn, wn in self._ramp_rules(nodes_hint):
            out += ramp_sum(s, np.log(tn), wn, math.log(lo), math.log(hi))
        return out

    def _ramp_rules(self, tmax: float):
        """(lo, hi, nodes t_k, weights wn_k = w(t_k) dt_k) of the composite
        Gauss-Legendre rule on each ramp, resolving t^{-s} up to |Im s| = tmax:
        n = max(48, 10 osc) nodes for osc oscillations, laid out as
        ceil(n / 32) equal panels of the 32-point rule."""
        for lo, hi in ((self.Y, 2.0 * self.Y), (self.x - self.Y, self.x)):
            osc = tmax * abs(math.log(hi / lo)) / (2.0 * math.pi)
            panels = math.ceil(max(48, 10 * osc) / _RAMP_ORDER)
            tn, dt = _composite_rule(np.linspace(lo, hi, panels + 1), _RAMP_ORDER)
            yield lo, hi, tn, dt * self(tn)

    def log_moments(self) -> list[float]:
        """m_j = int w(t) log^j t dt for j = 0..3.

        Plateau part via the exact antiderivative of log^j, ramps by
        64-point Gauss-Legendre (smooth, non-oscillatory).
        """

        def antideriv(j: int, t: float) -> float:
            # int log^j t dt = t * sum_{i<=j} (-1)^(j-i) j!/i! log^i t
            return t * math.fsum(
                (-1.0) ** (j - i) * math.factorial(j) / math.factorial(i) * math.log(t) ** i
                for i in range(j + 1)
            )

        xg, wg = _leggauss(64)
        out = []
        for j in range(4):
            val = antideriv(j, self.x - self.Y) - antideriv(j, 2.0 * self.Y)
            for lo, hi in ((self.Y, 2.0 * self.Y), (self.x - self.Y, self.x)):
                tn = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
                val += float(np.sum(0.5 * (hi - lo) * wg * self(tn) * np.log(tn) ** j))
            out.append(val)
        return out


# ---------------------------------------------------------------------------
# the transform w_hat_q(n) and the dual sum
# ---------------------------------------------------------------------------


@lru_cache(maxsize=200_000)
def w_transform(q: int, n: int | range, window: SmoothWindow) -> float | np.ndarray:
    """w_hat_q(n) = int w(t) U(N t) dt with N = pi^3 n / q^3, for one n or
    for every n of an ascending range (a read-only array).

    Evaluated as the contour integral of G(s) N^{-s} W(s): identical to
    quadrature of w(t) U(Nt) sampled at Gauss nodes after the two
    absolutely convergent integrals are exchanged, but every s-node's
    t-integral is the exact plateau term plus short ramp quadratures.  A
    range is split into blocks with n_hi < 8 n_lo, and each block shares
    one contour, resolved for every N of the block, and one G(s) W(s) per
    pass; each n keeps its own error estimate and tolerance check, and
    ``QuadratureError`` names the worst n of a block.  The relative error
    target is _RTOL = 1e-9; under deep cancellation a value may meet only
    the rounding floor, within 100x of _RTOL, without raising.  Values are
    cached per (q, n, window), a range as one entry.
    """
    ns = n if isinstance(n, range) else range(n, n + 1)
    if q < 1 or ns.step < 1 or (ns and ns[0] < 1):
        raise ValueError("need q >= 1 and n >= 1, a range ascending")
    out = np.empty(len(ns))
    for i, j in _blocks(ns):
        block = ns[i:j]
        N = [math.pi**3 * m / q**3 for m in block]
        out[i:j] = _contour_integral(
            N, N[0] * window.Y, N[-1] * window.x, window.mellin,
            lambda k: f"n = {block[k]}")[0]
    if not isinstance(n, range):
        return float(out[0])
    out.flags.writeable = False
    return out


def w_transform_direct(q: int, n: int, window: SmoothWindow) -> float:
    """Oracle: direct t-space quadrature of w(t) U(Nt), 16-point panels
    sized to 14 nodes per oscillation of the kernel phase 6 (Nt)^{1/3},
    with one ``kernel_U`` call per panel.  Cost grows like (N x)^{1/3}
    kernel evaluations; intended for moderate N cross-checks only."""
    N = math.pi**3 * n / q**3
    xg, wg = _leggauss(16)
    total = 0.0
    t = window.Y
    while t < window.x:
        theta_rate = 2.0 * N ** (1.0 / 3.0) * t ** (-2.0 / 3.0)
        width = min(
            (2.0 * math.pi / max(theta_rate, 1e-12)) * 16.0 / 14.0,
            (window.x - window.Y) / 8.0,
        )
        hi = min(window.x, t + width)
        tn = 0.5 * (hi + t) + 0.5 * (hi - t) * xg
        vals = kernel_U(N * tn)
        total += float(np.sum(0.5 * (hi - t) * wg * window(tn) * vals))
        t = hi
    return total


def smoothed_delta_direct(
    point: ReducedFraction, window: SmoothWindow, table
) -> complex:
    """Window-smoothed exponential-sum error at a reduced point h/q:

    sum_n d_3(n) e(nh/q) w(n) minus the smoothed main term, where the
    main term pairs the Mellin moments of w (Laurent-expanded around
    s = 1) with the same Moebius-weighted polar data used by
    mainterm_expsum.
    """
    h, q = point.h, point.q
    xmax = int(window.x)
    if table.limit < xmax:
        raise ValueError("divisor table too short for the window support")
    n = np.arange(1, xmax + 1)
    wn = window(n.astype(float))
    weighted = table.values[1 : xmax + 1] * wn
    residues = np.bincount(n % q, weights=weighted, minlength=q)
    phases = np.exp(2j * np.pi * h * np.arange(q) / q)
    sum_part = complex(np.dot(residues, phases))

    m = window.log_moments()
    mellin_exp = LaurentExpansion(0, tuple(m[j] / math.factorial(j) for j in range(4)))

    main = 0.0
    for delta in divisors(q):
        mu = mobius(q // delta)
        if mu:  # a class with mu = 0 adds an exact zero
            D = restricted_series_laurent(q, delta, 3)
            main += mu / euler_phi(q // delta) * D.product_coeff(mellin_exp, -1)
    return sum_part - main


_DUAL_Q_GUARD = 20  # n_max grows like q^3.3: a larger q raises GuardError


def dual_sum_eval(
    point: ReducedFraction,
    window: SmoothWindow,
    n_max: int | None = None,
) -> tuple[complex, float]:
    """Leading dual-sum term (pi^{3/2}/q^3) sum_{n <= n_max} A_{h/q}(n) w_hat_q(n).

    n_max defaults to the decay cutoff (x^2 q^3 / Y^3)^{1.1}.  The
    transforms come from one ``w_transform`` call on range(1, n_max + 1),
    a few shared contours that every h of one q reads from the cache.
    Returns (value, tail_estimate) where the tail estimate is the
    magnitude of the last quarter of the range; the transform decays
    superpolynomially past the cutoff, so this dominates the true
    remainder.  The similar dual terms of the underlying summation formula
    are not synthesized: callers compare magnitudes only.
    """
    q = point.q
    if q > _DUAL_Q_GUARD:
        raise GuardError(f"q={q} exceeds dual-sum guard {_DUAL_Q_GUARD}")
    if n_max is None:
        cutoff = (window.x**2 * q**3 / window.Y**3) ** 1.1
        n_max = max(8, math.ceil(cutoff))
    pref = math.pi ** 1.5 / q**3
    w_hat = w_transform(q, range(1, n_max + 1), window).tolist()
    total = 0j
    tail = 0.0
    for n, w in enumerate(w_hat, start=1):
        term = a_sum(point, n) * w
        total += term
        if n > 0.75 * n_max:
            tail += abs(term)
    return pref * total, pref * tail
