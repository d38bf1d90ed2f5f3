"""Residue main terms for d_k(n) in arithmetic progressions.

The gcd-restricted Dirichlet series

    D_{q,delta}(s) = sum_{n >= 1, (n,q) = delta} d_k(n) / n^s

factors as delta^{-s} * zeta(s)^k * prod_{p|q} (1 - p^{-s})^k times a
finite product of local factors, all analytic at s = 1.  The class main
term is

    M_x(q, a) = (x / phi(q/delta)) * Res_{s=1} { D_{q,delta}(s) x^{s-1} / s },

with delta = gcd(q, a), computed by Laurent algebra.  The exponential-sum
main term f attached to a reduced point h/q is the Fourier pairing of the
class main terms; for a reduced numerator the Ramanujan weights collapse
to Moebius values, so f depends on q alone:

    f_q(x) = sum_{delta | q} mu(q/delta) * M_x-class(q, delta).

This pairing is what makes the Parseval identity between progression
errors and exponential-sum errors hold exactly.

An independent residue path integrates D(s) x^s / s around |s-1| = 1/4
with the local factors evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import divisors, euler_phi, factorize, mobius
from .laurent import STIELTJES_J_MAX, LaurentExpansion, zeta_near_1, zeta_power_laurent

__all__ = [
    "MainTermPoly",
    "class_main_term",
    "mainterm_expsum",
    "mainterm_poly",
    "mainterm_progression",
    "residue_by_contour",
    "restricted_series_eval",
    "restricted_series_laurent",
    "x_power_over_s",
]

# highest degree kept: the principal part, degrees -k..-1, is all that the
# residue against x^{s-1}/s (or any series analytic at s = 1) reads
LAURENT_ORDER = -1
# zeta_power_laurent(k, LAURENT_ORDER + 1) reads gamma_j for j up to
# LAURENT_ORDER + 2k - 1, so the tabulated constants give main terms for
# 1 <= k <= K_MAX
K_MAX = (STIELTJES_J_MAX - LAURENT_ORDER + 1) // 2


@dataclass(frozen=True)
class MainTermPoly:
    """Main term as x * (A2 log^2 x + A1 log x + A0) for one gcd class."""

    q: int
    delta: int
    a2: float
    a1: float
    a0: float

    def __call__(self, x: float) -> float:
        L = math.log(x)
        return x * (self.a2 * L * L + self.a1 * L + self.a0)

    def as_record(self) -> dict:
        return {"q": self.q, "delta": self.delta, "A2": self.a2, "A1": self.a1, "A0": self.a0}


def _dk_prime_power(k: int, e: int) -> int:
    return math.comb(e + k - 1, k - 1)


def _local_numerator(k: int, d: int) -> list[int]:
    """Coefficients of (1-t)^k * sum_{j>=0} d_k(p^{d+j}) t^j; degree <= k-1."""
    coeffs = []
    for m in range(k):
        acc = 0
        for i in range(0, min(m, k) + 1):
            acc += (-1) ** i * math.comb(k, i) * _dk_prime_power(k, d + m - i)
        coeffs.append(acc)
    return coeffs


def _p_minus_s(p: int, n: int) -> LaurentExpansion:
    """p^{-s} = (1/p) exp(-log p * (s-1)) to degree n."""
    return LaurentExpansion.from_exp(-math.log(p), n).scale(1.0 / p)


@lru_cache(maxsize=4096)
def _one_minus_p_s_k(p: int, k: int, n: int) -> LaurentExpansion:
    """(1 - p^{-s})^k to degree n, the factor every p | q contributes."""
    t = _p_minus_s(p, n)
    base = LaurentExpansion.constant(1.0, t.hi) - t
    out = base
    for _ in range(k - 1):
        out = out * base
    return out


@lru_cache(maxsize=4096)
def _top_class_factor(p: int, e: int, k: int, n: int) -> tuple[LaurentExpansion, LaurentExpansion]:
    """Numerator of sum_j d_k(p^{e+j}) p^{-js} over (1 - p^{-s})^k, and the
    inverse of (1 - p^{-s})^k: the extra factors of p when p^e || q and
    p^e | delta."""
    numer = _p_minus_s(p, n).poly_apply(_local_numerator(k, e))
    return numer, _one_minus_p_s_k(p, k, n).inverse()


@lru_cache(maxsize=4096)
def restricted_series_laurent(
    q: int, delta: int, k: int = 3, hi: int = LAURENT_ORDER
) -> LaurentExpansion:
    """Laurent expansion of D_{q,delta}(s) around s = 1 (pole order <= k),
    through degree hi: by default the principal part only.

    The series is a fold: zeta^k, then delta^{-s}, then one step per p | q
    that depends on (p, e_delta(p), whether e_delta(p) = e_q(p)) alone,
    so D_{2,1}, D_{4,1} and D_{8,1} are one fold.  _series_prefix shares
    the prefixes, each the same product of the same operands, whatever
    (q, delta) meets it first.  Coefficient m of every product, inverse
    and polynomial depends only on the operands' coefficients <= m, so a
    smaller hi gives the same bits in the degrees it keeps.
    """
    if q < 1 or delta < 1 or q % delta != 0:
        raise ValueError(f"delta = {delta} must divide q = {q}")
    e_delta = dict(factorize(delta))
    steps = []
    for p, e_q in factorize(q):
        e_d = e_delta.get(p, 0)
        steps.append((p, e_d, e_d == e_q))
    out = _series_prefix(k, hi, delta, tuple(steps))
    if out.hi < hi:
        raise AssertionError("truncation bookkeeping lost required orders")
    return LaurentExpansion(out.lo, out.coeffs[: hi - out.lo + 1])


@lru_cache(maxsize=4096)
def _series_prefix(k: int, hi: int, delta: int, steps: tuple) -> LaurentExpansion:
    """zeta^k delta^{-s} times the local factors of steps, in their order:
    (p, e, top) is (1 - p^{-s})^k times d_k(p^e) when not top, and times
    sum_j d_k(p^{e+j}) p^{-js} over (1 - p^{-s})^k when p^e || q too."""
    n = hi + k  # the analytic factors' degree: hi against a pole of order k
    if not steps:
        out = zeta_power_laurent(k, hi + 1)
        return out * LaurentExpansion.from_exp(-math.log(delta), n).scale(1.0 / delta)
    p, e_d, top = steps[-1]
    out = _series_prefix(k, hi, delta, steps[:-1]) * _one_minus_p_s_k(p, k, n)
    if not top:
        return out.scale(float(_dk_prime_power(k, e_d)))
    numer, inverse = _top_class_factor(p, e_d, k, n)
    return out * numer * inverse


def restricted_series_eval(q: int, delta: int, s: complex, k: int = 3) -> complex:
    """D_{q,delta}(s) at a point s != 1, by direct local-factor products.

    zeta comes from the same Laurent data (valid for |s-1| <= ~1.5); all
    local factors are evaluated exactly.  Independent of the truncated
    expansion path, which it cross-checks.
    """
    if q % delta != 0:
        raise ValueError(f"delta = {delta} must divide q = {q}")
    z = zeta_near_1(s)
    val = z**k * delta ** (-s)
    e_delta = dict(factorize(delta))
    for p, e_q in factorize(q):
        e_d = e_delta.get(p, 0)
        t = p ** (-s)
        val *= (1 - t) ** k
        if e_d < e_q:
            val *= _dk_prime_power(k, e_d)
        else:
            numer = sum(c * t**m for m, c in enumerate(_local_numerator(k, e_d)))
            val *= numer / (1 - t) ** k
    return val


@lru_cache(maxsize=1024)
def x_power_over_s(x: float, hi: int) -> LaurentExpansion:
    """Expansion of x^{s-1}/s around s = 1."""
    return LaurentExpansion.from_exp(math.log(x), hi) * LaurentExpansion.geometric_one_over_s(hi)


@lru_cache(maxsize=65536)
def class_main_term(q: int, delta: int, x: float, k: int = 3) -> float:
    """(x/phi(q/delta)) * Res_{s=1} D_{q,delta}(s) x^{s-1}/s."""
    D = restricted_series_laurent(q, delta, k)
    res = D.product_coeff(x_power_over_s(x, LAURENT_ORDER + k), -1)
    return x * res / euler_phi(q // delta)


def mainterm_progression(q: int, a: int, x: float, k: int = 3) -> float:
    """Main term for sum_{n <= x, n = a mod q} d_k(n)."""
    if not 1 <= a <= q:
        raise ValueError("need 1 <= a <= q")
    if x < 2:
        raise ValueError("x must be >= 2")
    return class_main_term(q, math.gcd(q, a), float(x), k)


def mainterm_poly(q: int, a: int, k: int = 3) -> MainTermPoly:
    """The k = 3 main term as the explicit polynomial in log x.

    Res{D x^{s-1}/s} = d_{-3}(L^2/2 - L + 1) + d_{-2}(L - 1) + d_{-1},
    L = log x, so the three polynomial coefficients read off the three
    polar coefficients of D.
    """
    if k != 3:
        raise ValueError("polynomial form is exposed for k = 3 only")
    delta = math.gcd(q, a)
    D = restricted_series_laurent(q, delta, k)
    phi = euler_phi(q // delta)
    d3c, d2c, d1c = D.coeff(-3), D.coeff(-2), D.coeff(-1)
    return MainTermPoly(
        q=q,
        delta=delta,
        a2=d3c / 2.0 / phi,
        a1=(d2c - d3c) / phi,
        a0=(d3c - d2c + d1c) / phi,
    )


@lru_cache(maxsize=65536)
def mainterm_expsum(q: int, x: float, k: int = 3) -> float:
    """Fourier-paired main term of the exponential sum at any reduced h/q.

    f = sum_{delta | q} c_{q/delta}(h) * M-class(q, delta); reduced h
    gives c_{q/delta}(h) = mu(q/delta), so the value depends only on q.
    Classes with mu(q/delta) = 0 add an exact zero and are skipped.
    """
    return math.fsum(
        mu * class_main_term(q, delta, float(x), k)
        for delta in divisors(q)
        if (mu := mobius(q // delta))
    )


def residue_by_contour(q: int, delta: int, x: float, k: int = 3) -> float:
    """Res_{s=1} D_{q,delta}(s) x^s / s by trapezoidal contour quadrature.

    The integrand is evaluated at 512 nodes on |s-1| = 1/4 from the direct
    local-factor product; periodic trapezoid converges spectrally.
    Cross-checks the Laurent residue path (note the x^s here versus
    x^{s-1} in the class main term).
    """
    theta = 2.0 * np.pi * (np.arange(512) + 0.5) / 512
    s = 1.0 + 0.25 * np.exp(1j * theta)
    vals = np.array([restricted_series_eval(q, delta, sv, k) for sv in s])
    integrand = vals * np.power(x, s) / s
    # (1/2pi i) * integral = mean of integrand * (s - 1)
    return float(np.mean(integrand * (s - 1.0)).real)
