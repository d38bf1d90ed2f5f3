"""Truncated Laurent expansions around s = 1 and Stieltjes constants.

A LaurentExpansion stores coefficients of sum c_j * u^j, u = s - 1, for
degrees lo..hi.  hi is the knowledge horizon: adding or multiplying two
expansions produces the largest range on which the result is fully
determined by the operands, so truncation never silently corrupts a
coefficient.

The zeta expansion is built from a table of the Stieltjes constants
gamma_0..gamma_15; the tests derive every entry again by Euler-Maclaurin
summation in 40-digit arithmetic and check it against mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "LaurentExpansion",
    "bernoulli_numbers",
    "stieltjes_constants",
    "zeta_laurent",
    "zeta_near_1",
    "zeta_power_laurent",
]


@dataclass(frozen=True)
class LaurentExpansion:
    """Coefficients c_lo..c_hi of sum c_j (s-1)^j."""

    lo: int
    coeffs: tuple[float, ...]

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @property
    def pole_order(self) -> int:
        for j, c in enumerate(self.coeffs):
            if c != 0.0:
                return max(0, -(self.lo + j))
        return 0

    def coeff(self, degree: int) -> float:
        if degree > self.hi:
            raise ValueError(f"degree {degree} beyond truncation {self.hi}")
        if degree < self.lo:
            return 0.0
        return self.coeffs[degree - self.lo]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentExpansion") -> "LaurentExpansion":
        lo = min(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        coeffs = [self.coeff(d) + other.coeff(d) for d in range(lo, hi + 1)]
        return LaurentExpansion(lo, tuple(coeffs))

    def __sub__(self, other: "LaurentExpansion") -> "LaurentExpansion":
        return self + other.scale(-1.0)

    def __mul__(self, other: "LaurentExpansion") -> "LaurentExpansion":
        # degree lo + m is the fsum of a[i] * b[m - i], i = 0..m; the horizon
        # is the shorter operand's, so every index stays in range
        a, b = self.coeffs, other.coeffs
        coeffs = tuple(
            math.fsum([a[i] * b[m - i] for i in range(m + 1)])
            for m in range(min(len(a), len(b)))
        )
        return LaurentExpansion(self.lo + other.lo, coeffs)

    def product_coeff(self, other: "LaurentExpansion", degree: int) -> float:
        """Coefficient of (s-1)^degree in self * other, without forming the
        other degrees; the same fsum as __mul__, so bit-identical to
        (self * other).coeff(degree)."""
        m = degree - self.lo - other.lo
        a, b = self.coeffs, other.coeffs
        if m >= min(len(a), len(b)):
            raise ValueError(f"degree {degree} beyond the product's truncation")
        if m < 0:
            return 0.0
        return math.fsum([a[i] * b[m - i] for i in range(m + 1)])

    def scale(self, factor: float) -> "LaurentExpansion":
        return LaurentExpansion(self.lo, tuple(factor * c for c in self.coeffs))

    def inverse(self) -> "LaurentExpansion":
        """Reciprocal series; leading coefficient must be nonzero."""
        lead = 0
        while lead < len(self.coeffs) and self.coeffs[lead] == 0.0:
            lead += 1
        if lead == len(self.coeffs):
            raise ZeroDivisionError("cannot invert the zero expansion")
        L = self.lo + lead
        a = self.coeffs[lead:]
        n = len(a)
        b = [0.0] * n
        b[0] = 1.0 / a[0]
        for d in range(1, n):
            b[d] = -math.fsum(a[i] * b[d - i] for i in range(1, d + 1)) / a[0]
        return LaurentExpansion(-L, tuple(b))

    def eval_at(self, s: complex) -> complex:
        """Evaluate the truncated expansion at a point s != 1."""
        u = s - 1
        total = 0j
        for j in range(len(self.coeffs) - 1, -1, -1):
            total = total * u + self.coeffs[j]
        return total * u**self.lo

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float, hi: int) -> "LaurentExpansion":
        return LaurentExpansion(0, (value,) + (0.0,) * hi)

    @staticmethod
    def from_exp(alpha: float, hi: int) -> "LaurentExpansion":
        """Expansion of exp(alpha * (s-1))."""
        coeffs = [1.0]
        for j in range(1, hi + 1):
            coeffs.append(coeffs[-1] * alpha / j)
        return LaurentExpansion(0, tuple(coeffs))

    @staticmethod
    def geometric_one_over_s(hi: int) -> "LaurentExpansion":
        """Expansion of 1/s = 1/(1 + (s-1))."""
        return LaurentExpansion(0, tuple((-1.0) ** j for j in range(hi + 1)))

    def poly_apply(self, ipoly: list[int] | list[float]) -> "LaurentExpansion":
        """Evaluate a polynomial (coefficients low-to-high) at this expansion.

        Requires a pole-free expansion.
        """
        if self.pole_order > 0:
            raise ArithmeticError("polynomial of a pole is not truncatable")
        out = LaurentExpansion.constant(float(ipoly[-1]), self.hi)
        for c in reversed(ipoly[:-1]):
            out = out * self + LaurentExpansion.constant(float(c), self.hi)
        return out


# ---------------------------------------------------------------------------
# Bernoulli numbers and Stieltjes constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_numbers(m_max: int) -> tuple:
    """B_0..B_m_max (B_1 = -1/2 convention) as Fractions, by the defining recurrence."""
    from fractions import Fraction  # a test oracle: the lab itself never loads it

    B = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * B[j]
        B.append(-acc / (m + 1))
    return tuple(B)


# gamma_0..gamma_15, correctly rounded: the Euler-Maclaurin sum at cutoff
# N = 400 with R = 15 Bernoulli corrections, in 40-digit arithmetic, gives
# these doubles and so does mpmath.stieltjes; tests/test_mainterm.py keeps
# the sum as the oracle and checks the table against both.
_STIELTJES = (
    0.5772156649015329,
    -0.07281584548367673,
    -0.00969036319287232,
    0.002053834420303346,
    0.0023253700654673,
    0.0007933238173010627,
    -0.0002387693454301996,
    -0.000527289567057751,
    -0.0003521233538030395,
    -3.439477441808805e-05,
    0.0002053328149090648,
    0.0002701844395439035,
    0.0001672729121051402,
    -2.7463806603760158e-05,
    -0.00020920926205929996,
    -0.0002834686553202414,
)
STIELTJES_J_MAX = len(_STIELTJES) - 1


def stieltjes_constants(j_max: int) -> tuple[float, ...]:
    """gamma_0..gamma_j_max from the table above; j_max <= STIELTJES_J_MAX."""
    if not 0 <= j_max <= STIELTJES_J_MAX:
        raise ValueError(f"Stieltjes constants are tabulated for j <= {STIELTJES_J_MAX}")
    return _STIELTJES[: j_max + 1]


def zeta_laurent(hi: int) -> LaurentExpansion:
    """zeta(s) = 1/(s-1) + sum_j (-1)^j gamma_j (s-1)^j / j! up to degree hi."""
    gammas = stieltjes_constants(hi)
    coeffs = [1.0] + [(-1.0) ** j * gammas[j] / math.factorial(j) for j in range(hi + 1)]
    return LaurentExpansion(-1, tuple(coeffs))


@lru_cache(maxsize=None)
def zeta_power_laurent(k: int, hi: int) -> LaurentExpansion:
    """zeta(s)^k with coefficients exact through degree hi (pole order k)."""
    z = zeta_laurent(hi + 2 * (k - 1))
    out = z
    for _ in range(k - 1):
        out = out * z
    if out.hi < hi:
        raise AssertionError("internal truncation bookkeeping error")
    return LaurentExpansion(out.lo, out.coeffs[: hi - out.lo + 1])


def zeta_near_1(s: complex) -> complex:
    """zeta(s) from the Laurent data; accurate for |s-1| <= ~1.5.

    The series zeta - 1/(s-1) is entire and gamma_j/j! decays fast, so
    16 terms give ~1e-13 error on the disc used here (contour radius
    1/4 and the fixed test point s = 2).
    """
    return zeta_laurent(15).eval_at(s)
