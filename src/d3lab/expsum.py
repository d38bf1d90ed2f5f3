"""Complete exponential sums modulo q.

The central object is the triple sum

    R_{a,b,c}(h/q) = sum_{x,y,z=1}^{q} e((ax + by + cz - h*x*y*z)/q)

together with the divisor-weighted sum A_{h/q}(n) = sum_{abc=n} R_{a,b,c}(h/q),
the correlation sum over reduced residues h, and the Ramanujan-twisted
double sum

    S = sum'_{X,X'=1}^{q} e((aX - a'X')/q) * c_q(bX - b'X')

with its prime-power closed-form evaluation.  Brute-force paths are exact
(phase residues are counted in integers before a single length-q complex
sum) and act as oracles for the fast reductions.  Each costly path refuses
a q past its guard, one module constant (*_Q_GUARD), with a GuardError.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import numpy.fft  # numpy 2 loads it on first use: load it here, at import

from .arith import (
    ReducedFraction,
    _unit_roots,
    divisors,
    euler_phi,
    factorize,
    kloosterman_table,
    mobius,
    mod_inverse,
    ramanujan_sum,
    round_to_integer,
    sigma,
)

__all__ = [
    "GuardError",
    "PrimePowerCase",
    "PrimePowerCatalog",
    "a_sum",
    "corr_identity_values",
    "correlation_multiplicativity_check",
    "correlation_sums",
    "cq_pair_sum",
    "cq_pair_sum_bruteforce",
    "cq_pair_sum_prime_power",
    "cq_table",
    "dk_exact",
    "prime_power_catalog",
    "correlation_bound_scan",
    "ordered_triples",
    "r_sum_bruteforce",
    "r_sum_bruteforce_table",
    "r_sum_fast",
]


# relative gap below which correlation_bound_scan treats two ratios as tied
TIE_RTOL = 1e-12
# Cost guards, the largest q of each oracle.  They are read at call time;
# force=True lifts those of r_sum_bruteforce and correlation_sums.
BRUTE_Q_GUARD = 200  # r_sum_bruteforce: q^3 phase residues
TABLE_Q_GUARD = 64  # r_sum_bruteforce_table: one q^3 complex tensor
CORRELATION_Q_GUARD = 60  # correlation_sums, and q1*q2 in its multiplicativity check
PAIR_SUM_Q_GUARD = 500  # cq_pair_sum and cq_pair_sum_bruteforce
IDENTITY_Q_GUARD = 40  # corr_identity_values
# The O(q) loops of the csum and kloosterman commands, which cli refuses
# past these without --force.  At a prime q, the worst case, the Ramanujan
# oracle took 0.27 s at q = 499979; the direct Kloosterman sum and the FFT
# column took 0.13 s and 0.07 s at q = 99991 (Python 3.11, 2-vCPU VM).
RAMANUJAN_Q_GUARD = 500_000  # ramanujan_sum_bruteforce
KLOOSTERMAN_Q_GUARD = 100_000  # kloosterman_sum and kloosterman_table
# the reduced pairs (h, h2) on which the splitting identity is sampled
SPLITTING_SAMPLES = 4
# prime_power_catalog is exhaustive while q^4 <= CATALOG_SAMPLES, else it
# draws CATALOG_SAMPLES tuples
CATALOG_SAMPLES = 10_000
# A in the (1 + log q)^A of Lemma 4's bound, which correlation_bound_scan fits
LOG_POWER = 3


class GuardError(RuntimeError):
    """A brute-force path was asked to exceed its cost guard."""


def _require(cond: bool, msg: str):
    if not cond:
        raise GuardError(msg)


def dk_exact(k: int, n: int) -> int:
    """d_k(n) from the factorization: product of C(e+k-1, k-1)."""
    out = 1
    for _, e in factorize(n):
        out *= math.comb(e + k - 1, k - 1)
    return out


def ordered_triples(n: int) -> list[tuple[int, int, int]]:
    """All ordered (a, b, c) with a*b*c = n."""
    out = []
    for d1 in divisors(n):
        m = n // d1
        for d2 in divisors(m):
            out.append((d1, d2, m // d2))
    return out


# ---------------------------------------------------------------------------
# the triple sum R_{a,b,c}(h/q)
# ---------------------------------------------------------------------------


def r_sum_bruteforce(
    a: int, b: int, c: int, point: ReducedFraction, *, force: bool = False
) -> complex:
    """Triple-loop evaluation of R_{a,b,c}(h/q), exact phase counting.

    The q^3 phase residues (ax + by + cz - h*x*y*z) mod q are tallied in
    integers; only the final length-q sum of counts times e(r/q) is
    floating point.  R is real, so the imaginary residue is asserted
    away.  q > BRUTE_Q_GUARD is a GuardError unless force is set.
    """
    h, q = point.h, point.q
    _require(force or q <= BRUTE_Q_GUARD, f"q={q} exceeds brute-force guard {BRUTE_Q_GUARD}")
    x = np.arange(1, q + 1, dtype=np.int64)
    counts = np.zeros(q, dtype=np.int64)
    xy = np.add.outer(a * x, b * x)          # a*x + b*y
    xyprod = np.outer(x, x)                  # x*y
    for z in x:
        phases = (xy + c * z - h * z * xyprod) % q
        counts += np.bincount(phases.ravel(), minlength=q)
    val = _phase_combine(counts, q)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"R_{a},{b},{c}({h}/{q}) has imaginary part {val.imag}")
    return complex(val.real, 0.0)


def _phase_combine(counts: np.ndarray, q: int) -> complex:
    r = np.arange(q)
    return complex(np.sum(counts * np.exp(2j * np.pi * r / q)))


def r_sum_bruteforce_table(point: ReducedFraction, *, force: bool = False) -> np.ndarray:
    """R_{a,b,c}(h/q) for every residue triple, via one 3-D inverse FFT.

    R(a,b,c) is the 3-D Fourier transform of the phase tensor
    e(-h*x*y*z/q) at frequency (a,b,c).  q > TABLE_Q_GUARD is a
    GuardError unless force is set.
    """
    h, q = point.h, point.q
    _require(force or q <= TABLE_Q_GUARD, f"q={q} exceeds table guard {TABLE_Q_GUARD}")
    x = np.arange(q, dtype=np.int64)
    xyz = x[:, None, None] * x[None, :, None] * x[None, None, :]
    F = np.exp(-2j * np.pi * ((h * xyz) % q) / q)
    return q**3 * np.fft.ifftn(F)


def r_sum_fast(a: int, b: int, c: int, point: ReducedFraction) -> complex:
    """R_{a,b,c}(h/q) via the divisor reduction to Kloosterman sums.

    The twist y -> hbar*y gives R_{a,b,c}(h/q) = R_{a,b*hbar,c}(1/q), entry
    a mod q of _twist_column(q, b*hbar, c): real Kloosterman columns, so the
    imaginary part is exactly 0.
    """
    h, q = point.h, point.q
    if q == 1:
        return 1 + 0j
    return complex(_twist_column(q, b * mod_inverse(h, q) % q, c % q)[a % q])


def a_sum(point: ReducedFraction, n: int) -> complex:
    """A_{h/q}(n) = sum over ordered triples abc = n of R_{a,b,c}(h/q)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0j
    for a, b, c in ordered_triples(n):
        total += r_sum_fast(a, b, c, point)
    return total


# ---------------------------------------------------------------------------
# correlation sums over reduced residues
# ---------------------------------------------------------------------------


def _units(q: int) -> np.ndarray:
    """The reduced residues mod q in increasing order, read-only int64 (0 for q = 1)."""
    return _unit_roots(q)[0]


# (q, b, c) columns kept by _twist_column.  A column costs 8*q bytes, so the
# cache holds at most 4096 * 8 * q_max bytes: 3.9 MB while q <= 120
# (lemma4-scan --q-max 120 --entry-max 4 reads 621 columns, at prime powers)
@lru_cache(maxsize=4096)
def _twist_column(q: int, b: int, c: int) -> np.ndarray:
    """u -> R_{u,b,c}(1/q) for u = 0..q-1, float64, read-only.

    R = q * sum_{delta | (q,b,c)} delta * S_{u, (b/delta)(c/delta)}(q/delta):
    the Kloosterman column kloosterman_table(q/delta, m) is added to each of
    the delta blocks of length q/delta, as S is periodic in u mod q/delta.
    When q | b and q | c, R = q * sum_{d | (q,u)} d * phi(q/d) for every h.
    """
    b, c = b % q, c % q
    if b == 0 and c == 0:
        by_gcd = np.zeros(q + 1)
        for g in divisors(q):
            by_gcd[g] = q * sum(d * euler_phi(q // d) for d in divisors(g))
        col = by_gcd[np.gcd(np.arange(q), q)]
    else:
        col = np.zeros(q)
        for delta in divisors(math.gcd(math.gcd(b, c), q)):
            qd = q // delta
            m = (b // delta) * (c // delta) % qd
            col.reshape(delta, qd)[:] += delta * kloosterman_table(qd, m)
        col *= q
    col.flags.writeable = False
    return col


def _unit_rows(q: int, triples: list[tuple[int, int, int]]) -> np.ndarray:
    """The phi(q) x len(triples) matrix of R_t(h/q) over reduced h.

    By the twist identity R_{a,b,c}(h/q) = R_{a*hbar,b,c}(1/q) (substitute
    x -> hbar*x), one column u -> R_{u,b,c}(1/q) per distinct (b, c) mod q
    serves every triple.  Row i holds h = units[i]^{-1}: as h runs over
    the units so does hbar, so column t is read at a*units.  Rows are
    therefore not in h order, which sums over h do not see.
    """
    units = _units(q)
    t = np.asarray(triples, dtype=np.int64).reshape(-1, 3) % q
    if not len(t):
        return np.zeros((units.size, 0))
    slot: dict[tuple[int, int], int] = {}  # (b, c) -> column, in first-seen order
    which = np.array([slot.setdefault((b, c), len(slot)) for b, c in t[:, 1:].tolist()])
    columns = np.stack([_twist_column(q, b, c) for b, c in slot])
    return columns[which[:, None], t[:, 0, None] * units % q].T


def _unit_row(q: int, h: np.ndarray) -> np.ndarray:
    """The rows of _unit_rows(q, ...) at the points h/q, h coprime to q:
    the row of h/q is the index of hbar among the units mod q."""
    units, inverses, _ = _unit_roots(q)
    return np.searchsorted(units, inverses[np.searchsorted(units, h % q)])


def _paired_unit_rows(q: int, triples, triples2) -> np.ndarray:
    """_unit_rows(q, ...) of the n rows of triples followed by the n rows of triples2."""
    t, t2 = (np.asarray(v, dtype=np.int64).reshape(-1, 3) for v in (triples, triples2))
    if len(t) != len(t2):
        raise ValueError(f"{len(t)} triples against {len(t2)}")
    return _unit_rows(q, np.concatenate([t, t2]))


def _integer_correlations(q: int, M: np.ndarray) -> np.ndarray:
    """Column j against column n + j of a _paired_unit_rows table, summed
    over h and rounded by _exact_correlations."""
    n = M.shape[1] // 2
    return _exact_correlations(q, np.einsum("ij,ij->j", M[:, :n], M[:, n:]))


def _exact_correlations(q: int, total: np.ndarray) -> np.ndarray:
    """Correlation sums at modulus q rounded to the nearest integer within
    1e-6 * (1 + |value|), else ArithmeticError."""
    exact = np.rint(total) + 0.0  # + 0.0 makes -0.0 a 0.0, which prints as 0
    off = np.abs(total - exact) > 1e-6 * (1.0 + np.abs(total))
    if off.any():
        raise ArithmeticError(f"correlation {total[off][0]} at q={q} is not an integer")
    return exact


def correlation_sums(q: int, triples, triples2, *, force: bool = False) -> np.ndarray:
    """sum'_{h mod q} R_t(h/q) * R_t'(h/q) for each row t, t' of the n x 3
    arrays triples and triples2 (R is real), from one _unit_rows table.

    The sums are integers held as float64, not int64: phi(q) * R_{0,0,0}^2
    passes 2^63 at q = 2700, which corr --force reaches.  q beyond
    CORRELATION_Q_GUARD is a GuardError unless force is set.
    """
    _require(force or q <= CORRELATION_Q_GUARD,
             f"q={q} exceeds correlation guard {CORRELATION_Q_GUARD}")
    return _integer_correlations(q, _paired_unit_rows(q, triples, triples2))


def correlation_multiplicativity_check(
    q1: int, q2: int, triples, triples2
) -> dict[str, np.ndarray]:
    """Check S(q1*q2) = S(q1) * S(q2) for coprime moduli, one row per pair
    of rows of the n x 3 arrays triples and triples2.

    Also verifies the underlying splitting identity
    R((h*q2 + h2*q1)/(q1*q2)) = R(h*q2^3 / q1) * R(h2*q1^3 / q2)
    for each triple on the first SPLITTING_SAMPLES reduced pairs (h, h2):
    the right side from the tables at q1 and q2, the left side from
    r_sum_fast, which reads another twist column, so the two R routes are
    held to each other.
    Returns one column per field: the sums s12, s1, s2, their deviation
    |s12 - s1*s2| and its tolerance, the splitting deviation and whether
    the row passed.
    """
    if math.gcd(q1, q2) != 1:
        raise ValueError("moduli must be coprime")
    _require(q1 * q2 <= CORRELATION_Q_GUARD,
             f"q1*q2={q1*q2} exceeds guard {CORRELATION_Q_GUARD}")
    moduli = (q1 * q2, q1, q2)
    tables = [_paired_unit_rows(q, triples, triples2) for q in moduli]
    s12, s1, s2 = (_integer_correlations(q, M) for q, M in zip(moduli, tables))
    dev = np.abs(s12 - s1 * s2)
    tol = 1e-6 * (1 + np.abs(s12))

    n = len(s12)
    pairs = [(u, u2) for u in _units(q1).tolist() for u2 in _units(q2).tolist()]
    h, h2 = np.array(pairs[:SPLITTING_SAMPLES], dtype=np.int64).reshape(-1, 2).T
    points = [ReducedFraction.reduce(v, q1 * q2) for v in (h * q2 + h2 * q1).tolist()]
    t = np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist()
    lhs = np.array([[r_sum_fast(a, b, c, pt).real for a, b, c in t] for pt in points],
                   dtype=float).reshape(len(points), n)
    rhs = tables[1][_unit_row(q1, h * q2**3), :n] * tables[2][_unit_row(q2, h2 * q1**3), :n]
    split_dev = (np.abs(lhs - rhs) / (1 + np.abs(lhs))).max(axis=0, initial=0.0)
    return {
        "s12": s12,
        "s1": s1,
        "s2": s2,
        "deviation": dev,
        "tolerance": tol,
        "passed": (dev <= tol) & (split_dev <= 1e-6),
        "splitting_deviation": split_dev,
    }


# ---------------------------------------------------------------------------
# the Ramanujan-twisted double sum and its prime-power closed form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def cq_table(q: int) -> np.ndarray:
    """c_q(r) for r = 0..q-1, exact read-only int64, by the divisor formula."""
    out = np.zeros(q, dtype=np.int64)
    for hdiv in divisors(q):
        out[::hdiv] += mobius(q // hdiv) * hdiv
    out.flags.writeable = False
    return out


def cq_pair_sum_bruteforce(a: int, a2: int, b: int, b2: int, q: int) -> int:
    """S = sum'_{X,X'} e((aX - a2 X')/q) * c_q(bX - b2 X'), exact integer.

    The residues aX - a2X' and bX - b2X' are formed over the phi(q)^2
    unit pairs and the pairs tallied by joint phase/twist residue class
    in integers, so the only float step is a final length-q combination
    with e(r/q).
    """
    _require(q <= PAIR_SUM_Q_GUARD, f"q={q} exceeds pair-sum guard {PAIR_SUM_Q_GUARD}")
    if q == 1:
        return 1
    X = _units(q)[:, None]
    a, a2, b, b2 = (v % q for v in (a, a2, b, b2))  # small factors: no int64 overflow
    t = (a * X - a2 * X.T) % q  # (aX - a2X') mod q
    s = (b * X - b2 * X.T) % q  # (bX - b2X') mod q
    joint = np.bincount((t * q + s).ravel(), minlength=q * q).reshape(q, q)
    weights = joint @ cq_table(q)  # integer W_t per phase class
    return round_to_integer(complex(weights @ np.exp(2j * np.pi * np.arange(q) / q)))


# elements gathered per chunk of rows in cq_pair_sum: bounds its scratch
# memory whatever the number of rows
_PAIR_CHUNK = 1 << 15


def cq_pair_sum(a, a2, b, b2, q: int):
    """S = sum'_{X,X'} e((aX - a2 X')/q) * c_q(bX - b2 X') by the Ramanujan expansion.

    Writing c_q(m) = sum'_{r mod q} e(rm/q) and summing over X and X' first,

        S = sum'_{r mod q} c_q(a + r*b) * c_q(a2 + r*b2)     (c_q(-m) = c_q(m)),

    phi(q) int64 products read from cq_table(q), with no float step;
    |S| <= phi(q) * q^2.  The arguments broadcast against each other:
    ints give a Python int, arrays an int64 array of the broadcast shape,
    evaluated in row chunks of at most _PAIR_CHUNK gathered elements.
    cq_pair_sum_bruteforce evaluates the definition and is the oracle.
    """
    _require(q <= PAIR_SUM_Q_GUARD, f"q={q} exceeds pair-sum guard {PAIR_SUM_Q_GUARD}")
    args = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) % q for v in (a, a2, b, b2)))
    a, a2, b, b2 = (v.ravel() for v in args)
    units, cq = _units(q), cq_table(q)
    out = np.empty(a.size, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // units.size)
    for i in range(0, a.size, step):
        rows = slice(i, i + step)
        left = cq[(a[rows, None] + units * b[rows, None]) % q]
        right = cq[(a2[rows, None] + units * b2[rows, None]) % q]
        out[rows] = (left * right).sum(axis=1)
    return int(out[0]) if args[0].ndim == 0 else out.reshape(args[0].shape)


class PrimePowerCase(Enum):
    """Case split of the closed-form evaluation at q = p^k."""

    P_DIVIDES_BB = "p_divides_BB"
    P2_DIVIDES_Q = "p2_divides_Q"
    Q_EQUALS_P = "q_equals_p"


def _check_prime_power(p: int, k: int) -> None:
    if p < 2 or k < 1:
        raise ValueError("need a prime p and exponent k >= 1")
    for pp, _ in factorize(p):
        if pp != p:
            raise ValueError(f"{p} is not prime")


def cq_pair_sum_prime_power(T: np.ndarray, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form value of the pair sum at q = p^k, with its case label,
    for every row (a, a2, b, b2) of the int64 array T.

    With Bb = gcd(q,b,b2), Q = q/Bb, B = b/Bb, B2 = b2/Bb:
      * p | B*B2:            S = c_q(Bb) c_q(a) c_q(a2)
      * p !| B*B2, p^2 | Q:  S = q * c_{qBb}(a*b2 - a2*b) if gcd(q,a) =
                             gcd(q,a2) = Bb, else 0
      * p !| B*B2, Q = p:    S = q * c_{qBb}(a*b2 - a2*b) [Bb | a, a2]
                             - Bb * c_q(a) c_q(a2)
      * Q = 1 means b = b2 = 0 mod q, so B = B2 = 0 and the first case
        applies; there bX - b2X' is 0 mod q identically and its formula
        is exact.
    The cross-argument a*b2 - a2*b follows the derivation of the case
    formulas.  It is checked, not trusted: prime_power_catalog sets it
    beside cq_pair_sum (the Ramanujan expansion), lemma3-check counts any
    mismatch, and the tests hold that expansion to cq_pair_sum_bruteforce,
    which evaluates the definition.

    The case split runs as array passes: Bb from np.gcd, c_q from
    cq_table(q) and c_{q*Bb} from cq_table(p^(k+j)), one gather per
    Bb = p^j < q present.  Returns the PrimePowerCase value (label string)
    of each row and the int64 values.
    """
    _check_prime_power(p, k)
    q = p**k
    a, a2, b, b2 = (np.asarray(T, dtype=np.int64).reshape(-1, 4) % q).T
    Bb = np.gcd(q, np.gcd(b, b2))
    Q = q // Bb
    p_div = (b // Bb) * (b2 // Bb) % p == 0
    cq = cq_table(q)
    ca_ca2 = cq[a] * cq[a2]
    x = a * b2 - a2 * b
    cross = np.zeros_like(x)
    for g in (p**j for j in range(k)):  # the rows with Q > 1
        rows = Bb == g
        if rows.any():
            cross[rows] = cq_table(q * g)[x[rows] % (q * g)]
    p2 = Q % (p * p) == 0
    ok2 = (np.gcd(q, a) == Bb) & (np.gcd(q, a2) == Bb)
    ok3 = (a % Bb == 0) & (a2 % Bb == 0)
    # object arrays, so every row shares one string per label
    label = {case: np.array(case.value, dtype=object) for case in PrimePowerCase}
    cases = np.select(
        [p_div, p2],
        [label[PrimePowerCase.P_DIVIDES_BB], label[PrimePowerCase.P2_DIVIDES_Q]],
        label[PrimePowerCase.Q_EQUALS_P],
    )
    values = np.select(
        [p_div, p2],
        [cq[Bb % q] * ca_ca2, q * cross * ok2],
        q * cross * ok3 - Bb * ca_ca2,
    )
    return cases, values


class PrimePowerCatalog(NamedTuple):
    """One catalog at q = p^k as read-only columns, one entry per tuple.

    ``tuples`` is the n x 4 int64 array of (a, a2, b, b2); ``case`` holds
    the PrimePowerCase value of each row; ``brute`` (the exact pair sum)
    and ``closed`` (the closed form) are int64.  A row matches when
    brute == closed.
    """

    q: int
    tuples: np.ndarray
    case: np.ndarray
    brute: np.ndarray
    closed: np.ndarray


def prime_power_catalog(p: int, k: int, *, seed: int = 0) -> PrimePowerCatalog:
    """Closed form vs the exact pair sum over (a, a2, b, b2) mod p^k.

    Exhaustive when q^4 <= CATALOG_SAMPLES, otherwise a seeded deterministic
    sample of CATALOG_SAMPLES tuples.  The "brute" value is cq_pair_sum, the
    Ramanujan expansion of the definition (held to the definition by
    cq_pair_sum_bruteforce in the tests); both it and the closed form are
    one batch over the catalog.  A p that is not prime or a k < 1 is a
    ValueError before any tuple is drawn.
    """
    _check_prime_power(p, k)
    q = p**k
    if q**4 <= CATALOG_SAMPLES:
        T = np.indices((q,) * 4).reshape(4, -1).T  # a slowest, b2 fastest
    else:
        # numpy.random and what it brings (secrets, hashlib, libcrypto) cost
        # about 6 MB of RSS: it is loaded only where numbers are drawn
        from numpy.random import default_rng

        T = default_rng(seed).integers(0, q, size=(CATALOG_SAMPLES, 4))
    brute = cq_pair_sum(*T.T, q)
    cases, closed = cq_pair_sum_prime_power(T, p, k)
    for column in (T, cases, brute, closed):
        column.setflags(write=False)
    return PrimePowerCatalog(q, T, cases, brute, closed)


# ---------------------------------------------------------------------------
# bound checkers
# ---------------------------------------------------------------------------


def correlation_bound_scan(q_values: list[int], entry_max: int) -> dict:
    """Max of |correlation| over the family, against the divisor bound.

    For every q in q_values and every ordered pair of triples t, t' with
    entries in 1..entry_max, the ratio is
    |S_q(t, t')| / (q^3 * (q,n,n') * sigma((q,n-n')) * (1+log q)^A)
    with A = LOG_POWER, S_q(t, t') = sum'_h R_t(h/q) R_t'(h/q), n = abc and
    n' = a'b'c'.
    Returns the fitted constant (max ratio) and the argmax row: the first
    pair in row-major order within TIE_RTOL of a modulus' maximum, and the
    first modulus with a strictly larger one.

    Every factor of a ratio but (1 + log q)^A is multiplicative in q.  For
    S_q this is Lemma 2: for q = q1*q2 coprime, h = h1*q2 + h2*q1 runs over
    the units mod q as h1, h2 run over the units mod q1 and q2, and by CRT
    R_t(h/q) = R_t(h1*q2^3/q1) * R_t(h2*q1^3/q2), where h1*q2^3 and h2*q1^3
    again run over the units mod q1 and q2.  For q^3, (q,n,n') and
    sigma((q,n-n')) it holds as gcd splits over coprime moduli and sigma is
    multiplicative.  Hence ratio_q = prod_{p^e || q} F_{p^e} / (1+log q)^A
    with F_{p^e} = |S_{p^e}| / (p^{3e} * (p^e,n,n') * sigma((p^e,n-n'))),
    built once per prime power from one phi(p^e) x T table of R
    (T = entry_max^3), its S rounded to integers by _exact_correlations.

    A factor is kept only while a later q in q_values has it.  For
    increasing q_values a kept F_{p^e} has 2 * p^e <= max q, so at most one
    T x T float64 matrix per prime power <= max(q) / 2 is held.
    """
    triples = [
        (a, b, c)
        for a in range(1, entry_max + 1)
        for b in range(1, entry_max + 1)
        for c in range(1, entry_max + 1)
    ]
    best = {"ratio": 0.0}
    for q, ratios in _correlation_ratios(q_values, triples, LOG_POWER):
        # mathematically tied pairs differ in the last bits: report the
        # first pair in row-major order within TIE_RTOL of the maximum
        near = ratios >= ratios.max() * (1.0 - TIE_RTOL)
        i, j = np.unravel_index(np.argmax(near), ratios.shape)
        if ratios[i, j] > best["ratio"]:
            best = {
                "ratio": float(ratios[i, j]),
                "q": q,
                "triple": triples[i],
                "triple2": triples[j],
            }
    return best


def _correlation_ratios(q_values, triples, log_power: int):
    """Yield (q, the T x T ratios of correlation_bound_scan at q) for each q
    in turn, as products of prime-power factors."""
    prods = np.array([a * b * c for a, b, c in triples], dtype=np.int64)
    diffs = prods[:, None] - prods[None, :]
    factored = [factorize(q) for q in q_values]
    last_use = {p**e: i for i, pes in enumerate(factored) for p, e in pes}
    kept: dict[int, np.ndarray] = {}
    for i, (q, pes) in enumerate(zip(q_values, factored)):
        ratios = np.ones((len(triples), len(triples)))
        for p, e in pes:
            pe = p**e
            factor = kept.pop(pe, None)
            if factor is None:
                factor = _correlation_factor(pe, triples, prods, diffs)
            if last_use[pe] > i:
                kept[pe] = factor
            ratios *= factor
        ratios /= (1.0 + math.log(q)) ** log_power
        yield q, ratios


def _correlation_factor(pe: int, triples, prods: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """F_{p^e}[t, t'] = |S_{p^e}(t, t')| / (p^{3e} * gcd(p^e, n, n') *
    sigma(gcd(p^e, n - n'))), with S_{p^e} = M^T M rounded by
    _exact_correlations, M = _unit_rows(p^e, triples), n = prods[t] and
    n - n' = diffs[t, t']."""
    M = _unit_rows(pe, triples)
    S = _exact_correlations(pe, M.T @ M)
    # gcd(p^e, n) is a power of p, so gcd(p^e, n, n') is the smaller of two
    gcd_qn = np.gcd(pe, prods)
    # sigma(gcd(p^e, n - n')) depends only on (n - n') mod p^e
    sigma_gcd = np.array([sigma(math.gcd(pe, r)) for r in range(pe)], dtype=np.int64)
    return np.abs(S) / (pe**3 * np.minimum.outer(gcd_qn, gcd_qn) * sigma_gcd[diffs % pe])


def corr_identity_values(n: int, m: int, q: int) -> tuple[complex, complex]:
    """Both sides of the coprime correlation identity:

    LHS = sum'_h A_{h/q}(n) conj(A_{h/q}(m)), RHS = q^3 c_q(n-m) d_3(n) d_3(m).
    """
    if math.gcd(n, q) != 1:
        raise ValueError("requires gcd(n, q) = 1")
    _require(q <= IDENTITY_Q_GUARD, f"q={q} exceeds guard {IDENTITY_Q_GUARD}")
    tn, tm = ordered_triples(n), ordered_triples(m)
    M = _unit_rows(q, tn + tm)
    lhs = complex(np.vdot(M[:, len(tn):].sum(axis=1), M[:, : len(tn)].sum(axis=1)))
    rhs = q**3 * ramanujan_sum(q, n - m) * dk_exact(3, n) * dk_exact(3, m)
    return lhs, complex(rhs)
