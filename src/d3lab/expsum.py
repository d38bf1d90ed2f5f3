"""Complete exponential sums modulo q.

The central object is the triple sum

    R_{a,b,c}(h/q) = sum_{x,y,z=1}^{q} e((ax + by + cz - h*x*y*z)/q)

together with the divisor-weighted sum A_{h/q}(n) = sum_{abc=n} R_{a,b,c}(h/q),
the correlation sum over reduced residues h, and the Ramanujan-twisted
double sum

    S = sum'_{X,X'=1}^{q} e((aX - a'X')/q) * c_q(bX - b'X')

with its prime-power closed-form evaluation.  Brute-force paths are exact
(phase residues are counted in integers before a single length-q complex
sum) and act as oracles for the fast reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .arith import (
    ReducedFraction,
    divisors,
    euler_phi,
    factorize,
    kloosterman_table,
    mobius,
    mod_inverse,
    ramanujan_sum,
    sigma,
)

__all__ = [
    "CorrelationArgs",
    "GuardError",
    "PrimePowerCase",
    "TripleSumArgs",
    "a_sum",
    "corr_identity_deviation",
    "correlation_bound_ratio",
    "correlation_multiplicativity_check",
    "correlation_sum",
    "cq_pair_sum",
    "cq_pair_sum_prime_power",
    "cq_table",
    "dk_exact",
    "prime_power_catalog",
    "correlation_bound_scan",
    "ordered_triples",
    "r_sum_bruteforce",
    "r_sum_bruteforce_table",
    "r_sum_fast",
    "r_sum_fast_table",
]


class GuardError(RuntimeError):
    """A brute-force path was asked to exceed its cost guard."""


def _require(cond: bool, msg: str):
    if not cond:
        raise GuardError(msg)


def round_to_integer(value: complex, tol: float = 1e-6, scale: float = 1.0) -> int:
    """Round a numerically-integer complex value to the exact integer.

    Tolerance is absolute for scale=1; callers of large aggregates pass
    scale = 1 + |value| to absorb float accumulation.  Failure signals a
    bug in an identity that should be exact.
    """
    bound = tol * scale
    if abs(value.imag) > bound:
        raise ArithmeticError(f"imaginary part {value.imag} exceeds {bound}")
    nearest = round(value.real)
    if abs(value.real - nearest) > bound:
        raise ArithmeticError(f"{value.real} is not an integer to within {bound}")
    return int(nearest)


def dk_exact(k: int, n: int) -> int:
    """d_k(n) from the factorization: product of C(e+k-1, k-1)."""
    out = 1
    for _, e in factorize(n).factors:
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


@dataclass(frozen=True)
class TripleSumArgs:
    """Arguments (a, b, c) mod q of R at the reduced point h/q."""

    a: int
    b: int
    c: int
    point: ReducedFraction


@dataclass(frozen=True)
class CorrelationArgs:
    """Two integer triples correlated over reduced residues mod q."""

    triple: tuple[int, int, int]
    triple2: tuple[int, int, int]
    q: int


# ---------------------------------------------------------------------------
# the triple sum R_{a,b,c}(h/q)
# ---------------------------------------------------------------------------


def r_sum_bruteforce(
    a: int, b: int, c: int, point: ReducedFraction, *, q_guard: int = 200
) -> complex:
    """Triple-loop evaluation of R_{a,b,c}(h/q), exact phase counting.

    The q^3 phase residues (ax + by + cz - h*x*y*z) mod q are tallied in
    integers; only the final length-q sum of counts times e(r/q) is
    floating point.  R is real, so the imaginary residue is asserted
    away.
    """
    h, q = point.h, point.q
    _require(q <= q_guard, f"q={q} exceeds brute-force guard {q_guard}; use r_sum_fast")
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


def r_sum_bruteforce_table(point: ReducedFraction, *, q_guard: int = 64) -> np.ndarray:
    """R_{a,b,c}(h/q) for every residue triple, via one 3-D inverse FFT.

    R(a,b,c) is the 3-D Fourier transform of the phase tensor
    e(-h*x*y*z/q) at frequency (a,b,c).
    """
    h, q = point.h, point.q
    _require(q <= q_guard, f"q={q} exceeds table guard {q_guard}")
    x = np.arange(q, dtype=np.int64)
    xyz = x[:, None, None] * x[None, :, None] * x[None, None, :]
    F = np.exp(-2j * np.pi * ((h * xyz) % q) / q)
    return q**3 * np.fft.ifftn(F)


def _kloosterman_value(n: int, m: int, q: int) -> complex:
    if q == 1:
        return 1 + 0j
    return complex(kloosterman_table(q)[n % q, m % q])


def r_sum_fast(a: int, b: int, c: int, point: ReducedFraction) -> complex:
    """R_{a,b,c}(h/q) via the divisor reduction to Kloosterman sums.

    R = q * sum_{delta | (q,b,c)} delta * S_{a, (b/delta)(c/delta)*hbar}(q/delta),
    cost O(sum_{delta} q/delta).  When q | b and q | c the sum collapses to
    the closed form q * sum_{d | (q,a)} d * phi(q/d).
    """
    h, q = point.h, point.q
    if q == 1:
        return 1 + 0j
    a, b, c = a % q, b % q, c % q
    if b == 0 and c == 0:
        total = sum(d * euler_phi(q // d) for d in divisors(math.gcd(q, a)))
        return complex(q * total, 0.0)
    hbar = mod_inverse(h, q)
    g = math.gcd(math.gcd(b, c), q)
    total = 0j
    for delta in divisors(g):
        qd = q // delta
        m = ((b // delta) * (c // delta) * hbar) % qd
        total += delta * _kloosterman_value(a % qd, m, qd)
    return q * total


def r_sum_fast_table(point: ReducedFraction) -> np.ndarray:
    """r_sum_fast for every residue triple (a,b,c), vectorized.

    Returns a (q, q, q) complex array indexed [a, b, c].
    """
    h, q = point.h, point.q
    if q == 1:
        return np.ones((1, 1, 1), dtype=np.complex128)
    hbar = mod_inverse(h, q)
    res = np.arange(q, dtype=np.int64)
    out = np.zeros((q, q, q), dtype=np.complex128)
    for delta in divisors(q):
        qd = q // delta
        mask_b = res % delta == 0
        mask = np.outer(mask_b, mask_b)  # delta | b and delta | c
        m = ((res[:, None] // delta) * (res[None, :] // delta) * hbar) % qd
        K = kloosterman_table(qd) if qd > 1 else np.ones((1, 1), dtype=np.complex128)
        # K indexed at [a % qd, m[b, c]] broadcast over the full grid
        block = K[(res % qd)[:, None, None], m[None, :, :]]
        out += delta * np.where(mask[None, :, :], block, 0.0)
    return q * out


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


def reduced_residues(q: int) -> list[int]:
    if q == 1:
        return [1]
    return [h for h in range(1, q + 1) if math.gcd(h, q) == 1]


def _unit_rows(q: int, triples: list[tuple[int, int, int]]) -> np.ndarray:
    """The phi(q) x len(triples) matrix of R_t(h/q) over reduced h.

    By the twist identity R_{a,b,c}(h/q) = R_{a*hbar,b,c}(1/q) (substitute
    x -> hbar*x), one column u -> R_{u,b,c}(1/q) per distinct (b, c) mod q
    serves every triple.  Row i holds h = units[i]^{-1}: as h runs over
    the units so does hbar, so column t is read at a*units.  Rows are
    therefore not in h order, which sums over h do not see.
    """
    units = np.array(reduced_residues(q), dtype=np.int64) % q
    one = ReducedFraction.reduce(1, q)
    columns: dict[tuple[int, int], np.ndarray] = {}
    M = np.empty((len(units), len(triples)), dtype=np.complex128)
    for j, (a, b, c) in enumerate(triples):
        key = (b % q, c % q)
        if key not in columns:
            columns[key] = np.array([r_sum_fast(u, *key, one) for u in range(q)])
        M[:, j] = columns[key][(a % q) * units % q]
    return M


def correlation_sum(args: CorrelationArgs, *, q_guard: int = 60) -> complex:
    """sum'_{h mod q} R_t(h/q) * conj(R_t'(h/q)); real and integer-valued.

    Rounded to the nearest integer within 1e-6 * (1 + |value|).
    """
    q = args.q
    _require(q <= q_guard, f"q={q} exceeds correlation guard {q_guard}")
    M = _unit_rows(q, [args.triple, args.triple2])
    total = complex(np.vdot(M[:, 1], M[:, 0]))
    val = round_to_integer(total, scale=1.0 + abs(total))
    return complex(val, 0.0)


def correlation_multiplicativity_check(
    q1: int,
    q2: int,
    triple: tuple[int, int, int],
    triple2: tuple[int, int, int],
    *,
    splitting_samples: int = 4,
) -> dict:
    """Check S(q1*q2) = S(q1) * S(q2) for coprime moduli.

    Also verifies the underlying splitting identity
    R((h*q2 + h2*q1)/(q1*q2)) = R(h*q2^3 / q1) * R(h2*q1^3 / q2)
    on the first few reduced pairs (h, h2).  Returns a report dict.
    """
    if math.gcd(q1, q2) != 1:
        raise ValueError("moduli must be coprime")
    _require(q1 * q2 <= 60, f"q1*q2={q1*q2} exceeds guard 60")
    s12 = correlation_sum(CorrelationArgs(triple, triple2, q1 * q2))
    s1 = correlation_sum(CorrelationArgs(triple, triple2, q1))
    s2 = correlation_sum(CorrelationArgs(triple, triple2, q2))
    dev = abs(s12 - s1 * s2)
    tol = 1e-6 * (1 + abs(s12))

    split_dev = 0.0
    a, b, c = triple
    pairs = [
        (h, h2)
        for h in reduced_residues(q1)
        for h2 in reduced_residues(q2)
    ][:splitting_samples]
    for h, h2 in pairs:
        lhs = r_sum_fast(a, b, c, ReducedFraction.reduce(h * q2 + h2 * q1, q1 * q2))
        rhs = r_sum_fast(a, b, c, ReducedFraction.reduce(h * q2**3, q1)) * r_sum_fast(
            a, b, c, ReducedFraction.reduce(h2 * q1**3, q2)
        )
        split_dev = max(split_dev, abs(lhs - rhs) / (1 + abs(lhs)))
    return {
        "q1": q1,
        "q2": q2,
        "s12": s12.real,
        "s1": s1.real,
        "s2": s2.real,
        "deviation": dev,
        "tolerance": tol,
        "passed": dev <= tol and split_dev <= 1e-6,
        "splitting_deviation": split_dev,
    }


# ---------------------------------------------------------------------------
# the Ramanujan-twisted double sum and its prime-power closed form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def cq_table(q: int) -> np.ndarray:
    """c_q(r) for r = 0..q-1, exact int64, by the divisor formula."""
    out = np.zeros(q, dtype=np.int64)
    for hdiv in divisors(q):
        out[::hdiv] += mobius(q // hdiv) * hdiv
    return out


def cq_pair_sum(a: int, a2: int, b: int, b2: int, q: int, *, q_guard: int = 500) -> int:
    """S = sum'_{X,X'} e((aX - a2 X')/q) * c_q(bX - b2 X'), exact integer.

    Pairs are tallied by joint phase/twist residue class in integers,
    so the only float step is a final length-q cosine combination.
    """
    _require(q <= q_guard, f"q={q} exceeds pair-sum guard {q_guard}")
    if q == 1:
        return 1
    units = np.array(reduced_residues(q), dtype=np.int64) % q
    t = (a * units[:, None] - a2 * units[None, :]) % q
    s = (b * units[:, None] - b2 * units[None, :]) % q
    joint = np.bincount((t * q + s).ravel(), minlength=q * q).reshape(q, q)
    weights = joint @ cq_table(q)  # integer W_t per phase class
    val = _phase_combine(weights, q)
    return round_to_integer(val)


class PrimePowerCase(Enum):
    """Case split of the closed-form evaluation at q = p^k."""

    P_DIVIDES_BB = "p_divides_BB"
    P2_DIVIDES_Q = "p2_divides_Q"
    Q_EQUALS_P = "q_equals_p"
    UNDEFINED = "undefined"


def cq_pair_sum_prime_power(
    a: int, a2: int, b: int, b2: int, p: int, k: int
) -> tuple[PrimePowerCase, int]:
    """Closed-form value of the pair sum at q = p^k, with its case label.

    With Bb = gcd(q,b,b2), Q = q/Bb, B = b/Bb, B2 = b2/Bb:
      * p | B*B2:            S = c_q(Bb) c_q(a) c_q(a2)
      * p !| B*B2, p^2 | Q:  S = q * c_{qBb}(a*b2 - a2*b) if gcd(q,a) =
                             gcd(q,a2) = Bb, else 0
      * p !| B*B2, Q = p:    S = q * c_{qBb}(a*b2 - a2*b) [Bb | a, a2]
                             - Bb * c_q(a) c_q(a2)
      * Q = 1 is outside the case split (label UNDEFINED); there
        bX - b2X' is 0 mod q identically and the first formula is exact.
    The cross-argument a*b2 - a2*b follows the derivation of the case
    formulas; the brute-force sum is the authoritative contract and the
    catalog records any residual mismatch.
    """
    if p < 2 or k < 1:
        raise ValueError("need a prime p and exponent k >= 1")
    for pp, _ in factorize(p).factors:
        if pp != p:
            raise ValueError(f"{p} is not prime")
    q = p**k
    a, a2, b, b2 = a % q, a2 % q, b % q, b2 % q
    Bb = math.gcd(q, math.gcd(b, b2))
    Q = q // Bb
    B, B2 = b // Bb, b2 // Bb
    ca, ca2 = ramanujan_sum(q, a), ramanujan_sum(q, a2)

    if Q == 1:
        label = PrimePowerCase.P_DIVIDES_BB if (B * B2) % p == 0 else PrimePowerCase.UNDEFINED
        return label, ramanujan_sum(q, Bb) * ca * ca2
    if (B * B2) % p == 0:
        return PrimePowerCase.P_DIVIDES_BB, ramanujan_sum(q, Bb) * ca * ca2
    cross = ramanujan_sum(q * Bb, a * b2 - a2 * b)
    if Q % (p * p) == 0:
        ok = math.gcd(q, a) == Bb and math.gcd(q, a2) == Bb
        return PrimePowerCase.P2_DIVIDES_Q, q * cross if ok else 0
    # remaining case Q = p
    ok = a % Bb == 0 and a2 % Bb == 0
    val = (q * cross if ok else 0) - Bb * ca * ca2
    return PrimePowerCase.Q_EQUALS_P, val


def prime_power_catalog(
    p: int,
    k: int,
    *,
    n_samples: int = 10_000,
    seed: int = 0,
) -> list[dict]:
    """Closed form vs brute force over (a, a2, b, b2) mod p^k.

    Exhaustive when q^4 <= n_samples, otherwise a seeded deterministic
    sample of n_samples tuples.  Each row records both values, the case
    label, and whether they match exactly.
    """
    q = p**k
    rows = []
    if q**4 <= n_samples:
        tuples = [
            (a, a2, b, b2)
            for a in range(q)
            for a2 in range(q)
            for b in range(q)
            for b2 in range(q)
        ]
    else:
        rng = np.random.default_rng(seed)
        tuples = [tuple(int(v) for v in row) for row in rng.integers(0, q, size=(n_samples, 4))]
    for a, a2, b, b2 in tuples:
        brute = cq_pair_sum(a, a2, b, b2, q)
        label, closed = cq_pair_sum_prime_power(a, a2, b, b2, p, k)
        rows.append(
            {
                "q": q,
                "a": a,
                "a2": a2,
                "b": b,
                "b2": b2,
                "case": label.value,
                "brute": brute,
                "closed": closed,
                "match": brute == closed,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# bound checkers
# ---------------------------------------------------------------------------


def correlation_bound_ratio(
    triple: tuple[int, int, int], triple2: tuple[int, int, int], q: int
) -> float:
    """|correlation| / (q^3 * gcd(q,n,n') * sum_{f | (q, n-n')} f).

    n, n' are the integer products of the triples; for n = n' the divisor
    sum runs over all f | q.
    """
    n = triple[0] * triple[1] * triple[2]
    n2 = triple2[0] * triple2[1] * triple2[2]
    corr = correlation_sum(CorrelationArgs(triple, triple2, q))
    denom = q**3 * math.gcd(q, math.gcd(n, n2)) * sigma(math.gcd(q, n - n2))
    return abs(corr) / denom


def correlation_bound_scan(
    q_values: list[int], entry_max: int, *, log_power: int = 3
) -> dict:
    """Max of |correlation| over the family, against the divisor bound.

    For every q in q_values and every ordered pair of triples with
    entries in 1..entry_max, computes
    ratio = |corr| / (q^3 * (q,n,n') * sum_{f|(q,n-n')} f * (1+log q)^A).
    Returns the fitted constant (max ratio) and the argmax row.
    """
    triples = [
        (a, b, c)
        for a in range(1, entry_max + 1)
        for b in range(1, entry_max + 1)
        for c in range(1, entry_max + 1)
    ]
    prods = np.array([a * b * c for a, b, c in triples], dtype=np.int64)
    best = {"ratio": 0.0}
    for q in q_values:
        M = _unit_rows(q, triples)
        G = np.abs(M.conj().T @ M)
        logfac = (1.0 + math.log(q)) ** log_power
        gcd_qn = np.gcd(q, prods)
        # sigma(gcd(q, n - n')) depends only on (n - n') mod q
        sigma_gcd = np.array([sigma(math.gcd(q, r)) for r in range(q)], dtype=np.int64)
        fsum = sigma_gcd[(prods[:, None] - prods[None, :]) % q]
        denom = (q**3) * np.gcd.outer(gcd_qn, gcd_qn) * fsum * logfac
        ratios = G / denom
        i, j = np.unravel_index(np.argmax(ratios), ratios.shape)
        if ratios[i, j] > best["ratio"]:
            best = {
                "ratio": float(ratios[i, j]),
                "q": q,
                "triple": triples[i],
                "triple2": triples[j],
            }
    return best


def corr_identity_values(n: int, m: int, q: int, *, q_guard: int = 40) -> tuple[complex, complex]:
    """Both sides of the coprime correlation identity:

    LHS = sum'_h A_{h/q}(n) conj(A_{h/q}(m)), RHS = q^3 c_q(n-m) d_3(n) d_3(m).
    """
    if math.gcd(n, q) != 1:
        raise ValueError("requires gcd(n, q) = 1")
    _require(q <= q_guard, f"q={q} exceeds guard {q_guard}")
    tn, tm = ordered_triples(n), ordered_triples(m)
    M = _unit_rows(q, tn + tm)
    lhs = complex(np.vdot(M[:, len(tn):].sum(axis=1), M[:, : len(tn)].sum(axis=1)))
    rhs = q**3 * ramanujan_sum(q, n - m) * dk_exact(3, n) * dk_exact(3, m)
    return lhs, complex(rhs)


def corr_identity_deviation(n: int, m: int, q: int, *, q_guard: int = 40) -> float:
    """|LHS - RHS| / q^3; a measurement, not an assertion (small cases deviate)."""
    lhs, rhs = corr_identity_values(n, m, q, q_guard=q_guard)
    return abs(lhs - rhs) / q**3
