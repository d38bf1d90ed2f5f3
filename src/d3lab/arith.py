"""Exact integer arithmetic kernel.

Divisor-function sieves, factorization, phi/mu and Ramanujan sums c_q(n)
are exact integers.  Kloosterman sums S_{n,m}(q) are floats: kloosterman_table
reads a column of them from one inverse FFT, with kloosterman_sum as its oracle.
Other complex floats appear only in the brute-force oracle paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import numpy.fft  # numpy 2 loads it on first use: load it here, at import

__all__ = [
    "CapacityError",
    "DivisorTable",
    "ReducedFraction",
    "divisors",
    "euler_phi",
    "factorize",
    "kloosterman_sum",
    "kloosterman_table",
    "mobius",
    "mod_inverse",
    "ramanujan_sum",
    "ramanujan_sum_bruteforce",
    "round_to_integer",
    "sieve_dk",
    "sieve_dk_convolution",
    "sigma",
    "unit_phase",
]

# sieve_dk holds one uint32 table (4 bytes/entry for k = 3) plus one block of
# work arrays, so N = 5*10^7 is a 200 MB table.
MAX_SIEVE_LIMIT = 50_000_000
# entries per block of sieve_dk: a block's slice of the table and its
# cofactor (4 bytes each) stay within a 1 MB cache
_SIEVE_BLOCK = 1 << 17
# the smallest k of d_k that the sieves take
K_MIN = 2
# entries kept by the factorize and divisors caches
ARITH_CACHE_SIZE = 1 << 14


class CapacityError(MemoryError):
    """Requested table would exceed MAX_SIEVE_LIMIT, the sieve's memory budget."""


@dataclass(frozen=True)
class DivisorTable:
    """Sieved values of d_k(n) for 1 <= n <= limit, immutable once built.

    d_k(n) counts ordered k-tuples with product n; values[0] is unused.
    values is uint32, or uint64 when _dk_max(k, limit) needs it (never
    for k = 3), so sums over it are taken in a wider type.
    """

    k: int
    limit: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)

    def __getitem__(self, n: int) -> int:
        return int(self.values[n])

    def prefix_sum(self, x: int) -> int:
        """Sum of d_k(n) for n <= x, exact."""
        if x > self.limit:
            raise ValueError(f"sieve holds n <= {self.limit}, asked for {x}")
        vals = self.values[1 : x + 1]
        if vals.dtype == np.uint32:
            return int(vals.sum(dtype=np.uint64))  # x < 2^32 terms < 2^32
        return sum(vals.tolist())


def _dk_max(k: int, limit: int) -> int:
    """The exact maximum of d_k(n) over 1 <= n <= limit.

    d_k(n) = prod C(e_i + k - 1, k - 1) depends on the exponents of n
    alone, and putting them on 2, 3, 5, ... in non-increasing order keeps
    d_k(n) and does not raise n.  So the maximum is taken at such an n,
    and the walk visits each of those n <= limit once.
    """
    primes = _primes_upto(8)
    while math.prod(primes) <= limit:
        primes = _primes_upto(2 * primes[-1])

    def walk(i: int, n: int, cap: int, d: int) -> int:
        best, p, e = d, primes[i], 1
        while e <= cap and n * p**e <= limit:
            best = max(best, walk(i + 1, n * p**e, e, d * math.comb(e + k - 1, k - 1)))
            e += 1
        return best

    return walk(0, 1, limit.bit_length(), 1)


def _check_sieve_args(k: int, limit: int) -> type:
    """The dtype of the d_k table to limit: uint32 when every d_k(n) fits,
    else uint64; an OverflowError beyond 64 bits and a CapacityError
    beyond MAX_SIEVE_LIMIT, both before anything is allocated."""
    if k < K_MIN:
        raise ValueError(f"k must be >= {K_MIN}")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    top = _dk_max(k, limit)
    if top >= 2**64:
        raise OverflowError(f"d_{k}(n) reaches {top} for n <= {limit}, beyond 64 bits")
    dtype = np.uint32 if top < 2**32 else np.uint64
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(
            f"sieve limit {limit} exceeds budget {MAX_SIEVE_LIMIT} "
            f"(~{np.dtype(dtype).itemsize * limit / 1e6:.0f} MB of table)"
        )
    return dtype


def _primes_upto(m: int) -> list[int]:
    """Primes p <= m by the sieve of Eratosthenes."""
    if m < 2:
        return []
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def _prime_power_hits(powers: list[tuple], limit: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (n, p) with p^e | n <= limit for each (p^e, p, ...) of
    powers, as two arrays sorted by n."""
    n = np.concatenate([np.zeros(0, dtype)]
                       + [np.arange(pe, limit + 1, pe, dtype=dtype) for pe, *_ in powers])
    p = np.repeat(np.array([p for _, p, *_ in powers], dtype=dtype),
                  [limit // pe for pe, *_ in powers])
    order = np.argsort(n, kind="stable")
    return n[order], p[order]


def sieve_dk(k: int, limit: int) -> DivisorTable:
    """Exact table of d_k(1..limit) by a multiplicative sieve.

    d_k is multiplicative with d_k(p^e) = C(e+k-1, k-1).  For each prime
    p <= sqrt(limit) and each e, the multiples of p^e trade the factor
    d_k(p^(e-1)) they already carry for d_k(p^e) (an exact division),
    and their cofactor loses one p.  What is left of n is then 1 or a
    single prime > sqrt(limit), which contributes d_k(p) = k.  Every
    value the table holds on the way is d_k of a divisor of n, so the
    dtype that holds max d_k holds them all.

    The table is sieved in place, in blocks of _SIEVE_BLOCK entries, each
    with a cofactor of its own.  Prime powers below the block size run
    on every block.  The few larger ones update the table afterwards in
    strided passes, so each prime's exponents stay in order, and their
    cofactor divisions are sparse (n, p) hits that each block applies.
    sieve_dk_convolution is the oracle.
    """
    vals = np.empty(limit + 1, dtype=_check_sieve_args(k, limit))
    # (p^e, p, d_k(p^(e-1)), d_k(p^e)) for the prime powers p^e <= limit, p <= sqrt(limit)
    small, large = [], []
    for p in _primes_upto(math.isqrt(limit)):
        pe, e = p, 1
        while pe <= limit:
            (small if pe < _SIEVE_BLOCK else large).append(
                (pe, p, math.comb(e + k - 2, k - 1), math.comb(e + k - 1, k - 1)))
            pe *= p
            e += 1
    cofactor = np.uint32 if limit < 2**32 else np.uint64
    hit_n, hit_p = _prime_power_hits(large, limit, cofactor)
    for lo in range(0, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        block = vals[lo:hi]
        block.fill(1)  # each block's first touch, so it is still in cache
        rest = np.arange(lo, hi, dtype=cofactor)
        for pe, p, before, after in small:
            start = -lo % pe
            v = block[start::pe]
            if before > 1:
                v //= before
            v *= after
            r = rest[start::pe]
            r //= p
        i, j = np.searchsorted(hit_n, (lo, hi))
        np.floor_divide.at(rest, hit_n[i:j] - lo, hit_p[i:j])
        # what is left of n > 1 is 1 or a prime > sqrt(limit): a factor 1 or k
        np.greater(rest, 1, out=rest)
        rest *= k - 1
        rest += 1
        block *= rest
    for pe, _, before, after in large:
        v = vals[pe::pe]
        if before > 1:
            v //= before
        v *= after
    vals[0] = 0
    return DivisorTable(k=k, limit=limit, values=vals)


def sieve_dk_convolution(k: int, limit: int) -> DivisorTable:
    """Oracle for sieve_dk: k-1 divisor-convolution passes, O(k N log N).

    Each pass convolves the current table with the all-ones function:
    out[n] = sum_{dm = n} vals[d], so after k-1 passes vals[n] = d_k(n).
    The pairs with m <= sqrt(N) are added one m at a time, the others
    (where d < sqrt(N)) one d at a time.  Every pass holds d_j(n) <= d_k(n),
    so sieve_dk's dtype holds it.
    """
    dtype = _check_sieve_args(k, limit)
    vals = np.ones(limit + 1, dtype=dtype)
    vals[0] = 0
    root = math.isqrt(limit)
    for _ in range(k - 1):
        out = np.zeros(limit + 1, dtype=dtype)
        for m in range(1, root + 1):
            out[m : m * (limit // m) + 1 : m] += vals[1 : limit // m + 1]
        for d in range(1, limit // (root + 1) + 1):
            out[d * (root + 1) :: d] += vals[d]
        vals = out
    return DivisorTable(k=k, limit=limit, values=vals)


@lru_cache(maxsize=ARITH_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization ((p1, e1), (p2, e2), ...), primes
    increasing; adequate for n <= ~10^12.

    Cached: mobius, sigma, euler_phi and ramanujan_sum all start here.
    The result is a tuple of Python ints whatever the type of n.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors = []
    m = int(n)
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    # 6k +- 1 wheel
    p = 5
    while p * p <= m:
        for cand in (p, p + 2):
            if m % cand == 0:
                e = 0
                while m % cand == 0:
                    m //= cand
                    e += 1
                factors.append((cand, e))
        p += 6
    if m > 1:
        factors.append((m, 1))
    factors.sort()
    return tuple(factors)


@lru_cache(maxsize=ARITH_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, sorted; cached, hence a tuple."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


def euler_phi(n: int) -> int:
    phi = n
    for p, _ in factorize(n):
        phi -= phi // p
    return phi


def mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def sigma(n: int) -> int:
    """Sum of divisors of n."""
    out = 1
    for p, e in factorize(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a mod q by extended Euclid; loud failure if absent."""
    if q == 1:
        return 0
    r0, r1 = q, a % q
    s0, s1 = 0, 1
    while r1:
        t = r0 // r1
        r0, r1 = r1, r0 - t * r1
        s0, s1 = s1, s0 - t * s1
    if r0 != 1:
        raise ValueError(f"{a} is not invertible mod {q} (gcd = {r0})")
    return s0 % q


@dataclass(frozen=True)
class ReducedFraction:
    """A point h/q on the unit circle in lowest terms, 0 <= h < q."""

    h: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be >= 1")
        if not 0 <= self.h < self.q:
            raise ValueError("numerator must satisfy 0 <= h < q")
        if self.h == 0:
            if self.q != 1:
                raise ValueError("h = 0 requires q = 1")
        elif math.gcd(self.h, self.q) != 1:
            raise ValueError(f"{self.h}/{self.q} is not reduced")

    @classmethod
    def reduce(cls, a: int, q: int) -> "ReducedFraction":
        if q < 1:
            raise ValueError("denominator must be >= 1")
        a %= q
        if a == 0:
            return cls(0, 1)
        g = math.gcd(a, q)
        return cls(a // g, q // g)

    def __str__(self):
        return f"{self.h}/{self.q}"


def unit_phase(a: int, q: int) -> complex:
    """e(a/q) = exp(2*pi*i*a/q), evaluated from the reduced residue."""
    if q < 1:
        raise ValueError("q must be >= 1")
    r = a % q
    theta = 2.0 * math.pi * r / q
    return complex(math.cos(theta), math.sin(theta))


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


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n) via the divisor formula sum_{h | (q,n)} mu(q/h) * h.

    Exact integers; n may be negative or zero (c_q(0) = phi(q)).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    g = math.gcd(q, n)
    total = 0
    for h in divisors(g):
        total += mobius(q // h) * h
    return total


def ramanujan_sum_bruteforce(q: int, n: int) -> int:
    """Oracle: c_q(n) = sum over a mod q, (a,q)=1, of e(an/q).

    Rejects the result unless it is numerically a real integer.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += unit_phase(a * n, q)
    return round_to_integer(total)


def kloosterman_sum(n: int, m: int, q: int) -> complex:
    """S_{n,m}(q) = sum over a mod q, (a,q)=1, of e((n*a + m*abar)/q).

    Direct O(q) evaluation with modular inverses.  The value is real
    (a -> q - a pairs conjugate terms); returned as complex for uniform
    plumbing downstream.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return 1 + 0j
    total = 0j
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            abar = mod_inverse(a, q)
            total += unit_phase(n * a + m * abar, q)
    return total


@lru_cache(maxsize=512)
def _unit_roots(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units a mod q in increasing order (0 for q = 1), their inverses mod
    q, and e(k/q) for k < q; read-only int64, int64 and complex128 arrays.

    e(k/q) is the FFT of a unit impulse: rounded like the transform that sums
    them, they put Kloosterman columns within 7.1e-15 of 30-digit values for
    q <= 60 (1.1e-14 with np.exp).
    """
    if q * q >= 2**63:
        raise ValueError(f"unit inverses mod q = {q} would overflow int64 products")
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    # a^(phi(q) - 1) = a^-1 mod q by square-and-multiply; every product is
    # below q^2, exact in int64
    inverses = np.full(len(units), 1 % q, dtype=np.int64)
    base, e = units.copy(), len(units) - 1
    while e:
        if e & 1:
            inverses = inverses * base % q
        base = base * base % q
        e >>= 1
    impulse = np.zeros(q)
    impulse[1 % q] = 1.0
    roots = np.fft.ifft(impulse, norm="forward")
    tables = (units, inverses, roots)
    for table in tables:
        table.flags.writeable = False
    return tables


# (q, m) columns kept by kloosterman_table.  A column costs 8*q bytes, so
# the cache holds at most 4096 * 8 * q_max bytes: 3.9 MB while q <= 120
# (lemma4-scan --q-max 120 --entry-max 4 reads 328 columns, at prime powers)
KLOOSTERMAN_CACHE = 4096


@lru_cache(maxsize=KLOOSTERMAN_CACHE)
def kloosterman_table(q: int, m: int) -> np.ndarray:
    """The read-only column n -> S_{n,m}(q) for n = 0..q-1, float64.

    One length-q inverse DFT, unnormalised, of v[a] = e(m*abar/q) over the
    units a: S_{n,m}(q) = sum_a v[a] e(na/q).  S is real (a -> -a pairs
    conjugate terms), so only the real part is kept.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    units, inverses, roots = _unit_roots(q)
    v = np.zeros(q, dtype=np.complex128)
    v[units] = roots[(m % q) * inverses % q]
    column = np.fft.ifft(v, norm="forward").real.copy()  # the view would keep the complex array
    column.flags.writeable = False
    return column
