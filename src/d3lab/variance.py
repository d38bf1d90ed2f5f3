"""Progression errors, Parseval checks, and variance scans.

For a modulus q and cutoff x the lab computes

    S_r      = sum_{n <= x, n = r mod q} d_k(n)            (exact integers)
    Delta(a/q) = sum_{n <= x} d_k(n) e(na/q) - f_{q/(a,q)}(x)
    E_x(q,a) = S_a - M_x(q,a)

where f_d(x) is the Moebius-paired main term of mainterm_expsum and the
per-class main term used in the aggregates is its exact Fourier dual

    M_x(q,r) = (1/q) sum_{d | q} c_d(r) f_d(x).

With this pairing the Parseval identity

    sum_a |E_x(q,a)|^2 = (1/q) sum_a |Delta(a/q)|^2

holds by DFT unitarity up to FFT roundoff (~1e-13), and the divisor
decomposition sum_a |Delta(a/q)|^2 = sum_{d|q} sum'_h |Delta(h/d)|^2
holds because the f_d values are shared between levels.  The agreement
of M_x(q,r) with the standalone residue formula mainterm_progression is
a measured invariant, not an assumption.

The module computes and never formats: VarianceReport holds the numbers,
and cli.py writes them as CSV or JSON with every other table.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # numpy 2 loads it on first use: load it here, at import

from .arith import DivisorTable, divisors
from .expsum import cq_table
from .mainterm import mainterm_expsum, mainterm_progression

__all__ = [
    "VarianceReport",
    "bound_bhs",
    "bound_nguyen",
    "bound_second_moment",
    "bound_first_moment",
    "delta_all",
    "dft_direct",
    "divisor_decomposition_check",
    "exponent_scan",
    "fit_log_slopes",
    "fold_progression_sums",
    "progression_error",
    "progression_sums",
    "variance_report",
]


def progression_sums(q: int, x: float, table: DivisorTable) -> np.ndarray:
    """S_r = sum_{n <= x, n = r mod q} d_k(n) for r = 0..q-1, exact int64.

    values[0..x] cut into rows of width w = q * ceil(256 / q): the column
    sums of the whole rows, a view of the table, plus the short last row,
    less values[0] (n = 0 is not in the sum), folded from w down to q.
    A small q alone would make a reduction whose inner loop is q elements
    long.  The table is unsigned, so the sums are taken in int64 and the
    short row is cast to it.
    """
    xi = int(x)
    if xi > table.limit:
        raise ValueError(f"sieve limit {table.limit} < x = {xi}")
    vals = table.values[: xi + 1]
    width = q * -(-256 // q)
    whole = len(vals) - len(vals) % width
    S = vals[:whole].reshape(-1, width).sum(axis=0, dtype=np.int64)
    S[: len(vals) - whole] += vals[whole:].astype(np.int64)
    S[0] -= int(vals[0])
    return fold_progression_sums(S, q)


def fold_progression_sums(S: np.ndarray, d: int) -> np.ndarray:
    """S_d from S_q for a divisor d of q = len(S): residues r mod q that
    agree mod d are summed, exactly."""
    if len(S) % d:
        raise ValueError(f"{d} does not divide q = {len(S)}")
    return S.reshape(-1, d).sum(axis=0)


def dft_direct(values: np.ndarray) -> np.ndarray:
    """O(q^2) direct transform sum_r v_r e(ra/q); oracle for the FFT path."""
    q = len(values)
    a = np.arange(q)
    return np.exp(2j * np.pi * np.outer(a, a % q) / q) @ values.astype(np.complex128)


def _class_main_terms(q: int, x: float, k: int) -> np.ndarray:
    """M_x(q, r) for r = 0..q-1 as the Fourier dual of the f_d values."""
    out = np.zeros(q)
    for d in divisors(q):
        fd = mainterm_expsum(d, x, k)
        out += cq_table(d)[np.arange(q) % d] * fd
    return out / q


def delta_all(
    q: int, x: float, table: DivisorTable, k: int = 3, *, sums: np.ndarray | None = None
) -> np.ndarray:
    """Delta(a/q) for a = 0..q-1: length-q DFT of the residue sums minus
    the reduced-point main term f_{q/(a,q)}(x).

    ``sums`` are the residue sums S_q when the caller already has them;
    otherwise they are computed from the table.  The DFT runs through
    numpy's pocketfft, which is chirp-based (Bluestein) for prime
    lengths, O(q log q) for every q; dft_direct is the retained O(q^2)
    oracle.
    """
    S = progression_sums(q, x, table) if sums is None else sums
    D = q * np.fft.ifft(S.astype(np.float64))
    f_at = np.zeros(q + 1)  # f_d at index d, for each d | q
    for d in divisors(q):
        f_at[d] = mainterm_expsum(d, float(x), k)
    return D - f_at[q // np.gcd(np.arange(q), q)]


def progression_error(q: int, a: int, x: float, table: DivisorTable, k: int = 3) -> float:
    """E_x(q,a) = S_{a mod q} - mainterm_progression(q, a, x)."""
    S = progression_sums(q, x, table)
    return float(S[a % q]) - mainterm_progression(q, a, float(x), k)


# ---------------------------------------------------------------------------
# reference bounds
# ---------------------------------------------------------------------------


def bound_nguyen(x: float, q: int) -> float:
    """Piecewise first-moment reference bound for d_3 (display (2)).

    Branches: x^{11/12} for q <= x^{1/4}; x^{7/9} q^{1/2} for
    x^{1/4} < q <= x^{4/9}; x for x^{4/9} < q <= x^{1/2};
    x^{5/6} q^{1/4} for x^{1/2} < q <= x^{2/3}; +inf outside the stated
    validity range (no bound claimed there).
    """
    if q < 1:
        raise ValueError("q >= 1 required")
    if q <= x**0.25:
        return x ** (11.0 / 12.0)
    if q <= x ** (4.0 / 9.0):
        return x ** (7.0 / 9.0) * q**0.5
    if q <= x**0.5:
        return float(x)
    if q <= x ** (2.0 / 3.0):
        return x ** (5.0 / 6.0) * q**0.25
    return math.inf


def bound_bhs(x: float, q: int) -> float:
    """Piecewise first-moment reference bound for d_2 (display (1))."""
    if q < 1:
        raise ValueError("q >= 1 required")
    if q <= x ** (1.0 / 6.0):
        return x**0.75
    if q <= x ** (1.0 / 3.0):
        return x ** (2.0 / 3.0) * q**0.5
    if q <= x**0.5:
        return x**0.7 * q**0.4
    if q <= x:
        return x**0.8 * q**0.2
    return math.inf


# the k whose moments have reference bounds: the only k of a variance report
BOUNDED_K = (2, 3)


def bound_second_moment(x: float, q: int, k: int) -> float:
    """Second-moment bound: x q^{3/2} for k=3, x for k=2 (Blomer form)."""
    if k == 3:
        return x * q**1.5
    if k == 2:
        return float(x)
    raise ValueError("k must be 2 or 3")


def bound_first_moment(x: float, q: int, k: int) -> float:
    """First-moment bound via Cauchy-Schwarz: x^{1/2} q^{3/4} (k=3), (xq)^{1/2} (k=2)."""
    if k == 3:
        return x**0.5 * q**0.75
    if k == 2:
        return (x * q) ** 0.5
    raise ValueError("k must be 2 or 3")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceReport:
    """Aggregates, reference bounds, and identity deviations at one (x, q)."""

    x: float
    q: int
    k: int
    v2_all: float
    v2_prim: float
    v2_e: float
    v1_prim: float
    v1_all: float
    bound_thm1: float
    bound_thm2: float
    bound_nguyen: float
    ratio2: float
    ratio1: float
    parseval_dev: float
    decomp_dev: float
    y_param: float


def variance_report(
    q: int,
    x: float,
    table: DivisorTable,
    k: int = 3,
) -> VarianceReport:
    """All aggregates at one (x, q), with the Parseval and divisor
    decomposition deviations recorded.

    Hermitian sanity (aggregates real and nonnegative) is asserted here;
    all reductions are fixed-order compensated sums.
    """
    S = progression_sums(q, x, table)
    M = _class_main_terms(q, float(x), k)
    E = S.astype(np.float64) - M
    delta = delta_all(q, x, table, k, sums=S)
    a = np.arange(q)
    prim = np.gcd(a, q) == 1

    # math.fsum reads a list faster than it iterates an array, to the same bits
    abs2 = delta.real**2 + delta.imag**2
    v2_all = math.fsum(abs2.tolist())
    v2_prim = math.fsum(abs2[prim].tolist())
    v2_e = math.fsum((E * E).tolist())
    v1_prim = math.fsum(np.abs(E[prim]).tolist())
    v1_all = math.fsum(np.abs(E).tolist())
    parseval_dev = abs(v2_e - v2_all / q) / max(v2_e, 1e-300)

    b1 = bound_second_moment(float(x), q, k)
    b2 = bound_first_moment(float(x), q, k)
    bn = bound_nguyen(float(x), q) if k == 3 else bound_bhs(float(x), q)
    return VarianceReport(
        x=float(x),
        q=q,
        k=k,
        v2_all=v2_all,
        v2_prim=v2_prim,
        v2_e=v2_e,
        v1_prim=v1_prim,
        v1_all=v1_all,
        bound_thm1=b1,
        bound_thm2=b2,
        bound_nguyen=bn,
        ratio2=v2_all / b1,
        ratio1=v1_prim / b2,
        parseval_dev=parseval_dev,
        decomp_dev=divisor_decomposition_check(q, x, table, k, sums=S, delta=delta),
        y_param=float(x) ** 0.5 * q**0.75,
    )


def divisor_decomposition_check(
    q: int,
    x: float,
    table: DivisorTable,
    k: int = 3,
    *,
    sums: np.ndarray | None = None,
    delta: np.ndarray | None = None,
) -> float:
    """Relative deviation of sum_a |Delta(a/q)|^2 from
    sum_{d|q} sum'_{h mod d} |Delta(h/d)|^2.

    Each level d gets its own DFT and main terms; its residue sums S_d
    are folded exactly from S_q (``sums``, computed from the table when
    not given).  The level d = q is ``delta`` = Delta(a/q) when the caller
    has it.  A proper level d < q is a function of (d, x, k, S_d) alone
    and is memoised on those values, so a scan that meets d under many
    moduli transforms it once; math.fsum is correctly rounded in any
    order, so the deviation does not depend on which levels were cached.
    """
    S = progression_sums(q, x, table) if sums is None else sums
    delta_q = delta_all(q, x, table, k, sums=S) if delta is None else delta
    lhs = math.fsum((delta_q.real**2 + delta_q.imag**2).tolist())
    levels = [_primitive_abs2(delta_q)]
    for d in divisors(q)[:-1]:
        S_d = fold_progression_sums(S, d)
        levels.append(_level_abs2(d, float(x), k, S_d.dtype.str, S_d.tobytes()))
    rhs = math.fsum(np.concatenate(levels).tolist())
    return abs(lhs - rhs) / max(lhs, 1e-300)


def _primitive_abs2(delta: np.ndarray) -> np.ndarray:
    """|Delta(h/d)|^2 at the reduced h mod d = len(delta) (h = 0 for d = 1)."""
    d = len(delta)
    prim = np.gcd(np.arange(d), d) == 1
    return delta.real[prim] ** 2 + delta.imag[prim] ** 2


@lru_cache(maxsize=256)
def _level_abs2(d: int, x: float, k: int, dtype: str, sums: bytes) -> np.ndarray:
    """One proper level of the decomposition: _primitive_abs2 of its own
    DFT of the residue sums S_d, passed as bytes so that they are the key."""
    S_d = np.frombuffer(sums, dtype=dtype)
    out = _primitive_abs2(delta_all(d, x, None, k, sums=S_d))
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def default_grid() -> list[tuple[int, int]]:
    """The acceptance grid q in {ceil(x^e)} for x in {10^4, 10^5, 10^6} and
    e in {1/3, 1/2, 2/3}, plus a dense modulus sweep 2..200 at x = 10^5."""
    grid = [(x, math.ceil(x**e)) for x in (10**4, 10**5, 10**6)
            for e in (1.0 / 3.0, 0.5, 2.0 / 3.0)]
    grid += [(10**5, q) for q in range(2, 201)]
    return sorted(set(grid))


def exponent_scan(
    grid: list[tuple[int, int]],
    table: DivisorTable,
    k: int = 3,
    *,
    workers: int = 1,
) -> list[VarianceReport]:
    """VarianceReport per grid point, deterministic grid order.

    Grid points are independent.  With workers > 1 (at most one per
    point) the scan forks that many processes, each with one pipe: worker
    w reads the parent's table through the fork, scans the interleaved
    share grid[w::workers] of the sorted grid and pickles its reports, or
    the exception it raised, to its pipe.  The parent reads every pipe to
    EOF, reaps every child even when one fails, re-raises a worker's
    exception, and merges the shares back into grid order, so output
    bytes do not depend on the worker count.  A worker that exits without
    a result is a ChildProcessError.  Where os.fork does not exist the
    scan is serial.
    """
    grid = sorted(set((int(x), int(q)) for x, q in grid))
    workers = min(workers, len(grid))
    if workers <= 1 or not hasattr(os, "fork"):
        return [variance_report(q, float(x), table, k) for x, q in grid]
    pids, fds = [], []
    try:
        for w in range(workers):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                _scan_worker(grid[w::workers], table, k, fds)
            pids.append(pid)
            os.close(fds.pop())  # the write end is the worker's alone
        blobs = [_read_to_eof(r) for r in fds]
    finally:
        for fd in fds:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    reports = [None] * len(grid)
    for w, (blob, status) in enumerate(zip(blobs, statuses)):
        try:
            kind, share = pickle.loads(blob)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"scan worker {w} exited with status {code} "
                                    "and no result") from None
        if kind == "err":
            raise share
        reports[w::workers] = share
    return reports


def _scan_worker(share, table: DivisorTable, k: int, fds: list[int]) -> None:
    """A forked worker: pickle ("ok", reports) of its share, or ("err",
    exception), to the write end fds[-1], and leave through os._exit, so
    that it never returns into the caller's stack, runs no atexit hook
    and flushes no inherited stdio."""
    code = 1
    try:
        for fd in fds[:-1]:  # the read ends, the worker's own among them
            os.close(fd)
        try:
            result = ("ok", [variance_report(q, float(x), table, k) for x, q in share])
        except Exception as exc:
            result = ("err", exc)
        with os.fdopen(fds[-1], "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def fit_log_slopes(reports: list[VarianceReport]) -> dict:
    """Least-squares slopes of log ratio2 and log ratio1 against (log x, log q)."""
    X = np.array([[1.0, math.log(r.x), math.log(r.q)] for r in reports])
    out = {}
    for name, vals in (
        ("ratio2", [r.ratio2 for r in reports]),
        ("ratio1", [r.ratio1 for r in reports]),
    ):
        y = np.log(np.maximum(vals, 1e-300))
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        out[name] = {"intercept": float(beta[0]), "slope_x": float(beta[1]), "slope_q": float(beta[2])}
    return out
