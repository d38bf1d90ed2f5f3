"""Command-line surface: one subcommand per operation family.

Each subcommand is declared once, beside its handler, by ``_command``
(its name, help text and flags), and ``build_parser`` loops over that
table.  A handler returns its exit code and its report text; ``main``
alone writes the text, to ``--out`` when it is given and to stdout
otherwise.  A handler refuses a request by raising: ``main`` turns a
UsageError into one ``error:`` line and exit 2, and a refused cost
(a cost guard, the sieve budget arith.MAX_SIEVE_LIMIT, a table beyond
64 bits) or a failed computation into one ``error:`` line and exit 1.
A refused request writes nothing; a failed check (exit 1) still writes
its report.  The cost guards are expsum's constants; ``--force`` lifts
those of rsum and corr, and rsum refuses past its guard without it.

Global flags go before the subcommand.  A ``--config`` file holds flat
``key=value`` lines with the keys cache_dir, threads, format and seed;
the global flags override it.

Exit codes: 0 success, 1 check failure (an asserted identity or bound
violated) or refused cost, 2 usage error.  All floating output is
printed with 12 significant digits so reports are byte-stable regression
fixtures; in JSON a NaN is null and an infinity the string "inf" or
"-inf".  Identical argv + config + seed produce byte-identical outputs
at any worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import arith, expsum, mainterm, variance, voronoi
from .arith import DivisorTable, ReducedFraction

CACHE_MAGIC = b"D3PL"
CACHE_VERSION = 1
# the Parseval and divisor-decomposition identities hold to this: an invariant, not a knob
IDENTITY_TOL = 1e-9


# config-file key -> (RunConfig field, value parser)
_CONFIG_KEYS = {
    "cache_dir": ("cache_dir", str),
    "threads": ("threads", int),
    "format": ("fmt", str),
    "seed": ("seed", int),
}


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs; file values are overridden by CLI flags."""

    cache_dir: str = ""
    threads: int = 0
    fmt: str = "csv"
    seed: int = 0

    def __post_init__(self):
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = one per CPU), got {self.threads}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        kw = {}
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key}")
            field, parse = _CONFIG_KEYS[key]
            kw[field] = parse(value.strip())
        return RunConfig(**kw)

    def workers(self) -> int:
        """Scan worker processes: threads, or one per CPU when it is 0.
        variance.exponent_scan forks them, one pipe each, and gives each an
        interleaved share of the grid; where os.fork is missing it scans
        serially."""
        return self.threads or os.cpu_count() or 1


# ---------------------------------------------------------------------------
# sieve cache
# ---------------------------------------------------------------------------


def cache_path(cache_dir: str, k: int, limit: int) -> Path:
    return Path(cache_dir) / f"dk{k}_{limit}.d3pl"


def _cache_digest(header: bytes, body: memoryview) -> bytes:
    """The u64 blake2b checksum of a cache file: its header, then its body."""
    import hashlib  # only the sieve cache hashes: commands without --cache-dir never load it

    checksum = hashlib.blake2b(header, digest_size=8)
    checksum.update(body)
    return checksum.digest()


def write_cache(table: DivisorTable, path: Path) -> None:
    """Binary layout: magic 'D3PL', u16 version, u8 k, u64 N, N x u32
    values, u64 blake2b checksum of everything before it.

    The values are hashed and written straight from the table, with no
    copy; a table that is not uint32 does not fit the format.  The file
    is written to a temporary name in the same directory and renamed over
    ``path``, so a reader sees the old file or the new one, never a
    partial write.
    """
    if table.values.dtype != np.uint32:
        raise OverflowError(f"a {table.values.dtype} table does not fit the 32-bit cache format")
    header = CACHE_MAGIC + struct.pack("<HBQ", CACHE_VERSION, table.k, table.limit)
    body = memoryview(table.values[1:].astype("<u4", copy=False))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.write(body)
                fh.write(_cache_digest(header, body))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(f"cannot write sieve cache {path}: {exc}") from exc


def read_cache(path: Path, k: int, limit: int) -> DivisorTable | None:
    """Returns the cached table, or None when absent/corrupt/mismatched.

    Once the header matches, the body is read straight into a fresh
    uint32 table and hashed there; the table is returned only when the
    checksum matches and nothing follows it.
    """
    head_len = 4 + 2 + 1 + 8
    try:
        with open(path, "rb") as fh:
            header = fh.read(head_len)
            if len(header) != head_len or header[:4] != CACHE_MAGIC:
                return None
            version, kk, nn = struct.unpack("<HBQ", header[4:])
            if version != CACHE_VERSION or kk != k or nn != limit:
                return None
            values = np.empty(limit + 1, dtype="<u4")
            values[0] = 0
            body = memoryview(values[1:])
            if fh.readinto(body) != body.nbytes:
                return None
            digest = fh.read(9)  # the 8 checksum bytes and nothing after them
    except OSError:
        return None
    if _cache_digest(header, body) != digest:
        return None
    return DivisorTable(k=k, limit=limit, values=values)


def load_or_build_table(cfg: RunConfig, k: int, limit: int) -> DivisorTable:
    """The d_k table to limit, read from --cache-dir when it is there; a
    table that is built is cached when the cache format holds it (uint32)."""
    if cfg.cache_dir:
        path = cache_path(cfg.cache_dir, k, limit)
        cached = read_cache(path, k, limit)
        if cached is not None:
            return cached
        if path.exists():
            print(f"warning: sieve cache {path} invalid, rebuilding", file=sys.stderr)
        table = arith.sieve_dk(k, limit)
        if table.values.dtype == np.uint32:
            write_cache(table, path)
        return table
    return arith.sieve_dk(k, limit)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def fmt12(v: float) -> str:
    """Stable 12-significant-digit rendering for regression fixtures."""
    return f"{v:.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _column(values) -> tuple[np.ndarray | list, bool]:
    """One report column, and whether it is printed as floats.

    A numpy array of kind "f" is a float column, any other non-object
    array is not; a list (or object array) is a float column when every
    value is a float.  A column that mixes floats with other values has
    no single format and raises TypeError.  Arrays are returned as they
    are, everything else as a list.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        return values, values.dtype.kind == "f"
    values = list(values)
    floats = [issubclass(t, float) for t in set(map(type, values))]
    if any(floats) and not all(floats):
        raise TypeError("a report column mixes floats with other values")
    return values, any(floats)


def _columns(names: list[str], columns) -> list[tuple[np.ndarray | list, bool]]:
    cols = [_column(c) for c in columns]
    if len(cols) != len(names) or len({len(v) for v, _ in cols}) > 1:
        raise ValueError(f"a table of {len(names)} names needs as many columns of one length")
    return cols


def _as_list(values: np.ndarray | list) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else values


def _transpose(rows: list, width: int) -> list:
    """The columns of a list of rows (width empty columns when there are none)."""
    return list(zip(*rows)) or [()] * width


def _cells(values: np.ndarray | list, is_float: bool):
    """One column's CSV cells: fmt12 for floats, str for everything else."""
    # "{:.12g}".format is fmt12 without a Python-level call per cell
    fmt = "{:.12g}".format if is_float else str
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        # catalog columns repeat a few values: format each distinct one once,
        # keyed on its bits, so that -0.0 and 0.0 keep their own cells
        distinct, where = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
        cells = [fmt(v) for v in distinct.view(values.dtype).tolist()]
        return np.array(cells, dtype=object)[where].tolist()
    return map(fmt, _as_list(values))


def _csv(meta: dict, names: list[str], columns) -> str:
    """Meta lines, the header, then one line per row."""
    cells = [_cells(values, is_float) for values, is_float in _columns(names, columns)]
    lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _json_float(v: float) -> float | str | None:
    """A float cell of the JSON mirror: rounded through fmt12 as in the CSV,
    NaN as null and an infinity as its fmt12 string, so the text is JSON."""
    if math.isfinite(v):
        return float(fmt12(v))
    return None if math.isnan(v) else fmt12(v)


def _rows_json(meta: dict, names: list[str], columns) -> str:
    """{"meta", "rows"}, float cells through _json_float."""
    import json

    cols = [list(map(_json_float, _as_list(values))) if is_float else _as_list(values)
            for values, is_float in _columns(names, columns)]
    doc = {"meta": meta, "rows": [dict(zip(names, r)) for r in zip(*cols)]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _table(fmt: str, meta: dict, names: list[str], columns) -> str:
    return _csv(meta, names, columns) if fmt == "csv" else _rows_json(meta, names, columns)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# subcommand name -> (handler, help text, flags), in the order of the parser's help
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, help_text: str, *flags):
    """Register the decorated handler as subcommand ``name`` with these
    flags.  A handler takes (args, cfg) and returns (exit code, report text)."""
    def register(fn):
        _COMMANDS[name] = (fn, help_text, flags)
        return fn
    return register


def _flag(name: str, type=int, default=None, **kw) -> tuple[str, dict]:
    """One flag: its option string and its add_argument keywords.  A flag
    with no default is required unless ``required=False`` is given."""
    kw.setdefault("required", default is None)
    return f"--{name}", {"type": type, "default": default, **kw}


def _nonnegative_int(text: str) -> int:
    """An integer >= 0: the type of flags whose 0 means "not given"."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _positive_int(text: str) -> int:
    """An integer >= 1: the type of moduli and of single indices n."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _prime(text: str) -> int:
    """A prime: the base p of a prime power p^k."""
    value = int(text)
    if value < 2 or arith.factorize(value) != ((value, 1),):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _positive_float(text: str) -> float:
    """A finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{value} is not a positive finite number")
    return value


def _float_at_least(low: float):
    """The type of a finite float flag >= low: a command's own lower bound."""
    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"{value} is not a finite number >= {low:g}")
        return value
    parse.__name__ = f"float >= {low:g}"
    return parse


def _int_in(low: int, high: int | None = None):
    """The type of an integer flag >= low (and <= high when given): a
    command's own range, read from the code that enforces it."""
    span = f">= {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value
    parse.__name__ = f"int {span}"
    return parse


class UsageError(Exception):
    """A check across flags failed: main prints one error: line and exits 2."""


def _window(args) -> voronoi.SmoothWindow:
    """The window of --x and --Y; a UsageError when 3Y > x.  Y >= 1 is the
    bound of the --Y flag itself."""
    if 3.0 * args.Y > args.x:
        raise UsageError(f"the window needs 3Y <= x, got x = {args.x:g} and Y = {args.Y:g}")
    return voronoi.SmoothWindow(x=args.x, Y=args.Y)


Q = _flag("q", _positive_int)
X = _flag("x", _positive_float)
Y = _flag("Y", _float_at_least(1.0))
# --k of each command, default 3: a sieve needs k >= 2 and main terms need
# the Stieltjes constants of zeta^k; Delta and the scan need both
SIEVE_K = _flag("k", _int_in(arith.K_MIN), default=3)
MAIN_K = _flag("k", _int_in(1, mainterm.K_MAX), default=3)
DELTA_K = _flag("k", _int_in(arith.K_MIN, mainterm.K_MAX), default=3)
N_MAX = _flag("n-max", _nonnegative_int, default=0)
FORCE = ("--force", {"action": "store_true", "help": "override cost guards"})
# The "c" meta cell of kernel and wtransform: the abscissa of U's defining
# integral over Re s = c.  Any 0 < c < 1/6 gives the same U, which the
# contour quadrature evaluates on a pole-free leg of its own; the cell stays
# because perfbench's reference outputs hold it.
U_ABSCISSA = 0.1


@_command("sieve", "build (and cache) the exact d_k table", SIEVE_K, _flag("n", _float_at_least(1.0)))
def _cmd_sieve(args, cfg: RunConfig) -> tuple[int, str]:
    table = load_or_build_table(cfg, args.k, int(args.n))
    return 0, f"d_{args.k} sieved to {table.limit}; sum = {table.prefix_sum(table.limit)}\n"


@_command("csum", "Ramanujan sum c_q(n), exact divisor formula, checked against the "
          "brute-force sum of e(an/q) over the units a", Q, _flag("n"))
def _cmd_csum(args, cfg: RunConfig) -> tuple[int, str]:
    v = arith.ramanujan_sum(args.q, args.n)
    brute = arith.ramanujan_sum_bruteforce(args.q, args.n)
    dev = abs(v - brute)
    return (1 if dev else 0), f"{v}\nbrute: {brute}  |dev| = {dev}\n"


@_command("kloosterman", "Kloosterman sum S_{n,m}(q), direct evaluation, checked against "
          "the FFT column of kloosterman_table", _flag("n"), _flag("m"), Q)
def _cmd_kloosterman(args, cfg: RunConfig) -> tuple[int, str]:
    v = arith.kloosterman_sum(args.n, args.m, args.q)
    fft = float(arith.kloosterman_table(args.q, args.m)[args.n % args.q])
    dev = abs(v - fft)
    text = f"{fmt12(v.real)} {fmt12(v.imag)}\nfft: {fmt12(fft)}  |dev| = {fmt12(dev)}\n"
    return (1 if dev > 1e-9 * (1 + abs(v)) else 0), text


@_command("rsum", "triple exponential sum R_{a,b,c}(h/q): fast divisor reduction, "
          "checked against the brute-force oracle, whose cost guard refuses "
          f"q > {expsum.BRUTE_Q_GUARD} without --force", *map(_flag, "abch"), Q, FORCE)
def _cmd_rsum(args, cfg: RunConfig) -> tuple[int, str]:
    pt = ReducedFraction.reduce(args.h, args.q)
    fast = expsum.r_sum_fast(args.a, args.b, args.c, pt)
    brute = expsum.r_sum_bruteforce(args.a, args.b, args.c, pt, force=args.force)
    dev = abs(fast - brute)
    text = (f"fast: {fmt12(fast.real)} {fmt12(fast.imag)}\n"
            f"brute: {fmt12(brute.real)} {fmt12(brute.imag)}  |dev| = {fmt12(dev)}\n")
    return (1 if dev > 1e-6 else 0), text


@_command("asum", "divisor-weighted sum A_{h/q}(n) over ordered triples",
          _flag("h"), Q, _flag("n", _positive_int))
def _cmd_asum(args, cfg: RunConfig) -> tuple[int, str]:
    v = expsum.a_sum(ReducedFraction.reduce(args.h, args.q), args.n)
    return 0, f"{fmt12(v.real)} {fmt12(v.imag)}\n"


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("triple must be a,b,c")
    return tuple(parts)


@_command("corr", "correlation of two triple sums over reduced residues; its cost guard "
          f"refuses q > {expsum.CORRELATION_Q_GUARD} without --force",
          _flag("triple", _parse_triple), _flag("triple2", _parse_triple), Q, FORCE)
def _cmd_corr(args, cfg: RunConfig) -> tuple[int, str]:
    v = expsum.correlation_sums(args.q, args.triple, args.triple2, force=args.force)
    return 0, fmt12(v[0]) + "\n"


@_command("lemma2-check", "multiplicativity of the correlation sum in the modulus, with the "
          "splitting identity sampled", _flag("q1", _positive_int), _flag("q2", _positive_int),
          _flag("samples", _nonnegative_int, default=8))
def _cmd_lemma2_check(args, cfg: RunConfig) -> tuple[int, str]:
    q1, q2 = args.q1, args.q2
    if math.gcd(q1, q2) != 1:
        raise UsageError(f"lemma2-check needs coprime moduli, got q1 = {q1} and q2 = {q2}")
    # numpy.random brings secrets, hashlib and OpenSSL's libcrypto, about
    # 6 MB of RSS: only this command and a sampled lemma3-check catalog
    # draw numbers, so only they load it
    from numpy.random import default_rng

    # sample i is t1 then t2, the stream of drawing each triple in turn
    draws = default_rng(cfg.seed).integers(0, q1 * q2, size=(args.samples, 2, 3))
    t1, t2 = draws[:, 0], draws[:, 1]
    rep = expsum.correlation_multiplicativity_check(q1, q2, t1, t2)
    failures = int(np.count_nonzero(~rep["passed"]))
    meta = {"q1": q1, "q2": q2, "seed": cfg.seed, "failures": failures}
    cols = ["q1", "q2", "a", "b", "c", "a2", "b2", "c2", "s12", "s1", "s2",
            "abs_dev", "split_dev", "passed"]
    n = args.samples
    columns = [np.full(n, q1), np.full(n, q2), *t1.T, *t2.T,
               *(rep[key] for key in ("s12", "s1", "s2", "deviation", "splitting_deviation")),
               rep["passed"].astype(np.int64)]
    return (0 if failures == 0 else 1), _table(cfg.fmt, meta, cols, columns)


@_command("lemma3-check", "prime-power closed form of the Ramanujan-twisted pair sum vs "
          "its exact value; emits the match catalog", _flag("p", _prime),
          _flag("k", _positive_int))
def _cmd_lemma3_check(args, cfg: RunConfig) -> tuple[int, str]:
    cat = expsum.prime_power_catalog(args.p, args.k, seed=cfg.seed)
    n = len(cat.brute)
    abs_dev = np.abs(cat.brute - cat.closed)
    mismatches = int(np.count_nonzero(abs_dev))
    meta = {"p": args.p, "k": args.k, "tuples": n, "mismatches": mismatches,
            "seed": cfg.seed}
    cols = ["q", "a", "a2", "b", "b2", "case",
            "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_dev", "rel_dev", "match"]
    zero = np.zeros(n, dtype=np.int64)
    columns = [np.full(n, cat.q), *cat.tuples.T, cat.case, cat.brute, zero, cat.closed, zero,
               abs_dev, abs_dev / (1 + np.abs(cat.brute)), (abs_dev == 0).astype(np.int64)]
    return (0 if mismatches == 0 else 1), _table(cfg.fmt, meta, cols, columns)


@_command("lemma4-scan", "max correlation ratio against the divisor-sum bound over "
          "q = 1..q-max and the triples with entries 1..entry-max; q starts at 1, where "
          "every ratio is 1, so the max is at least 1",
          _flag("q-max", _positive_int, default=24),
          _flag("entry-max", _positive_int, default=4))
def _cmd_correlation_bound_scan(args, cfg: RunConfig) -> tuple[int, str]:
    best = expsum.correlation_bound_scan(list(range(1, args.q_max + 1)), args.entry_max)
    return 0, (f"max ratio (log power {expsum.LOG_POWER}): {fmt12(best['ratio'])} "
               f"at q={best.get('q')}, triples {best.get('triple')} x {best.get('triple2')}\n")


@_command("corr-identity", "measured deviation of the coprime correlation identity "
          "sum_h A(n) conj(A(m)) = q^3 c_q(n-m) d_3(n) d_3(m)",
          _flag("n-max", _nonnegative_int, default=6),
          _flag("q-list", _positive_int, default=(3, 5, 7), nargs="+"))
def _cmd_corr_identity(args, cfg: RunConfig) -> tuple[int, str]:
    rows = []
    for q in args.q_list:
        for n in range(1, args.n_max + 1):
            if math.gcd(n, q) != 1:
                continue
            for m in range(1, args.n_max + 1):
                if math.gcd(m, q) != 1:
                    continue
                lhs, rhs = expsum.corr_identity_values(n, m, q)
                rows.append([q, n, m, lhs.real, lhs.imag, rhs.real, rhs.imag,
                             abs(lhs - rhs), abs(lhs - rhs) / q**3])
    meta = {"n_max": args.n_max, "rel_dev_is": "abs_dev/q^3"}
    cols = ["q", "n", "m", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_dev", "rel_dev"]
    return 0, _table(cfg.fmt, meta, cols, _transpose(rows, len(cols)))


@_command("mainterm", "progression main term and its log-polynomial", Q, _flag("a"),
          _flag("x", _float_at_least(2.0)), MAIN_K)
def _cmd_mainterm(args, cfg: RunConfig) -> tuple[int, str]:
    import json  # only this command and JSON reports use json: load it here

    text = fmt12(mainterm.mainterm_progression(args.q, args.a, args.x, args.k)) + "\n"
    if args.k == 3:
        rec = mainterm.mainterm_poly(args.q, args.a).as_record()
        rec = {k: (fmt12(v) if isinstance(v, float) else v) for k, v in rec.items()}
        text += json.dumps(rec, sort_keys=True) + "\n"
    return 0, text


@_command("kernel", "oscillatory kernel U(X) on a geometric grid",
          _flag("x-min", _positive_float, 1.0), _flag("x-max", _positive_float, 1e3),
          _flag("points", _positive_int, default=25))
def _cmd_kernel(args, cfg: RunConfig) -> tuple[int, str]:
    xs = np.geomspace(args.x_min, args.x_max, args.points)
    U = voronoi.kernel_U(xs)
    meta = {"c": U_ABSCISSA, "points": args.points}
    return 0, _table(cfg.fmt, meta, ["X", "U"], [xs, U])


@_command("wtransform", "window transform w_hat_q(n)",
          Q, _flag("n", _positive_int, 1), N_MAX, X, Y)
def _cmd_wtransform(args, cfg: RunConfig) -> tuple[int, str]:
    window = _window(args)
    n_values = range(1, args.n_max + 1) if args.n_max else range(args.n, args.n + 1)
    w_hat = voronoi.w_transform(args.q, n_values, window)
    meta = {"x": args.x, "Y": args.Y, "q": args.q, "c": U_ABSCISSA,
            "T": f"2e*(N*x)^(1/3)"}
    return 0, _table(cfg.fmt, meta, ["n", "w_hat"], [n_values, w_hat])


@_command("voronoi-compare", "magnitude comparison: leading dual-sum term vs the smoothed "
          "exponential-sum error", Q, X, Y, N_MAX)
def _cmd_voronoi_compare(args, cfg: RunConfig) -> tuple[int, str]:
    if args.q < 2:
        raise UsageError("q = 1 has no h to compare; voronoi-compare needs q >= 2")
    window = _window(args)
    table = load_or_build_table(cfg, 3, int(args.x))
    rows, worst = [], 0.0
    for h in range(1, args.q):
        if math.gcd(h, args.q) != 1:
            continue
        pt = ReducedFraction(h, args.q)
        direct = voronoi.smoothed_delta_direct(pt, window, table)
        dual, tail = voronoi.dual_sum_eval(pt, window, args.n_max or None)
        ratio = abs(dual) / max(abs(direct), 1e-300)
        worst = max(worst, max(ratio, 1.0 / ratio))
        rows.append([args.q, h, abs(direct), abs(dual), ratio, tail])
    meta = {"x": args.x, "Y": args.Y, "q": args.q}
    cols = ["q", "h", "abs_direct", "abs_dual", "ratio", "tail_est"]
    return (0 if worst <= 10.0 else 1), _table(cfg.fmt, meta, cols, _transpose(rows, len(cols)))


@_command("delta", "Delta(a/q) for all a via the chirp-length DFT", Q, X, DELTA_K)
def _cmd_delta(args, cfg: RunConfig) -> tuple[int, str]:
    table = load_or_build_table(cfg, args.k, max(int(args.x), 1))
    d = variance.delta_all(args.q, args.x, table, args.k)
    return 0, _table(cfg.fmt, {"x": args.x, "q": args.q}, ["a", "re", "im"],
                     [range(args.q), d.real, d.imag])


# variance report columns in CSV order, each the VarianceReport field name.lower()
_VARIANCE_COLUMNS = ["x", "q", "V2_all", "V2_prim", "V2_E", "V1_prim", "bound_thm1",
                     "bound_thm2", "bound_nguyen", "ratio2", "ratio1", "parseval_dev",
                     "decomp_dev"]


def _variance_table(reports: list, fmt: str) -> tuple[list[str], list[list]]:
    """The names and columns of a variance report table; the JSON mirror adds
    V1_all, k and Y_param."""
    names = _VARIANCE_COLUMNS + (["V1_all", "k", "Y_param"] if fmt == "json" else [])
    return names, [[getattr(r, name.lower()) for r in reports] for name in names]


def _parse_grid(text: str) -> list[tuple[int, int]]:
    """--grid "x:q,x:q,...": (x, q) points with x, q >= 1; x may be written 1e4."""
    grid = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 2:
            raise argparse.ArgumentTypeError(f"grid point {part!r} is not x:q")
        try:
            x, q = int(float(fields[0])), int(fields[1])
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"grid point {part!r} is not two numbers") from None
        if x < 1 or q < 1:
            raise argparse.ArgumentTypeError(f"grid point {part!r} needs x >= 1 and q >= 1")
        grid.append((x, q))
    return grid


@_command("scan", "variance report per (x, q) grid point, each checked by the Parseval "
          "and divisor-decomposition identities, with the slopes the grid determines "
          "(nan where it does not); bounds and ratios are nan for k >= 4",
          _flag("grid", _parse_grid, required=False,
                help="comma list x:q, e.g. 1e4:22,1e4:100"), DELTA_K)
def _cmd_scan(args, cfg: RunConfig) -> tuple[int, str]:
    grid = args.grid or variance.default_grid()
    xmax = max(x for x, _ in grid)
    table = load_or_build_table(cfg, args.k, xmax)
    reports = variance.exponent_scan(grid, table, args.k, workers=cfg.workers())
    slopes = variance.fit_log_slopes(reports)
    meta = {
        "k": args.k,
        "sieve_limit": xmax,
        "Y_rule": "x^(1/2)*q^(3/4)",
        "slope2_x": fmt12(slopes["ratio2"]["slope_x"]),
        "slope2_q": fmt12(slopes["ratio2"]["slope_q"]),
    }
    ok = all(r.parseval_dev <= IDENTITY_TOL and r.decomp_dev <= IDENTITY_TOL for r in reports)
    return (0 if ok else 1), _table(cfg.fmt, meta, *_variance_table(reports, cfg.fmt))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The d3lab parser, built once per process from ``_COMMANDS``: parsing
    leaves it unchanged and every default it hands out is immutable."""
    ap = argparse.ArgumentParser(
        prog="d3lab",
        allow_abbrev=False,
        description="Numerical laboratory for the ternary divisor function in "
        "arithmetic progressions: exact exponential sums, residue main terms, "
        "oscillatory kernels, and variance experiments.",
    )
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--cache-dir", help="directory for binary sieve caches")
    ap.add_argument("--threads", type=int,
                    help="worker processes for scans, forked with one pipe each and given "
                    "interleaved shares of the grid; serial where os.fork is missing "
                    "(0 = one per CPU)")
    ap.add_argument("--format", choices=("csv", "json"), help="report format")
    ap.add_argument("--seed", type=int, help="seed for sampled scans")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the report to this file")
        for option, kw in flags:
            p.add_argument(option, **kw)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flags = {"cache_dir": args.cache_dir, "threads": args.threads, "fmt": args.format,
             "seed": args.seed}
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        cfg = replace(cfg, **{key: v for key, v in flags.items() if v is not None})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, text = args.fn(args, cfg)
        _emit(text, args.out)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (expsum.GuardError, arith.CapacityError, ValueError, OSError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
