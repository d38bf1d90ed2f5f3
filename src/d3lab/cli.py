"""Command-line surface: one subcommand per operation family.

Exit codes: 0 success, 1 check failure (an asserted identity or bound
violated), 2 usage error.  All floating output is printed with 12
significant digits so reports are byte-stable regression fixtures.
Identical argv + config + seed produce byte-identical outputs at any
worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import arith, expsum, mainterm, variance, voronoi
from .arith import DivisorTable, ReducedFraction
from .variance import fmt12

CACHE_MAGIC = b"D3PL"
CACHE_VERSION = 1


# config-file key -> (RunConfig field, value parser)
_CONFIG_KEYS = {
    "sieve_limit": ("sieve_limit", int),
    "cache_dir": ("cache_dir", str),
    "threads": ("threads", int),
    "tolerance": ("tolerance", float),
    "format": ("fmt", str),
    "seed": ("seed", int),
}


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs; file values are overridden by CLI flags."""

    sieve_limit: int = 10**7
    cache_dir: str = ""
    threads: int = 0
    tolerance: float = 0.0
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
        """Scan worker processes: threads, or one per CPU when it is 0."""
        return self.threads or os.cpu_count() or 1

    def identity_tolerance(self) -> float:
        """Threshold for the Parseval/decomposition identity checks."""
        return self.tolerance if self.tolerance > 0 else 1e-9


# ---------------------------------------------------------------------------
# sieve cache
# ---------------------------------------------------------------------------


def cache_path(cache_dir: str, k: int, limit: int) -> Path:
    return Path(cache_dir) / f"dk{k}_{limit}.d3pl"


def write_cache(table: DivisorTable, path: Path) -> None:
    """Binary layout: magic 'D3PL', u16 version, u8 k, u64 N, N x u32
    values, u64 blake2b checksum of everything before it.

    The file is written to a temporary name in the same directory and
    renamed over ``path``, so a reader sees the old file or the new one,
    never a partial write.
    """
    vals = table.values[1:]
    if vals.max(initial=0) >= 2**32:
        raise OverflowError("table values exceed the 32-bit cache format")
    header = CACHE_MAGIC + struct.pack("<HBQ", CACHE_VERSION, table.k, table.limit)
    body = vals.astype("<u4").tobytes()
    digest = hashlib.blake2b(header + body, digest_size=8).digest()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.write(body)
                fh.write(digest)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(f"cannot write sieve cache {path}: {exc}") from exc


def read_cache(path: Path, k: int, limit: int) -> DivisorTable | None:
    """Returns the cached table, or None when absent/corrupt/mismatched."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    head_len = 4 + 2 + 1 + 8
    if len(blob) < head_len + 8 or blob[:4] != CACHE_MAGIC:
        return None
    version, kk, nn = struct.unpack("<HBQ", blob[4:head_len])
    if version != CACHE_VERSION or kk != k or nn != limit:
        return None
    body = blob[head_len:-8]
    if len(body) != 4 * limit:
        return None
    if hashlib.blake2b(blob[:-8], digest_size=8).digest() != blob[-8:]:
        return None
    values = np.zeros(limit + 1, dtype=np.int64)
    values[1:] = np.frombuffer(body, dtype="<u4")
    return DivisorTable(k=k, limit=limit, values=values)


def load_or_build_table(cfg: RunConfig, k: int, limit: int) -> DivisorTable:
    if cfg.cache_dir:
        path = cache_path(cfg.cache_dir, k, limit)
        cached = read_cache(path, k, limit)
        if cached is not None:
            return cached
        if path.exists():
            print(f"warning: sieve cache {path} invalid, rebuilding", file=sys.stderr)
        table = arith.sieve_dk(k, limit)
        write_cache(table, path)
        return table
    return arith.sieve_dk(k, limit)


def cache_roundtrip(table: DivisorTable, cache_dir: str) -> DivisorTable:
    """Write-then-read; the result must be bit-exact."""
    path = cache_path(cache_dir, table.k, table.limit)
    write_cache(table, path)
    back = read_cache(path, table.k, table.limit)
    if back is None or not np.array_equal(back.values, table.values):
        raise OSError(f"sieve cache roundtrip through {path} failed")
    return back


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(meta: dict, columns: list[str], rows: list[list]) -> str:
    lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt12(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_json(meta: dict, columns: list[str], rows: list[list]) -> str:
    def norm(v):
        return float(fmt12(v)) if isinstance(v, float) else v

    doc = {"meta": meta, "rows": [dict(zip(columns, map(norm, r))) for r in rows]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _table_out(fmt: str, meta: dict, columns: list[str], rows: list[list], out) -> None:
    text = _csv(meta, columns, rows) if fmt == "csv" else _rows_json(meta, columns, rows)
    _emit(text, out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sieve(args, cfg: RunConfig) -> int:
    table = load_or_build_table(cfg, args.k, int(args.n))
    print(f"d_{args.k} sieved to {table.limit}; sum = {table.prefix_sum(table.limit)}")
    return 0


def _cmd_csum(args, cfg: RunConfig) -> int:
    print(arith.ramanujan_sum(args.q, args.n))
    return 0


def _cmd_kloosterman(args, cfg: RunConfig) -> int:
    v = arith.kloosterman_sum(args.n, args.m, args.q)
    print(f"{fmt12(v.real)} {fmt12(v.imag)}")
    return 0


def _cmd_rsum(args, cfg: RunConfig) -> int:
    pt = ReducedFraction.reduce(args.h, args.q)
    fast = expsum.r_sum_fast(args.a, args.b, args.c, pt)
    print(f"fast: {fmt12(fast.real)} {fmt12(fast.imag)}")
    q_guard = 10**9 if args.force else 200
    if args.q <= q_guard:
        brute = expsum.r_sum_bruteforce(args.a, args.b, args.c, pt, q_guard=q_guard)
        dev = abs(fast - brute)
        print(f"brute: {fmt12(brute.real)} {fmt12(brute.imag)}  |dev| = {fmt12(dev)}")
        if dev > 1e-6:
            return 1
    return 0


def _cmd_asum(args, cfg: RunConfig) -> int:
    v = expsum.a_sum(ReducedFraction.reduce(args.h, args.q), args.n)
    print(f"{fmt12(v.real)} {fmt12(v.imag)}")
    return 0


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("triple must be a,b,c")
    return tuple(parts)


def _cmd_corr(args, cfg: RunConfig) -> int:
    v = expsum.correlation_sum(
        expsum.CorrelationArgs(args.triple, args.triple2, args.q),
        q_guard=10**9 if args.force else 60,
    )
    print(fmt12(v.real))
    return 0


def _cmd_lemma2_check(args, cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    rows, failures = [], 0
    for _ in range(args.samples):
        t1 = tuple(int(v) for v in rng.integers(0, args.q1 * args.q2, size=3))
        t2 = tuple(int(v) for v in rng.integers(0, args.q1 * args.q2, size=3))
        rep = expsum.correlation_multiplicativity_check(args.q1, args.q2, t1, t2)
        failures += 0 if rep["passed"] else 1
        rows.append(
            [args.q1, args.q2, *t1, *t2, rep["s12"], rep["s1"], rep["s2"], rep["deviation"],
             rep["splitting_deviation"], int(rep["passed"])]
        )
    meta = {"q1": args.q1, "q2": args.q2, "seed": cfg.seed, "failures": failures}
    cols = ["q1", "q2", "a", "b", "c", "a2", "b2", "c2", "s12", "s1", "s2",
            "abs_dev", "split_dev", "passed"]
    _table_out(cfg.fmt, meta, cols, rows, args.out)
    return 0 if failures == 0 else 1


def _cmd_lemma3_check(args, cfg: RunConfig) -> int:
    rows = expsum.prime_power_catalog(args.p, args.k, seed=cfg.seed)
    mismatches = sum(1 for r in rows if not r["match"])
    meta = {"p": args.p, "k": args.k, "tuples": len(rows), "mismatches": mismatches,
            "seed": cfg.seed}
    cols = ["q", "a", "a2", "b", "b2", "case",
            "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_dev", "rel_dev", "match"]
    out_rows = [
        [r["q"], r["a"], r["a2"], r["b"], r["b2"], r["case"],
         r["brute"], 0, r["closed"], 0, abs(r["brute"] - r["closed"]),
         float(abs(r["brute"] - r["closed"])) / (1 + abs(r["brute"])), int(r["match"])]
        for r in rows
    ]
    _table_out(cfg.fmt, meta, cols, out_rows, args.out)
    return 0 if mismatches == 0 else 1


def _cmd_correlation_bound_scan(args, cfg: RunConfig) -> int:
    best = expsum.correlation_bound_scan(list(range(1, args.q_max + 1)), args.entry_max)
    print(f"max ratio (log power 3): {fmt12(best['ratio'])} at q={best.get('q')}, "
          f"triples {best.get('triple')} x {best.get('triple2')}")
    return 0


def _cmd_corr_identity(args, cfg: RunConfig) -> int:
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
    _table_out(cfg.fmt, meta, cols, rows, args.out)
    return 0


def _cmd_mainterm(args, cfg: RunConfig) -> int:
    val = mainterm.mainterm_progression(args.q, args.a, args.x, args.k)
    print(fmt12(val))
    if args.k == 3:
        rec = mainterm.mainterm_poly(args.q, args.a).as_record()
        rec = {k: (fmt12(v) if isinstance(v, float) else v) for k, v in rec.items()}
        print(json.dumps(rec, sort_keys=True))
    return 0


def _cmd_kernel(args, cfg: RunConfig) -> int:
    quad = voronoi.KernelQuadrature(c=args.c_abscissa)
    xs = np.geomspace(args.x_min, args.x_max, args.points)
    rows = [[float(X), voronoi.kernel_U(float(X), quad)] for X in xs]
    meta = {"c": args.c_abscissa, "points": args.points}
    _table_out(cfg.fmt, meta, ["X", "U"], rows, args.out)
    return 0


def _cmd_wtransform(args, cfg: RunConfig) -> int:
    window = voronoi.SmoothWindow(x=args.x, Y=args.Y)
    quad = voronoi.KernelQuadrature(c=args.c_abscissa)
    n_values = range(1, args.n_max + 1) if args.n_max else [args.n]
    rows = [[n, voronoi.w_transform(args.q, n, window, quad)] for n in n_values]
    meta = {"x": args.x, "Y": args.Y, "q": args.q, "c": args.c_abscissa,
            "T": f"2e*(N*x)^(1/3)"}
    _table_out(cfg.fmt, meta, ["n", "w_hat"], rows, args.out)
    return 0


def _cmd_voronoi_compare(args, cfg: RunConfig) -> int:
    window = voronoi.SmoothWindow(x=args.x, Y=args.Y)
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
    _table_out(cfg.fmt, meta, ["q", "h", "abs_direct", "abs_dual", "ratio", "tail_est"],
               rows, args.out)
    return 0 if worst <= 10.0 else 1


def _cmd_delta(args, cfg: RunConfig) -> int:
    table = load_or_build_table(cfg, args.k, max(int(args.x), 1))
    d = variance.delta_all(args.q, args.x, table, args.k)
    rows = [[a, float(d[a].real), float(d[a].imag)] for a in range(args.q)]
    _table_out(cfg.fmt, {"x": args.x, "q": args.q}, ["a", "re", "im"], rows, args.out)
    return 0


def _cmd_variance(args, cfg: RunConfig) -> int:
    table = load_or_build_table(cfg, args.k, int(args.x))
    rep = variance.variance_report(args.q, args.x, table, args.k, with_decomposition=True)
    text = (variance.reports_to_csv([rep], {"k": args.k})
            if cfg.fmt == "csv" else variance.reports_to_json([rep], {"k": args.k}))
    _emit(text, args.out)
    thr = cfg.identity_tolerance()
    return 0 if rep.parseval_dev <= thr and rep.decomp_dev <= thr else 1


def _cmd_decomp_check(args, cfg: RunConfig) -> int:
    table = load_or_build_table(cfg, args.k, int(args.x))
    dev = variance.divisor_decomposition_check(args.q, args.x, table, args.k)
    print(fmt12(dev))
    return 0 if dev <= cfg.identity_tolerance() else 1


def _cmd_scan(args, cfg: RunConfig) -> int:
    if args.grid:
        grid = []
        for part in args.grid.split(","):
            xs, qs = part.split(":")
            grid.append((int(float(xs)), int(qs)))
    else:
        grid = variance.default_grid()
    xmax = max(x for x, _ in grid)
    if xmax > cfg.sieve_limit:
        print(f"error: grid needs x up to {xmax} but sieve_limit is {cfg.sieve_limit}",
              file=sys.stderr)
        return 2
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
    text = (variance.reports_to_csv(reports, meta)
            if cfg.fmt == "csv" else variance.reports_to_json(reports, meta))
    _emit(text, args.out)
    thr = cfg.identity_tolerance()
    ok = all(r.parseval_dev <= thr for r in reports) and all(
        math.isnan(r.decomp_dev) or r.decomp_dev <= thr for r in reports
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="d3lab",
        allow_abbrev=False,
        description="Numerical laboratory for the ternary divisor function in "
        "arithmetic progressions: exact exponential sums, residue main terms, "
        "oscillatory kernels, and variance experiments.",
    )
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--cache-dir", help="directory for binary sieve caches")
    ap.add_argument("--threads", type=int, help="worker processes for scans (0 = auto)")
    ap.add_argument("--format", choices=("csv", "json"), help="report format")
    ap.add_argument("--seed", type=int, help="seed for sampled scans")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the report to this file")
        return p

    p = add("sieve", _cmd_sieve, "build (and cache) the exact d_k table")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=float, required=True)

    p = add("csum", _cmd_csum, "Ramanujan sum c_q(n), exact divisor formula")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("kloosterman", _cmd_kloosterman, "Kloosterman sum S_{n,m}(q), direct evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("rsum", _cmd_rsum,
            "triple exponential sum R_{a,b,c}(h/q): fast divisor reduction, "
            "checked against the brute-force oracle when feasible")
    for flag in ("a", "b", "c", "h", "q"):
        p.add_argument(f"--{flag}", type=int, required=True)
    p.add_argument("--force", action="store_true", help="override cost guards")

    p = add("asum", _cmd_asum, "divisor-weighted sum A_{h/q}(n) over ordered triples")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("corr", _cmd_corr, "correlation of two triple sums over reduced residues")
    p.add_argument("--triple", type=_parse_triple, required=True)
    p.add_argument("--triple2", type=_parse_triple, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--force", action="store_true")

    p = add("lemma2-check", _cmd_lemma2_check,
            "multiplicativity of the correlation sum in the modulus, with the "
            "splitting identity sampled")
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--samples", type=int, default=8)

    p = add("lemma3-check", _cmd_lemma3_check,
            "prime-power closed form of the Ramanujan-twisted pair sum vs "
            "exact brute force; emits the match catalog")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("lemma4-scan", _cmd_correlation_bound_scan,
            "max correlation ratio against the divisor-sum bound over a family")
    p.add_argument("--q-max", type=int, default=24)
    p.add_argument("--entry-max", type=int, default=4)

    p = add("corr-identity", _cmd_corr_identity,
            "measured deviation of the coprime correlation identity "
            "sum_h A(n) conj(A(m)) = q^3 c_q(n-m) d_3(n) d_3(m)")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--q-list", type=int, nargs="+", default=[3, 5, 7])

    p = add("mainterm", _cmd_mainterm, "progression main term and its log-polynomial")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=int, default=3)

    p = add("kernel", _cmd_kernel, "oscillatory kernel U(X) on a geometric grid")
    p.add_argument("--x-min", type=float, default=1.0)
    p.add_argument("--x-max", type=float, default=1e3)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--c-abscissa", type=float, default=0.10)

    p = add("wtransform", _cmd_wtransform, "window transform w_hat_q(n)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--n-max", type=int, default=0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--c-abscissa", type=float, default=0.10)

    p = add("voronoi-compare", _cmd_voronoi_compare,
            "magnitude comparison: leading dual-sum term vs the smoothed "
            "exponential-sum error")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--n-max", type=int, default=0)

    p = add("delta", _cmd_delta, "Delta(a/q) for all a via the chirp-length DFT")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=int, default=3)

    p = add("variance", _cmd_variance,
            "one variance report row with Parseval and decomposition checks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=int, default=3)

    p = add("decomp-check", _cmd_decomp_check,
            "divisor decomposition of the full variance into reduced levels")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=int, default=3)

    p = add("scan", _cmd_scan, "variance scan over an (x, q) grid with fitted slopes")
    p.add_argument("--grid", help="comma list x:q, e.g. 1e4:22,1e4:100")
    p.add_argument("--k", type=int, default=3)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    flags = {"cache_dir": args.cache_dir, "threads": args.threads, "fmt": args.format,
             "seed": args.seed}
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        cfg = replace(cfg, **{key: v for key, v in flags.items() if v is not None})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, cfg)
    except (expsum.GuardError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
