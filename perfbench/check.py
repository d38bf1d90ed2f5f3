"""Reference checks behind ``fail_frac``.

Each command's output is compared with the output this benchmark
captured at DEFAULT_SEED (``reference/<id>.out.gz``).  Lines are split
into text and numbers: text must match exactly, numbers that are
integers in both files must be equal, and other numbers must agree
under the command kind's rule:

- ``scan``: within 1e-9 relative; the identity-deviation columns
  ``parseval_dev`` and ``decomp_dev`` need only be <= 1e-9;
- ``sig6``: to 6 significant digits of the reference value (U, w-hat,
  dual sums, the lemma4 ratio);
- ``catalog``: the whole file exactly, apart from the ``# seed=`` line;
- ``lemma2``: integers exactly; ``abs_dev`` and ``split_dev`` <= 1e-9.

A sampled command run at another seed cannot match the reference, so
only its seed-free claims are checked: the mismatch/failure count in
its header is 0 and every row passed.  The exit code of every command
(which is the factor-10 gate of ``voronoi-compare``) is checked by the
caller.
"""

from __future__ import annotations

import gzip
import math
import re
from pathlib import Path

from workloads import DEFAULT_SEED, Command

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEV_TOLERANCE = 1e-9
DEV_COLUMNS = {"scan": ("parseval_dev", "decomp_dev"), "lemma2": ("abs_dev", "split_dev")}
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_INT = re.compile(r"[-+]?\d+")


def rel_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= 1e-9 * max(abs(value), abs(ref))


def sig6_close(value: float, ref: float) -> bool:
    """Equal to 6 significant digits: within half a unit of the 6th digit of ref."""
    if ref == 0.0:
        return value == 0.0
    return abs(value - ref) <= 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 5)


def exact(value: float, ref: float) -> bool:
    return value == ref


RULES = {"scan": rel_close, "sig6": sig6_close, "catalog": exact, "lemma2": exact}


def reference_text(cmd_id: str, ref_dir: Path = REFERENCE_DIR) -> str:
    with gzip.open(ref_dir / f"{cmd_id}.out.gz", "rt") as fh:
        return fh.read()


def _line_problem(line: str, ref: str, close) -> str | None:
    got, want = _NUMBER.split(line), _NUMBER.split(ref)
    if len(got) != len(want):
        return "different shape"
    for i, (g, w) in enumerate(zip(got, want)):
        if i % 2 == 0:  # text between numbers
            if g != w:
                return f"text {g!r} != {w!r}"
        elif _INT.fullmatch(g) and _INT.fullmatch(w):
            if int(g) != int(w):
                return f"{g} != {w}"
        elif not close(float(g), float(w)):
            return f"{g} != {w}"
    return None


def _dev_problems(lines: list[str], columns: tuple[str, ...]) -> list[str]:
    """Deviation columns must be <= DEV_TOLERANCE on every row."""
    if not columns:
        return []
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return ["no table"]
    header = body[0].split(",")
    idx = [header.index(c) for c in columns if c in header]
    problems = []
    for row_no, row in enumerate(body[1:], 1):
        cells = row.split(",")
        for i in idx:
            v = float(cells[i])
            if not v <= DEV_TOLERANCE:
                problems.append(f"row {row_no}: {header[i]} = {cells[i]} > {DEV_TOLERANCE}")
    return problems


def _meta(lines: list[str]) -> dict[str, str]:
    return dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# ") and "=" in ln)


def _seed_free_problems(cmd: Command, lines: list[str], seed: int) -> list[str]:
    """The claims of a sampled check that hold at any seed."""
    meta = _meta(lines)
    problems = [] if meta.get("seed") == str(seed) else [f"seed line {meta.get('seed')}"]
    count_key, pass_col = ("mismatches", "match") if cmd.kind == "catalog" else ("failures", "passed")
    if meta.get(count_key) != "0":
        problems.append(f"{count_key}={meta.get(count_key)}")
    body = [ln for ln in lines if not ln.startswith("#")]
    col = body[0].split(",").index(pass_col) if body else 0
    failed = sum(1 for row in body[1:] if row.split(",")[col] != "1")
    if failed or len(body) < 2:
        problems.append(f"{failed} of {len(body) - 1} rows not passed")
    return problems


def check_output(cmd: Command, text: str, seed: int, ref_dir: Path = REFERENCE_DIR) -> list[str]:
    """Problems of one command's output; empty when it passes."""
    lines = text.splitlines()
    columns = DEV_COLUMNS.get(cmd.kind, ())
    if cmd.sampled and seed != DEFAULT_SEED:
        return _seed_free_problems(cmd, lines, seed) + _dev_problems(lines, columns)
    ref_lines = reference_text(cmd.id, ref_dir).splitlines()
    if len(lines) != len(ref_lines):
        return [f"{len(lines)} lines, reference has {len(ref_lines)}"]
    close = RULES[cmd.kind]
    problems = []
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0] if columns and body else None
    dev_idx = {i for i, c in enumerate(header.split(",")) if c in columns} if header else set()
    for n, (line, ref) in enumerate(zip(lines, ref_lines), 1):
        if cmd.seeded and line.startswith("# seed="):
            if line != f"# seed={seed}":
                problems.append(f"line {n}: {line!r}")
            continue
        if line == ref:
            continue
        if dev_idx and not line.startswith("#") and line != header:
            # deviation cells are checked by _dev_problems alone
            line, ref = (",".join("0" if i in dev_idx else c for i, c in enumerate(t.split(",")))
                         for t in (line, ref))
        problem = _line_problem(line, ref, close)
        if problem:
            problems.append(f"line {n}: {problem}")
    return problems + _dev_problems(lines, columns)
