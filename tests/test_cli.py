import gzip
import importlib.util
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d3lab import arith, expsum, variance
from d3lab.arith import divisors, euler_phi, sieve_dk
from d3lab.cli import (
    _COMMANDS,
    RunConfig,
    _csv,
    _rows_json,
    build_parser,
    cache_path,
    fmt12,
    load_or_build_table,
    main,
    read_cache,
    write_cache,
)

# the benchmark's reference outputs, captured at its default seed
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "d3lab.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExitCodes:
    def test_usage_error_is_2(self):
        code, _, _ = run_cli("csum", "--q")
        assert code == 2
        code, _, _ = run_cli("no-such-command")
        assert code == 2

    def test_csum_example(self):
        code, out, _ = run_cli("csum", "--q", "6", "--n", "3")
        assert code == 0 and out.splitlines() == ["-2", "brute: -2  |dev| = 0"]

    def test_csum_checked_against_bruteforce(self, monkeypatch, capsys):
        # an oracle that disagrees with the divisor formula fails the check
        monkeypatch.setattr(arith, "ramanujan_sum_bruteforce", lambda q, n: -1)
        assert main(["csum", "--q", "6", "--n", "3"]) == 1
        assert capsys.readouterr().out.splitlines() == ["-2", "brute: -1  |dev| = 1"]

    def test_rsum_agreement(self):
        code, out, _ = run_cli("rsum", "--a", "1", "--b", "1", "--c", "1", "--h", "1", "--q", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("fast: 2")

    def test_rsum_refuses_past_its_guard(self, capsys):
        # past the oracle's guard rsum prints nothing, not an unchecked value
        assert expsum.BRUTE_Q_GUARD < 211
        argv = ["rsum", "--a", "1", "--b", "2", "--c", "3", "--h", "1", "--q", "211"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert main([*argv, "--force"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fast: 2740.50861466 0" and lines[1].startswith("brute: 2740.50861466 ")
        assert len(lines) == 2

    def test_lemma2_without_samples(self, tmp_path):
        # no samples: the header alone, and nothing failed
        out = tmp_path / "lemma2.out"
        argv = ["lemma2-check", "--q1", "4", "--q2", "9", "--samples", "0", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text() == ("# failures=0\n# q1=4\n# q2=9\n# seed=0\n"
                                   "q1,q2,a,b,c,a2,b2,c2,s12,s1,s2,abs_dev,split_dev,passed\n")
        assert main(["--format", "json", *argv]) == 0
        assert json.loads(out.read_text()) == {
            "meta": {"failures": 0, "q1": 4, "q2": 9, "seed": 0}, "rows": []}

    def test_guard_failure_is_1(self):
        code, _, err = run_cli("corr", "--triple", "1,1,1", "--triple2", "1,1,1", "--q", "99")
        assert code == 1 and "guard" in err

    def test_corr_force_beyond_int64(self):
        # phi(q) * R_{0,0,0}^2 with R_{0,0,0}(h/q) = q * sum_{d | q} d * phi(q/d)
        q = 2700
        r = q * sum(d * euler_phi(q // d) for d in divisors(q))
        assert euler_phi(q) * r * r > 2**63
        code, out, _ = run_cli("corr", "--triple", "0,0,0", "--triple2", "0,0,0",
                               "--q", str(q), "--force")
        assert code == 0 and out == fmt12(float(euler_phi(q) * r * r)) + "\n"

    @pytest.mark.parametrize("argv", [
        ["voronoi-compare", "--q", "3", "--x", "1e4", "--Y", "1e3"],
        ["wtransform", "--q", "10", "--x", "1e4", "--Y", "1e2"],
        ["corr-identity"],
    ])
    def test_negative_n_max_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-max", "-3"])
        assert exc.value.code == 2
        assert "argument --n-max: -3 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, value", [
        (["wtransform", "--q", "10", "--x", "1e4", "--Y", "1e2"], "--n", "0"),
        (["wtransform", "--x", "1e4", "--Y", "1e2"], "--q", "0"),
        (["voronoi-compare", "--x", "1e4", "--Y", "1e3"], "--q", "0"),
        (["kernel"], "--x-min", "-1"),
        (["kernel"], "--x-max", "0"),
        (["kernel"], "--x-max", "inf"),
        (["kernel"], "--points", "-1"),
        (["kernel"], "--points", "0"),
        (["lemma2-check", "--q1", "4", "--q2", "9"], "--samples", "-1"),
        (["lemma4-scan"], "--q-max", "0"),
        (["lemma4-scan"], "--entry-max", "0"),
        (["corr-identity"], "--q-list", "0"),
        (["lemma2-check", "--q2", "3"], "--q1", "0"),
        (["lemma2-check", "--q1", "3"], "--q2", "-2"),
        (["delta", "--q", "5"], "--x", "0"),
        (["delta", "--q", "5"], "--x", "-3"),
        (["delta", "--q", "5"], "--x", "nan"),
        (["delta", "--q", "5"], "--x", "inf"),
        (["sieve"], "--n", "-5"),
        (["wtransform", "--q", "10", "--x", "1e4"], "--Y", "0"),
        (["sieve"], "--n", "0.5"),
        # the scan's x is its sieve limit, >= 1
        (["scan"], "--grid", "0.5:5"),
        (["scan"], "--grid", "inf:5"),
        (["mainterm", "--q", "6", "--a", "1"], "--x", "0.5"),
        (["mainterm", "--q", "6", "--a", "1"], "--x", "1.9"),
        (["wtransform", "--q", "3", "--x", "1e3", "--n", "1"], "--Y", "0.5"),
        # --k: a sieve needs k >= 2, main terms k <= 8, delta and scan k in 2..8
        (["sieve", "--n", "100"], "--k", "1"),
        (["mainterm", "--q", "6", "--a", "1", "--x", "1e4"], "--k", "0"),
        (["mainterm", "--q", "6", "--a", "1", "--x", "1e4"], "--k", "9"),
        (["delta", "--q", "5", "--x", "100"], "--k", "1"),
        (["scan"], "--k", "9"),
        (["scan"], "--k", "1"),
        (["delta", "--q", "5", "--x", "100"], "--k", "9"),
        # a prime-power catalog needs a prime p and k >= 1; A(n) needs n >= 1
        (["lemma3-check", "--k", "1"], "--p", "-3"),
        (["lemma3-check", "--k", "1"], "--p", "4"),
        (["lemma3-check", "--p", "3"], "--k", "0"),
        (["asum", "--h", "1", "--q", "3"], "--n", "0"),
    ])
    def test_out_of_range_flag_is_usage_error(self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_lemma2_moduli_not_coprime_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "lemma2.out"
        assert main(["lemma2-check", "--q1", "4", "--q2", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: lemma2-check needs coprime moduli, got q1 = 4 and q2 = 6\n")
        assert not out.exists()

    def test_sieve_beyond_64_bits_is_one_error_line(self, capsys):
        # d_60(746496) once wrapped int64 and printed a wrong sum with exit 0
        assert main(["sieve", "--k", "60", "--n", "1e6"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: d_60(n) reaches ") and line.endswith("beyond 64 bits")

    def test_deleted_commands_are_unknown(self, capsys):
        # scan prints the row of variance and the decomp_dev cell of decomp-check
        assert len(_COMMANDS) == 16
        for name in ("variance", "decomp-check"):
            with pytest.raises(SystemExit) as exc:
                main([name, "--q", "5", "--x", "1000"])
            assert exc.value.code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err

    def test_kloosterman_checked_against_fft_column(self, monkeypatch, capsys):
        argv = ["kloosterman", "--n", "1", "--m", "2", "--q", "7"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "-2.35689586789 3.33066907388e-16"
        assert lines[1].startswith("fft: -2.35689586789  |dev| = ")
        # a column that disagrees with the direct sum fails the check
        monkeypatch.setattr(arith, "kloosterman_table", lambda q, m: np.full(q, -2.3568))
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "-2.35689586789 3.33066907388e-16"
        assert lines[1].startswith("fft: -2.3568  |dev| = ")


# a quick argv for every subcommand
_SMALL_ARGV = {
    "sieve": ["sieve", "--n", "1000"],
    "csum": ["csum", "--q", "12", "--n", "4"],
    "kloosterman": ["kloosterman", "--n", "1", "--m", "2", "--q", "7"],
    "rsum": ["rsum", "--a", "1", "--b", "1", "--c", "1", "--h", "1", "--q", "6"],
    "asum": ["asum", "--h", "1", "--q", "5", "--n", "6"],
    "corr": ["corr", "--triple", "1,1,1", "--triple2", "1,2,1", "--q", "5"],
    "lemma2-check": ["lemma2-check", "--q1", "4", "--q2", "9", "--samples", "2"],
    "lemma3-check": ["lemma3-check", "--p", "2", "--k", "1"],
    "lemma4-scan": ["lemma4-scan", "--q-max", "6", "--entry-max", "2"],
    "corr-identity": ["corr-identity", "--n-max", "2", "--q-list", "3"],
    "mainterm": ["mainterm", "--q", "6", "--a", "1", "--x", "1e4"],
    "kernel": ["kernel", "--x-max", "10", "--points", "3"],
    "wtransform": ["wtransform", "--q", "3", "--x", "1e3", "--Y", "1e2", "--n", "1"],
    "voronoi-compare": ["voronoi-compare", "--q", "3", "--x", "1e3", "--Y", "1e2",
                        "--n-max", "3"],
    "delta": ["delta", "--q", "5", "--x", "1000"],
    "scan": ["scan", "--grid", "1000:5"],
}


class TestOut:
    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_out_writes_what_stdout_prints(self, name, tmp_path, capsys):
        argv = ["--seed", "7", *_SMALL_ARGV[name]]
        code = main(argv)
        printed = capsys.readouterr().out
        assert printed
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_error_exit_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "report"
        for code, argv, err in (
            # beyond the sieve budget, refused before anything is sieved
            (1, ["scan", "--grid", "6e7:5"], "exceeds budget"),
            (1, ["sieve", "--n", "1e9"], "exceeds budget"),
            (1, ["scan", "--grid", "1e3:7,6e7:5"], "exceeds budget"),
            (1, ["corr", "--triple", "1,1,1", "--triple2", "1,1,1", "--q", "99"], "guard"),
            # a d_k beyond 64 bits
            (1, ["sieve", "--k", "60", "--n", "1e6"], "beyond 64 bits"),
            # no h with 1 <= h < 1: the factor-10 gate would pass on an empty table
            (2, ["voronoi-compare", "--x", "1e4", "--Y", "1e3", "--q", "1"], "needs q >= 2"),
            # each flag is in range, the window is not: 3Y > x
            (2, ["wtransform", "--q", "3", "--x", "1e2", "--Y", "50", "--n", "1"], "needs 3Y <= x"),
            (2, ["voronoi-compare", "--x", "1e2", "--Y", "50", "--q", "3"], "needs 3Y <= x"),
        ):
            assert main([*argv, "--out", str(out)]) == code
            assert not out.exists()
            printed = capsys.readouterr()
            assert printed.out == ""
            assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
            assert err in printed.err


def _readme_cli_examples():
    """The d3lab lines of README's CLI block, as argv lists."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("d3lab ")]


class TestReadme:
    def test_cli_examples_parse(self):
        examples = _readme_cli_examples()
        assert len(examples) >= 8
        for argv in examples:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        args = ("--format", "csv", "--seed", "7", "lemma2-check", "--q1", "4", "--q2", "9",
                "--samples", "3")
        out1 = run_cli(*args)
        out2 = run_cli(*args)
        assert out1 == out2

    def test_scan_thread_counts_byte_identical(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            code, out, _ = run_cli(
                "--threads", threads, "--format", "csv",
                "scan", "--grid", "1000:5,1000:12,2000:9",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_reused_parser_matches_fresh(self, tmp_path):
        # main builds its parser once per process; a seed or format given to
        # one call must not reach the next
        runs = [
            ("--seed", "7", "lemma2-check", "--q1", "4", "--q2", "9", "--samples", "3"),
            ("lemma2-check", "--q1", "4", "--q2", "9", "--samples", "3"),
            ("--format", "json", "kernel", "--x-max", "10", "--points", "3"),
            ("kernel", "--x-max", "10", "--points", "3"),
        ]
        for i, argv in enumerate(runs):
            assert main([*argv, "--out", str(tmp_path / f"reused{i}")]) == 0
        for i, argv in enumerate(runs):
            build_parser.cache_clear()
            assert main([*argv, "--out", str(tmp_path / f"fresh{i}")]) == 0
        outs = [[(tmp_path / f"{kind}{i}").read_bytes() for i in range(len(runs))]
                for kind in ("reused", "fresh")]
        assert outs[0] == outs[1]
        assert outs[0][0] != outs[0][1] and outs[0][2] != outs[0][3]


# the cell rule of the row-at-a-time writer the column writer replaced: the oracle
def _oracle_csv(meta, names, rows):
    lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(fmt12(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _oracle_json(meta, names, rows):
    def norm(v):
        if not isinstance(v, float):
            return v
        return None if math.isnan(v) else float(fmt12(v)) if math.isfinite(v) else fmt12(v)

    doc = {"meta": meta, "rows": [dict(zip(names, map(norm, r))) for r in rows]}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _strict_json(text):
    """json.loads that refuses the bare NaN/Infinity tokens, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


_CELLS = {
    "int": st.integers(-(2**63), 2**63 - 1) | st.sampled_from([10**12, 10**15 + 1, -1, -(10**12)]),
    "float": st.floats() | st.sampled_from([-0.0, 1e-300, math.nan, math.inf, -math.inf]),
    "str": st.text(alphabet="abc_XYZ-09 ", max_size=6),
}
# small pools, so that long columns repeat their values as catalogs do
_REPEATED_CELLS = {
    "int": st.sampled_from([0, 1, -1, 7, 10**12, -(2**63), 2**63 - 1]),
    "float": st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 7.0, 1 / 3]),
    "str": st.sampled_from(["", "a", "b_X"]),
}
_DTYPES = {"int": np.int64, "float": np.float64}


@st.composite
def _tables(draw, cells=_CELLS, max_rows=6):
    """(meta, names, Python columns, the writer's columns): int and float
    columns are handed over as lists or as int64/float64 arrays."""
    n = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
    values, columns = [], []
    for kind in kinds:
        col = draw(st.lists(cells[kind], min_size=n, max_size=n))
        values.append(col)
        as_array = kind in _DTYPES and draw(st.booleans())
        columns.append(np.array(col, dtype=_DTYPES[kind]) if as_array else col)
    names = [f"c{i}" for i in range(len(kinds))]
    meta = {"rows": n, "seed": draw(_CELLS["int"])}
    return meta, names, values, columns


def _assert_writers_match_oracles(table):
    meta, names, values, columns = table
    rows = list(zip(*values))
    assert _csv(meta, names, columns) == _oracle_csv(meta, names, rows)
    assert _rows_json(meta, names, columns) == _oracle_json(meta, names, rows)


class TestTableWriter:
    @given(_tables())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_cell_rule(self, table):
        _assert_writers_match_oracles(table)

    @given(_tables(_REPEATED_CELLS, max_rows=300))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_cell_rule_with_repeated_values(self, table):
        # each distinct value is formatted once: 0.0 and -0.0 keep their cells
        _assert_writers_match_oracles(table)

    def test_non_finite_floats_are_strict_json(self):
        cells = [math.nan, math.inf, -math.inf]
        columns = [cells + [0.5], np.array(cells + [2.0])]
        assert _csv({}, ["a", "b"], columns) == "a,b\nnan,nan\ninf,inf\n-inf,-inf\n0.5,2\n"
        rows = _strict_json(_rows_json({}, ["a", "b"], columns))["rows"]
        assert rows == [{"a": None, "b": None}, {"a": "inf", "b": "inf"},
                        {"a": "-inf", "b": "-inf"}, {"a": 0.5, "b": 2.0}]

    def test_empty_table(self):
        columns = [[], np.array([], dtype=np.float64), np.array([], dtype=np.int64)]
        assert _csv({"k": 1}, ["a", "b", "c"], columns) == "# k=1\na,b,c\n"
        assert json.loads(_rows_json({"k": 1}, ["a", "b", "c"], columns)) == {
            "meta": {"k": 1}, "rows": []}

    def test_mixed_or_ragged_columns_rejected(self):
        for writer in (_csv, _rows_json):
            with pytest.raises(TypeError):
                writer({}, ["x"], [[1, 2.0]])
            with pytest.raises(TypeError):
                writer({}, ["x", "y"], [[1, 2], np.array([0.5, "a"], dtype=object)])
            with pytest.raises(ValueError):
                writer({}, ["x", "y"], [[1, 2]])
            with pytest.raises(ValueError):
                writer({}, ["x", "y"], [[1, 2], [3]])


# the 11 lemma3-check catalogs of the benchmark, p^k <= 64
_CATALOGS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
             (5, 1), (5, 2)]


def _lemma3(tmp_path, p, k, *flags):
    out = tmp_path / "catalog.out"
    argv = ["--seed", "20250810", *flags, "lemma3-check", "--p", str(p), "--k", str(k),
            "--out", str(out)]
    return main(argv), out


def _reference(p, k):
    return gzip.decompress((REFERENCE / f"lemma3-check-p{p}-k{k}.out.gz").read_bytes())


class TestCatalogReference:
    @pytest.mark.parametrize("p,k", _CATALOGS)
    def test_lemma3_catalog_byte_identical(self, p, k, tmp_path):
        code, out = _lemma3(tmp_path, p, k)
        assert code == 0
        assert out.read_bytes() == _reference(p, k)

    @pytest.mark.parametrize("p,k", [(3, 2), (2, 5)])  # exhaustive, sampled
    def test_lemma3_catalog_json_matches_reference(self, p, k, tmp_path):
        code, out = _lemma3(tmp_path, p, k, "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        lines = _reference(p, k).decode().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        header, *body = [line.split(",") for line in lines if not line.startswith("# ")]
        assert {key: str(v) for key, v in doc["meta"].items()} == meta
        assert len(doc["rows"]) == len(body) == int(meta["tuples"])
        for row, cells in zip(doc["rows"], body):
            values = [row[name] for name in header]
            assert [type(v)(c) for v, c in zip(values, cells)] == values

    def test_lemma2_matches_reference(self, tmp_path):
        # the benchmark's sampled check: every cell of the reference but the
        # splitting deviations, which are rounding (below 1e-12) on both sides
        out = tmp_path / "lemma2.out"
        assert main(["--seed", "20250810", "lemma2-check", "--q1", "4", "--q2", "15",
                     "--samples", "500", "--out", str(out)]) == 0
        ref = gzip.decompress((REFERENCE / "lemma2-check.out.gz").read_bytes()).decode()
        got, want = ([line.split(",") for line in text.splitlines()]
                     for text in (out.read_text(), ref))
        assert len(got) == len(want) == 505
        split = want[4].index("split_dev")
        for row, ref_row in zip(got, want):
            assert row[:split] + row[split + 1:] == ref_row[:split] + ref_row[split + 1:]
        for row, ref_row in zip(got[5:], want[5:]):
            assert float(row[split]) <= 1e-12 and float(ref_row[split]) <= 1e-12

    def test_mismatch_is_counted(self, tmp_path, monkeypatch):
        closed_form = expsum.cq_pair_sum_prime_power

        def off_by_one(T, p, k):
            cases, closed = closed_form(T, p, k)
            closed = closed.copy()
            closed[5] += 1
            return cases, closed

        monkeypatch.setattr(expsum, "cq_pair_sum_prime_power", off_by_one)
        code, out = _lemma3(tmp_path, 2, 2)
        assert code == 1
        lines = out.read_text().splitlines()
        assert "# mismatches=1" in lines
        header, *body = [line.split(",") for line in lines if not line.startswith("# ")]
        rows = [dict(zip(header, cells)) for cells in body]
        assert [i for i, r in enumerate(rows) if r["match"] == "0"] == [5]
        bad = rows[5]
        assert bad["abs_dev"] == "1" and int(bad["rhs_re"]) == int(bad["lhs_re"]) + 1
        assert bad["rel_dev"] == fmt12(1 / (1 + abs(int(bad["lhs_re"]))))
        assert all(r["abs_dev"] == "0" and r["rel_dev"] == "0" for r in rows[:5] + rows[6:])


class TestScanReference:
    def test_default_scan_byte_identical(self, tmp_path):
        out = tmp_path / "scan.out"
        assert main(["--threads", "1", "scan", "--out", str(out)]) == 0
        assert out.read_bytes() == gzip.decompress((REFERENCE / "scan.out.gz").read_bytes())

    @pytest.mark.parametrize("grid", ["1e4", "abc:5", "1e4:0"])
    def test_bad_grid_is_usage_error(self, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--grid", grid])
        assert exc.value.code == 2
        assert f"grid point {grid!r}" in capsys.readouterr().err


class TestScanWithoutBounds:
    @pytest.mark.parametrize("k", [4, 8])
    def test_scan_checks_k_beyond_the_bounds(self, k, tmp_path):
        # k >= 4 has no reference bound: the bound and ratio cells are nan
        # (null in JSON), and so are the slopes; the identities are checked
        texts = {}
        for threads, fmt in (("1", "csv"), ("2", "csv"), ("1", "json")):
            out = tmp_path / f"scan{threads}.{fmt}"
            assert main(["--threads", threads, "--format", fmt, "scan", "--k", str(k),
                         "--grid", "3000:7,3000:12,6000:30", "--out", str(out)]) == 0
            texts[threads, fmt] = out.read_text()
        assert texts["1", "csv"] == texts["2", "csv"]
        lines = texts["1", "csv"].splitlines()
        assert {"# slope2_x=nan", "# slope2_q=nan", f"# k={k}"} <= set(lines)
        header, *body = [line.split(",") for line in lines if not line.startswith("# ")]
        json_rows = _strict_json(texts["1", "json"])["rows"]
        assert len(body) == len(json_rows) == 3
        table = sieve_dk(k, 6000)
        unbounded = ["bound_thm1", "bound_thm2", "bound_nguyen", "ratio2", "ratio1"]
        for cells, json_row in zip(body, json_rows):
            row = dict(zip(header, cells))
            assert float(row["parseval_dev"]) <= 1e-9 and float(row["decomp_dev"]) <= 1e-9
            assert [row[name] for name in unbounded] == ["nan"] * 5
            assert [json_row[name] for name in unbounded] == [None] * 5
            # the cell the standalone check, without the report's sums, prints
            dev = variance.divisor_decomposition_check(int(row["q"]), float(row["x"]), table, k)
            assert row["decomp_dev"] == fmt12(dev)


class TestReportJson:
    @pytest.mark.parametrize("argv", [
        ["scan", "--grid", "1e4:30"],
        ["scan", "--grid", "1e4:465"],
        ["kernel", "--x-max", "10", "--points", "3"],
        ["delta", "--q", "30", "--x", "1e4"],
        ["lemma3-check", "--p", "2", "--k", "2"],
    ])
    def test_json_is_strict(self, argv, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--format", "json", *argv, "--out", str(out)]) == 0
        assert _strict_json(out.read_text())["rows"]

    def test_variance_json_mirrors_csv(self, tmp_path):
        argv = ["scan", "--grid", "1e4:30"]
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"variance.{fmt}"
            assert main(["--format", fmt, *argv, "--out", str(out)]) == 0
            texts[fmt] = out.read_text()
        header, cells = [line.split(",") for line in texts["csv"].splitlines()
                         if not line.startswith("# ")]
        assert len(header) == 13
        (row,) = _strict_json(texts["json"])["rows"]
        assert set(row) == {*header, "V1_all", "k", "Y_param"}
        assert [row[name] for name in header] == [float(c) for c in cells]


class TestSieveCache:
    def test_roundtrip_bit_exact(self, tmp_path):
        table = sieve_dk(3, 10**4)
        path = cache_path(str(tmp_path), 3, 10**4)
        write_cache(table, path)
        back = read_cache(path, 3, 10**4)
        assert np.array_equal(back.values, table.values)
        assert back.k == table.k and back.limit == table.limit

    def test_roundtrip_bit_exact_1e6(self, d3_table_1e6, tmp_path):
        path = cache_path(str(tmp_path), d3_table_1e6.k, d3_table_1e6.limit)
        write_cache(d3_table_1e6, path)
        back = read_cache(path, d3_table_1e6.k, d3_table_1e6.limit)
        assert np.array_equal(back.values, d3_table_1e6.values)

    def test_corrupt_checksum_rejected(self, tmp_path):
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert read_cache(path, 3, 1000) is None

    def test_truncated_file_rejected(self, tmp_path):
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        path.write_bytes(path.read_bytes()[:-20])
        assert read_cache(path, 3, 1000) is None

    def test_version_mismatch_rejected(self, tmp_path):
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version word
        path.write_bytes(bytes(blob))
        assert read_cache(path, 3, 1000) is None

    def test_rebuild_path(self, tmp_path, capsys):
        cfg = RunConfig(cache_dir=str(tmp_path))
        t1 = load_or_build_table(cfg, 3, 2000)
        path = cache_path(str(tmp_path), 3, 2000)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        t2 = load_or_build_table(cfg, 3, 2000)
        assert np.array_equal(t1.values, t2.values)
        # and the cache was repaired
        assert read_cache(path, 3, 2000) is not None

    def test_failed_write_keeps_previous_cache(self, tmp_path):
        # a real partial write: the writer's file-size limit stops it midway
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        script = (
            "import resource, signal, sys\n"
            "from pathlib import Path\n"
            "from d3lab.arith import sieve_dk\n"
            "from d3lab.cli import write_cache\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (2000, resource.RLIM_INFINITY))\n"
            "try:\n"
            "    write_cache(sieve_dk(3, 10**4), Path(sys.argv[1]))\n"
            "except OSError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(3)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        assert "cannot write sieve cache" in proc.stdout
        back = read_cache(path, 3, 1000)
        assert back is not None and np.array_equal(back.values, table.values)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_trailing_bytes_rejected(self, tmp_path):
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        path.write_bytes(path.read_bytes() + b"\0")
        assert read_cache(path, 3, 1000) is None

    def test_uint64_table_refused(self, tmp_path):
        table = sieve_dk(28, 2000)  # d_28(2^6 3^3) = C(33, 6) C(30, 3) > 2^32
        assert table.values.dtype == np.uint64
        path = cache_path(str(tmp_path), 28, 2000)
        with pytest.raises(OverflowError):
            write_cache(table, path)
        assert not path.exists()

    def test_uint64_table_built_not_cached(self, tmp_path, capsys):
        # --cache-dir caches the uint32 tables the format holds and still
        # runs a command whose table is uint64
        argv = ["sieve", "--k", "28", "--n", "2000"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(["--cache-dir", str(tmp_path), *argv]) == 0
        assert capsys.readouterr().out == plain
        assert list(tmp_path.iterdir()) == []
        assert main(["--cache-dir", str(tmp_path), "sieve", "--k", "3", "--n", "2000"]) == 0
        assert read_cache(cache_path(str(tmp_path), 3, 2000), 3, 2000) is not None

    def test_read_table_is_read_only_uint32(self, tmp_path):
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(sieve_dk(3, 1000), path)
        back = read_cache(path, 3, 1000)
        assert back.values.dtype == np.uint32 and back.values[0] == 0
        assert not back.values.flags.writeable
        with pytest.raises(ValueError):
            back.values[1] = 7

    def test_wrong_k_not_reused(self, tmp_path):
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        assert read_cache(path, 2, 1000) is None


class TestConfig:
    def test_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("cache_dir = c\nthreads = 4\nformat = json\nseed = 9\n")
        cfg = RunConfig.from_file(str(cfg_file))
        assert cfg.cache_dir == "c"
        assert cfg.threads == 4
        assert cfg.fmt == "json"
        assert cfg.seed == 9
        # the sieve has one budget, arith.MAX_SIEVE_LIMIT, and no config key
        cfg_file.write_text("sieve_limit = 100\n")
        assert main(["--config", str(cfg_file), "scan", "--grid", "1000:5"]) == 2
        assert capsys.readouterr().err == "error: unknown config key: sieve_limit\n"

    def test_negative_threads_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="threads must be >= 0"):
            RunConfig(threads=-1)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("threads = -2\n")
        with pytest.raises(ValueError, match="threads must be >= 0"):
            RunConfig.from_file(str(cfg_file))
        for argv in (["--threads", "-1", "csum", "--q", "6", "--n", "3"],
                     ["--config", str(cfg_file), "csum", "--q", "6", "--n", "3"]):
            assert main(argv) == 2
            assert "threads must be >= 0" in capsys.readouterr().err

    def test_bad_format_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="format must be csv or json"):
            RunConfig(fmt="xml")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("format = xml\n")
        with pytest.raises(ValueError, match="format must be csv or json"):
            RunConfig.from_file(str(cfg_file))
        assert main(["--config", str(cfg_file), "csum", "--q", "6", "--n", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: format must be csv or json")

    def test_workers_at_least_one(self):
        assert RunConfig(threads=0).workers() >= 1
        assert RunConfig(threads=3).workers() == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key: bogus"):
            RunConfig.from_file(str(cfg_file))

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("format = json\n")
        code = main(["--config", str(cfg_file), "--format", "csv",
                     "scan", "--grid", "1000:3"])
        out = capsys.readouterr().out
        assert code == 0 and "# k=3" in out.splitlines()


# modules that only some commands may load: numpy.random draws samples and
# brings secrets, hashlib and OpenSSL's libcrypto (about 6 MB of RSS);
# hashlib alone serves the sieve cache; mpmath is a test oracle only (the
# Stieltjes constants are a table)
_LOADED_ON_USE = ("numpy.random", "secrets", "hashlib", "mpmath")


class TestImport:
    def test_cli_loads_no_scipy_and_numpy_submodules_up_front(self):
        # scipy.special alone would add about 0.3 s to every command's start.
        # numpy 2 loads fft and polynomial on first use; every workload's
        # first command needs one of them, so they load at import.  The
        # modules of _LOADED_ON_USE, Fraction (the Bernoulli-number oracle)
        # and json (JSON reports and mainterm) serve only some commands, so
        # none of them is loaded up front
        script = (
            "import sys\n"
            "import d3lab.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
            "print([m for m in ('numpy.fft', 'numpy.polynomial') if m not in sys.modules])\n"
            "print([m for m in ('fractions', 'decimal', 'json') if m in sys.modules])\n"
            f"print([m for m in {(*_LOADED_ON_USE, '_hashlib')!r} if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]", "[]", "[]"]

    @pytest.mark.parametrize("argv, loads", [
        (["--threads", "1", "scan"], ()),
        (["kernel", "--x-min", "1", "--x-max", "1e3", "--points", "5"], ()),
        (["wtransform", "--q", "10", "--x", "1e4", "--Y", "1e2", "--n", "1"], ()),
        (["voronoi-compare", "--x", "1e4", "--Y", "1e3", "--q", "5"], ()),
        # a sampled catalog (q^4 > 10^4) and lemma2-check draw their inputs
        (["lemma3-check", "--p", "2", "--k", "4"], ("numpy.random", "secrets", "hashlib")),
        (["lemma2-check", "--q1", "4", "--q2", "15", "--samples", "3"],
         ("numpy.random", "secrets", "hashlib")),
        (["--cache-dir", "{tmp}", "sieve", "--n", "1000"], ("hashlib",)),
    ], ids=["scan", "kernel", "wtransform", "voronoi-compare", "lemma3-check",
            "lemma2-check", "sieve-cache"])
    def test_command_loads_only_the_modules_it_uses(self, argv, loads, tmp_path):
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
        script = (
            "import sys\n"
            "from d3lab.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print([m for m in {_LOADED_ON_USE!r} if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [str([m for m in _LOADED_ON_USE if m in loads])]


class TestLayerTrace:
    def test_traced_names_resolve(self, tmp_path):
        # the benchmark's --trace run wraps every target of the layer tracer
        # and reads some of their arguments by name; pytest collects only
        # tests/, so without this a rename of either passes the suite
        spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        tracer = layertrace.Tracer()
        try:  # a failed install leaves patches behind, which uninstall undoes
            tracer.install()
            cache = ["--cache-dir", str(tmp_path)]
            for argv in (["sieve", "--n", "1000"], ["sieve", "--n", "1000"],
                         # a window no other test transforms: the cache misses
                         ["wtransform", "--q", "7", "--x", "3001", "--Y", "101", "--n", "1"]):
                assert main([*cache, *argv, "--out", str(tmp_path / "out")]) == 0
        finally:
            tracer.uninstall()
        measured = {f"{mod}.{path}.{key}"
                    for mod, path, _, extra in layertrace.TARGETS for key in extra}
        assert {m for m in measured if tracer.measures[m] > 0} == measured


class TestHelp:
    def test_subcommands_document_their_check(self, capsys):
        for name, needle in (
            ("lemma2-check", "multiplicativity"),
            ("lemma3-check", "closed form"),
            ("kernel", "kernel"),
            ("csum", "brute-force"),
            ("rsum", f"refuses q > {expsum.BRUTE_Q_GUARD} without --force"),
            ("corr", f"refuses q > {expsum.CORRELATION_Q_GUARD} without --force"),
            ("kloosterman", "FFT column"),
            ("scan", "Parseval"),
            ("scan", "divisor-decomposition"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            assert needle in " ".join(capsys.readouterr().out.split())
