import gzip
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d3lab.arith import sieve_dk
from d3lab.cli import (
    RunConfig,
    build_parser,
    cache_path,
    load_or_build_table,
    main,
    read_cache,
    write_cache,
)

# the benchmark's reference outputs, captured at its default seed
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


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
        assert code == 0 and out.strip() == "-2"

    def test_rsum_agreement(self):
        code, out, _ = run_cli("rsum", "--a", "1", "--b", "1", "--c", "1", "--h", "1", "--q", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("fast: 2")

    def test_guard_failure_is_1(self):
        code, _, err = run_cli("corr", "--triple", "1,1,1", "--triple2", "1,1,1", "--q", "99")
        assert code == 1 and "guard" in err

    def test_variance_passes(self):
        code, out, _ = run_cli("--format", "csv", "variance", "--q", "12", "--x", "2000")
        assert code == 0
        assert "parseval" in out.splitlines()[1]


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


class TestCatalogReference:
    @pytest.mark.parametrize("p,k", [(3, 2), (2, 5)])  # exhaustive, sampled
    def test_lemma3_catalog_byte_identical(self, p, k, tmp_path):
        out = tmp_path / "catalog.out"
        argv = ["--seed", "20250810", "lemma3-check", "--p", str(p), "--k", str(k),
                "--out", str(out)]
        assert main(argv) == 0
        ref = gzip.decompress((REFERENCE / f"lemma3-check-p{p}-k{k}.out.gz").read_bytes())
        assert out.read_bytes() == ref


class TestScanReference:
    def test_default_scan_byte_identical(self, tmp_path):
        out = tmp_path / "scan.out"
        assert main(["--threads", "1", "scan", "--out", str(out)]) == 0
        assert out.read_bytes() == gzip.decompress((REFERENCE / "scan.out.gz").read_bytes())


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

    def test_wrong_k_not_reused(self, tmp_path):
        table = sieve_dk(3, 1000)
        path = cache_path(str(tmp_path), 3, 1000)
        write_cache(table, path)
        assert read_cache(path, 2, 1000) is None


class TestConfig:
    def test_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("sieve_limit = 12345\nthreads = 4\nformat = json\nseed = 9\n")
        cfg = RunConfig.from_file(str(cfg_file))
        assert cfg.sieve_limit == 12345
        assert cfg.threads == 4
        assert cfg.fmt == "json"
        assert cfg.seed == 9

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
                     "variance", "--q", "3", "--x", "1000"])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("# k=3")


class TestHelp:
    def test_subcommands_document_their_check(self):
        for name, needle in (
            ("lemma2-check", "multiplicativity"),
            ("lemma3-check", "closed form"),
            ("kernel", "kernel"),
            ("variance", "Parseval"),
        ):
            code, out, _ = run_cli(name, "--help")
            assert code == 0 and needle in out
