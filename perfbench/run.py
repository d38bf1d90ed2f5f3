"""d3lab benchmark runner.

    python3 perfbench/run.py --workload {scan-w1,scan-w2,voronoi,exact,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One runner process runs the workload
as a closed loop of one client: it starts a fresh Python process for a
run (child.py), waits for it, checks every command's output against the
references, and starts the next run while the next one still fits in
``--seconds`` (at least two untraced runs).  End-to-end metrics are the
medians over these runs; quartiles and the run count are printed too.

With ``--trace 1`` the runs are followed by one traced run, and the
metrics are the per-layer ones (see layertrace.py) plus the tracing
overhead: traced ``wall_s`` minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a run
writes goes under ``.perfbench/`` in the checkout; full results, with the
machine-info block, are kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_output  # noqa: E402
from layertrace import METRICS as LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, plan  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_max_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 2
RUN_LIMIT_S = 150.0  # no run starts that could end after this: an invocation ends within 180 s


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "d3lab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cache_bytes(level: int) -> int | None:
    try:
        proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10)
        return int(proc.stdout) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_info(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        **versions,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def _scan_identity_problem(workload: str, report: Path, digest: str) -> str | None:
    """Keep this run's scan report; it must be byte-identical to the
    other scan workload's latest report made from the same source."""
    keep = WORK / "reports" / digest
    keep.mkdir(parents=True, exist_ok=True)
    tmp = keep / f".{workload}.tmp"
    shutil.copyfile(report, tmp)
    os.replace(tmp, keep / f"{workload}.csv")
    other = keep / ("scan-w2.csv" if workload == "scan-w1" else "scan-w1.csv")
    if other.exists() and other.read_bytes() != report.read_bytes():
        return f"report differs from {other.stem}'s at the same source"
    return None


def run_once(workload: str, seed: int, trace: bool, timeout: float, digest: str) -> dict:
    """One fresh-process run: its metrics, and which commands failed."""
    _, commands, _ = plan(workload, Path("."))
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        argv = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed",
                str(seed), "--run-dir", str(run_dir)]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv + ["--t0", repr(t0)] + (["--trace"] if trace else []),
                                stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{workload}: run exceeded {timeout:.0f} s, killed", file=sys.stderr)
        finally:
            try:  # the child and any pool workers it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        try:
            res = json.loads((run_dir / "result.json").read_text())
        except (OSError, ValueError):
            return {"attempted": len(commands), "failed": len(commands),
                    "problems": [f"run exited with {proc.returncode} and no result"]}
        problems = [f"set-up exit code {rc}" for rc in res["setup_rc"] if rc != 0]
        setup_failed = bool(problems)
        failed = len(commands) if setup_failed else 0
        for cmd, done in zip(commands, res["commands"]):
            out = run_dir / f"{cmd.id}.out"
            faults = [f"exit code {done['rc']}"] if done["rc"] != 0 else []
            if not faults:
                faults = (check_output(cmd, out.read_text(), seed) if out.exists()
                          else ["no output"])
            if not faults and cmd.kind == "scan":
                faults = [p for p in [_scan_identity_problem(workload, out, digest)] if p]
            if faults and not setup_failed:
                failed += 1
            problems += [f"{cmd.id}: {p}" for p in faults[:5]]
        seconds = [c["seconds"] for c in res["commands"]]
        if trace:
            (WORK / "trace").mkdir(exist_ok=True)
            os.replace(run_dir / "spans.json", WORK / "trace" / f"{workload}-seed{seed}.json")
        return {
            "attempted": len(commands),
            "failed": failed,
            "problems": problems,
            "setup_s": res["setup_s"],
            "wall_s": sum(seconds),
            "cmd_max_s": max(seconds),
            "peak_rss_mb": res["peak_rss_mb"],
            "command_s": {c["id"]: c["seconds"] for c in res["commands"]},
            "layers": res["layers"],
            "versions": res["versions"],
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digest = source_digest()
    start = time.monotonic()
    min_runs = 1 if trace else MIN_RUNS
    runs = []
    while True:
        elapsed = time.monotonic() - start
        longest = max((r["elapsed"] for r in runs), default=0.0)
        # room for this run, and for the traced one, which can take half as long again
        need = longest * (2.5 if trace else 1)
        if runs and (elapsed + need > RUN_LIMIT_S
                     or (len(runs) >= min_runs and elapsed + need > seconds)):
            break
        runs.append(run_once(workload, seed, False, RUN_LIMIT_S + 20 - elapsed, digest))
        runs[-1]["elapsed"] = time.monotonic() - start - elapsed
    traced = None
    if trace:
        elapsed = time.monotonic() - start
        traced = run_once(workload, seed, True, RUN_LIMIT_S + 20 - elapsed, digest)
    done = [r for r in runs if "wall_s" in r]
    every = runs + ([traced] if traced else [])
    result = {
        "workload": workload,
        "seed": seed,
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "problems": [p for r in every for p in r["problems"]],
        "end_to_end": {m: summary([r[m] for r in done]) for m in E2E_UNITS} if done else {},
        "command_s": {c: summary([r["command_s"][c] for r in done])
                      for c in (done[0]["command_s"] if done else {})},
        "seconds": time.monotonic() - start,
        "machine": machine_info(every[0].get("versions", {})),
    }
    if traced is not None and "wall_s" in traced:
        result["layers"] = dict(traced["layers"])
        result["layers"]["trace.overhead_s"] = (
            traced["wall_s"] - result["end_to_end"]["wall_s"]["median"] if done else 0.0
        )
    return result


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(res: dict, trace: bool) -> dict:
    """Print one workload's block; return its metrics for the JSON line."""
    w = res["workload"]
    print(f"== {w}  seed {res['seed']}  runs {res['runs']}  "
          f"{res['seconds']:.1f} s  fail_frac {res['failed']}/{res['attempted']}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    for p in res["problems"][:20]:
        print(f"  FAIL {p}")
    for m, s in res["end_to_end"].items():
        print(f"  {m:<12} {_fmt(s['median']):>10} {E2E_UNITS[m]:<3} "
              f"(q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n={s['n']})")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':<12} {_fmt(frac):>10} ratio ({res['failed']} of "
          f"{res['attempted']} commands)")
    for c, s in res["command_s"].items():
        print(f"    {c:<24} {_fmt(s['median']):>10} s")
    if trace:
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
        layers = res.get("layers", {})
        for m, v in layers.items():
            print(f"  {m:<46} {_fmt(v):>12} {units[m]}")
        return {m: {"value": v, "unit": units[m]} for m, v in layers.items()}
    return {m: {"value": s["median"], "unit": E2E_UNITS[m]} for m, s in res["end_to_end"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "d3lab" / "cli.py").is_file():
        print("error: run from the root of a d3lab checkout (src/d3lab/cli.py not found)",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for w in workloads:
        res = measure(w, args.seed, args.seconds, bool(args.trace))
        (WORK / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1, sort_keys=True))
        block = report(res, bool(args.trace))
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in block.items()})
        attempted += res["attempted"]
        failed += res["failed"]
    expected = len(workloads) * (len(LAYER_METRICS) + 1 if args.trace else len(E2E_UNITS))
    correct = failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
