"""One run of one workload, in a fresh Python process.

The process imports d3lab once, runs the workload's set-up commands,
marks itself ready, then calls ``d3lab.cli.main(argv)`` for each timed
command and times every call from outside.  Every ``lru_cache`` starts
cold, as it does for a user of the command line.  The result goes to
``<run-dir>/result.json``; command outputs go to ``<run-dir>/<id>.out``.

    python3 perfbench/child.py --workload W --seed S --run-dir DIR --t0 T [--trace]

``--t0`` is the runner's ``time.monotonic()`` just before it started
this process, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import d3lab.cli  # noqa: E402  (after the path set-up)

from workloads import plan  # noqa: E402


def _call(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one CLI call; an exception that
    escapes main counts as exit code 1, with its traceback on stderr."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = d3lab.cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:  # before set-up, which is where scan-w2 sieves and writes its cache
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    setup, commands, flags = plan(args.workload, args.run_dir)
    setup_rc = [_call(argv)[0] for argv in setup]
    setup_s = time.monotonic() - args.t0

    results = []
    for cmd in commands:
        argv = flags + cmd.full_argv(args.seed, args.run_dir)
        start = time.perf_counter()
        rc, stdout = _call(argv)
        seconds = time.perf_counter() - start
        if cmd.stdout:
            (args.run_dir / f"{cmd.id}.out").write_text(stdout)
        results.append({"id": cmd.id, "rc": rc, "seconds": seconds})
    layers = None
    if tracer is not None:
        tracer.uninstall()
        report = args.run_dir / "scan.out"
        # grid points = report rows (they start with x); the base of calls_per_point
        points = (sum(1 for line in report.read_text().splitlines() if line[:1].isdigit())
                  if report.exists() else None)
        layers = tracer.metrics(points)
        tracer.dump(args.run_dir / "spans.json")

    kb_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {
        "setup_s": setup_s,
        "setup_rc": setup_rc,
        "commands": results,
        "peak_rss_mb": (kb_self + kb_children) / 1024.0,
        "layers": layers,
        "versions": versions(),
    }
    (args.run_dir / "result.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
