"""Capture the reference outputs that check.py compares against.

    python3 perfbench/capture.py

Run from the root of a checkout.  Runs every workload once at
DEFAULT_SEED and stores each command's output, gzipped, as
``perfbench/reference/<id>.out.gz``.  The scan reports of scan-w1 and
scan-w2 must be byte-identical; capture stops if they are not.  Only
recapture when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import gzip
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import REFERENCE_DIR  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, plan  # noqa: E402


def main() -> int:
    work = Path.cwd() / ".perfbench"
    work.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    scans = {}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for w in WORKLOADS:
            run_dir = Path(tmp) / w
            run_dir.mkdir()
            subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", w,
                            "--seed", str(DEFAULT_SEED), "--run-dir", str(run_dir),
                            "--t0", repr(time.monotonic())], check=True)
            for cmd in plan(w, run_dir)[1]:
                data = (run_dir / f"{cmd.id}.out").read_bytes()
                if cmd.kind == "scan":
                    scans[w] = data
                # mtime=0 keeps the archive bytes reproducible
                with open(REFERENCE_DIR / f"{cmd.id}.out.gz", "wb") as raw, gzip.GzipFile(
                    fileobj=raw, mode="wb", mtime=0, filename=""
                ) as gz:
                    gz.write(data)
                print(f"{w}: {cmd.id} ({len(data)} bytes)")
    if scans["scan-w1"] != scans["scan-w2"]:
        print("error: scan-w1 and scan-w2 reports differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
