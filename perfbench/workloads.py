"""The benchmark's workloads: which d3lab commands each run executes.

A workload is a list of set-up commands (run before the process is
"ready", so they count toward ``setup_s``) and a list of timed commands.
Every command is the argv of one ``d3lab.cli.main`` call.  Why each
workload exists is written down in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20250810  # the acceptance suite's seed; the references are captured at it

# lemma3-check prime powers P^K <= 64 with P in {2, 3, 5}
LEMMA3_POWERS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2))
# prime_power_catalog is exhaustive up to this many tuples, else it samples with the seed
LEMMA3_EXHAUSTIVE_TUPLES = 10_000
FAR_TAIL_N = 17783  # ~10^4.25: the single wtransform that costs more than any other command


@dataclass(frozen=True)
class Command:
    """One timed CLI call.

    ``kind`` names the reference rule in check.py.  ``seeded`` commands
    get ``--seed``; ``sampled`` ones draw their inputs from it, so their
    output matches the reference only at DEFAULT_SEED.  ``stdout``
    commands print their result instead of writing ``--out``.
    """

    id: str
    argv: tuple[str, ...]
    kind: str
    seeded: bool = False
    sampled: bool = False
    stdout: bool = False

    def full_argv(self, seed: int, out_dir: Path) -> list[str]:
        head = ["--seed", str(seed)] if self.seeded else []
        tail = [] if self.stdout else ["--out", str(out_dir / f"{self.id}.out")]
        return head + list(self.argv) + tail


SCAN = Command("scan", ("scan",), "scan")

_VORONOI = (
    Command("kernel", ("kernel", "--x-min", "1", "--x-max", "1e6", "--points", "50"), "sig6"),
    Command("voronoi-compare-q5",
            ("voronoi-compare", "--x", "1e4", "--Y", "1e3", "--q", "5"), "sig6"),
    *(Command(f"wtransform-n{n}",
              ("wtransform", "--q", "10", "--x", "1e4", "--Y", "1e2", "--n", str(n)), "sig6")
      for n in (1, 32, FAR_TAIL_N)),
)

_EXACT = (
    Command("lemma4-scan", ("lemma4-scan", "--q-max", "120", "--entry-max", "4"), "sig6",
            stdout=True),
    *(Command(f"lemma3-check-p{p}-k{k}", ("lemma3-check", "--p", str(p), "--k", str(k)),
              "catalog", seeded=True, sampled=(p**k) ** 4 > LEMMA3_EXHAUSTIVE_TUPLES)
      for p, k in LEMMA3_POWERS),
    Command("lemma2-check",
            ("lemma2-check", "--q1", "4", "--q2", "15", "--samples", "500"), "lemma2",
            seeded=True, sampled=True),
)

WORKLOADS = ("scan-w1", "scan-w2", "voronoi", "exact")


def plan(workload: str, run_dir: Path) -> tuple[list[list[str]], list[Command], list[str]]:
    """(set-up argvs, timed commands, global flags for the timed commands)."""
    if workload == "scan-w1":
        return [], [SCAN], ["--threads", "1"]
    if workload == "scan-w2":
        cache = str(run_dir / "cache")
        return ([["--cache-dir", cache, "sieve", "--n", "1e6"]], [SCAN],
                ["--threads", "2", "--cache-dir", cache])
    if workload == "voronoi":
        return [], list(_VORONOI), []
    if workload == "exact":
        return [], list(_EXACT), []
    raise ValueError(f"unknown workload {workload!r}")
