"""The benchmark's timed commands, read from perfbench/workloads.py, so
that a test pins what the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, _PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def timed_commands(workload: str) -> dict[str, list[str]]:
    """{command id: argv} of a workload's timed commands, without --out."""
    return {cmd.id: list(cmd.argv) for cmd in _workloads().plan(workload, Path())[1]}
