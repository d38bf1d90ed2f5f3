import importlib
import json
from pathlib import Path

import pytest

import run
from layertrace import METRICS, MODULES, TARGETS, Tracer, self_times
from workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_times_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("a.inner", 1.5, 2.5, 1),
        ("b", 4.0, 8.0, 0),
        ("c", 7.0, 9.0, 0),  # overlaps b: the root loses the union 4..9, not 4 + 2
        ("a.late", 2.8, 3.5, 1),  # runs past its parent: only 2.8..3 is a's
    ]
    got = self_times(spans)
    assert got == pytest.approx([10 - 2 - 5, 2 - 1 - 0.2, 1.0, 4.0, 2.0, 0.7])


def _snapshot():
    mods = [importlib.import_module(f"d3lab.{m}") for m in MODULES]
    owners = mods + [mods[MODULES.index("laurent")].LaurentExpansion,
                     mods[MODULES.index("voronoi")].SmoothWindow]
    return {(id(o), k): (o, v) for o in owners for k, v in dict(vars(o)).items()}


def test_uninstall_restores_every_attribute_by_identity():
    import d3lab.expsum
    import d3lab.laurent
    import d3lab.variance

    before = _snapshot()
    mul = d3lab.laurent.LaurentExpansion.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        # names imported into other modules are wrapped too
        assert d3lab.variance.mainterm_expsum is not before[
            (id(d3lab.variance), "mainterm_expsum")][1]
        assert d3lab.expsum.divisors is not before[(id(d3lab.expsum), "divisors")][1]
        assert d3lab.laurent.LaurentExpansion.__mul__ is not mul
        one = d3lab.laurent.LaurentExpansion.constant(2.0, 2)
        one * one
    finally:
        tracer.uninstall()
    assert tracer.counts["laurent.LaurentExpansion.__mul__"] == 1
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k, (o, v) in before.items() if after[k][1] is not v]
    assert changed == []


def test_metric_list_matches_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(METRICS) + ["trace.overhead_s"]
    assert {m["name"] for m in doc["end_to_end"]} == set(run.E2E_UNITS)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(t[0] in MODULES for t in TARGETS)


# layer metrics each workload must move (the trace covers scan-w2's parent only)
EXERCISED = {
    "scan-w1": ["arith.sieve_dk.self_s", "arith.sieve_dk.entries",
                "laurent.LaurentExpansion.__mul__.calls",
                "mainterm.restricted_series_laurent.hit_rate",
                "mainterm.class_main_term.calls", "variance.progression_sums.calls_per_point",
                "variance.delta_all.self_s", "variance.divisor_decomposition_check.self_s",
                "variance.variance_report.calls", "cli.load_or_build_table.self_s"],
    "scan-w2": ["arith.sieve_dk.entries", "cli.write_cache.bytes", "cli.read_cache.hits",
                "cli.read_cache.self_s", "variance.exponent_scan.worker_cpu_s"],
    "voronoi": ["voronoi.SmoothWindow.mellin.s_nodes", "voronoi.w_transform.passes_per_eval",
                "voronoi.w_transform.hit_rate", "voronoi.gamma_ratio_cubed.points",
                "voronoi.kernel_U.calls", "voronoi.dual_sum_eval.self_s",
                "voronoi.smoothed_delta_direct.self_s", "expsum.a_sum.self_s"],
    "exact": ["arith.factorize.calls", "arith.sigma.calls",
              "arith.kloosterman_table.hit_rate", "expsum.r_sum_fast.calls",
              "expsum.correlation_bound_scan.self_s", "expsum.cq_pair_sum.calls"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_reference_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    res = run.run_once(workload, DEFAULT_SEED, True, 170.0, "test")
    assert res["problems"] == [] and res["failed"] == 0
    layers = res["layers"]
    assert list(layers) == list(METRICS)
    assert all(v >= 0 for v in layers.values())
    assert layers["cli.main.self_s"] > 0
    assert [m for m in EXERCISED[workload] if not layers[m] > 0] == []
    assert (tmp_path / "trace" / f"{workload}-seed{DEFAULT_SEED}.json").exists()
