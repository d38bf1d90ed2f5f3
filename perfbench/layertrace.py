"""Per-layer tracing from outside the program.

A Tracer replaces the public functions of d3lab's modules with wrappers
at their module attributes, and at every other d3lab module attribute
bound to the same object (``variance.mainterm_expsum``,
``expsum.divisors``, ...), so calls through imported names are seen too.
Each wrapped call records a span (name, start, end, parent) in memory.
Functions called millions of times are only counted: a span there would
cost more than the call.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("arith", "expsum", "laurent", "mainterm", "variance", "voronoi", "cli")


def _nodes(args, kw):
    import numpy as np

    return float(np.size(args["s"]))


def _cache_bytes(args, kw):
    return float(Path(args["path"]).stat().st_size)


# (module, attribute path, span or count only, {measure: fn(bound args, result) -> amount})
TARGETS = (
    ("arith", "sieve_dk", "span", {"entries": lambda a, r: a["limit"] * (a["k"] - 1)}),
    ("arith", "factorize", "count", {}),
    ("arith", "divisors", "count", {}),
    ("arith", "sigma", "count", {}),
    ("arith", "kloosterman_table", "span", {}),
    ("expsum", "r_sum_fast", "span", {}),
    ("expsum", "correlation_bound_scan", "span", {}),
    ("expsum", "cq_pair_sum", "span", {}),
    ("expsum", "a_sum", "span", {}),
    # spanned so that cli.main's self time is parsing and formatting only
    ("expsum", "prime_power_catalog", "span", {}),
    ("expsum", "correlation_multiplicativity_check", "span", {}),
    ("laurent", "LaurentExpansion.__mul__", "span", {}),
    ("mainterm", "restricted_series_laurent", "span", {}),
    ("mainterm", "class_main_term", "span", {}),
    ("mainterm", "mainterm_expsum", "span", {}),
    ("variance", "progression_sums", "span", {}),
    ("variance", "delta_all", "span", {}),
    ("variance", "divisor_decomposition_check", "span", {}),
    ("variance", "variance_report", "span", {}),
    ("variance", "exponent_scan", "span", {}),
    ("voronoi", "SmoothWindow.mellin", "span", {"s_nodes": _nodes}),
    ("voronoi", "w_transform", "span", {}),
    ("voronoi", "gamma_ratio_cubed", "span", {"points": _nodes}),
    ("voronoi", "kernel_U", "span", {}),
    ("voronoi", "dual_sum_eval", "span", {}),
    ("voronoi", "smoothed_delta_direct", "span", {}),
    ("cli", "write_cache", "span", {"bytes": _cache_bytes}),
    ("cli", "read_cache", "span", {"hits": lambda a, r: float(r is not None)}),
    ("cli", "load_or_build_table", "span", {}),
    ("cli", "main", "span", {}),
)

# metric name -> unit; the order is the order of BENCHMARK.json's per_layer list
METRICS = {
    "arith.sieve_dk.self_s": "s",
    "arith.sieve_dk.entries": "count",
    "arith.factorize.calls": "count",
    "arith.sigma.calls": "count",
    "arith.kloosterman_table.hit_rate": "ratio",
    "arith.kloosterman_table.self_s": "s",
    "expsum.r_sum_fast.calls": "count",
    "expsum.r_sum_fast.self_s": "s",
    "expsum.correlation_bound_scan.self_s": "s",
    "expsum.cq_pair_sum.calls": "count",
    "expsum.cq_pair_sum.self_s": "s",
    "expsum.a_sum.self_s": "s",
    "laurent.LaurentExpansion.__mul__.calls": "count",
    "laurent.LaurentExpansion.__mul__.self_s": "s",
    "mainterm.restricted_series_laurent.calls": "count",
    "mainterm.restricted_series_laurent.hit_rate": "ratio",
    "mainterm.restricted_series_laurent.self_s": "s",
    "mainterm.class_main_term.calls": "count",
    "mainterm.class_main_term.hit_rate": "ratio",
    "mainterm.class_main_term.self_s": "s",
    "variance.progression_sums.calls": "count",
    "variance.progression_sums.self_s": "s",
    "variance.progression_sums.calls_per_point": "ratio",
    "variance.delta_all.self_s": "s",
    "variance.divisor_decomposition_check.self_s": "s",
    "variance.variance_report.calls": "count",
    "variance.variance_report.self_s": "s",
    "variance.exponent_scan.worker_cpu_s": "s",
    "voronoi.SmoothWindow.mellin.calls": "count",
    "voronoi.SmoothWindow.mellin.self_s": "s",
    "voronoi.SmoothWindow.mellin.s_nodes": "count",
    "voronoi.w_transform.calls": "count",
    "voronoi.w_transform.hit_rate": "ratio",
    "voronoi.w_transform.self_s": "s",
    "voronoi.w_transform.passes_per_eval": "ratio",
    "voronoi.gamma_ratio_cubed.points": "count",
    "voronoi.gamma_ratio_cubed.self_s": "s",
    "voronoi.kernel_U.calls": "count",
    "voronoi.kernel_U.self_s": "s",
    "voronoi.dual_sum_eval.self_s": "s",
    "voronoi.smoothed_delta_direct.self_s": "s",
    "cli.write_cache.self_s": "s",
    "cli.write_cache.bytes": "B",
    "cli.read_cache.self_s": "s",
    "cli.read_cache.hits": "count",
    "cli.load_or_build_table.self_s": "s",
    "cli.main.self_s": "s",
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its child spans' intervals
    (clipped to the span).  ``spans`` holds (name, start, end, parent
    index or -1) tuples."""
    kids = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(kids.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans and counters of one traced run, and the patches that make them."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.measures: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._originals: dict[str, object] = {}
        self._children_cpu0 = 0.0

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"d3lab.{m}") for m in MODULES}
        for mod, path, mode, extra in TARGETS:
            name = f"{mod}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # a method: patch the class, which every importer shares
                owner = getattr(mods[mod], owner_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(name, orig, mode, extra))
            else:
                orig = getattr(mods[mod], attr)
                wrapper = self._wrap(name, orig, mode, extra)
                for m in mods.values():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, orig, wrapper)
            self._originals[name] = orig
            if hasattr(orig, "cache_info"):
                info = orig.cache_info()
                self._cache_base[name] = (info.hits, info.misses)
        self._children_cpu0 = _children_cpu_s()

    def uninstall(self) -> None:
        self.measures["variance.exponent_scan.worker_cpu_s"] = (
            _children_cpu_s() - self._children_cpu0
        )
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, mode, extra):
        counts = self.counts
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)

            return counted

        spans, stack, measures = self.spans, self._stack, self.measures
        sig = inspect.signature(fn) if extra else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            counts[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if extra:
                bound = sig.bind(*args, **kw).arguments
                for key, amount in extra.items():
                    measures[f"{name}.{key}"] += amount(bound, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self, points: int | None = None) -> dict[str, float]:
        """Every METRICS entry.  ``points`` is the number of scan grid
        points, the base of ``progression_sums.calls_per_point``."""
        self_s: dict[str, float] = defaultdict(float)
        for (name, *_), st in zip(self.spans, self_times(self.spans)):
            self_s[name] += st
        misses = {}
        out = {}
        for name, (hits0, misses0) in self._cache_base.items():
            info = self._originals[name].cache_info()
            hits, misses[name] = info.hits - hits0, info.misses - misses0
            out[f"{name}.hit_rate"] = hits / (hits + misses[name]) if hits + misses[name] else 0.0
        mellin_calls = self.counts["voronoi.SmoothWindow.mellin"]
        w_misses = misses["voronoi.w_transform"]
        derived = {
            "variance.progression_sums.calls_per_point":
                self.counts["variance.progression_sums"] / points if points else 0.0,
            "voronoi.w_transform.passes_per_eval": mellin_calls / w_misses if w_misses else 0.0,
        }
        for metric in METRICS:
            fn, _, kind = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif kind == "calls":
                out[metric] = float(self.counts[fn])
            elif kind == "self_s":
                out[metric] = self_s[fn]
            elif kind != "hit_rate":
                out[metric] = self.measures[metric]
        return {m: out[m] for m in METRICS}

    def dump(self, path: Path) -> None:
        """Write the spans as {"names": [...], "spans": [[name index,
        start, end, parent], ...]} plus the plain counters."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
