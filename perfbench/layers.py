"""Per-layer spans recorded from outside the library.

The tracer replaces each boundary function by a timing wrapper in every
finfactor namespace that holds it (``block_pattern`` is imported by name into
``compression``, ``load_matrix`` into ``cli``, and so on), so calls made from
inside the library are seen as well as calls made by the benchmark. Only
public names are wrapped: a refactor that renames a private helper cannot
silently drop a span, and a refactor that removes a public boundary makes
``install`` fail loudly.

Spans stay in memory as ``[name, start, end, parent, instance, failed]`` and
are aggregated over the traced pass; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import statistics
import sys
import time

# module -> public functions timed as layer boundaries
BOUNDARIES = {
    "star_algebra": ("generate", "commutant", "equal"),
    "matrix_units": ("nested_product", "verify"),
    "sparsity": (
        "minimize_index",
        "interaction_index",
        "block_pattern",
        "support_mask",
        "hyperfinite_pair",
    ),
    "compression": (
        "pipeline",
        "cut_and_paste",
        "recover_elements",
        "single_generator_pair",
        "fuse",
    ),
    "matrix_core": ("hermitian_function", "load_matrix"),
    "cli": ("main",),
}

BOUNDARY_NAMES = tuple(f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns)

# boundary stats, unit and the direction that is better
STATS = (("calls", "count", "lower"), ("busy_s", "s", "lower"),
         ("self_s", "s", "lower"), ("failed", "count", "lower"))

EXTRAS = (
    ("star_algebra.generate.out_dim", "count", "lower"),
    ("star_algebra.generate.basis_mb_max", "MiB", "lower"),
    ("star_algebra.commutant.matrix_mb_max", "MiB", "lower"),
    ("sparsity.minimize_index.accept_ratio", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
)

# Which end-to-end metric each layer metric is expected to move, and where
# (workload.metric, with the part of the workload in brackets).
LAYER_MAP = {
    "star_algebra.generate.self_s": ["closure_pipeline.batch_s", "tower_search.batch_s (tower)"],
    "star_algebra.generate.out_dim": ["closure_pipeline.batch_s", "tower_search.batch_s (tower)"],
    "star_algebra.generate.calls": ["closure_pipeline.batch_s (pipeline: 5 per pipeline until "
                                    "the duplicate call goes)", "none from search instances"],
    "star_algebra.commutant.busy_s": ["closure_pipeline.instance_s_p50 (closure)"],
    "matrix_units.verify.busy_s": ["tower_search.batch_s (tower)"],
    "sparsity.block_pattern.calls": ["tower_search.batch_s (search)"],
    "sparsity.block_pattern.busy_s": ["tower_search.batch_s (search)"],
    "sparsity.minimize_index.self_s": ["tower_search.batch_s (search: grouping-swap loop)"],
    "compression.cut_and_paste.self_s": ["closure_pipeline.batch_s (pipeline)",
                                         "closure_pipeline.instance_s_p90 (k=12 round trips)"],
    "cli.main.self_s": ["closure_pipeline.batch_s (pipeline)"],
    "star_algebra.generate.basis_mb_max": ["closure_pipeline.peak_rss_mb", "tower_search.peak_rss_mb"],
    "star_algebra.commutant.matrix_mb_max": ["closure_pipeline.peak_rss_mb"],
}

_BYTES_PER_ENTRY = 16  # complex128
_MIB = float(1 << 20)
_ACCEPTED = re.compile(r"accepted=(\d+)$")


def per_layer_spec():
    """(name, unit, better) for every per-layer metric, in output order."""
    spec = [(f"{b}.{stat}", unit, better) for b in BOUNDARY_NAMES for stat, unit, better in STATS]
    return spec + list(EXTRAS)


def _observe_generate(counters, args, result):
    n = result.ambient_dim
    counters["star_algebra.generate.out_dim"] += result.dim
    mb = result.dim * n * n * _BYTES_PER_ENTRY / _MIB
    counters["star_algebra.generate.basis_mb_max"] = max(
        counters["star_algebra.generate.basis_mb_max"], mb)


def _observe_commutant(counters, args, result):
    a = args.arguments["a"]
    g = a.dim if hasattr(a, "elements") else len(list(a))
    n = result.ambient_dim
    mb = 2 * g * n ** 4 * _BYTES_PER_ENTRY / _MIB
    counters["star_algebra.commutant.matrix_mb_max"] = max(
        counters["star_algebra.commutant.matrix_mb_max"], mb)


def _observe_minimize(counters, args, result):
    if args.arguments["strategy"] == "diagonal_grouping":
        return
    _, report = result
    match = _ACCEPTED.search(report.family_id)
    if match is None:
        raise RuntimeError(f"family_id without an accepted count: {report.family_id!r}")
    counters["accepted"] += int(match.group(1))
    counters["iterations"] += args.arguments["iters"]


_OBSERVERS = {
    "star_algebra.generate": _observe_generate,
    "star_algebra.commutant": _observe_commutant,
    "sparsity.minimize_index": _observe_minimize,
}

_COUNTER_NAMES = ("star_algebra.generate.out_dim", "star_algebra.generate.basis_mb_max",
                  "star_algebra.commutant.matrix_mb_max", "accepted", "iterations")


class Tracer:
    """Wraps the boundary functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.instance = -1
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.counters = dict.fromkeys(_COUNTER_NAMES, 0)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "finfactor" or name.startswith("finfactor."))]
        for mod_name, fns in BOUNDARIES.items():
            home = sys.modules[f"finfactor.{mod_name}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if not callable(original):
                    raise RuntimeError(f"boundary finfactor.{mod_name}.{fn} no longer exists")
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, original):
        observer = _OBSERVERS.get(name)
        signature = inspect.signature(original)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.instance, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(counters, bound, result)
            return result

        return wrapper

    def pass_summary(self) -> dict:
        """Per-boundary calls, busy, self and failed over all spans, plus the
        extra counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {b: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0} for b in BOUNDARY_NAMES}
        for span, child_s in zip(spans, child):
            row = out[span[0]]
            dur = span[2] - span[1]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child_s
            row["failed"] += int(span[5])
        out["extras"] = dict(self.counters)
        return out


def counts_signature(summary: dict) -> dict:
    """The parts of a pass summary that must repeat exactly between passes."""
    sig = {b: (summary[b]["calls"], summary[b]["failed"]) for b in BOUNDARY_NAMES}
    sig["out_dim"] = summary["extras"]["star_algebra.generate.out_dim"]
    return sig


def per_layer_metrics(summaries: list, overhead: float) -> dict:
    """Per-layer metrics from the traced passes: counts from the first pass
    (they repeat exactly), times as the median over passes."""
    first = summaries[0]
    units = {name: unit for name, unit, _ in per_layer_spec()}
    metrics = {}
    for b in BOUNDARY_NAMES:
        for stat in ("calls", "busy_s", "self_s", "failed"):
            if stat in ("busy_s", "self_s"):
                value = statistics.median(s[b][stat] for s in summaries)
            else:
                value = first[b][stat]
            metrics[f"{b}.{stat}"] = value
    extras = first["extras"]
    for name in ("star_algebra.generate.out_dim", "star_algebra.generate.basis_mb_max",
                 "star_algebra.commutant.matrix_mb_max"):
        metrics[name] = extras[name]
    iterations = extras["iterations"]
    metrics["sparsity.minimize_index.accept_ratio"] = (
        extras["accepted"] / iterations if iterations else 0.0)
    metrics["trace_overhead"] = overhead
    for value in metrics.values():
        if not math.isfinite(value):
            raise RuntimeError("non-finite per-layer metric")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
