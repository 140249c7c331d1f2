"""Spans around calls into the antfis modules, for the traced run only.

The wrappers live here, in the benchmark, not in the package: while a
traced operation runs, every binding of a wrapped function in any
``antfis`` module (including names imported with ``from .x import y``)
is replaced by a wrapper that records a span, and the originals are put
back when the operation ends. Untraced operations run the package as
shipped.

A span holds its name, start, end, the span that caused it and the
operation it belongs to. Spans stay in memory until the run writes them
out. A function listed in WRAPPED that the package no longer defines is
skipped, and the metrics built from it read zero.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, function) pairs, one per layer boundary the benchmark times.
# "Class.method" names a method patched on the class.
WRAPPED = (
    ("synthfield", "generate_dataset"),
    ("dataset", "load_dataset"),
    ("dataset", "write_dataset_csv"),
    ("dataset", "DataSet.features"),
    ("dataset", "split"),
    ("dataset", "fit_normalizer"),
    ("dataset", "apply_normalizer"),
    ("dataset", "eval_metrics"),
    ("fcm", "fcm_cluster"),
    ("fis", "log_firing_strengths"),
    ("fis", "normalized_firing"),
    ("fis", "design_matrix"),
    ("fis", "solve_consequents"),
    ("fis", "fit_consequents"),
    ("fis", "init_from_fcm"),
    ("fis", "decode_premise"),
    ("fis", "predict_batch"),
    ("aco", "optimize"),
    ("aco", "sample_candidate"),
    ("aco", "update_archive"),
    ("rng", "substream"),
    ("trainer", "train"),
    ("trainer", "sweep"),
    ("trainer", "predict_points"),
    ("trainer", "save_model"),
    ("trainer", "load_model"),
    ("cli", "run"),
)

# The fitness function aco.optimize receives is a closure, not a module
# function, so the optimize wrapper wraps it under this name.
OBJECTIVE = "fis.objective"

# Operation phases, in the order a per-layer metric looks for its calls:
# the workload's own step, then the loop's side steps, then set-up.
PHASES = ("loop", "side", "setup")


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _write_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _fcm_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _design_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _gram_flops(args, kwargs, result):
    # A.T @ A plus A.T @ y on an (n, k) design matrix.
    n, k = args[0].shape
    return {"flops": 2 * n * k * k + 2 * n * k}


# Counts read off a call's arguments or result, by span name.
_ATTRS = {
    "dataset.write_dataset_csv": _write_bytes,
    "fcm.fcm_cluster": _fcm_iterations,
    "fis.design_matrix": _design_bytes,
    "fis.solve_consequents": _gram_flops,
}
# Spans that also record process CPU time, children included.
_CPU_TIMED = frozenset({"trainer.sweep"})


class Tracer:
    """Records spans for operations run under `operation(phase)`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase_of: dict[int, str] = {}  # operation id -> phase
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._trace = 0
        self._local = threading.local()
        self._patches = self._binding_sites()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _binding_sites(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every wrapped binding."""
        for mod_name, _ in WRAPPED:
            importlib.import_module(f"antfis.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "antfis"
                                         or name.startswith("antfis."))]
        sites = []
        for mod_name, attr in WRAPPED:
            mod = sys.modules[f"antfis.{mod_name}"]
            name = f"{mod_name}.{attr.rpartition('.')[2]}"
            if "." in attr:
                cls_name, _, meth = attr.partition(".")
                cls = getattr(mod, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(meth)
                if callable(fn):
                    sites.append((cls, meth, fn, self._wrap(name, fn)))
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        sites.append((m, key, fn, wrapper))
        return sites

    @contextmanager
    def operation(self, phase: str):
        """Trace one workload operation: wrappers are in place only inside."""
        self._trace = next(self._trace_ids)
        self.phase_of[self._trace] = phase
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)

    def _call(self, name, fn, args, kwargs, parent):
        span_id = next(self._span_ids)
        if name == "aco.optimize":
            args, kwargs = self._wrap_objective(span_id, args, kwargs)
        stack = self._stack()
        stack.append(span_id)
        cpu0 = _cpu_seconds() if name in _CPU_TIMED else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = None
        if name in _ATTRS:
            attrs = _ATTRS[name](args, kwargs, result)
        if cpu0 is not None:
            attrs = {"cpu_s": _cpu_seconds() - cpu0}
        self.spans.append(Span(span_id, parent, self._trace, name,
                               start, end, attrs))
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            return self._call(name, fn, args, kwargs,
                              stack[-1] if stack else None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_objective(self, optimize_id, args, kwargs):
        # The objective may run in optimize's worker threads, whose span
        # stacks are empty, so its parent is pinned to the optimize span.
        if args:
            objective, args = args[0], args[1:]
        else:
            objective = kwargs.pop("objective")

        def traced(*a, **kw):
            return self._call(OBJECTIVE, objective, a, kw, optimize_id)
        return (traced, *args), kwargs

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "trace": s.trace, "phase": self.phase_of.get(s.trace),
                    "span": s.span_id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children of one span may overlap (fitness evaluations in worker
    threads), so the union of their intervals is subtracted, not the sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - covered(children.get(s.span_id, ()),
                                            s.start, s.end)
            for s in spans}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _p99(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[98])


# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = (
    ("synthfield.generate_dataset.s", "s"),
    ("dataset.load_dataset.s", "s"),
    ("dataset.features.s", "s"),
    ("dataset.write_dataset_csv.s", "s"),
    ("dataset.split.s", "s"),
    ("dataset.apply_normalizer.s", "s"),
    ("dataset.csv_bytes", "bytes"),
    ("fcm.fcm_cluster.s", "s"),
    ("fcm.iterations", "count"),
    ("fis.fitness_eval_us.p50", "us"),
    ("fis.fitness_eval_us.p99", "us"),
    ("fis.log_firing_strengths.self_us", "us"),
    ("fis.normalized_firing.self_us", "us"),
    ("fis.design_matrix.self_us", "us"),
    ("fis.solve_consequents.self_us", "us"),
    ("fis.predict_batch.s", "s"),
    ("fis.design_matrix.bytes_computed", "bytes"),
    ("fis.gram.flops_computed", "flop"),
    ("aco.optimize.s", "s"),
    ("aco.optimize.self_s", "s"),
    ("aco.sample_candidate.self_us", "us"),
    ("aco.update_archive.self_us", "us"),
    ("rng.substream.self_us", "us"),
    ("aco.evaluations", "count"),
    ("aco.fitness_share", "ratio"),
    ("trainer.train.s", "s"),
    ("trainer.sweep.cell_s.max", "s"),
    ("trainer.sweep.cpu_util", "ratio"),
    ("trainer.predict_points.s", "s"),
    ("trainer.save_model.s", "s"),
    ("trainer.load_model.s", "s"),
    ("cli.run.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def layer_metrics(tracer: Tracer, nproc: int) -> dict[str, float]:
    """Per-layer values from the recorded spans (all of LAYER_METRICS but
    the trace.overhead_* pair, which needs the untraced operations).

    Each function's calls are taken from the first phase in PHASES that
    made any, so one metric never mixes, say, the fitness-path and the
    200k-row calls of one function. Times are medians per call.
    """
    by_phase: dict[tuple[str, str], list[Span]] = {}
    for s in tracer.spans:
        by_phase.setdefault((tracer.phase_of[s.trace], s.name), []).append(s)

    def calls(name: str) -> list[Span]:
        for phase in PHASES:
            if (phase, name) in by_phase:
                return by_phase[(phase, name)]
        return []

    selfs = self_times(tracer.spans)
    kids: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def secs(name):
        return _median(s.duration for s in calls(name))

    def self_us(name):
        return _median(selfs[s.span_id] * 1e6 for s in calls(name))

    def attr(name, key):
        return _median(s.attrs[key] for s in calls(name))

    fitness_us = [s.duration * 1e6 for s in calls(OBJECTIVE)]
    optimize = calls("aco.optimize")
    objective_s = {
        o.span_id: covered([(k.start, k.end) for k in kids.get(o.span_id, ())
                            if k.name == OBJECTIVE], o.start, o.end)
        for o in optimize}
    optimize_total = sum(o.duration for o in optimize)
    sweeps = calls("trainer.sweep")

    return {
        "synthfield.generate_dataset.s": secs("synthfield.generate_dataset"),
        "dataset.load_dataset.s": secs("dataset.load_dataset"),
        "dataset.features.s": secs("dataset.features"),
        "dataset.write_dataset_csv.s": secs("dataset.write_dataset_csv"),
        "dataset.split.s": secs("dataset.split"),
        "dataset.apply_normalizer.s": secs("dataset.apply_normalizer"),
        "dataset.csv_bytes": attr("dataset.write_dataset_csv", "bytes"),
        "fcm.fcm_cluster.s": secs("fcm.fcm_cluster"),
        "fcm.iterations": attr("fcm.fcm_cluster", "iterations"),
        "fis.fitness_eval_us.p50": _median(fitness_us),
        "fis.fitness_eval_us.p99": _p99(fitness_us),
        "fis.log_firing_strengths.self_us": self_us("fis.log_firing_strengths"),
        "fis.normalized_firing.self_us": self_us("fis.normalized_firing"),
        "fis.design_matrix.self_us": self_us("fis.design_matrix"),
        "fis.solve_consequents.self_us": self_us("fis.solve_consequents"),
        "fis.predict_batch.s": secs("fis.predict_batch"),
        "fis.design_matrix.bytes_computed": attr("fis.design_matrix", "bytes"),
        "fis.gram.flops_computed": attr("fis.solve_consequents", "flops"),
        "aco.optimize.s": secs("aco.optimize"),
        "aco.optimize.self_s": _median(o.duration - objective_s[o.span_id]
                                       for o in optimize),
        "aco.sample_candidate.self_us": self_us("aco.sample_candidate"),
        "aco.update_archive.self_us": self_us("aco.update_archive"),
        "rng.substream.self_us": self_us("rng.substream"),
        "aco.evaluations": _median(
            sum(k.name == OBJECTIVE for k in kids.get(o.span_id, ()))
            for o in optimize),
        "aco.fitness_share": (sum(objective_s.values()) / optimize_total
                              if optimize_total > 0 else 0.0),
        "trainer.train.s": secs("trainer.train"),
        "trainer.sweep.cell_s.max": _median(
            max((k.duration for k in kids.get(s.span_id, ())
                 if k.name == "trainer.train"), default=0.0)
            for s in sweeps),
        "trainer.sweep.cpu_util": _median(
            s.attrs["cpu_s"] / (s.duration * nproc) for s in sweeps),
        "trainer.predict_points.s": secs("trainer.predict_points"),
        "trainer.save_model.s": secs("trainer.save_model"),
        "trainer.load_model.s": secs("trainer.load_model"),
        "cli.run.s": secs("cli.run"),
        "trace.spans": float(len(tracer.spans)),
    }
