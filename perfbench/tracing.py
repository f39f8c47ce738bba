"""Benchmark-side tracing of srgate's layers.

The benchmark does not change the program. It replaces the module
attributes through which srgate's own code looks up its public functions
(``simulate.calibration_report``, ``simulate.gate_adaptive``,
``calibration.bootstrap_ci``, ...) with wrappers that record spans or
counters, and puts the originals back afterwards.

Two kinds of wrapper keep the overhead small:

- a span (name, start, end, parent) for calls that happen a few times per
  operation, such as ingest, the experiment, a bootstrap CI or one PGM load;
- an aggregate counter, optionally with summed time, for per-record
  functions (``gate``, ``gate_adaptive``, ``apply_guard``,
  ``validate_record``), which run hundreds of thousands of times.

Spans stay in memory until the run ends. A span's self time is its
duration minus the part of it covered by child spans and by timed
aggregate calls made directly inside it.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    # seconds spent in timed aggregate calls made while this span was innermost
    inner_s: float = 0.0


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def add_inner(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].inner_s += seconds


# --- span arithmetic ------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus child-span coverage minus timed inner calls."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        child_cover = covered(children.get(i, []), s.start, s.end)
        out.append(max(0.0, s.end - s.start - child_cover - s.inner_s))
    return out


# --- instrumentation -----------------------------------------------------------

_BOOTSTRAP_PREFIX = "calibration.bootstrap."


def _span_wrapper(tracer: Tracer, fn, name, after=None):
    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _span_under(tracer: Tracer, fn, name: str, parent: str):
    """Span only for calls made directly inside a span named ``parent``;
    elsewhere the call stays part of its caller's self time."""
    spanned = _span_wrapper(tracer, fn, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cur = tracer.current()
        if cur is not None and cur.name == parent:
            return spanned(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _bootstrap_name(args, kwargs) -> str:
    # "ece" or "aupr"; the class of an AUPR CI is not part of the name
    return _BOOTSTRAP_PREFIX + str(args[1] if len(args) > 1 else kwargs["metric"])


def _after_len(counter: str, of_result: bool = False, key: str = "records"):
    """Add len() of the result, or of the first argument (passed as ``key``)."""

    def after(tracer, args, kwargs, result):
        tracer.add(counter, len(result if of_result else args[0] if args else kwargs[key]))

    return after


def _after_surface(tracer, args, kwargs, result):
    p, lo_arr = args[0], args[3]
    tracer.add("kernels.surface_pairs", len(lo_arr))
    tracer.add("kernels.surface_cells", len(p) * len(lo_arr))


def _gate_counter(tracer: Tracer, fn, prefix: str, timed: bool):
    levels = {0: "gating.level.none", 1: "gating.level.2x", 2: "gating.level.4x"}
    calls_key = f"gating.{prefix}_calls"
    time_key = f"gating.{prefix}_s"
    counters = tracer.counters
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if timed:
            t0 = clock()
            d = fn(*args, **kwargs)
            dt = clock() - t0
            counters[time_key] = counters.get(time_key, 0.0) + dt
            tracer.add_inner(dt)
        else:
            d = fn(*args, **kwargs)
        counters[calls_key] = counters.get(calls_key, 0) + 1
        lk = levels[int(d.level)]
        counters[lk] = counters.get(lk, 0) + 1
        rk = "gating.reason." + d.reason.value
        counters[rk] = counters.get(rk, 0) + 1
        return d

    return wrapper


def _guard_counter(tracer: Tracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        counters["guard.apply_guard_calls"] = counters.get("guard.apply_guard_calls", 0) + 1
        if out.triggered:
            counters["guard.triggered"] = counters.get("guard.triggered", 0) + 1
        return out

    return wrapper


def _call_counter(tracer: Tracer, fn, key: str):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] = counters.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _bootstrap_eval_counter(tracer: Tracer, fn, rejected_errors):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cur = tracer.current()
        if cur is None or not cur.name.startswith(_BOOTSTRAP_PREFIX):
            return fn(*args, **kwargs)
        counters["calibration.bootstrap_evals"] = counters.get("calibration.bootstrap_evals", 0) + 1
        try:
            return fn(*args, **kwargs)
        except rejected_errors:
            counters["calibration.bootstrap_rejected"] = (
                counters.get("calibration.bootstrap_rejected", 0) + 1
            )
            raise

    return wrapper


def _after_pgm(tracer, args, kwargs, result):
    tracer.add("quality.pgm_bytes", os.path.getsize(args[0] if args else kwargs["path"]))


class Instrumented:
    """Context manager that installs the tracing wrappers and removes them.

    Each plan entry pairs a wrapper factory with every (module, attribute)
    under which srgate code looks the function up. One wrapper is made per
    original function and installed under every one of those names.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _install(self, make, places) -> None:
        originals = {getattr(mod, attr) for mod, attr in places}
        if len(originals) != 1:
            raise RuntimeError(f"names {places} do not refer to one function")
        wrapper = make(originals.pop())
        for mod, attr in places:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def __enter__(self) -> Tracer:
        from srgate import calibration, cli, config, costs, errors, gating, guard
        from srgate import kernels, quality, records, simulate

        t = self.tracer

        def span(name, after=None):
            return lambda fn: _span_wrapper(t, fn, name, after)

        rejected = (errors.DegenerateLabels, errors.EmptyInput, errors.MissingProbs)
        plan = [
            (span("cli.run_cli"), [(cli, "run_cli")]),
            (span("config.codec"), [(config, "experiment_to_dict"), (simulate, "experiment_to_dict")]),
            (span("config.codec"), [(config, "experiment_from_dict")]),
            (span("records.ingest_log", _after_len("records.ingest_records", of_result=True)),
             [(records, "ingest_log")]),
            (span("records.write_log", _after_len("records.write_log_records")),
             [(records, "write_log")]),
            (lambda fn: _call_counter(t, fn, "records.validate_calls"),
             [(records, "validate_record"), (simulate, "validate_record")]),
            (span("simulate.sample_stream"), [(simulate, "sample_stream")]),
            (span("simulate.evaluate_records", _after_len("simulate.evaluate_records")),
             [(simulate, "evaluate_records")]),
            (span("simulate.experiment"), [(simulate, "run_experiment_with_outcomes")]),
            (span("simulate.write_report"), [(simulate, "write_report")]),
            (lambda fn: _gate_counter(t, fn, "gate", False),
             [(gating, "gate"), (simulate, "gate")]),
            (lambda fn: _gate_counter(t, fn, "gate_adaptive", True),
             [(gating, "gate_adaptive"), (simulate, "gate_adaptive")]),
            (span("gating.utility_matrix"), [(gating, "utility_matrix")]),
            (span("gating.optimize_thresholds"), [(gating, "optimize_thresholds")]),
            (span("gating.sensitivity_sweep"), [(gating, "sensitivity_sweep")]),
            (span("kernels.utility_surface", _after_surface), [(kernels, "utility_surface")]),
            (span("kernels.laplacian"), [(kernels, "laplacian_responses")]),
            (lambda fn: _guard_counter(t, fn), [(guard, "apply_guard"), (simulate, "apply_guard")]),
            (span("guard.artifact_heuristic"), [(guard, "artifact_score_heuristic")]),
            (span("calibration.report"),
             [(calibration, "calibration_report"), (simulate, "calibration_report")]),
            (span(_bootstrap_name), [(calibration, "bootstrap_ci")]),
            (lambda fn: _bootstrap_eval_counter(t, fn, rejected), [(calibration, "ece_arrays")]),
            (lambda fn: _bootstrap_eval_counter(t, fn, rejected), [(calibration, "aupr_arrays")]),
            # per-fold scoring; the same functions inside calibration_report
            # are the report's own point metrics and stay in its self time
            *(
                (lambda fn: _span_under(t, fn, "calibration.fold_metric", "simulate.experiment"),
                 [(calibration, attr)])
                for attr in ("accuracy", "ece", "brier")
            ),
            (span("costs.accumulate_cost"), [(costs, "accumulate_cost"), (simulate, "accumulate_cost")]),
            (span("quality.load_pgm", _after_pgm), [(quality, "load_pgm")]),
            (span("quality.laplacian_variance"), [(quality, "laplacian_variance")]),
            (span("quality.ssim"), [(quality, "ssim"), (guard, "ssim")]),
            (span("quality.temporal"),
             [(quality, "temporal_inconsistency"), (guard, "temporal_inconsistency")]),
        ]
        try:
            for make, places in plan:
                self._install(make, places)
        except BaseException:
            self._restore()
            raise
        return t

    def _restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __exit__(self, *exc) -> None:
        self._restore()


# --- per-layer metrics ----------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "calibration.bootstrap.aupr_s": "s",
    "calibration.bootstrap.ece_s": "s",
    "calibration.bootstrap_evals": "count",
    "calibration.bootstrap_rejected": "count",
    "calibration.report_self_s": "s",
    "calibration.fold_metrics_s": "s",
    "records.ingest_s": "s",
    "records.ingest_records": "count",
    "records.write_log_s": "s",
    "records.write_log_records": "count",
    "records.validate_calls": "count",
    "simulate.sample_stream_s": "s",
    "simulate.evaluate_s": "s",
    "simulate.evaluate_records": "count",
    "simulate.experiment_self_s": "s",
    "simulate.write_report_s": "s",
    "gating.gate_calls": "count",
    "gating.gate_adaptive_calls": "count",
    "gating.gate_adaptive_s": "s",
    "gating.utility_matrix_s": "s",
    "gating.optimize_thresholds_s": "s",
    "gating.sensitivity_sweep_s": "s",
    "gating.level.none": "count",
    "gating.level.2x": "count",
    "gating.level.4x": "count",
    "gating.reason.uncovered_default": "count",
    "kernels.utility_surface_s": "s",
    "kernels.surface_pairs": "count",
    "kernels.surface_cells": "count",
    "kernels.laplacian_s": "s",
    "guard.apply_guard_calls": "count",
    "guard.triggered": "count",
    "guard.trigger_rate": "ratio",
    "guard.artifact_heuristic_s": "s",
    "costs.accumulate_cost_s": "s",
    "costs.accumulate_cost_calls": "count",
    "quality.load_pgm_s": "s",
    "quality.pgm_bytes": "bytes",
    "quality.laplacian_variance_s": "s",
    "quality.ssim_s": "s",
    "quality.temporal_s": "s",
    "cli.self_s": "s",
    "cli.ops": "count",
    "config.codec_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}

# metric -> span name whose summed inclusive duration it reports
_DURATIONS = {
    "calibration.bootstrap.ece_s": "calibration.bootstrap.ece",
    "calibration.fold_metrics_s": "calibration.fold_metric",
    "records.ingest_s": "records.ingest_log",
    "records.write_log_s": "records.write_log",
    "simulate.sample_stream_s": "simulate.sample_stream",
    "simulate.evaluate_s": "simulate.evaluate_records",
    "simulate.write_report_s": "simulate.write_report",
    "gating.utility_matrix_s": "gating.utility_matrix",
    "gating.optimize_thresholds_s": "gating.optimize_thresholds",
    "gating.sensitivity_sweep_s": "gating.sensitivity_sweep",
    "kernels.utility_surface_s": "kernels.utility_surface",
    "kernels.laplacian_s": "kernels.laplacian",
    "guard.artifact_heuristic_s": "guard.artifact_heuristic",
    "costs.accumulate_cost_s": "costs.accumulate_cost",
    "quality.load_pgm_s": "quality.load_pgm",
    "quality.laplacian_variance_s": "quality.laplacian_variance",
    "quality.ssim_s": "quality.ssim",
    "quality.temporal_s": "quality.temporal",
    "config.codec_s": "config.codec",
}

# metric -> span name whose number of calls it reports
_CALLS = {
    "costs.accumulate_cost_calls": "costs.accumulate_cost",
    "cli.ops": "cli.run_cli",
}

# metric -> span name whose summed self time it reports
_SELF = {
    "calibration.report_self_s": "calibration.report",
    "simulate.experiment_self_s": "simulate.experiment",
    "cli.self_s": "cli.run_cli",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one traced operation (all but process/trace)."""
    spans = tracer.spans
    selfs = self_times(spans)
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + st
    out: dict[str, float] = {}
    for metric, name in _DURATIONS.items():
        out[metric] = dur.get(name, 0.0)
    for metric, name in _SELF.items():
        out[metric] = own.get(name, 0.0)
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    out["calibration.bootstrap.aupr_s"] = sum(
        v for k, v in dur.items() if k.startswith(_BOOTSTRAP_PREFIX + "aupr")
    )
    c = tracer.counters
    for metric, unit in LAYER_METRICS.items():
        if metric not in out and unit in ("count", "bytes"):
            out[metric] = c.get(metric, 0)
    out["gating.gate_adaptive_s"] = c.get("gating.gate_adaptive_s", 0.0)
    calls = c.get("guard.apply_guard_calls", 0)
    out["guard.trigger_rate"] = c.get("guard.triggered", 0) / calls if calls else 0.0
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans with self time, for the trace file."""
    return [
        {
            "id": i,
            "name": s.name,
            "parent": s.parent,
            "start": s.start,
            "end": s.end,
            "self_s": st,
        }
        for i, (s, st) in enumerate(zip(spans, self_times(spans)))
    ]
