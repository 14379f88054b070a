"""Span recording from outside the library, for the traced run.

``Tracer.install`` rebinds public names in the module that calls them, so
every call into a layer's public functions passes through a wrapper that
records a span: name, start, end, parent span and a few facts read from the
call's arguments or result.  Spans stay in memory until the run ends.
Nothing here changes what the library computes.

A layer's self time is its span's duration minus the time its child spans
cover.  ``layer_metrics`` turns the spans into the per-layer metrics listed
in BENCHMARK.json; a metric of a layer the workload never reaches reads 0.
"""
from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass

from spinopt import dynamics, kriging, magnetometry, optimize


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _propagate_info(args, kwargs, result):
    # The result holds one 2x2 propagator per point.
    return {"p": result.size // 4, "n_steps": int(_arg(args, kwargs, 3, "n_steps", 1000))}


def _nm_info(args, kwargs, result):
    return {"evals": result.n_evals, "iters": result.n_iter, "converged": bool(result.converged)}


def _ramsey_info(args, kwargs, result):
    noise = args[2]
    n_sub = int(_arg(args, kwargs, 4, "n_steps_per_pulse", 50))
    pulses = 8 * result.times.size
    return {"pulses": pulses, "pulse_steps": pulses * noise.n_realizations * n_sub}


# (module, attribute, span name, info extractor)
WRAPPED = (
    (optimize, "build_valid_surrogate", "optimize.build_valid_surrogate", None),
    (optimize, "nelder_mead", "optimize.nelder_mead", _nm_info),
    (optimize, "ensemble_objective", "optimize.ensemble_objective", None),
    (optimize, "enforce_amplitude_constraint", "fields.enforce_amplitude_constraint", None),
    (optimize, "fit", "kriging.fit", None),
    (optimize, "loo_validate", "kriging.loo_validate", None),
    (optimize, "surrogate_objective", "kriging.surrogate_objective", None),
    (kriging, "nelder_mead", "kriging.nelder_mead", _nm_info),
    (kriging.KrigingModel, "with_values", "kriging.with_values", None),
    (dynamics, "propagate_many", "dynamics.propagate_many", _propagate_info),
    (dynamics, "quadratures", "fields.quadratures", None),
    (magnetometry, "simulate_ramsey", "magnetometry.simulate_ramsey", _ramsey_info),
    (magnetometry, "ou_step", "magnetometry.ou_step", None),
    (magnetometry, "quadratures", "fields.quadratures", None),
    (magnetometry, "estimate_t2", "magnetometry.estimate_t2", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    info: dict | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def call(self, name, fn, *args, info=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        span.end = time.perf_counter()
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, info=info, **kwargs)

        return wrapper

    def install(self):
        for owner, attr, name, info in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.info, s.error] for s in self.spans]


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one wrapper call around a no-op, in seconds."""
    probe = Tracer()._wrap("probe", lambda: None, None)
    start = time.perf_counter()
    for _ in range(n):
        probe()
    return (time.perf_counter() - start) / n


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def check_item_accounting(tracer: Tracer, item_walls: list, tol: float = 0.02) -> list:
    """(item index, problem) pairs found when the item spans' children and
    self time are set against each item's wall time; an empty list means
    they account for it.

    Children of one span must lie inside it and must not overlap, so that
    their durations plus the span's self time sum to its duration; and each
    item span must agree with the wall time the item reported itself
    (``OptRun.wall_ms`` for a trial).
    """
    spans = tracer.spans
    kids = _children(spans)
    problems = []
    items = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "item"]
    if len(items) != len(item_walls):
        return [(0, f"{len(items)} item spans for {len(item_walls)} items")]
    for n, (i, wall) in enumerate(zip(items, item_walls)):
        span = spans[i]
        child_spans = sorted((spans[k] for k in kids[i]), key=lambda s: s.start)
        for a, b in zip(child_spans, child_spans[1:]):
            if b.start < a.end:
                problems.append((n, f"children {a.name} and {b.name} overlap"))
        if child_spans and (child_spans[0].start < span.start or child_spans[-1].end > span.end):
            problems.append((n, "a child span lies outside the item"))
        self_s = span.duration - sum(s.duration for s in child_spans)
        if self_s < 0:
            problems.append((n, f"negative self time {self_s:.3e} s"))
        if wall is not None and abs(span.duration - wall) > tol * span.duration + 1e-3:
            problems.append((n, f"span {span.duration:.4f} s against reported wall {wall:.4f} s"))
    return problems


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, n_items: int, n_trials: int, verify_points: int) -> dict:
    """Per-layer metrics (see BENCHMARK.json and README.md for units)."""
    spans = tracer.spans
    kids = _children(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return math.fsum(s.duration for s in named(name))

    def per(x, n):
        return x / n if n else 0.0

    props = named("dynamics.propagate_many")
    done_props = [s for s in props if s.info]  # calls that returned

    def rate(pred):
        sel = [s for s in done_props if pred(s.info["p"])]
        busy = math.fsum(s.duration for s in sel)
        return per(sum(s.info["p"] * s.info["n_steps"] for s in sel), busy)

    fits = named("kriging.fit")
    loos = named("kriging.loo_validate")
    builds = named("optimize.build_valid_surrogate")
    pulse_nm = named("optimize.nelder_mead")
    nll_nm = named("kriging.nelder_mead")
    traces = [s for s in named("magnetometry.simulate_ramsey") if s.info]
    item_idx = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "item"]
    # The verification is the ensemble_objective call made by the trial
    # itself; the direct search's ensemble_objective calls sit under
    # nelder_mead.
    verifies = [
        s
        for s in named("optimize.ensemble_objective")
        if s.parent >= 0 and spans[s.parent].name == "item"
    ]
    item_s = math.fsum(spans[i].duration for i in item_idx)
    child_s = math.fsum(spans[k].duration for i in item_idx for k in kids[i])
    search_s = math.fsum(s.duration for s in pulse_nm)
    pulse_evals = sum(s.info["evals"] for s in pulse_nm if s.info)
    accepted = sum(1 for s in builds if s.error is None)

    return {
        "dynamics.propagate_calls": per(len(props), n_items),
        "dynamics.point_steps": per(
            sum(s.info["p"] * s.info["n_steps"] for s in done_props), n_items
        ),
        "dynamics.busy_s": per(total("dynamics.propagate_many"), n_items),
        "dynamics.rate_p9": rate(lambda p: p == 9),
        "dynamics.rate_p16": rate(lambda p: p == 16),
        "dynamics.rate_p2500": rate(lambda p: p == verify_points),
        "kriging.fit_calls": per(len(fits), n_items),
        "kriging.fit_s": _mean([s.duration for s in fits]),
        "kriging.fit_errors": per(sum(1 for s in fits + loos if s.error), n_items),
        "kriging.nll_evals_per_fit": per(sum(s.info["evals"] for s in nll_nm if s.info), len(fits)),
        "kriging.loo_s": _mean([s.duration for s in loos]),
        "kriging.objective_calls": per(len(named("kriging.surrogate_objective")), n_items),
        "kriging.objective_us": 1e6 * _mean([s.duration for s in named("kriging.surrogate_objective")]),
        "kriging.with_values_us": 1e6 * _mean([s.duration for s in named("kriging.with_values")]),
        "kriging.accept_ratio": per(accepted, len(fits)),
        "optimize.model_attempts": per(len(fits), n_trials),
        "optimize.build_s": per(total("optimize.build_valid_surrogate"), n_trials),
        "optimize.search_s": per(search_s, n_trials),
        "optimize.verify_s": per(math.fsum(s.duration for s in verifies), n_trials),
        "optimize.objective_ms": 1e3 * per(search_s, pulse_evals),
        "optimize.self_frac": per(item_s - child_s, item_s) if n_trials else 0.0,
        "neldermead.pulse_evals": per(pulse_evals, n_trials),
        "neldermead.pulse_iters": per(sum(s.info["iters"] for s in pulse_nm if s.info), n_trials),
        "neldermead.pulse_converged_frac": per(
            sum(1 for s in pulse_nm if s.info and s.info["converged"]), len(pulse_nm)
        ),
        "neldermead.nll_runs": per(len(nll_nm), n_items),
        "neldermead.nll_converged_frac": per(
            sum(1 for s in nll_nm if s.info and s.info["converged"]), len(nll_nm)
        ),
        "fields.enforce_calls": per(len(named("fields.enforce_amplitude_constraint")), n_items),
        "fields.enforce_s": per(total("fields.enforce_amplitude_constraint"), n_items),
        "fields.quadratures_s": per(total("fields.quadratures"), n_items),
        "magnetometry.trace_s": _mean([s.duration for s in traces]),
        "magnetometry.pulses": _mean([s.info["pulses"] for s in traces]),
        "magnetometry.pulse_steps_per_s": per(
            sum(s.info["pulse_steps"] for s in traces), math.fsum(s.duration for s in traces)
        ),
        "magnetometry.ou_calls": per(len(named("magnetometry.ou_step")), len(traces)),
        "magnetometry.ou_s": per(total("magnetometry.ou_step"), len(traces)),
        "magnetometry.t2_fit_s": _mean([s.duration for s in named("magnetometry.estimate_t2")]),
    }


def shares(tracer: Tracer) -> dict:
    """Share of all item time spent in each stage (printed, not bounded).

    ``search_propagation`` is propagation under the pulse search's
    Nelder-Mead; ``verify`` is the trial's own 50x50 ensemble_objective.
    """
    spans = tracer.spans
    item_s = math.fsum(s.duration for s in spans if s.parent < 0 and s.name == "item")
    if not item_s:
        return {}

    def under(span, name):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    def share(pred):
        return math.fsum(s.duration for s in spans if pred(s)) / item_s

    return {
        "verify": share(
            lambda s: s.name == "optimize.ensemble_objective"
            and s.parent >= 0
            and spans[s.parent].name == "item"
        ),
        "search": share(lambda s: s.name == "optimize.nelder_mead"),
        "search_propagation": share(
            lambda s: s.name == "dynamics.propagate_many" and under(s, "optimize.nelder_mead")
        ),
        "build": share(lambda s: s.name == "optimize.build_valid_surrogate"),
        "kriging_fit": share(lambda s: s.name == "kriging.fit"),
        "propagation": share(lambda s: s.name == "dynamics.propagate_many"),
        "quadratures": share(lambda s: s.name == "fields.quadratures"),
        "ou_step": share(lambda s: s.name == "magnetometry.ou_step"),
        "estimate_t2": share(lambda s: s.name == "magnetometry.estimate_t2"),
    }
