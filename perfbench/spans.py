"""Span tracing for the benchmark's traced run, installed from outside iwal.

A `Tracer` replaces public functions of the library's layers with wrappers
that record one span per call: id, parent span id, name, start and end. The
spans stay in memory; `layer_metrics` turns them into per-layer times and
counters, and `write` saves them once at the end. `LossFunction.eval` runs
about a million times per finite-class run, so it is counted, not spanned.
Every wrapper is removed when the `installed()` block exits, also on error.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from iwal import bootstrap, engine, harness, losses, solver, thresholds, trees

# threshold classes reported one metric set each, keyed by a short tag
THRESHOLD_CLASSES = {
    "finite": thresholds.LossWeightingFinite,
    "linear": thresholds.LossWeightingLinear,
    "committee": bootstrap.CommitteeThreshold,
}

# (unit, name) of every metric `layer_metrics` returns, in report order
LAYER_METRICS = [
    ("s", "harness.data_s"),
    ("s", "harness.eval_s"),
    ("count", "harness.checkpoints"),
    ("s", "harness.emit_s"),
    ("count", "engine.steps"),
    ("us", "engine.step_p50_us"),
    ("us", "engine.step_tail_us"),
    ("s", "engine.step_self_s"),
    ("count", "engine.refreshes"),
    ("s", "engine.erm_s"),
    *[(unit, f"threshold.{tag}.{field}")
      for tag in THRESHOLD_CLASSES
      for unit, field in (("count", "probability_calls"),
                          ("s", "probability_s"), ("s", "record_s"))],
    ("count", "solver.interval_solves"),
    ("s", "solver.interval_s"),
    ("share", "solver.interval_shortcut_share"),
    ("count", "solver.erm_solves"),
    ("s", "solver.erm_s"),
    ("count", "solver.newton_steps"),
    ("count", "solver.outer_stages"),
    ("count", "losses.scalar_evals"),
    ("s", "bootstrap.costing_s"),
    ("share", "bootstrap.kept_share"),
    ("count", "trees.fits"),
    ("count", "trees.fit_rows"),
    ("s", "trees.fit_s"),
]

# the step tail is the highest of these percentiles with >= 10 samples beyond
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _step_name(engine_self, *args, **kwargs):
    passive = isinstance(engine_self.threshold, thresholds.ConstantThreshold)
    return "engine.step.passive" if passive else "engine.step.active"


def _solver_work(tracer, args, result):
    tracer.counts["solver.newton_steps"] += result.diagnostics.newton_steps
    tracer.counts["solver.outer_stages"] += result.diagnostics.outer_stages


def _interval_work(tracer, args, result):
    _solver_work(tracer, args, result)
    tracer.counts["solver.interval_shortcuts"] += result.diagnostics.used_shortcut


def _costing_work(tracer, args, result):
    tracer.counts["bootstrap.offered"] += len(args[0])
    tracer.counts["bootstrap.kept"] += len(result)


def _fit_work(tracer, args, result):
    tracer.counts["trees.fit_rows"] += len(args[1])   # args: (cls, X, y, ...)


def layer_targets():
    """(owner, attribute, span name, result hook) for every spanned function.

    Module attributes are patched where the callers look them up: harness
    calls its own module globals, engine.py imported `erm_weighted` by name,
    and the thresholds reach the solver through the `solver` module.
    """
    targets = [
        (harness, "run_experiment", "harness.run", None),
        (harness, "build_data", "harness.data", None),
        (harness, "evaluate_loss", "harness.eval_loss", None),
        (harness, "evaluate_error", "harness.eval_error", None),
        (harness, "emit_curves", "harness.emit", None),
        (engine.Engine, "step", _step_name, None),
        (engine.Engine, "refresh_hypothesis", "engine.refresh", None),
        (engine, "erm_weighted", "engine.erm", None),
        (solver, "minimize_linear", "solver.interval", _interval_work),
        (solver, "minimize_weighted_loss", "solver.erm", _solver_work),
        (bootstrap, "costing_resample", "bootstrap.costing", _costing_work),
        (trees.DecisionTree, "fit", "trees.fit", _fit_work),
    ]
    for tag, cls in THRESHOLD_CLASSES.items():
        targets.append((cls, "probability", f"threshold.{tag}.probability", None))
        targets.append((cls, "record", f"threshold.{tag}.record", None))
    return targets


# functions only counted: (owner, attribute, counter name)
COUNTED = [(losses.LossFunction, "eval", "losses.scalar_evals")]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []          # (span id, parent id, name, start, end)
        self.counts = Counter()
        self._stack = [0]        # open span ids; 0 is the root
        self._next_id = 1
        self._patches = []       # (owner, attribute, original raw attribute)

    def _spanned(self, fn, name, hook):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                spans.append((span_id, parent, label, start, end))
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        try:
            for owner, attr, name, hook in layer_targets():
                self._patch(owner, attr,
                            lambda fn, n=name, h=hook: self._spanned(fn, n, h))
            for owner, attr, name in COUNTED:
                self._patch(owner, attr, lambda fn, n=name: self._counted(fn, n))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write(self, path, meta: dict) -> None:
        """Save the spans as JSON: meta fields plus a `spans` row list."""
        payload = dict(meta)
        payload["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def _tail(samples):
    """(percentile, value) of the highest TAIL_PERCENTILES entry with at
    least 10 samples beyond it, or (None, None) with too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        index = min(n - 1, int(pct / 100.0 * n))
        if n - 1 - index >= 10:
            return pct, ordered[index]
    return None, None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times (s, us), counts and shares of one traced run."""
    durations = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    for span_id, parent, name, start, end in tracer.spans:
        durations[name] += end - start
        calls[name] += 1
        child_time[parent] += end - start
    self_time = defaultdict(float)
    for span_id, parent, name, start, end in tracer.spans:
        self_time[name] += (end - start) - child_time[span_id]
    steps_us = [(end - start) * 1e6 for _, _, name, start, end in tracer.spans
                if name == "engine.step.active"]
    tail_pct, tail_us = _tail(steps_us)
    counts = tracer.counts
    metrics = {
        "harness.data_s": durations["harness.data"],
        "harness.eval_s": (durations["harness.eval_loss"]
                           + durations["harness.eval_error"]),
        "harness.checkpoints": calls["harness.eval_loss"],
        "harness.emit_s": durations["harness.emit"],
        "engine.steps": len(steps_us),
        "engine.step_p50_us": statistics.median(steps_us) if steps_us else 0.0,
        "engine.step_tail_us": tail_us if tail_us is not None else 0.0,
        "engine.step_tail_pct": tail_pct,    # which percentile; not a metric
        "engine.step_self_s": (self_time["engine.step.active"]
                               + self_time["engine.step.passive"]),
        "engine.refreshes": calls["engine.refresh"],
        "engine.erm_s": durations["engine.erm"],
        "solver.interval_solves": calls["solver.interval"],
        "solver.interval_s": durations["solver.interval"],
        "solver.interval_shortcut_share": (
            counts["solver.interval_shortcuts"] / calls["solver.interval"]
            if calls["solver.interval"] else 0.0),
        "solver.erm_solves": calls["solver.erm"],
        "solver.erm_s": durations["solver.erm"],
        "solver.newton_steps": counts["solver.newton_steps"],
        "solver.outer_stages": counts["solver.outer_stages"],
        "losses.scalar_evals": counts["losses.scalar_evals"],
        "bootstrap.costing_s": durations["bootstrap.costing"],
        "bootstrap.kept_share": (
            counts["bootstrap.kept"] / counts["bootstrap.offered"]
            if counts["bootstrap.offered"] else 0.0),
        "trees.fits": calls["trees.fit"],
        "trees.fit_rows": counts["trees.fit_rows"],
        "trees.fit_s": durations["trees.fit"],
    }
    for tag in THRESHOLD_CLASSES:
        prefix = f"threshold.{tag}"
        metrics[f"{prefix}.probability_calls"] = calls[f"{prefix}.probability"]
        metrics[f"{prefix}.probability_s"] = self_time[f"{prefix}.probability"]
        metrics[f"{prefix}.record_s"] = durations[f"{prefix}.record"]
    return metrics
