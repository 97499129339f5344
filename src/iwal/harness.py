"""Experiment orchestration: streams, paired runs, curves, and summaries.

Every experiment runs the configured strategy over a training stream and a
passive twin (the same learner with every label queried) over the identical
stream order, evaluating both on a held-out test set at fixed checkpoints.
All four arm kinds go through one stream loop, `_run_arm`; an arm differs
only in its engine and in the model it reads at each checkpoint. Training
labels reach the learner only through a counting oracle, so the reported
query totals are exactly the number of label requests.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import get_args, get_type_hints

import numpy as np

from . import bootstrap as bs
from .datasets import load_dataset
from .engine import ArrayOracle, Engine, QueryTrace
from .errors import ConfigError
from .hypotheses import (FiniteClass, LinearBall, LinearPredictor,
                         ThresholdPredictor)
from .instances import (SphereInstance, lower_bound_instance,
                        point_mass_instance)
from .losses import SMOOTH_KINDS, LossFunction
from .thresholds import (SLACK_MODES, ConstantThreshold, LossWeightingFinite,
                         LossWeightingLinear)
from .trees import DecisionTree, TreeParams

STRATEGIES = ("passive", "loss-weighting-finite", "loss-weighting-linear",
              "bootstrap")
_COMMITTEE_DEFAULTS = {"size": 10, "p_min": 0.1, "initial_fraction": 0.1,
                       "max_depth": 8, "min_leaf": 2}
CLASS_KINDS = ("linear", "finite")


def _require_number(name: str, value, kind) -> None:
    """ConfigError unless value is an integer (kind Integral) or a real
    number (kind Real); bool is neither here."""
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if kind is Integral else "a number"
        raise ConfigError(f"{name} must be {expected}, got "
                          f"{type(value).__name__} {value!r}")


@dataclass
class ExperimentConfig:
    """One experiment, checked when built. `p_min`, the floor on every query
    probability, is read by every strategy; `slack_mode` by both
    loss-weighting strategies; `confidence` and `slack_constant` by
    loss-weighting-finite only; `committee` by bootstrap only."""

    dataset: dict
    strategy: str
    train_size: int
    test_size: int
    seed: int
    loss_kind: str = "logistic"
    range_bound: float = 1.0
    class_spec: dict = field(default_factory=lambda: {"kind": "linear",
                                                      "norm_bound": 1.0})
    confidence: float = 0.1
    slack_mode: str = "paper"
    slack_constant: float = 8.0
    p_min: float = 0.0
    replicates: int = 1
    checkpoint_every: int | None = None
    standardize: bool = False
    committee: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.slack_mode not in SLACK_MODES:
            raise ConfigError(f"unknown slack mode {self.slack_mode!r}")
        if not isinstance(self.dataset, dict) or "kind" not in self.dataset:
            raise ConfigError("dataset must be a dict with a 'kind' entry")
        if not isinstance(self.class_spec, dict):
            raise ConfigError("class_spec must be a dict")
        if not isinstance(self.committee, dict):
            raise ConfigError("committee must be a dict")
        if self.seed is None:
            raise ConfigError("a seed is required; unseeded runs are not allowed")
        for name, (kind, optional) in _NUMBER_TYPES.items():
            value = getattr(self, name)
            if value is not None or not optional:
                _require_number(name, value, kind)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        class_kind = self.class_spec.get("kind", "linear")
        if class_kind not in CLASS_KINDS:
            raise ConfigError(f"unknown class kind {class_kind!r}")
        if self.strategy == "loss-weighting-linear" and class_kind != "linear":
            raise ConfigError("loss-weighting-linear needs a linear class spec")
        _built("loss", LossFunction, self.loss_kind, self.range_bound)
        if (self.strategy == "bootstrap" and self.loss_kind != "zero-one"
                and self.range_bound < 1.0):
            raise ConfigError(f"bootstrap trees predict -1 and +1, so range_bound "
                              f"must be at least 1, got {self.range_bound}")
        linear = (self.strategy in ("passive", "loss-weighting-linear")
                  and class_kind == "linear")
        if linear and self.loss_kind not in SMOOTH_KINDS:
            raise ConfigError(f"a linear class needs a smooth loss "
                              f"{SMOOTH_KINDS}, got {self.loss_kind!r}")
        if self.train_size < 1 or self.test_size < 1:
            raise ConfigError("train and test sizes must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence must lie in (0, 1)")
        if not 0.0 <= self.p_min <= 1.0:
            raise ConfigError("p_min must lie in [0, 1]")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be positive")
        self.committee = _options(self.committee, "committee",
                                  _COMMITTEE_DEFAULTS)
        if not 0.0 < self.committee["initial_fraction"] < 1.0:
            raise ConfigError("committee initial_fraction must lie in (0, 1)")
        if self.committee["size"] < 2:
            raise ConfigError("committee size must be at least 2")
        if not 0.0 < self.committee["p_min"] <= 1.0:
            raise ConfigError("committee p_min must lie in (0, 1]")
        _built("committee", TreeParams, max_depth=self.committee["max_depth"],
               min_leaf=self.committee["min_leaf"])

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING} - set(payload)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def checkpoint_interval(self) -> int:
        if self.checkpoint_every is not None:
            return self.checkpoint_every
        return max(1, self.train_size // 100)


# {name: (Integral or Real, None allowed)} of each int, float or `| None` field
_NUMBER_TYPES = {name: (kind, type(None) in get_args(hint))
                 for name, hint in get_type_hints(ExperimentConfig).items()
                 for base, kind in ((int, Integral), (float, Real))
                 if hint in (base, base | None)}


@dataclass
class ArmResult:
    checkpoints: list          # (t, cum_queries, test_loss, test_error)
    final_loss: float
    final_error: float | None
    queries: int
    trace: QueryTrace
    diagnostics: dict = field(default_factory=dict)


@dataclass
class RunReport:
    config: dict
    seed: int
    steps: int
    active: ArmResult
    passive: ArmResult

    def query_fraction(self) -> float:
        return self.active.queries / self.steps

    def curve_rows(self):
        passive_by_t = {t: loss for t, _, loss, _ in self.passive.checkpoints}
        rows = []
        for t, cum, loss, _ in self.active.checkpoints:
            rows.append((t, cum, loss, passive_by_t.get(t, math.nan)))
        return rows

    def summary_dict(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "strategy": self.config["strategy"],
            "active": {
                "final_test_loss": self.active.final_loss,
                "final_test_error": self.active.final_error,
                "queries": self.active.queries,
                "query_fraction": self.query_fraction(),
                "diagnostics": self.active.diagnostics,
            },
            "passive": {
                "final_test_loss": self.passive.final_loss,
                "final_test_error": self.passive.final_error,
                "queries": self.passive.queries,
            },
            "config": self.config,
        }


def evaluate_loss(predictor, X, y, loss: LossFunction, z=None) -> float:
    """Mean normalized test loss, grouped by label value for vector evals;
    z, when given, is the predictor's predictions on X."""
    z = predictor.predict_many(X) if z is None else z
    y = np.asarray(y, dtype=float)
    total = 0.0
    for value in np.unique(y):
        mask = y == value
        total += float(np.sum(loss.eval_many(z[mask], float(value))))
    return total / len(y)


def evaluate_error(predictor, X, y, z=None) -> float | None:
    """Sign-agreement error; None when labels are not all -1/+1. z, when
    given, is the predictor's predictions on X."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        return None
    z = predictor.predict_many(X) if z is None else z
    signs = np.where(z >= 0, 1.0, -1.0)
    return float(np.mean(signs != y))


def _options(spec: dict, what: str, defaults: dict) -> dict:
    """The options of a dataset or class spec, defaults filled in.

    An option whose default is a bool must be a bool; one whose default is
    an int or a float must be a number of that kind, and is converted to it.
    ConfigError names any unknown or mistyped option."""
    unknown = set(spec) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {what} options {sorted(unknown)}")
    options = {**defaults, **spec}
    for name, default in defaults.items():
        value = options[name]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{what} {name} must be a bool, got "
                                  f"{type(value).__name__} {value!r}")
        elif isinstance(default, (int, float)):
            kind = Integral if isinstance(default, int) else Real
            _require_number(f"{what} {name}", value, kind)
            options[name] = type(default)(value)
    return options


def _built(what: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the ValueError of its range checks turned
    into a ConfigError that names `what`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def build_data(config: ExperimentConfig, rng: np.random.Generator):
    """(X_train, y_train, X_test, y_test, label_support) for the config."""
    spec = dict(config.dataset)
    kind = spec.pop("kind")
    n = config.train_size + config.test_size
    if kind == "file":
        opts = _options(spec, "dataset", {"path": None, "format": "csv"})
        if opts["path"] is None:
            raise ConfigError("file datasets need a 'path'")
        if not isinstance(opts["path"], (str, os.PathLike)):
            raise ConfigError(f"dataset path must be a string, got "
                              f"{type(opts['path']).__name__} {opts['path']!r}")
        X, y = load_dataset(opts["path"], opts["format"])
        if len(X) < n:
            raise ConfigError(
                f"dataset has {len(X)} rows, need {n} for the requested split"
            )
        order = rng.permutation(len(X))[:n]
        X, y = X[order], y[order]
        support = (-1.0, 1.0)
    elif kind == "sphere":
        instance = _built("dataset sphere", SphereInstance,
                          **_options(spec, "dataset", {"dim": 5, "noise": 0.0}))
        X, y = instance.sample(rng, n)
        support = (-1.0, 1.0)
    elif kind == "point-mass":
        instance = _built("dataset point-mass", point_mass_instance, **_options(
            spec, "dataset", {"beta": 0.1, "dim": 2, "binary_labels": True}))
        X, y = instance.sample(rng, n)
        support = instance.label_support()
    elif kind == "lower-bound":
        opts = _options(spec, "dataset", {"atoms": 8, "eta": 0.2, "eps": 0.05})
        hard = _built("dataset lower-bound", lower_bound_instance,
                      num_atoms=opts["atoms"], eta=opts["eta"], eps=opts["eps"],
                      rng=rng)
        X, y = hard.instance.sample(rng, n)
        support = (-1.0, 1.0)
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    split = config.train_size
    return X[:split], y[:split], X[split:], y[split:], support


def _standardize(X_train, X_test):
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    std[std == 0.0] = 1.0
    return (X_train - mean) / std, (X_test - mean) / std


def _finite_members(size: int, dim: int, norm_bound: float, range_bound: float,
                    loss_kind: str, rng: np.random.Generator):
    members = []
    for _ in range(size):
        u = rng.normal(size=dim)
        u *= math.sqrt(norm_bound) / np.linalg.norm(u)
        if loss_kind == "zero-one":
            members.append(ThresholdPredictor(u))
        else:
            members.append(LinearPredictor(u, range_bound))
    return FiniteClass(tuple(members))


def _make_threshold(config: ExperimentConfig, loss, dim, labels, rng):
    """(threshold, hypothesis_class) for the engine-based strategies."""
    spec = dict(config.class_spec)
    kind = spec.pop("kind", "linear")
    opts = _options(spec, "class", {"norm_bound": 1.0, "size": 16})
    norm_bound, size = opts["norm_bound"], opts["size"]
    # the ball checks norm_bound for finite classes too, whose members lie
    # on its boundary
    cls = _built("class_spec", LinearBall, dim, norm_bound)
    if config.strategy == "loss-weighting-finite" or kind == "finite":
        cls = _built("class_spec", _finite_members, size, dim, norm_bound,
                     config.range_bound, config.loss_kind, rng)
    if config.strategy == "passive":
        return ConstantThreshold(1.0), cls
    if config.strategy == "loss-weighting-finite":
        return LossWeightingFinite(cls, loss, config.confidence,
                                   config.slack_mode, config.slack_constant,
                                   labels), cls
    return LossWeightingLinear(dim, norm_bound, loss, config.slack_mode,
                               labels), cls


def _run_arm(config, engine, oracle, state, X_train, X_test, y_test,
             start: int = 0, models=list):
    """Stream rows start..T-1 of X_train through the engine, then evaluate.

    Two phases. While streaming, state() records the arm at each checkpoint:
    every multiple of the checkpoint interval from `start` on, and T. After
    the stream, models(states) gives the learner's output at each checkpoint,
    in order; each is evaluated on the test set, and the last gives the final
    loss and error. Queries count the `start` labels taken before the stream
    plus the oracle calls. Returns (ArmResult, final model).
    """
    T = len(X_train)
    interval = config.checkpoint_interval()
    schedule = sorted({t for t in range(interval, T + 1, interval) if t >= start}
                      | {T})
    states, cum_queries = [], []
    done = start
    for t in schedule:
        for row in range(done, t):
            engine.step(X_train[row], oracle)
        done = t
        states.append(state())
        cum_queries.append(start + oracle.calls)
    checkpoints = []
    for t, cum, h in zip(schedule, cum_queries, models(states)):
        z = h.predict_many(X_test)
        checkpoints.append((t, cum, evaluate_loss(h, X_test, y_test, engine.loss, z),
                            evaluate_error(h, X_test, y_test, z)))
    _, queries, final_loss, final_error = checkpoints[-1]
    return ArmResult(checkpoints, final_loss, final_error, queries,
                     engine.trace, {"oracle_calls": oracle.calls}), h


def _engine_arm(config, loss, X_train, y_train, X_test, y_test, threshold,
                cls, rng) -> ArmResult:
    engine = Engine(loss, threshold, rng, hypothesis_class=cls,
                    p_min=config.p_min)
    arm, _ = _run_arm(config, engine, ArrayOracle(y_train),
                      engine.refresh_hypothesis, X_train, X_test, y_test)
    extra = getattr(threshold, "diagnostics", None)
    if callable(extra):
        arm.diagnostics.update(extra())
    return arm


def _bootstrap_arm(config, loss, X_train, y_train, X_test, y_test, labels,
                   seeds, passive: bool) -> ArmResult:
    """Committee pipeline; with passive=True every post-prefix label is taken.

    Two phases. While streaming, each checkpoint records how many rows the
    arm has collected (the prefix and the queried rows). No final tree feeds
    back into the stream, so after it, checkpoint i draws its costing
    resample from the first rows it collected, with its own
    default_rng([costing seed, i]), and `DecisionTree.fit_many` grows the
    final trees together; costing keeps a heaviest row, so none is empty.
    """
    committee_rng = np.random.default_rng(seeds[0])
    engine_rng = np.random.default_rng(seeds[1])
    costing_seed = seeds[2]
    opts = config.committee
    T = len(X_train)
    prefix = max(2, math.ceil(opts["initial_fraction"] * T))
    prefix = min(prefix, T)
    params = TreeParams(max_depth=opts["max_depth"], min_leaf=opts["min_leaf"])
    X0, y0 = X_train[:prefix], y_train[:prefix]
    if passive:
        threshold = ConstantThreshold(1.0)
    else:
        committee = bs.train_committee(X0, y0, committee_rng, size=opts["size"],
                                       params=params)
        threshold = bs.CommitteeThreshold(committee, loss, labels, opts["p_min"])
    engine = Engine(loss, threshold, engine_rng, p_min=config.p_min)

    def final_trees(counts):
        collected = (bs.weighted_examples_from_arrays(X0, y0, np.ones(prefix))
                     + engine.sample)
        resamples = (bs.costing_resample(collected.head(n),
                                         np.random.default_rng([costing_seed, i]))
                     for i, n in enumerate(counts))
        return DecisionTree.fit_many(collected.X, collected.y,
                                     (r.rows for r in resamples), params)

    arm, final_tree = _run_arm(config, engine, ArrayOracle(y_train[prefix:]),
                               lambda: prefix + len(engine.sample),
                               X_train, X_test, y_test, start=prefix,
                               models=final_trees)
    arm.diagnostics.update(prefix=prefix, final_tree_depth=final_tree.depth())
    return arm


def run_experiment(config: ExperimentConfig) -> RunReport:
    """One seeded paired run: the configured strategy plus its passive twin."""
    ss = np.random.SeedSequence(config.seed)
    (data_seed, active_seed, passive_seed,
     aux_a, aux_b, aux_c, aux_d) = (int(s) for s in ss.generate_state(7))
    data_rng = np.random.default_rng(data_seed)
    X_train, y_train, X_test, y_test, support = build_data(config, data_rng)
    if config.standardize:
        X_train, X_test = _standardize(X_train, X_test)
    loss = LossFunction(config.loss_kind, config.range_bound)
    dim = X_train.shape[1]

    if config.strategy == "bootstrap":
        active = _bootstrap_arm(config, loss, X_train, y_train, X_test, y_test,
                                support, (aux_a, active_seed, aux_b), passive=False)
        passive = _bootstrap_arm(config, loss, X_train, y_train, X_test, y_test,
                                 support, (aux_c, passive_seed, aux_d), passive=True)
    else:
        class_rng = np.random.default_rng(aux_a)
        threshold, cls = _make_threshold(config, loss, dim, support, class_rng)
        active = _engine_arm(config, loss, X_train, y_train, X_test, y_test,
                             threshold, cls, np.random.default_rng(active_seed))
        if config.strategy == "passive":
            passive = active
        else:
            passive = _engine_arm(config, loss, X_train, y_train, X_test, y_test,
                                  ConstantThreshold(1.0), cls,
                                  np.random.default_rng(passive_seed))
    return RunReport(config=config.to_dict(), seed=config.seed,
                     steps=config.train_size, active=active, passive=passive)


def run_replicates(config: ExperimentConfig):
    """Run `replicates` seeded repetitions; returns (reports, aggregate)."""
    reports = []
    for i in range(config.replicates):
        reports.append(run_experiment(replace(config, seed=config.seed + i,
                                              replicates=1)))
    aggregate = aggregate_reports(reports)
    return reports, aggregate


def _mean_std(values):
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    return float(np.mean(values)), float(np.std(values))


def aggregate_reports(reports) -> dict:
    active_loss = _mean_std([r.active.final_loss for r in reports])
    passive_loss = _mean_std([r.passive.final_loss for r in reports])
    active_err = _mean_std([r.active.final_error for r in reports])
    passive_err = _mean_std([r.passive.final_error for r in reports])
    fraction = _mean_std([r.query_fraction() for r in reports])
    return {
        "replicates": len(reports),
        "seeds": [r.seed for r in reports],
        "active_final_loss_mean": active_loss[0],
        "active_final_loss_std": active_loss[1],
        "passive_final_loss_mean": passive_loss[0],
        "passive_final_loss_std": passive_loss[1],
        "active_final_error_mean": active_err[0],
        "active_final_error_std": active_err[1],
        "passive_final_error_mean": passive_err[0],
        "passive_final_error_std": passive_err[1],
        "query_fraction_mean": fraction[0],
        "query_fraction_std": fraction[1],
    }


def emit_curves(report: RunReport, out_dir, stem: str = "") -> dict:
    """Write curve CSV, summary JSON, and the query trace; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    suffix = f"_{stem}" if stem else ""
    curve_path = os.path.join(out_dir, f"curve{suffix}.csv")
    summary_path = os.path.join(out_dir, f"summary{suffix}.json")
    trace_path = os.path.join(out_dir, f"trace{suffix}.csv")
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "cum_queries", "active_test_loss",
                         "passive_test_loss"])
        for t, cum, active_loss, passive_loss in report.curve_rows():
            writer.writerow([t, cum, repr(active_loss), repr(passive_loss)])
    with open(summary_path, "w") as fh:
        json.dump(report.summary_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.active.trace.write_csv(trace_path)
    return {"curve": curve_path, "summary": summary_path, "trace": trace_path}
