"""Experiment orchestration: streams, paired runs, curves, and summaries.

Every experiment runs the configured strategy over a training stream and a
passive twin (the same learner with every label taken) over the identical
row order, evaluating both on a held-out test set at fixed checkpoints.
An active arm steps its engine through `_stream`, which yields each
checkpoint's row and label counts, and its training labels reach the
learner only through a counting oracle, so the reported query totals are
exactly the number of label requests. The passive twin, which is also the
`passive` strategy's only arm, streams nothing: `_passive_arm` builds each
checkpoint's learner from the first t rows. The arms see only the training
rows; `run_experiment` then scores both kinds' checkpoints on the test rows
through one tail, `_scored_arm`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from numbers import Integral, Real
from operator import attrgetter
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from . import bootstrap as bs
from .datasets import FORMATS, load_dataset
from .engine import ArrayOracle, Engine, QueryTrace
from .errors import ConfigError
from .hypotheses import (FiniteClass, LinearBall, LinearPredictor,
                         ThresholdPredictor, erm_weighted)
from .instances import (SphereInstance, check_lower_bound,
                        lower_bound_instance, point_mass_instance)
from .losses import SMOOTH_KINDS, LossFunction
from .thresholds import SLACK_MODES, LossWeightingFinite, LossWeightingLinear
from .trees import DecisionTree, TreeParams, predict_forest

STRATEGIES = ("passive", "loss-weighting-finite", "loss-weighting-linear",
              "bootstrap")
_COMMITTEE_DEFAULTS = {"size": 10, "p_min": 0.1, "initial_fraction": 0.1,
                       "max_depth": 8, "min_leaf": 2}
CLASS_KINDS = ("linear", "finite")
# each dataset kind's options and their defaults
_DATASET_DEFAULTS = {
    "file": {"path": None, "format": "csv"},
    "sphere": {"dim": 5, "noise": 0.0},
    "point-mass": {"beta": 0.1, "dim": 2, "binary_labels": True},
    "lower-bound": {"atoms": 8, "eta": 0.2, "eps": 0.05},
}
# a class spec's options besides its kind, and their defaults
_CLASS_DEFAULTS = {"norm_bound": 1.0, "size": 16}


# the kind a value of type bool, int or float must be, and its name
_KINDS = {bool: (bool, "a bool"), int: (Integral, "an integer"),
          float: (Real, "a number")}


def _require_type(name: str, value, base: type) -> None:
    """ConfigError unless value is of base's kind in _KINDS; a bool is only
    a bool here."""
    kind, expected = _KINDS[base]
    if (base is bool) != isinstance(value, bool) or not isinstance(value, kind):
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
        dataset_kind, dataset_options = _dataset_options(self.dataset)
        if dataset_kind != "file":
            _instance(dataset_kind, dataset_options)
        for name in ("class_spec", "committee"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a dict")
        if self.seed is None:
            raise ConfigError("a seed is required; unseeded runs are not allowed")
        for name, (base, optional) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is not None or not optional:
                _require_type(name, value, base)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        class_kind, class_options = _class_options(self.class_spec)
        if class_kind not in CLASS_KINDS:
            raise ConfigError(f"unknown class kind {class_kind!r}")
        # a finite class's members lie on the ball's boundary
        _built("class_spec", LinearBall, 1, class_options["norm_bound"])
        if class_options["size"] < 1:
            raise ConfigError("class_spec: a finite hypothesis class must be nonempty")
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
        if not 0.0 < self.slack_constant < math.inf:
            raise ConfigError(f"slack_constant must be positive and finite, got "
                              f"{self.slack_constant}")
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
        _built("committee", _tree_params, self)

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
        return self.checkpoint_every or max(1, self.train_size // 100)


# {name: (bool, int or float, None allowed)} of each such or `| None` field
_FIELD_TYPES = {name: (base, type(None) in get_args(hint))
                for name, hint in get_type_hints(ExperimentConfig).items()
                for base in _KINDS if hint in (base, base | None)}


@dataclass
class ArmResult:
    checkpoints: list          # (t, cum_queries, test_loss, test_error)
    # a streamed arm's sampling decisions and counters; the passive twin has none
    trace: QueryTrace | None = None
    diagnostics: dict = field(default_factory=dict)
    # the last checkpoint's labels taken, test loss and test error
    queries = property(lambda self: self.checkpoints[-1][1])
    final_loss = property(lambda self: self.checkpoints[-1][2])
    final_error = property(lambda self: self.checkpoints[-1][3])


@dataclass
class RunReport:
    config: dict               # ExperimentConfig.to_dict() of the run
    active: ArmResult
    passive: ArmResult
    seed = property(lambda self: self.config["seed"])
    steps = property(lambda self: self.config["train_size"])

    def query_fraction(self) -> float:
        return self.active.queries / self.steps

    def curve_rows(self):
        """(t, cum_queries, active loss, passive loss) at each checkpoint;
        both arms are scored on one schedule."""
        return [(t, cum, loss, passive[2]) for (t, cum, loss, _), passive
                in zip(self.active.checkpoints, self.passive.checkpoints)]

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


def evaluate_loss(predictor, X, y, loss: LossFunction, z=None):
    """Mean normalized test loss, grouped by label value for vector evals;
    z, when given, is the predictor's predictions on X, or a 2-D z one
    model's predictions per row, which gives a list of their losses."""
    z = predictor.predict_many(X) if z is None else np.asarray(z)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for value in np.unique(y):
        # compress keeps a 2-D z's rows C-ordered, so each sums as a 1-D z does
        total += np.sum(loss.eval_many(z.compress(y == value, -1), float(value)), -1)
    return (total / len(y)).tolist()


def evaluate_error(predictor, X, y, z=None):
    """Sign-agreement error; None when labels are not all -1/+1. z, when
    given, is the predictor's predictions on X; a 2-D z gives a list."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        return None if z is None or np.ndim(z) < 2 else [None] * len(z)
    z = predictor.predict_many(X) if z is None else np.asarray(z)
    return np.mean(np.where(z >= 0, 1.0, -1.0) != y, axis=-1).tolist()


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
        if type(default) in _KINDS:
            _require_type(f"{what} {name}", options[name], type(default))
            options[name] = type(default)(options[name])
    return options


def _dataset_options(dataset: dict) -> tuple:
    """(kind, options with defaults filled in) of a dataset spec; ConfigError
    for an unknown kind, an unknown or mistyped option, or a file dataset
    without a string path or with an unknown format."""
    spec = dict(dataset)
    kind = spec.pop("kind")
    if not isinstance(kind, str) or kind not in _DATASET_DEFAULTS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    opts = _options(spec, "dataset", _DATASET_DEFAULTS[kind])
    if kind == "file":
        if opts["path"] is None:
            raise ConfigError("file datasets need a 'path'")
        if not isinstance(opts["path"], (str, os.PathLike)):
            raise ConfigError(f"dataset path must be a string, got "
                              f"{type(opts['path']).__name__} {opts['path']!r}")
        if opts["format"] not in FORMATS:
            raise ConfigError(f"unknown dataset format {opts['format']!r}")
    return kind, opts


def _class_options(class_spec: dict) -> tuple:
    """(kind, options with defaults filled in) of a class spec; ConfigError
    for an unknown or mistyped option."""
    spec = dict(class_spec)
    kind = spec.pop("kind", "linear")
    return kind, _options(spec, "class", _CLASS_DEFAULTS)


def _built(what: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the ValueError of its range checks turned
    into a ConfigError that names `what`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _instance(kind: str, opts: dict, rng: np.random.Generator | None = None):
    """The instance a generated dataset of this kind samples, ConfigError for
    an out-of-range option. A lower-bound instance's hidden bits come from
    rng; with no rng, its options are only checked."""
    what = f"dataset {kind}"
    if kind != "lower-bound":
        build = SphereInstance if kind == "sphere" else point_mass_instance
        return _built(what, build, **opts)
    args = opts["atoms"], opts["eta"], opts["eps"]
    if rng is None:
        return _built(what, check_lower_bound, *args)
    return _built(what, lower_bound_instance, *args, rng).instance


def build_data(config: ExperimentConfig, rng: np.random.Generator):
    """(X_train, y_train, X_test, y_test, label_support) for the config."""
    kind, opts = _dataset_options(config.dataset)
    n = config.train_size + config.test_size
    if kind == "file":
        try:
            X, y = load_dataset(opts["path"], opts["format"])
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read dataset {opts['path']}: {exc}") from None
        if len(X) < n:
            raise ConfigError(
                f"dataset has {len(X)} rows, need {n} for the requested split"
            )
        order = rng.permutation(len(X))[:n]
        X, y = X[order], y[order]
        support = (-1.0, 1.0)
    else:
        instance = _instance(kind, opts, rng)
        X, y = instance.sample(rng, n)
        support = instance.label_support()
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


def _make_class(config: ExperimentConfig, dim: int, rng):
    """The hypothesis class of the engine-based strategies and the passive
    strategy: the class spec's finite class, always for
    loss-weighting-finite, or else its linear ball. The config has checked
    the spec's options."""
    kind, opts = _class_options(config.class_spec)
    if config.strategy == "loss-weighting-finite" or kind == "finite":
        return _finite_members(opts["size"], dim, opts["norm_bound"],
                               config.range_bound, config.loss_kind, rng)
    return LinearBall(dim, opts["norm_bound"])


def _make_threshold(config: ExperimentConfig, loss, cls, labels):
    """The rejection threshold of a loss-weighting strategy over cls."""
    if config.strategy == "loss-weighting-finite":
        return LossWeightingFinite(cls, loss, config.confidence,
                                   config.slack_mode, config.slack_constant,
                                   labels)
    return LossWeightingLinear(cls.dim, cls.norm_bound, loss, config.slack_mode,
                               labels)


def _schedule(config: ExperimentConfig, T: int, start: int = 0) -> list:
    """The checkpoint row counts: every multiple of the checkpoint interval
    from `start` on, and T."""
    interval = config.checkpoint_interval()
    return sorted({t for t in range(interval, T + 1, interval) if t >= start}
                  | {T})


def _bootstrap_prefix(config: ExperimentConfig, T: int) -> int:
    """The labelled rows a bootstrap arm takes before its stream."""
    return min(T, max(2, math.ceil(config.committee["initial_fraction"] * T)))


def _tree_params(config: ExperimentConfig) -> TreeParams:
    return TreeParams(max_depth=config.committee["max_depth"],
                      min_leaf=config.committee["min_leaf"])


def _predict_each(hs, X):
    """One row of predictions on X per model, by its own predict_many, called
    once for each distinct model: a finite arm's checkpoint models are class
    members that repeat, and an ERM no new row changed is the same object."""
    rows = {}
    for h in hs:
        if id(h) not in rows:
            rows[id(h)] = h.predict_many(X)
    return np.array([rows[id(h)] for h in hs])


class _Trained(NamedTuple):
    """An arm before its test scoring: its model after schedule[i] rows and
    labels[i] labels is models[i], predict(models, X) gives one row of
    predictions per model, and a streamed arm has its trace and
    diagnostics."""

    schedule: tuple
    labels: tuple
    models: list
    predict: Callable
    trace: QueryTrace | None = None
    diagnostics: dict | None = None


def _scored_arm(arm: _Trained, X_test, y_test, loss) -> ArmResult:
    """The arm's checkpoints scored on the test rows: one predict call, and
    one evaluate_loss and one evaluate_error call for all the models; the
    last gives the final loss and error."""
    Z = arm.predict(arm.models, X_test)
    checkpoints = list(zip(arm.schedule, arm.labels,
                           evaluate_loss(arm.models[-1], X_test, y_test, loss, Z),
                           evaluate_error(arm.models[-1], X_test, y_test, Z)))
    return ArmResult(checkpoints, arm.trace, arm.diagnostics or {})


def _stream(config, engine, oracle, X_train, start: int = 0, Z_train=None):
    """Step the engine over rows start..T-1 of X_train, yielding (t, labels
    taken) at each checkpoint of `_schedule`: the `start` labels taken before
    the stream plus the oracle's calls. Z_train, a finite class's predictions
    or a committee's votes on X_train, hands each checkpoint's rows theirs."""
    done = start
    for t in _schedule(config, len(X_train), start):
        engine.steps(X_train[done:t], oracle,
                     None if Z_train is None else Z_train[done:t])
        done = t
        yield t, start + oracle.calls


def _engine_arm(config, loss, X_train, y_train, threshold, cls, rng,
                Z_train) -> _Trained:
    engine = Engine(loss, threshold, rng, hypothesis_class=cls,
                    p_min=config.p_min)
    oracle = ArrayOracle(y_train)
    schedule, cum_queries, hs = zip(*(
        (t, labels, engine.refresh_hypothesis())
        for t, labels in _stream(config, engine, oracle, X_train, Z_train=Z_train)))
    extra = getattr(threshold, "diagnostics", dict)
    return _Trained(schedule, cum_queries, hs, _predict_each, engine.trace,
                    {"oracle_calls": oracle.calls, **extra()})


def _bootstrap_arm(config, loss, X_train, y_train, labels, seeds) -> _Trained:
    """The bootstrap committee's active arm.

    The committee is fixed before the stream, so one `predict_forest` walk
    gives its votes on every training row, (rows, members), and `_stream`
    hands each checkpoint's rows theirs. Every label taken adds one
    collected row, so the label count `_stream` yields at a checkpoint is
    the number of rows the arm has collected there (the prefix and the
    queried rows). No final tree feeds back into the
    stream, so after it, checkpoint i draws its costing resample from the
    first rows it collected, with its own default_rng([costing seed, i]),
    `DecisionTree.fit_many` grows the final trees together, and
    `predict_forest` routes the test rows through them in one walk; costing
    keeps a heaviest row, so none is empty.
    """
    committee_seed, engine_seed, costing_seed = seeds
    prefix = _bootstrap_prefix(config, len(X_train))
    params = _tree_params(config)
    X0, y0 = X_train[:prefix], y_train[:prefix]
    committee = bs.train_committee(X0, y0, np.random.default_rng(committee_seed),
                                   size=config.committee["size"], params=params)
    threshold = bs.CommitteeThreshold(committee, loss, labels,
                                      config.committee["p_min"])
    engine = Engine(loss, threshold, np.random.default_rng(engine_seed),
                    p_min=config.p_min)
    oracle = ArrayOracle(y_train[prefix:])
    votes = predict_forest(committee.members, X_train).T
    schedule, counts = zip(*_stream(config, engine, oracle, X_train, start=prefix,
                                    Z_train=votes))
    collected = (bs.weighted_examples_from_arrays(X0, y0, np.ones(prefix))
                 + engine.sample)
    resamples = (bs.costing_resample(collected.head(n),
                                     np.random.default_rng([costing_seed, i]))
                 for i, n in enumerate(counts))
    trees = DecisionTree.fit_many(collected.X, collected.y,
                                  (r.rows for r in resamples), params)
    return _Trained(schedule, counts, trees, predict_forest, engine.trace,
                    {"oracle_calls": oracle.calls, "prefix": prefix,
                     "final_tree_depth": trees[-1].depth()})


# rows of a finite class's (rows x members) losses the passive twin holds at
# once. The run's prediction table of every training row takes 8 bytes per
# (row, member): 2 MB for 1,000 rows x 256 members
BLOCK_ROWS = 100


def _finite_prefix_sums(loss, Z, y, schedule) -> np.ndarray:
    """The members' loss sums over rows 0..t-1, one row for each t in
    schedule, from Z, a finite class's (rows x members) predictions on the
    rows, which the run predicts once for both of its arms.

    The sums run down (rows x members) loss tables of BLOCK_ROWS rows of Z,
    one label's rows scored by one eval_many call. Each table's first row
    takes the last table's sums, and a cumsum down the rows adds one row at
    a time, as the engine's `member_sums += 1.0 * losses` does; a pairwise
    sum would round differently.
    """
    T = schedule[-1]
    marked, sums = [], np.zeros(Z.shape[1])
    for first in range(0, T, BLOCK_ROWS):
        stop = min(first + BLOCK_ROWS, T)
        Z_block, labels = Z[first:stop], y[first:stop]
        losses = np.empty_like(Z_block)
        for value in np.unique(labels):
            rows = labels == value
            losses[rows] = loss.eval_many(Z_block[rows], float(value))
        losses[0] += sums
        sums = np.cumsum(losses, axis=0, out=losses)[-1]
        marked.append(losses[[t - 1 - first for t in schedule if first < t <= stop]])
    return np.concatenate(marked)


def _ball_prefix_minimizers(ball: LinearBall, loss, X, y, schedule) -> list:
    """For each t in schedule, the unit-weight ERM over rows 0..t-1, each
    solve warm from the last and the first from the zero vector, as the
    engine's `refresh_hypothesis` solves them."""
    sample = bs.weighted_examples_from_arrays(X, y, np.ones(len(X)))
    hs, start = [], np.zeros(ball.dim)
    for t in schedule:
        h, _ = erm_weighted(ball, sample.head(t), loss, start=start)
        hs.append(h)
        start = h.weights
    return hs


def _passive_arm(config, loss, X_train, y_train, cls, Z_train=None) -> _Trained:
    """The passive twin: the learner of class cls, or the bootstrap final
    tree when cls is None, trained on every label, with no stream. Z_train
    is a finite class's predictions on X_train.

    Streamed at p = 1, every coin comes up heads (a uniform draw is below
    1), every weight 1/p is 1 and the oracle returns the next label, so the
    learner after t rows depends on rows 0..t-1 alone, and each checkpoint's
    is built from that prefix: a finite class's least running member loss
    sum, the linear ball's unit-weight ERM, warm from the last checkpoint's,
    or a tree grown on every row, as costing keeps every row of equal weight.
    The bootstrap twin's checkpoints start at the committee prefix, as the
    active arm's do.
    """
    T = len(X_train)
    if cls is None:
        schedule = _schedule(config, T, _bootstrap_prefix(config, T))
        hs = DecisionTree.fit_many(X_train, y_train, (np.arange(t) for t in schedule),
                                   _tree_params(config))
        predict = predict_forest
    else:
        predict, schedule = _predict_each, _schedule(config, T)
        if isinstance(cls, FiniteClass):
            sums = _finite_prefix_sums(loss, Z_train, y_train, schedule)
            hs = [cls.members[i] for i in np.argmin(sums, axis=1).tolist()]
        else:
            hs = _ball_prefix_minimizers(cls, loss, X_train, y_train, schedule)
    return _Trained(schedule, schedule, hs, predict)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """One seeded paired run: the configured strategy plus its passive twin."""
    ss = np.random.SeedSequence(config.seed)
    # the passive twin flips no coin, so its three seeds go unused; they are
    # still drawn, so that the other seeds stay where they are
    data_seed, active_seed, _, aux_a, aux_b, _, _ = (
        int(s) for s in ss.generate_state(7))
    data_rng = np.random.default_rng(data_seed)
    X_train, y_train, X_test, y_test, support = build_data(config, data_rng)
    if config.standardize:
        X_train, X_test = _standardize(X_train, X_test)
    loss = LossFunction(config.loss_kind, config.range_bound)
    for label in support:
        _built(f"{config.loss_kind} loss", loss.check_label, label)
    train, test = (X_train, y_train), (X_test, y_test, loss)

    if config.strategy == "bootstrap":
        active = _scored_arm(_bootstrap_arm(config, loss, *train, support,
                                            (aux_a, active_seed, aux_b)), *test)
        passive = _scored_arm(_passive_arm(config, loss, *train, None), *test)
    else:
        cls = _make_class(config, X_train.shape[1], np.random.default_rng(aux_a))
        # a finite class predicts the training rows once, for both arms; the
        # table goes once they have read it, before either is scored
        Z_train = (cls.predict_many(X_train) if isinstance(cls, FiniteClass)
                   else None)
        passive = _passive_arm(config, loss, *train, cls, Z_train)
        if config.strategy == "passive":
            # the twin is also this strategy's streamed arm: p = 1 and a
            # query at every row
            T = config.train_size
            active = passive._replace(trace=QueryTrace([1.0] * T, [1] * T),
                                      diagnostics={"oracle_calls": T})
        else:
            active = _engine_arm(config, loss, *train,
                                 _make_threshold(config, loss, cls, support),
                                 cls, np.random.default_rng(active_seed), Z_train)
        del Z_train
        active = _scored_arm(active, *test)
        passive = (active if config.strategy == "passive"
                   else _scored_arm(passive, *test))
    return RunReport(config.to_dict(), active, passive)


def run_replicates(config: ExperimentConfig):
    """Run `replicates` seeded repetitions; returns (reports, aggregate)."""
    reports = [run_experiment(replace(config, seed=config.seed + i, replicates=1))
               for i in range(config.replicates)]
    return reports, aggregate_reports(reports)


# the quantities aggregate_reports averages, by name
_AGGREGATED = {
    "active_final_loss": attrgetter("active.final_loss"),
    "passive_final_loss": attrgetter("passive.final_loss"),
    "active_final_error": attrgetter("active.final_error"),
    "passive_final_error": attrgetter("passive.final_error"),
    "query_fraction": RunReport.query_fraction,
}


def aggregate_reports(reports) -> dict:
    """Each quantity's mean and standard deviation over the reports where it
    is not None, both None where it is None in every report."""
    aggregate = {"replicates": len(reports), "seeds": [r.seed for r in reports]}
    for name, quantity in _AGGREGATED.items():
        values = [v for v in map(quantity, reports) if v is not None]
        aggregate[f"{name}_mean"], aggregate[f"{name}_std"] = (
            (float(np.mean(values)), float(np.std(values))) if values
            else (None, None))
    return aggregate


def emit_curves(report: RunReport, out_dir, stem: str = "") -> dict:
    """Write curve CSV, summary JSON, and the query trace; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    suffix = f"_{stem}" if stem else ""
    paths = {kind: os.path.join(out_dir, f"{kind}{suffix}.{ext}") for kind, ext
             in (("curve", "csv"), ("summary", "json"), ("trace", "csv"))}
    with open(paths["curve"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "cum_queries", "active_test_loss",
                         "passive_test_loss"])
        for t, cum, active_loss, passive_loss in report.curve_rows():
            writer.writerow([t, cum, repr(active_loss), repr(passive_loss)])
    write_json(report.summary_dict(), paths["summary"])
    report.active.trace.write_csv(paths["trace"])
    return paths


def write_json(payload: dict, path: str | None = None) -> None:
    """Write payload as strict JSON, indented and key-sorted, and a newline,
    to path or, with no path, to stdout; ConfigError when path cannot be
    written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
