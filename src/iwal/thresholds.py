"""Rejection-threshold strategies for the streaming sampler.

The loss-weighting strategy keeps a survivor set of hypotheses whose
importance-weighted loss is within a shrinking slack of the best seen, and
queries with probability equal to the largest loss spread the survivors can
realize on the incoming point. Finite classes track survivors exactly; the
linear-ball variant follows the tractable relaxation: the running minimum is
taken over the whole ball and only the most recent survivor constraint is
enforced when computing prediction extremes.

Thresholds store no history: the engine built on one calls `attach(engine)`,
and the threshold reads the engine's member loss sums or weighted sample.
"""

from __future__ import annotations

import math

import numpy as np

from . import solver
from .errors import ThresholdContractError, UnsupportedLossError
from .hypotheses import FiniteClass, LinearPredictor
from .losses import SMOOTH_KINDS, LossFunction

_NOISE_FLOOR = -1e-9
SLACK_MODES = ("paper", "optimistic")


def slack_width(t: int, class_size: int, confidence: float,
                constant: float = 8.0) -> float:
    """Deviation allowance sqrt((c/t) ln(2 t (t+1) |H|^2 / delta)).

    t = 0 returns infinity: before any data the whole class survives.
    """
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if class_size < 1:
        raise ValueError("class size must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if t == 0:
        return math.inf
    return math.sqrt(
        (constant / t) * math.log(2.0 * t * (t + 1) * class_size ** 2 / confidence)
    )


def optimistic_slack(t: int) -> float:
    """Heuristic allowance 1/sqrt(t), infinity at t = 0."""
    if t < 0:
        raise ValueError("step count must be nonnegative")
    return math.inf if t == 0 else 1.0 / math.sqrt(t)


def dimension_slack(t: int, dim: int) -> float:
    """Allowance sqrt(d/t) for parametric classes, infinity at t = 0."""
    if t < 0:
        raise ValueError("step count must be nonnegative")
    return math.inf if t == 0 else math.sqrt(dim / t)


def shrink_survivors(avg_losses: np.ndarray, alive: np.ndarray,
                     slack: float) -> np.ndarray:
    """Keep the alive members within slack of the alive minimum.

    Returns a new mask, always a subset of the input and never empty (the
    argmin trivially satisfies its own threshold).
    """
    alive = np.asarray(alive, dtype=bool)
    if math.isinf(slack):
        return alive.copy()
    best = np.min(avg_losses[alive])
    return alive & (np.asarray(avg_losses) <= best + slack)


def loss_spread_finite(x, predictors, loss: LossFunction,
                       labels=(-1.0, 1.0)) -> float:
    """Largest loss difference any two predictors realize on x, over labels.

    Equals the maximum over ordered pairs (f, g) and labels y of
    l(f(x), y) - l(g(x), y); computed per label as max - min.
    """
    return loss.spread_many(FiniteClass(predictors).predict(x), labels)


class ConstantThreshold:
    """Fixed query probability; p = 1 recovers passive learning."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.p = float(p)

    def attach(self, engine) -> None:
        pass

    def probability(self, x) -> float:
        return self.p

    def record(self, x, y, p, queried) -> None:
        pass


class LossWeightingFinite:
    """Survivor-set threshold over an explicit finite class.

    Each call first shrinks the survivor set using the importance-weighted
    losses accumulated so far, then returns the survivors' loss spread on the
    incoming point. The cumulative weighted losses are the engine's running
    member sums (`loss_sums` after `attach`), which also give its minimizer.
    """

    def __init__(self, hypothesis_class: FiniteClass, loss: LossFunction,
                 confidence: float = 0.1, slack_mode: str = "paper",
                 slack_constant: float = 8.0, labels=(-1.0, 1.0)):
        if slack_mode not in SLACK_MODES:
            raise ValueError(f"unknown slack mode {slack_mode!r}")
        self.hypothesis_class = hypothesis_class
        self.loss = loss
        self.confidence = confidence
        self.slack_mode = slack_mode
        self.slack_constant = slack_constant
        self.labels = tuple(labels)
        self.t = 0
        self.loss_sums = None
        self.alive = np.ones(len(hypothesis_class), dtype=bool)

    def attach(self, engine) -> None:
        """Read the member loss sums of an engine built on this class."""
        members = getattr(engine.hypothesis_class, "members", None)
        if members is not self.hypothesis_class.members or engine.loss != self.loss:
            raise ValueError("the engine must run this threshold's class and loss")
        self.loss_sums = engine.member_sums

    def slack(self, t: int) -> float:
        if self.slack_mode == "optimistic":
            return optimistic_slack(t)
        return slack_width(t, len(self.hypothesis_class), self.confidence,
                           self.slack_constant)

    def probability(self, x) -> float:
        self.t += 1
        seen = self.t - 1
        if seen >= 1:
            averages = self.loss_sums / seen
            self.alive = shrink_survivors(averages, self.alive, self.slack(seen))
        return self.loss.spread_many(self.hypothesis_class.predict(x)[self.alive], self.labels)

    def record(self, x, y, p, queried) -> None:
        pass


class LossWeightingLinear:
    """Survivor threshold for the linear ball via two convex solves per point.

    Prediction extremes over the constrained ball give the interval
    [min u.x, max u.x]; the query probability is the normalized loss spread
    over that interval. The running loss minimum is taken over the whole
    ball and only the latest empirical-loss constraint is enforced, which can
    only enlarge the interval and hence the probability.
    """

    def __init__(self, dim: int, norm_bound: float, loss: LossFunction,
                 slack_mode: str = "paper", labels=(-1.0, 1.0)):
        if slack_mode not in SLACK_MODES:
            raise ValueError(f"unknown slack mode {slack_mode!r}")
        if loss.kind not in SMOOTH_KINDS:
            raise UnsupportedLossError(
                f"linear loss-weighting needs a smooth loss {SMOOTH_KINDS}, "
                f"got {loss.kind}"
            )
        self.dim = dim
        self.norm_bound = float(norm_bound)
        self.loss = loss
        self.slack_mode = slack_mode
        self.labels = tuple(labels)
        self.t = 0
        self.sample = None            # the engine's WeightedSample
        self._erm_point = np.zeros(dim)
        self._erm_sum = 0.0           # minimized weighted loss sum
        self._erm_rows = 0            # sample rows the ERM point covers
        self.solve_count = 0
        self.erm_solve_count = 0

    def slack(self, t: int) -> float:
        if self.slack_mode == "optimistic":
            return optimistic_slack(t)
        return dimension_slack(t, self.dim)

    def attach(self, engine) -> None:
        self.sample = engine.sample

    def _refresh_erm(self) -> None:
        sample = self.sample
        if self._erm_rows == len(sample):
            return
        result = solver.minimize_weighted_loss(
            self.loss, sample.X, sample.y, sample.w, self.norm_bound,
            start=self._erm_point)
        self._erm_point = result.point
        self._erm_sum = result.value
        self._erm_rows = len(sample)
        self.erm_solve_count += 1

    def minimizer(self) -> LinearPredictor:
        """Current ball-wide weighted-loss minimizer."""
        self._refresh_erm()
        return LinearPredictor(self._erm_point.copy(), self.loss.range_bound)

    def _retained_cap(self, seen: int) -> solver.WeightedLossCap | None:
        """Most recent survivor constraint, or None while it is vacuous."""
        slack = self.slack(seen)
        sample = self.sample
        if seen < 1 or math.isinf(slack) or not len(sample):
            return None
        # normalized losses are at most 1, so no point can violate a bound
        # of sum(w)/seen and the constraint excludes nothing; the weights are
        # summed left to right, in query order
        heaviest = sum(sample.w.tolist()) / seen
        if slack >= heaviest:
            return None
        self._refresh_erm()
        best_avg = self._erm_sum / seen
        if best_avg + slack >= heaviest:
            return None
        return solver.WeightedLossCap(self.loss, sample.X, sample.y,
                                      sample.w / seen, best_avg + slack)

    def prediction_interval(self, x) -> tuple[float, float]:
        """[min, max] of u . x over the ball under the retained constraint:
        one linear minimization per end, analytic while the cap is inactive."""
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) == 0.0:
            return 0.0, 0.0
        cap = self._retained_cap(self.t - 1)
        self.solve_count += 2
        starts = (self._erm_point,)
        low = solver.minimize_linear(x, self.norm_bound, cap, starts)
        high = solver.minimize_linear(-x, self.norm_bound, cap, starts)
        lo, hi = low.value, -high.value
        if lo > hi:
            lo = hi = 0.5 * (lo + hi)
        return lo, hi

    def probability(self, x) -> float:
        self.t += 1
        lo, hi = self.prediction_interval(x)
        return self.loss.interval_spread(lo, hi, self.labels)

    def record(self, x, y, p, queried) -> None:
        pass

    def diagnostics(self) -> dict:
        return {
            "interval_solves": self.solve_count,
            "erm_solves": self.erm_solve_count,
        }


def validate_probability(p: float) -> float:
    """Clamp solver noise and reject genuinely out-of-range probabilities."""
    if not (_NOISE_FLOOR <= p <= 1.0 + 1e-9):
        raise ThresholdContractError(f"threshold returned p = {p}")
    return min(max(p, 0.0), 1.0)
