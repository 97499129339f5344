"""Rejection-threshold strategies for the streaming sampler.

The loss-weighting strategy keeps a survivor set of hypotheses whose
importance-weighted loss is within a shrinking slack of the best seen, and
queries with probability equal to the largest loss spread the survivors can
realize on the incoming point. Finite classes track survivors exactly; the
linear-ball variant follows the tractable relaxation: the running minimum is
taken over the whole ball and only the most recent survivor constraint is
enforced when computing prediction extremes.

Thresholds store no history: the engine built on one calls `attach(engine)`,
and the threshold reads the engine's member loss sums, or its weighted
sample and running ERM, which the engine alone computes.
"""

from __future__ import annotations

import math

import numpy as np

from . import solver
from .errors import ThresholdContractError, UnsupportedLossError
from .hypotheses import FiniteClass, LinearBall, LinearPredictor
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
    if not 0.0 < constant < math.inf:
        raise ValueError("slack constant must be positive and finite")
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


def _checked_labels(loss: LossFunction, labels) -> tuple:
    """labels as a tuple; ValueError unless the loss takes each of them."""
    labels = tuple(labels)
    for y in labels:
        loss.check_label(y)
    return labels


def shrink_survivors(averages: np.ndarray, slack: float) -> np.ndarray:
    """Which survivors, given their average losses, lie within slack of the
    least of them: a mask over `averages`, never all False (the argmin
    trivially satisfies its own threshold), all True under infinite slack.
    """
    if math.isinf(slack):
        return np.ones(len(averages), dtype=bool)
    return averages <= averages.min() + slack


def shrink_keeps_all(least: float, largest: float, seen: int, slack: float) -> bool:
    """Whether `shrink_survivors(sums / seen, slack)` keeps every survivor,
    from the least and largest of the sums: for seen > 0, fl(s / seen) is
    monotone in s, so the largest quotient is the largest sum's and the
    least the least sum's. False when either is NaN, as numpy's min and
    max of sums with a NaN are."""
    return largest / seen <= least / seen + slack


class ConstantThreshold:
    """Fixed query probability; p = 1 recovers passive learning."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.p = float(p)

    def attach(self, engine) -> None:
        pass

    def probability(self, x, z=None) -> float:
        return self.p

    def record(self, x, y, p, queried) -> None:
        pass


class LossWeightingFinite:
    """Survivor-set threshold over an explicit finite class.

    Each call first shrinks the survivor set using the importance-weighted
    losses accumulated so far, then returns the survivors' loss spread on the
    incoming point. The cumulative weighted losses are the engine's running
    member sums (`loss_sums` after `attach`), which also give its minimizer.
    `probability(x, z)` takes z, every member's prediction on x in member
    order as the class's `predict(x)` gives it, already range-checked by the
    engine; without z it predicts and checks x itself.

    The `alive` mask is the one record of the survivors, which `survivors()`
    reads for this threshold and its engine alike, and it only shrinks, so
    every step's work is survivor-sized. The shrink is decided on the
    survivors' least and largest sums (`shrink_keeps_all`), and only when
    some survivor is beyond the slack does the vector rule divide every
    survivor's sum. The two sums, like the survivors' indices, are kept
    until they change: until `record` reports a queried row, whose losses
    the engine has added by then, or the survivors shrink, or `alive` is
    reassigned. The spread scores only the survivors' predictions, for
    every label in one pass with no per-step checks (the labels are checked
    here, when the threshold is built). While the engine's `steps` has
    handed over the rows ahead (`ahead`), each call returns its row's entry
    of the spreads of all those rows, scored once for a survivor set: at the
    first row, and after a removal from the values already scored, with the
    removed members' columns dropped; a queried row's losses are read from
    them too (`scored_losses`). The engine adds a queried row's losses to
    the survivors' sums only, so a removed member's sum stays at its value
    when it was removed; nothing reads it again.
    """

    def __init__(self, hypothesis_class: FiniteClass, loss: LossFunction,
                 confidence: float = 0.1, slack_mode: str = "paper",
                 slack_constant: float = 8.0, labels=(-1.0, 1.0)):
        if slack_mode not in SLACK_MODES:
            raise ValueError(f"unknown slack mode {slack_mode!r}")
        # the range checks of every later slack_width call, before any step
        slack_width(0, len(hypothesis_class), confidence, slack_constant)
        self.hypothesis_class = hypothesis_class
        self.loss = loss
        self.confidence = confidence
        self.slack_mode = slack_mode
        self.slack_constant = slack_constant
        self.labels = _checked_labels(loss, labels)
        self._label_column = np.array(self.labels, dtype=float)[:, None]
        self.t = 0
        self.loss_sums = None
        self.alive = np.ones(len(hypothesis_class), dtype=bool)
        self._ahead = None         # the predictions of the rows ahead
        self._row = 0              # the next of them
        self._forget()

    def _forget(self) -> None:
        """Drop every fact kept about the survivors of `alive`."""
        self._known = self.alive     # the mask the facts below are of
        self._indices = None         # survivors()
        self._extremes = None        # their least and largest sums
        self._values = None          # their losses (labels, rows, survivors)
        self._first = 0              # on the rows ahead from this one on,
        self._spreads = None         # and those rows' spreads

    def attach(self, engine) -> None:
        """Read the member loss sums of an engine built on this class."""
        members = getattr(engine.hypothesis_class, "members", None)
        if members is not self.hypothesis_class.members or engine.loss != self.loss:
            raise ValueError("the engine must run this threshold's class and loss")
        self.loss_sums = engine.member_sums
        self._forget()

    def slack(self, t: int) -> float:
        if self.slack_mode == "optimistic":
            return optimistic_slack(t)
        return slack_width(t, len(self.hypothesis_class), self.confidence,
                           self.slack_constant)

    def survivors(self) -> np.ndarray:
        """The indices of the surviving members, in member order: the only
        members whose loss sums are read again. The array is kept until the
        survivors change, so callers must not write to it."""
        if self._known is not self.alive:
            self._forget()
        if self._indices is None:
            self._indices = self.alive.nonzero()[0]
        return self._indices

    def ahead(self, Z) -> None:
        """Take Z, the range-checked predictions (rows, members) of the rows
        the next `probability` calls score, one row each and in order, as
        their z; None drops them."""
        self._ahead = Z
        self._row = 0
        self._values = self._spreads = None

    def _shrink(self, survivors: np.ndarray, seen: int):
        """Drop the survivors whose average loss over `seen` rows is beyond
        the slack of the least: the mask kept over the survivors before, or
        None when every survivor stays."""
        slack = self.slack(seen)
        if self._extremes is None:
            sums = self.loss_sums.take(survivors)
            self._extremes = float(sums.min()), float(sums.max())
        if shrink_keeps_all(*self._extremes, seen, slack):
            return None
        keep = shrink_survivors(self.loss_sums.take(survivors) / seen, slack)
        if keep.all():       # NaN sums, under infinite slack
            return None
        self.alive[survivors] = keep
        self._indices = survivors.compress(keep)
        self._extremes = None
        return keep

    def _spread_ahead(self, keep) -> float:
        """The next row ahead's spread over the survivors, after the shrink
        that kept `keep` (None: every survivor) of the survivors before."""
        row = self._row
        self._row += 1
        if self._values is None:
            self._values = self.loss.unchecked_values(
                self._ahead[row:].take(self.survivors(), axis=1),
                self._label_column[:, :, None])
        elif keep is not None:
            self._values = self._values[:, row - self._first:].compress(keep, axis=2)
        else:
            return self._spreads[row - self._first]
        self._first = row
        spreads = self._values.max(axis=2) - self._values.min(axis=2)
        # unchecked_spread's rule: the largest over labels and 0, where a
        # NaN spread never wins, at most 1
        self._spreads = np.minimum(np.fmax.reduce(spreads, axis=0, initial=0.0),
                                   1.0).tolist()
        return self._spreads[0]

    def scored_losses(self, y):
        """The losses against label y of the survivors, in `survivors()`
        order, on the row the last call scored from the rows ahead, as
        `unchecked_values` gives them; None without rows ahead or for a y
        not among the labels."""
        if self._ahead is None or y not in self.labels:
            return None
        return self._values[self.labels.index(y), self._row - 1 - self._first]

    def probability(self, x, z=None) -> float:
        self.t += 1
        seen = self.t - 1
        survivors = self.survivors()    # first: a reassigned alive is read anew
        keep = self._shrink(survivors, seen) if seen >= 1 else None
        if self._ahead is not None:
            return self._spread_ahead(keep)
        if z is None:
            z = self.loss.checked_predictions(self.hypothesis_class.predict(x))
        return self.loss.unchecked_spread(z.take(self.survivors()),
                                          self._label_column)

    def record(self, x, y, p, queried) -> None:
        if queried:
            self._extremes = None     # the engine has added the row's losses


class LossWeightingLinear:
    """Survivor threshold for the linear ball via two convex solves per point.

    Prediction extremes over the constrained ball give the interval
    [min u.x, max u.x]; the query probability is the normalized loss spread
    over that interval. The running loss minimum is taken over the whole
    ball and only the latest empirical-loss constraint is enforced, which can
    only enlarge the interval and hence the probability. Each end is the
    solver's certified dual bound, so the interval holds the exact one and p
    rounds up, by at most the solver's gap target times the spread's slope.
    The ball-wide minimizer is the engine's running ERM, which this threshold
    only reads; the interval solves start from it.
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
        self.hypothesis_class = LinearBall(dim, float(norm_bound))
        self.loss = loss
        self.slack_mode = slack_mode
        self.labels = _checked_labels(loss, labels)
        self.t = 0
        self.engine = None
        self.solve_count = 0
        self.interval_newton_steps = 0
        self.interval_outer_steps = 0
        self.interval_shortcuts = 0

    def slack(self, t: int) -> float:
        if self.slack_mode == "optimistic":
            return optimistic_slack(t)
        return dimension_slack(t, self.hypothesis_class.dim)

    def attach(self, engine) -> None:
        """Read the sample and running ERM of an engine on this ball and loss."""
        if engine.hypothesis_class != self.hypothesis_class or engine.loss != self.loss:
            raise ValueError("the engine must run this threshold's class and loss")
        self.engine = engine

    def minimizer(self) -> LinearPredictor:
        """Current ball-wide weighted-loss minimizer: the engine's ERM."""
        return self.engine.refresh_hypothesis()

    def _retained_cap(self, seen: int):
        """Most recent survivor constraint and the engine's ERM point, whose
        loss sum sets its level, or (None, None) while the constraint is
        vacuous."""
        slack = self.slack(seen)
        if seen < 1 or math.isinf(slack):
            return None, None
        sample = self.engine.sample
        # normalized losses are at most 1, so no point can violate a bound
        # of sum(w)/seen (0 with no queries) and the constraint excludes
        # nothing; the weights are summed left to right, in query order
        heaviest = sum(sample.w.tolist()) / seen
        if slack >= heaviest:
            return None, None
        point = self.minimizer().weights
        best_avg = self.engine.erm_sum / seen
        if best_avg + slack >= heaviest:
            return None, None
        return solver.WeightedLossCap(self.loss, sample.X, sample.y,
                                      sample.w / seen, best_avg + slack), point

    def prediction_interval(self, x) -> tuple[float, float]:
        """[min, max] of u . x over the ball under the retained constraint,
        each end widened by its certified gap: one linear minimization per
        end, analytic while the cap is inactive. Both ends share one cap,
        which solves its minimizer over the ball, the anchor, once."""
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) == 0.0:
            return 0.0, 0.0
        cap, start = self._retained_cap(self.t - 1)
        bound = self.hypothesis_class.norm_bound
        self.solve_count += 2
        low = solver.minimize_linear(x, bound, cap, start)
        high = solver.minimize_linear(-x, bound, cap, start)
        for end in (low.diagnostics, high.diagnostics):
            self.interval_newton_steps += end.newton_steps
            self.interval_outer_steps += end.outer_stages
            self.interval_shortcuts += end.used_shortcut
        lo = low.value - low.diagnostics.final_gap
        hi = -high.value + high.diagnostics.final_gap
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
            "erm_solves": self.engine.erm_solves,
            "interval_newton_steps": self.interval_newton_steps,
            "interval_outer_steps": self.interval_outer_steps,
            "interval_shortcuts": self.interval_shortcuts,
        }


def validate_probability(p: float) -> float:
    """Clamp solver noise and reject genuinely out-of-range probabilities."""
    if not (_NOISE_FLOOR <= p <= 1.0 + 1e-9):
        raise ThresholdContractError(f"threshold returned p = {p}")
    return min(max(p, 0.0), 1.0)
