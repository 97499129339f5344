"""The streaming sampler: biased coins, weighted sample set, running ERM.

Each step asks the rejection threshold for a query probability on the
incoming point, flips a seeded coin, and on success requests the label and
stores the example with weight 1/p. The label oracle is consulted only for
queried points. `weighted_loss_estimate` reads that sample: over T steps it
is unbiased for the true loss of any fixed hypothesis.

The engine is the only writer of its arm's store: the `WeightedSample` of
queried examples, for a finite class the member loss sums, and for the
linear ball the running ERM. It hands itself to the threshold once, when
built, and the threshold reads from it. A finite class's predictions, and
a bootstrap committee's votes, reach each step as a row of a table
predicted at once: a slice of the run's table of every training row. A
finite-class run predicts that table once for both of its arms and drops
it before it scores them; a bootstrap run walks its committee's trees over
the rows once. `steps` hands a finite threshold its block of the table as
the rows ahead, so it scores the spreads of the whole block once per
survivor set, and a queried row's losses come from those scores. A queried
row adds its losses only to the sums of the members that are read again,
the threshold's survivors when it has them. The `QueryTrace` holds the
per-step facts as two columns, the query probability p and the coin q, with
the step t given by the position; the x and y of a queried step live only
in the sample.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hypotheses import FiniteClass, LinearBall, WeightedSample, erm_weighted
from .losses import LossFunction
from .thresholds import validate_probability


@dataclass
class QueryTrace:
    """Per-step sampling decisions: p[i] and q[i] belong to step t = i + 1."""

    p: list = field(default_factory=list)
    q: list = field(default_factory=list)

    def append(self, p: float, queried: int) -> None:
        self.p.append(p)
        self.q.append(queried)

    def __len__(self):
        return len(self.p)

    def write_csv(self, path) -> None:
        cum = 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "p_t", "q_t", "cum_queries"])
            for t, (p, queried) in enumerate(zip(self.p, self.q), start=1):
                cum += queried
                writer.writerow([t, repr(p), queried, cum])


def weighted_loss_estimate(sample: WeightedSample, predictor, loss: LossFunction,
                           steps: int) -> float:
    """Importance-weighted empirical loss (1/T) sum_t q_t/p_t * l(h(x_t), y_t)
    over T = `steps` steps: the sum of w * l(h(x), y) over the sample's rows,
    divided by T. Steps that were not queried are not in the sample and add
    zero; the sample's weights are finite, so no row was queried at p = 0.
    """
    if steps < 1:
        raise ValueError("the estimate needs at least one step")
    return sum(row.weight * loss.eval(predictor.predict(row.x), row.y)
               for row in sample) / steps


class Engine:
    """Runs the sampling loop for one stream with one threshold strategy.

    Without a `hypothesis_class` the engine takes its threshold's, if the
    threshold has one; it stays None when only the query trace matters.
    Finite classes keep incremental per-member weighted loss sums in
    `member_sums` (None otherwise), from batched predictions of the rows
    that `steps` takes. Only the sums of the members a threshold's
    `survivors()` names are read again, so a queried row adds to those only
    and a removed member's sum stays where it was; under a threshold without
    survivors every member is read.
    The running minimizer is computed only when `refresh_hypothesis` is
    called, at checkpoints and by the linear threshold: for a finite class
    the first least sum among those members; for the linear ball an ERM
    solve warm-started from the last one, at most once per row count,
    counted in `erm_solves`, its weighted loss sum kept in `erm_sum`.
    """

    def __init__(self, loss: LossFunction, threshold, rng: np.random.Generator,
                 hypothesis_class=None, p_min: float = 0.0):
        if not 0.0 <= p_min <= 1.0:
            raise ValueError("p_min must lie in [0, 1]")
        self.loss = loss
        self.threshold = threshold
        self.rng = rng
        if hypothesis_class is None:
            hypothesis_class = getattr(threshold, "hypothesis_class", None)
        self.hypothesis_class = hypothesis_class
        self.p_min = p_min
        self.t = 0
        self.sample = WeightedSample()
        self.member_sums = None
        self.trace = QueryTrace()
        self._current = self.erm_sum = None
        self._fit_rows = 0            # sample rows the current ERM covers
        self.erm_solves = 0
        if isinstance(hypothesis_class, FiniteClass):
            self.member_sums = np.zeros(len(hypothesis_class.members))
            every = np.arange(len(self.member_sums))
            self._survivors = getattr(threshold, "survivors", lambda: every)
            self._scored_losses = getattr(threshold, "scored_losses", lambda y: None)
        elif isinstance(hypothesis_class, LinearBall):
            self._current, self.erm_sum = erm_weighted(hypothesis_class, self.sample, loss)
        self._ahead = getattr(threshold, "ahead", lambda Z: None)
        threshold.attach(self)

    def steps(self, X, oracle: Callable, Z=None) -> None:
        """Process the rows of X in order, each by `step`. Z, when given, is
        the predictions on X of the class the threshold reads (rows, members),
        row i its `predict(X[i])` bit for bit: a finite class's, as
        `predict_many` gives them, or a bootstrap committee's votes. For a
        finite class one `predict_many` call makes them when Z is None. They
        are range-checked once, here, and each row's step takes its row of
        them; without them each row steps alone. A threshold with an `ahead`
        method, the finite class's, is handed the checked table first, so it
        can score the rows ahead together, and is told to drop it when the
        block ends or raises."""
        if Z is None and self.member_sums is not None:
            Z = self.hypothesis_class.predict_many(X)
        if Z is None:
            for x in X:
                self.step(x, oracle)
            return
        Z = self.loss.checked_predictions(Z)
        self._ahead(Z)
        try:
            for x, z in zip(X, Z):
                self.step(x, oracle, z)
        finally:
            self._ahead(None)

    def step(self, x, oracle: Callable, z=None) -> None:
        """Process one unlabeled point.

        oracle(i, x) is called only on a query, with i the 0-based position
        of x in this engine's stream. z is the `predict(x)` of the class the
        threshold reads, a finite class or a bootstrap committee, in the
        loss's prediction range; the threshold and a finite class's
        member-sum update then take it, and without z each predicts x itself.
        """
        self.t += 1
        raw = (self.threshold.probability(x) if z is None
               else self.threshold.probability(x, z))
        p = validate_probability(raw)
        p = max(p, self.p_min)
        queried = 1 if self.rng.random() < p else 0
        y = None
        if queried:
            y = float(oracle(self.t - 1, x))
            weight = 1.0 / p
            self.sample.append(x, y, weight)
            if self.member_sums is not None:
                if z is None:
                    z = self.loss.checked_predictions(self.hypothesis_class.predict(x))
                self.loss.check_label(y)
                read = self._survivors()
                losses = self._scored_losses(y)     # from the rows ahead
                if losses is None:
                    losses = self.loss.unchecked_values(z.take(read), y)
                self.member_sums[read] += weight * losses
        self.threshold.record(x, y, p, queried)
        self.trace.append(p, queried)

    def refresh_hypothesis(self):
        """The running minimizer over every queried row (None without a class);
        for a finite class, the first least sum among the threshold's survivors."""
        if self.member_sums is not None:
            read = self._survivors()
            least = read[np.argmin(self.member_sums.take(read))]
            return self.hypothesis_class.members[int(least)]
        if self.hypothesis_class is not None and self._fit_rows < len(self.sample):
            self._current, self.erm_sum = erm_weighted(
                self.hypothesis_class, self.sample, self.loss, start=self._current.weights)
            self._fit_rows = len(self.sample)
            self.erm_solves += 1
        return self._current


class ArrayOracle:
    """Label source over a fixed stream, counting every consultation."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=float)
        self.calls = 0

    def __call__(self, i, x) -> float:
        self.calls += 1
        return float(self.labels[i])
