"""The streaming sampler: biased coins, weighted sample set, running ERM.

Each step asks the rejection threshold for a query probability on the
incoming point, flips a seeded coin, and on success requests the label and
stores the example with weight 1/p. The label oracle is consulted only for
queried points. The importance-weighted loss estimate built from the
resulting sample is unbiased for the true loss of any fixed hypothesis.

The engine is the only writer of its arm's store: the `WeightedSample` of
queried examples and, for a finite class, the member loss sums. It hands
itself to the threshold once, when built, and the threshold reads from it.
The `QueryTrace` holds the per-step facts as two columns, the query
probability p and the coin q, with the step t given by the position; the x
and y of a queried step live only in the sample.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidTraceError
from .hypotheses import FiniteClass, LinearBall, WeightedSample, erm_weighted
from .losses import LossFunction
from .thresholds import validate_probability


class StepRecord(NamedTuple):
    t: int
    x: object
    y: object          # None when the label was not queried
    p: float
    queried: int


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

    def query_count(self) -> int:
        return sum(self.q)

    def write_csv(self, path) -> None:
        cum = 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "p_t", "q_t", "cum_queries"])
            for t, (p, queried) in enumerate(zip(self.p, self.q), start=1):
                cum += queried
                writer.writerow([t, repr(p), queried, cum])


def weighted_loss_estimate(records, predictor, loss: LossFunction,
                           steps: int | None = None) -> float:
    """Importance-weighted empirical loss (1/T) sum q/p * l(h(x), y).

    Steps with q = 0 contribute exactly zero and their labels are never
    touched. A record claiming a query at p = 0 is rejected.
    """
    records = list(records)
    T = len(records) if steps is None else steps
    if T < 1:
        raise ValueError("the estimate needs at least one step")
    total = 0.0
    for r in records:
        if not r.queried:
            continue
        if r.p == 0.0:
            raise InvalidTraceError(f"step {r.t} queried at probability zero")
        total += loss.eval(predictor.predict(r.x), r.y) / r.p
    return total / T


class Engine:
    """Runs the sampling loop for one stream with one threshold strategy.

    The hypothesis class may be None when only the query trace matters.
    Finite classes keep incremental per-member weighted loss sums in
    `member_sums` (None otherwise), from one batched prediction per query.
    The running minimizer is computed only when `refresh_hypothesis` reads
    it: the argmin of the sums for a finite class, an ERM solve warm-started
    from the last one for the linear ball.
    """

    def __init__(self, loss: LossFunction, threshold, rng: np.random.Generator,
                 hypothesis_class=None, p_min: float = 0.0):
        if not 0.0 <= p_min <= 1.0:
            raise ValueError("p_min must lie in [0, 1]")
        self.loss = loss
        self.threshold = threshold
        self.rng = rng
        self.hypothesis_class = hypothesis_class
        self.p_min = p_min
        self.t = 0
        self.sample = WeightedSample()
        self.member_sums = None
        self.trace = QueryTrace()
        self._current = None
        self._fit_rows = 0            # sample rows the current ERM covers
        if isinstance(hypothesis_class, FiniteClass):
            self.member_sums = np.zeros(len(hypothesis_class.members))
        elif isinstance(hypothesis_class, LinearBall):
            self._current = erm_weighted(hypothesis_class, self.sample, loss)
        threshold.attach(self)

    def step(self, x, oracle: Callable) -> StepRecord:
        """Process one unlabeled point.

        oracle(i, x) is called only on a query, with i the 0-based position
        of x in this engine's stream.
        """
        self.t += 1
        raw = self.threshold.probability(x)
        p = validate_probability(raw)
        p = max(p, self.p_min)
        queried = 1 if self.rng.random() < p else 0
        y = None
        if queried:
            y = float(oracle(self.t - 1, x))
            weight = 1.0 / p
            self.sample.append(x, y, weight)
            if self.member_sums is not None:
                self.member_sums += weight * self.loss.eval_many(
                    self.hypothesis_class.predict(x), y)
        self.threshold.record(x, y, p, queried)
        self.trace.append(p, queried)
        return StepRecord(self.t, x, y, p, queried)

    def refresh_hypothesis(self):
        """The running minimizer over every queried row (None without a class)."""
        if self.member_sums is not None:
            return self.hypothesis_class.members[int(np.argmin(self.member_sums))]
        if self.hypothesis_class is not None and self._fit_rows < len(self.sample):
            self._current = erm_weighted(self.hypothesis_class, self.sample,
                                         self.loss, start=self._current.weights)
            self._fit_rows = len(self.sample)
        return self._current

    def run_stream(self, xs, oracle: Callable):
        """Consume the whole stream; returns (final hypothesis, trace)."""
        for x in xs:
            self.step(x, oracle)
        return self.refresh_hypothesis(), self.trace


class ArrayOracle:
    """Label source over a fixed stream, counting every consultation."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=float)
        self.calls = 0

    def __call__(self, i, x) -> float:
        self.calls += 1
        return float(self.labels[i])
