"""Bootstrap-committee rejection threshold and costing resampling.

The committee is a FiniteClass of trees, each trained once on a bootstrap
resample of an initial labeled prefix and never retrained. The query
probability for a new point is a floor plus the committee's loss
disagreement on it, so it never drops below p_min and the safety guarantees
for floor-bounded sampling apply. Every tree votes -1 or +1, so that
probability takes two values, both worked out when the threshold is built:
p_min where the votes agree, and p_min plus (1 - p_min) times the loss
spread of {-1, +1} where they split. The committee is fixed before the
stream, so a run gets its votes on every streamed row from one walk of the
members' trees (`trees.predict_forest`), and each step reads its row of
them. After the stream, rejection sampling with acceptance
weight/max-weight turns the importance-weighted sample back into an
unweighted one for a final learner. The heaviest row's acceptance ratio is
exactly 1 and every uniform drawn is below 1, so costing always keeps that
row and every final tree has rows to fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import FiniteClass, WeightedSample
from .losses import LossFunction
from .trees import DecisionTree, TreeParams


def train_committee(X, y, rng: np.random.Generator, size: int = 10,
                    params: TreeParams = TreeParams()) -> FiniteClass:
    """Train `size` trees, each on a with-replacement resample of the prefix."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if len(X) == 0:
        raise ValueError("committee prefix must be nonempty")
    # the resamples repeat rows, so they are stacked as consecutive blocks
    rows = np.concatenate([rng.integers(0, len(X), size=len(X)) for _ in range(size)])
    return FiniteClass(DecisionTree.fit_many(
        X[rows], y[rows], np.arange(len(rows)).reshape(size, -1), params))


class CommitteeThreshold:
    """Rejection threshold driven by committee disagreement: p_min plus
    (1 - p_min) times the largest pairwise loss difference of the members'
    votes on x, so p_min where every vote agrees and the split value where
    any two differ."""

    def __init__(self, committee: FiniteClass, loss: LossFunction,
                 labels=(-1.0, 1.0), p_min: float = 0.1):
        if len(committee) < 2:
            raise ValueError("a committee needs at least 2 members")
        if not 0.0 < p_min <= 1.0:
            raise ValueError("p_min must lie in (0, 1]")
        if not all(isinstance(h, DecisionTree) for h in committee.members):
            raise TypeError("committee members must be DecisionTrees")
        if len({h.n_features for h in committee.members}) > 1:
            raise ValueError("committee members must share one input width")
        self.committee = committee
        self.loss = loss
        self.labels = tuple(labels)
        self.p_min = p_min
        # the p where the votes split: their spread is that of {-1, +1}
        self._split = p_min + (1.0 - p_min) * loss.spread_many(
            np.array([-1.0, 1.0]), self.labels)

    def attach(self, engine) -> None:
        pass

    def probability(self, x, z=None) -> float:
        """The query probability of x; z, when given, is the members' votes
        on x as `committee.predict(x)` gives them, else each member votes."""
        votes = (self.committee.predict(x) if z is None else z).tolist()
        return self.p_min if votes.count(votes[0]) == len(votes) else self._split

    def record(self, x, y, p, queried) -> None:
        pass


@dataclass(frozen=True)
class Resample:
    """Unweighted rows kept by costing: the increasing indices `rows` into
    the columns X and y of the sample drawn from; iterates (x, y) pairs."""

    X: np.ndarray
    y: np.ndarray
    rows: np.ndarray

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return zip(self.X[self.rows], self.y[self.rows].tolist())


def costing_resample(sample: WeightedSample, rng: np.random.Generator) -> Resample:
    """Reject-sample a weighted sample down to an unweighted one.

    Each row is kept independently with probability weight / max weight, so
    for any fixed f, E[sum over kept f(x)] * max weight recovers the weighted
    sum.
    """
    # one coin per row, drawn in row order
    keep = rng.random(len(sample)) < sample.w / sample.w.max() if len(sample) else []
    return Resample(sample.X, sample.y, np.flatnonzero(keep))


def weighted_examples_from_arrays(X, y, weights) -> WeightedSample:
    return WeightedSample(zip(X, y, weights))
