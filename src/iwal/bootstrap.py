"""Bootstrap-committee rejection threshold and costing resampling.

A committee of trees is trained once on bootstrap resamples of an initial
labeled prefix and never retrained. The query probability for a new point is
a floor plus the committee's loss disagreement on it, so it never drops below
p_min and the safety guarantees for floor-bounded sampling apply. After the
stream, rejection sampling with acceptance weight/max-weight turns the
importance-weighted sample back into an unweighted one for a final learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypotheses import FiniteClass, WeightedSample
from .losses import LossFunction
from .trees import DecisionTree, TreeParams


@dataclass(frozen=True)
class Committee:
    members: tuple
    p_min: float = 0.1
    finite: FiniteClass = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a committee needs at least 2 members")
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError("p_min must lie in (0, 1]")
        object.__setattr__(self, "finite", FiniteClass(self.members))

    def __len__(self):
        return len(self.members)


def train_committee(X, y, rng: np.random.Generator, size: int = 10,
                    p_min: float = 0.1, params: TreeParams = TreeParams()) -> Committee:
    """Train `size` trees, each on a with-replacement resample of the prefix."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise ValueError("committee prefix must be nonempty")
    # the resamples repeat rows, so they are stacked as consecutive blocks
    rows = np.concatenate([rng.integers(0, len(X), size=len(X)) for _ in range(size)])
    members = DecisionTree.fit_many(X[rows], y[rows],
                                    np.arange(len(rows)).reshape(size, -1), params)
    return Committee(tuple(members), p_min=p_min)


def query_probability(x, committee: Committee, loss: LossFunction,
                      labels=(-1.0, 1.0)) -> float:
    """p_min + (1 - p_min) * largest pairwise loss difference on x."""
    spread = loss.spread_many(committee.finite.predict(x), labels)
    return committee.p_min + (1.0 - committee.p_min) * spread


class CommitteeThreshold:
    """Rejection threshold driven by committee disagreement."""

    def __init__(self, committee: Committee, loss: LossFunction,
                 labels=(-1.0, 1.0)):
        self.committee = committee
        self.loss = loss
        self.labels = tuple(labels)

    def attach(self, engine) -> None:
        pass

    def probability(self, x) -> float:
        return query_probability(x, self.committee, self.loss, self.labels)

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


def train_final(resampled: Resample, params: TreeParams = TreeParams(),
                fallback=None) -> DecisionTree:
    """Train the final tree on the costing output.

    An empty resample falls back to a majority stump over the fallback
    examples (normally the committee's initial prefix).
    """
    return train_finals(resampled.X, resampled.y, [resampled], params, fallback)[0]


def train_finals(X, y, resamples, params: TreeParams = TreeParams(),
                 fallback=None) -> list:
    """`train_final` on each resample of an iterable, in order, every
    resample's rows indexing X and y. The iterable is read lazily and the
    trees are grown together by `DecisionTree.fit_many`; each empty
    resample's stump takes its place."""
    empty = []

    def nonempty():
        for i, resampled in enumerate(resamples):
            if len(resampled):
                yield resampled.rows
            else:
                empty.append(i)

    trees = DecisionTree.fit_many(X, y, nonempty(), params)
    if empty:
        if fallback is None or len(fallback[1]) == 0:
            raise ValueError("empty resample and no fallback prefix")
        X0, y0 = fallback
        majority = 1.0 if np.sum(np.asarray(y0) > 0) * 2 >= len(y0) else -1.0
        for i in empty:
            trees.insert(i, DecisionTree.leaf(majority, np.asarray(X0).shape[1]))
    return trees


def weighted_examples_from_arrays(X, y, weights) -> WeightedSample:
    return WeightedSample(zip(X, y, weights))
