"""Predictors, hypothesis classes, the weighted sample, and weighted ERM.

Two class representations are supported: an explicit finite set of predictors
and the ball of linear predictors with a squared-norm bound. Linear
predictions are clamped into the loss's prediction range so that normalized
losses stay in [0, 1] even when the raw inner product exceeds the range.

Each arm keeps its queried examples in one columnar `WeightedSample`. A finite
class predicts all its members on a point, or on a block of rows, in one
call; the engine's running member loss sums are its ERM. `erm_weighted` is
the ball's, by the ball solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import solver
from .errors import DimensionMismatchError
from .losses import LossFunction


def _point(x, dim) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"expected dimension {dim}, got {x.shape}")
    return x


def _rows(X, dim) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(f"expected rows of dimension {dim}, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class LinearPredictor:
    """Clamped linear predictor: z = clip(u . x, -range_bound, +range_bound)."""

    weights: np.ndarray
    range_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    def predict(self, x) -> float:
        x = _point(x, self.weights.shape[0])
        b = self.range_bound
        return float(min(max(float(self.weights @ x), -b), b))

    def predict_many(self, X) -> np.ndarray:
        X = _rows(X, self.weights.shape[0])
        return np.clip(X @ self.weights, -self.range_bound, self.range_bound)


@dataclass(frozen=True)
class ThresholdPredictor:
    """Sign predictor for zero-one loss: z = sign(u . x), with sign(0) = +1."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    def predict(self, x) -> float:
        x = _point(x, self.weights.shape[0])
        return 1.0 if float(self.weights @ x) >= 0 else -1.0

    def predict_many(self, X) -> np.ndarray:
        X = _rows(X, self.weights.shape[0])
        return np.where(X @ self.weights >= 0, 1.0, -1.0)


@dataclass(frozen=True)
class ConstantPredictor:
    value: float

    def predict(self, x) -> float:
        return self.value

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D array of rows, got shape {X.shape}")
        return np.full(len(X), self.value)


class TablePredictor:
    """Lookup predictor over a finite input support, keyed by tuple(x)."""

    def __init__(self, table: dict):
        self.table = {tuple(np.asarray(k, dtype=float).tolist()): float(v)
                      for k, v in table.items()}

    def predict(self, x) -> float:
        key = tuple(np.asarray(x, dtype=float).tolist())
        try:
            return self.table[key]
        except KeyError:
            raise DimensionMismatchError(f"input {key} not in predictor table") from None

    def predict_many(self, X) -> np.ndarray:
        return np.array([self.predict(x) for x in X])

    def __eq__(self, other):
        return isinstance(other, TablePredictor) and self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))


def _check_weighted(y, weight) -> None:
    if not 0 < weight < np.inf:
        raise ValueError(f"importance weight must be finite and positive, got {weight}")
    if abs(y) > 1.0:
        raise ValueError(f"label {y} outside [-1, 1]")


@dataclass(frozen=True)
class WeightedExample:
    """A queried example carrying its importance weight (1/p at query time)."""

    x: np.ndarray
    y: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        _check_weighted(self.y, self.weight)


class WeightedSample:
    """Queried examples as growable columns X, y and w (the 1/p weights).

    Rows are appended in query order, pass WeightedExample's checks and share
    the first row's width. Capacity doubles as rows arrive; X, y and w are
    views of the filled rows. Iterating yields WeightedExamples.
    """

    def __init__(self, rows=()):
        self._X, self._y, self._w = np.empty((0, 0)), np.empty(0), np.empty(0)
        self._show(0)
        for row in rows:
            self.append(*row)

    def _show(self, n: int) -> None:
        self.X, self.y, self.w = self._X[:n], self._y[:n], self._w[:n]

    def append(self, x, y: float, weight: float) -> None:
        x = np.asarray(x, dtype=float)
        _check_weighted(y, weight)
        n = len(self.w)
        if n == len(self._w):
            # np.resize keeps the first n rows of each column
            width = self._X.shape[1] if n else x.size
            self._X = np.resize(self._X, (max(16, 2 * n), width))
            self._y = np.resize(self._y, len(self._X))
            self._w = np.resize(self._w, len(self._X))
        if x.shape != self._X.shape[1:]:
            raise DimensionMismatchError(
                f"expected rows of width {self._X.shape[1]}, got shape {x.shape}"
            )
        self._X[n], self._y[n], self._w[n] = x, y, weight
        self._show(n + 1)

    def __len__(self):
        return len(self.w)

    def __iter__(self):
        return map(WeightedExample, self.X, self.y.tolist(), self.w.tolist())

    def head(self, n: int) -> "WeightedSample":
        """A sample of the first n rows, its columns views of these."""
        first = WeightedSample()
        first._X, first._y, first._w = self.X[:n], self.y[:n], self.w[:n]
        first._show(len(first._w))
        return first

    def __add__(self, other: "WeightedSample") -> "WeightedSample":
        """A new sample holding the rows of self, then those of other."""
        joined = WeightedSample()
        parts = [s for s in (self, other) if len(s)] or [self]
        joined._X = np.concatenate([s.X for s in parts])
        joined._y = np.concatenate([s.y for s in parts])
        joined._w = np.concatenate([s.w for s in parts])
        joined._show(len(joined._w))
        return joined


@dataclass(frozen=True)
class FiniteClass:
    """An explicit, ordered hypothesis set; order breaks ERM ties."""

    members: tuple
    _weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a finite hypothesis class must be nonempty")
        kinds = {(type(h), getattr(h, "range_bound", 0)) for h in self.members}
        if len(kinds) == 1 and type(self.members[0]) in (LinearPredictor, ThresholdPredictor):
            object.__setattr__(self, "_weights", np.stack(
                [h.weights for h in self.members])[:, None, :])

    def __len__(self):
        return len(self.members)

    def predict(self, x) -> np.ndarray:
        """Every member's prediction on the point x, in member order. Linear
        members with one range bound, or threshold members, form a weight
        matrix; each (1 x d)(d x 1) item of its batched matmul is the BLAS ddot
        of the member's `w @ x`, bit for bit, as long as x is used as given."""
        W = self._weights
        if W is None:
            x = np.asarray(x, dtype=float)
            return np.fromiter((h.predict(x) for h in self.members), float, len(self))
        x = _point(x, W.shape[2])
        return self._finish(np.matmul(W, x[None, :, None])[:, 0, 0])

    def predict_many(self, X) -> np.ndarray:
        """Every member's prediction on each row of X, (rows, members); row i
        is predict(X[i]) bit for bit. The weight matrix's batched matmul runs
        the same ddot for each (row, member) item; other members predict row
        by row."""
        W = self._weights
        if W is None:
            return np.array([self.predict(x) for x in X]).reshape(len(X), len(self))
        X = _rows(X, W.shape[2])
        return self._finish(np.matmul(W[None], X[:, None, :, None])[..., 0, 0])

    def _finish(self, z):
        """Stacked members' predictions from their raw inner products z."""
        if isinstance(self.members[0], ThresholdPredictor):
            return np.where(z >= 0, 1.0, -1.0)
        b = self.members[0].range_bound
        return np.minimum(np.maximum(z, -b, out=z), b, out=z)


@dataclass(frozen=True)
class LinearBall:
    """Linear predictors u with squared norm at most norm_bound."""

    dim: int
    norm_bound: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not 0 < self.norm_bound < math.inf:
            raise ValueError(f"norm_bound must be positive and finite, got "
                             f"{self.norm_bound}")


def erm_weighted(ball: LinearBall, sample: WeightedSample, loss: LossFunction,
                 start=None):
    """The importance-weighted empirical risk minimizer over the linear ball
    and its weighted loss sum over the sample's rows, (minimizer, sum), from
    the trust-region solver (smooth losses only) warm from `start`. An empty
    sample returns the zero vector with sum 0.
    """
    if not len(sample):
        return LinearPredictor(np.zeros(ball.dim), loss.range_bound), 0.0
    result = solver.minimize_weighted_loss(
        loss, sample.X, sample.y, sample.w, ball.norm_bound, start=start)
    return LinearPredictor(result.point, loss.range_bound), result.value
