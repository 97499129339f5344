"""Binary-classification loss functions normalized to [0, 1].

Every loss is evaluated on a prediction z and a label y. Predictions live in
Z = [-range_bound, +range_bound], except for the zero-one loss where
Z = {-1, +1}. Labels are -1/+1 (the squared and absolute losses also accept
intermediate real labels, which the point-mass instance needs). Raw values
are divided by the exact supremum of the loss over Z x Y so that normalized
values, and therefore query probabilities derived from loss spreads, stay in
[0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PredictionDomainError, UnsupportedLossError

LOSS_KINDS = ("zero-one", "hinge", "logistic", "squared", "absolute")

# Loss kinds with smooth convex surrogates usable by the convex solvers.
SMOOTH_KINDS = ("logistic", "squared")

_DOMAIN_TOL = 1e-9


def _softplus(v: float) -> float:
    # log(1 + e^v) without overflow
    if v > 0:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


def _softplus_arr(v: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, v)


@dataclass(frozen=True)
class LossFunction:
    """A normalized loss, identified by kind and prediction range half-width."""

    kind: str
    range_bound: float = 1.0
    normalizer: float = field(init=False)

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise UnsupportedLossError(f"unknown loss kind {self.kind!r}")
        if not self.range_bound > 0:
            raise ValueError("range_bound must be positive")
        # every loss peaks at the worst margin over Z x Y, -range_bound
        object.__setattr__(self, "normalizer",
                           self.raw_margin_loss(-self.range_bound))

    # -- scalar evaluation ---------------------------------------------------

    def raw_margin_loss(self, v: float) -> float:
        """Unnormalized loss as a function of the margin v = y*z."""
        if self.kind == "zero-one":
            return 1.0 if v < 0 else 0.0
        if self.kind == "hinge":
            return max(0.0, 1.0 - v)
        if self.kind == "logistic":
            return _softplus(-v)
        if self.kind == "squared":
            return (1.0 - v) * (1.0 - v)   # as eval_many squares; ** 2 may round lower
        return abs(1.0 - v)

    def margin_loss(self, v: float) -> float:
        """Normalized loss at margin v, without domain checks."""
        return self.raw_margin_loss(v) / self.normalizer

    def _check_label(self, y: float) -> None:
        if self.kind in ("squared", "absolute"):
            if abs(y) > 1.0 + _DOMAIN_TOL:
                raise ValueError(f"label {y} outside [-1, 1]")
        elif y not in (-1.0, 1.0):
            raise ValueError(f"label must be -1 or +1, got {y}")

    def eval(self, z: float, y: float) -> float:
        """Normalized loss of predicting z against label y; result in [0, 1].

        It is eval_many on one prediction, so the two agree bit for bit."""
        return float(self.eval_many(np.array([z], dtype=float), y)[0])

    def eval_many(self, z: np.ndarray, y: float) -> np.ndarray:
        """Vectorized eval for a fixed label; one domain check on the batch."""
        z = np.asarray(z, dtype=float)
        if self.kind == "zero-one":
            if not np.all(np.isin(z, (-1.0, 1.0))):
                raise PredictionDomainError("zero-one predictions must be -1 or +1")
        elif z.size and np.abs(z).max() > self.range_bound + _DOMAIN_TOL:
            raise PredictionDomainError(
                f"prediction outside [-{self.range_bound}, {self.range_bound}]")
        self._check_label(y)
        if self.kind == "zero-one":
            return (y * z < 0).astype(float)
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - y * z) / self.normalizer
        if self.kind == "logistic":
            return _softplus_arr(-y * z) / self.normalizer
        if self.kind == "squared":
            return (y - z) ** 2 / self.normalizer
        return np.abs(y - z) / self.normalizer

    # -- smooth surrogate interface for the convex solver ---------------------

    def _require_smooth(self) -> None:
        if self.kind not in SMOOTH_KINDS:
            raise UnsupportedLossError(
                f"{self.kind} loss has no smooth surrogate for the solver"
            )

    def smooth_value_many(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Normalized loss on unclamped predictions (solver objective terms)."""
        self._require_smooth()
        if self.kind == "logistic":
            return _softplus_arr(-y * z) / self.normalizer
        return (z - y) ** 2 / self.normalizer

    def smooth_derivatives_many(self, z: np.ndarray,
                                y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second d/dz of the normalized loss on unclamped predictions.

        One pass serves both: the logistic kind shares m = y*z, e = e^{-|m|}
        and 1 + e between the gradient and the curvature.
        """
        self._require_smooth()
        if self.kind == "logistic":
            # d/dz log(1 + e^{-yz}) = -y / (1 + e^{yz}), computed stably:
            # e/(1+e) where m >= 0 and 1/(1+e) elsewhere
            m = y * z
            e = np.exp(-np.abs(m))
            d = 1.0 + e
            grad = y * (np.where(m >= 0, e, 1.0) / d) / -self.normalizer
            return grad, e / (d * d) / self.normalizer
        grad = 2.0 * (z - y) / self.normalizer
        return grad, np.full_like(grad, 2.0 / self.normalizer)

    # -- derivative bounds and slope asymmetry --------------------------------

    def derivative_bounds(self) -> tuple[float, float]:
        """Infimum and supremum of |phi'| over the raw margin loss on Z.

        Defined for the differentiable kinds; the absolute loss reports the
        constant slope away from its kink, hinge and zero-one are unsupported.
        """
        b = self.range_bound
        if self.kind == "logistic":
            return 1.0 / (1.0 + math.exp(b)), 1.0 / (1.0 + math.exp(-b))
        if self.kind == "squared":
            low = 2.0 * (1.0 - b) if b < 1.0 else 0.0
            return low, 2.0 * (1.0 + b)
        if self.kind == "absolute":
            return 1.0, 1.0
        raise UnsupportedLossError(f"derivative bounds undefined for {self.kind}")

    def slope_asymmetry(self) -> float:
        """Upper bound on max-over-labels / min-over-labels loss differences.

        Exactly 1 for zero-one loss and infinity for hinge; the differentiable
        kinds report the derivative-bound ratio C1/C0.
        """
        b = self.range_bound
        if self.kind == "zero-one":
            return 1.0
        if self.kind == "hinge":
            return math.inf
        if self.kind == "logistic":
            c0, c1 = self.derivative_bounds()
            return c1 / c0
        if self.kind == "squared":
            return math.inf if b >= 1.0 else (1.0 + b) / (1.0 - b)
        # absolute: slope magnitude is 1 on both sides of the kink, but once
        # the kink is interior to Z the defining ratio degenerates
        return 1.0 if b <= 1.0 else math.inf

    # -- spreads over prediction intervals ------------------------------------

    def _extremes_on_interval(self, lo: float, hi: float, y: float) -> tuple[float, float]:
        """(min, max) of the normalized loss over predictions in [lo, hi]."""
        if self.kind == "zero-one":
            # step function of the sign of y*z
            has_err = (y > 0 and lo < 0) or (y < 0 and hi > 0)
            has_ok = (y > 0 and hi >= 0) or (y < 0 and lo <= 0)
            return (0.0 if has_ok else 1.0), (1.0 if has_err else 0.0)
        if self.kind in ("hinge", "logistic"):
            # nonincreasing in the margin y*z
            if y > 0:
                return self.margin_loss(hi), self.margin_loss(lo)
            return self.margin_loss(-lo), self.margin_loss(-hi)
        # squared / absolute: convex in z with vertex at z = y
        at_lo = self.eval(lo, y)
        at_hi = self.eval(hi, y)
        mn = 0.0 if lo <= y <= hi else min(at_lo, at_hi)
        return mn, max(at_lo, at_hi)

    def interval_spread(self, lo: float, hi: float, labels=(-1.0, 1.0)) -> float:
        """Largest over labels of (max - min) normalized loss on [lo, hi].

        The interval is clamped to the prediction range first. This is the
        loss spread achievable by predictors whose outputs cover [lo, hi].
        """
        b = self.range_bound
        lo = min(max(lo, -b), b)
        hi = min(max(hi, -b), b)
        if lo > hi:
            lo = hi
        spread = 0.0
        for y in labels:
            mn, mx = self._extremes_on_interval(lo, hi, y)
            spread = max(spread, mx - mn)
        return min(max(spread, 0.0), 1.0)

    def spread_many(self, z: np.ndarray, labels=(-1.0, 1.0)) -> float:
        """Largest over labels of (max - min) normalized loss over predictions z."""
        spread = 0.0
        for values in (self.eval_many(z, y) for y in labels):
            spread = max(spread, float(values.max() - values.min()))
        return min(max(spread, 0.0), 1.0)
