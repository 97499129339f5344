"""Binary-classification loss functions normalized to [0, 1].

Every loss is evaluated on a prediction z and a label y. Predictions live in
Z = [-range_bound, +range_bound], except for the zero-one loss where
Z = {-1, +1}. Labels are -1/+1 (the squared and absolute losses also accept
intermediate real labels, which the point-mass instance needs). Each kind
has one formula, applied elementwise:

    zero-one  [y z < 0]      hinge     max(0, 1 - y z)
    logistic  log(1 + e^-yz) squared   (y - z)^2
    absolute  |y - z|

Raw values are divided by their supremum over Z x Y, the value at
z = -range_bound, y = +1, so that normalized values, and therefore query
probabilities derived from loss spreads, stay in [0, 1]. Every kind is
quasi-convex in z with its least value at z = y (zero-one takes it on all
of y's side, z = 0 included), so on an interval of predictions a loss is
extreme at the ends or at y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PredictionDomainError, UnsupportedLossError

# The unnormalized loss of predictions z against labels y, per kind.
_RAW = {
    "zero-one": lambda z, y: y * z < 0,
    "hinge": lambda z, y: np.maximum(0.0, 1.0 - y * z),
    "logistic": lambda z, y: np.logaddexp(0.0, -y * z),
    "squared": lambda z, y: (y - z) ** 2,
    "absolute": lambda z, y: np.abs(y - z),
}

LOSS_KINDS = tuple(_RAW)


def _logistic_bound(z, y, out, work):
    """log(1 + e^-yz) as max(0, -m) + log1p(e^-|m|) with m = y z, written to
    out with work as scratch. It is the formula np.logaddexp(0, -m) runs, but
    NumPy runs its exp and log1p as vector loops (SIMD where the CPU has
    them), where the logaddexp loop calls libm's scalar exp and log1p: the two
    differ only by those functions' rounding, a few ulps of e^-|m| <= 1 and
    of log1p(e^-|m|) < 1 each. Divided by the normalizer (at least log 2),
    that is about 20 ulp(1) at most; _BOUND_TOL allows 64. With NumPy 2.4 on
    an x86-64 CPU, 3 ulp(1) were seen with its AVX-512 loops and none
    without them."""
    m = np.multiply(z, y, out=out)
    e = np.exp(np.negative(np.abs(m, out=work), out=work), out=work)
    np.log1p(e, out=e)
    return np.add(np.maximum(np.negative(m, out=m), 0.0, out=m), e, out=m)


# A cheaper formula for a kind's raw loss, and the per-value tolerance of its
# normalized values against unchecked_values: `bound_values` (the other kinds
# run their _RAW formula, tolerance 0)
_BOUND = {"logistic": _logistic_bound}
_BOUND_TOL = {"logistic": 2.0 ** -47}

# Loss kinds with smooth convex surrogates usable by the convex solvers.
SMOOTH_KINDS = ("logistic", "squared")

_DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class LossFunction:
    """A normalized loss, identified by kind and prediction range half-width."""

    kind: str
    range_bound: float = 1.0
    normalizer: float = field(init=False)

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise UnsupportedLossError(f"unknown loss kind {self.kind!r}")
        if not 0 < self.range_bound < math.inf:
            raise ValueError("range_bound must be positive and finite")
        # every loss peaks at the worst margin b over Z x Y, but np.logaddexp
        # is not monotone in its last bit: a margin up to two ulps of the peak
        # (at most b + log 2) below b can compute one ulp more. The normalizer
        # is the largest raw loss, squared as eval_many squares, over every
        # float in [b - 3 ulp(b + log 2), b]. For b below about 1e-3 that
        # window holds too many floats, and 1,025 evenly spaced ones can miss
        # the high one, so the logistic normalizer is then at least one ulp
        # above the loss at b.
        b = self.range_bound
        start = max(b - 3 * np.spacing(b + math.log(2)), 0.0)
        lo, hi = np.array([start, b]).view(np.int64)
        stride = max(1, (hi - lo) // 1024)
        margins = np.arange(hi, lo - 1, -stride).view(np.float64)
        with np.errstate(over="ignore"):
            top = _RAW[self.kind](-margins, 1.0).max()
            if stride > 1 and self.kind == "logistic":
                top = max(top, np.nextafter(_RAW[self.kind](-b, 1.0), math.inf))
        object.__setattr__(self, "normalizer", float(top))
        # an infinite normalizer would make every normalized loss 0
        if not math.isfinite(self.normalizer):
            raise ValueError(f"range_bound {b} overflows the "
                             f"{self.kind} loss normalizer")

    def check_label(self, y: float) -> None:
        """ValueError unless y is a label this kind accepts (never a NaN)."""
        if self.kind in ("squared", "absolute"):
            if not abs(y) <= 1.0 + _DOMAIN_TOL:
                raise ValueError(f"label {y} outside [-1, 1]")
        elif y not in (-1.0, 1.0):
            raise ValueError(f"label must be -1 or +1, got {y}")

    def label_column(self, labels) -> np.ndarray:
        """The labels, in their order, as a float (labels, 1) column that
        `unchecked_values` broadcasts against predictions; ValueError unless
        `check_label` takes each distinct label, checked once each, in order."""
        column = np.array(labels, dtype=float)[:, None]
        for y in dict.fromkeys(labels):
            self.check_label(y)
        return column

    def eval(self, z: float, y: float) -> float:
        """Normalized loss of predicting z against label y; result in [0, 1].

        It is eval_many on one prediction, so the two agree bit for bit."""
        return float(self.eval_many(np.array([z], dtype=float), y)[0])

    def eval_many(self, z: np.ndarray, y: float) -> np.ndarray:
        """Vectorized eval for a fixed label; one domain check on the batch."""
        z = self.checked_predictions(z)
        self.check_label(y)
        return self.unchecked_values(z, y)

    def unchecked_values(self, z, y):
        """eval_many's values without its checks: z must lie in Z and y, a
        label or a column of labels broadcast against z, be labels
        `check_label` takes."""
        return _RAW[self.kind](z, y) / self.normalizer

    @property
    def bound_tolerance(self) -> float:
        """The most `bound_values` differs from `unchecked_values` per value:
        0 where both run the same formula."""
        return _BOUND_TOL.get(self.kind, 0.0)

    def bound_values(self, z, y, out, work):
        """unchecked_values(z, y) to within `bound_tolerance` per value, written
        to out, an array of their broadcast shape, with work, another, as
        scratch: the logistic kind's cheaper formula, the other kinds' values
        bit for bit. Only the cost depends on the CPU; a speed gain needs the
        SIMD exp and log1p, the tolerance does not."""
        raw = (_BOUND[self.kind](z, y, out, work) if self.kind in _BOUND
               else _RAW[self.kind](z, y))
        return np.divide(raw, self.normalizer, out=out)

    def checked_predictions(self, z) -> np.ndarray:
        """z as a float array; PredictionDomainError unless it lies in Z."""
        z = np.asarray(z, dtype=float)
        if self.kind == "zero-one":
            if not np.all(np.isin(z, (-1.0, 1.0))):
                raise PredictionDomainError("zero-one predictions must be -1 or +1")
        elif z.size and not np.abs(z).max() <= self.range_bound + _DOMAIN_TOL:
            # a NaN, whose max is NaN, fails this as one beyond the range does
            raise PredictionDomainError(
                f"prediction outside [-{self.range_bound}, {self.range_bound}]")
        return z

    # -- smooth surrogate interface for the convex solver ---------------------

    def _require_smooth(self) -> None:
        if self.kind not in SMOOTH_KINDS:
            raise UnsupportedLossError(
                f"{self.kind} loss has no smooth surrogate for the solver"
            )

    def smooth_value_many(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Normalized loss on unclamped predictions (solver objective terms)."""
        self._require_smooth()
        return self.unchecked_values(z, y)

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
            try:
                low = 1.0 / (1.0 + math.exp(b))
            except OverflowError:
                low = math.exp(-b)     # 1 / (1 + e^b) to within rounding
            return low, 1.0 / (1.0 + math.exp(-b))
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
        if self.kind in ("logistic", "squared"):
            c0, c1 = self.derivative_bounds()
            return c1 / c0 if c0 > 0.0 else math.inf
        # absolute: slope magnitude is 1 on both sides of the kink, but once
        # the kink is interior to Z the defining ratio degenerates
        return 1.0 if b <= 1.0 else math.inf

    # -- spreads over prediction intervals ------------------------------------

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
        labels = tuple(labels)
        if not labels:
            return 0.0
        column = self.label_column(labels)
        # quasi-convex in z, least at z = y: the extremes lie among lo, hi
        # and y clipped into [lo, hi], an end when y lies outside
        points = np.array([(lo, hi, min(max(y, lo), hi)) for y in labels])
        return float(spread_of(self.unchecked_values(points, column)))

    def spread_many(self, z: np.ndarray, labels=(-1.0, 1.0)) -> float:
        """Largest over labels of (max - min) normalized loss over predictions z:
        eval_many's checks and values, bit for bit, from one loss pass."""
        labels = tuple(labels)
        if not labels:
            return 0.0
        z = self.checked_predictions(z)
        return float(spread_of(self.unchecked_values(z, self.label_column(labels))))


def spread_of(values: np.ndarray) -> np.ndarray:
    """The loss spread of each entry of `values`, losses indexed (labels, ...,
    predictions): the largest over labels of max - min over the predictions,
    at least 0, where a NaN spread never wins (`np.fmax`), and at most 1.
    There must be at least one prediction."""
    spreads = np.maximum.reduce(values, axis=-1) - np.minimum.reduce(values, axis=-1)
    return np.minimum(np.fmax.reduce(spreads, axis=0, initial=0.0), 1.0)
