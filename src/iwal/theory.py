"""Probes for the distance metric, disagreement coefficient, and bounds.

The hypothesis-space distance is the expected max-over-labels absolute loss
difference. The disagreement coefficient estimate scans a radius grid: for
each radius it restricts a finite hypothesis sample to the distance ball
around the reference and measures the expected supremum loss deviation per
unit radius. Because the ball is approximated by a finite sample, the
estimate is one-sided (an underestimate), and checks against closed-form
bounds assert only that direction.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .losses import LossFunction

DEFAULT_LABELS = (-1.0, 1.0)


def _loss_gaps(loss: LossFunction, z, z_ref, labels) -> np.ndarray:
    """max over labels of |l(z, y) - l(z_ref, y)|, one per prediction pair."""
    gaps = np.zeros(len(z))
    for y in labels:
        gaps = np.maximum(gaps, np.abs(loss.eval_many(z, y) - loss.eval_many(z_ref, y)))
    return gaps


def loss_distance_exact(f, g, loss: LossFunction, instance,
                        labels=DEFAULT_LABELS) -> float:
    """E_x max_y |l(f(x), y) - l(g(x), y)| by enumeration of the atoms."""
    points = instance.points
    gaps = _loss_gaps(loss, f.predict_many(points), g.predict_many(points), labels)
    return float(instance.masses @ gaps)


def loss_distance_mc(f, g, loss: LossFunction, xs,
                     labels=DEFAULT_LABELS) -> tuple[float, float]:
    """Monte-Carlo estimate of the distance with its standard error."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("a Monte-Carlo estimate needs at least one point")
    gaps = _loss_gaps(loss, f.predict_many(xs), g.predict_many(xs), labels)
    mean = float(np.mean(gaps))
    stderr = float(np.std(gaps) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
    return mean, stderr


def distance_bounded_by_losses(h, reference, loss: LossFunction, instance,
                               labels=DEFAULT_LABELS) -> bool:
    """Whether distance(h, reference) <= K * (L(h) + L(reference)) holds.

    K is the loss's slope asymmetry; an infinite K makes the check vacuous.
    """
    k = loss.slope_asymmetry()
    if math.isinf(k):
        return True
    d = loss_distance_exact(h, reference, loss, instance, labels)
    bound = k * (instance.exact_loss(h, loss) + instance.exact_loss(reference, loss))
    return d <= bound + 1e-12


def disagreement_coefficient(reference, candidates, xs, loss: LossFunction,
                             r_grid, labels=DEFAULT_LABELS,
                             instance=None) -> dict:
    """Estimate the disagreement coefficient over a radius grid.

    For each radius r, candidates within distance r of the reference form
    the ball; theta_hat(r) is the expected (over xs, or exactly over an
    enumerable instance) supremum over the ball of the max-label loss
    deviation from the reference, divided by r; a candidate's distance is
    the same deviation's expectation. Radii whose ball catches no candidate
    are skipped with a warning, and ValueError is raised when every radius
    is. Returns per-radius estimates and their supremum.
    """
    if instance is not None:
        weights, points = instance.masses, instance.points
    else:
        points = np.asarray(xs, dtype=float)
        if len(points) == 0:
            raise ValueError("a Monte-Carlo estimate needs at least one point")
        weights = np.full(len(points), 1.0 / len(points))
    if not all(0 < r < math.inf for r in r_grid):
        raise ValueError(f"radii must be positive and finite, got {list(r_grid)}")

    z_ref = reference.predict_many(points)
    cand = list(candidates)
    deviations = np.zeros((len(cand), len(points)))
    for i, h in enumerate(cand):
        deviations[i] = _loss_gaps(loss, h.predict_many(points), z_ref, labels)
    rho = deviations @ weights
    if not any(np.any(rho <= r) for r in r_grid):
        raise ValueError("no sampled hypothesis lies within any radius, "
                         "so no supremum to bound")

    per_radius = {}
    for r in r_grid:
        in_ball = rho <= r
        if not np.any(in_ball):
            warnings.warn(f"no sampled hypothesis within distance {r}; skipping")
            continue
        sup_dev = deviations[in_ball].max(axis=0)
        per_radius[float(r)] = float(weights @ sup_dev) / r
    return {"per_radius": per_radius, "supremum": max(per_radius.values())}


def sphere_coefficient_bound(loss: LossFunction, dim: int) -> float:
    """Closed-form ceiling (2 C1/C0) sqrt(d) for spherical linear problems."""
    c0, c1 = loss.derivative_bounds()
    if c0 <= 0:
        return math.inf
    return 2.0 * (c1 / c0) * math.sqrt(dim)


def loss_deviation_bound(p_min: float, class_size: int, confidence: float,
                         steps: int) -> float:
    """Uniform deviation ceiling for floor-bounded sampling probabilities.

    sqrt(2)/p_min * sqrt((ln|H| + ln(2/delta)) / T); with probability at
    least 1 - delta no hypothesis's weighted loss estimate deviates more.
    """
    if not p_min > 0:
        raise ValueError("p_min must be positive")
    if not p_min <= 1.0:
        raise ValueError(f"p_min must be at most 1, got {p_min}")
    if class_size < 1:
        raise ValueError("class size must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return (math.sqrt(2.0) / p_min) * math.sqrt(
        (math.log(class_size) + math.log(2.0 / confidence)) / steps
    )


def expected_query_bound(theta: float, slope_asymmetry: float, best_loss: float,
                         steps: int, class_size: int,
                         confidence: float) -> tuple[float, float]:
    """Expected-query ceiling split into its linear and sublinear terms.

    Returns (4 theta K L* T, 4 theta K sqrt(T ln(|H| T / delta))). The
    sublinear term's unspecified constant is reported as 1, which callers
    must treat as a convention rather than a guarantee.
    """
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    if math.isinf(slope_asymmetry):
        raise ValueError("query bound is vacuous for infinite slope asymmetry")
    if not slope_asymmetry >= 1.0:
        raise ValueError(f"slope asymmetry must be at least 1, got {slope_asymmetry}")
    if not 0.0 <= best_loss <= 1.0:
        raise ValueError(f"best loss must lie in [0, 1], got {best_loss}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    front = 4.0 * theta * slope_asymmetry
    linear = front * best_loss * steps
    sublinear = front * math.sqrt(steps * math.log(class_size * steps / confidence))
    return linear, sublinear
