"""Solvers for the two per-step convex programs over the norm ball.

Program 1 minimizes an importance-weighted smooth convex loss over the ball
{u : ||u||^2 <= B} by trust-region Newton (More & Sorensen 1983; Nocedal &
Wright, Numerical Optimization, ch. 4): each iterate minimizes the loss's
quadratic model over the ball exactly, from one eigendecomposition of the
d x d Hessian, and backtracks toward that point. It stops when the KKT
certificate lam (B - ||u||^2) + 2 sqrt(B) ||grad + 2 lam u||, which bounds the
suboptimality of u for any lam >= 0, meets the gap target at
lam = max(0, -grad . u / 2B).

Program 2 minimizes u . x over the ball and at most one weighted loss cap by
damped-Newton centering on t*f0 + barrier, t growing by mu per stage until
m/t meets the gap target. Each constraint returns its value, gradient and
barrier Hessian g g^T / f^2 + H / (-f) together from `barrier_terms`; the cap
keeps the margins and value the line search last computed, where the next
iterate starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleStartError, SolverConvergenceError
from .losses import LossFunction

_STRICT_MARGIN = 1e-12
_INSIDE = 1.0 - 1e-12      # ||u||^2 / B that keeps ERM iterates strictly inside
_FLAT = 1e-12              # relative curvature or gradient taken as zero


@dataclass(frozen=True)
class SolverOptions:
    gap_target: float = 1e-6
    mu: float = 10.0
    barrier_init: float = 1.0
    newton_tol: float = 1e-10      # stop centering when decrement^2/2 falls below
    max_newton: int = 200          # per centering stage
    armijo: float = 0.25
    backtrack: float = 0.5


DEFAULT_OPTIONS = SolverOptions()


@dataclass
class SolverDiagnostics:
    outer_stages: int = 0
    newton_steps: int = 0
    final_gap: float = math.inf
    used_shortcut: bool = False
    stage_values: list = field(default_factory=list)


@dataclass
class SolverResult:
    point: np.ndarray
    value: float
    diagnostics: SolverDiagnostics


class BallConstraint:
    """||u||^2 - norm_bound <= 0."""

    def __init__(self, norm_bound: float):
        self.norm_bound = float(norm_bound)

    def value(self, u):
        return float(u @ u) - self.norm_bound

    def barrier_terms(self, u):
        """(f, grad f, Hessian of -log(-f)) at u; the Hessian of f is 2I."""
        f = self.value(u)
        g = 2.0 * u
        hess = np.outer(g, g) / (f * f)
        hess.flat[::len(u) + 1] += 2.0 / (-f)
        return f, g, hess


class WeightedLossCap:
    """sum_i w_i * loss(u . x_i, y_i) - bound <= 0, losses normalized."""

    def __init__(self, loss: LossFunction, xs, ys, ws, bound: float):
        self.loss = loss
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.ws = np.asarray(ws, dtype=float)
        self.bound = float(bound)
        self._last = (None, None, None)    # (u bytes, margins, value)

    def _margins_and_value(self, u):
        # the line search evaluates the cap at the point the next Newton
        # iterate starts from, so keep the last evaluation
        key = u.tobytes()
        if key != self._last[0]:
            z = self.xs @ u
            f = float(self.ws @ self.loss.smooth_value_many(z, self.ys)) - self.bound
            self._last = (key, z, f)
        return self._last[1], self._last[2]

    def _derivatives(self, z):
        dz, curv = self.loss.smooth_derivatives_many(z, self.ys)
        grad = self.xs.T @ (self.ws * dz)
        hess = (self.xs * (self.ws * curv)[:, None]).T @ self.xs
        return grad, hess

    def value(self, u):
        return self._margins_and_value(u)[1]

    def derivatives(self, u):
        """(gradient, Hessian) at u, on the margins `value` last computed."""
        return self._derivatives(self._margins_and_value(u)[0])

    def barrier_terms(self, u):
        """(f, grad f, Hessian of -log(-f)) at u from one margin pass."""
        z, f = self._margins_and_value(u)
        g, hess = self._derivatives(z)
        return f, g, np.outer(g, g) / (f * f) + hess / (-f)


class LinearObjective:
    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)

    def value(self, u):
        return float(self.direction @ u)


def _strictly_feasible(u, constraints, margin=_STRICT_MARGIN) -> bool:
    return all(c.value(u) < -margin for c in constraints)


def _center(objective, constraints, u, t_barrier, options, diag):
    """Damped Newton on t*f0 - sum log(-f_i), from a strictly feasible u;
    f0 is a `LinearObjective`."""

    def barrier_value(v):
        total = t_barrier * objective.value(v)
        for c in constraints:
            fv = c.value(v)
            if fv >= 0:
                return math.inf
            total -= math.log(-fv)
        return total

    t_direction = t_barrier * objective.direction
    current = None  # barrier value at u, carried across iterations
    for _ in range(options.max_newton):
        grad, hess = t_direction, None
        for c in constraints:
            fv, g, h = c.barrier_terms(u)
            grad = grad + g / (-fv)
            hess = h if hess is None else hess + h
        descent = -grad
        try:
            step = np.linalg.solve(hess, descent)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, descent, rcond=None)[0]
        decrement_sq = float(descent @ step)
        if decrement_sq < 0:
            # rounding noise at the precision floor of an extremely
            # ill-conditioned barrier Hessian; the iterate is centered
            return u
        if decrement_sq / 2.0 <= options.newton_tol:
            return u
        if decrement_sq <= 1e-6:
            # quadratic phase: the undamped step is guaranteed to decrease the
            # barrier, and its improvement can sit below the float resolution
            # of the barrier value, so skip the Armijo test
            scale = 1.0
            while not _strictly_feasible(u + scale * step, constraints, 0.0):
                scale *= options.backtrack
                if scale < 1e-14:
                    return u
            candidate = u + scale * step
            current = None
        else:
            if current is None:
                current = barrier_value(u)
            slope = float(grad @ step)
            scale = 1.0
            while True:
                candidate = u + scale * step
                trial = barrier_value(candidate)
                if trial <= current + options.armijo * scale * slope:
                    current = trial
                    break
                scale *= options.backtrack
                if scale < 1e-14:
                    # step direction exhausted by rounding; treat as centered
                    return u
        u = candidate
        diag.newton_steps += 1
    raise SolverConvergenceError(
        "Newton centering did not converge within the iteration cap",
        iterate=u, diagnostics=diag,
    )


def _barrier_minimize(objective, constraints, start, options) -> SolverResult:
    if not _strictly_feasible(start, constraints):
        raise InfeasibleStartError("starting point is not strictly feasible")
    diag = SolverDiagnostics()
    u = np.asarray(start, dtype=float).copy()
    t_barrier = options.barrier_init
    m = len(constraints)
    while True:
        u = _center(objective, constraints, u, t_barrier, options, diag)
        diag.outer_stages += 1
        diag.stage_values.append(objective.value(u))
        diag.final_gap = m / t_barrier
        if diag.final_gap <= options.gap_target:
            break
        t_barrier *= options.mu
    return SolverResult(point=u, value=objective.value(u), diagnostics=diag)


def _shrink_into_ball(u, norm_bound, factor=1.0 - 1e-9):
    """Scale u to lie strictly inside the ball, preserving direction."""
    u = np.asarray(u, dtype=float)
    sq = float(u @ u)
    limit = norm_bound * factor
    if sq >= limit:
        u = u * math.sqrt(limit / sq)
    return u


def _interior_start(candidate, norm_bound, constraints):
    """Pull a candidate inside the ball, as deep as the other constraints allow.

    Starts hugging the ball boundary make the barrier nearly singular and
    stall the damped Newton phase, so prefer the strongest shrink that stays
    strictly feasible.
    """
    for factor in (0.96, 0.999, 1.0 - 1e-6, 1.0 - 1e-9):
        u0 = _shrink_into_ball(candidate, norm_bound, factor)
        if _strictly_feasible(u0, constraints):
            return u0
    return None


def _ball_model_minimizer(c, hess, norm_bound):
    """argmin of c . v + v^T hess v / 2 over ||v||^2 <= norm_bound, hess PSD:
    the Newton point if inside, else v = -(hess + mu I)^{-1} c with mu from
    1/||v|| = 1/sqrt(norm_bound) by Newton's method, rising monotonically from
    a lower bound. Flat directions without gradient are dropped (hard case)."""
    evals, evecs = np.linalg.eigh(hess)
    evals = np.maximum(evals, 0.0)
    a = evecs.T @ c
    keep = (evals > _FLAT * evals[-1]) | (np.abs(a) > _FLAT * np.linalg.norm(a))
    evals, a, evecs = evals[keep], a[keep], evecs[:, keep]
    mu = 0.0
    if not np.all(evals > 0.0) or float((a / evals) @ (a / evals)) > norm_bound:
        radius = math.sqrt(norm_bound)
        mu = max(0.0, float(np.max(np.abs(a) / radius - evals)))
        for _ in range(60):   # quadratic convergence; the cap guards rounding
            shifted = evals + mu
            v = a / shifted
            sq = float(v @ v)
            step = sq * (math.sqrt(sq) / radius - 1.0) / float(v @ (v / shifted))
            if not step > 1e-12 * mu:   # converged, or past the root by rounding
                break
            mu += step
    return -(evecs @ (a / (evals + mu)))


def minimize_weighted_loss(loss, xs, ys, ws, norm_bound,
                           start=None, options=None) -> SolverResult:
    """Minimize the importance-weighted normalized loss over the norm ball.

    Trust-region Newton from `start` (the origin when None); every iterate,
    whose loss `stage_values` records, is strictly inside the ball. Steps at
    a Newton decrement^2 <= 1e-6 skip the Armijo test, which float rounding
    of the loss can defeat there; the one at decrement^2 / 2 <= `newton_tol`
    is the last, whatever the certificate (`final_gap`) then reads.

    The objective is evaluated on unclamped inner products, which is the
    convex program actually solved; clamping applies only when predictions
    are fed back through the normalized loss.
    """
    options = options or DEFAULT_OPTIONS
    xs = np.asarray(xs, dtype=float)
    dim = xs.shape[1]
    if xs.shape[0] == 0:
        return SolverResult(np.zeros(dim), 0.0, SolverDiagnostics(used_shortcut=True))
    objective = WeightedLossCap(loss, xs, ys, ws, 0.0)   # bound 0: value() is the sum
    u = np.zeros(dim) if start is None else _shrink_into_ball(start, norm_bound, _INSIDE)
    diag = SolverDiagnostics(outer_stages=1)
    centered = False
    for _ in range(options.max_newton):
        value = objective.value(u)
        diag.stage_values.append(value)
        grad, hess = objective.derivatives(u)
        lam = max(0.0, -float(grad @ u) / (2.0 * norm_bound))
        diag.final_gap = (lam * (norm_bound - float(u @ u)) + 2.0 * math.sqrt(norm_bound)
                          * float(np.linalg.norm(grad + 2.0 * lam * u)))
        if diag.final_gap <= options.gap_target or centered:
            break
        # the model at u in the next point v: (grad - hess u) . v + v^T hess v / 2
        step = _shrink_into_ball(_ball_model_minimizer(grad - hess @ u, hess, norm_bound),
                                 norm_bound, _INSIDE) - u
        slope = float(grad @ step)     # -(Newton decrement^2)
        centered = -slope / 2.0 <= options.newton_tol
        scale = 1.0
        while -slope > 1e-6 and (objective.value(u + scale * step)
                                 > value + options.armijo * scale * slope):
            scale *= options.backtrack
            if scale < 1e-14:
                return SolverResult(u, value, diag)
        u = u + scale * step
        diag.newton_steps += 1
    else:
        raise SolverConvergenceError("trust-region Newton did not converge within "
                                     "the iteration cap", iterate=u, diagnostics=diag)
    return SolverResult(point=u, value=value, diagnostics=diag)


def minimize_linear(direction, norm_bound, loss_cap: WeightedLossCap | None = None,
                    start_candidates=(), options=None) -> SolverResult:
    """Minimize u . direction over the ball, plus an optional loss cap.

    Without an active cap the ball optimum -sqrt(norm_bound) * x/||x|| is
    analytic; the barrier only runs when that point violates the cap.
    """
    options = options or DEFAULT_OPTIONS
    direction = np.asarray(direction, dtype=float)
    dim = len(direction)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return SolverResult(np.zeros(dim), 0.0, SolverDiagnostics(used_shortcut=True))
    ball_opt = -math.sqrt(norm_bound) * direction / norm
    if loss_cap is None or loss_cap.value(ball_opt) <= 0.0:
        diag = SolverDiagnostics(used_shortcut=True, final_gap=0.0)
        return SolverResult(ball_opt, float(direction @ ball_opt), diag)
    objective = LinearObjective(direction)
    constraints = [BallConstraint(norm_bound), loss_cap]
    candidates = list(start_candidates) + [np.zeros(dim)]
    for candidate in candidates:
        u0 = _interior_start(candidate, norm_bound, constraints)
        if u0 is not None:
            return _barrier_minimize(objective, constraints, u0, options)
    # phase I: the cap minimizer over the ball is strictly feasible unless the
    # cap bound is genuinely unattainable
    phase1 = minimize_weighted_loss(loss_cap.loss, loss_cap.xs, loss_cap.ys,
                                    loss_cap.ws, norm_bound, options=options)
    u0 = _interior_start(phase1.point, norm_bound, constraints)
    if u0 is not None:
        return _barrier_minimize(objective, constraints, u0, options)
    raise InfeasibleStartError(
        "no strictly feasible start for the capped linear program"
    )
