"""Solvers for the two per-step convex programs over the norm ball.

Program 1 minimizes an importance-weighted smooth convex loss over the ball
{u : ||u||^2 <= B} by trust-region Newton (More & Sorensen 1983; Nocedal &
Wright, Numerical Optimization, ch. 4): each iterate minimizes the loss's
quadratic model over the ball exactly, from one eigendecomposition of the
d x d Hessian, and backtracks toward that point. It stops when the KKT
certificate lam (B - ||u||^2) + 2 sqrt(B) ||grad + 2 lam u||, which bounds the
suboptimality of u for any lam >= 0, meets the gap target at
lam = max(0, -grad . u / 2B).

Program 2 minimizes x . u over the ball and one weighted loss cap
L(u) - b <= 0. Unless the analytic ball optimum meets the cap, it runs the same
trust-region loop along the tilted path u(s) = argmin over the ball of
L(u) + s x . u, each point warm from the last. The cap's own minimizer u(0)
anchors the path, and phi(s) = L(u(s)) - b rises with s to a root s* at which
u(s*) is optimal, 1/s* being the cap's Lagrange multiplier (Boyd &
Vandenberghe, Convex Optimization, ch. 5). phi is quadratic in s near 0, so
the root is found by Newton's method in r = s^2, with d phi / dr from the KKT
system, safeguarded by a bracket that is bisected geometrically. Weak duality
makes every s a certificate: x . u(s) + (phi(s) - eps) / s is a lower bound D
on the optimum, eps the inner solve's KKT gap. The primal bound P is x . u at
u(s) when it meets the cap, and else at its blend with u(0) that the cap's
convexity makes feasible. The search stops when P - D meets the gap target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStartError, SolverConvergenceError
from .losses import LossFunction

_INSIDE = 1.0 - 1e-12      # ||u||^2 / B that keeps iterates strictly inside
_ON_BALL = 1.0 - 1e-9      # ||u||^2 / B from which the path runs on the ball
_FLAT = 1e-12              # relative curvature or gradient taken as zero


@dataclass(frozen=True)
class SolverOptions:
    gap_target: float = 1e-6
    newton_tol: float = 1e-10      # stop after the step at decrement^2/2 below this
    max_newton: int = 200          # per trust-region solve and per level-set search
    armijo: float = 0.25
    backtrack: float = 0.5


DEFAULT_OPTIONS = SolverOptions()


@dataclass
class SolverDiagnostics:
    outer_stages: int = 0
    newton_steps: int = 0
    final_gap: float = math.inf
    used_shortcut: bool = False


@dataclass
class SolverResult:
    point: np.ndarray
    value: float
    diagnostics: SolverDiagnostics


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


def _shrink_into_ball(u, norm_bound):
    """Scale u to lie strictly inside the ball, preserving direction."""
    u = np.asarray(u, dtype=float)
    sq = float(u @ u)
    limit = norm_bound * _INSIDE
    if sq >= limit:
        u = u * math.sqrt(limit / sq)
    return u


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


def _trust_region(objective, norm_bound, u, gap_target, options, tilt=None):
    """Trust-region Newton on objective(v) + tilt . v over the ball, from u
    strictly inside it; returns the result and the gradient and Hessian of
    the tilted objective at its point."""
    diag = SolverDiagnostics(outer_stages=1)
    centered = False
    for _ in range(options.max_newton):
        value = objective.value(u)
        grad, hess = objective.derivatives(u)
        if tilt is not None:
            value += float(tilt @ u)
            grad = grad + tilt
        lam = max(0.0, -float(grad @ u) / (2.0 * norm_bound))
        diag.final_gap = (lam * (norm_bound - float(u @ u)) + 2.0 * math.sqrt(norm_bound)
                          * float(np.linalg.norm(grad + 2.0 * lam * u)))
        if diag.final_gap <= gap_target or centered:
            break
        # the model at u in the next point v: (grad - hess u) . v + v^T hess v / 2
        step = _shrink_into_ball(_ball_model_minimizer(grad - hess @ u, hess, norm_bound),
                                 norm_bound) - u
        slope = float(grad @ step)     # -(Newton decrement^2)
        centered = -slope / 2.0 <= options.newton_tol
        scale = 1.0
        while -slope > 1e-6:
            trial = u + scale * step
            trial_value = objective.value(trial)
            if tilt is not None:
                trial_value += float(tilt @ trial)
            if not trial_value > value + options.armijo * scale * slope:
                break
            scale *= options.backtrack
            if scale < 1e-14:
                return SolverResult(u, value, diag), grad, hess
        u = u + scale * step
        diag.newton_steps += 1
    else:
        raise SolverConvergenceError("trust-region Newton did not converge within "
                                     "the iteration cap", iterate=u, diagnostics=diag)
    return SolverResult(point=u, value=value, diagnostics=diag), grad, hess


def minimize_weighted_loss(loss, xs, ys, ws, norm_bound,
                           start=None, options=None) -> SolverResult:
    """Minimize the importance-weighted normalized loss over the norm ball.

    Trust-region Newton from `start` (the origin when None); every iterate is
    strictly inside the ball, and each lowers the loss up to rounding. Steps
    at a Newton decrement^2 <= 1e-6 skip the Armijo test, which float rounding
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
    u = np.zeros(dim) if start is None else _shrink_into_ball(start, norm_bound)
    return _trust_region(objective, norm_bound, u, options.gap_target, options)[0]


def _path_rate(direction, u, grad, hess, norm_bound):
    """d phi / d(s^2) on the tilted path at u, from its KKT system.

    Inside the ball u' = -s H^+ x, so phi' = grad L . u' = s x^T H^+ x; on its
    boundary u' is confined to u . u' = 0 and H gains the ball's 2 lam I. The
    pseudo-inverse drops flat directions, where the path has no rate."""
    on_ball = float(u @ u) >= norm_bound * _ON_BALL
    if on_ball:
        hess = hess + max(0.0, -float(grad @ u) / norm_bound) * np.eye(len(u))
    evals, evecs = np.linalg.eigh(hess)
    if not evals[-1] > 0.0:
        return 0.0
    inverse = np.divide(1.0, evals, out=np.zeros_like(evals), where=evals > _FLAT * evals[-1])
    a = evecs.T @ direction
    rate = float(a @ (inverse * a))
    if on_ball:
        c = evecs.T @ u
        cc = float(c @ (inverse * c))
        if cc > 0.0:
            rate -= float(c @ (inverse * a)) ** 2 / cc
    return 0.5 * rate


def minimize_linear(direction, norm_bound, loss_cap: WeightedLossCap | None = None,
                    start=None, options=None) -> SolverResult:
    """Minimize x . u over the ball, x = `direction`, plus an optional loss cap.

    Without an active cap the ball optimum -sqrt(norm_bound) * x/||x|| is
    analytic. Otherwise the cap's minimizer u0 over the ball, warm from
    `start`, anchors the tilted path u(s) = argmin L(u) + s x . u, and a
    safeguarded Newton search in r = s^2 walks it to the root of
    phi(s) = cap(u(s)). Every s gives the dual bound x . u(s) + (phi - eps)/s
    below the optimum, eps the inner solve's gap; the returned point is the
    best feasible one met, u(s) or its blend with u0 toward the cap, pulled
    slightly further toward u0 so the cap holds strictly. `value` minus
    `final_gap` is the best dual bound, so [value - final_gap, value] holds
    the exact optimum. `outer_stages` counts level-set iterations and
    `newton_steps` all trust-region steps, the anchor's included.
    """
    options = options or DEFAULT_OPTIONS
    direction = np.asarray(direction, dtype=float)
    dim = len(direction)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        diag = SolverDiagnostics(used_shortcut=True, final_gap=0.0)
        return SolverResult(np.zeros(dim), 0.0, diag)
    ball_opt = -math.sqrt(norm_bound) * direction / norm
    if loss_cap is None or loss_cap.value(ball_opt) <= 0.0:
        diag = SolverDiagnostics(used_shortcut=True, final_gap=0.0)
        return SolverResult(ball_opt, float(direction @ ball_opt), diag)
    u = np.zeros(dim) if start is None else _shrink_into_ball(start, norm_bound)
    anchor, grad, hess = _trust_region(loss_cap, norm_bound, u, options.gap_target, options)
    u0, delta = anchor.point, -anchor.value
    if not delta > 0.0:
        raise InfeasibleStartError("the loss cap lies below its minimum over the ball")
    diag = SolverDiagnostics(newton_steps=anchor.diagnostics.newton_steps)
    anchor_value = float(direction @ u0)
    best = (anchor_value, 1.0, u0)       # (primal bound, weight on u0, u(s))
    lower = -math.inf
    lo, hi = 0.0, math.inf               # r = s^2 with phi(lo) < 0 <= phi(hi)
    r, phi, last_phi, u = 0.0, -delta, math.inf, u0
    rate = _path_rate(direction, u0, grad, hess, norm_bound)
    for _ in range(options.max_newton):
        if phi < 0.0:
            lo = r
        else:
            hi = r
        step = r - phi / rate if rate > 0.0 else math.nan
        if not lo < step < hi or abs(phi) > 0.5 * last_phi:
            if math.isinf(hi):
                step = 16.0 * r if r > 0.0 else (delta / (norm * math.sqrt(norm_bound))) ** 2
            else:
                step = math.sqrt(lo * hi) if lo > 0.0 else 0.25 * hi
        r, last_phi, s = step, abs(phi), math.sqrt(step)
        result, grad, hess = _trust_region(loss_cap, norm_bound, u, 0.5 * s * options.gap_target,
                                           options, s * direction)
        diag.outer_stages += 1
        diag.newton_steps += result.diagnostics.newton_steps
        u = result.point
        phi = loss_cap.value(u)
        value = float(direction @ u)
        lower = max(lower, value + (phi - result.diagnostics.final_gap) / s)
        # the cap is convex, so this blend with u0 meets it
        weight = 1.0 - delta / (max(phi, 0.0) + delta) * _INSIDE
        upper = weight * anchor_value + (1.0 - weight) * value
        if upper < best[0]:
            best = (upper, weight, u)
        if best[0] - lower <= options.gap_target:
            break
        rate = _path_rate(direction, u, grad, hess, norm_bound)
    else:
        raise SolverConvergenceError("the tilted path search did not converge within "
                                     "the iteration cap", iterate=u, diagnostics=diag)
    _, weight, u = best
    point, pull = weight * u0 + (1.0 - weight) * u, 1e-12
    while not loss_cap.value(point) < 0.0:    # rounding at the cap: pull harder
        pull = min(1.0, 64.0 * pull)
        weight = 1.0 - (1.0 - weight) * (1.0 - pull)
        point = weight * u0 + (1.0 - weight) * u
    value = float(direction @ point)
    diag.final_gap = max(0.0, value - lower)
    return SolverResult(point=point, value=value, diagnostics=diag)
