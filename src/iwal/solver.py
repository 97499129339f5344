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
Vandenberghe, Convex Optimization, ch. 5). In r = s^2, psi = phi + delta,
delta = -phi(0), rises linearly from 0 and levels off as u(s) nears the ball
optimum, so it is modelled as a r / (1 + k r), the rational model of More &
Sorensen's secular equation. The first step is Newton's in r from r = 0; each
later one is Newton's in t = 1/r on 1/psi - 1/delta, which that model makes
linear in t, so the step is exact on it. d phi / dr comes from the KKT
system, and a bracket that is bisected geometrically safeguards each step.
The inner solve of a Newton step is inexact (Dembo, Eisenstat & Steihaug,
SIAM J. Numer. Anal. 19, 1982): it stops at a gap of a tenth of the last
|phi|, never below the tight gap s * gap_target / 2, and its point is kept
once it has moved and its gap eps is at most a tenth of its own |phi|; else,
and for every bisection step, the solve goes on to the tight gap. A tight
point brackets the root at its r. A loose one, which may lie on the wrong
side of a root close by, places it only within (1 -+ eps/|phi|)^-2 r: the
dual x . u + mu (L(u) - b), minimized over the ball, is concave in mu = 1/s,
and an eps-optimal u(s) gives a line above it, off by at most eps/s at mu,
whose slope is phi. Weak duality makes every s a certificate, whatever the
inner gap: x . u(s) + (phi(s) - eps) / s is a lower bound D on the optimum.
The primal bound P is x . u at u(s) when it meets the cap, and else at its
blend with u(0) that the cap's convexity makes feasible. The search stops
when P - D meets the gap target.
The cap keeps its last point's derivatives and Hessian eigendecomposition,
which the next step and the path rate both read (on the ball the rate shifts
the eigenvalues by 2 lam), so each point is evaluated and factored once. It
also keeps u(0) and its facts, so the two ends of a prediction interval,
which minimize over one cap from one start, solve and factor the anchor once.
d is small, so per-call overhead would dominate NumPy operations on d-vectors:
the model's secular iteration and the path rate run on d Python floats in the
Hessian's eigenbasis.
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
_INEXACT = 0.1             # a loose tilted solve's gap as a share of |phi|
_GAP_TARGET = 1e-6         # certified suboptimality at which a solve stops
_NEWTON_TOL = 1e-10        # stop after the step at decrement^2/2 below this
_MAX_NEWTON = 200          # per trust-region solve and per level-set search
_ARMIJO = 0.25             # sufficient-decrease share of the Newton slope
_BACKTRACK = 0.5           # step scale per failed Armijo test


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
    """sum_i w_i * loss(u . x_i, y_i) - bound <= 0, losses normalized.

    It keeps the last point's margins, value and, once asked for, read-only
    gradient, Hessian and Hessian eigendecomposition; the same for its
    minimizer over the ball once `anchor` has solved it."""

    def __init__(self, loss: LossFunction, xs, ys, ws, bound: float):
        self.loss = loss
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.ws = np.asarray(ws, dtype=float)
        self.bound = float(bound)
        self._key, self._known = None, {}    # u's bytes, and what is known at u
        self._anchor, self._anchor_at = None, (None, None)   # see anchor()

    def _at(self, u):
        key = u.tobytes()
        if key != self._key:
            if key == self._anchor_at[0]:
                self._key, self._known = self._anchor_at
            else:
                z = self.xs @ u
                f = float(self.ws @ self.loss.smooth_value_many(z, self.ys)) - self.bound
                self._key, self._known = key, {"margins": z, "value": f}
        return self._known

    def anchor(self, norm_bound, start):
        """(the cap's trust-region minimizer over the ball from `start`, the
        Newton steps this call took). It is solved once per start and ball,
        so a repeat call takes 0 steps, and what is known at its point is
        kept beside the last point's."""
        key = (start.tobytes(), norm_bound)
        if self._anchor is None or self._anchor[0] != key:
            result = _trust_region(self, norm_bound, start, _GAP_TARGET)[0]
            self._anchor = key, result
            self._anchor_at = result.point.tobytes(), self._at(result.point)
            return result, result.diagnostics.newton_steps
        return self._anchor[1], 0

    def value(self, u):
        return self._at(u)["value"]

    def derivatives(self, u):
        """(gradient, Hessian) at u."""
        known = self._at(u)
        if "hess" not in known:
            dz, curv = self.loss.smooth_derivatives_many(known["margins"], self.ys)
            known["grad"] = grad = self.xs.T @ (self.ws * dz)
            known["hess"] = hess = (self.xs * (self.ws * curv)[:, None]).T @ self.xs
            grad.flags.writeable = hess.flags.writeable = False
        return known["grad"], known["hess"]

    def eigh(self, u):
        """(eigenvalues in ascending order, eigenvectors) of the Hessian at u."""
        known = self._at(u)
        if "eigh" not in known:
            known["eigh"] = evals, evecs = np.linalg.eigh(self.derivatives(u)[1])
            evals.flags.writeable = evecs.flags.writeable = False
        return known["eigh"]


def _shrink_into_ball(u, norm_bound):
    """Scale u to lie strictly inside the ball, preserving direction."""
    u = np.asarray(u, dtype=float)
    sq = float(u @ u)
    limit = norm_bound * _INSIDE
    if sq >= limit:
        u = u * math.sqrt(limit / sq)
    return u


def _ball_model_minimizer(c, evals, evecs, norm_bound):
    """argmin of c . v + v^T H v / 2 over ||v||^2 <= norm_bound, H = evecs diag(evals)
    evecs^T PSD: the Newton point if inside, else v = -(H + mu I)^{-1} c with mu
    from 1/||v|| = 1/sqrt(norm_bound) by Newton's method, rising monotonically from
    a lower bound (More & Sorensen 1983). In the eigenbasis, where a = evecs^T c,
    each round is a sum over d scalars; d is small, so it runs on Python floats.
    Flat directions without gradient are dropped (hard case): v is 0 along them."""
    a = (c @ evecs).tolist()
    evals = [e if e > 0.0 else 0.0 for e in evals.tolist()]
    if not evals[0] > _FLAT * evals[-1]:    # they ascend: else none is flat
        flat, tiny = _FLAT * evals[-1], _FLAT * math.sqrt(sum(ai * ai for ai in a))
        evals = [e if e > flat or abs(ai) > tiny else math.inf for ai, e in zip(a, evals)]
    mu = 0.0
    if not min(evals) > 0.0 or sum([(ai / e) * (ai / e) for ai, e in zip(a, evals)]) > norm_bound:
        radius = math.sqrt(norm_bound)
        mu = max(0.0, *[abs(ai) / radius - e for ai, e in zip(a, evals)])
        for _ in range(60):   # quadratic convergence; the cap guards rounding
            sq = slope = 0.0
            for ai, e in zip(a, evals):
                vi = ai / (e + mu)
                sq, slope = sq + vi * vi, slope + vi * (vi / (e + mu))
            step = sq * (math.sqrt(sq) / radius - 1.0) / slope
            if not step > 1e-12 * mu:   # converged, or past the root by rounding
                break
            mu += step
    return evecs.dot([-ai / (e + mu) for ai, e in zip(a, evals)])


def _trust_region(objective, norm_bound, u, gap_target, tilt=None):
    """Trust-region Newton on objective(v) + tilt . v over the ball, from u
    strictly inside it; returns the result and the gradient of the tilted
    objective at its point."""
    diag = SolverDiagnostics(outer_stages=1)

    def tilted(v):
        return objective.value(v) if tilt is None else objective.value(v) + float(tilt @ v)

    centered, value = False, None      # value: tilted(u), once known
    for _ in range(_MAX_NEWTON):
        if value is None:
            value = tilted(u)
        grad, hess = objective.derivatives(u)
        if tilt is not None:
            grad = grad + tilt
        g, x = grad.tolist(), u.tolist()
        gu = uu = kk = 0.0
        for gi, xi in zip(g, x):
            gu, uu = gu + gi * xi, uu + xi * xi
        lam = max(0.0, -gu / (2.0 * norm_bound))
        for gi, xi in zip(g, x):
            kk += (gi + 2.0 * lam * xi) ** 2
        diag.final_gap = lam * (norm_bound - uu) + 2.0 * math.sqrt(norm_bound) * math.sqrt(kk)
        if diag.final_gap <= gap_target or centered:
            break
        # the model at u in the next point v: (grad - hess u) . v + v^T hess v / 2
        step = _shrink_into_ball(_ball_model_minimizer(grad - hess @ u, *objective.eigh(u),
                                                       norm_bound), norm_bound) - u
        slope = float(grad @ step)     # -(Newton decrement^2)
        centered = -slope / 2.0 <= _NEWTON_TOL
        scale, trial, trial_value = 1.0, u + step, None
        while -slope > 1e-6:
            trial_value = tilted(trial)
            if not trial_value > value + _ARMIJO * scale * slope:
                break
            scale *= _BACKTRACK
            if scale < 1e-14:
                return SolverResult(u, value, diag), grad
            trial = u + scale * step
        u, value = trial, trial_value
        diag.newton_steps += 1
    else:
        raise SolverConvergenceError("trust-region Newton did not converge within "
                                     "the iteration cap", iterate=u, diagnostics=diag)
    return SolverResult(point=u, value=value, diagnostics=diag), grad


def minimize_weighted_loss(loss, xs, ys, ws, norm_bound, start=None) -> SolverResult:
    """Minimize the importance-weighted normalized loss over the norm ball.

    Trust-region Newton from `start` (the origin when None); every iterate is
    strictly inside the ball, and each lowers the loss up to rounding. Steps
    at a Newton decrement^2 <= 1e-6 skip the Armijo test, which float rounding
    of the loss can defeat there; the one at decrement^2 / 2 <= `_NEWTON_TOL`
    is the last, whatever the certificate (`final_gap`) then reads.

    The objective is evaluated on unclamped inner products, which is the
    convex program actually solved; clamping applies only when predictions
    are fed back through the normalized loss.
    """
    xs = np.asarray(xs, dtype=float)
    dim = xs.shape[1]
    if xs.shape[0] == 0:
        return SolverResult(np.zeros(dim), 0.0, SolverDiagnostics(used_shortcut=True))
    objective = WeightedLossCap(loss, xs, ys, ws, 0.0)   # bound 0: value() is the sum
    u = np.zeros(dim) if start is None else _shrink_into_ball(start, norm_bound)
    return _trust_region(objective, norm_bound, u, _GAP_TARGET)[0]


def _path_rate(direction, u, grad, evals, evecs, norm_bound):
    """d phi / d(s^2) on the tilted path at u from its KKT system, H = evecs
    diag(evals) evecs^T the loss's Hessian at u. Inside the ball u' = -s H^+ x,
    so phi' = grad L . u' = s x^T H^+ x; on its boundary u' is confined to
    u . u' = 0 and H gains the ball's 2 lam I, which shifts its eigenvalues.
    The pseudo-inverse drops flat directions, where the path has no rate. As d
    is small, the rate is summed over d Python floats in the eigenbasis."""
    on_ball = float(u @ u) >= norm_bound * _ON_BALL
    evals = evals.tolist()
    if on_ball:
        shift = max(0.0, -float(grad @ u) / norm_bound)
        evals = [e + shift for e in evals]
    if not evals[-1] > 0.0:
        return 0.0
    flat = _FLAT * evals[-1]
    inverse = [1.0 / e if e > flat else 0.0 for e in evals]
    a = (direction @ evecs).tolist()
    c = (u @ evecs).tolist() if on_ball else [0.0] * len(a)
    rate = ca = cc = 0.0
    for ai, ci, w in zip(a, c, inverse):
        rate, ca, cc = rate + ai * (w * ai), ca + ci * (w * ai), cc + ci * (w * ci)
    if cc > 0.0:
        try:
            rate -= ca ** 2 / cc
        except OverflowError:    # ca ** 2 past the float range: no usable rate, so bisect
            return -math.inf
    return 0.5 * rate


def minimize_linear(direction, norm_bound, loss_cap: WeightedLossCap | None = None,
                    start=None) -> SolverResult:
    """Minimize x . u over the ball, x = `direction`, plus an optional loss cap.

    Without an active cap the ball optimum -sqrt(norm_bound) * x/||x|| is
    analytic. Otherwise the cap's minimizer u0 over the ball, warm from
    `start`, anchors the tilted path u(s) = argmin L(u) + s x . u, and a
    safeguarded Newton search walks it to the root of phi(s) = cap(u(s)):
    from r = s^2 = 0 in r, then in t = 1/r on 1/(phi + delta) - 1/delta,
    delta = -phi(0). The inner solves of Newton steps stop at a tenth of the
    last |phi| (see the module docstring). Every s gives the dual bound
    x . u(s) + (phi - eps)/s below the optimum, eps the inner solve's gap;
    the returned point is the best feasible one met, u(s) or its blend with
    u0 toward the cap, pulled slightly further toward u0 so the cap holds
    strictly. `value` minus `final_gap` is the best dual bound, so
    [value - final_gap, value] holds the exact optimum. `outer_stages` counts
    level-set iterations and `newton_steps` all trust-region steps. The cap
    solves u0 once per start and ball, so over the two ends of an interval
    the anchor's steps count once, in the end that solved it.
    """
    direction = np.asarray(direction, dtype=float)
    dim = len(direction)
    norm = math.sqrt(float(direction @ direction))
    if norm == 0.0:
        diag = SolverDiagnostics(used_shortcut=True, final_gap=0.0)
        return SolverResult(np.zeros(dim), 0.0, diag)
    ball_opt = -math.sqrt(norm_bound) * direction / norm
    if loss_cap is None or loss_cap.value(ball_opt) <= 0.0:
        diag = SolverDiagnostics(used_shortcut=True, final_gap=0.0)
        return SolverResult(ball_opt, float(direction @ ball_opt), diag)
    u = np.zeros(dim) if start is None else _shrink_into_ball(start, norm_bound)
    anchor, anchor_steps = loss_cap.anchor(norm_bound, u)
    u0, delta = anchor.point, -anchor.value
    if not delta > 0.0:
        raise InfeasibleStartError("the loss cap lies below its minimum over the ball")
    diag = SolverDiagnostics(newton_steps=anchor_steps)
    anchor_value = float(direction @ u0)
    best = (anchor_value, 1.0, u0)       # (primal bound, weight on u0, u(s))
    lower = -math.inf
    lo, hi = 0.0, math.inf               # r = s^2 bracketing the root
    r, phi, margin, last_phi, u = 0.0, -delta, 0.0, math.inf, u0
    grad = loss_cap.derivatives(u0)[0]
    rate = _path_rate(direction, u0, grad, *loss_cap.eigh(u0), norm_bound)
    for _ in range(_MAX_NEWTON):
        # the point at r places the root within (1 -+ margin)^-2 r; a tight
        # one has margin 0
        if phi < 0.0:
            lo = max(lo, r / (1.0 + margin) ** 2)
        elif margin < 1.0:
            hi = min(hi, r / (1.0 - margin) ** 2)
        step = math.nan
        if rate > 0.0 and r == 0.0:
            step = -phi / rate      # Newton in r from the anchor
        elif rate > 0.0 and phi + delta > 0.0:
            # Newton in t = 1/r on 1/psi - 1/delta, psi = phi + delta
            turn = 1.0 + phi * (phi + delta) / (delta * rate * r)
            if turn > 0.0:
                step = r / turn
        newton = lo < step < hi and abs(phi) <= 0.5 * last_phi
        if not newton:
            if math.isinf(hi):
                step = 16.0 * r if r > 0.0 else (delta / (norm * math.sqrt(norm_bound))) ** 2
            else:
                step = math.sqrt(lo * hi) if lo > 0.0 else 0.25 * hi
        stalled, r, last_phi, s = step == r, step, abs(phi), math.sqrt(step)
        tight = 0.5 * s * _GAP_TARGET
        result, grad = _trust_region(loss_cap, norm_bound, u,
                                     max(tight, _INEXACT * last_phi) if newton else tight,
                                     s * direction)
        steps, phi, eps = (result.diagnostics.newton_steps, loss_cap.value(result.point),
                           result.diagnostics.final_gap)
        if eps > tight and not (steps > 0 and eps <= _INEXACT * abs(phi)):
            # an unmoved loose point tells nothing new, and one near the root
            # brackets it loosely: solve on to the tight gap
            result, grad = _trust_region(loss_cap, norm_bound, result.point, tight,
                                         s * direction)
            steps, phi, eps = (steps + result.diagnostics.newton_steps,
                               loss_cap.value(result.point), result.diagnostics.final_gap)
        if eps <= tight:
            margin = 0.0
        else:
            margin = eps / abs(phi) if phi else math.inf
        if stalled and np.array_equal(result.point, u):
            break    # the bracket shut on inexact inner solves: rounds would repeat
        diag.outer_stages += 1
        diag.newton_steps += steps
        u = result.point
        value = float(direction @ u)
        lower = max(lower, value + (phi - eps) / s)
        # the cap is convex, so this blend with u0 meets it
        weight = 1.0 - delta / (max(phi, 0.0) + delta) * _INSIDE
        upper = weight * anchor_value + (1.0 - weight) * value
        if upper < best[0]:
            best = (upper, weight, u)
        if best[0] - lower <= _GAP_TARGET:
            break
        rate = _path_rate(direction, u, grad, *loss_cap.eigh(u), norm_bound)
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
