import contextlib
import itertools
import math
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal import solver
from iwal.engine import Engine
from iwal.errors import InfeasibleStartError, SolverConvergenceError
from iwal.harness import run_experiment
from iwal.losses import LossFunction
from iwal.solver import (SolverDiagnostics, SolverResult,
                         WeightedLossCap, minimize_linear, minimize_weighted_loss)
from iwal.thresholds import LossWeightingLinear

from conftest import linear_stream_config


def random_program(rng, n=10, dim=2, kind="logistic"):
    loss = LossFunction(kind, 1.0)
    xs = rng.uniform(-1.0, 1.0, size=(n, dim))
    ys = rng.choice([-1.0, 1.0], size=n)
    ws = rng.uniform(1.0, 5.0, size=n)
    return loss, xs, ys, ws


class TestLinearProgram:
    def test_analytic_ball_solution(self):
        result = minimize_linear(np.array([3.0, 4.0]), 1.0)
        assert result.point == pytest.approx(np.array([-0.6, -0.8]))
        assert result.value == pytest.approx(-5.0)
        assert result.diagnostics.used_shortcut

    def test_zero_direction(self):
        result = minimize_linear(np.zeros(3), 2.0)
        assert result.value == 0.0

    def test_inactive_cap_short_circuits(self, rng):
        loss, xs, ys, ws = random_program(rng)
        cap = WeightedLossCap(loss, xs, ys, ws, bound=1e9)
        result = minimize_linear(np.array([1.0, 2.0]), 1.0, cap)
        assert result.diagnostics.used_shortcut
        assert result.value == pytest.approx(-math.sqrt(5.0))

    def test_active_cap_matches_polar_grid(self, rng):
        loss = LossFunction("logistic", 1.0)
        for _ in range(10):
            n = 8
            xs = rng.uniform(-1.0, 1.0, size=(n, 2))
            ys = rng.choice([-1.0, 1.0], size=n)
            ws = rng.uniform(0.2, 1.0, size=n)
            direction = rng.normal(size=2)

            radii = np.linspace(0.0, 1.0, 260)
            angles = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
            R, A = np.meshgrid(radii, angles, indexing="ij")
            U = np.stack([(R * np.cos(A)).ravel(), (R * np.sin(A)).ravel()], axis=1)
            cap_values = (loss.smooth_value_many(U @ xs.T, ys) * ws).sum(axis=1)
            # pick a bound that keeps a nontrivial feasible region
            bound = float(np.quantile(cap_values, 0.3))
            feasible = U[cap_values <= bound]
            grid_best = float((feasible @ direction).min())

            cap = WeightedLossCap(loss, xs, ys, ws, bound=bound)
            result = minimize_linear(direction, 1.0, cap)
            assert result.value == pytest.approx(grid_best, abs=5e-3)
            # solver must not be worse than any feasible grid point
            assert result.value <= grid_best + 1e-6

    def test_infeasible_start_raises(self, rng):
        loss, xs, ys, ws = random_program(rng)
        # bound below the attainable minimum leaves no strictly feasible point
        cap = WeightedLossCap(loss, xs, ys, ws, bound=-1.0)
        with pytest.raises(InfeasibleStartError):
            minimize_linear(np.array([1.0, 0.0]), 1.0, cap)


class TestWeightedLossProgram:
    def test_single_logistic_example_pushes_to_boundary(self):
        loss = LossFunction("logistic", 1.0)
        result = minimize_weighted_loss(
            loss, np.array([[1.0]]), np.array([1.0]), np.array([1.0]), 1.0)
        assert result.point[0] == pytest.approx(1.0, abs=1e-4)

    def test_empty_sample_returns_origin(self):
        loss = LossFunction("logistic", 1.0)
        result = minimize_weighted_loss(
            loss, np.zeros((0, 3)), np.zeros(0), np.zeros(0), 1.0)
        assert np.all(result.point == 0.0)

    def test_feasibility_of_returned_points(self, rng):
        for kind in ("logistic", "squared"):
            for _ in range(10):
                loss, xs, ys, ws = random_program(rng, kind=kind)
                result = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
                assert float(result.point @ result.point) <= 1.0 + 1e-9

    def test_monotone_descent_across_stages(self, rng, monkeypatch):
        # the k-th iterate is the point a solve capped at k steps stops on
        loss, xs, ys, ws = random_program(rng)
        objective = WeightedLossCap(loss, xs, ys, ws, 0.0)
        values = [objective.value(np.zeros(xs.shape[1]))]
        for k in itertools.count(1):
            monkeypatch.setattr(solver, "_MAX_NEWTON", k)
            try:
                result = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
            except SolverConvergenceError as err:
                values.append(objective.value(err.iterate))
            else:
                values.append(result.value)
                break
        assert result.diagnostics.newton_steps == k - 1 >= 2
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_gradient_matches_central_differences(self, rng):
        loss, xs, ys, ws = random_program(rng)
        objective = WeightedLossCap(loss, xs, ys, ws, 0.0)
        for _ in range(20):
            u = rng.uniform(-0.7, 0.7, size=2)
            grad, _ = objective.derivatives(u)
            for j in range(2):
                h = 1e-6
                e = np.zeros(2)
                e[j] = h
                fd = (objective.value(u + e) - objective.value(u - e)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_objective_convexity_certificate(self, rng):
        loss, xs, ys, ws = random_program(rng)
        objective = WeightedLossCap(loss, xs, ys, ws, 0.0)
        for _ in range(200):
            u, v = rng.uniform(-0.7, 0.7, size=(2, 2))
            lam = rng.uniform(0.0, 1.0)
            mix = objective.value(lam * u + (1 - lam) * v)
            assert mix <= lam * objective.value(u) + (1 - lam) * objective.value(v) + 1e-9

    def test_warm_start_agrees_with_cold_start(self, rng):
        loss, xs, ys, ws = random_program(rng)
        cold = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
        warm = minimize_weighted_loss(loss, xs, ys, ws, 1.0,
                                      start=np.array([0.9, -0.3]))
        assert warm.value == pytest.approx(cold.value, abs=1e-5)

    def test_tight_gap_option(self, rng, monkeypatch):
        loss, xs, ys, ws = random_program(rng)
        loose = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
        monkeypatch.setattr(solver, "_GAP_TARGET", 1e-8)
        tight = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
        assert tight.value <= loose.value + 1e-7
        assert tight.diagnostics.final_gap <= 1e-8


def test_cap_constraint_satisfied_at_solution(rng):
    loss = LossFunction("logistic", 1.0)
    xs = rng.uniform(-1.0, 1.0, size=(6, 2))
    ys = rng.choice([-1.0, 1.0], size=6)
    ws = rng.uniform(0.5, 1.0, size=6)
    base = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
    cap = WeightedLossCap(loss, xs, ys, ws, bound=base.value + 0.05)
    for direction in (np.array([1.0, 1.0]), np.array([-2.0, 0.5])):
        result = minimize_linear(direction, 1.0, cap, start=base.point)
        assert cap.value(result.point) <= 1e-9
        assert float(result.point @ result.point) <= 1.0 + 1e-9


# Frozen copy of the log-barrier method that solved both programs before the
# trust-region ERM and the tilted path replaced it, with its per-constraint
# Newton step: value, grad and hess called separately on the objective and on
# each constraint. It is the reference the new solvers are bracketed against:
# its points are strictly feasible and its values within m/t of the optimum.
def _frozen_smooth_grad_many(loss, z, y):
    if loss.kind == "logistic":
        m = y * z
        out = np.empty_like(m)
        pos = m >= 0
        e = np.exp(-np.abs(m))
        out[pos] = e[pos] / (1.0 + e[pos])
        out[~pos] = 1.0 / (1.0 + e[~pos])
        return -y * out / loss.normalizer
    return 2.0 * (z - y) / loss.normalizer


def _frozen_smooth_curv_many(loss, z, y):
    if loss.kind == "logistic":
        m = y * z
        e = np.exp(-np.abs(m))
        s = e / (1.0 + e) ** 2
        return s / loss.normalizer
    return np.full_like(np.asarray(z, dtype=float), 2.0 / loss.normalizer)


class _FrozenBall:
    def __init__(self, norm_bound):
        self.norm_bound = float(norm_bound)

    def value(self, u):
        return float(u @ u) - self.norm_bound

    def grad(self, u):
        return 2.0 * u

    def hess(self, u):
        return 2.0 * np.eye(len(u))


class _FrozenCap:
    def __init__(self, cap):
        self.loss, self.xs, self.ys, self.ws = cap.loss, cap.xs, cap.ys, cap.ws
        self.bound = cap.bound
        self._z_key = None
        self._z = None

    def _margins(self, u):
        key = u.tobytes()
        if key != self._z_key:
            self._z = self.xs @ u
            self._z_key = key
        return self._z

    def value(self, u):
        z = self._margins(u)
        return float(self.ws @ self.loss.smooth_value_many(z, self.ys)) - self.bound

    def grad(self, u):
        z = self._margins(u)
        return self.xs.T @ (self.ws * _frozen_smooth_grad_many(self.loss, z, self.ys))

    def hess(self, u):
        z = self._margins(u)
        curv = self.ws * _frozen_smooth_curv_many(self.loss, z, self.ys)
        return (self.xs * curv[:, None]).T @ self.xs


class _FrozenLinear:
    def __init__(self, direction):
        self.direction = direction

    def value(self, u):
        return float(self.direction @ u)

    def grad(self, u):
        return self.direction

    def hess(self, u):
        return np.zeros((len(u), len(u)))


# the settings the frozen solvers below ran with
_FROZEN_OPTIONS = types.SimpleNamespace(gap_target=1e-6, newton_tol=1e-10, max_newton=200,
                                        armijo=0.25, backtrack=0.5)


def _strictly_feasible(u, constraints, margin=1e-12):
    return all(c.value(u) < -margin for c in constraints)


def _frozen_center(objective, constraints, u, t_barrier, options, diag):
    """Damped Newton on t*f0 - sum log(-f_i) from a strictly feasible u."""

    def barrier_value(v):
        total = t_barrier * objective.value(v)
        for c in constraints:
            fv = c.value(v)
            if fv >= 0:
                return math.inf
            total -= math.log(-fv)
        return total

    current = None
    for _ in range(options.max_newton):
        grad = t_barrier * objective.grad(u)
        hess = t_barrier * objective.hess(u)
        for c in constraints:
            fv = c.value(u)
            g = c.grad(u)
            grad += g / (-fv)
            hess += np.outer(g, g) / (fv * fv) + c.hess(u) / (-fv)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement_sq = float(-grad @ step)
        if decrement_sq < 0 or decrement_sq / 2.0 <= options.newton_tol:
            return u
        if decrement_sq <= 1e-6:
            # quadratic phase: the undamped step, kept strictly feasible
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
                    return u
        u = candidate
        diag.newton_steps += 1
    raise SolverConvergenceError(
        "Newton centering did not converge within the iteration cap",
        iterate=u, diagnostics=diag,
    )


def _frozen_barrier_minimize(objective, constraints, start, options, mu=10.0):
    """Center at t = 1, 10, 100, ... until m/t meets the gap target."""
    if not _strictly_feasible(start, constraints):
        raise InfeasibleStartError("starting point is not strictly feasible")
    diag = SolverDiagnostics()
    u = np.asarray(start, dtype=float).copy()
    t_barrier = 1.0
    while True:
        u = _frozen_center(objective, constraints, u, t_barrier, options, diag)
        diag.outer_stages += 1
        diag.final_gap = len(constraints) / t_barrier
        if diag.final_gap <= options.gap_target:
            break
        t_barrier *= mu
    return SolverResult(point=u, value=objective.value(u), diagnostics=diag)


def _frozen_shrink(u, norm_bound, factor=1.0 - 1e-9):
    u = np.asarray(u, dtype=float)
    sq = float(u @ u)
    limit = norm_bound * factor
    return u * math.sqrt(limit / sq) if sq >= limit else u


def _frozen_minimize_linear(direction, norm_bound, loss_cap=None, start=None):
    """The barrier interval solver: the analytic shortcut, then the barrier
    from the start or else the origin, each pulled into the ball as deep as
    the cap allows, and else from the cap minimizer (phase I)."""
    direction = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0 or loss_cap is None or loss_cap.value(
            -math.sqrt(norm_bound) * direction / norm) <= 0.0:
        return minimize_linear(direction, norm_bound, loss_cap)
    objective = _FrozenLinear(direction)
    constraints = [_FrozenBall(norm_bound), _FrozenCap(loss_cap)]
    for candidate in ([] if start is None else [start]) + [np.zeros(len(direction)), None]:
        if candidate is None:    # phase I: the cap minimizer
            candidate = minimize_weighted_loss(loss_cap.loss, loss_cap.xs, loss_cap.ys,
                                               loss_cap.ws, norm_bound).point
        for factor in (0.96, 0.999, 1.0 - 1e-6, 1.0 - 1e-9):
            u0 = _frozen_shrink(candidate, norm_bound, factor)
            if _strictly_feasible(u0, constraints):
                return _frozen_barrier_minimize(objective, constraints, u0, _FROZEN_OPTIONS)
    raise InfeasibleStartError("no strictly feasible start for the capped linear program")


def _frozen_erm(loss, xs, ys, ws, norm_bound, start=None):
    """The barrier ERM that the trust-region solver replaced: its start rule,
    then the barrier over the ball alone."""
    if len(xs) == 0:
        return minimize_weighted_loss(loss, xs, ys, ws, norm_bound)
    constraints = [_FrozenBall(norm_bound)]
    u0 = np.zeros(xs.shape[1])
    if start is not None:
        u0 = _frozen_shrink(start, norm_bound)
        if not _strictly_feasible(u0, constraints):
            u0 = np.zeros(xs.shape[1])
    objective = _FrozenCap(WeightedLossCap(loss, xs, ys, ws, 0.0))
    return _frozen_barrier_minimize(objective, constraints, u0, _FROZEN_OPTIONS)


@contextlib.contextmanager
def _frozen_barrier_erm():
    """Every ERM solved by `_frozen_erm`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "minimize_weighted_loss", _frozen_erm)
        yield


def _assert_certified(result, direction, norm_bound, cap, start=None):
    """A capped solve ends strictly inside the ball and the cap with its gap
    met, and [value - final_gap, value] holds the exact optimum, which the
    barrier's feasible value bounds from above and that value less its gap
    m/t from below."""
    assert not result.diagnostics.used_shortcut
    assert float(result.point @ result.point) < norm_bound
    assert cap.value(result.point) < 0
    assert 0.0 <= result.diagnostics.final_gap <= solver._GAP_TARGET
    try:
        frozen = _frozen_minimize_linear(direction, norm_bound, cap, start)
    except SolverConvergenceError:
        # the barrier stalls on some caps near the rounding floor of the
        # loss; the certified lower end must still lie below every feasible
        # point sampled
        points = [*_ball_points(np.random.default_rng(0), 400, len(direction), norm_bound),
                  result.point]
        lowest = min(float(direction @ v) for v in points if cap.value(v) <= 0)
        assert result.value - result.diagnostics.final_gap <= lowest + 1e-9
        return
    assert result.value - result.diagnostics.final_gap <= frozen.value + 1e-9
    assert result.value >= frozen.value - frozen.diagnostics.final_gap - 1e-9


def _differential_program(kind, n, seed, dim=5):
    rng = np.random.default_rng(seed)
    loss = LossFunction(kind, 1.0)
    xs = rng.uniform(-1.0, 1.0, size=(n, dim))
    ys = rng.choice([-1.0, 1.0], size=n)
    ws = rng.uniform(1.0, 5.0, size=n)
    return rng, loss, xs, ys, ws


def _active_cap(loss, xs, ys, ws, slack, norm_bound=1.0):
    """A cap `slack` above the weighted minimum, and a direction it binds.

    Minimizing u . sum_i w_i y_i x_i lowers every margin, so the ball
    optimum of that direction raises the loss above the cap."""
    base = minimize_weighted_loss(loss, xs, ys, ws, norm_bound)
    cap = WeightedLossCap(loss, xs, ys, ws, bound=base.value + slack)
    return base, cap, (ws * ys) @ xs


class TestAgainstFrozenNewtonStep:
    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    def test_loss_derivatives(self, kind, rng):
        loss = LossFunction(kind, 1.0)
        # margins of both signs, signed zeros and the far tails of exp
        z = np.concatenate([rng.normal(scale=3.0, size=500), [0.0, -0.0, 40.0, -800.0]])
        y = rng.choice([-1.0, 1.0], size=len(z))
        grad, curv = loss.smooth_derivatives_many(z, y)
        assert grad.tobytes() == _frozen_smooth_grad_many(loss, z, y).tobytes()
        assert curv.tobytes() == _frozen_smooth_curv_many(loss, z, y).tobytes()

    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    @pytest.mark.parametrize("n", (1, 10, 300))
    @pytest.mark.parametrize("warm", (False, True))
    def test_weighted_loss_program(self, kind, n, warm):
        # the trust-region ERM is no barrier solve, so it is held to the
        # barrier's value instead of its bits: never above it, and below it
        # by at most the barrier's gap m/t
        rng, loss, xs, ys, ws = _differential_program(kind, n, seed=n)
        start = rng.normal(size=xs.shape[1]) if warm else None
        new = minimize_weighted_loss(loss, xs, ys, ws, 1.0, start=start)
        with _frozen_barrier_erm():
            frozen = solver.minimize_weighted_loss(loss, xs, ys, ws, 1.0, start=start)
        assert float(new.point @ new.point) < 1.0
        assert new.value <= frozen.value + 1e-9
        assert frozen.value - new.value <= frozen.diagnostics.final_gap
        assert new.diagnostics.final_gap <= solver._GAP_TARGET

    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    @pytest.mark.parametrize("n", (1, 10, 300))
    @pytest.mark.parametrize("warm", (False, True))
    def test_capped_linear_program(self, kind, n, warm):
        _, loss, xs, ys, ws = _differential_program(kind, n, seed=n)
        base, cap, direction = _active_cap(loss, xs, ys, ws, slack=0.5)
        start = base.point if warm else None
        result = minimize_linear(direction, 1.0, cap, start)
        _assert_certified(result, direction, 1.0, cap, start)

    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    def test_phase_one_fallback(self, kind):
        # a cap too tight for the origin and no start: the barrier needs its
        # phase I, the tilted path anchors at the cap minimizer from the origin
        _, loss, xs, ys, ws = _differential_program(kind, 10, seed=3)
        _, cap, direction = _active_cap(loss, xs, ys, ws, slack=1e-3)
        assert cap.value(np.zeros(xs.shape[1])) > 0
        result = minimize_linear(direction, 1.0, cap)
        _assert_certified(result, direction, 1.0, cap)


# Optimality within the reported gap: the barrier method stops at m/t, which
# bounds how far the returned value can sit above any feasible point.
@st.composite
def _programs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("logistic", "squared")))
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    norm_bound = draw(st.floats(0.25, 4.0))
    _, loss, xs, ys, ws = _differential_program(kind, n, seed, dim)
    return np.random.default_rng(seed + 1), loss, xs, ys, ws, norm_bound


def _ball_points(rng, count, dim, norm_bound):
    """Uniform directions at radii spread over [0, sqrt(norm_bound)]."""
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (math.sqrt(norm_bound) * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim))[:, None]


class TestOptimalityWithinGap:
    @settings(max_examples=40, deadline=None)
    @given(_programs())
    def test_weighted_loss_beats_every_ball_point(self, program):
        rng, loss, xs, ys, ws, norm_bound = program
        result = minimize_weighted_loss(loss, xs, ys, ws, norm_bound)
        assert float(result.point @ result.point) < norm_bound
        points = _ball_points(rng, 200, xs.shape[1], norm_bound)
        objective = WeightedLossCap(loss, xs, ys, ws, 0.0)
        best = min(objective.value(v) for v in points)
        assert result.value <= best + result.diagnostics.final_gap + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(_programs(), st.floats(0.05, 2.0))
    def test_capped_linear_beats_every_feasible_point(self, program, slack):
        rng, loss, xs, ys, ws, norm_bound = program
        base = minimize_weighted_loss(loss, xs, ys, ws, norm_bound)
        cap = WeightedLossCap(loss, xs, ys, ws, bound=base.value + slack)
        direction = rng.normal(size=xs.shape[1])
        result = minimize_linear(direction, norm_bound, cap, base.point)
        if not result.diagnostics.used_shortcut:
            assert float(result.point @ result.point) < norm_bound
            assert cap.value(result.point) < 0
        # the cap minimizer is feasible, so the comparison is never empty
        points = [*_ball_points(rng, 400, xs.shape[1], norm_bound), base.point]
        feasible = [v for v in points if cap.value(v) <= 0]
        assert feasible
        for v in feasible:
            assert result.value <= float(direction @ v) + result.diagnostics.final_gap + 1e-9


# Programs the barrier ERM handled badly or that hit the trust-region step's
# special cases. Every one must give a strictly interior point whose value
# is within the certified gap of every sampled ball point and no higher than
# the barrier's from the origin.
@st.composite
def _hard_programs(draw, case):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = "squared" if case == "interior-squared" else draw(
        st.sampled_from(("logistic", "squared")))
    n = {"one-row": 1, "few-rows": draw(st.integers(1, 4))}.get(case) or draw(st.integers(2, 40))
    dim = 5 if case in ("one-row", "few-rows") else draw(st.integers(1, 5))
    norm_bound = draw(st.floats(0.25, 4.0))
    # unstandardized features, ||x|| up to 7
    xs = rng.uniform(-1.0, 1.0, size=(n, dim)) * draw(st.floats(1.0, 7.0)) / math.sqrt(dim)
    if case == "zero-features":
        xs[:] = 0.0
    if case == "constant-column":
        xs[:, draw(st.integers(0, dim - 1))] = draw(st.sampled_from((0.0, 1.0, -2.5)))
    ys = rng.choice([-1.0, 1.0], size=n)
    ws = rng.uniform(0.1, 20.0, size=n)
    if case == "interior-squared":
        # the weighted least-squares point, with the ball drawn around it
        root_w = np.sqrt(ws)
        u_ls = np.linalg.lstsq(xs * root_w[:, None], ys * root_w, rcond=None)[0]
        norm_bound = float(u_ls @ u_ls) * draw(st.floats(1.1, 4.0)) + 1e-3
    start = None
    if case == "warm-outside" or draw(st.booleans()):
        start = rng.normal(size=dim)
        reach = draw(st.sampled_from((1.0, 1.0 + 1e-9, 1.5, 3.0)))
        start *= reach * math.sqrt(norm_bound) / np.linalg.norm(start)
    return rng, LossFunction(kind, 1.0), xs, ys, ws, norm_bound, start


class TestTrustRegionRobustness:
    @pytest.mark.parametrize("case", ("warm-outside", "one-row",
                                      "interior-squared", "zero-features"))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_interior_point_within_certified_gap(self, case, data):
        rng, loss, xs, ys, ws, norm_bound, start = data.draw(_hard_programs(case))
        result = minimize_weighted_loss(loss, xs, ys, ws, norm_bound, start=start)
        assert float(result.point @ result.point) < norm_bound
        points = _ball_points(rng, 200, xs.shape[1], norm_bound)
        best = float((loss.smooth_value_many(points @ xs.T, ys) @ ws).min())
        assert result.value <= best + result.diagnostics.final_gap + 1e-9
        with _frozen_barrier_erm():
            frozen = solver.minimize_weighted_loss(loss, xs, ys, ws, norm_bound)
        assert result.value <= frozen.value + 1e-9
        if case == "zero-features":
            assert result.value == WeightedLossCap(loss, xs, ys, ws, 0.0).value(
                np.zeros(xs.shape[1]))


# The capped programs on the same hard kinds, and a cap 1e-3 above the
# minimum, which the barrier reached only through its phase I. Each solve must
# end strictly inside the ball and the cap, certified to the gap target and
# inside the barrier's bracket.
class TestCappedLinearRobustness:
    @pytest.mark.parametrize("case", ("constant-column", "few-rows", "one-row",
                                      "tight-cap", "warm-outside"))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_certified_inside_barrier_bracket(self, case, data):
        rng, loss, xs, ys, ws, norm_bound, start = data.draw(_hard_programs(case))
        slack = 1e-3 if case == "tight-cap" else data.draw(st.floats(0.01, 1.0))
        _, cap, direction = _active_cap(loss, xs, ys, ws, slack, norm_bound)
        if data.draw(st.booleans()):
            direction = rng.normal(size=xs.shape[1])
        result = minimize_linear(direction, norm_bound, cap, start)
        if not result.diagnostics.used_shortcut:
            _assert_certified(result, direction, norm_bound, cap, start)

    def test_steep_path_with_interior_optimum(self):
        # d = 2, 12 rows: the cap minimizer lies on the ball; the tilted path
        # leaves the ball, meets the cap strictly inside at s* ~ 0.156, and
        # only then runs back to the ball optimum
        rng = np.random.default_rng(598)
        loss = LossFunction("logistic", 1.0)
        xs = rng.uniform(-1.0, 1.0, size=(12, 2)) * rng.uniform(1.0, 7.0) / math.sqrt(2)
        ys = rng.choice([-1.0, 1.0], size=12)
        ws = rng.uniform(0.01, 0.3, size=12)
        norm_bound = rng.uniform(0.25, 4.0)
        base, cap, _ = _active_cap(loss, xs, ys, ws, 0.05, norm_bound)
        direction = rng.normal(size=2)
        result = minimize_linear(direction, norm_bound, cap, base.point)
        assert float(base.point @ base.point) > norm_bound * (1.0 - 1e-9)
        assert float(result.point @ result.point) < 0.5 * norm_bound
        # inside the ball, s* direction = -grad cap at the optimum
        grad, _ = cap.derivatives(result.point)
        assert np.linalg.norm(grad) / np.linalg.norm(direction) == pytest.approx(0.156, abs=1e-3)
        _assert_certified(result, direction, norm_bound, cap, base.point)


# Declared tolerance on p. The trust-region ERM lands within the barrier's gap
# m/t = 1e-6 of the barrier ERM, so the survivor cap and the prediction
# interval move by solver-gap amounts. The interval ends are the tilted path's
# dual bounds, which hold the exact interval, which holds the barrier's
# feasible values; `interval_spread` is monotone under inclusion, so p can only
# rise, by at most the certified gap of 1e-6 times the spread's slope. Any
# p > 0 keeps the 1/p estimate unbiased, so such a move costs variance, never
# correctness; the coins and the query count must not change.
P_TOLERANCE = 1e-6


@pytest.mark.parametrize("kind", ("logistic", "squared"))
@pytest.mark.parametrize("seed", (1, 2))
def test_linear_stream_p_within_declared_tolerance_of_barrier_erm(kind, seed):
    config = linear_stream_config(kind, seed)
    new = run_experiment(config)
    with _frozen_barrier_erm():
        frozen = run_experiment(config)
    assert new.active.trace.q == frozen.active.trace.q
    assert new.active.queries == frozen.active.queries
    gaps = [abs(a - b) for a, b in zip(new.active.trace.p, frozen.active.trace.p)]
    assert len(gaps) == 150 and max(gaps) <= P_TOLERANCE
    assert abs(new.active.final_loss - frozen.active.final_loss) <= 1e-6
    assert abs(new.passive.final_loss - frozen.passive.final_loss) <= 1e-6


def _barrier_interval_read_unwidened(*args, **kwargs):
    """The barrier's interval solve with its gap zeroed: the threshold took
    the barrier's values as the interval ends."""
    result = _frozen_minimize_linear(*args, **kwargs)
    result.diagnostics.final_gap = 0.0
    return result


@pytest.mark.parametrize(("kind", "seed"), (("logistic", 1), ("squared", 2)))
def test_linear_stream_p_rounds_up_from_barrier_interval(kind, seed):
    config = linear_stream_config(kind, seed)
    new = run_experiment(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "minimize_linear", _barrier_interval_read_unwidened)
        frozen = run_experiment(config)
    assert new.active.trace.q == frozen.active.trace.q
    assert new.active.queries == frozen.active.queries
    rises = [b - a for a, b in zip(frozen.active.trace.p, new.active.trace.p)]
    assert len(rises) == 150
    assert min(rises) >= -1e-12 and max(rises) <= P_TOLERANCE


# A frozen copy of the path search as it ran before the saturating root model
# and the inexact inner solves: Newton's method in r = s^2, every tilted solve
# to 0.5 s gap_target, and each end solving its own anchor. Both searches stop
# at the same certified gap, so the interval ends agree to the gap target and
# p to P_TOLERANCE: the coins and the query count must not change, and the
# final losses move by rounding-sized amounts.
def _frozen_r_newton_minimize_linear(direction, norm_bound, loss_cap=None, start=None):
    options = _FROZEN_OPTIONS
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
    u = np.zeros(dim) if start is None else solver._shrink_into_ball(start, norm_bound)
    anchor, grad = solver._trust_region(loss_cap, norm_bound, u, options.gap_target)
    u0, delta = anchor.point, -anchor.value
    if not delta > 0.0:
        raise InfeasibleStartError("the loss cap lies below its minimum over the ball")
    diag = SolverDiagnostics(newton_steps=anchor.diagnostics.newton_steps)
    anchor_value = float(direction @ u0)
    best = (anchor_value, 1.0, u0)
    lower = -math.inf
    lo, hi = 0.0, math.inf
    r, phi, last_phi, u = 0.0, -delta, math.inf, u0
    rate = solver._path_rate(direction, u0, grad, *loss_cap.eigh(u0), norm_bound)
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
        stalled, r, last_phi, s = step == r, step, abs(phi), math.sqrt(step)
        result, grad = solver._trust_region(loss_cap, norm_bound, u,
                                            0.5 * s * options.gap_target, s * direction)
        if stalled and np.array_equal(result.point, u):
            break
        diag.outer_stages += 1
        diag.newton_steps += result.diagnostics.newton_steps
        u = result.point
        phi = loss_cap.value(u)
        value = float(direction @ u)
        lower = max(lower, value + (phi - result.diagnostics.final_gap) / s)
        weight = 1.0 - delta / (max(phi, 0.0) + delta) * solver._INSIDE
        upper = weight * anchor_value + (1.0 - weight) * value
        if upper < best[0]:
            best = (upper, weight, u)
        if best[0] - lower <= options.gap_target:
            break
        rate = solver._path_rate(direction, u, grad, *loss_cap.eigh(u), norm_bound)
    else:
        raise SolverConvergenceError("the tilted path search did not converge within "
                                     "the iteration cap", iterate=u, diagnostics=diag)
    _, weight, u = best
    point, pull = weight * u0 + (1.0 - weight) * u, 1e-12
    while not loss_cap.value(point) < 0.0:
        pull = min(1.0, 64.0 * pull)
        weight = 1.0 - (1.0 - weight) * (1.0 - pull)
        point = weight * u0 + (1.0 - weight) * u
    value = float(direction @ point)
    diag.final_gap = max(0.0, value - lower)
    return SolverResult(point=point, value=value, diagnostics=diag)


@pytest.mark.parametrize("kind", ("logistic", "squared"))
def test_linear_stream_within_declared_tolerance_of_r_newton_search(kind):
    config = linear_stream_config(kind, 1)
    new = run_experiment(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "minimize_linear", _frozen_r_newton_minimize_linear)
        frozen = run_experiment(config)
    assert new.active.trace.q == frozen.active.trace.q
    assert new.active.queries == frozen.active.queries
    gaps = [abs(a - b) for a, b in zip(new.active.trace.p, frozen.active.trace.p)]
    assert len(gaps) == 150 and max(gaps) <= P_TOLERANCE
    assert abs(new.active.final_loss - frozen.active.final_loss) <= 1e-9
    assert abs(new.passive.final_loss - frozen.passive.final_loss) <= 1e-9
    # the point of the change: fewer trust-region steps on the same intervals
    assert (new.active.diagnostics["interval_newton_steps"]
            < frozen.active.diagnostics["interval_newton_steps"])


# One factorization and one derivative pass per point. Each tilted solve
# starts where the last ended and the path rate reads the Hessian there, so a
# capped solve factors each point it steps from or takes the rate at once.
# The two ends of an interval share the cap's anchor, solved and factored
# once and its steps counted in the end that solved it, so the pair too
# factors each point once.
@contextlib.contextmanager
def _counting_work():
    """Counts of `np.linalg.eigh` and `smooth_derivatives_many` calls, and of
    untilted `_trust_region` solves (anchors)."""
    counts = {"eigh": 0, "derivatives": 0, "anchors": 0}
    eigh, derivatives = np.linalg.eigh, LossFunction.smooth_derivatives_many
    trust_region = solver._trust_region

    def counted_eigh(*args, **kwargs):
        counts["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_derivatives(*args, **kwargs):
        counts["derivatives"] += 1
        return derivatives(*args, **kwargs)

    def counted_trust_region(objective, norm_bound, u, gap_target, tilt=None):
        counts["anchors"] += tilt is None
        return trust_region(objective, norm_bound, u, gap_target, tilt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", counted_eigh)
        patch.setattr(LossFunction, "smooth_derivatives_many", counted_derivatives)
        patch.setattr(solver, "_trust_region", counted_trust_region)
        yield counts


def _assert_one_factorization_per_point(direction, norm_bound, cap, start):
    """Both ends, x and -x, over one cap: each point is factored once, the
    first end's alone and the pair's, and the anchor is solved once."""
    with _counting_work() as counts:
        result = minimize_linear(direction, norm_bound, cap, start)
        steps = result.diagnostics.newton_steps
        assert counts["eigh"] <= steps + 1
        assert counts["derivatives"] <= steps + 1
        other = minimize_linear(-direction, norm_bound, cap, start)
    steps += other.diagnostics.newton_steps
    assert counts["eigh"] <= steps + 1
    assert counts["derivatives"] <= steps + 1
    shortcuts = result.diagnostics.used_shortcut + other.diagnostics.used_shortcut
    assert counts["anchors"] == (shortcuts < 2)
    return result


class TestWorkPerPoint:
    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    @pytest.mark.parametrize(("n", "slack"), ((1, 0.5), (10, 0.5), (300, 0.5), (10, 1e-3)))
    @pytest.mark.parametrize("warm", (False, True))
    def test_fixed_programs(self, kind, n, slack, warm):
        _, loss, xs, ys, ws = _differential_program(kind, n, seed=n)
        base, cap, direction = _active_cap(loss, xs, ys, ws, slack)
        result = _assert_one_factorization_per_point(direction, 1.0, cap,
                                                     base.point if warm else None)
        # factoring each path point twice would show on a path of several
        # stages, which the logistic caps take; a squared path may take one
        assert kind == "squared" or result.diagnostics.outer_stages >= 2

    def test_steep_path_with_interior_optimum(self):
        rng = np.random.default_rng(598)
        loss = LossFunction("logistic", 1.0)
        xs = rng.uniform(-1.0, 1.0, size=(12, 2)) * rng.uniform(1.0, 7.0) / math.sqrt(2)
        ys = rng.choice([-1.0, 1.0], size=12)
        ws = rng.uniform(0.01, 0.3, size=12)
        norm_bound = rng.uniform(0.25, 4.0)
        base, cap, _ = _active_cap(loss, xs, ys, ws, 0.05, norm_bound)
        result = _assert_one_factorization_per_point(rng.normal(size=2), norm_bound, cap,
                                                     base.point)
        assert result.diagnostics.outer_stages >= 2

    @settings(max_examples=30, deadline=None)
    @given(_programs(), st.floats(0.05, 2.0), st.booleans())
    def test_random_programs(self, program, slack, warm):
        rng, loss, xs, ys, ws, norm_bound = program
        base, cap, direction = _active_cap(loss, xs, ys, ws, slack, norm_bound)
        if rng.uniform() < 0.5:
            direction = rng.normal(size=xs.shape[1])
        _assert_one_factorization_per_point(direction, norm_bound, cap,
                                            base.point if warm else None)


def test_one_anchor_per_prediction_interval(rng):
    # a 5-d stream whose cap binds: each interval solves the anchor once and
    # factors each point of its two ends once
    loss = LossFunction("logistic", 1.0)
    threshold = LossWeightingLinear(5, 1.0, loss, slack_mode="optimistic")
    engine = Engine(loss, threshold, rng)
    for _ in range(60):
        engine.step(rng.normal(size=5), lambda i, x: 1.0 if x[0] - 0.3 * x[1] > 0 else -1.0)
    threshold.minimizer()       # the ERM is fresh: the intervals run no ERM solve
    threshold.t += 1
    minimize, binding = solver.minimize_linear, 0
    for _ in range(20):
        ends = []
        with _counting_work() as counts, pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "minimize_linear",
                          lambda *args: ends.append(minimize(*args)) or ends[-1])
            threshold.prediction_interval(rng.normal(size=5))
        low, high = (end.diagnostics for end in ends)
        if low.used_shortcut and high.used_shortcut:
            continue
        binding += 1
        steps = low.newton_steps + high.newton_steps
        assert counts["anchors"] == 1
        assert counts["eigh"] <= steps + 1
        assert counts["derivatives"] <= steps + 1
    assert binding >= 5


class TestCapCache:
    def test_derivatives_after_moving_away_and_back_are_fresh(self, rng):
        loss, xs, ys, ws = random_program(rng, n=30, dim=4)
        cap = WeightedLossCap(loss, xs, ys, ws, 0.3)
        u, v = rng.uniform(-0.5, 0.5, size=(2, 4))
        for point in (u, v):
            cap.value(point)
            cap.derivatives(point)
            cap.eigh(point)
        fresh = WeightedLossCap(loss, xs, ys, ws, 0.3)
        assert cap.value(u) == fresh.value(u)
        for kept, new in zip((*cap.derivatives(u), *cap.eigh(u)),
                             (*fresh.derivatives(u), *fresh.eigh(u))):
            assert kept.tobytes() == new.tobytes()

    def test_returned_arrays_are_read_only(self, rng):
        loss, xs, ys, ws = random_program(rng, n=30, dim=4)
        cap = WeightedLossCap(loss, xs, ys, ws, 0.3)
        u = rng.uniform(-0.5, 0.5, size=4)
        for array in (*cap.derivatives(u), *cap.eigh(u)):
            with pytest.raises(ValueError):
                array[...] = 0.0


# Declared tolerance of the path rate. On the ball the rate used to take a
# fresh eigh of H + 2 lam I; it now shifts H's eigenvalues by 2 lam, which
# moves the rate by rounding, so the Newton search in r = s^2 takes
# rounding-sized different steps. The frozen rate below is the reference.
def _frozen_path_rate(direction, u, grad, hess, norm_bound):
    on_ball = float(u @ u) >= norm_bound * solver._ON_BALL
    if on_ball:
        hess = hess + max(0.0, -float(grad @ u) / norm_bound) * np.eye(len(u))
    evals, evecs = np.linalg.eigh(hess)
    if not evals[-1] > 0.0:
        return 0.0
    inverse = np.divide(1.0, evals, out=np.zeros_like(evals),
                        where=evals > solver._FLAT * evals[-1])
    a = evecs.T @ direction
    rate = float(a @ (inverse * a))
    if on_ball:
        c = evecs.T @ u
        cc = float(c @ (inverse * c))
        if cc > 0.0:
            rate -= float(c @ (inverse * a)) ** 2 / cc
    return 0.5 * rate


_MINIMIZE_LINEAR = solver.minimize_linear


def _fresh_rate_minimize_linear(direction, norm_bound, loss_cap=None, start=None):
    """`minimize_linear` with every path rate from the frozen fresh eigh."""
    def fresh_rate(x, u, grad, evals, evecs, bound):
        return _frozen_path_rate(x, u, grad, loss_cap.derivatives(u)[1], bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_path_rate", fresh_rate)
        return _MINIMIZE_LINEAR(direction, norm_bound, loss_cap, start)


@pytest.mark.parametrize(("kind", "seed"), (("logistic", 1), ("squared", 2)))
def test_linear_stream_within_declared_tolerance_of_fresh_rate(kind, seed):
    config = linear_stream_config(kind, seed)
    new = run_experiment(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "minimize_linear", _fresh_rate_minimize_linear)
        frozen = run_experiment(config)
    assert new.active.trace.q == frozen.active.trace.q
    assert new.active.queries == frozen.active.queries
    gaps = [abs(a - b) for a, b in zip(new.active.trace.p, frozen.active.trace.p)]
    assert len(gaps) == 150 and max(gaps) <= 1e-12
    assert abs(new.active.final_loss - frozen.active.final_loss) <= 1e-12
    assert abs(new.passive.final_loss - frozen.passive.final_loss) <= 1e-12


@st.composite
def _rate_points(draw):
    """A PSD Hessian of rank 0 to d, a point on or inside the ball, a gradient
    that presses it outward or inward, and a direction. Pressed outward on
    the ball, 2 lam is at least about 1e-4 ||H||: both rates then lose at
    most about eps ||H|| / 2 lam of their relative accuracy to rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(0, dim))
    factor = rng.normal(size=(rank, dim)) * draw(st.floats(0.01, 100.0))
    hess = factor.T @ factor
    norm_bound = draw(st.floats(0.25, 4.0))
    u = rng.normal(size=dim)
    u *= math.sqrt(norm_bound) * draw(st.sampled_from((1.0, 0.5))) / np.linalg.norm(u)
    press = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-4, 10.0))
    grad = press * max(np.linalg.norm(hess), 1.0) * (rng.normal(size=dim) * 1e-3 - u)
    return rng.normal(size=dim), u, grad, hess, norm_bound


@settings(max_examples=200, deadline=None)
@given(_rate_points())
def test_shifted_rate_matches_fresh_rate(point):
    direction, u, grad, hess, norm_bound = point
    shifted = solver._path_rate(direction, u, grad, *np.linalg.eigh(hess), norm_bound)
    fresh = _frozen_path_rate(direction, u, grad, hess, norm_bound)
    # the rate's scale: its first term, x^T (H + 2 lam I)^+ x / 2, which the
    # on-ball correction can cancel down to rounding
    shift = max(0.0, -float(grad @ u) / norm_bound) if float(u @ u) >= norm_bound * (
        solver._ON_BALL) else 0.0
    scale = _frozen_path_rate(direction, np.zeros_like(u), grad,
                              hess + shift * np.eye(len(u)), norm_bound)
    assert abs(shifted - fresh) <= 1e-9 * max(abs(fresh), scale)


@pytest.mark.parametrize("kind", ("logistic", "squared"))
@pytest.mark.parametrize("n", (1, 10, 300))
@pytest.mark.parametrize("slack", (0.5, 1e-3))
def test_certificate_bounds_the_exact_optimum(kind, n, slack, monkeypatch):
    # [value - final_gap, value] must hold the optimum, which a tight solve
    # with the frozen rate brackets to 1e-9; it gets a cap of its own, as a
    # cap keeps the anchor it solved at the gap target then in force
    _, loss, xs, ys, ws = _differential_program(kind, n, seed=n)
    _, cap, direction = _active_cap(loss, xs, ys, ws, slack)
    result = minimize_linear(direction, 1.0, cap)
    monkeypatch.setattr(solver, "_GAP_TARGET", 1e-9)
    tight = _fresh_rate_minimize_linear(direction, 1.0,
                                        WeightedLossCap(loss, xs, ys, ws, cap.bound))
    assert tight.diagnostics.final_gap <= 1e-9
    assert result.value - result.diagnostics.final_gap <= tight.value
    assert result.value >= tight.value - tight.diagnostics.final_gap


# Frozen copies of the model minimizer and the path rate as they ran on NumPy
# arrays, before both moved to sums over Python floats in the eigenbasis. The
# float sums accumulate in another order, so the two forms may differ by
# rounding: 1e-12 relative on the minimizer, and on a stream the same coins,
# the same work counts and p within 1e-12.
def _frozen_array_ball_model_minimizer(c, evals, evecs, norm_bound):
    evals = np.maximum(evals, 0.0)
    a = evecs.T @ c
    if not evals[0] > solver._FLAT * evals[-1]:
        keep = ((evals > solver._FLAT * evals[-1])
                | (np.abs(a) > solver._FLAT * math.sqrt(float(a @ a))))
        if not keep.all():
            evals, a, evecs = evals[keep], a[keep], evecs[:, keep]
    mu = 0.0
    if not (evals > 0.0).all() or float((a / evals) @ (a / evals)) > norm_bound:
        radius = math.sqrt(norm_bound)
        mu = max(0.0, float((np.abs(a) / radius - evals).max()))
        for _ in range(60):
            shifted = evals + mu
            v = a / shifted
            sq = float(v @ v)
            step = sq * (math.sqrt(sq) / radius - 1.0) / float(v @ (v / shifted))
            if not step > 1e-12 * mu:
                break
            mu += step
    return -(evecs @ (a / (evals + mu)))


def _frozen_array_path_rate(direction, u, grad, evals, evecs, norm_bound):
    on_ball = float(u @ u) >= norm_bound * solver._ON_BALL
    if on_ball:
        evals = evals + max(0.0, -float(grad @ u) / norm_bound)
    if not evals[-1] > 0.0:
        return 0.0
    inverse = np.divide(1.0, evals, out=np.zeros_like(evals),
                        where=evals > solver._FLAT * evals[-1])
    a = evecs.T @ direction
    rate = float(a @ (inverse * a))
    if on_ball:
        c = evecs.T @ u
        cc = float(c @ (inverse * c))
        if cc > 0.0:
            rate -= float(c @ (inverse * a)) ** 2 / cc
    return 0.5 * rate


@st.composite
def _model_programs(draw):
    """A PSD Hessian of rank 0 to d, a gradient from tiny to large and a ball.
    In the hard case the gradient lies in the Hessian's range, so its flat
    directions carry none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(0, dim))
    factor = rng.normal(size=(rank, dim)) * draw(st.floats(0.01, 100.0))
    c = rng.normal(size=dim)
    if draw(st.booleans()):
        c = factor.T @ rng.normal(size=rank)
    if c.any():
        c *= 10.0 ** draw(st.floats(-8.0, 4.0)) / np.linalg.norm(c)
    return c, factor.T @ factor, draw(st.floats(0.25, 4.0))


@settings(max_examples=200, deadline=None)
@given(_model_programs())
def test_ball_model_minimizer_meets_optimality_conditions(program):
    c, hess, norm_bound = program
    evals, evecs = np.linalg.eigh(hess)
    v = solver._ball_model_minimizer(c, evals, evecs, norm_bound)
    vv = float(v @ v)
    assert vv <= norm_bound * (1.0 + 1e-9)
    # KKT of the model over the ball: (H + mu I) v + c = 0, mu >= 0 and
    # mu (B - ||v||^2) = 0, each in the size of the residual's terms; mu is
    # the multiplier that fits v best
    scale = float(np.linalg.norm(c)) + float(np.linalg.norm(hess, 2)) * math.sqrt(vv)
    residual = hess @ v + c
    if vv > 0.0:
        mu = -float(v @ residual) / vv
        residual = residual + mu * v
        assert mu * math.sqrt(vv) >= -1e-9 * scale
        assert mu * math.sqrt(vv) * (norm_bound - vv) <= 1e-9 * scale * norm_bound
    assert float(np.linalg.norm(residual)) <= 1e-9 * scale
    frozen = _frozen_array_ball_model_minimizer(c, evals, evecs, norm_bound)
    assert np.linalg.norm(v - frozen) <= 1e-12 * np.linalg.norm(frozen)


_MINIMIZE_WEIGHTED_LOSS = solver.minimize_weighted_loss


def _run_counting_erm_steps(config):
    """run_experiment, and the Newton steps of its ERM solves summed."""
    steps = [0]

    def counted(*args, **kwargs):
        result = _MINIMIZE_WEIGHTED_LOSS(*args, **kwargs)
        steps[0] += result.diagnostics.newton_steps
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "minimize_weighted_loss", counted)
        return run_experiment(config), steps[0]


@pytest.mark.parametrize(("kind", "seed"), (("logistic", 1), ("squared", 2)))
def test_linear_stream_matches_frozen_array_kernel(kind, seed):
    config = linear_stream_config(kind, seed)
    new, new_erm_steps = _run_counting_erm_steps(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_ball_model_minimizer", _frozen_array_ball_model_minimizer)
        patch.setattr(solver, "_path_rate", _frozen_array_path_rate)
        frozen, frozen_erm_steps = _run_counting_erm_steps(config)
    assert new.active.trace.q == frozen.active.trace.q
    assert new.active.queries == frozen.active.queries
    gaps = [abs(a - b) for a, b in zip(new.active.trace.p, frozen.active.trace.p)]
    assert len(gaps) == 150 and max(gaps) <= 1e-12
    assert abs(new.active.final_loss - frozen.active.final_loss) <= 1e-12
    assert abs(new.passive.final_loss - frozen.passive.final_loss) <= 1e-12
    for count in ("interval_solves", "interval_newton_steps", "interval_outer_steps",
                  "erm_solves"):
        assert new.active.diagnostics[count] == frozen.active.diagnostics[count]
    assert new_erm_steps == frozen_erm_steps > 0
