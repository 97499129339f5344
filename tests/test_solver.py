import contextlib
import functools
import math
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal import solver
from iwal.errors import InfeasibleStartError, SolverConvergenceError
from iwal.harness import ExperimentConfig, run_experiment
from iwal.losses import LossFunction
from iwal.solver import (BallConstraint, SolverOptions, WeightedLossCap,
                         minimize_linear, minimize_weighted_loss)


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

    def test_monotone_descent_across_stages(self, rng):
        loss, xs, ys, ws = random_program(rng)
        result = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
        values = result.diagnostics.stage_values
        assert len(values) == result.diagnostics.newton_steps + 1 >= 3
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

    def test_tight_gap_option(self, rng):
        loss, xs, ys, ws = random_program(rng)
        tight = minimize_weighted_loss(
            loss, xs, ys, ws, 1.0, options=SolverOptions(gap_target=1e-8))
        loose = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
        assert tight.value <= loose.value + 1e-7
        assert tight.diagnostics.final_gap <= 1e-8


def test_ball_constraint_derivatives(rng):
    ball = BallConstraint(2.0)
    u = rng.normal(size=3)
    f, grad, barrier_hess = ball.barrier_terms(u)
    assert ball.value(u) == pytest.approx(float(u @ u) - 2.0)
    assert f == ball.value(u)
    assert grad == pytest.approx(2.0 * u)
    # the Hessian of -log(-f) is grad grad^T / f^2 + hess / (-f)
    hess = (barrier_hess - np.outer(grad, grad) / (f * f)) * -f
    assert np.allclose(hess, 2.0 * np.eye(3))


def test_cap_constraint_satisfied_at_solution(rng):
    loss = LossFunction("logistic", 1.0)
    xs = rng.uniform(-1.0, 1.0, size=(6, 2))
    ys = rng.choice([-1.0, 1.0], size=6)
    ws = rng.uniform(0.5, 1.0, size=6)
    base = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
    cap = WeightedLossCap(loss, xs, ys, ws, bound=base.value + 0.05)
    for direction in (np.array([1.0, 1.0]), np.array([-2.0, 0.5])):
        result = minimize_linear(direction, 1.0, cap,
                                 start_candidates=(base.point,))
        assert cap.value(result.point) <= 1e-9
        assert float(result.point @ result.point) <= 1.0 + 1e-9


# Frozen copy of the per-constraint Newton step the fused one replaced: value,
# grad and hess called separately on the objective and on each constraint.
# Every barrier solve below must agree with it bit for bit. It also still
# takes a weighted-loss objective, so `_barrier_minimize` with it rebuilds
# the barrier ERM that the trust-region solver replaced (`_frozen_erm`).
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


def _frozen(term):
    if isinstance(term, BallConstraint):
        return _FrozenBall(term.norm_bound)
    if isinstance(term, WeightedLossCap):
        return _FrozenCap(term)
    return _FrozenLinear(term.direction)


def _frozen_center(objective, constraints, u, t_barrier, options, diag, branches):
    """The pre-fusion `_center`, counting which exit or step kind it takes."""
    objective = _frozen(objective)
    constraints = [_frozen(c) for c in constraints]

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
        if decrement_sq < 0:
            branches["negative_decrement"] += 1
            return u
        if decrement_sq / 2.0 <= options.newton_tol:
            branches["centered"] += 1
            return u
        if decrement_sq <= 1e-6:
            branches["quadratic"] += 1
            scale = 1.0
            while not solver._strictly_feasible(u + scale * step, constraints, 0.0):
                scale *= options.backtrack
                if scale < 1e-14:
                    return u
            candidate = u + scale * step
            current = None
        else:
            branches["damped"] += 1
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


def _solve_both(monkeypatch, solve):
    """(new result, frozen result, frozen branch counts, phase-I solves)."""
    new = solve()
    branches = Counter()
    phase_one = []
    erm = solver.minimize_weighted_loss
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_center",
                      functools.partial(_frozen_center, branches=branches))
        patch.setattr(solver, "minimize_weighted_loss",
                      lambda *args, **kwargs: phase_one.append(1) or erm(*args, **kwargs))
        frozen = solve()
    return new, frozen, branches, len(phase_one)


def _frozen_erm(loss, xs, ys, ws, norm_bound, start=None, options=None):
    """The barrier ERM that the trust-region solver replaced: its start rule,
    then `_barrier_minimize` with the frozen Newton step."""
    options = options or solver.DEFAULT_OPTIONS
    if len(xs) == 0:
        return minimize_weighted_loss(loss, xs, ys, ws, norm_bound)
    constraints = [BallConstraint(norm_bound)]
    u0 = np.zeros(xs.shape[1])
    if start is not None:
        u0 = solver._shrink_into_ball(start, norm_bound)
        if not solver._strictly_feasible(u0, constraints):
            u0 = np.zeros(xs.shape[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_center",
                      functools.partial(_frozen_center, branches=Counter()))
        return solver._barrier_minimize(WeightedLossCap(loss, xs, ys, ws, 0.0),
                                        constraints, u0, options)


@contextlib.contextmanager
def _frozen_barrier_erm():
    """Every ERM, the phase-I one included, solved by `_frozen_erm`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "minimize_weighted_loss", _frozen_erm)
        yield


def _assert_bit_identical(new, frozen):
    assert new.point.tobytes() == frozen.point.tobytes()
    assert new.value == frozen.value
    assert new.diagnostics.newton_steps == frozen.diagnostics.newton_steps
    assert new.diagnostics.outer_stages == frozen.diagnostics.outer_stages
    assert new.diagnostics.stage_values == frozen.diagnostics.stage_values
    assert not new.diagnostics.used_shortcut


def _differential_program(kind, n, seed, dim=5):
    rng = np.random.default_rng(seed)
    loss = LossFunction(kind, 1.0)
    xs = rng.uniform(-1.0, 1.0, size=(n, dim))
    ys = rng.choice([-1.0, 1.0], size=n)
    ws = rng.uniform(1.0, 5.0, size=n)
    return rng, loss, xs, ys, ws


def _active_cap(loss, xs, ys, ws, slack):
    """A cap `slack` above the weighted minimum, and a direction it binds.

    Minimizing u . sum_i w_i y_i x_i lowers every margin, so the ball
    optimum of that direction raises the loss above the cap."""
    base = minimize_weighted_loss(loss, xs, ys, ws, 1.0)
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
        assert new.diagnostics.final_gap <= solver.DEFAULT_OPTIONS.gap_target

    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    @pytest.mark.parametrize("n", (1, 10, 300))
    @pytest.mark.parametrize("warm", (False, True))
    def test_capped_linear_program(self, monkeypatch, kind, n, warm):
        _, loss, xs, ys, ws = _differential_program(kind, n, seed=n)
        base, cap, direction = _active_cap(loss, xs, ys, ws, slack=0.5)
        starts = (base.point,) if warm else ()
        new, frozen, _, _ = _solve_both(
            monkeypatch, lambda: minimize_linear(direction, 1.0, cap, starts))
        _assert_bit_identical(new, frozen)

    @pytest.mark.parametrize("kind", ("logistic", "squared"))
    def test_phase_one_fallback(self, monkeypatch, kind):
        # a cap too tight for the origin and no start candidates: the cap
        # minimizer from phase I is the only strictly feasible start
        _, loss, xs, ys, ws = _differential_program(kind, 10, seed=3)
        _, cap, direction = _active_cap(loss, xs, ys, ws, slack=1e-3)
        assert cap.value(np.zeros(xs.shape[1])) > 0
        new, frozen, _, phase_one = _solve_both(
            monkeypatch, lambda: minimize_linear(direction, 1.0, cap))
        assert phase_one == 1
        _assert_bit_identical(new, frozen)

    def test_undamped_quadratic_phase(self, monkeypatch):
        _, loss, xs, ys, ws = _differential_program("logistic", 10, seed=4)
        base, cap, direction = _active_cap(loss, xs, ys, ws, slack=0.5)
        new, frozen, branches, _ = _solve_both(
            monkeypatch, lambda: minimize_linear(direction, 1.0, cap, (base.point,)))
        assert branches["quadratic"] > 0 and branches["damped"] > 0
        _assert_bit_identical(new, frozen)


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
        result = minimize_linear(direction, norm_bound, cap, (base.point,))
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
    n = 1 if case == "one-row" else draw(st.integers(2, 40))
    dim = 5 if case == "one-row" else draw(st.integers(1, 5))
    norm_bound = draw(st.floats(0.25, 4.0))
    # unstandardized features, ||x|| up to 7
    xs = rng.uniform(-1.0, 1.0, size=(n, dim)) * draw(st.floats(1.0, 7.0)) / math.sqrt(dim)
    if case == "zero-features":
        xs[:] = 0.0
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


# Declared tolerance on p: the trust-region ERM lands within the barrier's gap
# m/t = 1e-6 of the barrier ERM, so the survivor cap and the prediction
# interval move by solver-gap amounts. Any p > 0 keeps the 1/p estimate
# unbiased, so such a move costs variance, never correctness; the coins and
# the query count must not change.
P_TOLERANCE = 1e-6


@pytest.mark.parametrize("kind", ("logistic", "squared"))
@pytest.mark.parametrize("seed", (1, 2))
def test_linear_stream_p_within_declared_tolerance_of_barrier_erm(kind, seed):
    config = ExperimentConfig.from_dict({
        "dataset": {"kind": "sphere", "dim": 5, "noise": 0.1},
        "strategy": "loss-weighting-linear", "loss_kind": kind,
        "slack_mode": "optimistic", "train_size": 150, "test_size": 200,
        "checkpoint_every": 50, "seed": seed})
    new = run_experiment(config)
    with _frozen_barrier_erm():
        frozen = run_experiment(config)
    assert new.active.trace.q == frozen.active.trace.q
    assert new.active.queries == frozen.active.queries
    gaps = [abs(a - b) for a, b in zip(new.active.trace.p, frozen.active.trace.p)]
    assert len(gaps) == 150 and max(gaps) <= P_TOLERANCE
    assert abs(new.active.final_loss - frozen.active.final_loss) <= 1e-6
    assert abs(new.passive.final_loss - frozen.passive.final_loss) <= 1e-6
