import math

import numpy as np
import pytest

from iwal.errors import InfeasibleStartError
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
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_gradient_matches_central_differences(self, rng):
        loss, xs, ys, ws = random_program(rng)
        objective = WeightedLossCap(loss, xs, ys, ws, 0.0)
        for _ in range(20):
            u = rng.uniform(-0.7, 0.7, size=2)
            grad = objective.grad(u)
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
    assert ball.value(u) == pytest.approx(float(u @ u) - 2.0)
    assert ball.grad(u) == pytest.approx(2.0 * u)
    assert np.allclose(ball.hess(u), 2.0 * np.eye(3))


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
