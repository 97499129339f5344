import math
import warnings

import numpy as np
import pytest

from iwal.engine import ArrayOracle, Engine
from iwal.hypotheses import ConstantPredictor, FiniteClass, TablePredictor
from iwal.instances import DiscreteInstance, SphereInstance
from iwal.losses import LossFunction
from iwal.theory import (disagreement_coefficient, expected_query_bound,
                         loss_deviation_bound, loss_distance_exact,
                         loss_distance_mc, sphere_coefficient_bound)
from iwal.thresholds import LossWeightingFinite

from conftest import random_discrete_instance, random_linear_predictors


class TestLossDistance:
    def test_identity_is_zero(self, rng):
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(6, 2, rng)
        h = random_linear_predictors(rng, 1, 2)[0]
        assert loss_distance_exact(h, h, loss, instance) == 0.0

    def test_single_atom_disagreement(self):
        instance = DiscreteInstance.binary(
            np.array([[0.0], [1.0]]), np.array([0.7, 0.3]),
            np.array([0.5, 0.5]))
        loss = LossFunction("zero-one")
        f = TablePredictor({(0.0,): 1.0, (1.0,): 1.0})
        g = TablePredictor({(0.0,): 1.0, (1.0,): -1.0})
        assert loss_distance_exact(f, g, loss, instance) == pytest.approx(0.3)

    def test_mc_matches_enumeration(self, rng):
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(20, 2, rng)
        f, g = random_linear_predictors(rng, 2, 2)
        exact = loss_distance_exact(f, g, loss, instance)
        X, _ = instance.sample(rng, 60000)
        mc, stderr = loss_distance_mc(f, g, loss, X)
        assert abs(mc - exact) <= 4 * stderr + 1e-9

    def test_pseudo_metric_properties(self, rng):
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(8, 2, rng)
        for _ in range(20):
            f, g, h = random_linear_predictors(rng, 3, 2)
            d_fg = loss_distance_exact(f, g, loss, instance)
            d_gf = loss_distance_exact(g, f, loss, instance)
            assert d_fg == pytest.approx(d_gf, abs=1e-15)
            d_fh = loss_distance_exact(f, h, loss, instance)
            d_hg = loss_distance_exact(h, g, loss, instance)
            assert d_fg <= d_fh + d_hg + 1e-12


def distance_bounded_by_losses(h, reference, loss, instance):
    """Whether distance(h, reference) <= K * (L(h) + L(reference)) holds, the
    paper's lemma on an enumerable instance.

    K is the loss's slope asymmetry; an infinite K makes the check vacuous.
    """
    k = loss.slope_asymmetry()
    if math.isinf(k):
        return True
    d = loss_distance_exact(h, reference, loss, instance)
    bound = k * (instance.exact_loss(h, loss) + instance.exact_loss(reference, loss))
    return d <= bound + 1e-12


class TestDistanceLossBound:
    def test_trivial_at_reference(self, rng):
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(5, 2, rng)
        h = random_linear_predictors(rng, 1, 2)[0]
        assert distance_bounded_by_losses(h, h, loss, instance)

    def test_zero_one_on_enumerable(self, rng):
        loss = LossFunction("zero-one")
        instance = random_discrete_instance(10, 2, rng)
        best = ConstantPredictor(1.0)
        for _ in range(20):
            u = rng.normal(size=2)
            from iwal.hypotheses import ThresholdPredictor
            assert distance_bounded_by_losses(
                ThresholdPredictor(u), best, loss, instance)

    def test_logistic_on_random_classes(self, rng):
        loss = LossFunction("logistic", 1.0)
        for _ in range(10):
            instance = random_discrete_instance(8, 2, rng)
            members = random_linear_predictors(rng, 6, 2)
            _, best, _ = instance.exact_best(members, loss)
            for h in members:
                assert distance_bounded_by_losses(h, best, loss, instance)


class TestDisagreementCoefficient:
    def test_ball_with_only_reference_gives_zero(self, rng):
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(4, 2, rng)
        h = random_linear_predictors(rng, 1, 2)[0]
        result = disagreement_coefficient(h, [h], instance.points, loss,
                                          r_grid=[0.5], instance=instance)
        assert result["per_radius"][0.5] == 0.0
        assert result["supremum"] == 0.0

    def test_two_atom_hand_computation(self):
        instance = DiscreteInstance.binary(
            np.array([[0.0], [1.0]]), np.array([0.6, 0.4]),
            np.array([0.5, 0.5]))
        loss = LossFunction("zero-one")
        ref = TablePredictor({(0.0,): 1.0, (1.0,): 1.0})
        other = TablePredictor({(0.0,): 1.0, (1.0,): -1.0})
        # distance(ref, other) = 0.4; expected sup deviation = 0.4
        result = disagreement_coefficient(ref, [ref, other], instance.points,
                                          loss, r_grid=[0.2, 0.4, 0.8],
                                          instance=instance)
        assert result["per_radius"][0.2] == 0.0
        assert result["per_radius"][0.4] == pytest.approx(1.0)
        assert result["per_radius"][0.8] == pytest.approx(0.5)

    def test_empty_ball_warns_and_skips(self, rng):
        loss = LossFunction("zero-one")
        instance = DiscreteInstance.binary(
            np.array([[0.0], [1.0]]), np.array([0.6, 0.4]),
            np.array([0.5, 0.5]))
        ref = TablePredictor({(0.0,): 1.0, (1.0,): 1.0})
        other = TablePredictor({(0.0,): -1.0, (1.0,): -1.0})  # distance 1.0
        with pytest.warns(UserWarning, match="within distance 0.1; skipping"):
            result = disagreement_coefficient(ref, [other], instance.points,
                                              loss, r_grid=[0.1, 1.0],
                                              instance=instance)
        assert result["per_radius"] == {1.0: 1.0}

    @pytest.mark.parametrize("count", [0, 1])
    def test_every_ball_empty_is_an_error_without_warnings(self, count):
        loss = LossFunction("zero-one")
        instance = DiscreteInstance.binary(
            np.array([[0.0], [1.0]]), np.array([0.6, 0.4]),
            np.array([0.5, 0.5]))
        ref = TablePredictor({(0.0,): 1.0, (1.0,): 1.0})
        other = TablePredictor({(0.0,): -1.0, (1.0,): -1.0})  # distance 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no sampled hypothesis lies within any radius"):
                disagreement_coefficient(ref, [other] * count,
                                         instance.points, loss, r_grid=[0.1, 0.5],
                                         instance=instance)

    @pytest.mark.parametrize("radius", [0.0, -0.2, math.nan, math.inf])
    def test_radii_must_be_positive_and_finite(self, radius):
        instance = DiscreteInstance.binary(
            np.array([[0.0], [1.0]]), np.array([0.6, 0.4]),
            np.array([0.5, 0.5]))
        ref = TablePredictor({(0.0,): 1.0, (1.0,): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="radii must be positive and finite"):
                disagreement_coefficient(ref, [ref], instance.points,
                                         LossFunction("zero-one"), r_grid=[radius, 0.5],
                                         instance=instance)

    def test_sphere_bound_dominates_small_case(self, rng):
        dim = 3
        loss = LossFunction("logistic", 1.0)
        instance = SphereInstance(dim=dim)
        xs, _ = instance.sample(rng, 3000)
        reference = instance.linear_reference(scale=0.5)
        candidates = []
        for _ in range(80):
            u = reference.weights + rng.normal(size=dim) * 0.3
            norm = np.linalg.norm(u)
            if norm > 1.0:
                u = u / norm
            candidates.append(type(reference)(u, 1.0))
        result = disagreement_coefficient(reference, candidates, xs, loss,
                                          r_grid=[0.05, 0.1, 0.2, 0.4])
        assert result["supremum"] <= sphere_coefficient_bound(loss, dim)


class TestBoundFormulas:
    def test_deviation_bound_hand_check(self):
        value = loss_deviation_bound(1.0, 1, 2.0 / math.e ** 2, 2)
        assert value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_deviation_bound_scalings(self):
        base = loss_deviation_bound(0.5, 8, 0.1, 100)
        assert loss_deviation_bound(0.25, 8, 0.1, 100) == pytest.approx(2 * base)
        assert loss_deviation_bound(0.5, 8, 0.1, 400) == pytest.approx(base / 2)

    def test_deviation_bound_domain(self):
        with pytest.raises(ValueError):
            loss_deviation_bound(0.0, 8, 0.1, 100)

    @pytest.mark.parametrize("p_min", [1.5, math.inf])
    def test_deviation_bound_rejects_p_min_above_one(self, p_min):
        # a larger p_min would only shrink the bound below its value at 1
        with pytest.raises(ValueError, match="p_min must be at most 1"):
            loss_deviation_bound(p_min, 8, 0.1, 100)
        assert loss_deviation_bound(1.0, 8, 0.1, 100) > 0.0

    def test_query_bound_realizable_case(self):
        linear, sublinear = expected_query_bound(2.0, 1.0, 0.0, 1000, 8, 0.1)
        assert linear == 0.0
        assert sublinear > 0.0

    def test_query_bound_hand_evaluation(self):
        linear, sublinear = expected_query_bound(1.0, 1.0, 0.1, 1000, 8, 0.1)
        assert linear == pytest.approx(400.0)
        assert sublinear == pytest.approx(
            4.0 * math.sqrt(1000 * math.log(80000.0)), rel=1e-12)

    def test_query_bound_linear_in_theta(self):
        a = expected_query_bound(1.0, 2.0, 0.2, 500, 4, 0.1)
        b = expected_query_bound(2.0, 2.0, 0.2, 500, 4, 0.1)
        assert b[0] == pytest.approx(2 * a[0])
        assert b[1] == pytest.approx(2 * a[1])

    def test_query_bound_rejects_infinite_asymmetry(self):
        with pytest.raises(ValueError):
            expected_query_bound(1.0, math.inf, 0.1, 100, 4, 0.1)

    @pytest.mark.parametrize("theta, asymmetry, best_loss, message", [
        (math.nan, 1.0, 0.1, "theta must be finite and nonnegative, got nan"),
        (math.inf, 1.0, 0.1, "theta must be finite and nonnegative, got inf"),
        (-1.0, 1.0, 0.1, "theta must be finite and nonnegative, got -1.0"),
        (1.0, math.nan, 0.1, "slope asymmetry must be at least 1, got nan"),
        (1.0, 0.5, 0.1, "slope asymmetry must be at least 1, got 0.5"),
        (1.0, 1.0, -3.0, r"best loss must lie in \[0, 1\], got -3.0"),
        (1.0, 1.0, 1.5, r"best loss must lie in \[0, 1\], got 1.5"),
        (1.0, 1.0, math.nan, r"best loss must lie in \[0, 1\], got nan"),
    ])
    def test_query_bound_rejects_values_outside_its_domain(self, theta, asymmetry,
                                                           best_loss, message):
        with pytest.raises(ValueError, match=message):
            expected_query_bound(theta, asymmetry, best_loss, 100, 4, 0.1)

    def test_query_bound_accepts_the_ends_of_its_domain(self):
        assert expected_query_bound(0.0, 1.0, 1.0, 100, 4, 0.1) == (0.0, 0.0)
        assert expected_query_bound(1.0, 1.0, 1.0, 100, 4, 0.1)[0] == 400.0


class TestRealizedQueriesAgainstBound:
    def test_sum_of_probabilities_within_bound_most_seeds(self, rng):
        # the estimated coefficient underestimates the true one, so this is
        # a reported sanity check rather than a certified inequality
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(8, 2, rng)
        members = tuple(random_linear_predictors(rng, 8, 2))
        cls = FiniteClass(members)
        _, best, best_loss = instance.exact_best(members, loss)
        result = disagreement_coefficient(
            best, list(members), instance.points, loss,
            r_grid=[0.05, 0.1, 0.2, 0.4, 0.8], instance=instance)
        theta = max(result["supremum"], 1e-6)
        T = 200
        linear, sublinear = expected_query_bound(
            theta, loss.slope_asymmetry(), best_loss, T, len(members), 0.1)
        bound = linear + sublinear
        hits = 0
        seeds = 20
        for seed in range(seeds):
            run_rng = np.random.default_rng(seed)
            threshold = LossWeightingFinite(cls, loss)
            engine = Engine(loss, threshold, run_rng, hypothesis_class=cls)
            X, y = instance.sample(np.random.default_rng(1000 + seed), T)
            oracle = ArrayOracle(y)
            for x in X:
                engine.step(x, oracle)
            realized = sum(engine.trace.p)
            if realized <= bound:
                hits += 1
        assert hits >= 0.9 * seeds
