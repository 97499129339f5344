import math

import numpy as np
import pytest

from iwal.errors import PredictionDomainError
from iwal.hypotheses import ConstantPredictor, LinearPredictor
from iwal.instances import (DiscreteInstance, SphereInstance,
                            lower_bound_instance, point_mass_instance)
from iwal.losses import LOSS_KINDS, LossFunction

from conftest import random_discrete_instance


def per_atom_exact_loss(instance, predictor, loss):
    """The true loss as a loop over atoms and the labels each takes, with
    the scalar predict and eval, summed in that order."""
    total = 0.0
    for a in range(len(instance.masses)):
        z = predictor.predict(instance.points[a])
        for v, q in zip(instance.label_values, instance.label_probs[a]):
            if q > 0:
                total += instance.masses[a] * q * loss.eval(z, float(v))
    return total


class TestDiscreteInstance:
    def test_mass_validation(self):
        with pytest.raises(ValueError):
            DiscreteInstance.binary(np.zeros((2, 1)), np.array([0.4, 0.4]),
                                    np.array([0.5, 0.5]))

    def test_label_prob_validation(self):
        with pytest.raises(ValueError):
            DiscreteInstance.binary(np.zeros((1, 1)), np.array([1.0]),
                                    np.array([1.4]))

    def test_exact_loss_by_hand(self):
        instance = DiscreteInstance.binary(
            np.array([[0.0], [1.0]]), np.array([0.3, 0.7]),
            np.array([1.0, 0.25]))
        loss = LossFunction("zero-one")
        h = ConstantPredictor(1.0)
        # errors exactly when y = -1: atom 2 with probability 0.75
        assert instance.exact_loss(h, loss) == pytest.approx(0.7 * 0.75, rel=1e-15)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_exact_loss_equals_the_per_atom_sum(self, kind):
        # exact_loss predicts every atom through predict_many and sums the
        # labels per atom, then the atoms by a dot product: it agrees with
        # the per-atom loop to 1e-12 relative, not bit for bit
        rng = np.random.default_rng(49)
        loss = LossFunction(kind, 1.0)
        instances = [random_discrete_instance(30, 3, rng)]
        if kind in ("squared", "absolute"):
            instances.append(point_mass_instance(0.3, 3))
        for instance in instances:
            for _ in range(10):
                w = rng.normal(size=3)
                h = (ConstantPredictor(float(np.sign(w[0]))) if kind == "zero-one"
                     else LinearPredictor(w, 1.0))
                assert instance.exact_loss(h, loss) == pytest.approx(
                    per_atom_exact_loss(instance, h, loss), rel=1e-12, abs=0.0)

    def test_exact_loss_checks_only_the_labels_taken(self):
        # label 0 is no logistic label: an alphabet that lists it with zero
        # probability is scored, one that gives it mass is refused
        loss = LossFunction("logistic", 1.0)
        points, masses = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
        unused = DiscreteInstance(points, masses, np.array([-1.0, 0.0, 1.0]),
                                  np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]))
        h = ConstantPredictor(0.25)
        assert unused.exact_loss(h, loss) == pytest.approx(
            per_atom_exact_loss(unused, h, loss), rel=1e-12, abs=0.0)
        used = DiscreteInstance(points, masses, np.array([-1.0, 0.0, 1.0]),
                                np.array([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="got 0.0"):
            used.exact_loss(h, loss)
        with pytest.raises(PredictionDomainError):
            unused.exact_loss(ConstantPredictor(math.nan), loss)

    def test_sampling_matches_masses(self, rng):
        instance = random_discrete_instance(5, 2, rng)
        X, _ = instance.sample(rng, 40000)
        for a in range(5):
            hits = np.mean(np.all(X == instance.points[a], axis=1))
            sigma = np.sqrt(instance.masses[a] * (1 - instance.masses[a]) / 40000)
            assert abs(hits - instance.masses[a]) <= 4 * sigma + 1e-12

    def test_label_support(self):
        inst = point_mass_instance(0.2, 2, binary_labels=False)
        assert inst.label_support() == (-1.0, 0.0, 1.0)
        inst2 = point_mass_instance(0.2, 2, binary_labels=True)
        assert inst2.label_support() == (-1.0, 1.0)


class TestLowerBoundInstance:
    def test_hand_checked_construction(self, rng):
        hard = lower_bound_instance(4, eta=0.2, eps=0.05, rng=rng)
        assert hard.beta == pytest.approx(0.6)
        assert hard.gamma == pytest.approx(1.0 / 6.0)
        assert hard.optimal_error == pytest.approx(0.2)
        assert hard.instance.masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert hard.instance.masses[0] == pytest.approx(0.4)

    def test_gamma_strictly_below_quarter_when_strict(self, rng):
        for _ in range(50):
            eta = rng.uniform(0.02, 0.25)
            eps = rng.uniform(1e-4, eta / 2)
            hard = lower_bound_instance(6, eta, eps, rng)
            if 2 * eps < eta:
                assert hard.gamma < 0.25

    def test_best_predictor_achieves_stated_error(self, rng):
        loss = LossFunction("zero-one")
        for _ in range(20):
            eta = rng.uniform(0.05, 0.25)
            eps = rng.uniform(1e-3, eta / 2)
            hard = lower_bound_instance(int(rng.integers(2, 10)), eta, eps, rng)
            achieved = hard.instance.exact_loss(hard.instance.best, loss)
            assert achieved == pytest.approx(eta, abs=1e-12)

    def test_parameter_domain_enforced(self, rng):
        with pytest.raises(ValueError):
            lower_bound_instance(4, eta=0.3, eps=0.05, rng=rng)  # eta > 1/4
        with pytest.raises(ValueError):
            lower_bound_instance(4, eta=0.1, eps=0.06, rng=rng)  # 2 eps > eta
        with pytest.raises(ValueError):
            lower_bound_instance(1, eta=0.2, eps=0.05, rng=rng)

    def test_label_marginals_match_construction(self, rng):
        hard = lower_bound_instance(3, eta=0.2, eps=0.05, rng=rng)
        X, y = hard.instance.sample(rng, 100000)
        for i in range(1, 3):
            mask = X[:, i] == 1.0
            expected = 0.5 + hard.gamma * hard.bits[i - 1]
            observed = np.mean(y[mask] > 0)
            sigma = np.sqrt(expected * (1 - expected) / mask.sum())
            assert abs(observed - expected) <= 4 * sigma


class TestPointMassInstance:
    def test_origin_mass(self):
        inst = point_mass_instance(0.1, 3)
        assert inst.masses[0] == pytest.approx(0.9)
        assert np.all(inst.points[0] == 0.0)
        assert inst.points[1, 0] == 1.0

    def test_faithful_labels_at_far_atom(self):
        inst = point_mass_instance(0.1, 2, binary_labels=False)
        # origin always +1; far atom -1 or 0 with equal probability
        assert inst.label_probs[0].tolist() == [0.0, 0.0, 1.0]
        assert inst.label_probs[1].tolist() == [0.5, 0.5, 0.0]

    def test_all_linear_predictors_agree_at_origin(self, rng):
        from iwal.hypotheses import FiniteClass, LinearPredictor

        loss = LossFunction("squared", 1.0)
        predictors = [LinearPredictor(rng.normal(size=2), 1.0) for _ in range(10)]
        spread = loss.spread_many(FiniteClass(predictors).predict(np.zeros(2)),
                                  (-1.0, 0.0, 1.0))
        assert spread == 0.0

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            point_mass_instance(0.0, 2)
        with pytest.raises(ValueError):
            point_mass_instance(1.0, 2)


class TestSphereInstance:
    def test_unit_norm_samples(self, rng):
        instance = SphereInstance(dim=4)
        X, _ = instance.sample(rng, 2000)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    def test_zero_noise_is_realizable(self, rng):
        # the labels are the signs of the linear reference's predictions
        instance = SphereInstance(dim=3, noise=0.0)
        X, y = instance.sample(rng, 500)
        assert instance.label_support() == (-1.0, 1.0)
        z = instance.linear_reference().predict_many(X)
        assert np.all(np.where(z >= 0, 1.0, -1.0) == y)

    def test_componentwise_mean_near_zero(self, rng):
        instance = SphereInstance(dim=5)
        X, _ = instance.sample(rng, 100000)
        # each coordinate has variance 1/d on the sphere
        sigma = np.sqrt(1.0 / 5.0 / 100000)
        assert np.all(np.abs(X.mean(axis=0)) <= 4 * sigma)

    def test_noise_rate_flips(self, rng):
        instance = SphereInstance(dim=3, noise=0.2)
        X, y = instance.sample(rng, 50000)
        z = instance.linear_reference().predict_many(X)
        clean = np.where(z >= 0, 1.0, -1.0)
        rate = np.mean(clean != y)
        assert abs(rate - 0.2) <= 4 * np.sqrt(0.2 * 0.8 / 50000)
