import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal.bootstrap import (Committee, CommitteeThreshold, Resample,
                            costing_resample, query_probability,
                            train_committee, train_final,
                            weighted_examples_from_arrays)
from iwal.engine import Engine
from iwal.hypotheses import FiniteClass, WeightedSample
from iwal.losses import LossFunction
from iwal.trees import TreeParams

from conftest import assert_same_tree


def separable_prefix(rng, n=40, dim=3):
    X = rng.uniform(-1.0, 1.0, size=(n, dim))
    y = np.where(X[:, 0] > 0.1, 1.0, -1.0)
    # guarantee both classes present
    X[0, 0], y[0] = 0.5, 1.0
    X[1, 0], y[1] = -0.5, -1.0
    return X, y


class TestTrainCommittee:
    def test_single_example_prefix_gives_constant_members(self, rng):
        X = np.array([[0.2, -0.4]])
        y = np.array([-1.0])
        committee = train_committee(X, y, rng, size=5)
        probes = rng.normal(size=(10, 2))
        for member in committee.members:
            assert np.all(member.predict_many(probes) == -1.0)

    def test_members_fit_their_own_resample(self, rng):
        X, y = separable_prefix(rng)
        # threshold-separable data, so each member fits its resample exactly;
        # replay the resample draws with an identically seeded generator
        committee = train_committee(X, y, np.random.default_rng(123), size=10,
                                    params=TreeParams(max_depth=3, min_leaf=1))
        replay = np.random.default_rng(123)
        for member in committee.members:
            idx = replay.integers(0, len(X), size=len(X))
            assert np.array_equal(member.predict_many(X[idx]), y[idx])

    def test_bit_determinism_per_seed(self, rng):
        X, y = separable_prefix(rng)
        a = train_committee(X, y, np.random.default_rng(99), size=6)
        b = train_committee(X, y, np.random.default_rng(99), size=6)
        assert len(a.members) == len(b.members) == 6
        for tree, other in zip(a.members, b.members):
            assert_same_tree(tree, other)

    def test_committee_validation(self):
        with pytest.raises(ValueError):
            Committee(members=("just-one",))
        with pytest.raises(ValueError):
            train_committee(np.zeros((0, 2)), np.zeros(0),
                            np.random.default_rng(0))


class TestQueryProbability:
    def test_full_agreement_hits_floor_exactly(self, rng):
        X = np.array([[0.2, -0.4]])
        y = np.array([1.0])
        committee = train_committee(X, y, rng, size=8, p_min=0.1)
        loss = LossFunction("zero-one")
        assert query_probability(rng.normal(size=2), committee, loss) == 0.1

    def test_sign_split_reaches_one(self, rng):
        from iwal.trees import DecisionTree

        members = (DecisionTree.leaf(1.0, 2), DecisionTree.leaf(-1.0, 2))
        committee = Committee(members, p_min=0.1)
        loss = LossFunction("zero-one")
        assert query_probability(rng.normal(size=2), committee, loss) == 1.0

    def test_matches_triple_enumeration(self, rng):
        X, y = separable_prefix(rng, n=30)
        committee = train_committee(X, y, rng, size=6, p_min=0.2,
                                    params=TreeParams(max_depth=2, min_leaf=1))
        loss = LossFunction("logistic", 1.0)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=3)
            slow = 0.0
            for hi in committee.members:
                for hj in committee.members:
                    for label in (-1.0, 1.0):
                        gap = (loss.eval(hi.predict(x), label)
                               - loss.eval(hj.predict(x), label))
                        slow = max(slow, gap)
            expected = 0.2 + 0.8 * slow
            assert query_probability(x, committee, loss) == pytest.approx(expected)

    def test_range_is_floor_to_one(self, rng):
        X, y = separable_prefix(rng)
        committee = train_committee(X, y, rng, size=10, p_min=0.1)
        loss = LossFunction("zero-one")
        threshold = CommitteeThreshold(committee, loss)
        for _ in range(200):
            p = threshold.probability(rng.uniform(-1.5, 1.5, size=3))
            assert 0.1 <= p <= 1.0

    def test_committee_builds_its_finite_class_once(self, rng, monkeypatch):
        X, y = separable_prefix(rng)
        committee = train_committee(X, y, rng, size=5)
        assert committee.finite.members == committee.members
        built = []
        post_init = FiniteClass.__post_init__
        monkeypatch.setattr(FiniteClass, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        loss = LossFunction("logistic", 1.0)
        probes = rng.uniform(-1.5, 1.5, size=(30, 3))
        got = [query_probability(x, committee, loss) for x in probes]
        assert not built
        spreads = [loss.spread_many(FiniteClass(committee.members).predict(x),
                                    (-1.0, 1.0)) for x in probes]
        assert got == [0.1 + 0.9 * spread for spread in spreads]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           size=st.integers(2, 6), p_min=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
           loss_kind=st.sampled_from(["zero-one", "hinge", "logistic", "squared"]),
           noise=st.floats(0.0, 0.4))
    def test_stream_probabilities_lie_in_floor_to_one(self, seed, dim, size, p_min,
                                                      loss_kind, noise):
        # every p the threshold returns lies in [p_min, 1], and no step
        # queries at p = 0
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=dim)

        def label(x):
            sign = 1.0 if x @ direction >= 0 else -1.0
            return -sign if rng.random() < noise else sign

        X = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 30)), dim))
        y = np.array([label(x) for x in X])
        loss = LossFunction(loss_kind, 1.0)
        committee = train_committee(X, y, rng, size=size, p_min=p_min,
                                    params=TreeParams(max_depth=3, min_leaf=1))
        threshold = CommitteeThreshold(committee, loss)
        engine = Engine(loss, threshold, rng)
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, size=dim)
            assert p_min <= threshold.probability(x) <= 1.0
            engine.step(x, lambda i, x: label(x))
            p, queried = engine.trace.p[-1], engine.trace.q[-1]
            assert p_min <= p <= 1.0
            assert p > 0.0 or not queried


class TestCosting:
    def test_equal_weights_keep_everything(self, rng):
        examples = weighted_examples_from_arrays(
            rng.normal(size=(20, 2)), rng.choice([-1.0, 1.0], size=20),
            np.full(20, 3.5))
        kept = costing_resample(examples, rng)
        assert len(kept) == 20

    def test_single_example_always_kept(self, rng):
        examples = WeightedSample([(np.zeros(2), 1.0, 17.0)])
        assert len(costing_resample(examples, rng)) == 1

    def test_empty_input(self, rng):
        assert len(costing_resample(WeightedSample(), rng)) == 0

    def test_kept_rows_index_the_sample(self, rng):
        # costing keeps row indices into the sample's columns, not copies
        examples = weighted_examples_from_arrays(
            rng.normal(size=(30, 2)), rng.choice([-1.0, 1.0], size=30),
            rng.uniform(1.0, 6.0, size=30))
        kept = costing_resample(examples, np.random.default_rng(5))
        coins = np.random.default_rng(5).random(30) < examples.w / examples.w.max()
        assert np.array_equal(kept.rows, np.flatnonzero(coins))
        assert kept.X is examples.X and kept.y is examples.y
        pairs = list(kept)
        assert len(pairs) == len(kept) == coins.sum()
        for (x, label), row in zip(pairs, kept.rows.tolist()):
            assert np.array_equal(x, examples.X[row]) and label == examples.y[row]

    def test_acceptance_frequency_binomial_band(self):
        # weight 1 next to weight 10: acceptance ratio 0.1 +- 4 sigma
        rng = np.random.default_rng(2024)
        # a light row at x = 0 next to a heavy one at x = 1
        examples = WeightedSample([(np.zeros(1), 1.0, 1.0),
                                   (np.ones(1), 1.0, 10.0)])
        reps = 100000
        accepted = 0
        for _ in range(reps):
            kept = costing_resample(examples, rng)
            accepted += sum(1 for x, _ in kept if x[0] == 0.0)
        assert abs(accepted / reps - 0.1) <= 0.004

    def test_unbiased_weighted_sums(self, rng):
        examples = weighted_examples_from_arrays(
            rng.normal(size=(15, 2)), rng.choice([-1.0, 1.0], size=15),
            rng.uniform(1.0, 6.0, size=15))
        max_w = max(e.weight for e in examples)
        target = sum(e.weight * e.x[0] for e in examples)
        reps = 3000
        totals = np.empty(reps)
        for r in range(reps):
            kept = costing_resample(examples, rng)
            totals[r] = max_w * sum(x[0] for x, _ in kept)
        stderr = totals.std() / np.sqrt(reps)
        assert abs(totals.mean() - target) <= 3 * stderr


class TestTrainFinal:
    def test_full_set_equals_passive_training(self, rng):
        from iwal.trees import DecisionTree

        X, y = separable_prefix(rng, n=50)
        tree = train_final(Resample(X, y, np.arange(len(y))))
        passive = DecisionTree.fit(X, y)
        assert_same_tree(tree, passive)

    def test_pure_labels_give_single_leaf(self, rng):
        tree = train_final(Resample(rng.normal(size=(12, 2)), np.ones(12), np.arange(12)))
        assert tree.label.tolist() == [1.0]

    def test_xor_resample_zero_error(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        tree = train_final(Resample(X, y, np.arange(4)), TreeParams(max_depth=2, min_leaf=1))
        assert np.array_equal(tree.predict_many(X), y)

    def test_empty_resample_falls_back_to_majority_stump(self, rng):
        X, y = separable_prefix(rng)
        y[:] = -1.0
        tree = train_final(Resample(X, y, np.arange(0)), fallback=(X, y))
        assert np.all(tree.predict_many(rng.normal(size=(7, 3))) == -1.0)
