import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal.bootstrap import (CommitteeThreshold, costing_resample,
                            train_committee, weighted_examples_from_arrays)
from iwal.engine import Engine
from iwal.hypotheses import FiniteClass, WeightedSample
from iwal.losses import LossFunction
from iwal.trees import DecisionTree, TreeParams

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

    def test_committee_validation(self, rng):
        loss = LossFunction("zero-one")
        one = FiniteClass((DecisionTree.fit(np.zeros((2, 2)), np.ones(2)),))
        with pytest.raises(ValueError, match="at least 2 members"):
            CommitteeThreshold(one, loss)
        pair = train_committee(np.zeros((2, 2)), np.ones(2), rng, size=2)
        for p_min in (0.0, 1.5):
            with pytest.raises(ValueError, match="p_min"):
                CommitteeThreshold(pair, loss, p_min=p_min)
        with pytest.raises(ValueError):
            train_committee(np.zeros((0, 2)), np.zeros(0),
                            np.random.default_rng(0))


class TestQueryProbability:
    def test_full_agreement_hits_floor_exactly(self, rng):
        X = np.array([[0.2, -0.4]])
        y = np.array([1.0])
        committee = train_committee(X, y, rng, size=8)
        threshold = CommitteeThreshold(committee, LossFunction("zero-one"), p_min=0.1)
        assert threshold.probability(rng.normal(size=2)) == 0.1

    def test_sign_split_reaches_one(self, rng):
        # two one-node members, fit on a pure sample of each label
        members = [DecisionTree.fit(np.zeros((3, 2)), np.full(3, label))
                   for label in (1.0, -1.0)]
        assert [tree.depth() for tree in members] == [0, 0]
        threshold = CommitteeThreshold(FiniteClass(members), LossFunction("zero-one"),
                                       p_min=0.1)
        assert threshold.probability(rng.normal(size=2)) == 1.0

    def test_matches_triple_enumeration(self, rng):
        X, y = separable_prefix(rng, n=30)
        committee = train_committee(X, y, rng, size=6,
                                    params=TreeParams(max_depth=2, min_leaf=1))
        loss = LossFunction("logistic", 1.0)
        threshold = CommitteeThreshold(committee, loss, p_min=0.2)
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
            assert threshold.probability(x) == pytest.approx(expected)

    def test_range_is_floor_to_one(self, rng):
        X, y = separable_prefix(rng)
        committee = train_committee(X, y, rng, size=10)
        loss = LossFunction("zero-one")
        threshold = CommitteeThreshold(committee, loss, p_min=0.1)
        for _ in range(200):
            p = threshold.probability(rng.uniform(-1.5, 1.5, size=3))
            assert 0.1 <= p <= 1.0

    def test_committee_builds_its_finite_class_once(self, rng, monkeypatch):
        # the committee is the FiniteClass built at training; p builds none
        X, y = separable_prefix(rng)
        committee = train_committee(X, y, rng, size=5)
        assert isinstance(committee, FiniteClass)
        built = []
        post_init = FiniteClass.__post_init__
        monkeypatch.setattr(FiniteClass, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        loss = LossFunction("logistic", 1.0)
        threshold = CommitteeThreshold(committee, loss)
        probes = rng.uniform(-1.5, 1.5, size=(30, 3))
        got = [threshold.probability(x) for x in probes]
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
        committee = train_committee(X, y, rng, size=size,
                                    params=TreeParams(max_depth=3, min_leaf=1))
        threshold = CommitteeThreshold(committee, loss, p_min=p_min)
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

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(st.one_of(st.sampled_from([1.0, 3.5, 1e300]),
                                      st.floats(0.0, 1e308, exclude_min=True)),
                            min_size=1, max_size=50),
           seed=st.integers(0, 2**32 - 1))
    def test_every_row_of_maximal_weight_is_kept(self, weights, seed):
        # its acceptance ratio is exactly 1 and every uniform is below 1, so
        # a nonempty sample never gives an empty resample
        examples = weighted_examples_from_arrays(
            np.zeros((len(weights), 1)), np.ones(len(weights)), weights)
        kept = costing_resample(examples, np.random.default_rng(seed))
        heaviest = np.flatnonzero(examples.w == max(weights))
        assert np.isin(heaviest, kept.rows).all()
        assert len(kept) >= len(heaviest) >= 1

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
