import hashlib
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal import harness
from iwal.bootstrap import (CommitteeThreshold, costing_resample,
                            train_committee, weighted_examples_from_arrays)
from iwal.engine import Engine
from iwal.errors import DimensionMismatchError
from iwal.hypotheses import FiniteClass, LinearPredictor, WeightedSample
from iwal.losses import LOSS_KINDS, LossFunction
from iwal.trees import DecisionTree, TreeParams, predict_forest

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


# the label sets each loss kind accepts: every kind takes -1 and +1; the
# squared and absolute kinds also take any label in [-1, 1]
SIGN_LABELS = [(-1.0, 1.0), (1.0, -1.0), (1.0,), (-1.0,)]
LABEL_SETS = {kind: SIGN_LABELS + ([(0.37,), (-1.0, 0.0, 1.0)]
                                   if kind in ("squared", "absolute") else [])
              for kind in LOSS_KINDS}


class TestTwoValuedProbability:
    """p is p_min + (1 - p_min) times the loss spread of every member's vote,
    whether the members vote on x or a forest walk's row of votes is given."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           size=st.integers(2, 8), loss_kind=st.sampled_from(LOSS_KINDS),
           range_bound=st.one_of(st.sampled_from([1.0, 1.7, 3.0]), st.floats(1.0, 50.0)),
           p_min=st.one_of(st.sampled_from([0.01, 0.1, 0.5, 1.0]),
                           st.floats(0.0, 1.0, exclude_min=True)))
    def test_equals_the_spread_of_every_vote(self, data, seed, dim, size, loss_kind,
                                             range_bound, p_min):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 40)), dim))
        y = np.where(X[:, 0] + rng.normal(scale=0.5, size=len(X)) > 0, 1.0, -1.0)
        committee = train_committee(X, y, rng, size=size,
                                    params=TreeParams(max_depth=3, min_leaf=1))
        labels = data.draw(st.sampled_from(LABEL_SETS[loss_kind]))
        loss = LossFunction(loss_kind, range_bound)
        threshold = CommitteeThreshold(committee, loss, labels, p_min)
        probes = list(rng.uniform(-1.5, 1.5, size=(10, dim)))
        # a coordinate exactly on each split of each member: `<=` sends it left
        for tree in committee.members:
            for node in np.flatnonzero(tree.left != np.arange(len(tree.left))).tolist():
                x = rng.uniform(-1.5, 1.5, size=dim)
                x[tree.feature[node]] = tree.threshold[node]
                probes.append(x)
        table = predict_forest(committee.members, np.array(probes)).T
        for x, z in zip(probes, table):
            votes = FiniteClass(committee.members).predict(x)
            expected = p_min + (1 - p_min) * loss.spread_many(votes, labels)
            assert threshold.probability(x) == expected
            assert threshold.probability(x, z) == expected

    def test_both_values_reached_on_a_stream(self, rng):
        X, y = separable_prefix(rng, n=30)
        y[::4] *= -1.0
        committee = train_committee(X, y, rng, size=6,
                                    params=TreeParams(max_depth=3, min_leaf=1))
        loss = LossFunction("logistic", 1.0)
        threshold = CommitteeThreshold(committee, loss, p_min=0.1)
        split = 0.1 + 0.9 * loss.spread_many(np.array([-1.0, 1.0]), (-1.0, 1.0))
        got = {threshold.probability(x) for x in rng.uniform(-1.0, 1.0, size=(200, 3))}
        assert got == {0.1, split}

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.5])
    def test_wrong_shaped_input_rejected(self, rng, x):
        X, y = separable_prefix(rng)
        threshold = CommitteeThreshold(train_committee(X, y, rng, size=3),
                                       LossFunction("logistic"))
        with pytest.raises(DimensionMismatchError, match=r"expected dimension 3, got"):
            threshold.probability(x)

    def test_members_must_be_trees_of_one_width(self, rng):
        tree = DecisionTree.fit(rng.normal(size=(10, 2)), rng.choice([-1.0, 1.0], size=10))
        linear = LinearPredictor(np.array([0.6, 0.8]))
        loss = LossFunction("logistic")
        for members in ((linear, linear), (tree, linear), (linear, tree)):
            with pytest.raises(TypeError, match="DecisionTree"):
                CommitteeThreshold(FiniteClass(members), loss)
        # x fits no committee of two widths, so every p would be an error
        wider = DecisionTree.fit(rng.normal(size=(10, 3)), rng.choice([-1.0, 1.0], size=10))
        with pytest.raises(ValueError, match="one input width"):
            CommitteeThreshold(FiniteClass((tree, wider)), loss)


class TestPinnedFingerprint:
    # Trace SHA-256, query count and both final test losses of two short
    # bootstrap runs, recorded at commit db06a75. A change meant to keep
    # bootstrap behaviour must reproduce them bit for bit.
    PINNED = {
        1: ("ef58849992259f6900469a04520587f8f75232e28b92eb44769b6c83d8faf54f",
            137, 0.42128822669285837, 0.3984443409044186),
        2: ("05743da06e488eddb4ef98088f4d4a042adfcddbf4b6685f99239775543ca114",
            70, 0.35275656932753896, 0.39082971230827196),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_short_run_reproduces_the_pinned_fingerprint(self, seed, tmp_path):
        config = harness.ExperimentConfig.from_dict({
            "dataset": {"kind": "sphere", "dim": 5, "noise": 0.1},
            "strategy": "bootstrap", "loss_kind": "logistic",
            "train_size": 300, "test_size": 100, "seed": seed})
        report = harness.run_experiment(config)
        trace = harness.emit_curves(report, tmp_path)["trace"]
        digest = hashlib.sha256(Path(trace).read_bytes()).hexdigest()
        assert (digest, report.active.queries, report.active.final_loss,
                report.passive.final_loss) == self.PINNED[seed]


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
