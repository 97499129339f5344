import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal import trees
from iwal.errors import DimensionMismatchError
from iwal.trees import DecisionTree, TreeParams


class TestFit:
    def test_pure_labels_give_single_leaf(self, rng):
        X = rng.normal(size=(30, 3))
        y = np.ones(30)
        tree = DecisionTree.fit(X, y)
        assert tree.root == {"label": 1.0}
        assert tree.depth() == 0

    def test_xor_pattern_needs_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        tree = DecisionTree.fit(X, y, TreeParams(max_depth=2, min_leaf=1))
        assert np.array_equal(tree.predict_many(X), y)
        assert tree.depth() == 2

    def test_threshold_separable_data(self, rng):
        X = rng.uniform(-1.0, 1.0, size=(60, 4))
        y = np.where(X[:, 2] > 0.15, 1.0, -1.0)
        tree = DecisionTree.fit(X, y, TreeParams(max_depth=3, min_leaf=1))
        assert np.array_equal(tree.predict_many(X), y)

    def test_max_depth_respected(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.choice([-1.0, 1.0], size=200)
        for depth in (0, 1, 2, 4):
            tree = DecisionTree.fit(X, y, TreeParams(max_depth=depth, min_leaf=1))
            assert tree.depth() <= depth

    def test_min_leaf_respected(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.choice([-1.0, 1.0], size=50)
        tree = DecisionTree.fit(X, y, TreeParams(max_depth=8, min_leaf=5))

        def check(node, Xn):
            if "label" in node:
                assert len(Xn) >= 5
                return
            mask = Xn[:, node["feature"]] <= node["threshold"]
            check(node["left"], Xn[mask])
            check(node["right"], Xn[~mask])

        check(tree.root, X)

    def test_deterministic_given_data(self, rng):
        X = rng.normal(size=(80, 3))
        y = rng.choice([-1.0, 1.0], size=80)
        a = DecisionTree.fit(X, y)
        b = DecisionTree.fit(X, y)
        assert a.to_dict() == b.to_dict()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree.fit(np.zeros((0, 2)), np.zeros(0))


class TestPredict:
    def test_dimension_check(self, rng):
        tree = DecisionTree.fit(rng.normal(size=(10, 2)),
                                rng.choice([-1.0, 1.0], size=10))
        with pytest.raises(DimensionMismatchError):
            tree.predict(np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            tree.predict_many(np.zeros((4, 3)))

    def test_leaf_tree_predicts_constant(self, rng):
        tree = DecisionTree.leaf(-1.0, 4)
        assert np.all(tree.predict_many(rng.normal(size=(9, 4))) == -1.0)

    def test_labels_are_signs(self, rng):
        X = rng.normal(size=(120, 3))
        y = rng.choice([-1.0, 1.0], size=120)
        tree = DecisionTree.fit(X, y)
        out = tree.predict_many(rng.normal(size=(40, 3)))
        assert set(np.unique(out)) <= {-1.0, 1.0}


class TestSerialization:
    def test_json_round_trip(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.choice([-1.0, 1.0], size=60)
        tree = DecisionTree.fit(X, y)
        clone = DecisionTree.from_json(tree.to_json())
        probe = rng.normal(size=(25, 3))
        assert np.array_equal(tree.predict_many(probe), clone.predict_many(probe))
        assert clone.to_json() == tree.to_json()


# Frozen copy of the per-cut scalar search the vectorized one replaced: the
# reference every fitted tree is compared against.
def _oracle_entropy(n_pos, n):
    if n == 0 or n_pos == 0 or n_pos == n:
        return 0.0
    q = n_pos / n
    return -(q * math.log2(q) + (1 - q) * math.log2(1 - q))


def _oracle_majority(y):
    pos = int(np.sum(y > 0))
    return 1.0 if pos * 2 >= len(y) else -1.0


def _oracle_best_split(X, y, min_leaf):
    n = len(y)
    pos_total = int(np.sum(y > 0))
    parent = _oracle_entropy(pos_total, n)
    best = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        pos_prefix = np.cumsum(y[order] > 0)
        for i in range(n - 1):
            if values[i] == values[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            pos_left = int(pos_prefix[i])
            child = (n_left * _oracle_entropy(pos_left, n_left)
                     + n_right * _oracle_entropy(pos_total - pos_left, n_right)) / n
            gain = parent - child
            if best is None or gain > best[0] + 1e-12:
                threshold = 0.5 * (values[i] + values[i + 1])
                best = (gain, feature, threshold)
    return best


def _oracle_grow(X, y, depth, params):
    if (depth >= params.max_depth or len(y) < 2 * params.min_leaf
            or np.all(y > 0) or np.all(y <= 0)):
        return {"label": _oracle_majority(y)}
    split = _oracle_best_split(X, y, params.min_leaf)
    if split is None:
        return {"label": _oracle_majority(y)}
    _, feature, threshold = split
    mask = X[:, feature] <= threshold
    return {
        "feature": int(feature),
        "threshold": float(threshold),
        "left": _oracle_grow(X[mask], y[mask], depth + 1, params),
        "right": _oracle_grow(X[~mask], y[~mask], depth + 1, params),
    }


def _oracle_json(X, y, params):
    return DecisionTree(_oracle_grow(X, y, 0, params), X.shape[1]).to_json()


def _sample(family, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 90))
    d = int(rng.integers(1, 6))
    if family == "continuous":
        X = rng.normal(size=(n, d))
        y = np.where(X @ rng.normal(size=d) + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    elif family == "few-valued":
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        y = rng.choice([-1.0, 1.0], size=n)
    else:
        X = rng.integers(0, 2, size=(n, d)).astype(float)
        y = np.where(X[:, : min(d, 3)].sum(axis=1) % 2 == 1, 1.0, -1.0)
        if family == "noisy-parity":
            y[rng.random(n) < 0.1] *= -1.0
    params = TreeParams(max_depth=int(rng.integers(0, 9)),
                        min_leaf=int(rng.integers(1, 5)))
    return X, y, params


FAMILIES = ("continuous", "few-valued", "parity", "noisy-parity")


class TestAgainstScalarSearch:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_tree_as_scalar_search(self, family):
        for seed in range(60):
            X, y, params = _sample(family, seed)
            assert DecisionTree.fit(X, y, params).to_json() == _oracle_json(X, y, params), seed

    def test_scalar_certification_path_gives_the_same_tree(self, monkeypatch):
        # a certification margin of 1 sends every node with a second
        # allowed cut through the scalar recomputation
        calls = []
        exact = trees._entropy_exact
        monkeypatch.setattr(trees, "_CERTIFY", 1.0)
        monkeypatch.setattr(trees, "_entropy_exact",
                            lambda *args: calls.append(1) or exact(*args))
        for family in FAMILIES:
            for seed in range(8):
                X, y, params = _sample(family, seed)
                assert DecisionTree.fit(X, y, params).to_json() == _oracle_json(X, y, params)
        assert calls

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_rule_replay_matches_sequential_scan(self, seed):
        # gains on a grid of 0.5e-12, so that comparisons fall inside the
        # 1e-12 margin and right at it; -inf marks cuts that are not allowed
        rng = np.random.default_rng(seed)
        seen_close = False
        for _ in range(200):
            size = int(rng.integers(0, 40))
            gains = rng.integers(0, 12, size=size) * 0.5e-12 + 0.3
            gains[rng.random(size) < 0.3] = -np.inf
            kept, close = None, False
            for j, g in enumerate(gains.tolist()):
                if g == -np.inf:
                    continue
                if kept is not None:
                    close |= abs(g - (gains[kept] + 1e-12)) <= 1e-14
                if kept is None or g > gains[kept] + 1e-12:
                    kept = j
            assert trees._scan(gains) == (kept, close)
            seen_close |= close
        assert seen_close


class TestPredictMany:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_row_by_row_predict(self, family):
        for seed in range(10):
            X, y, params = _sample(family, seed)
            tree = DecisionTree.fit(X, y, params)
            probes = [X, np.random.default_rng(seed).normal(size=(20, X.shape[1]))]
            nodes = [tree.root]
            while nodes:
                node = nodes.pop()
                if "label" not in node:
                    # rows sitting exactly on a threshold go left
                    on_cut = X.copy()
                    on_cut[:, node["feature"]] = node["threshold"]
                    probes.append(on_cut)
                    nodes += [node["left"], node["right"]]
            probe = np.vstack(probes)
            assert np.array_equal(tree.predict_many(probe),
                                  np.array([tree.predict(x) for x in probe]))


@settings(max_examples=60, deadline=None)
@given(X=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  max_side=12),
                    elements=st.floats(-1e6, 1e6, allow_nan=False)),
       labels=st.lists(st.sampled_from([-1.0, 1.0]), min_size=12, max_size=12),
       max_depth=st.integers(0, 6), min_leaf=st.integers(1, 3))
def test_fitted_tree_survives_json_round_trip(X, labels, max_depth, min_leaf):
    tree = DecisionTree.fit(X, np.array(labels[:len(X)]),
                            TreeParams(max_depth=max_depth, min_leaf=min_leaf))
    clone = DecisionTree.from_json(tree.to_json())
    assert clone.to_json() == tree.to_json()
    assert np.array_equal(clone.predict_many(X), tree.predict_many(X))


class TestPresort:
    # one stable sort per fit, partitioned down the tree by the threshold mask
    A, B = 1 + 2**-52, 1 + 2**-51   # adjacent doubles whose midpoint is B

    def test_midpoint_rounding_up_sends_the_upper_value_left(self):
        a, b = self.A, self.B
        assert 0.5 * (a + b) == b
        X = np.array([[a, 0.0], [b, 1.0], [b, 0.0], [3.0, 1.0], [a, 1.0], [b, 0.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
        params = TreeParams(max_depth=4, min_leaf=1)
        tree = DecisionTree.fit(X, y, params)
        assert tree.to_json() == _oracle_json(X, y, params)
        assert tree.root["threshold"] == b

    def test_midpoint_at_the_largest_value_leaves_the_right_child_empty(self):
        X = np.array([[self.A], [self.B]])
        y = np.array([-1.0, 1.0])
        params = TreeParams(max_depth=3, min_leaf=1)
        tree = DecisionTree.fit(X, y, params)
        assert tree.to_json() == _oracle_json(X, y, params)
        assert tree.root["right"] == {"label": 1.0}

    @settings(max_examples=40, deadline=None)
    @given(codes=hnp.arrays(np.int64, st.tuples(st.integers(1, 25), st.integers(1, 4)),
                            elements=st.integers(0, 3)),
           levels=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4,
                           max_size=4),
           copies=st.integers(1, 3),
           signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=75, max_size=75),
           max_depth=st.integers(0, 8), min_leaf=st.integers(1, 4))
    def test_duplicate_heavy_columns_match_the_scalar_search(
            self, codes, levels, copies, signs, max_depth, min_leaf):
        # few distinct values per column and every row repeated `copies` times,
        # each copy with its own label
        X = np.repeat(np.array(levels)[codes], copies, axis=0)
        y = np.array(signs[:len(X)])
        params = TreeParams(max_depth=max_depth, min_leaf=min_leaf)
        assert DecisionTree.fit(X, y, params).to_json() == _oracle_json(X, y, params)

    def test_every_tree_of_a_bootstrap_experiment_matches_the_scalar_search(
            self, monkeypatch):
        from iwal import harness

        fitted = []
        fit = DecisionTree.fit.__func__

        def recording_fit(cls, X, y, params=TreeParams()):
            tree = fit(cls, X, y, params)
            fitted.append((np.array(X, dtype=float), np.array(y, dtype=float),
                           params, tree.to_json()))
            return tree

        monkeypatch.setattr(DecisionTree, "fit", classmethod(recording_fit))
        config = harness.ExperimentConfig.from_dict({
            "dataset": {"kind": "sphere", "dim": 5, "noise": 0.1},
            "strategy": "bootstrap", "loss_kind": "logistic",
            "train_size": 300, "test_size": 50, "seed": 11})
        harness.run_experiment(config)
        # the committee's with-replacement resamples repeat rows
        assert any(len(np.unique(X, axis=0)) < len(X) for X, *_ in fitted)
        assert len(fitted) > 10
        for X, y, params, tree in fitted:
            assert tree == _oracle_json(X, y, params)

    def test_one_argsort_per_fit_whatever_the_depth(self, monkeypatch, rng):
        X = rng.normal(size=(400, 3))
        y = rng.choice([-1.0, 1.0], size=400)
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *args, **kw: calls.append(1) or argsort(*args, **kw))
        tree = DecisionTree.fit(X, y, TreeParams(max_depth=8, min_leaf=1))
        assert tree.depth() == 8
        assert len(calls) <= 1

    def test_no_feature_gives_the_majority_leaf(self):
        tree = DecisionTree.fit(np.zeros((3, 0)), np.array([1.0, -1.0, 1.0]))
        assert tree.root == {"label": 1.0} and tree.n_features == 0


class TestDepthwiseSearch:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_selection_matches_sequential_scan(self, seed):
        # the gain grid of the replay test, many nodes packed side by side as
        # column segments of one (features, columns) matrix
        rng = np.random.default_rng(seed)
        picked = flagged = 0
        for _ in range(20):
            d = int(rng.integers(1, 5))
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 30)))
            blocks = []
            for size in sizes.tolist():
                gains = rng.integers(0, 12, size=(d, size)) * 0.5e-12 + 0.3
                gains[rng.random((d, size)) < 0.3] = -np.inf
                blocks.append(gains)
            feature, column, exact = trees._select(np.concatenate(blocks, axis=1), sizes)
            starts = np.cumsum(sizes) - sizes
            for k, gains in enumerate(blocks):
                kept = None
                for j, g in enumerate(gains.ravel().tolist()):
                    if g != -np.inf and (kept is None or g > gains.flat[kept] + 1e-12):
                        kept = j
                if kept is None:
                    assert feature[k] == -1 and not exact[k]
                elif exact[k]:
                    flagged += 1
                else:
                    assert (feature[k], column[k] - starts[k]) == divmod(kept, gains.shape[1])
                    picked += 1
        assert picked and flagged

    def test_one_search_per_depth(self, monkeypatch, rng):
        X = rng.normal(size=(400, 3))
        y = rng.choice([-1.0, 1.0], size=400)
        calls = []
        search = trees._split_depth
        monkeypatch.setattr(trees, "_split_depth",
                            lambda *args: calls.append(1) or search(*args))
        tree = DecisionTree.fit(X, y, TreeParams(max_depth=8, min_leaf=1))
        assert tree.depth() == 8
        assert 1 <= len(calls) <= 8

    def test_fitted_arrays_survive_the_dict_round_trip(self, rng):
        # the nested dict is derived from the node arrays, and back
        X = rng.normal(size=(150, 4))
        y = np.where(X[:, 0] * X[:, 1] + 0.3 * rng.normal(size=150) > 0, 1.0, -1.0)
        tree = DecisionTree.fit(X, y, TreeParams(max_depth=6, min_leaf=1))
        clone = DecisionTree(tree.root, 4)
        for name in ("feature", "threshold", "left", "right", "label"):
            assert np.array_equal(getattr(tree, name), getattr(clone, name)), name
        leaves = tree.left == np.arange(len(tree.left))
        assert np.array_equal(leaves, tree.right == np.arange(len(tree.right)))
        assert set(tree.label[leaves]) <= {-1.0, 1.0}

    def test_non_finite_features_rejected(self):
        X = np.array([[0.0], [np.inf], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            DecisionTree.fit(X, np.array([1.0, -1.0, 1.0]))


def _split(feature, threshold, left, right):
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


class TestFromDictValidation:
    LEAF, OTHER = {"label": 1.0}, {"label": -1.0}

    @pytest.mark.parametrize("feature", [7, 5, -1, 1.0, True, "0"])
    def test_feature_outside_the_features_rejected(self, feature):
        payload = {"n_features": 5, "root": _split(feature, 0.0, self.LEAF, self.OTHER)}
        with pytest.raises(ValueError, match="root has feature"):
            DecisionTree.from_dict(payload)

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan, None, "0.5"])
    def test_threshold_not_finite_rejected(self, threshold):
        with pytest.raises(ValueError, match="root has threshold"):
            DecisionTree(_split(0, threshold, self.LEAF, self.OTHER), 2)

    def test_missing_child_rejected_with_its_path(self):
        inner = {"feature": 1, "threshold": 0.5, "left": self.LEAF}
        with pytest.raises(ValueError, match=r"root\.right has no right"):
            DecisionTree(_split(0, 0.0, self.LEAF, inner), 2)

    @pytest.mark.parametrize("label", [0.3, 0.0, 2, True, None, "1"])
    def test_leaf_label_not_a_sign_rejected(self, label):
        with pytest.raises(ValueError, match=r"root\.left\.right has label"):
            DecisionTree(_split(0, 0.0, _split(1, 1.0, self.OTHER, {"label": label}),
                                self.LEAF), 2)

    def test_node_that_is_not_a_dict_rejected(self):
        with pytest.raises(ValueError, match=r"root\.left is not a dict"):
            DecisionTree(_split(0, 0.0, [1.0], self.LEAF), 2)

    def test_cycle_rejected(self):
        root = _split(0, 0.0, self.LEAF, None)
        root["right"] = root
        with pytest.raises(ValueError, match="appears twice"):
            DecisionTree(root, 1)

    def test_n_features_must_be_a_count(self):
        for n_features in (-1, 2.0, None):
            with pytest.raises(ValueError, match="n_features"):
                DecisionTree(self.LEAF, n_features)

    def test_valid_hand_made_tree_round_trips(self):
        root = _split(1, -0.25, self.OTHER, _split(0, 2.0, self.LEAF, self.OTHER))
        tree = DecisionTree.from_dict({"n_features": 2, "root": root})
        assert tree.root == root and tree.depth() == 2
        X = np.array([[0.0, -1.0], [1.0, 0.0], [3.0, 0.0], [0.0, -0.25]])
        assert np.array_equal(tree.predict_many(X), [-1.0, 1.0, -1.0, -1.0])
        assert [tree.predict(x) for x in X] == [-1.0, 1.0, -1.0, -1.0]


class TestEmptyPredictMany:
    def test_empty_rows_of_the_wrong_width_rejected(self, rng):
        tree = DecisionTree.fit(rng.normal(size=(20, 5)), rng.choice([-1.0, 1.0], size=20))
        with pytest.raises(DimensionMismatchError):
            tree.predict_many(np.zeros((0, 3)))
        with pytest.raises(DimensionMismatchError):
            tree.predict_many(np.zeros(0))
        assert tree.predict_many(np.zeros((0, 5))).shape == (0,)


class TestPredictShape:
    @pytest.mark.parametrize("shape", ((), (5, 5), (1, 5), (4,), (6,)))
    def test_scalar_predict_rejects_every_other_shape(self, rng, shape):
        tree = DecisionTree.fit(rng.normal(size=(20, 5)), rng.choice([-1.0, 1.0], size=20))
        with pytest.raises(DimensionMismatchError):
            tree.predict(np.zeros(shape))
        assert tree.predict(np.zeros(5)) in (-1.0, 1.0)
