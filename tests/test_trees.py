import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal import trees
from iwal.errors import DimensionMismatchError
from iwal.trees import DecisionTree, TreeParams

from conftest import assert_same_tree


class TestFit:
    def test_pure_labels_give_single_leaf(self, rng):
        X = rng.normal(size=(30, 3))
        y = np.ones(30)
        tree = DecisionTree.fit(X, y)
        assert tree.label.tolist() == [1.0]
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
            if tree.left[node] == node:
                assert len(Xn) >= 5
                return
            mask = Xn[:, tree.feature[node]] <= tree.threshold[node]
            check(tree.left[node], Xn[mask])
            check(tree.right[node], Xn[~mask])

        assert tree.depth() > 0
        check(0, X)

    def test_deterministic_given_data(self, rng):
        X = rng.normal(size=(80, 3))
        y = rng.choice([-1.0, 1.0], size=80)
        a = DecisionTree.fit(X, y)
        b = DecisionTree.fit(X, y)
        assert_same_tree(a, b)

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

    def test_labels_are_signs(self, rng):
        X = rng.normal(size=(120, 3))
        y = rng.choice([-1.0, 1.0], size=120)
        tree = DecisionTree.fit(X, y)
        out = tree.predict_many(rng.normal(size=(40, 3)))
        assert set(np.unique(out)) <= {-1.0, 1.0}


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


def _oracle_tree(X, y, params):
    """The scalar search's tree, its nodes numbered breadth first, each
    node's left child before its right; a leaf is its own child."""
    feature, threshold, left, right, label = [], [], [], [], []
    pending, depth = [(X, y, 0)], 0
    for i, (Xn, yn, level) in enumerate(pending):   # pending grows as it is read
        depth = max(depth, level)
        split = None
        if not (level >= params.max_depth or len(yn) < 2 * params.min_leaf
                or np.all(yn > 0) or np.all(yn <= 0)):
            split = _oracle_best_split(Xn, yn, params.min_leaf)
        if split is None:
            feature.append(0)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
            label.append(_oracle_majority(yn))
            continue
        _, f, t = split
        mask = Xn[:, f] <= t
        feature.append(f)
        threshold.append(t)
        left.append(len(pending))
        right.append(len(pending) + 1)
        label.append(0.0)
        pending += [(Xn[mask], yn[mask], level + 1), (Xn[~mask], yn[~mask], level + 1)]
    return DecisionTree(X.shape[1], np.array(feature, dtype=np.intp), np.array(threshold),
                        np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                        np.array(label), depth)


def _assert_oracle_tree(tree, X, y, params):
    assert_same_tree(tree, _oracle_tree(X, y, params))


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
            _assert_oracle_tree(DecisionTree.fit(X, y, params), X, y, params)

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
                _assert_oracle_tree(DecisionTree.fit(X, y, params), X, y, params)
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
            for node in np.flatnonzero(tree.left != np.arange(len(tree.left))):
                # rows sitting exactly on a threshold go left
                on_cut = X.copy()
                on_cut[:, tree.feature[node]] = tree.threshold[node]
                probes.append(on_cut)
            probe = np.vstack(probes)
            assert np.array_equal(tree.predict_many(probe),
                                  np.array([tree.predict(x) for x in probe]))


@settings(max_examples=60, deadline=None)
@given(X=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  max_side=12),
                    elements=st.floats(-1e6, 1e6, allow_nan=False)),
       labels=st.lists(st.sampled_from([-1.0, 1.0]), min_size=12, max_size=12),
       max_depth=st.integers(0, 6), min_leaf=st.integers(1, 3))
def test_fitted_tree_on_wide_ranging_features_matches_the_scalar_search(
        X, labels, max_depth, min_leaf):
    y = np.array(labels[:len(X)])
    params = TreeParams(max_depth=max_depth, min_leaf=min_leaf)
    _assert_oracle_tree(DecisionTree.fit(X, y, params), X, y, params)


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
        _assert_oracle_tree(tree, X, y, params)
        assert tree.threshold[0] == b

    def test_midpoint_at_the_largest_value_leaves_the_right_child_empty(self):
        X = np.array([[self.A], [self.B]])
        y = np.array([-1.0, 1.0])
        params = TreeParams(max_depth=3, min_leaf=1)
        tree = DecisionTree.fit(X, y, params)
        _assert_oracle_tree(tree, X, y, params)
        right = tree.right[0]
        assert tree.left[right] == right == tree.right[right] and tree.label[right] == 1.0

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
        _assert_oracle_tree(DecisionTree.fit(X, y, params), X, y, params)

    def test_every_tree_of_a_bootstrap_experiment_matches_the_scalar_search(
            self, monkeypatch):
        from iwal import harness

        fitted, forests = [], []
        fit_many, grow = DecisionTree.fit_many.__func__, trees._grow

        def recording_fit_many(cls, X, y, subsets, params=TreeParams()):
            X, y = np.array(X, dtype=float), np.array(y, dtype=float)
            subsets = [np.array(rows) for rows in subsets]
            grown = fit_many(cls, X, y, subsets, params)
            fitted.extend((X[rows], y[rows], params, tree)
                          for rows, tree in zip(subsets, grown))
            return grown

        monkeypatch.setattr(DecisionTree, "fit_many", classmethod(recording_fit_many))
        monkeypatch.setattr(trees, "_grow", lambda X, pos, order, sizes, params:
                            forests.append(len(sizes)) or grow(X, pos, order, sizes, params))
        config = harness.ExperimentConfig.from_dict({
            "dataset": {"kind": "sphere", "dim": 5, "noise": 0.1},
            "strategy": "bootstrap", "loss_kind": "logistic",
            "train_size": 300, "test_size": 50, "seed": 11})
        harness.run_experiment(config)
        # the committee's with-replacement resamples repeat rows
        assert any(len(np.unique(X, axis=0)) < len(X) for X, *_ in fitted)
        assert len(fitted) > 10
        # the trees were grown as forests
        assert sum(forests) == len(fitted) > len(forests)
        for X, y, params, tree in fitted:
            _assert_oracle_tree(tree, X, y, params)

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
        assert tree.label.tolist() == [1.0] and tree.n_features == 0


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
            # the allowed cuts, as flat indices into the packed matrix
            packed = np.concatenate(blocks, axis=1)
            cells = np.flatnonzero(packed != -np.inf)
            node = np.arange(len(sizes)).repeat(sizes)[cells % packed.shape[1]]
            feature, column, exact = trees._select(cells, packed.ravel()[cells], node,
                                                   len(sizes), packed.shape[1])
            starts = np.cumsum(sizes) - sizes
            for k, gains in enumerate(blocks):
                kept = None
                for j, g in enumerate(gains.ravel().tolist()):
                    if g != -np.inf and (kept is None or g > gains.flat[kept] + 1e-12):
                        kept = j
                if kept is None:
                    assert (feature[k], column[k]) == (-1, 0) and not exact[k]
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

    def test_fitted_arrays_are_numbered_breadth_first(self, rng):
        # the forest's numbering cut down to one tree is the tree's own
        # breadth-first numbering
        X = rng.normal(size=(150, 4))
        y = np.where(X[:, 0] * X[:, 1] + 0.3 * rng.normal(size=150) > 0, 1.0, -1.0)
        params = TreeParams(max_depth=6, min_leaf=1)
        tree = DecisionTree.fit(X, y, params)
        assert tree.depth() == 6
        _assert_oracle_tree(tree, X, y, params)
        leaves = tree.left == np.arange(len(tree.left))
        assert np.array_equal(leaves, tree.right == np.arange(len(tree.right)))
        assert set(tree.label[leaves]) <= {-1.0, 1.0}

    def test_non_finite_features_rejected(self):
        X = np.array([[0.0], [np.inf], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            DecisionTree.fit(X, np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("value", [-np.inf, np.nan])
    def test_negative_infinite_and_nan_features_rejected(self, value):
        X = np.array([[0.0, 2.0], [1.0, value], [2.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DecisionTree.fit(X, np.array([1.0, -1.0, 1.0]))


class TestConstructor:
    def test_hand_made_tree_predicts_by_its_arrays(self):
        # root: x[1] <= -0.25 ? -1 : (x[0] <= 2.0 ? +1 : -1)
        tree = DecisionTree(2, np.array([1, 0, 0, 0, 0]), np.array([-0.25, 0.0, 2.0, 0.0, 0.0]),
                            np.array([1, 1, 3, 3, 4]), np.array([2, 1, 4, 3, 4]),
                            np.array([0.0, -1.0, 0.0, 1.0, -1.0]), 2)
        # the last row lies on the root's threshold and goes left
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


def _dataset(kind, n, d, rng):
    """(X, y) of one of the shapes `fit_many` must grow like `fit`."""
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X += 0.25 * rng.normal(size=(n, d)) * (rng.random(d) < 0.5)
    y = rng.choice([-1.0, 1.0], size=n)
    if kind == "single-row":
        X, y = X[:1], y[:1]
    elif kind == "pure-label":
        y[:] = y[0]
    elif kind == "constant-feature" and d:
        X[:, rng.integers(d)] = 1.5
    elif kind == "parity" and d:
        y = np.where(X[:, :2].sum(axis=1) % 2 < 1, 1.0, -1.0)
    return X, y


KINDS = ("random", "single-row", "pure-label", "constant-feature", "parity")


class TestFitMany:
    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(0, 4),
           shapes=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 400)),
                           min_size=1, max_size=12),
           large_at=st.one_of(st.none(), st.integers(0, 12)),
           seed=st.integers(0, 2**32 - 1),
           max_depth=st.integers(0, 8), min_leaf=st.integers(1, 4))
    def test_same_trees_as_one_fit_per_subset(self, d, shapes, large_at, seed,
                                              max_depth, min_leaf):
        rng = np.random.default_rng(seed)
        datasets = [_dataset(kind, n, d, rng) for kind, n in shapes]
        if large_at is not None:
            # one dataset above the forest bound, grown alone (a dataset
            # without features is sorted as one constant column)
            datasets.insert(min(large_at, len(datasets)), _dataset(
                "random", trees._FOREST_CELLS // max(d, 1) + 37, d, rng))
        # the datasets as consecutive blocks of one shared (X, y), then nested
        # prefixes and costing-style subsets of the prefixes, as the bootstrap
        # arms pass them
        X = np.concatenate([X for X, _ in datasets])
        y = np.concatenate([y for _, y in datasets])
        ends = np.cumsum([len(y) for _, y in datasets])
        subsets = [np.arange(end - len(y), end) for end, (_, y) in zip(ends, datasets)]
        heads = np.sort(rng.integers(1, min(len(y), 900) + 1, size=2))
        subsets += [np.arange(n) for n in heads]
        subsets += [rows for rows in (np.flatnonzero(rng.random(n) < rng.uniform(0.05, 1))
                                      for n in heads) if len(rows)]
        params = TreeParams(max_depth=max_depth, min_leaf=min_leaf)
        grown = DecisionTree.fit_many(X, y, iter(subsets), params)
        assert len(grown) == len(subsets)
        for rows, tree in zip(subsets, grown):
            alone = DecisionTree.fit(X[rows], y[rows], params)
            assert tree.n_features == alone.n_features == d
            assert tree.depth() == alone.depth()
            for name in ("feature", "threshold", "left", "right", "label"):
                a, b = getattr(tree, name), getattr(alone, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_each_forest_holds_at_most_the_cell_bound(self, monkeypatch, rng):
        # the bound counts rows times features; with 3 features it allows
        # `cap` rows
        d = 3
        cap = trees._FOREST_CELLS // d
        sizes = [1, cap // 3, cap // 3, cap // 4, cap + 952, 5, cap, cap - 1, 1,
                 cap * 3 // 5, cap * 9 // 20, 60]
        n = max(sizes)
        X, y = rng.normal(size=(n, d)), rng.choice([-1.0, 1.0], size=n)
        subsets = [np.sort(rng.choice(n, size=k, replace=False)) for k in sizes]
        read, forests = [], []
        grow = trees._grow

        def spy(X, pos, order, roots, params):
            forests.append((X.shape[1], roots.tolist(), len(read)))
            return grow(X, pos, order, roots, params)

        def lazily():
            for rows in subsets:
                read.append(len(rows))
                yield rows

        monkeypatch.setattr(trees, "_grow", spy)
        grown = DecisionTree.fit_many(X, y, lazily(), TreeParams(max_depth=3))
        assert len(grown) == len(subsets)
        for rows, roots, _ in forests:
            assert rows == sum(roots)
            assert rows * d <= trees._FOREST_CELLS or len(roots) == 1
        # consecutive subsets, in order, greedily packed; only the subset
        # above the bound forms a forest over it
        assert [k for _, roots, _ in forests for k in roots] == sizes
        assert [roots for _, roots, _ in forests] == [
            sizes[0:4], [cap + 952], [5], [cap], [cap - 1, 1], [cap * 3 // 5],
            [cap * 9 // 20, 60]]
        assert [rows > cap for rows, *_ in forests].count(True) == 1
        # a forest is grown once the next subset would overflow it: read lazily
        assert [seen for *_, seen in forests] == [5, 6, 7, 8, 10, 11, 12]

    @pytest.mark.parametrize("bad, message", [
        (np.zeros(0, dtype=int), "empty"),
        (np.array([3, 1, 4]), "strictly increasing"),
        (np.array([1, 1, 2]), "strictly increasing"),
        (np.array([0, 5]), r"within 0\.\.4"),
        (np.array([-1, 2]), r"within 0\.\.4"),
        (np.array([0.0, 1.0]), "integer row indices"),
        (np.array([True, False, True]), "integer row indices"),
        (np.array([[0, 1]]), "integer row indices"),
    ])
    def test_bad_subset_named_by_its_index(self, bad, message, rng):
        X, y = rng.normal(size=(5, 3)), rng.choice([-1.0, 1.0], size=5)
        good = [np.arange(5), np.array([0, 2, 4])]
        with pytest.raises(ValueError, match=f"subset 2: .*{message}"):
            DecisionTree.fit_many(X, y, good + [bad] + good, TreeParams())

    @pytest.mark.parametrize("X, y, message", [
        (np.array([[0.0, np.nan, 1.0]]), np.ones(1), "finite"),
        (np.array([[0.0, np.inf, 1.0]]), np.ones(1), "finite"),
        (np.zeros((3, 3)), np.ones(2), "one label per row"),
        (np.zeros(3), np.ones(3), "one label per row"),
    ])
    def test_bad_features_or_labels_rejected(self, X, y, message):
        with pytest.raises(ValueError, match=message):
            DecisionTree.fit_many(X, y, [np.arange(len(y))], TreeParams())

    def test_one_argsort_per_call_whatever_the_forests(self, monkeypatch, rng):
        # every feature is sorted once over the shared rows; each tree's root
        # order is that order filtered to its rows
        X = rng.normal(size=(trees._FOREST_CELLS // 4, 4))
        y = rng.choice([-1.0, 1.0], size=len(X))
        calls, forests = [], []
        argsort, grow = np.argsort, trees._grow
        monkeypatch.setattr(np, "argsort",
                            lambda *args, **kw: calls.append(1) or argsort(*args, **kw))
        monkeypatch.setattr(trees, "_grow", lambda *args:
                            forests.append(1) or grow(*args))
        # eighths of the rows a forest of 4 features holds: six forests
        cap = trees._FOREST_CELLS // 4
        grown = DecisionTree.fit_many(X, y, (np.arange(n) for n in
                                             range(cap // 8, cap + 1, cap // 8)),
                                      TreeParams(max_depth=8, min_leaf=1))
        assert len(grown) == 8 and len(forests) == 6
        assert max(tree.depth() for tree in grown) == 8
        assert len(calls) == 1


class TestBoundaryCuts:
    """Only cuts with a label change across them or next to a blocked cut
    are searched (the module docstring's candidate set)."""

    @settings(max_examples=60, deadline=None)
    @given(codes=hnp.arrays(np.int64, st.tuples(st.integers(2, 30), st.integers(1, 3)),
                            elements=st.integers(0, 3)),
           signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=30, max_size=30),
           min_leaf=st.integers(1, 5), max_depth=st.integers(1, 6),
           resamples=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_stacked_resamples_of_duplicate_heavy_columns_match_the_scalar_search(
            self, codes, signs, min_leaf, max_depth, resamples, seed):
        # with-replacement resamples of few-valued rows, stacked as blocks the
        # way the committee grows them; in each, feature 0's least value sits
        # on min_leaf + 1 rows, so the cut at the min_leaf edge is blocked
        n = len(codes)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=(resamples, n))
        X, y = codes[rows.ravel()].astype(float), np.array(signs[:n])[rows.ravel()]
        blocks = np.arange(resamples * n).reshape(resamples, n)
        X[blocks[:, :min_leaf + 1].ravel(), 0] = -1.0
        params = TreeParams(max_depth=max_depth, min_leaf=min_leaf)
        grown = DecisionTree.fit_many(X, y, blocks, params)
        for block, tree in zip(blocks, grown):
            _assert_oracle_tree(tree, X[block], y[block], params)

    def test_first_allowed_cut_after_a_blocked_min_leaf_edge_is_searched(self):
        # the cut leaving min_leaf = 2 rows on the left lies between equal
        # values; the next one, between 1 and 4, has + on both sides and is
        # the only allowed cut (the 4s block the rest, min_leaf the last)
        X = np.array([[1.0], [1.0], [1.0], [4.0], [4.0], [4.0], [4.0], [5.0]])
        y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        params = TreeParams(max_depth=1, min_leaf=2)
        tree = DecisionTree.fit(X, y, params)
        assert tree.threshold[0] == 2.5
        _assert_oracle_tree(tree, X, y, params)

    def test_node_size_bound_is_derived_from_the_band(self):
        # the least gap between a cut inside a stretch of one label and the
        # stretch's best end, 1 / (2 ln2 n^3), exceeds the band plus twice the
        # rounding allowance up to the bound and not beyond it
        def gap(n):
            return 1 / (2 * math.log(2) * n**3)
        allowance = trees._MIN_GAIN + trees._NEAR + 2 * trees._CERTIFY
        assert gap(trees._BOUNDARY_ROWS) > allowance >= gap(trees._BOUNDARY_ROWS + 1)

    def _root_cells(self, monkeypatch, X, y):
        sizes, entropy = [], trees._entropy_many
        monkeypatch.setattr(trees, "_entropy_many", lambda n_pos, n:
                            sizes.append(n.size) or entropy(n_pos, n))
        params = TreeParams(max_depth=1, min_leaf=1)
        _assert_oracle_tree(DecisionTree.fit(X, y, params), X, y, params)
        return sizes[0]

    def test_a_node_above_the_bound_searches_every_allowed_cut(self, monkeypatch):
        # long runs of one label: below the bound only the run ends are
        # searched, above it every cut is
        n = trees._BOUNDARY_ROWS + 1
        X = np.linspace(-1.0, 1.0, n)[:, None]
        y = np.where(np.sin(40 * X[:, 0]) > 0, 1.0, -1.0)
        assert self._root_cells(monkeypatch, X, y) == n - 1
        below = self._root_cells(monkeypatch, X[1:], y[1:])
        assert below < 100 and below == np.count_nonzero(np.diff(y[1:])) + 2
