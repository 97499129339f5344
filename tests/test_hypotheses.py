import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from iwal.engine import ArrayOracle, Engine
from iwal.errors import DimensionMismatchError
from iwal.hypotheses import (ConstantPredictor, FiniteClass, LinearBall,
                             LinearPredictor, TablePredictor,
                             ThresholdPredictor, WeightedExample,
                             WeightedSample, erm_weighted)
from iwal.losses import LossFunction

from conftest import random_weighted_examples, weighted_total_loss


class TestPredict:
    def test_dot_product(self):
        h = LinearPredictor(np.array([1.0, 0.0]), range_bound=1.0)
        assert h.predict(np.array([0.5, 7.0])) == 0.5

    def test_clamped_at_range_bound(self):
        h = LinearPredictor(np.array([2.0, 0.0]), range_bound=1.0)
        assert h.predict(np.array([1.0, 0.0])) == 1.0

    def test_zero_predictor(self, rng):
        h = LinearPredictor(np.zeros(3), range_bound=1.0)
        assert h.predict(rng.normal(size=3)) == 0.0

    def test_dimension_mismatch(self):
        h = LinearPredictor(np.array([1.0, 2.0]), range_bound=1.0)
        with pytest.raises(DimensionMismatchError):
            h.predict(np.array([1.0, 2.0, 3.0]))

    def test_threshold_predictor_signs(self):
        h = ThresholdPredictor(np.array([1.0, -1.0]))
        assert h.predict(np.array([1.0, 0.0])) == 1.0
        assert h.predict(np.array([0.0, 1.0])) == -1.0
        assert h.predict(np.array([0.0, 0.0])) == 1.0  # sign(0) convention

    def test_table_predictor(self):
        h = TablePredictor({(0.0, 1.0): 0.5})
        assert h.predict(np.array([0.0, 1.0])) == 0.5
        with pytest.raises(DimensionMismatchError):
            h.predict(np.array([9.0, 9.0]))

    def test_predict_many_matches_scalar(self, rng):
        h = LinearPredictor(rng.normal(size=4), range_bound=1.0)
        X = rng.normal(size=(10, 4))
        batch = h.predict_many(X)
        for x, z in zip(X, batch):
            assert z == pytest.approx(h.predict(x))


class TestPredictShape:
    PREDICTORS = (LinearPredictor(np.array([1.0, -2.0, 0.5]), range_bound=1.0),
                  ThresholdPredictor(np.array([1.0, -2.0, 0.5])))

    @pytest.mark.parametrize("h", PREDICTORS)
    @pytest.mark.parametrize("shape", ((), (3,), (0,), (4, 2), (0, 2), (2, 3, 1)))
    def test_predict_many_rejects_anything_but_rows_of_the_dimension(self, h, shape):
        with pytest.raises(DimensionMismatchError):
            h.predict_many(np.zeros(shape))

    @pytest.mark.parametrize("h", PREDICTORS)
    def test_predict_many_keeps_rows_and_the_empty_matrix(self, h, rng):
        X = rng.normal(size=(7, 3))
        assert h.predict_many(X).tolist() == [h.predict(x) for x in X]
        assert h.predict_many(np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("h", PREDICTORS)
    @pytest.mark.parametrize("shape", ((), (2,), (1, 3), (3, 3)))
    def test_scalar_predict_rejects_anything_but_one_point(self, h, shape):
        with pytest.raises(DimensionMismatchError):
            h.predict(np.zeros(shape))


class TestWeightedExample:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedExample(np.zeros(2), 1.0, 0.0)

    def test_rejects_infinite_weight(self):
        # 1/p overflows to inf for a subnormal p
        with pytest.raises(ValueError, match="finite"):
            WeightedExample(np.zeros(2), 1.0, np.inf)
        with pytest.raises(ValueError, match="finite"):
            WeightedSample().append(np.zeros(1), 1.0, np.inf)

    def test_rejects_label_outside_unit_interval(self):
        with pytest.raises(ValueError):
            WeightedExample(np.zeros(2), 2.0, 1.0)

    def test_accepts_zero_label(self):
        WeightedExample(np.zeros(2), 0.0, 3.0)


class TestConstantPredictorShape:
    @pytest.mark.parametrize("shape", ((), (3,), (0,), (2, 3, 1)))
    def test_predict_many_rejects_anything_but_rows(self, shape):
        with pytest.raises(DimensionMismatchError):
            ConstantPredictor(0.5).predict_many(np.zeros(shape))

    @pytest.mark.parametrize("shape", ((4, 2), (1, 7), (0, 3)))
    def test_predict_many_gives_one_value_per_row_of_any_width(self, shape):
        assert ConstantPredictor(0.5).predict_many(np.zeros(shape)).tolist() == \
            [0.5] * shape[0]


class TestWeightedSample:
    def test_columns_keep_every_row_across_growth(self, rng):
        X = rng.normal(size=(100, 3))
        y = rng.choice([-1.0, 0.0, 1.0], size=100)
        w = rng.uniform(1.0, 9.0, size=100)
        sample = WeightedSample()
        for i in range(100):
            sample.append(X[i], y[i], w[i])
            assert len(sample) == i + 1
        assert np.array_equal(sample.X, X)
        assert np.array_equal(sample.y, y)
        assert np.array_equal(sample.w, w)
        rows = list(sample)
        assert all(isinstance(e, WeightedExample) for e in rows)
        assert [e.weight for e in rows] == w.tolist()

    @pytest.mark.parametrize("row, error", [
        ((np.zeros(2), 1.0, 0.0), ValueError),
        ((np.zeros(2), 1.0, float("nan")), ValueError),
        ((np.zeros(2), 1.5, 1.0), ValueError),
        ((np.zeros(3), 1.0, 1.0), DimensionMismatchError),
        ((np.zeros((1, 2)), 1.0, 1.0), DimensionMismatchError),
    ])
    def test_rejected_row_leaves_the_sample_unchanged(self, row, error):
        sample = WeightedSample((np.ones(2), 1.0, 2.0) for _ in range(16))
        with pytest.raises(error):
            sample.append(*row)
        assert len(sample) == 16
        assert np.array_equal(sample.X, np.ones((16, 2)))

    def test_first_row_fixes_the_width(self):
        with pytest.raises(DimensionMismatchError):
            WeightedSample([(np.zeros((1, 2)), 1.0, 1.0)])
        sample = WeightedSample([(np.zeros(4), 1.0, 1.0)])
        assert sample.X.shape == (1, 4)

    def test_head_keeps_the_first_rows(self, rng):
        sample = random_weighted_examples(rng, 20, 3)
        for n in (0, 1, 13, 20):
            head = sample.head(n)
            assert len(head) == n
            for name in ("X", "y", "w"):
                assert np.array_equal(getattr(head, name), getattr(sample, name)[:n])
        head = sample.head(5)
        head.append(np.zeros(3), 1.0, 1.0)     # grows into its own columns
        assert len(head) == 6 and len(sample) == 20
        assert not np.array_equal(sample.X[5], np.zeros(3))

    def test_sum_concatenates_rows_in_order(self, rng):
        a = random_weighted_examples(rng, 5, 2)
        b = random_weighted_examples(rng, 7, 2)
        empty = WeightedSample()
        joined = a + b
        assert np.array_equal(joined.X, np.concatenate([a.X, b.X]))
        assert np.array_equal(joined.w, np.concatenate([a.w, b.w]))
        assert np.array_equal((empty + b).y, b.y)
        assert np.array_equal((a + empty).y, a.y)
        assert len(empty + empty) == 0
        joined.append(np.ones(2), 1.0, 1.0)
        assert len(joined) == 13 and len(a) == 5


class _ScriptedThreshold:
    """A threshold stub that returns the scripted probabilities in turn."""

    def __init__(self, probabilities):
        self.probabilities = iter(probabilities)

    def attach(self, engine):
        pass

    def probability(self, x):
        return next(self.probabilities)

    def record(self, x, y, p, queried):
        pass


class _AlwaysQuery:
    """A coin that always comes up: random() = 0 < p."""

    def random(self):
        return 0.0


def finite_erm(cls, sample, loss):
    """The engine's finite-class ERM after a stream that queries each row of
    `sample` at p = 1/weight: (minimizer, its weighted loss sum, the engine's
    sample, whose weights are 1/p)."""
    engine = Engine(loss, _ScriptedThreshold((1.0 / sample.w).tolist()), _AlwaysQuery(),
                    hypothesis_class=cls)
    oracle = ArrayOracle(sample.y)
    for x in sample.X:
        engine.step(x, oracle)
    return engine.refresh_hypothesis(), float(engine.member_sums.min()), engine.sample


class TestFiniteErm:
    def test_only_consistent_member_wins(self):
        cls = FiniteClass((ConstantPredictor(1.0), ConstantPredictor(-1.0)))
        loss = LossFunction("zero-one")
        sample = WeightedSample([(np.array([0.3]), 1.0, 2.0)])
        winner, total, _ = finite_erm(cls, sample, loss)
        assert winner is cls.members[0] and total == 0.0

    def test_empty_sample_returns_first_member(self):
        cls = FiniteClass((ConstantPredictor(-1.0), ConstantPredictor(1.0)))
        winner, total, _ = finite_erm(cls, WeightedSample(), LossFunction("zero-one"))
        assert winner is cls.members[0] and total == 0.0

    def test_matches_brute_force_on_random_instances(self, rng):
        loss = LossFunction("zero-one")
        for _ in range(20):
            size = int(rng.integers(2, 9))
            points = rng.normal(size=(16, 2))
            members = tuple(
                ThresholdPredictor(rng.normal(size=2)) for _ in range(size)
            )
            cls = FiniteClass(members)
            sample = WeightedSample()
            for _ in range(10):
                sample.append(points[rng.integers(16)],
                              rng.choice([-1.0, 1.0]),
                              rng.uniform(1.0, 4.0))
            winner, total, sample = finite_erm(cls, sample, loss)
            totals = [weighted_total_loss(h, sample, loss) for h in members]
            # first minimizer in member order
            expected = members[int(np.argmin(totals))]
            assert winner is expected
            assert total == pytest.approx(min(totals))

    def test_weight_scaling_leaves_argmin_unchanged(self, rng):
        loss = LossFunction("logistic", 1.0)
        members = tuple(LinearPredictor(rng.normal(size=3), 1.0) for _ in range(12))
        cls = FiniteClass(members)
        sample = random_weighted_examples(rng, 20, 3)
        scaled = WeightedSample(zip(sample.X, sample.y, 7.5 * sample.w))
        assert finite_erm(cls, sample, loss)[0] is finite_erm(cls, scaled, loss)[0]

    def test_larger_brute_force_sweep(self, rng):
        loss = LossFunction("logistic", 1.0)
        for _ in range(5):
            members = tuple(
                LinearPredictor(rng.normal(size=2), 1.0)
                for _ in range(int(rng.integers(8, 64)))
            )
            cls = FiniteClass(members)
            sample = random_weighted_examples(rng, int(rng.integers(1, 64)), 2)
            winner, total, sample = finite_erm(cls, sample, loss)
            best = min(weighted_total_loss(h, sample, loss) for h in members)
            assert weighted_total_loss(winner, sample, loss) == pytest.approx(best)
            assert total == pytest.approx(best)


def _members(rng, kind, size, dim):
    if kind == "threshold":
        return tuple(ThresholdPredictor(rng.normal(size=dim)) for _ in range(size))
    return tuple(LinearPredictor(rng.normal(size=dim), 0.5) for _ in range(size))


class TestFiniteClassPredict:
    # The class's prediction vector must equal its members' own `predict`
    # bit for bit, or traces move. On OpenBLAS 0.3.31 (x86_64, Haswell
    # kernels), the matrix-vector product `W @ x` (gemv) differs from the
    # per-member `w @ x` (ddot) in the last bit on 33-68% of products for d
    # from 2 to 20, and the matrix product `X @ W.T` (gemm) on 60% at d = 20
    # (it happens to match for d <= 13), so the class must use neither.
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["linear", "threshold"]),
           dim=st.integers(1, 20), size=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_matrix_path_matches_members_bit_for_bit(self, kind, dim, size, seed):
        rng = np.random.default_rng(seed)
        cls = FiniteClass(_members(rng, kind, size, dim))
        X = rng.normal(size=(16, dim))
        for rows in (X, np.asfortranarray(X)):
            expected = np.array([[h.predict(x) for h in cls.members] for x in rows])
            got = np.array([cls.predict(x) for x in rows])
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["linear", "threshold", "mixed"]),
           dim=st.integers(1, 20), size=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_rows_match_predict_bit_for_bit(self, kind, dim, size, seed):
        rng = np.random.default_rng(seed)
        members = _members(rng, "linear" if kind == "mixed" else kind, size, dim)
        if kind == "mixed":
            # a second range bound: no weight matrix, one predict per row
            members += (LinearPredictor(rng.normal(size=dim), 2.0),)
        cls = FiniteClass(members)
        X = rng.normal(size=(24, dim))
        for rows in (X, np.asfortranarray(X), X[3:17], X[::2]):
            got = cls.predict_many(rows)
            assert got.shape == (len(rows), len(members))
            assert got.tobytes() == np.array([cls.predict(x) for x in rows]).tobytes()
        assert cls.predict_many(X[:0]).shape == (0, len(members))

    def test_batched_rows_reject_a_wrong_width(self, rng):
        cls = FiniteClass(_members(rng, "linear", 5, 3))
        for bad in (np.ones(3), np.ones((4, 4)), np.ones((2, 4, 3))):
            with pytest.raises(DimensionMismatchError):
                cls.predict_many(bad)

    def test_matrix_only_for_one_member_kind_and_range(self, rng):
        linear = _members(rng, "linear", 4, 3)
        assert FiniteClass(linear)._weights.flags.c_contiguous
        assert FiniteClass(_members(rng, "threshold", 4, 3))._weights is not None
        mixed = (*linear, LinearPredictor(rng.normal(size=3), 2.0))
        for members in (mixed, (*linear, ThresholdPredictor(np.ones(3))),
                        (ConstantPredictor(1.0), ConstantPredictor(-1.0))):
            cls = FiniteClass(members)
            assert cls._weights is None
            x = rng.normal(size=3)
            assert cls.predict(x).tolist() == [h.predict(x) for h in members]

    def test_wrong_width_rejected_on_matrix_path(self, rng):
        cls = FiniteClass(_members(rng, "linear", 5, 3))
        for bad in (np.ones(2), np.ones((4, 4)), np.ones((4, 3)), np.float64(1.0)):
            with pytest.raises(DimensionMismatchError):
                cls.predict(bad)

    @pytest.mark.parametrize("kind,loss_kind", [
        ("linear", "logistic"), ("linear", "squared"), ("linear", "hinge"),
        ("threshold", "zero-one")])
    def test_erm_equals_per_row_reference_loop(self, rng, kind, loss_kind):
        loss = LossFunction(loss_kind, 0.5 if kind == "linear" else 1.0)
        for dim in (1, 5, 13):
            cls = FiniteClass(_members(rng, kind, 48, dim))
            winner, _, sample = finite_erm(cls, random_weighted_examples(rng, 40, dim), loss)
            sums = np.zeros(len(cls))
            for x, y, w in zip(sample.X, sample.y.tolist(), sample.w.tolist()):
                z = np.array([h.predict(x) for h in cls.members])
                sums += w * loss.eval_many(z, y)
            assert winner is cls.members[int(np.argmin(sums))]


class TestLinearBall:
    @pytest.mark.parametrize("norm_bound", [0.0, -1.0, math.inf, math.nan])
    def test_norm_bound_must_be_positive_and_finite(self, norm_bound):
        with pytest.raises(ValueError, match="norm_bound must be positive and finite"):
            LinearBall(2, norm_bound)


class TestLinearErm:
    def test_two_point_squared_loss(self):
        # with a generous norm bound this is unconstrained least squares
        loss = LossFunction("squared", 2.0)
        ball = LinearBall(dim=2, norm_bound=25.0)
        sample = WeightedSample([(np.array([1.0, 0.0]), 1.0, 1.0),
                                 (np.array([0.0, 1.0]), -1.0, 1.0)])
        h, _ = erm_weighted(ball, sample, loss)
        assert h.weights == pytest.approx(np.array([1.0, -1.0]), abs=1e-4)

    def test_empty_sample_returns_zero_vector(self):
        h, total = erm_weighted(LinearBall(3, 1.0), WeightedSample(),
                                LossFunction("logistic", 1.0))
        assert np.all(h.weights == 0.0) and total == 0.0

    def test_objective_matches_grid_search(self, rng):
        loss = LossFunction("logistic", 1.0)
        ball = LinearBall(dim=2, norm_bound=1.0)
        sample = random_weighted_examples(rng, 12, 2)
        h, _ = erm_weighted(ball, sample, loss)

        X = np.array([e.x for e in sample])
        ys = np.array([e.y for e in sample])
        ws = np.array([e.weight for e in sample])

        def objective(u):
            # the weighted logistic loss log(1 + e^{-y u.x}) on unclamped margins
            return float(ws @ np.logaddexp(0.0, -ys * (X @ u))) / loss.normalizer

        # two-stage polar grid refinement, independent of the solver
        best = np.inf
        center_r, center_a, half_r, half_a = 0.5, np.pi, 0.5, np.pi
        for _ in range(4):
            radii = np.linspace(max(0.0, center_r - half_r),
                                min(1.0, center_r + half_r), 41)
            angles = np.linspace(center_a - half_a, center_a + half_a, 81)
            for r in radii:
                for a in angles:
                    u = np.array([r * np.cos(a), r * np.sin(a)])
                    val = objective(u)
                    if val < best:
                        best, center_r, center_a = val, r, a
            half_r /= 8.0
            half_a /= 8.0
        assert objective(h.weights) <= best + 1e-6 * (1 + abs(best))
