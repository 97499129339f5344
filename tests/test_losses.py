import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from iwal.errors import PredictionDomainError, UnsupportedLossError
from iwal.losses import LOSS_KINDS, SMOOTH_KINDS, LossFunction


def grid_predictions(loss, n=201):
    if loss.kind == "zero-one":
        return np.array([-1.0, 1.0])
    b = loss.range_bound
    return np.linspace(-b, b, n)


class TestEval:
    def test_zero_one_max_disagreement(self):
        loss = LossFunction("zero-one")
        assert loss.eval(1.0, -1.0) == 1.0

    def test_squared_perfect_prediction(self):
        loss = LossFunction("squared", 1.0)
        assert loss.eval(1.0, 1.0) == 0.0

    def test_logistic_midpoint(self):
        loss = LossFunction("logistic", 1.0)
        expected = math.log(2.0) / math.log(1.0 + math.e)
        assert loss.eval(0.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5278, abs=1e-4)

    def test_out_of_range_prediction_rejected(self):
        loss = LossFunction("logistic", 1.0)
        with pytest.raises(PredictionDomainError):
            loss.eval(1.5, 1.0)
        with pytest.raises(PredictionDomainError):
            LossFunction("zero-one").eval(0.5, 1.0)

    def test_squared_accepts_intermediate_labels(self):
        loss = LossFunction("squared", 1.0)
        assert loss.eval(0.5, 0.0) == pytest.approx(0.25 / 4.0)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_values_in_unit_interval(self, kind):
        loss = LossFunction(kind, 1.0)
        for z in grid_predictions(loss):
            for y in (-1.0, 1.0):
                value = loss.eval(float(z), y)
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
    def test_normalizer_is_grid_supremum(self, kind, b):
        if kind == "zero-one" and b != 1.0:
            pytest.skip("zero-one ignores the range bound")
        loss = LossFunction(kind, b)
        raw_max = max(
            loss.eval(float(z), y) * loss.normalizer
            for z in grid_predictions(loss, 2001)
            for y in (-1.0, 1.0)
        )
        assert raw_max == pytest.approx(loss.normalizer, rel=1e-6)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_eval_many_matches_scalar(self, kind, rng):
        loss = LossFunction(kind, 1.0)
        zs = grid_predictions(loss, 17)
        for y in (-1.0, 1.0):
            batch = loss.eval_many(zs, y)
            for z, v in zip(zs, batch):
                assert v == pytest.approx(loss.eval(float(z), y), abs=1e-12)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_eval_many_equals_eval_bit_for_bit(self, kind):
        # finite-class member sums are built with eval_many and must match
        # sums of scalar evals exactly; squared loss once differed on about
        # 0.1% of random predictions
        rng = np.random.default_rng(4952)
        for b in (0.5, 1.0, 2.0, 3.7):
            loss = LossFunction(kind, b)
            if kind == "zero-one":
                zs = rng.choice([-1.0, 1.0], size=200)
            else:
                zs = rng.uniform(-b, b, size=5000)
            labels = ((-1.0, 0.0, 0.37, 1.0) if kind in ("squared", "absolute")
                      else (-1.0, 1.0))
            for y in labels:
                many = loss.eval_many(zs, y).tolist()
                assert many == [loss.eval(z, y) for z in zs.tolist()]


@st.composite
def loss_batches(draw, range_bounds=st.floats(0.01, 100.0)):
    """A loss, a label it accepts, and predictions inside its range."""
    kind = draw(st.sampled_from(LOSS_KINDS))
    loss = LossFunction(kind, draw(range_bounds))
    if kind == "zero-one":
        predictions = st.sampled_from([-1.0, 1.0])
    else:
        predictions = st.floats(-loss.range_bound, loss.range_bound)
    if kind in ("squared", "absolute"):
        label = draw(st.floats(-1.0, 1.0))
    else:
        label = draw(st.sampled_from([-1.0, 1.0]))
    return loss, label, draw(st.lists(predictions, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(batch=loss_batches())
def test_eval_many_equals_eval_property(batch):
    loss, y, zs = batch
    assert loss.eval_many(np.array(zs), y).tolist() == [loss.eval(z, y) for z in zs]


# (1 + b)**2 in the normalizer once rounded one ulp below the array path's
# (1 + b)*(1 + b) for this bound, so the squared loss at z = -y b was 1 + 2^-52
@settings(max_examples=300, deadline=None)
@given(batch=loss_batches(st.floats(0.0, 4.0, exclude_min=True)))
@example(batch=(LossFunction("squared", 0.18050664525484791), 1.0,
                [-0.18050664525484791]))
def test_normalized_losses_lie_in_unit_interval(batch):
    loss, y, zs = batch
    z = np.array(zs)
    values = [loss.eval_many(z, y)]
    if loss.kind in SMOOTH_KINDS:
        values.append(loss.smooth_value_many(z, np.full_like(z, y)))
    for v in values:
        assert np.all((0.0 <= v) & (v <= 1.0))


class TestDerivativeBounds:
    def test_logistic_unit_range(self):
        c0, c1 = LossFunction("logistic", 1.0).derivative_bounds()
        assert c0 == pytest.approx(1.0 / (1.0 + math.e), abs=1e-12)
        assert c1 == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)

    def test_absolute_constant_slope(self):
        assert LossFunction("absolute", 1.0).derivative_bounds() == (1.0, 1.0)

    def test_logistic_degenerate_range(self):
        # a single-point margin interval collapses both bounds to 1/2
        c0, c1 = LossFunction("logistic", 1e-12).derivative_bounds()
        assert c0 == pytest.approx(0.5, abs=1e-9)
        assert c1 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("kind", ["zero-one", "hinge"])
    def test_nondifferentiable_rejected(self, kind):
        with pytest.raises(UnsupportedLossError):
            LossFunction(kind, 1.0).derivative_bounds()

    @pytest.mark.parametrize("kind,b", [("logistic", 1.0), ("logistic", 2.0),
                                        ("squared", 0.8), ("absolute", 1.0)])
    def test_finite_differences_within_bounds(self, kind, b, rng):
        loss = LossFunction(kind, b)
        c0, c1 = loss.derivative_bounds()
        tol = 1e-6
        for _ in range(500):
            z, zp = rng.uniform(-b, b, size=2)
            if abs(z - zp) < 1e-9:
                continue
            for y in (-1.0, 1.0):
                at_z, at_zp = loss.eval_many(np.array([z, zp]), y) * loss.normalizer
                ratio = abs(at_z - at_zp) / abs(z - zp)
                assert c0 * (1 - tol) - 1e-12 <= ratio <= c1 * (1 + tol) + 1e-12


class TestSlopeAsymmetry:
    def test_zero_one_exact(self):
        assert LossFunction("zero-one").slope_asymmetry() == 1.0

    def test_hinge_infinite(self):
        assert math.isinf(LossFunction("hinge", 1.0).slope_asymmetry())

    def test_logistic_ratio_and_ceiling(self):
        loss = LossFunction("logistic", 1.0)
        k = loss.slope_asymmetry()
        c0, c1 = loss.derivative_bounds()
        assert k == pytest.approx(c1 / c0, rel=1e-12)
        assert k == pytest.approx(math.e, rel=1e-12)
        assert k <= 1.0 + math.e  # the coarser closed-form ceiling dominates

    def test_squared_blows_up_at_unit_range(self):
        assert LossFunction("squared", 0.5).slope_asymmetry() == pytest.approx(3.0)
        assert math.isinf(LossFunction("squared", 1.0).slope_asymmetry())

    @pytest.mark.parametrize("kind,b", [("zero-one", 1.0), ("logistic", 1.0),
                                        ("logistic", 2.0), ("squared", 0.7),
                                        ("absolute", 1.0)])
    def test_empirical_ratio_never_exceeds_reported(self, kind, b, rng):
        loss = LossFunction(kind, b)
        k = loss.slope_asymmetry()
        for _ in range(2000):
            if kind == "zero-one":
                z, zp = rng.choice([-1.0, 1.0], size=2)
            else:
                z, zp = rng.uniform(-b, b, size=2)
            gaps = [abs(loss.eval(z, y) - loss.eval(zp, y)) for y in (-1.0, 1.0)]
            if min(gaps) <= 1e-15:
                continue
            assert max(gaps) / min(gaps) <= k + 1e-9


class TestIntervalSpread:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_dense_grid(self, kind, rng):
        loss = LossFunction(kind, 1.0)
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, size=2))
            if kind == "zero-one":
                zs = np.linspace(lo, hi, 4001)  # continuous relaxation
                spread = 0.0
                for y in (-1.0, 1.0):
                    vals = (y * zs < 0).astype(float)
                    spread = max(spread, vals.max() - vals.min())
            else:
                zs = np.linspace(lo, hi, 4001)
                spread = 0.0
                for y in (-1.0, 1.0):
                    vals = loss.eval_many(zs, y)
                    spread = max(spread, float(vals.max() - vals.min()))
            assert loss.interval_spread(lo, hi) == pytest.approx(spread, abs=2e-3)

    def test_full_range_logistic_closed_form(self):
        loss = LossFunction("logistic", 1.0)
        # log(1 + e) - log(1 + 1/e) = 1, over the normalizer log(1 + e)
        assert loss.interval_spread(-1.0, 1.0) == pytest.approx(
            1.0 / math.log1p(math.e), abs=1e-12)

    def test_interval_clamped_to_range(self):
        loss = LossFunction("logistic", 1.0)
        assert loss.interval_spread(-5.0, 5.0) == pytest.approx(
            loss.interval_spread(-1.0, 1.0), abs=1e-12)

    def test_degenerate_interval_is_zero(self):
        for kind in LOSS_KINDS:
            assert LossFunction(kind, 1.0).interval_spread(0.3, 0.3) == 0.0

    @pytest.mark.parametrize("kind,label", [("squared", 2.0), ("absolute", -1.5),
                                            ("logistic", 0.0), ("hinge", 2.0),
                                            ("zero-one", 0.5)])
    def test_label_outside_the_loss_domain_rejected(self, kind, label):
        with pytest.raises(ValueError, match="label"):
            LossFunction(kind, 1.0).interval_spread(-0.5, 0.5, labels=(1.0, label))

    def test_squared_with_zero_label(self):
        loss = LossFunction("squared", 1.0)
        # vertex inside the interval: minimum 0, maximum at the far endpoint
        assert loss.interval_spread(-1.0, 1.0, labels=(0.0,)) == pytest.approx(
            1.0 / loss.normalizer)


@st.composite
def nested_intervals(draw):
    """A loss, labels it accepts, and ends outer_lo <= lo <= hi <= outer_hi
    reaching past the prediction range, so the clamp is exercised too."""
    kind = draw(st.sampled_from(LOSS_KINDS))
    loss = LossFunction(kind, draw(st.floats(0.01, 100.0)))
    if kind in ("squared", "absolute"):
        labels = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)))
    else:
        labels = (-1.0, 1.0)
    reach = 2.0 * loss.range_bound
    ends = sorted(draw(st.lists(st.floats(-reach, reach), min_size=4, max_size=4)))
    return loss, labels, ends


@settings(max_examples=500, deadline=None)
@given(case=nested_intervals())
def test_interval_spread_monotone_under_inclusion_property(case):
    # the linear relaxation widens the prediction interval, which may only
    # ever raise the spread and so the query probability
    loss, labels, (outer_lo, lo, hi, outer_hi) = case
    assert (loss.interval_spread(lo, hi, labels)
            <= loss.interval_spread(outer_lo, outer_hi, labels))


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedLossError):
        LossFunction("huber", 1.0)


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("range_bound", [math.inf, math.nan])
def test_non_finite_range_bound_rejected(kind, range_bound):
    with pytest.raises(ValueError, match="range_bound must be positive and finite"):
        LossFunction(kind, range_bound)


def test_overflowing_normalizer_rejected():
    # (1 + b)^2 overflows for b = 1e200, which would make every squared loss 0
    with pytest.raises(ValueError, match="overflows the squared loss normalizer"):
        LossFunction("squared", 1e200)
    assert math.isfinite(LossFunction("squared", 1e154).normalizer)
    assert LossFunction("logistic", 1e200).normalizer == 1e200


# -- frozen scalar reference --------------------------------------------------
# The scalar margin formulas and interval extremes the library once used, kept
# verbatim in pure-Python floats so that the one elementwise formula per kind
# is checked bit for bit against them.

def _softplus(v: float) -> float:
    # log(1 + e^v) without overflow
    if v > 0:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


def frozen_raw_margin_loss(kind: str, v: float) -> float:
    """Unnormalized loss as a function of the margin v = y*z."""
    if kind == "zero-one":
        return 1.0 if v < 0 else 0.0
    if kind == "hinge":
        return max(0.0, 1.0 - v)
    if kind == "logistic":
        return _softplus(-v)
    if kind == "squared":
        return (1.0 - v) * (1.0 - v)
    return abs(1.0 - v)


def frozen_eval(kind: str, normalizer: float, z: float, y: float) -> float:
    """The old per-kind eval: the margin formula, or (y - z)^2 and |y - z|
    for the kinds that take real labels."""
    if kind == "squared":
        return (y - z) * (y - z) / normalizer
    if kind == "absolute":
        return abs(y - z) / normalizer
    return frozen_raw_margin_loss(kind, y * z) / normalizer


def frozen_extremes_on_interval(kind, normalizer, lo, hi, y):
    """(min, max) of the normalized loss over predictions in [lo, hi]."""
    def margin_loss(v):
        return frozen_raw_margin_loss(kind, v) / normalizer
    if kind == "zero-one":
        # step function of the sign of y*z
        has_err = (y > 0 and lo < 0) or (y < 0 and hi > 0)
        has_ok = (y > 0 and hi >= 0) or (y < 0 and lo <= 0)
        return (0.0 if has_ok else 1.0), (1.0 if has_err else 0.0)
    if kind in ("hinge", "logistic"):
        # nonincreasing in the margin y*z
        if y > 0:
            return margin_loss(hi), margin_loss(lo)
        return margin_loss(-lo), margin_loss(-hi)
    # squared / absolute: convex in z with vertex at z = y
    at_lo = frozen_eval(kind, normalizer, lo, y)
    at_hi = frozen_eval(kind, normalizer, hi, y)
    mn = 0.0 if lo <= y <= hi else min(at_lo, at_hi)
    return mn, max(at_lo, at_hi)


def frozen_interval_spread(kind, b, lo, hi, labels):
    normalizer = frozen_raw_margin_loss(kind, -b)
    lo = min(max(lo, -b), b)
    hi = min(max(hi, -b), b)
    if lo > hi:
        lo = hi
    spread = 0.0
    for y in labels:
        mn, mx = frozen_extremes_on_interval(kind, normalizer, lo, hi, y)
        spread = max(spread, mx - mn)
    return min(max(spread, 0.0), 1.0)


def _label_sets(kind):
    if kind in ("squared", "absolute"):
        return [(-1.0, 1.0), (0.0,), (-1.0, 0.0, 1.0), (0.37,)]
    return [(-1.0, 1.0)]


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
def test_one_formula_per_kind_equals_the_frozen_reference(kind, b):
    loss = LossFunction(kind, b)
    normalizer = frozen_raw_margin_loss(kind, -b)
    assert loss.normalizer == normalizer
    rng = np.random.default_rng(4952)
    if kind == "zero-one":
        zs = [-1.0, 1.0]
    else:
        zs = [0.0, b, -b] + [v for v in (1.0, -1.0) if abs(v) <= b]
        zs += rng.uniform(-b, b, size=500).tolist()
    for labels in _label_sets(kind):
        for y in labels:
            assert loss.eval_many(np.array(zs), y).tolist() == [
                frozen_eval(kind, normalizer, z, y) for z in zs]
        # ends on every special value, on random values past the range,
        # reversed (clamped to one point) and equal
        special = [0.0, 1.0, -1.0, b, -b, 2.0 * b, -2.0 * b]
        ends = special + rng.uniform(-2.0 * b, 2.0 * b, size=13).tolist()
        for lo in ends:
            for hi in ends:
                assert (loss.interval_spread(lo, hi, labels)
                        == frozen_interval_spread(kind, b, lo, hi, labels))
    if kind in SMOOTH_KINDS:
        z = rng.normal(0.0, 5.0, size=500)
        y = rng.choice([-1.0, 1.0], size=500)
        assert loss.smooth_value_many(z, y).tolist() == [
            frozen_eval(kind, normalizer, zi, yi) for zi, yi in zip(z.tolist(), y.tolist())]


@settings(max_examples=300, deadline=None)
@given(case=nested_intervals())
def test_interval_spread_equals_the_frozen_reference_property(case):
    loss, labels, (a, lo, hi, c) = case
    for ends in ((lo, hi), (hi, lo), (a, c), (lo, lo)):
        assert (loss.interval_spread(*ends, labels)
                == frozen_interval_spread(loss.kind, loss.range_bound, *ends, labels))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(LOSS_KINDS), b=st.floats(1e-300, 1e154))
def test_normalizer_equals_the_frozen_reference_property(kind, b):
    assert LossFunction(kind, b).normalizer == frozen_raw_margin_loss(kind, -b)
