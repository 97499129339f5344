import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from iwal import harness, solver
from iwal.engine import Engine
from iwal.errors import ThresholdContractError, UnsupportedLossError
from iwal.hypotheses import (ConstantPredictor, FiniteClass, LinearBall,
                             LinearPredictor)
from iwal.losses import LossFunction
from iwal.thresholds import (ConstantThreshold, LossWeightingFinite,
                             LossWeightingLinear, dimension_slack,
                             optimistic_slack, shrink_survivors, slack_width,
                             validate_probability)

from conftest import (linear_stream_config, pair_spread_oracle,
                      random_linear_predictors)


class TestSlack:
    def test_hand_checked_value(self):
        assert slack_width(1, 2, 0.1) == pytest.approx(
            math.sqrt(8.0 * math.log(160.0)), rel=1e-12)
        assert slack_width(1, 2, 0.1) == pytest.approx(6.3719, abs=1e-3)

    def test_infinite_before_any_data(self):
        assert math.isinf(slack_width(0, 8, 0.1))
        assert math.isinf(optimistic_slack(0))
        assert math.isinf(dimension_slack(0, 4))

    def test_decreases_to_zero_after_burn_in(self):
        values = [slack_width(t, 8, 0.1) for t in np.logspace(1, 6, 40).astype(int)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.02

    def test_monotone_in_class_size(self):
        assert slack_width(50, 16, 0.1) > slack_width(50, 8, 0.1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            slack_width(-1, 8, 0.1)
        with pytest.raises(ValueError):
            slack_width(5, 0, 0.1)
        with pytest.raises(ValueError):
            slack_width(5, 8, 1.5)

    def test_configurable_constant(self):
        assert slack_width(10, 4, 0.1, constant=2.0) == pytest.approx(
            slack_width(10, 4, 0.1) / 2.0)


class TestShrink:
    def test_infinite_slack_keeps_everyone(self):
        alive = np.array([True, False, True])
        out = shrink_survivors(np.array([0.5, 0.1, 0.9]), alive, math.inf)
        assert np.array_equal(out, alive)

    def test_threshold_at_min_plus_slack(self):
        losses = np.array([0.10, 0.20, 0.35])
        out = shrink_survivors(losses, np.ones(3, dtype=bool), 0.12)
        assert np.array_equal(out, [True, True, False])

    def test_subset_and_argmin_retained(self, rng):
        for _ in range(50):
            losses = rng.uniform(0.0, 1.0, size=20)
            alive = rng.random(20) < 0.8
            alive[rng.integers(20)] = True  # never fully dead
            out = shrink_survivors(losses, alive, rng.uniform(0.0, 0.5))
            assert np.all(~out | alive)        # subset
            assert out.sum() >= 1
            masked = np.where(alive, losses, np.inf)
            assert out[int(np.argmin(masked))]


class TestSpreadFinite:
    def test_single_survivor_is_zero(self, rng):
        loss = LossFunction("logistic", 1.0)
        h = LinearPredictor(rng.normal(size=2), 1.0)
        assert loss.spread_many(FiniteClass((h,)).predict(rng.normal(size=2)),
                                (-1.0, 1.0)) == 0.0

    def test_opposite_constants_zero_one(self, rng):
        loss = LossFunction("zero-one")
        survivors = [ConstantPredictor(1.0), ConstantPredictor(-1.0)]
        z = FiniteClass(survivors).predict(rng.normal(size=3))
        assert loss.spread_many(z, (-1.0, 1.0)) == 1.0

    def test_matches_pair_enumeration(self, rng):
        loss = LossFunction("logistic", 1.0)
        for _ in range(20):
            survivors = random_linear_predictors(rng, 16, 3)
            x = rng.normal(size=3)
            fast = loss.spread_many(FiniteClass(survivors).predict(x), (-1.0, 1.0))
            slow = pair_spread_oracle(x, survivors, loss)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_invariant_under_reordering(self, rng):
        loss = LossFunction("logistic", 1.0)
        survivors = random_linear_predictors(rng, 10, 2)
        x = rng.normal(size=2)
        base = loss.spread_many(FiniteClass(survivors).predict(x), (-1.0, 1.0))
        perm = [survivors[i] for i in rng.permutation(10)]
        assert loss.spread_many(FiniteClass(perm).predict(x),
                                (-1.0, 1.0)) == pytest.approx(base, abs=1e-15)


def _survivor_stream(seed, dim, slack_mode, p_min, noise, steps=150):
    """A 16-member logistic class under LossWeightingFinite with slack
    constant 0.5, its engine, and the stream as (x, oracle) pairs."""
    rng = np.random.default_rng(seed)
    loss = LossFunction("logistic", 1.0)
    cls = FiniteClass(tuple(random_linear_predictors(rng, 16, dim)))
    threshold = LossWeightingFinite(cls, loss, slack_mode=slack_mode,
                                    slack_constant=0.5)
    engine = Engine(loss, threshold, rng, hypothesis_class=cls, p_min=p_min)
    direction = rng.normal(size=dim)

    def oracle(i, x):
        sign = 1.0 if x @ direction >= 0 else -1.0
        return -sign if rng.random() < noise else sign

    return cls, threshold, engine, ((rng.normal(size=dim), oracle)
                                    for _ in range(steps))


def _member_index(cls, member):
    return next(i for i, h in enumerate(cls.members) if h is member)


class TestLossWeightingFinite:
    def _drive(self, rng, members, loss, steps, confidence=0.1):
        """Run the threshold under an engine, returning the recorded history."""
        cls = FiniteClass(tuple(members))
        threshold = LossWeightingFinite(cls, loss, confidence=confidence)
        engine = Engine(loss, threshold, rng, hypothesis_class=cls)
        history = []
        masks = []
        for _ in range(steps):
            x = rng.normal(size=2)
            engine.step(x, lambda i, x: float(rng.choice([-1.0, 1.0])))
            masks.append(threshold.alive.copy())
            queried = engine.trace.q[-1]
            y = engine.sample.y[-1] if queried else None
            history.append((x, y, engine.trace.p[-1], queried))
        return threshold, history, masks

    def test_monotone_shrinkage_and_oracle_recomputation(self, rng):
        loss = LossFunction("logistic", 1.0)
        members = random_linear_predictors(rng, 32, 2)
        threshold, history, masks = self._drive(rng, members, loss, 60)

        for earlier, later in zip(masks, masks[1:]):
            assert np.all(later <= earlier)

        # independent recomputation of the survivor rule from raw history
        alive = np.ones(len(members), dtype=bool)
        sums = np.zeros(len(members))
        for t, (x, y, p, q) in enumerate(history, start=1):
            seen = t - 1
            if seen >= 1:
                slack = slack_width(seen, len(members), 0.1)
                if not math.isinf(slack):
                    averages = sums / seen
                    best = averages[alive].min()
                    alive = alive & (averages <= best + slack)
            assert np.array_equal(alive, masks[t - 1])
            if q:
                for i, h in enumerate(members):
                    sums[i] += (1.0 / p) * loss.eval(h.predict(x), y)
        assert np.array_equal(alive, threshold.alive)

    def test_reads_the_member_sums_of_its_engine(self, rng):
        loss = LossFunction("logistic", 1.0)
        cls = FiniteClass(tuple(random_linear_predictors(rng, 4, 2)))
        threshold = LossWeightingFinite(cls, loss)
        engine = Engine(loss, threshold, rng, hypothesis_class=cls)
        assert threshold.loss_sums is engine.member_sums
        # an engine built with no class takes the threshold's
        engine = Engine(loss, threshold, rng)
        assert engine.hypothesis_class is cls
        assert threshold.loss_sums is engine.member_sums
        other = FiniteClass(tuple(random_linear_predictors(rng, 4, 2)))
        with pytest.raises(ValueError, match="class and loss"):
            Engine(loss, threshold, rng, hypothesis_class=other)
        with pytest.raises(ValueError, match="class and loss"):
            Engine(LossFunction("hinge", 1.0), threshold, rng,
                   hypothesis_class=cls)

    def test_probability_in_unit_interval(self, rng):
        loss = LossFunction("logistic", 1.0)
        members = random_linear_predictors(rng, 8, 2)
        threshold, history, _ = self._drive(rng, members, loss, 40)
        assert all(0.0 <= p <= 1.0 for _, _, p, _ in history)

    def test_best_survivor_is_weighted_argmin(self):
        # the survivor with the smallest weighted loss sum after step t is
        # still alive after step t + 1: shrinking never drops the minimizer
        loss = LossFunction("logistic", 1.0)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cls = FiniteClass(tuple(random_linear_predictors(rng, 32, 2)))
            threshold = LossWeightingFinite(cls, loss, slack_mode="optimistic")
            engine = Engine(loss, threshold, rng, hypothesis_class=cls)
            states = []
            for _ in range(200):
                engine.step(rng.normal(size=2),
                            lambda i, x: 1.0 if x[0] - 0.5 * x[1] > 0 else -1.0)
                states.append((engine.member_sums.copy(),
                               threshold.alive.copy()))
            assert states[-1][1].sum() < 16     # the set did shrink
            for (sums, alive), (_, alive_next) in zip(states, states[1:]):
                best = int(np.argmin(np.where(alive, sums, math.inf)))
                assert alive[best] and alive_next[best]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           slack_mode=st.sampled_from(["paper", "optimistic"]),
           p_min=st.sampled_from([0.0, 0.05, 0.3]),
           noise=st.floats(0.0, 0.3))
    def test_stream_invariants(self, seed, dim, slack_mode, p_min, noise):
        # survivors only shrink and keep the survivor with the smallest sum
        # in the engine's ledger; the engine's minimizer is a survivor; every
        # p lies in [p_min, 1]; no step queries at p = 0. The argmin over all
        # members is not kept: with optimistic slack it was dropped on 30 of
        # 600 such streams.
        cls, threshold, engine, steps = _survivor_stream(seed, dim, slack_mode,
                                                         p_min, noise)
        for x, oracle in steps:
            alive = threshold.alive.copy()
            best = int(np.argmin(np.where(alive, engine.member_sums, math.inf)))
            engine.step(x, oracle)
            assert np.all(threshold.alive <= alive) and threshold.alive[best]
            assert threshold.alive[_member_index(cls, engine.refresh_hypothesis())]
            p, queried = engine.trace.p[-1], engine.trace.q[-1]
            assert p_min <= p <= 1.0
            assert p > 0.0 or not queried

    def test_minimizer_is_the_least_sum_among_survivors(self):
        # on this seeded optimistic-slack stream the argmin over all members
        # is dead after most steps; the engine returns the first least sum
        # among the survivors instead
        cls, threshold, engine, steps = _survivor_stream(85, 3, "optimistic",
                                                         0.0, 0.2)
        dead_argmin = 0
        for x, oracle in steps:
            engine.step(x, oracle)
            sums = engine.member_sums
            dead_argmin += not threshold.alive[int(np.argmin(sums))]
            best = int(np.argmin(np.where(threshold.alive, sums, math.inf)))
            assert _member_index(cls, engine.refresh_hypothesis()) == best
        assert dead_argmin > 100


class TestLossWeightingLinear:
    def test_full_ball_interval_is_analytic(self, rng):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(2, 1.0, loss)
        x = np.array([3.0, 4.0])
        threshold.t = 1  # simulate the first step
        lo, hi = threshold.prediction_interval(x)
        assert lo == pytest.approx(-5.0)
        assert hi == pytest.approx(5.0)

    @pytest.mark.parametrize("kind", ["zero-one", "hinge", "absolute"])
    def test_rejects_losses_the_solver_cannot_take(self, kind):
        with pytest.raises(UnsupportedLossError):
            LossWeightingLinear(2, 1.0, LossFunction(kind, 1.0))

    def test_zero_point_probability_zero(self):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(2, 1.0, loss)
        assert threshold.probability(np.zeros(2)) == 0.0

    def test_full_ball_probability_closed_form(self):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(2, 4.0, loss)
        # predictions span the whole clamped range [-1, 1]
        p = threshold.probability(np.array([1.0, 0.0]))
        # log(1 + e) - log(1 + 1/e) = 1, over the normalizer log(1 + e)
        assert p == pytest.approx(1.0 / math.log1p(math.e), abs=1e-9)

    def test_interval_extremes_against_cover_after_queries(self, rng):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(2, 1.0, loss, slack_mode="optimistic")
        engine = Engine(loss, threshold, rng)
        # scripted history of confident queries shrinks the constraint set
        for _ in range(40):
            engine.step(rng.normal(size=2),
                        lambda i, x: 1.0 if x[0] + 0.2 * x[1] > 0 else -1.0)
        x = rng.normal(size=2)
        seen = threshold.t
        threshold.t += 1
        lo, hi = threshold.prediction_interval(x)
        cap, _ = threshold._retained_cap(seen)
        assert cap is not None
        # dense polar cover of the feasible region
        radii = np.linspace(0.0, 1.0, 300)
        angles = np.linspace(0.0, 2 * np.pi, 1200, endpoint=False)
        R, A = np.meshgrid(radii, angles, indexing="ij")
        U = np.stack([(R * np.cos(A)).ravel(), (R * np.sin(A)).ravel()], axis=1)
        feasible = U[[cap.value(u) <= 0 for u in U]]
        z = feasible @ x
        assert lo <= z.min() + 1e-6
        assert hi >= z.max() - 1e-6
        assert lo == pytest.approx(z.min(), abs=5e-3)
        assert hi == pytest.approx(z.max(), abs=5e-3)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
           slack_mode=st.sampled_from(["paper", "optimistic"]),
           p_min=st.sampled_from([0.0, 0.05, 0.3]),
           norm_bound=st.sampled_from([0.25, 1.0, 4.0]),
           loss_kind=st.sampled_from(["logistic", "squared"]),
           noise=st.floats(0.0, 0.3))
    # at step 6 the path search's bracket shuts on inexact inner solves
    @example(seed=46, dim=1, slack_mode="paper", p_min=0.3, norm_bound=0.25,
             loss_kind="logistic", noise=0.0)
    def test_stream_probabilities_lie_in_floor_to_one(
            self, seed, dim, slack_mode, p_min, norm_bound, loss_kind, noise):
        # the threshold's p lies in [0, 1], the engine's in [p_min, 1], and
        # no step queries at p = 0
        rng = np.random.default_rng(seed)
        loss = LossFunction(loss_kind, 1.0)
        threshold = LossWeightingLinear(dim, norm_bound, loss, slack_mode=slack_mode)
        engine = Engine(loss, threshold, rng, p_min=p_min)
        raw = []
        probability = threshold.probability
        threshold.probability = lambda x: raw.append(probability(x)) or raw[-1]
        direction = rng.normal(size=dim)

        def oracle(i, x):
            sign = 1.0 if x @ direction >= 0 else -1.0
            return -sign if rng.random() < noise else sign

        for _ in range(20):
            engine.step(rng.normal(size=dim), oracle)
            assert 0.0 <= raw[-1] <= 1.0
            p, queried = engine.trace.p[-1], engine.trace.q[-1]
            assert p_min <= p <= 1.0
            assert p > 0.0 or not queried

    def test_minimizer_feasible_for_its_own_constraint(self, rng):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(2, 1.0, loss)
        engine = Engine(loss, threshold, rng)
        for _ in range(30):
            engine.step(rng.normal(size=2),
                        lambda i, x: float(rng.choice([-1.0, 1.0])))
            cap, start = threshold._retained_cap(threshold.t)
            if cap is not None:
                u = threshold.minimizer().weights
                assert start is u
                assert cap.value(u) <= 1e-9


class _TwoErmLinear:
    """Frozen reference: the linear threshold as it was when it solved its
    own warm-started ERM beside the engine's, so that each arm solved the
    same program twice. Only the interval solves' start and the cap level
    read that second ERM."""

    def __init__(self, dim, norm_bound, loss, slack_mode="paper", labels=(-1.0, 1.0)):
        self.dim, self.norm_bound, self.loss = dim, float(norm_bound), loss
        self.slack_mode, self.labels = slack_mode, tuple(labels)
        self.t = 0
        self.sample = None
        self._erm_point = np.zeros(dim)
        self._erm_sum = 0.0
        self._erm_rows = 0

    def slack(self, t):
        if self.slack_mode == "optimistic":
            return optimistic_slack(t)
        return dimension_slack(t, self.dim)

    def attach(self, engine):
        self.sample = engine.sample

    def _refresh_erm(self):
        sample = self.sample
        if self._erm_rows == len(sample):
            return
        result = solver.minimize_weighted_loss(
            self.loss, sample.X, sample.y, sample.w, self.norm_bound,
            start=self._erm_point)
        self._erm_point, self._erm_sum = result.point, result.value
        self._erm_rows = len(sample)

    def _retained_cap(self, seen):
        slack = self.slack(seen)
        sample = self.sample
        if seen < 1 or math.isinf(slack) or not len(sample):
            return None
        heaviest = sum(sample.w.tolist()) / seen
        if slack >= heaviest:
            return None
        self._refresh_erm()
        best_avg = self._erm_sum / seen
        if best_avg + slack >= heaviest:
            return None
        return solver.WeightedLossCap(self.loss, sample.X, sample.y,
                                      sample.w / seen, best_avg + slack)

    def probability(self, x):
        self.t += 1
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) == 0.0:
            return self.loss.interval_spread(0.0, 0.0, self.labels)
        cap = self._retained_cap(self.t - 1)
        low = solver.minimize_linear(x, self.norm_bound, cap, self._erm_point)
        high = solver.minimize_linear(-x, self.norm_bound, cap, self._erm_point)
        lo = low.value - low.diagnostics.final_gap
        hi = -high.value + high.diagnostics.final_gap
        if lo > hi:
            lo = hi = 0.5 * (lo + hi)
        return self.loss.interval_spread(lo, hi, self.labels)

    def record(self, x, y, p, queried):
        pass


class TestOneErmPerArm:
    def _stream(self, rng, threshold, steps, checkpoint=10):
        engine = Engine(threshold.loss, threshold, rng)
        for t in range(1, steps + 1):
            engine.step(rng.normal(size=threshold.hypothesis_class.dim),
                        lambda i, x: 1.0 if x[0] - 0.3 * x[1] > 0 else -1.0)
            if t % checkpoint == 0:
                engine.refresh_hypothesis()
        return engine

    def test_one_solve_per_row_count(self, rng, monkeypatch):
        rows = []
        solve = solver.minimize_weighted_loss
        monkeypatch.setattr(solver, "minimize_weighted_loss",
                            lambda *args, **kw: rows.append(len(args[1])) or solve(*args, **kw))
        threshold = LossWeightingLinear(2, 1.0, LossFunction("logistic", 1.0),
                                        slack_mode="optimistic")
        engine = self._stream(rng, threshold, 80)
        assert len(rows) > 10 and rows == sorted(set(rows))
        assert engine.erm_solves == len(rows)
        assert threshold.diagnostics()["erm_solves"] == len(rows)

    def test_cap_level_is_the_loss_sum_of_the_engine_erm(self, rng, monkeypatch):
        # the level comes from the sum the ERM solve returned: besides the
        # solve's own objective, a probability call builds the cap alone
        Cap, minimize_linear = solver.WeightedLossCap, solver.minimize_linear
        built, extra, levels = [], [], []

        class CountedCap(Cap):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        def checked_interval(direction, bound, cap, start):
            if cap is not None:
                seen, sample = threshold.t - 1, engine.sample
                best = Cap(loss, sample.X, sample.y, sample.w, 0.0).value(start)
                assert cap.bound == best / seen + threshold.slack(seen)
                levels.append(seen)
            return minimize_linear(direction, bound, cap, start)

        monkeypatch.setattr(solver, "WeightedLossCap", CountedCap)
        monkeypatch.setattr(solver, "minimize_linear", checked_interval)
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(5, 1.0, loss, slack_mode="optimistic")
        engine = Engine(loss, threshold, rng)
        probability = threshold.probability

        def counted(x):
            caps, solves = len(built), engine.erm_solves
            p = probability(x)
            extra.append(len(built) - caps - (engine.erm_solves - solves))
            return p

        threshold.probability = counted
        for _ in range(150):
            engine.step(rng.normal(size=5),
                        lambda i, x: 1.0 if x[0] - 0.3 * x[1] > 0 else -1.0)
        assert len(extra) == 150 and max(extra) <= 1
        assert len(levels) > 50

    def test_classless_engine_takes_the_threshold_ball(self, rng):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(3, 2.0, loss)
        engine = Engine(loss, threshold, rng)
        assert engine.hypothesis_class == LinearBall(3, 2.0)
        assert threshold.engine is engine
        assert threshold.minimizer() is engine.refresh_hypothesis()

    @pytest.mark.parametrize("cls", [LinearBall(3, 1.0), LinearBall(2, 2.0),
                                     FiniteClass((ConstantPredictor(1.0),))])
    def test_attach_rejects_another_class(self, rng, cls):
        loss = LossFunction("logistic", 1.0)
        threshold = LossWeightingLinear(2, 1.0, loss)
        with pytest.raises(ValueError, match="class and loss"):
            Engine(loss, threshold, rng, hypothesis_class=cls)

    def test_attach_rejects_another_loss(self, rng):
        threshold = LossWeightingLinear(2, 1.0, LossFunction("logistic", 1.0))
        with pytest.raises(ValueError, match="class and loss"):
            Engine(LossFunction("squared", 1.0), threshold, rng)

    @pytest.mark.parametrize(("kind", "seed"), (("logistic", 1), ("squared", 2)))
    def test_stream_matches_the_two_erm_threshold(self, kind, seed, monkeypatch):
        # the engine's ERM history also holds the checkpoint solves, so its
        # warm starts differ from the threshold's own; the coins must not
        config = linear_stream_config(kind, seed)
        new = harness.run_experiment(config)
        monkeypatch.setattr(harness, "LossWeightingLinear", _TwoErmLinear)
        frozen = harness.run_experiment(config)
        assert new.active.trace.q == frozen.active.trace.q
        assert new.active.queries == frozen.active.queries
        gaps = [abs(a - b) for a, b in zip(new.active.trace.p, frozen.active.trace.p)]
        assert len(gaps) == 150 and max(gaps) <= 1e-6
        assert abs(new.active.final_loss - frozen.active.final_loss) <= 1e-9
        assert new.passive.final_loss == frozen.passive.final_loss


def test_constant_threshold():
    threshold = ConstantThreshold(0.25)
    assert threshold.probability(np.zeros(3)) == 0.25
    with pytest.raises(ValueError):
        ConstantThreshold(1.5)


def test_validate_probability_contract():
    assert validate_probability(0.5) == 0.5
    assert validate_probability(-1e-12) == 0.0
    with pytest.raises(ThresholdContractError):
        validate_probability(1.2)
    with pytest.raises(ThresholdContractError):
        validate_probability(-0.3)
