import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from iwal import bootstrap
from iwal.engine import ArrayOracle, Engine, weighted_loss_estimate
from iwal.errors import PredictionDomainError, ThresholdContractError
from iwal.hypotheses import (ConstantPredictor, FiniteClass, LinearPredictor,
                             ThresholdPredictor, WeightedSample)
from iwal.losses import LossFunction
from iwal.thresholds import (ConstantThreshold, LossWeightingFinite,
                             LossWeightingLinear)

from conftest import (random_discrete_instance, random_linear_predictors,
                      weighted_total_loss)


def make_engine(p, seed=0, **kwargs):
    loss = LossFunction("logistic", 1.0)
    return Engine(loss, ConstantThreshold(p), np.random.default_rng(seed), **kwargs)


class BrokenThreshold:
    def attach(self, engine):
        pass

    def probability(self, x):
        return 1.7

    def record(self, x, y, p, queried):
        pass


class TestStep:
    def test_probability_one_queries_everything(self, rng):
        engine = make_engine(1.0)
        oracle = ArrayOracle(np.ones(50))
        for i in range(50):
            engine.step(rng.normal(size=2), oracle)
        assert sum(engine.trace.q) == 50
        assert len(engine.sample) == 50
        assert oracle.calls == 50

    def test_probability_zero_never_queries(self, rng):
        engine = make_engine(0.0)
        oracle = ArrayOracle(np.ones(50))
        for i in range(50):
            engine.step(rng.normal(size=2), oracle)
        assert sum(engine.trace.q) == 0
        assert len(engine.sample) == 0
        assert oracle.calls == 0

    def test_half_probability_concentrates(self):
        # binomial 4-sigma band around 0.5 over 10000 steps, every seed
        for seed in range(30):
            engine = make_engine(0.5, seed=seed)
            oracle = ArrayOracle(np.ones(10000))
            xs = np.zeros((10000, 2))
            for x in xs:
                engine.step(x, oracle)
            fraction = sum(engine.trace.q) / 10000
            assert abs(fraction - 0.5) <= 0.02

    def test_threshold_contract_enforced(self, rng):
        loss = LossFunction("logistic", 1.0)
        engine = Engine(loss, BrokenThreshold(), np.random.default_rng(0))
        with pytest.raises(ThresholdContractError):
            engine.step(rng.normal(size=2), ArrayOracle(np.ones(1)))

    def test_oracle_calls_equal_query_count(self, rng):
        engine = make_engine(0.3, seed=7)
        oracle = ArrayOracle(rng.choice([-1.0, 1.0], size=300))
        for i in range(300):
            engine.step(rng.normal(size=2), oracle)
        assert oracle.calls == sum(engine.trace.q)
        assert oracle.calls == len(engine.sample)

    def test_weights_are_inverse_probabilities(self, rng):
        engine = make_engine(0.25, seed=3)
        oracle = ArrayOracle(np.ones(200))
        for i in range(200):
            engine.step(rng.normal(size=2), oracle)
        assert all(e.weight == 4.0 for e in engine.sample)

    def test_p_min_clamp_applies(self, rng):
        loss = LossFunction("logistic", 1.0)
        engine = Engine(loss, ConstantThreshold(0.0),
                        np.random.default_rng(0), p_min=0.5)
        oracle = ArrayOracle(np.ones(1000))
        for i in range(1000):
            engine.step(rng.normal(size=2), oracle)
        fraction = sum(engine.trace.q) / 1000
        assert abs(fraction - 0.5) <= 0.07


class TestWeightedLossEstimate:
    def test_passive_case_is_empirical_loss(self, rng):
        loss = LossFunction("logistic", 1.0)
        h = LinearPredictor(rng.normal(size=2), 1.0)
        sample = WeightedSample()
        plain = 0.0
        for _ in range(20):
            x = rng.normal(size=2)
            y = float(rng.choice([-1.0, 1.0]))
            sample.append(x, y, 1.0)
            plain += loss.eval(h.predict(x), y)
        assert weighted_loss_estimate(sample, h, loss, 20) == pytest.approx(plain / 20)

    def test_single_step_reweighting(self):
        loss = LossFunction("zero-one")
        h = ConstantPredictor(1.0)
        sample = WeightedSample([(np.zeros(1), -1.0, 4.0)])
        # loss value 1 at weight 4 (p = 0.25), averaged over T=2
        assert weighted_loss_estimate(sample, h, loss, 2) == 2.0

    def test_unqueried_steps_contribute_zero_without_labels(self):
        loss = LossFunction("zero-one")
        h = ConstantPredictor(1.0)
        # step 1 was not queried, so only step 2 (p = 1) is in the sample
        sample = WeightedSample([(np.zeros(1), -1.0, 1.0)])
        assert weighted_loss_estimate(sample, h, loss, 2) == 0.5
        assert weighted_loss_estimate(WeightedSample(), h, loss, 3) == 0.0
        with pytest.raises(ValueError, match="at least one step"):
            weighted_loss_estimate(sample, h, loss, 0)

    def test_query_at_zero_probability_rejected(self):
        # the weight 1/p of a query at p = 0, or at a subnormal p, is not
        # finite, and the sample refuses it
        loss = LossFunction("zero-one")
        h = ConstantPredictor(1.0)
        sample = WeightedSample()
        with np.errstate(divide="ignore", over="ignore"):
            for p in (0.0, 5e-324):
                with pytest.raises(ValueError, match="finite"):
                    sample.append(np.zeros(1), 1.0, np.float64(1.0) / p)
        assert len(sample) == 0
        assert weighted_loss_estimate(sample, h, loss, 1) == 0.0

    def test_unbiased_on_enumerable_instance(self, rng):
        # fixed hypothesis, fixed p: Monte-Carlo mean within 3 standard errors
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(10, 2, rng)
        h = LinearPredictor(rng.normal(size=2) * 0.5, 1.0)
        exact = instance.exact_loss(h, loss)
        T, reps = 6, 4000
        estimates = np.empty(reps)
        for r in range(reps):
            X, y = instance.sample(rng, T)
            q = rng.random(T) < 0.3
            sample = WeightedSample((X[t], y[t], 1.0 / 0.3) for t in range(T) if q[t])
            estimates[r] = weighted_loss_estimate(sample, h, loss, T)
        stderr = estimates.std() / np.sqrt(reps)
        assert abs(estimates.mean() - exact) <= 3 * stderr

    def test_unbiased_under_adaptive_probabilities(self):
        # the engine's own sample under loss-weighting p (optimistic slack,
        # p_min = 0.1, so every member keeps a positive query chance): the
        # weighted estimate of a fixed member's loss stays within 3 standard
        # errors of its true loss, while the plain mean of the queried rows,
        # which over-represents the points where p is high, misses it by
        # more (z about 6 to 9 over five disjoint sets of 400 run seeds,
        # against |z| < 1 for the weighted estimate)
        build = np.random.default_rng(1)
        loss = LossFunction("logistic", 1.0)
        instance = random_discrete_instance(6, 2, build)
        cls = FiniteClass(tuple(random_linear_predictors(build, 8, 2)))
        h = cls.members[3]
        exact = instance.exact_loss(h, loss)
        T, runs = 30, 400
        weighted, queried = np.empty(runs), []
        for r in range(runs):
            run_rng = np.random.default_rng(r)
            X, y = instance.sample(run_rng, T)
            threshold = LossWeightingFinite(cls, loss, slack_mode="optimistic")
            engine = Engine(loss, threshold, run_rng, p_min=0.1)
            oracle = ArrayOracle(y)
            for x in X:
                engine.step(x, oracle)
            weighted[r] = weighted_loss_estimate(engine.sample, h, loss, T)
            queried += [loss.eval(h.predict(e.x), e.y) for e in engine.sample]
        assert min(engine.trace.p) < 1.0    # p did adapt
        assert abs(weighted.mean() - exact) <= 3 * weighted.std() / math.sqrt(runs)
        queried = np.array(queried)
        assert abs(queried.mean() - exact) > 3 * queried.std() / math.sqrt(len(queried))


class TestRunStream:
    def test_single_point_stream(self, rng):
        engine = make_engine(1.0)
        engine.step(rng.normal(size=2), ArrayOracle(np.array([1.0])))
        assert len(engine.trace) == 1
        assert sum(engine.trace.q) == 1

    def test_deterministic_replay(self, rng):
        loss = LossFunction("logistic", 1.0)
        members = tuple(random_linear_predictors(rng, 8, 2))
        X = rng.normal(size=(120, 2))
        y = rng.choice([-1.0, 1.0], size=120)

        def run():
            threshold = LossWeightingFinite(FiniteClass(members), loss)
            engine = Engine(loss, threshold, np.random.default_rng(42),
                            hypothesis_class=FiniteClass(members))
            oracle = ArrayOracle(y)
            for x in X:
                engine.step(x, oracle)
            return engine.refresh_hypothesis(), engine.trace

        h1, t1 = run()
        h2, t2 = run()
        assert h1 is h2  # same member object chosen
        assert len(t1) == len(t2) == 120
        assert (t1.p, t1.q) == (t2.p, t2.q)

    def test_separable_stream_queries_less_than_passive(self, rng):
        loss = LossFunction("logistic", 1.0)
        members = tuple(random_linear_predictors(rng, 12, 2))
        cls = FiniteClass(members)
        direction = np.array([1.0, -0.5])
        X = rng.normal(size=(300, 2))
        y = np.where(X @ direction > 0, 1.0, -1.0)
        threshold = LossWeightingFinite(cls, loss)
        engine = Engine(loss, threshold, np.random.default_rng(5),
                        hypothesis_class=cls)
        oracle = ArrayOracle(y)
        for x in X:
            engine.step(x, oracle)
        assert sum(engine.trace.q) < 300

    def test_finite_class_incremental_erm_matches_scan(self, rng):
        loss = LossFunction("logistic", 1.0)
        cls = FiniteClass(tuple(random_linear_predictors(rng, 10, 2)))
        engine = Engine(loss, ConstantThreshold(0.6),
                        np.random.default_rng(11), hypothesis_class=cls)
        X = rng.normal(size=(80, 2))
        oracle = ArrayOracle(rng.choice([-1.0, 1.0], size=80))
        for x in X:
            engine.step(x, oracle)
        totals = [weighted_total_loss(h, engine.sample, loss) for h in cls.members]
        # the first minimizer in member order
        assert engine.refresh_hypothesis() is cls.members[int(np.argmin(totals))]
        assert engine.member_sums == pytest.approx(totals)


class TestLinearMinimizer:
    def test_step_makes_no_solver_call_and_refresh_covers_every_row(
            self, rng, monkeypatch):
        import iwal.engine as engine_module
        from iwal.hypotheses import LinearBall

        rows_seen = []
        solve = engine_module.erm_weighted

        def counting_erm(cls, sample, loss, **kwargs):
            rows_seen.append(len(sample))
            return solve(cls, sample, loss, **kwargs)

        monkeypatch.setattr(engine_module, "erm_weighted", counting_erm)
        engine = make_engine(0.5, seed=2, hypothesis_class=LinearBall(2, 1.0))
        rows_seen.clear()                   # the empty-sample start
        X = rng.normal(size=(60, 2))
        oracle = ArrayOracle(np.where(X[:, 0] > 0, 1.0, -1.0))
        for x in X:
            engine.step(x, oracle)
        assert rows_seen == []
        h = engine.refresh_hypothesis()
        assert rows_seen == [oracle.calls] and oracle.calls > 0
        assert engine.refresh_hypothesis() is h
        assert rows_seen == [oracle.calls]


def test_trace_csv_round_trip(tmp_path, rng):
    engine = make_engine(0.5, seed=1)
    oracle = ArrayOracle(np.ones(20))
    for i in range(20):
        engine.step(rng.normal(size=2), oracle)
    path = tmp_path / "trace.csv"
    engine.trace.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,p_t,q_t,cum_queries"
    assert len(rows) == 21
    cums = [int(r.split(",")[3]) for r in rows[1:]]
    assert cums == sorted(cums)
    assert cums[-1] == sum(engine.trace.q)


STREAM_ROWS = 130


def _stream_engine(kind):
    """A fresh engine of `kind` and its stream (X, labels), every one seeded
    alike, so two engines of one kind take the same steps."""
    rng = np.random.default_rng(4952)
    X = rng.normal(size=(STREAM_ROWS, 3))
    y = np.where(X @ np.array([1.0, -0.5, 0.25]) + 0.3 * rng.normal(size=STREAM_ROWS)
                 >= 0, 1.0, -1.0)
    logistic = LossFunction("logistic", 1.0)
    if kind == "linear":
        # every interval is two solves, so the linear stream is shorter
        threshold = LossWeightingLinear(3, 1.0, logistic, slack_mode="optimistic")
        X, y = X[:30], y[:30]
    elif kind == "committee":
        committee = bootstrap.train_committee(X[:20], y[:20], rng, size=5)
        threshold = bootstrap.CommitteeThreshold(committee, logistic)
    else:
        members = random_linear_predictors(rng, 24, 3)
        if kind == "zero-one":
            members = [ThresholdPredictor(h.weights) for h in members]
        elif kind == "mixed":
            members += [ConstantPredictor(0.5), ConstantPredictor(-1.0)]
        loss = LossFunction(kind if kind == "zero-one" else "logistic", 1.0)
        if kind == "passive":
            return (Engine(loss, ConstantThreshold(0.5), np.random.default_rng(7),
                           hypothesis_class=FiniteClass(members)), X, ArrayOracle(y))
        threshold = LossWeightingFinite(FiniteClass(members), loss,
                                        slack_mode="optimistic")
    engine = Engine(threshold.loss, threshold, np.random.default_rng(7))
    return engine, X, ArrayOracle(y)


def _engine_state(engine):
    """Every fact a step writes, as bytes: the trace, the member sums, the
    survivors, the sample columns and the running minimizer."""
    h = engine.refresh_hypothesis()
    members = getattr(engine.hypothesis_class, "members", None)
    chosen = (np.array([i for i, m in enumerate(members) if m is h]) if members
              else getattr(h, "weights", np.array([])))
    arrays = [np.array(engine.trace.p), np.array(engine.trace.q), engine.sample.X,
              engine.sample.y, engine.sample.w, chosen]
    for owner, name in ((engine, "member_sums"), (engine.threshold, "alive")):
        if getattr(owner, name, None) is not None:
            arrays.append(getattr(owner, name))
    return [a.tobytes() for a in arrays]


class TestBlockSteps:
    """`Engine.steps` over any partition of the stream into blocks writes
    what `Engine.step` row by row writes, bit for bit. A finite class's
    blocks take their slices of one table of its predictions on every row,
    as a run hands them."""

    @pytest.mark.parametrize("kind", ("logistic", "zero-one", "mixed", "passive",
                                      "committee", "linear"))
    @settings(max_examples=15, deadline=None)
    @given(cuts=st.sets(st.integers(1, STREAM_ROWS - 1)))
    @example(cuts=set(range(1, STREAM_ROWS)))          # blocks of one row
    @example(cuts=set(range(10, STREAM_ROWS, 10)))     # the checkpoint blocks
    @example(cuts=set())                               # the whole stream
    def test_blocks_match_rows_bit_for_bit(self, kind, cuts):
        by_row, X, oracle = _stream_engine(kind)
        for x in X:
            by_row.step(x, oracle)
        by_block, X, oracle = _stream_engine(kind)
        finite = by_block.member_sums is not None
        Z = by_block.hypothesis_class.predict_many(X) if finite else None
        bounds = [0, *sorted(c for c in cuts if c < len(X)), len(X)]
        for first, stop in zip(bounds, bounds[1:]):
            by_block.steps(X[first:stop], oracle,
                           Z[first:stop] if finite else None)
        assert by_block.t == by_row.t == len(X)
        assert sum(by_block.trace.q) > 0
        assert _engine_state(by_block) == _engine_state(by_row)

    def test_a_block_without_a_table_is_predicted_once(self, monkeypatch):
        by_row, X, oracle = _stream_engine("logistic")
        for x in X:
            by_row.step(x, oracle)
        calls = []
        monkeypatch.setattr(FiniteClass, "predict_many",
                            lambda cls, X, predict=FiniteClass.predict_many:
                            calls.append(len(X)) or predict(cls, X))
        by_block, X, oracle = _stream_engine("logistic")
        by_block.steps(X, oracle)
        assert calls == [len(X)]
        assert _engine_state(by_block) == _engine_state(by_row)

    def test_out_of_range_table_fails_before_any_step(self):
        engine, X, oracle = _stream_engine("logistic")
        Z = engine.hypothesis_class.predict_many(X[:5])
        Z[3, 0] = 1.5
        with pytest.raises(PredictionDomainError):
            engine.steps(X[:5], oracle, Z)
        assert engine.t == 0
