import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from iwal import bootstrap as bs
from iwal import harness, solver, trees
from iwal.cli import main
from iwal.engine import ArrayOracle, Engine
from iwal.errors import ConfigError
from iwal.harness import (ExperimentConfig, aggregate_reports, build_data,
                          emit_curves, evaluate_error, evaluate_loss,
                          run_experiment, run_replicates)
from iwal.hypotheses import FiniteClass, LinearPredictor
from iwal.losses import LossFunction
from iwal.thresholds import ConstantThreshold
from iwal.trees import DecisionTree, TreeParams


def base_config(**overrides):
    payload = {
        "dataset": {"kind": "sphere", "dim": 3, "noise": 0.05},
        "strategy": "passive",
        "train_size": 120,
        "test_size": 80,
        "seed": 7,
        "loss_kind": "logistic",
        "class_spec": {"kind": "linear", "norm_bound": 1.0},
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"dataset": {"kind": "sphere"},
                                        "strategy": "passive",
                                        "train_size": 10, "test_size": 10,
                                        "seed": 1, "bogus": 3})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing config keys"):
            ExperimentConfig.from_dict({"strategy": "passive"})

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError):
            base_config(strategy="quantum")

    def test_bad_probability_ranges(self):
        with pytest.raises(ConfigError):
            base_config(confidence=0.0)
        with pytest.raises(ConfigError):
            base_config(p_min=1.5)

    @pytest.mark.parametrize("constant", [-1.0, 0.0, math.nan, math.inf])
    def test_slack_constant_must_be_positive_and_finite(self, constant):
        # each once built and died mid-stream, or ran with p stuck at 0
        with pytest.raises(ConfigError, match="slack_constant must be positive and finite"):
            base_config(strategy="loss-weighting-finite", slack_constant=constant)

    def test_bad_slack_constant_exits_1_from_the_cli(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": {"kind": "sphere", "dim": 3}, "strategy": "loss-weighting-finite",
            "train_size": 60, "test_size": 40, "seed": 3, "slack_constant": -1.0}))
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: slack_constant must be positive and finite, got -1.0\n"

    def test_removed_erm_every_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config keys \['erm_every'\]"):
            base_config(erm_every=5)

    def test_nonpositive_checkpoint_interval_rejected_early(self):
        with pytest.raises(ConfigError, match="checkpoint_every must be positive"):
            base_config(checkpoint_every=0)

    def test_checkpoint_default_cadence(self):
        config = base_config(train_size=1000)
        assert config.checkpoint_interval() == 10

    @pytest.mark.parametrize("loss_kind, range_bound, message", [
        ("squared", 1e200, "loss: range_bound 1e+200 overflows the squared loss normalizer"),
        ("squared", math.inf, "loss: range_bound must be positive and finite"),
        ("zero-one", math.inf, "loss: range_bound must be positive and finite"),
    ])
    def test_loss_normalizer_must_be_finite(self, loss_kind, range_bound, message):
        # rejected when the config is built, before any data is drawn
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            base_config(strategy="bootstrap", loss_kind=loss_kind,
                        range_bound=range_bound)
        assert base_config(loss_kind="squared", range_bound=1e154).range_bound == 1e154

    @pytest.mark.parametrize("loss_kind", ["logistic", "hinge", "squared", "absolute"])
    def test_bootstrap_range_below_the_tree_votes_rejected(self, loss_kind):
        # trees predict -1 and +1, outside [-b, b] for b < 1: rejected when
        # the config is built, not partway into the stream
        with pytest.raises(ConfigError, match=r"^bootstrap trees predict -1 and \+1, "
                                              r"so range_bound must be at least 1, got 0\.5$"):
            base_config(strategy="bootstrap", loss_kind=loss_kind, range_bound=0.5)
        assert base_config(strategy="bootstrap", loss_kind=loss_kind,
                           range_bound=1.0).range_bound == 1.0

    def test_zero_one_bootstrap_reads_no_range_bound(self):
        # zero-one predictions are -1 or +1 whatever the range bound
        report = run_experiment(base_config(strategy="bootstrap", loss_kind="zero-one",
                                            range_bound=0.5, train_size=60,
                                            test_size=20))
        assert 0.0 <= report.active.final_loss <= 1.0

    def test_config_echo_round_trips(self):
        config = base_config()
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()


class TestBuildData:
    def test_sphere_split_sizes(self, rng):
        config = base_config()
        X_train, y_train, X_test, y_test, support = build_data(config, rng)
        assert X_train.shape == (120, 3)
        assert X_test.shape == (80, 3)
        assert support == (-1.0, 1.0)

    def test_file_dataset(self, tmp_path, rng):
        from conftest import save_csv

        X = rng.normal(size=(60, 2))
        y = rng.choice([-1.0, 1.0], size=60)
        path = tmp_path / "d.csv"
        save_csv(path, X, y)
        config = base_config(dataset={"kind": "file", "path": str(path)},
                             train_size=40, test_size=20)
        X_train, _, X_test, _, _ = build_data(config, rng)
        assert X_train.shape == (40, 2)
        assert X_test.shape == (20, 2)

    def test_file_too_small_rejected(self, tmp_path, rng):
        from conftest import save_csv

        path = tmp_path / "d.csv"
        save_csv(path, rng.normal(size=(10, 2)), np.ones(10))
        config = base_config(dataset={"kind": "file", "path": str(path)},
                             train_size=40, test_size=20)
        with pytest.raises(ConfigError, match="rows"):
            build_data(config, rng)

    def test_unknown_dataset_options_rejected_when_the_config_is_built(self):
        with pytest.raises(ConfigError, match="unknown dataset options"):
            base_config(dataset={"kind": "sphere", "wobble": 1})


class TestRunExperiment:
    def test_passive_queries_everything(self):
        report = run_experiment(base_config())
        assert report.active.queries == 120
        assert report.query_fraction() == 1.0
        assert report.passive.queries == 120

    def test_identical_config_identical_reports(self):
        a = run_experiment(base_config(strategy="loss-weighting-finite"))
        b = run_experiment(base_config(strategy="loss-weighting-finite"))
        assert a.summary_dict() == b.summary_dict()
        assert a.curve_rows() == b.curve_rows()

    @pytest.mark.parametrize("strategy", harness.STRATEGIES)
    def test_checkpoints_are_paired(self, strategy):
        report = run_experiment(base_config(strategy=strategy))
        active_ts = [t for t, *_ in report.active.checkpoints]
        passive_ts = [t for t, *_ in report.passive.checkpoints]
        assert active_ts == passive_ts
        # a bootstrap arm's checkpoints, the twin's too, start at the
        # committee prefix
        first = 12 if strategy == "bootstrap" else 1
        assert active_ts == list(range(first, 121))
        rows = report.curve_rows()
        assert [row[:3] for row in rows] == [c[:3] for c in report.active.checkpoints]
        assert [row[3] for row in rows] == [c[2] for c in report.passive.checkpoints]

    def test_cumulative_queries_monotone(self):
        report = run_experiment(base_config(strategy="loss-weighting-finite"))
        cums = [cum for _, cum, *_ in report.active.checkpoints]
        assert cums == sorted(cums)

    def test_linear_strategy_smoke(self):
        config = base_config(strategy="loss-weighting-linear",
                             train_size=60, test_size=40)
        report = run_experiment(config)
        assert 0 < report.active.queries <= 60
        assert report.active.final_loss is not None
        assert "interval_solves" in report.active.diagnostics

    def test_linear_solver_work_reaches_the_summary(self, tmp_path, monkeypatch):
        solves = []
        solve = solver.minimize_weighted_loss
        monkeypatch.setattr(solver, "minimize_weighted_loss",
                            lambda *args, **kw: solves.append(1) or solve(*args, **kw))
        config = base_config(strategy="loss-weighting-linear",
                             slack_mode="optimistic", train_size=60,
                             test_size=40)
        report = run_experiment(config)
        paths = emit_curves(report, tmp_path)
        with open(paths["summary"]) as fh:
            diagnostics = json.load(fh)["active"]["diagnostics"]
        for key in ("interval_solves", "erm_solves", "interval_newton_steps",
                    "interval_outer_steps"):
            assert diagnostics[key] > 0, key
        # the passive twin queries every row: one solve per checkpoint
        assert diagnostics["erm_solves"] == len(solves) - len(report.passive.checkpoints)

    def test_interval_shortcuts_reach_the_summary(self, tmp_path, monkeypatch):
        shortcuts = []
        solve = solver.minimize_linear

        def counted(*args):
            result = solve(*args)
            shortcuts.append(result.diagnostics.used_shortcut)
            return result

        monkeypatch.setattr(solver, "minimize_linear", counted)
        config = base_config(strategy="loss-weighting-linear",
                             slack_mode="optimistic", train_size=60,
                             test_size=40)
        report = run_experiment(config)
        paths = emit_curves(report, tmp_path)
        with open(paths["summary"]) as fh:
            diagnostics = json.load(fh)["active"]["diagnostics"]
        assert diagnostics["interval_solves"] == len(shortcuts)
        assert 0 < diagnostics["interval_shortcuts"] == sum(shortcuts) < len(shortcuts)

    def test_bootstrap_pipeline(self):
        config = base_config(strategy="bootstrap", loss_kind="zero-one",
                             train_size=200, test_size=100)
        report = run_experiment(config)
        prefix = report.active.diagnostics["prefix"]
        assert prefix == 20
        assert prefix <= report.active.queries <= 200
        assert report.passive.queries == 200
        assert report.active.final_error is not None

    def test_bootstrap_respects_top_level_p_min(self):
        config = base_config(strategy="bootstrap", p_min=0.95,
                             train_size=200, test_size=100)
        report = run_experiment(config)
        assert len(report.active.trace) == 180
        assert min(report.active.trace.p) >= 0.95

    def test_standardize_with_constant_feature(self, tmp_path, rng):
        from conftest import save_csv

        X = rng.normal(size=(150, 3))
        X[:, 1] = 4.0
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        path = tmp_path / "d.csv"
        save_csv(path, X, y)
        config = base_config(dataset={"kind": "file", "path": str(path)},
                             strategy="loss-weighting-linear",
                             train_size=100, test_size=50, standardize=True)
        report = run_experiment(config)
        for arm in (report.active, report.passive):
            assert math.isfinite(arm.final_loss)
            assert 0.0 <= arm.final_error < 0.5

    def test_point_mass_faithful_labels_skip_error_metric(self):
        config = base_config(
            dataset={"kind": "point-mass", "beta": 0.3,
                     "binary_labels": False},
            strategy="passive", loss_kind="squared", train_size=60,
            test_size=40)
        report = run_experiment(config)
        assert report.active.final_error is None
        assert report.active.final_loss is not None


def _eager_bootstrap_checkpoints(config, passive):
    """Frozen reference for a bootstrap arm's checkpoint rows: at each
    checkpoint, draw the costing resample and fit the final tree right away,
    as the stream loop did before the final trees were grown after it."""
    states = np.random.SeedSequence(config.seed).generate_state(7)
    data_seed, active_seed, passive_seed, aux_a, aux_b, aux_c, aux_d = map(int, states)
    X_train, y_train, X_test, y_test, support = build_data(
        config, np.random.default_rng(data_seed))
    seeds = (aux_c, passive_seed, aux_d) if passive else (aux_a, active_seed, aux_b)
    loss = LossFunction(config.loss_kind, config.range_bound)
    opts = config.committee
    T = len(X_train)
    prefix = min(T, max(2, math.ceil(opts["initial_fraction"] * T)))
    params = TreeParams(max_depth=opts["max_depth"], min_leaf=opts["min_leaf"])
    X0, y0 = X_train[:prefix], y_train[:prefix]
    if passive:
        threshold = ConstantThreshold(1.0)
    else:
        committee = bs.train_committee(X0, y0, np.random.default_rng(seeds[0]),
                                       size=opts["size"], params=params)
        threshold = bs.CommitteeThreshold(committee, loss, support, opts["p_min"])
    engine = Engine(loss, threshold, np.random.default_rng(seeds[1]),
                    p_min=config.p_min)
    oracle = ArrayOracle(y_train[prefix:])
    interval = config.checkpoint_interval()
    schedule = sorted({t for t in range(interval, T + 1, interval) if t >= prefix}
                      | {T})
    rows, done = [], prefix
    for i, t in enumerate(schedule):
        for row in range(done, t):
            engine.step(X_train[row], oracle)
        done = t
        collected = (bs.weighted_examples_from_arrays(X0, y0, np.ones(prefix))
                     + engine.sample)
        resampled = bs.costing_resample(collected,
                                        np.random.default_rng([seeds[2], i]))
        tree, = DecisionTree.fit_many(resampled.X, resampled.y, [resampled.rows], params)
        rows.append((t, prefix + oracle.calls,
                     evaluate_loss(tree, X_test, y_test, loss),
                     evaluate_error(tree, X_test, y_test)))
    return rows


class TestBootstrapCheckpoints:
    @pytest.mark.parametrize("seed", (3, 8))
    def test_rows_match_the_eager_reference(self, seed):
        config = base_config(strategy="bootstrap", train_size=300,
                             test_size=60, checkpoint_every=10, seed=seed)
        report = run_experiment(config)
        assert report.active.checkpoints == _eager_bootstrap_checkpoints(config, False)
        assert report.passive.checkpoints == _eager_bootstrap_checkpoints(config, True)

    def test_active_checkpoint_trees_grow_as_one_forest(self, monkeypatch):
        # the active arm's resamples are small enough to be grown together
        forests, grow = [], trees._grow
        config = base_config(strategy="bootstrap", train_size=300, test_size=60,
                             checkpoint_every=10, seed=3)
        reference = _eager_bootstrap_checkpoints(config, False)
        monkeypatch.setattr(trees, "_grow", lambda X, pos, order, sizes, params:
                            forests.append(len(sizes)) or grow(X, pos, order, sizes, params))
        report = run_experiment(config)
        assert report.active.checkpoints == reference
        # one forest for the committee, one for every active checkpoint
        assert forests[:2] == [config.committee["size"], len(reference)]


def _eager_engine_checkpoints(config, passive):
    """Reference for an engine arm's checkpoint rows: each checkpoint's
    hypothesis scored right away by the 1-D evaluate_loss and
    evaluate_error, as the stream loop did before it scored every
    checkpoint in one batch after the stream."""
    states = np.random.SeedSequence(config.seed).generate_state(7)
    data_seed, active_seed, passive_seed, aux_a, *_ = map(int, states)
    X_train, y_train, X_test, y_test, support = build_data(
        config, np.random.default_rng(data_seed))
    loss = LossFunction(config.loss_kind, config.range_bound)
    cls = harness._make_class(config, X_train.shape[1], np.random.default_rng(aux_a))
    if passive or config.strategy == "passive":
        threshold = ConstantThreshold(1.0)
    else:
        threshold = harness._make_threshold(config, loss, cls, support)
    engine = Engine(loss, threshold,
                    np.random.default_rng(passive_seed if passive else active_seed),
                    hypothesis_class=cls, p_min=config.p_min)
    oracle = ArrayOracle(y_train)
    T, interval = len(X_train), config.checkpoint_interval()
    rows, done = [], 0
    for t in sorted(set(range(interval, T + 1, interval)) | {T}):
        for row in range(done, t):
            engine.step(X_train[row], oracle)
        done = t
        h = engine.refresh_hypothesis()
        rows.append((t, oracle.calls, evaluate_loss(h, X_test, y_test, loss),
                     evaluate_error(h, X_test, y_test)))
    return rows


def _unstacked_members(size, dim, norm_bound, range_bound, loss_kind, rng,
                       members=harness._finite_members):
    """The configured finite class with every other member's range bound
    halved, so that its members form no weight matrix."""
    cls = members(size, dim, norm_bound, range_bound, loss_kind, rng)
    return FiniteClass(tuple(LinearPredictor(h.weights, h.range_bound / (1 + i % 2))
                             for i, h in enumerate(cls.members)))


FINITE = {"class_spec": {"kind": "finite", "size": 16}}


class TestEngineCheckpoints:
    @pytest.mark.parametrize("strategy, extra, unstacked", [
        pytest.param("passive", {}, False, id="passive-extra0"),
        pytest.param("passive", FINITE, False, id="passive-finite"),
        pytest.param("loss-weighting-finite", {**FINITE, "slack_mode": "optimistic"}, False,
                     id="loss-weighting-finite-extra1"),
        pytest.param("loss-weighting-finite", {**FINITE, "loss_kind": "zero-one"}, False,
                     id="finite-zero-one"),
        pytest.param("loss-weighting-finite", {**FINITE, "loss_kind": "squared", "dataset": {
            "kind": "point-mass", "beta": 0.3, "binary_labels": False}}, False,
                     id="finite-point-mass-real-labels"),
        # checkpoints on both sides of each loss table's first row
        pytest.param("loss-weighting-finite", {**FINITE, "train_size": 350,
                                               "checkpoint_every": 30}, False,
                     id="finite-table-edges"),
        pytest.param("loss-weighting-finite", {**FINITE, "slack_mode": "optimistic"}, True,
                     id="finite-unstacked"),
        pytest.param("loss-weighting-linear", {"slack_mode": "optimistic"}, False,
                     id="loss-weighting-linear-extra2"),
    ])
    def test_rows_match_the_eager_reference(self, monkeypatch, strategy, extra, unstacked):
        if unstacked:
            monkeypatch.setattr(harness, "_finite_members", _unstacked_members)
        config = base_config(**{"strategy": strategy, "train_size": 150, "test_size": 60,
                                "checkpoint_every": 10, "seed": 5, **extra})
        report = run_experiment(config)
        assert report.active.checkpoints == _eager_engine_checkpoints(config, False)
        assert report.passive.checkpoints == _eager_engine_checkpoints(config, True)

    @pytest.mark.parametrize("loss_kind", ("logistic", "zero-one"))
    @pytest.mark.parametrize("block", (harness.BLOCK_ROWS, 7, 1))
    def test_prefix_sums_are_the_streamed_member_sums(self, monkeypatch, rng, loss_kind,
                                                      block):
        monkeypatch.setattr(harness, "BLOCK_ROWS", block)
        X = rng.normal(size=(230, 4))
        y = np.where(rng.random(230) < 0.5, -1.0, 1.0)
        loss = LossFunction(loss_kind)
        cls = harness._finite_members(32, 4, 1.0, 1.0, loss_kind, rng)
        schedule = [1, 6, 7, 8, 99, 100, 101, 150, 230]
        engine = Engine(loss, ConstantThreshold(1.0), rng, hypothesis_class=cls)
        oracle, streamed, done = ArrayOracle(y), [], 0
        for t in schedule:
            for row in range(done, t):
                engine.step(X[row], oracle)
            done = t
            streamed.append(engine.member_sums.copy())
        # from the table of the class's predictions on every row, as a run
        # predicts it once for both arms
        sums = harness._finite_prefix_sums(loss, cls.predict_many(X), y, schedule)
        assert sums.tobytes() == np.array(streamed).tobytes()

    @pytest.mark.parametrize("strategy", ("loss-weighting-finite", "passive"))
    def test_finite_run_predicts_the_training_rows_once(self, monkeypatch, strategy):
        # both arms read one table of the class's predictions on every
        # training row; nothing predicts a training row again
        calls = []
        for name in ("predict", "predict_many"):
            monkeypatch.setattr(FiniteClass, name,
                                lambda cls, X, name=name, predict=getattr(FiniteClass, name):
                                calls.append((name, len(X))) or predict(cls, X))
        config = base_config(strategy=strategy, train_size=250, test_size=30,
                             checkpoint_every=20,
                             class_spec={"kind": "finite", "size": 16})
        report = run_experiment(config)
        assert calls == [("predict_many", 250)]
        assert report.active.queries > 0

    @pytest.mark.parametrize("p_min", (0.0, 1))
    def test_passive_trace_is_the_streamed_engine_trace(self, tmp_path, p_min):
        config = base_config(train_size=90, test_size=20, p_min=p_min)
        paths = emit_curves(run_experiment(config), tmp_path)
        data_seed = int(np.random.SeedSequence(config.seed).generate_state(7)[0])
        X_train, y_train, *_ = build_data(config, np.random.default_rng(data_seed))
        engine = Engine(LossFunction("logistic"), ConstantThreshold(1.0),
                        np.random.default_rng(0), p_min=config.p_min)
        oracle = ArrayOracle(y_train)
        for x in X_train:
            engine.step(x, oracle)
        engine.trace.write_csv(tmp_path / "streamed.csv")
        assert open(paths["trace"], "rb").read() == open(tmp_path / "streamed.csv", "rb").read()


class TestCheckpointEvaluation:
    @pytest.mark.parametrize("strategy", ("passive", "loss-weighting-finite", "bootstrap"))
    def test_one_prediction_per_checkpoint(self, monkeypatch, strategy):
        # an engine arm predicts once per distinct checkpoint model (a finite
        # arm's models are class members that repeat) and a bootstrap arm
        # walks its checkpoint trees once; either way one loss and one error
        # call score every checkpoint of the arm
        predictions, walks, calls, models = [], [], [], []
        for cls in (LinearPredictor, DecisionTree):
            monkeypatch.setattr(cls, "predict_many",
                                lambda h, X, predict=cls.predict_many:
                                predictions.append((id(h), len(X))) or predict(h, X))
        monkeypatch.setattr(harness, "_predict_each",
                            lambda hs, X, predict=harness._predict_each:
                            models.append(hs) or predict(hs, X))
        monkeypatch.setattr(harness, "predict_forest",
                            lambda forest, X, walk=harness.predict_forest:
                            walks.append((len(forest), len(X))) or walk(forest, X))
        for name in ("evaluate_loss", "evaluate_error"):
            monkeypatch.setattr(harness, name,
                                lambda *args, name=name, score=getattr(harness, name):
                                calls.append(name) or score(*args))
        report = run_experiment(base_config(strategy=strategy, train_size=200,
                                            test_size=30, checkpoint_every=20))
        arms = {id(report.active): report.active, id(report.passive): report.passive}
        checkpoints = [len(arm.checkpoints) for arm in arms.values()]
        assert sorted(calls) == (["evaluate_error"] * len(arms)
                                 + ["evaluate_loss"] * len(arms))
        if strategy == "bootstrap":
            assert predictions == [] and walks == [(n, 30) for n in checkpoints]
        else:
            assert [len(hs) for hs in models] == checkpoints
            distinct = [key for hs in models for key in dict.fromkeys(map(id, hs))]
            assert walks == [] and predictions == [(key, 30) for key in distinct]
            if strategy == "loss-weighting-finite":
                assert len(distinct) < sum(checkpoints)

    def test_prediction_matrix_scores_each_row_as_its_own_call(self, rng):
        # a label's columns Z[:, mask] would be F-ordered, and their row sums
        # differ from the 1-D sums in the last bit on this draw
        Z = rng.uniform(-1.0, 1.0, size=(7, 400))
        y = rng.choice([-1.0, 1.0], size=400)
        loss = LossFunction("logistic", 1.0)
        f_ordered = loss.eval_many(Z[:, y == 1.0], 1.0)
        assert f_ordered.flags.f_contiguous
        assert (f_ordered.sum(axis=1) != [np.sum(row) for row in f_ordered]).any()
        assert evaluate_loss(None, None, y, loss, Z) == [
            evaluate_loss(None, None, y, loss, z) for z in Z]
        assert evaluate_error(None, None, y, Z) == [
            evaluate_error(None, None, y, z) for z in Z]

    def test_real_labels_give_one_loss_and_no_error_per_row(self, rng):
        config = base_config(dataset={"kind": "point-mass", "beta": 0.3,
                                      "binary_labels": False},
                             loss_kind="squared", test_size=300)
        y = build_data(config, rng)[3]
        assert not set(y.tolist()) <= {-1.0, 1.0}
        Z = rng.uniform(-1.0, 1.0, size=(5, len(y)))
        loss = LossFunction("squared", 1.0)
        assert evaluate_loss(None, None, y, loss, Z) == [
            evaluate_loss(None, None, y, loss, z) for z in Z]
        assert evaluate_error(None, None, y, Z) == [None] * 5
        assert evaluate_error(None, None, y, Z[0]) is None

    def test_given_predictions_give_the_same_loss_and_error(self, rng):
        X, y = rng.normal(size=(50, 3)), rng.choice([-1.0, 1.0], size=50)
        tree = trees.DecisionTree.fit(X[:30], y[:30], TreeParams(max_depth=3))
        z = tree.predict_many(X)
        loss = LossFunction("logistic", 1.0)
        assert evaluate_loss(tree, X, y, loss, z) == evaluate_loss(tree, X, y, loss)
        assert evaluate_error(tree, X, y, z) == evaluate_error(tree, X, y)


class TestReplicatesAndEmission:
    def test_aggregate_is_order_independent(self):
        config = base_config(strategy="loss-weighting-finite", replicates=3,
                             train_size=60, test_size=30)
        reports, aggregate = run_replicates(config)
        assert aggregate["replicates"] == 3
        reversed_aggregate = aggregate_reports(list(reversed(reports)))
        for key, value in aggregate.items():
            if key == "seeds":
                continue
            assert reversed_aggregate[key] == pytest.approx(value)

    def test_emit_curves_files(self, tmp_path):
        report = run_experiment(base_config(strategy="loss-weighting-finite",
                                            train_size=60, test_size=30))
        paths = emit_curves(report, tmp_path)
        curve_lines = open(paths["curve"]).read().strip().splitlines()
        assert curve_lines[0] == "t,cum_queries,active_test_loss,passive_test_loss"
        assert len(curve_lines) == len(report.active.checkpoints) + 1
        summary = json.load(open(paths["summary"]))
        assert summary == report.summary_dict()
        trace_lines = open(paths["trace"]).read().strip().splitlines()
        assert len(trace_lines) == 61

    def test_emission_is_bit_stable(self, tmp_path):
        report = run_experiment(base_config(train_size=40, test_size=20))
        a = emit_curves(report, tmp_path / "a")
        b = emit_curves(report, tmp_path / "b")
        assert open(a["curve"]).read() == open(b["curve"]).read()
        assert open(a["summary"]).read() == open(b["summary"]).read()


class TestPinnedFingerprints:
    # Query count, both final test losses and the SHA-256 of curve.csv,
    # summary.json and trace.csv of short runs of each strategy but bootstrap
    # (pinned in test_bootstrap.py) and of the lower-bound and point-mass
    # datasets, recorded at commit 45a14dc. A change meant to keep behaviour
    # must reproduce them bit for bit.
    SPHERE = {"kind": "sphere", "dim": 5, "noise": 0.1}
    CONFIGS = {
        "passive": {"dataset": SPHERE, "strategy": "passive", "train_size": 300,
                    "seed": 1},
        "loss-weighting-finite": {
            "dataset": SPHERE, "strategy": "loss-weighting-finite",
            "slack_mode": "optimistic", "class_spec": {"kind": "finite", "size": 32},
            "train_size": 300, "seed": 1},
        "loss-weighting-linear": {
            "dataset": SPHERE, "strategy": "loss-weighting-linear",
            "slack_mode": "optimistic", "train_size": 150, "seed": 1},
        "lower-bound": {
            "dataset": {"kind": "lower-bound"}, "strategy": "loss-weighting-finite",
            "loss_kind": "zero-one", "slack_mode": "optimistic",
            "class_spec": {"kind": "finite", "size": 16}, "train_size": 300,
            "seed": 2},
        "point-mass": {
            "dataset": {"kind": "point-mass", "beta": 0.2, "binary_labels": False},
            "strategy": "loss-weighting-linear", "loss_kind": "squared",
            "slack_mode": "optimistic", "train_size": 150, "seed": 3},
    }
    PINNED = {
        "passive": (300, 0.45114628490331327, 0.45114628490331327,
            "22a14fe84f9e909ac2cde9e192fbbf6033914f1c42c2ab2eef406b65f9b72b06",
            "ed9fcc0f298f1620ac4c8f57570e9dbb23b8e709433068fc9f77542b4516f5f4",
            "3f2ba2092f90aee40853249d45d376a50f65ff693ea04642ae72563c3de45e79"),
        "loss-weighting-finite": (143, 0.45031650486938446, 0.45031650486938446,
            "f0dc8b2c3c5c5a9b5c59ea321094ea2a6f15af9ee62ad1460c3095ac3a0e9bf8",
            "0be9f7a946ad92688d0d6c5b4f65abd82e9d624637ef1d3b7ca4f4be0193f74f",
            "cda7ef1cb9f8d7f93f06d133aa7057ecfb0bcce0b7dd754c6bb32153dcb0e3d8"),
        "loss-weighting-linear": (103, 0.42534599412165136, 0.4251104093076707,
            "61f79af0576747b59880dc093bc78fb735b700845e780a7f50de6f70e555a2ce",
            "7ede434bd960da679a0d562e8c0839fa97172331b9765351b448e012a831ef3d",
            "1a1473f6fa3e24cc5a3f004d9be86e87b4864afc8f59a89049ee1b24f77cda59"),
        "lower-bound": (104, 0.22, 0.22,
            "3fefce93abf0d38ecf159853307ac5e9950465d17f3b45d3adc7754f62638de7",
            "0fd9efe44237d1e8e3d449c0b573ea75e39689b1827359587703723525282e88",
            "c6fd5633c00e3559fe55a43d585c2b8769f7728ed62de8197b07a9a1853b2a61"),
        "point-mass": (31, 0.21774983143856852, 0.21775234131113422,
            "72f9e0672c087e67a83848395c57524f295325b8dac60d16e346972a2cc42545",
            "81e3a0c7bf51540756f60a51451803163b04d176c0a7bb54e266994411efa162",
            "b3734879a95c1bcd9a34683af8198351d1fd2f41931e0eda6a91260d88150521"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_short_run_reproduces_the_pinned_fingerprint(self, name, tmp_path):
        config = ExperimentConfig.from_dict({**self.CONFIGS[name], "test_size": 100})
        report = run_experiment(config)
        paths = emit_curves(report, tmp_path)
        digests = tuple(hashlib.sha256(Path(paths[kind]).read_bytes()).hexdigest()
                        for kind in ("curve", "summary", "trace"))
        assert (report.active.queries, report.active.final_loss,
                report.passive.final_loss, *digests) == self.PINNED[name]
