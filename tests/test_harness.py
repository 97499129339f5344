import json
import math
import re

import numpy as np
import pytest

from iwal import bootstrap as bs
from iwal import harness, solver, trees
from iwal.engine import ArrayOracle, Engine
from iwal.errors import ConfigError
from iwal.harness import (ExperimentConfig, aggregate_reports, build_data,
                          emit_curves, evaluate_error, evaluate_loss,
                          run_experiment, run_replicates)
from iwal.hypotheses import LinearPredictor
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
        from iwal.datasets import save_csv

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
        from iwal.datasets import save_csv

        path = tmp_path / "d.csv"
        save_csv(path, rng.normal(size=(10, 2)), np.ones(10))
        config = base_config(dataset={"kind": "file", "path": str(path)},
                             train_size=40, test_size=20)
        with pytest.raises(ConfigError, match="rows"):
            build_data(config, rng)

    def test_unknown_dataset_options_rejected(self, rng):
        config = base_config(dataset={"kind": "sphere", "wobble": 1})
        with pytest.raises(ConfigError, match="unknown dataset options"):
            build_data(config, rng)


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

    def test_checkpoints_are_paired(self):
        report = run_experiment(base_config(strategy="loss-weighting-finite"))
        active_ts = [t for t, *_ in report.active.checkpoints]
        passive_ts = [t for t, *_ in report.passive.checkpoints]
        assert active_ts == passive_ts
        rows = report.curve_rows()
        assert not any(math.isnan(row[3]) for row in rows)

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
        from iwal.datasets import save_csv

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


class TestCheckpointEvaluation:
    @pytest.mark.parametrize("strategy", ("passive", "loss-weighting-finite", "bootstrap"))
    def test_one_prediction_per_checkpoint(self, monkeypatch, strategy):
        # the loss and the error of a checkpoint read one routing of the test rows
        predictions, losses = [], []
        for cls in (LinearPredictor, DecisionTree):
            monkeypatch.setattr(cls, "predict_many",
                                lambda h, X, predict=cls.predict_many:
                                predictions.append(len(X)) or predict(h, X))
        evaluate = harness.evaluate_loss
        monkeypatch.setattr(harness, "evaluate_loss", lambda *args:
                            losses.append(1) or evaluate(*args))
        report = run_experiment(base_config(strategy=strategy, train_size=200,
                                            test_size=30, checkpoint_every=20))
        arms = {id(report.active): report.active, id(report.passive): report.passive}
        checkpoints = sum(len(arm.checkpoints) for arm in arms.values())
        assert len(predictions) == len(losses) == checkpoints
        assert set(predictions) == {30}

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
