import json
import warnings

import pytest

from iwal.cli import main


def write_config(tmp_path, **overrides):
    payload = {
        "dataset": {"kind": "sphere", "dim": 3, "noise": 0.05},
        "strategy": "loss-weighting-finite",
        "train_size": 60,
        "test_size": 40,
        "seed": 3,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestRun:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 0
        assert (out / "curve.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "loss-weighting-finite"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_overrides_apply(self, tmp_path, command):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, str(config), "--out", str(out),
                     "--strategy", "passive", "--seed", "11"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "passive"
        assert summary["seed"] == 11
        assert summary["active"]["query_fraction"] == 1.0

    def test_replicates_write_aggregate(self, tmp_path):
        config = write_config(tmp_path, replicates=2, train_size=40,
                              test_size=20)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 0
        assert (out / "aggregate.json").exists()
        assert (out / "summary_seed3.json").exists()
        assert (out / "summary_seed4.json").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, strategy="nonsense")
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: seed must be nonnegative, got -1\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("committee", [{"size": 1}, {"p_min": 0.0},
                                           {"p_min": 1.5}, {"max_depth": -1},
                                           {"min_leaf": 0}])
    def test_bad_committee_option_is_a_config_error(self, tmp_path, capsys,
                                                     committee):
        config = write_config(tmp_path, strategy="bootstrap",
                              committee=committee)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error: committee" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides, message", [
        ({"train_size": "50"}, "train_size must be an integer, got str"),
        ({"test_size": 40.0}, "test_size must be an integer, got float"),
        ({"seed": True}, "seed must be an integer, got bool"),
        ({"replicates": False}, "replicates must be an integer, got bool"),
        ({"confidence": "0.1"}, "confidence must be a number, got str"),
        ({"p_min": None}, "p_min must be a number, got NoneType"),
        ({"checkpoint_every": 2.5}, "checkpoint_every must be an integer"),
        ({"strategy": "bootstrap", "committee": {"size": "ten"}},
         "committee size must be an integer, got str"),
        ({"strategy": "bootstrap", "committee": {"max_depth": True}},
         "committee max_depth must be an integer, got bool"),
        ({"strategy": "bootstrap", "committee": {"p_min": "0.2"}},
         "committee p_min must be a number, got str"),
        ({"dataset": {"kind": "sphere", "dim": "five"}},
         "dataset dim must be an integer, got str 'five'"),
        ({"class_spec": {"kind": "finite", "size": "ten"}},
         "class size must be an integer, got str 'ten'"),
        ({"dataset": {"kind": "point-mass", "binary_labels": "false"}},
         "dataset binary_labels must be a bool, got str 'false'"),
    ])
    def test_wrong_option_type_is_a_config_error(self, tmp_path, capsys,
                                                 overrides, message):
        config = write_config(tmp_path, **overrides)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("strategy", ["passive", "loss-weighting-linear"])
    @pytest.mark.parametrize("loss_kind", ["hinge", "zero-one", "absolute"])
    def test_linear_class_needs_smooth_loss(self, tmp_path, capsys, strategy,
                                            loss_kind):
        config = write_config(tmp_path, strategy=strategy, loss_kind=loss_kind,
                              class_spec={"kind": "linear"})
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: a linear class needs a smooth loss" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"dataset": {"kind": "sphere", "dim": 0}},
         "dataset sphere: dimension must be at least 2"),
        ({"dataset": {"kind": "sphere", "noise": -1.0}},
         "dataset sphere: noise rate must lie in [0, 0.5)"),
        ({"dataset": {"kind": "point-mass", "beta": 2.0}},
         "dataset point-mass: beta must lie in (0, 1)"),
        ({"dataset": {"kind": "lower-bound", "atoms": 0}},
         "dataset lower-bound: need at least 2 atoms"),
        ({"class_spec": {"kind": "finite", "size": 0}},
         "class_spec: a finite hypothesis class must be nonempty"),
        ({"class_spec": {"kind": "finite", "norm_bound": -1.0}},
         "class_spec: norm_bound must be positive"),
        ({"strategy": "passive", "class_spec": {"kind": "linear", "norm_bound": -1.0}},
         "class_spec: norm_bound must be positive"),
        ({"dataset": {"kind": "file", "path": 5}},
         "dataset path must be a string, got int 5"),
    ])
    def test_out_of_range_option_is_a_config_error(self, tmp_path, capsys,
                                                   overrides, message):
        config = write_config(tmp_path, **overrides)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"class_spec": {"kind": "quadratic"}}, "unknown class kind 'quadratic'"),
        ({"strategy": "loss-weighting-linear", "class_spec": {"kind": "cubic"}},
         "unknown class kind 'cubic'"),
        ({"strategy": "loss-weighting-linear",
          "class_spec": {"kind": "finite", "size": 4}},
         "loss-weighting-linear needs a linear class spec"),
    ])
    def test_bad_class_kind_is_a_config_error(self, tmp_path, capsys,
                                              overrides, message, monkeypatch):
        import iwal.harness

        def no_data(*args):
            raise AssertionError("the data was built before the check")

        monkeypatch.setattr(iwal.harness, "build_data", no_data)
        config = write_config(tmp_path, **overrides)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1


class TestCompare:
    def test_prints_paired_table(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["compare", str(config)]) == 0
        out = capsys.readouterr().out
        assert "passive" in out
        assert "query fraction" in out


class TestProbe:
    def test_rho_json(self, capsys):
        assert main(["probe", "rho", "--dim", "3", "--mc", "2000",
                     "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] >= 0.0
        assert payload["stderr"] >= 0.0

    def test_theta_json(self, capsys):
        assert main(["probe", "theta", "--dim", "2", "--mc", "1500",
                     "--samples", "40", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["within_bound"] is True
        assert payload["supremum"] <= payload["sphere_bound"]

    def test_lower_bound_gen_json(self, tmp_path):
        out = tmp_path / "hard.json"
        assert main(["probe", "lower-bound-gen", "--atoms", "5",
                     "--eta", "0.2", "--eps", "0.05", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["beta"] == pytest.approx(0.6)
        assert sum(payload["masses"]) == pytest.approx(1.0, abs=1e-15)
        assert payload["optimal_error"] == pytest.approx(0.2)

    def test_bounds_json(self, capsys):
        assert main(["probe", "bounds", "--pmin", "0.5", "--class-size", "8",
                     "--delta", "0.2", "--steps", "500",
                     "--theta", "1.0", "--asymmetry", "1.0",
                     "--best-loss", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deviation_bound"] > 0
        assert payload["expected_query_bound"]["linear_term"] == 200.0

    @pytest.mark.parametrize("argv, message", [
        (["rho", "--dim", "1"], "probe rho: dimension must be at least 2"),
        (["rho", "--noise", "0.7"], "probe rho: noise rate must lie in [0, 0.5)"),
        (["rho", "--mc", "0"], "probe rho: a Monte-Carlo estimate needs at least one point"),
        (["theta", "--mc", "0", "--samples", "0"],
         "probe theta: a Monte-Carlo estimate needs at least one point"),
        (["lower-bound-gen", "--atoms", "1"], "probe lower-bound-gen: need at least 2 atoms"),
        (["lower-bound-gen", "--eta", "0.5"],
         "probe lower-bound-gen: parameters must satisfy 0 < 2*eps <= eta <= 1/4"),
        (["bounds", "--pmin", "0", "--class-size", "8", "--delta", "0.2", "--steps", "500"],
         "probe bounds: p_min must be positive"),
        (["bounds", "--pmin", "0.5", "--class-size", "8", "--delta", "1.5", "--steps", "500"],
         "probe bounds: confidence must lie in (0, 1)"),
        (["theta", "--radii", "a,b", "--mc", "50", "--samples", "3"],
         "probe theta: could not convert string to float: 'a'"),
        (["theta", "--radii", "0.1,-0.2", "--mc", "50", "--samples", "3"],
         "probe theta: radii must be positive"),
        (["theta", "--mc", "50", "--samples", "0"],
         "probe theta: no sampled hypothesis lies within any radius, so no supremum to bound"),
    ])
    def test_out_of_range_flag_is_a_config_error(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["probe"] + argv) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("probe", ["rho", "theta"])
    def test_unknown_loss_is_rejected_by_its_choices(self, capsys, probe):
        with pytest.raises(SystemExit) as exit_info:
            main(["probe", probe, "--loss", "foo"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --loss: invalid choice: 'foo'" in err
        assert "runtime error" not in err and "Traceback" not in err
