import hashlib
import json
import warnings

import pytest

from iwal.cli import main
from iwal.harness import ExperimentConfig, run_replicates


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
        # each once passed, and a truthy string standardized the run
        ({"standardize": "no"}, "standardize must be a bool, got str 'no'"),
        ({"standardize": 0}, "standardize must be a bool, got int 0"),
        ({"standardize": None}, "standardize must be a bool, got NoneType None"),
        ({"standardize": 1.5}, "standardize must be a bool, got float 1.5"),
    ])
    def test_wrong_option_type_is_a_config_error(self, tmp_path, capsys,
                                                 overrides, message):
        config = write_config(tmp_path, **overrides)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"dataset": {"kind": "bogus"}}, "unknown dataset kind 'bogus'"),
        ({"dataset": {"kind": "sphere", "dimm": 3}}, "unknown dataset options ['dimm']"),
        ({"dataset": {"kind": "file"}}, "file datasets need a 'path'"),
        ({"dataset": {"kind": "file", "path": 3}}, "dataset path must be a string, got int 3"),
        ({"dataset": {"kind": "file", "path": "d.txt", "format": "xml"}},
         "unknown dataset format 'xml'"),
        ({"class_spec": {"kind": "finite", "sise": 4}}, "unknown class options ['sise']"),
        ({"strategy": "bootstrap", "class_spec": {"sise": 4}},
         "unknown class options ['sise']"),
    ])
    def test_bad_nested_spec_fails_before_out_is_made(self, tmp_path, capsys,
                                                      overrides, message):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["run", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

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
        ({"dataset": {"kind": "sphere", "noise": 2.0}},
         "dataset sphere: noise rate must lie in [0, 0.5)"),
        ({"dataset": {"kind": "point-mass", "beta": 2.0}},
         "dataset point-mass: beta must lie in (0, 1)"),
        ({"dataset": {"kind": "lower-bound", "atoms": 0}},
         "dataset lower-bound: need at least 2 atoms"),
        ({"dataset": {"kind": "lower-bound", "eta": 0.3}},
         "dataset lower-bound: parameters must satisfy 0 < 2*eps <= eta <= 1/4"),
        ({"class_spec": {"kind": "finite", "size": 0}},
         "class_spec: a finite hypothesis class must be nonempty"),
        ({"class_spec": {"kind": "finite", "norm_bound": -1.0}},
         "class_spec: norm_bound must be positive"),
        ({"strategy": "passive", "class_spec": {"kind": "linear", "norm_bound": -1.0}},
         "class_spec: norm_bound must be positive"),
        # json writes and reads back the non-finite floats as Infinity and NaN
        ({"strategy": "loss-weighting-linear",
          "class_spec": {"kind": "linear", "norm_bound": float("inf")}},
         "class_spec: norm_bound must be positive and finite, got inf"),
        ({"class_spec": {"kind": "finite", "norm_bound": float("nan")}},
         "class_spec: norm_bound must be positive and finite, got nan"),
        ({"dataset": {"kind": "file", "path": 5}},
         "dataset path must be a string, got int 5"),
    ])
    def test_out_of_range_option_is_a_config_error(self, tmp_path, capsys,
                                                   overrides, message):
        # checked when the config is built, so --out is never made
        config = write_config(tmp_path, **overrides)
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"slack_mode": "lazy"}, "unknown slack mode 'lazy'"),
        ({"dataset": ["sphere"]}, "dataset must be a dict with a 'kind' entry"),
        ({"dataset": {"dim": 3}}, "dataset must be a dict with a 'kind' entry"),
        ({"class_spec": "linear"}, "class_spec must be a dict"),
        ({"committee": 10}, "committee must be a dict"),
        ({"seed": None}, "a seed is required; unseeded runs are not allowed"),
        ({"train_size": 0}, "train and test sizes must be positive"),
        ({"test_size": -1}, "train and test sizes must be positive"),
        ({"replicates": 0}, "replicates must be at least 1"),
        ({"strategy": "bootstrap", "committee": {"initial_fraction": 0.0}},
         "committee initial_fraction must lie in (0, 1)"),
        ({"strategy": "bootstrap", "committee": {"initial_fraction": 1.0}},
         "committee initial_fraction must lie in (0, 1)"),
    ])
    def test_config_rejection_message(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["run", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_config_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("norm_bound", [1e200, 1e300])
    def test_huge_norm_bound_is_a_runtime_error(self, tmp_path, capsys, norm_bound):
        config = write_config(tmp_path, strategy="loss-weighting-linear",
                              class_spec={"kind": "linear", "norm_bound": norm_bound})
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "did not converge" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("name, message", [
        ("nope.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unreadable_dataset_file_is_a_config_error(self, tmp_path, capsys,
                                                       name, message):
        path = tmp_path / name
        config = write_config(tmp_path, dataset={"kind": "file", "path": str(path)})
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read dataset {path}: ")
        assert message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_that_is_a_file_fails_before_the_experiment(
            self, tmp_path, capsys, monkeypatch, command):
        import iwal.cli

        def no_run(*args):
            raise AssertionError("the experiment ran before --out was checked")

        monkeypatch.setattr(iwal.cli, "run_replicates", no_run)
        config = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("")
        assert main([command, str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {out}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("loss_kind", ["logistic", "hinge", "zero-one"])
    @pytest.mark.parametrize("strategy", ["loss-weighting-finite", "bootstrap"])
    def test_labels_outside_the_loss_domain_are_a_config_error(
            self, tmp_path, capsys, monkeypatch, loss_kind, strategy):
        import iwal.harness

        def no_stream(*args, **kwargs):
            raise AssertionError("the stream started before the labels were checked")

        monkeypatch.setattr(iwal.harness, "_stream", no_stream)
        config = write_config(tmp_path, strategy=strategy, loss_kind=loss_kind,
                              dataset={"kind": "point-mass", "binary_labels": False},
                              class_spec={"kind": "finite"})
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {loss_kind} loss: label must be -1 or +1, got 0.0\n"

    @pytest.mark.parametrize("loss_kind", ["squared", "absolute"])
    def test_real_labels_run_under_squared_and_absolute_loss(self, tmp_path, loss_kind):
        config = write_config(tmp_path, loss_kind=loss_kind,
                              dataset={"kind": "point-mass", "binary_labels": False},
                              class_spec={"kind": "finite"})
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["active"]["queries"] > 0


class TestCompare:
    def test_prints_paired_table(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["compare", str(config)]) == 0
        out = capsys.readouterr().out
        assert "passive" in out
        assert "query fraction" in out

    def test_mean_losses_stand_in_for_errors_of_real_labels(self, tmp_path, capsys):
        # labels of 0 have no sign error, so the table shows mean test losses
        config = write_config(tmp_path, loss_kind="squared", replicates=2,
                              dataset={"kind": "point-mass", "binary_labels": False},
                              class_spec={"kind": "finite"})
        assert main(["compare", str(config)]) == 0
        reports, aggregate = run_replicates(
            ExperimentConfig.from_dict(json.loads(config.read_text())))
        assert aggregate["active_final_error_mean"] is None
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(reports) + 2
        for report, line in zip(reports, lines[1:]):
            assert line.split()[-2:] == [f"{report.active.final_loss:.4f}",
                                         f"{report.passive.final_loss:.4f}"]
        assert lines[-1].startswith(
            f"mean active {aggregate['active_final_loss_mean']:.4f} vs passive "
            f"{aggregate['passive_final_loss_mean']:.4f}, ")


def late_failure(tmp_path, case):
    """A config whose run fails only after --out is made, since its data is
    built when the run starts, and the error's message."""
    few, bare, missing = tmp_path / "few.csv", tmp_path / "bare.svm", tmp_path / "nope.csv"
    few.write_text("1,0.5\n-1,0.2\n1,0.3\n")
    bare.write_text("1\n-1\n")
    dataset, message = {
        "missing file": ({"kind": "file", "path": str(missing)},
                         f"cannot read dataset {missing}: [Errno 2] No such file "
                         f"or directory: '{missing}'"),
        "too few rows": ({"kind": "file", "path": str(few)},
                         "dataset has 3 rows, need 100 for the requested split"),
        "no feature": ({"kind": "file", "path": str(bare), "format": "svmlight"},
                       "no line has a feature"),
        "label outside the loss's domain": (
            {"kind": "point-mass", "binary_labels": False},
            "logistic loss: label must be -1 or +1, got 0.0"),
    }[case]
    return write_config(tmp_path, dataset=dataset, class_spec={"kind": "finite"}), message


LATE_FAILURES = ["missing file", "too few rows", "no feature",
                 "label outside the loss's domain"]


class TestFailedRun:
    @pytest.mark.parametrize("out", ["out", "made/out"])
    @pytest.mark.parametrize("case", LATE_FAILURES)
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_late_failure_leaves_no_out(self, tmp_path, capsys, command, case, out):
        config, message = late_failure(tmp_path, case)
        assert main([command, str(config), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / out.split("/")[0]).exists()

    @pytest.mark.parametrize("existing, out", [("out", "out"), ("kept", "kept/out")])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_failed_run_keeps_a_directory_that_existed(self, tmp_path, capsys,
                                                        command, existing, out):
        (tmp_path / existing).mkdir()
        config, message = late_failure(tmp_path, "no feature")
        assert main([command, str(config), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list((tmp_path / existing).iterdir()) == []

    def test_runtime_error_leaves_no_out(self, tmp_path, capsys):
        config = write_config(tmp_path, strategy="loss-weighting-linear",
                              class_spec={"kind": "linear", "norm_bound": 1e300})
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert not out.exists()


class TestPinnedOutput:
    # The stdout of `run` and `compare` and the SHA-256 of each file in --out
    # for a 2-replicate config, recorded at commit 388fc91 (where `compare
    # --out` wrote every file but aggregate.json); a change to how the CLI is
    # wired must reproduce them bit for bit.
    FILES = {
        "aggregate.json": "4171f69dab10e59c237731e12d5206c169bc3ec9759a1e756d01745535de2c93",
        "curve_seed3.csv": "426cba5fd23448cdeac55375b3f6ed8820b0621f4601ffa5be7e076f75591b4b",
        "curve_seed4.csv": "29637cb6159cb510acb9bfaffab83f89d35e53b0b1d2ac1becab48711265e974",
        "summary_seed3.json": "e99b17cd606f8e57dfe8e1b68a961a908887b399d361c663d9ca8f970a9044d6",
        "summary_seed4.json": "52f509121a70b4ec82704166565bf4bce81b099f2186d6f42eb367e4968e761d",
        "trace_seed3.csv": "d84533eba51744c16835761120aec6c259f719f6d7f362b52777d51760da717b",
        "trace_seed4.csv": "c6d580dfcf6f9be28cd8c4cb48c433def1eec15cfb811f3b23372b8cf592c6ea",
    }
    STDOUT = {
        "run": ("seed 3: queries 30/40 (75.0%), final test loss 0.4060 -> <out>/summary_seed3.json\n"
                "seed 4: queries 24/40 (60.0%), final test loss 0.5476 -> <out>/summary_seed4.json\n"
                "aggregate -> <out>/aggregate.json\n"),
        "compare": ("  seed   queries  fraction     active    passive\n"
                    "     3        30     75.0%     0.1000     0.1000\n"
                    "     4        24     60.0%     0.5000     0.0500\n"
                    "mean active 0.3000 vs passive 0.0750, query fraction 67.5%\n"),
    }

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_replicated_run_reproduces_the_pinned_output(self, tmp_path, capsys,
                                                         command):
        config = write_config(tmp_path, replicates=2, train_size=40, test_size=20)
        out = tmp_path / "out"
        assert main([command, str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().out.replace(str(out), "<out>") == self.STDOUT[command]
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.iterdir()} == self.FILES

    def test_compare_without_out_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, replicates=2, train_size=40, test_size=20)
        assert main(["compare", str(config)]) == 0
        assert capsys.readouterr().out == self.STDOUT["compare"]
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


# a bounds probe with every flag of the expected-query bound; argparse keeps
# the last value of a repeated flag
BOUNDS = ["bounds", "--pmin", "0.5", "--class-size", "8", "--delta", "0.2", "--steps", "500",
          "--theta", "1.0", "--asymmetry", "1.0", "--best-loss", "0.1"]


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

    @pytest.mark.parametrize("argv, key", [
        (["theta", "--range-bound", "800", "--mc", "50", "--samples", "3"], "sphere_bound"),
        (["theta", "--loss", "squared", "--range-bound", "2", "--mc", "50",
          "--samples", "3"], "sphere_bound"),
        (["bounds", "--pmin", "1e-320", "--class-size", "8", "--delta", "0.2",
          "--steps", "500"], "deviation_bound"),
    ])
    def test_bound_with_no_finite_value_is_null(self, capsys, argv, key):
        assert main(["probe"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out, parse_constant=pytest.fail)
        assert payload[key] is None

    def test_lower_bound_gen_json(self, tmp_path):
        out = tmp_path / "hard.json"
        assert main(["probe", "lower-bound-gen", "--atoms", "5",
                     "--eta", "0.2", "--eps", "0.05", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["beta"] == pytest.approx(0.6)
        assert sum(payload["masses"]) == pytest.approx(1.0, abs=1e-15)
        assert payload["optimal_error"] == pytest.approx(0.2)

    def test_bounds_json(self, capsys):
        assert main(["probe"] + BOUNDS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deviation_bound"] > 0
        assert payload["expected_query_bound"]["linear_term"] == 200.0

    @pytest.mark.parametrize("argv, message", [
        (["rho", "--dim", "1"], "probe rho: dimension must be at least 2"),
        (["rho", "--noise", "0.7"], "probe rho: noise rate must lie in [0, 0.5)"),
        (["rho", "--mc", "0"], "probe rho: a Monte-Carlo estimate needs at least one point"),
        (["theta", "--mc", "0", "--samples", "3"],
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
         "probe theta: radii must be positive and finite, got [0.1, -0.2]"),
        # with no candidate, this once ended in "no sampled hypothesis lies
        # within any radius"
        (["theta", "--mc", "50", "--samples", "0"], "probe theta: samples must be at least 1, got 0"),
        (["theta", "--radii", "nan,0.1", "--mc", "50", "--samples", "3"],
         "probe theta: radii must be positive and finite, got [nan, 0.1]"),
        (["theta", "--radii", "inf", "--mc", "50", "--samples", "3"],
         "probe theta: radii must be positive and finite, got [inf]"),
        (BOUNDS + ["--theta", "nan"], "probe bounds: theta must be finite and nonnegative, got nan"),
        (BOUNDS + ["--theta", "inf"], "probe bounds: theta must be finite and nonnegative, got inf"),
        (BOUNDS + ["--theta", "-1"], "probe bounds: theta must be finite and nonnegative, got -1.0"),
        (["theta", "--spread", "inf", "--mc", "50", "--samples", "3"],
         "probe theta: spread must be finite and nonnegative, got inf"),
        (["theta", "--spread", "nan", "--mc", "50", "--samples", "3"],
         "probe theta: spread must be finite and nonnegative, got nan"),
        (["theta", "--spread", "-1", "--mc", "50", "--samples", "3"],
         "probe theta: spread must be finite and nonnegative, got -1.0"),
        (BOUNDS + ["--asymmetry", "nan"],
         "probe bounds: slope asymmetry must be at least 1, got nan"),
        (BOUNDS + ["--asymmetry", "0.5"],
         "probe bounds: slope asymmetry must be at least 1, got 0.5"),
        (BOUNDS + ["--best-loss", "-3"], "probe bounds: best loss must lie in [0, 1], got -3.0"),
        (BOUNDS + ["--best-loss", "nan"], "probe bounds: best loss must lie in [0, 1], got nan"),
        (["theta", "--mc", "50", "--samples", "-1"], "probe theta: samples must be at least 1, got -1"),
        (["theta", "--mc", "0", "--samples", "0"], "probe theta: samples must be at least 1, got 0"),
        (["theta", "--mc", "50", "--samples", "3", "--radii", "1e-9"],
         "probe theta: no sampled hypothesis lies within any radius, so no supremum to bound"),
        (["bounds", "--pmin", "1.5", "--class-size", "8", "--delta", "0.2", "--steps", "500"],
         "probe bounds: p_min must be at most 1, got 1.5"),
        (["bounds", "--pmin", "inf", "--class-size", "8", "--delta", "0.2", "--steps", "500"],
         "probe bounds: p_min must be at most 1, got inf"),
        (BOUNDS[:-4], "probe bounds: the query bound needs --theta, --asymmetry, "
                      "--best-loss; missing --asymmetry, --best-loss"),
        (BOUNDS[:9] + ["--best-loss", "0.1"], "probe bounds: the query bound needs "
         "--theta, --asymmetry, --best-loss; missing --theta, --asymmetry"),
    ])
    def test_out_of_range_flag_is_a_config_error(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["probe"] + argv) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    def test_out_in_a_missing_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["probe", "bounds", "--pmin", "0.5", "--class-size", "8",
                     "--delta", "0.2", "--steps", "500", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert "No such file or directory" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("probe", ["rho", "theta"])
    def test_unknown_loss_is_rejected_by_its_choices(self, capsys, probe):
        with pytest.raises(SystemExit) as exit_info:
            main(["probe", probe, "--loss", "foo"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --loss: invalid choice: 'foo'" in err
        assert "runtime error" not in err and "Traceback" not in err
