"""The benchmark still fits the library it measures.

`perfbench/spans.py` patches each (owner, attribute) pair it lists, reading
the original from `owner.__dict__`, and `perfbench/bench.py` builds its
workloads with `ExperimentConfig.from_dict`. A refactor that moves or renames
a wrapped function, or a config schema change that drops a workload key,
fails here, in the plain test run, instead of in the benchmark. So does a
library change that breaks `perfbench/micro.py`, run once with timing off,
or a stream that no longer calls a per-row function the benchmark counts.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402

from iwal import harness  # noqa: E402
from iwal.harness import ExperimentConfig  # noqa: E402


def test_every_wrapped_function_is_defined_on_its_owner():
    pairs = ([(owner, attr) for owner, attr, _, _ in spans.layer_targets()]
             + [(owner, attr) for owner, attr, _ in spans.COUNTED])
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pairs
               if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_workload_config_loads(name):
    workload = bench.WORKLOADS[name]
    config = ExperimentConfig.from_dict({**workload.config, "seed": 1})
    assert config.strategy == workload.config["strategy"]


@pytest.mark.skipif(importlib.util.find_spec("pytest_benchmark") is None,
                    reason="pytest-benchmark is not installed")
def test_micro_benchmarks_run():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/micro.py", "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_finite_run_counts_one_step_and_one_probability_per_row():
    # the benchmark's per-row layer metrics read its wrappers of Engine.step
    # and LossWeightingFinite.probability; a stream that bypassed either
    # would read 0 there, as a metric of an uncalled function does
    workload = bench.WORKLOADS["finite-sphere"]
    config = ExperimentConfig.from_dict({**workload.config, "seed": 1})
    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_experiment(config)
    metrics = spans.layer_metrics(tracer)
    assert metrics["engine.steps"] == config.train_size
    assert metrics["threshold.finite.probability_calls"] == config.train_size


def test_bootstrap_run_counts_one_step_and_one_probability_per_streamed_row():
    # the committee arm takes its votes from a table, as the finite arm does;
    # a stream that bypassed Engine.step or CommitteeThreshold.probability
    # would read 0 in the benchmark's committee metrics
    workload = bench.WORKLOADS["bootstrap-sphere"]
    config = ExperimentConfig.from_dict({**workload.config, "seed": 1})
    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_experiment(config)
    metrics = spans.layer_metrics(tracer)
    streamed = config.train_size - bench.bootstrap_prefix(config)
    assert streamed > 0
    assert metrics["engine.steps"] == streamed
    assert metrics["threshold.committee.probability_calls"] == streamed
