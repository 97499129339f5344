"""Self-tests of the benchmark, at tiny run lengths.

Run from the repository root (the file is not collected by the default
`pytest` run, so it must be named):

    python3 -m pytest perfbench/selftest.py -q
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest

import bench
import spans
from iwal import harness

TINY_STEPS = {"linear-sphere": 40, "finite-sphere": 80, "bootstrap-sphere": 80}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to two short seeds and one setup probe."""
    for name, steps in TINY_STEPS.items():
        workload = bench.WORKLOADS[name]
        config = {**workload.config, "train_size": steps, "test_size": 50}
        monkeypatch.setitem(bench.WORKLOADS, name,
                            dataclasses.replace(workload, config=config, seeds=2))
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)


def patched_attributes():
    """Current raw value of every attribute a Tracer patches."""
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr, *_ in spans.layer_targets() + spans.COUNTED}


def run_bench(capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_STEPS))
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    lines, result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[-1] for line in lines[:-1]
               if len(line.split()) == 4}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def test_layer_counters_follow_the_workload(tiny, capsys):
    _, finite = run_bench(capsys, "finite-sphere", 1)
    _, boot = run_bench(capsys, "bootstrap-sphere", 1)
    _, linear = run_bench(capsys, "linear-sphere", 1)
    for result in (finite, boot):
        assert result["metrics"]["solver.interval_solves"]["value"] == 0
        assert result["metrics"]["solver.erm_solves"]["value"] == 0
    for result in (finite, linear):
        assert result["metrics"]["trees.fits"]["value"] == 0
    assert linear["metrics"]["solver.interval_solves"]["value"] > 0
    assert boot["metrics"]["trees.fits"]["value"] > 0
    assert finite["metrics"]["losses.scalar_evals"]["value"] > 0


def test_corrupted_trace_counts_as_failed(tiny, capsys, monkeypatch):
    emit = harness.emit_curves

    def emit_with_query_at_zero(report, out_dir, stem=""):
        paths = emit(report, out_dir, stem)
        with open(paths["trace"]) as fh:
            rows = fh.read().splitlines()
        t, _, _, cum = rows[1].split(",")
        rows[1] = ",".join([t, "0.0", "1", cum])
        with open(paths["trace"], "w") as fh:
            fh.write("\n".join(rows) + "\n")
        return paths

    monkeypatch.setattr(harness, "emit_curves", emit_with_query_at_zero)
    lines, result = run_bench(capsys, "finite-sphere", 0)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert any("queried at p = 0" in line for line in lines)


def test_fingerprint_mismatch_within_a_seed_fails():
    outcomes = [bench.Outcome(1, fingerprint=(5, 0.25, 0.5, "a")),
                bench.Outcome(2, fingerprint=(6, 0.25, 0.5, "b")),
                bench.Outcome(1, fingerprint=(5, 0.25, 0.5, "a")),
                bench.Outcome(1, fingerprint=(5, 0.25, 0.5, "c"))]
    bench.mark_mismatches(outcomes)
    assert [o.ok for o in outcomes] == [True, True, True, False]


def test_no_wrapper_survives_a_traced_run(tiny, capsys):
    before = patched_attributes()
    _, result = run_bench(capsys, "bootstrap-sphere", 1)
    assert result["correct"]
    after = patched_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_no_wrapper_survives_a_raising_traced_run(tiny, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(harness, "build_data", broken)
    before = patched_attributes()
    _, result = run_bench(capsys, "linear-sphere", 1)
    assert result["failed"] == result["attempted"] and not result["correct"]
    after = patched_attributes()
    assert all(after[key] is value for key, value in before.items())
