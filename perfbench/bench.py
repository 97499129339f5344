"""The IWAL benchmark: seeded paired runs of `iwal.harness.run_experiment`.

Each workload is one experiment config run over a fixed set of seeds that
`--seed` derives. A measurement runs every seed once, then runs them again in
turn while `--seconds` allows; every rerun must reproduce the behaviour
fingerprint of the seed's first run. Every run's outputs are checked, and a
run that raises or fails a check counts as failed. `--trace 1` instead
alternates untraced and traced runs of the first seed and reports the
per-layer split from spans recorded around the library's public functions.

Run from the repository root through `perfbench/run.py`; see README.md there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iwal import harness

import spans

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"
OUTPUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7

SPHERE = {"kind": "sphere", "dim": 5, "noise": 0.1}

# The machine this benchmark was defined on, a shared 2-core x86_64
# container, changes speed by up to 2x over minutes, so raw wall times of
# identical work spread past any usable bound between invocations. Each timed
# run is therefore scaled by REFERENCE_S / (time of reference_kernel() right
# before it): times are reported at the speed where the kernel takes
# REFERENCE_S, about its median on that container.
REFERENCE_S = 0.15
REFERENCE_ROUNDS = 250


@dataclass(frozen=True)
class Workload:
    config: dict      # ExperimentConfig fields, all but the seed
    seeds: int        # distinct seeds per pass; exact metrics average over them


# Run lengths keep one pass near 15 s on a 2-core x86 container. The seed
# counts are what keeps the exact metrics steady across --seed values: the
# bootstrap query count varies by about 10% between single seeds.
WORKLOADS = {
    "linear-sphere": Workload(
        {"dataset": SPHERE, "strategy": "loss-weighting-linear",
         "loss_kind": "logistic", "slack_mode": "optimistic",
         "train_size": 300, "test_size": 500},
        seeds=3),
    "finite-sphere": Workload(
        {"dataset": SPHERE, "strategy": "loss-weighting-finite",
         "loss_kind": "logistic", "slack_mode": "optimistic",
         "class_spec": {"kind": "finite", "size": 256},
         "train_size": 1000, "test_size": 500},
        seeds=6),
    "bootstrap-sphere": Workload(
        {"dataset": SPHERE, "strategy": "bootstrap", "loss_kind": "logistic",
         "train_size": 2000, "test_size": 500},
        seeds=4),
}

END_TO_END = [
    ("s", "setup_s"),
    ("s", "run_s"),
    ("count", "queries"),
    ("loss", "final_test_loss"),
    ("loss", "passive_final_test_loss"),
    ("MB", "peak_rss_mb"),
]

PER_LAYER = spans.LAYER_METRICS + [
    ("share", "trace.overhead_share"),
    ("s", "trace.untraced_run_s"),
    ("s", "trace.traced_run_s"),
]


def run_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_configs(workload: Workload, seed: int) -> list:
    return [harness.ExperimentConfig.from_dict({**workload.config, "seed": s})
            for s in run_seeds(seed, workload.seeds)]


def reference_kernel() -> float:
    """Fixed work in the library's three styles, to gauge machine speed.

    Scalar float math with 5-vector dot products (the finite class), stable
    argsort and cumsum over a few hundred values (tree splits) and a small
    dense solve (the barrier solver). It does not call iwal, so changes to
    the library leave it alone.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 5))
    w = rng.normal(size=5)
    total = 0.0
    for _ in range(REFERENCE_ROUNDS):
        for x in X:
            total += math.log1p(math.exp(-abs(float(w @ x))))
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            total += float(np.cumsum(X[order, 1])[-1])
        total += float(np.linalg.solve(X[:50].T @ X[:50] + np.eye(5), w)[0])
    return total


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


# -- output checks -------------------------------------------------------------

def bootstrap_prefix(config) -> int:
    """Labels the bootstrap arm takes before its stream starts (0 otherwise)."""
    if config.strategy != "bootstrap":
        return 0
    T = config.train_size
    return min(T, max(2, math.ceil(config.committee["initial_fraction"] * T)))


def expected_checkpoints(config) -> list:
    T = config.train_size
    interval = config.checkpoint_interval()
    first = bootstrap_prefix(config)
    return sorted({t for t in range(interval, T + 1, interval) if t >= first}
                  | {T})


def check_outputs(config, report, paths) -> list:
    """Problems found in one run's report and emitted files; [] when sound."""
    problems = []
    prefix = bootstrap_prefix(config)
    floor = (config.committee["p_min"] if config.strategy == "bootstrap"
             else config.p_min)
    with open(paths["trace"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != config.train_size - prefix:
        problems.append(f"trace has {len(rows)} rows, "
                        f"expected {config.train_size - prefix}")
    query_sum = 0
    for row in rows:
        t, p, q = int(row["t"]), float(row["p_t"]), int(row["q_t"])
        if not (0.0 <= p <= 1.0 and p >= floor):
            problems.append(f"step {t}: p = {p!r} outside [{floor}, 1]")
        if q not in (0, 1):
            problems.append(f"step {t}: q = {q} is not 0 or 1")
        if q == 1 and p == 0.0:
            problems.append(f"step {t}: queried at p = 0")
        query_sum += q
    oracle_calls = report.active.diagnostics["oracle_calls"]
    if not report.active.queries == oracle_calls + prefix == query_sum + prefix:
        problems.append(f"queries {report.active.queries} != oracle calls "
                        f"{oracle_calls} + prefix {prefix} or trace sum "
                        f"{query_sum} + prefix {prefix}")
    for arm in ("active", "passive"):
        loss = getattr(report, arm).final_loss
        if not (math.isfinite(loss) and 0.0 <= loss <= 1.0):
            problems.append(f"{arm} final test loss {loss!r} outside [0, 1]")
    expected = expected_checkpoints(config)
    with open(paths["curve"], newline="") as fh:
        curve_steps = [int(row["t"]) for row in csv.DictReader(fh)]
    for name, steps in (("curve.csv", curve_steps),
                        ("active arm", [c[0] for c in report.active.checkpoints]),
                        ("passive arm", [c[0] for c in report.passive.checkpoints])):
        if steps != expected:
            problems.append(f"{name} checkpoint steps differ from the "
                            f"{len(expected)} expected, one row each")
    return problems


def fingerprint(report, trace_path) -> tuple:
    """(queries, active final loss, passive final loss, trace.csv SHA-256)."""
    with open(trace_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return (report.active.queries, report.active.final_loss,
            report.passive.final_loss, digest)


# -- runs ------------------------------------------------------------------------

@dataclass
class Outcome:
    seed: int
    traced: bool = False
    run_s: float | None = None
    reference_s: float | None = None     # reference_kernel() time before the run
    fingerprint: tuple | None = None
    problems: list = field(default_factory=list)
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def run_checked(config, out_dir, tracer: spans.Tracer | None = None) -> Outcome:
    """One paired run plus emission, output checks and fingerprint."""
    outcome = Outcome(config.seed, traced=tracer is not None)
    try:
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            report = harness.run_experiment(config)
            outcome.run_s = time.perf_counter() - start
            paths = harness.emit_curves(report, out_dir)
        outcome.problems = check_outputs(config, report, paths)
        outcome.fingerprint = fingerprint(report, paths["trace"])
        if tracer is not None:
            outcome.layers = spans.layer_metrics(tracer)
    except Exception as exc:   # a run that raises is a failed run, never dropped
        outcome.problems = [f"raised {type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    return outcome


def mark_mismatches(outcomes) -> None:
    """Fail every run whose fingerprint differs from its seed's first run."""
    first = {}
    for outcome in outcomes:
        if outcome.fingerprint is None:
            continue
        reference = first.setdefault(outcome.seed, outcome.fingerprint)
        if outcome.fingerprint != reference:
            outcome.problems.append(
                f"fingerprint {outcome.fingerprint} differs from the seed's "
                f"first run {reference}")


def measure(configs, seconds, out_dir) -> list:
    """Run every config once, then cycle through them while time remains."""
    outcomes = []
    start = time.perf_counter()
    while True:
        reference_s = reference_seconds()
        outcome = run_checked(configs[len(outcomes) % len(configs)], out_dir)
        outcome.reference_s = reference_s
        outcomes.append(outcome)
        done = len(outcomes)
        elapsed = time.perf_counter() - start
        if done > len(configs) and elapsed * (done + 1) / done > seconds:
            break
    mark_mismatches(outcomes)
    return outcomes


def measure_traced(config, seconds, out_dir) -> tuple:
    """Alternate untraced and traced runs of one config; at least two pairs.

    Returns the outcomes and the tracer of the last traced run.
    """
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(run_checked(config, out_dir))
        tracer = spans.Tracer()
        outcomes.append(run_checked(config, out_dir, tracer))
        pairs = len(outcomes) // 2
        elapsed = time.perf_counter() - start
        if pairs >= 2 and elapsed * (pairs + 1) / pairs > seconds:
            break
    mark_mismatches(outcomes)
    exact = {name for unit, name in spans.LAYER_METRICS
             if unit in ("count", "share")}
    traced = [o for o in outcomes if o.traced and o.layers is not None]
    for outcome in traced[1:]:
        moved = sorted(name for name in exact
                       if outcome.layers[name] != traced[0].layers[name])
        if moved:
            outcome.problems.append(f"layer counts differ between traced "
                                    f"runs: {', '.join(moved)}")
    return outcomes, tracer


def probe_setup(args, count: int) -> list:
    """Seconds from process start to entering run_experiment, per probe,
    each at reference speed.

    Each probe is a fresh `run.py --setup-probe` process that imports the
    library, validates the workload's configs and prints the monotonic
    clock, which Linux shares between processes.
    """
    times = []
    for _ in range(count):
        scale = REFERENCE_S / reference_seconds()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(RUN_SCRIPT), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        times.append((float(proc.stdout.split()[-1]) - start) * scale)
    return times


# -- metrics and report ------------------------------------------------------------

def end_to_end_metrics(outcomes, setup_times) -> dict:
    good = [o for o in outcomes if o.ok]
    by_seed = {}
    for outcome in good:
        by_seed.setdefault(outcome.seed, []).append(outcome)
    if not by_seed:
        return {}
    firsts = [runs[0].fingerprint for runs in by_seed.values()]
    metrics = {
        "run_s": statistics.fmean(
            statistics.median(o.run_s * REFERENCE_S / o.reference_s
                              for o in runs)
            for runs in by_seed.values()),
        "queries": statistics.fmean(f[0] for f in firsts),
        "final_test_loss": statistics.fmean(f[1] for f in firsts),
        "passive_final_test_loss": statistics.fmean(f[2] for f in firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
    return metrics


def per_layer_metrics(outcomes) -> dict:
    traced = [o for o in outcomes if o.ok and o.traced]
    plain = [o for o in outcomes if o.ok and not o.traced]
    if not traced or not plain:
        return {}
    metrics = {name: statistics.median(o.layers[name] for o in traced)
               for _, name in spans.LAYER_METRICS}
    untraced_s = statistics.median(o.run_s for o in plain)
    traced_s = statistics.median(o.run_s for o in traced)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.traced_run_s"] = traced_s
    return metrics


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: value for name, value in os.environ.items()
                         if name.endswith("_NUM_THREADS")},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one IWAL benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    configs = make_configs(workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  run seeds "
          f"{[c.seed for c in configs]}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    OUTPUT_DIR.mkdir(exist_ok=True)
    setup_problems = []
    with tempfile.TemporaryDirectory(dir=OUTPUT_DIR) as out_dir:
        if args.trace:
            outcomes, tracer = measure_traced(configs[0], args.seconds, out_dir)
            metrics = per_layer_metrics(outcomes)
            catalogue = PER_LAYER
            spans_path = OUTPUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, {"workload": args.workload,
                                      "seed": configs[0].seed,
                                      "environment": env})
            print(f"# spans of the last traced run: "
                  f"{spans_path.relative_to(ROOT)}")
            layers = next((o.layers for o in outcomes if o.layers), None)
            if layers and layers["engine.step_tail_pct"] is not None:
                print(f"# engine.step_tail_us is the "
                      f"p{layers['engine.step_tail_pct']:g} of "
                      f"{layers['engine.steps']} active steps")
        else:
            outcomes = measure(configs, args.seconds, out_dir)
            try:
                setup_times = probe_setup(args, SETUP_PROBES)
            except (RuntimeError, OSError, ValueError,
                    subprocess.SubprocessError) as exc:
                setup_problems.append(str(exc))
                setup_times = []
            metrics = end_to_end_metrics(outcomes, setup_times)
            catalogue = END_TO_END
    for outcome in outcomes:
        kind = "traced" if outcome.traced else "run"
        timing = "-" if outcome.run_s is None else f"{outcome.run_s:.3f} s"
        if outcome.reference_s is not None:
            timing += f" (reference kernel {outcome.reference_s:.3f} s)"
        status = "ok" if outcome.ok else "FAILED: " + "; ".join(outcome.problems[:3])
        print(f"# {kind} seed {outcome.seed}: {timing} {status}")
    for problem in setup_problems:
        print(f"# setup probe FAILED: {problem}")
    failed = sum(not o.ok for o in outcomes)
    print(f"# {len(outcomes)} runs attempted, {failed} failed, "
          f"failed_share {failed / len(outcomes):g}")
    for unit, name in catalogue:
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"# {name:40s} {shown:>14s} {unit}")
    correct = (failed == 0 and not setup_problems
               and all(name in metrics for _, name in catalogue))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for unit, name in catalogue if name in metrics},
    }))
    return 0
