"""Micro benchmarks of single layer calls, with pytest-benchmark.

Run from the repository root (the file is not collected by the default
`pytest` run, so it must be named):

    python3 -m pytest perfbench/micro.py -q

Each benchmark pins its state by replaying a seeded stream prefix through
the library's public classes, then times one call at that state. Calls
that advance the threshold's state reset it before every round.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import pytest

from iwal import bootstrap, harness, solver
from iwal.engine import ArrayOracle, Engine
from iwal.hypotheses import FiniteClass, LinearPredictor
from iwal.instances import SphereInstance
from iwal.losses import LossFunction
from iwal.thresholds import LossWeightingFinite, LossWeightingLinear
from iwal.trees import DecisionTree, TreeParams

SEED = 20081230
LOSS = LossFunction("logistic")


def sphere_stream(n, seed=SEED):
    rng = np.random.default_rng(seed)
    return SphereInstance(dim=5, noise=0.1).sample(rng, n)


def replay(engine, X, y):
    oracle = ArrayOracle(y)
    for x in X:
        engine.step(x, oracle)


@pytest.fixture(scope="module")
def finite_state():
    """Finite class of 256 members after a 500-step prefix."""
    rng = np.random.default_rng(SEED)
    members = []
    for _ in range(256):
        u = rng.normal(size=5)
        members.append(LinearPredictor(u / np.linalg.norm(u)))
    cls = FiniteClass(tuple(members))
    threshold = LossWeightingFinite(cls, LOSS, slack_mode="optimistic")
    X, y = sphere_stream(501)
    replay(Engine(LOSS, threshold, rng, hypothesis_class=cls), X[:500], y[:500])
    return threshold, X[500]


@pytest.fixture(scope="module")
def linear_state():
    """Linear threshold after a 200-step prefix, and a point its cap binds."""
    rng = np.random.default_rng(SEED)
    threshold = LossWeightingLinear(5, 1.0, LOSS, slack_mode="optimistic")
    engine = Engine(LOSS, threshold, rng)
    X, y = sphere_stream(300)
    replay(engine, X[:200], y[:200])
    threshold.minimizer()    # settle the lazily refreshed ERM outside the timing
    for x in X[200:]:
        lo, hi = threshold.prediction_interval(x)
        if hi - lo < 2.0 * float(np.linalg.norm(x)) - 1e-6:
            return threshold, engine, x
    raise AssertionError("no point in the stream meets an active cap")


def test_finite_probability(benchmark, finite_state):
    threshold, x = finite_state
    t, alive = threshold.t, threshold.alive.copy()

    def reset():
        threshold.t = t
        threshold.alive = alive.copy()

    p = benchmark.pedantic(threshold.probability, args=(x,), setup=reset,
                           rounds=100, iterations=1)
    assert 0.0 <= p <= 1.0


def test_linear_probability_with_active_cap(benchmark, linear_state):
    threshold, _, x = linear_state
    t = threshold.t

    def reset():
        threshold.t = t

    p = benchmark.pedantic(threshold.probability, args=(x,), setup=reset,
                           rounds=20, iterations=1)
    assert 0.0 <= p <= 1.0


def test_weighted_erm_solve(benchmark, linear_state):
    _, engine, _ = linear_state
    xs = np.array([e.x for e in engine.sample])
    ys = np.array([e.y for e in engine.sample])
    ws = np.array([e.weight for e in engine.sample])
    result = benchmark(solver.minimize_weighted_loss, LOSS, xs, ys, ws, 1.0)
    assert float(result.point @ result.point) < 1.0
    assert math.isfinite(result.value)


def test_tree_fit(benchmark):
    """One final-tree fit on the costing resample of a 1000-step bootstrap run."""
    X, y = sphere_stream(1000)
    prefix = 100
    rng = np.random.default_rng(SEED)
    committee = bootstrap.train_committee(X[:prefix], y[:prefix], rng)
    engine = Engine(LOSS, bootstrap.CommitteeThreshold(committee, LOSS), rng)
    replay(engine, X[prefix:], y[prefix:])
    collected = (bootstrap.weighted_examples_from_arrays(
        X[:prefix], y[:prefix], np.ones(prefix)) + engine.sample)
    kept = bootstrap.costing_resample(collected, np.random.default_rng(SEED))
    Xk = np.array([x for x, _ in kept])
    yk = np.array([label for _, label in kept])
    tree = benchmark(DecisionTree.fit, Xk, yk, TreeParams())
    assert harness.evaluate_error(tree, Xk, yk) < 0.5
