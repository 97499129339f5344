import numpy as np
import pytest

from iwal.harness import ExperimentConfig
from iwal.hypotheses import LinearPredictor, WeightedSample


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_weighted_examples(rng, n, dim, max_weight=5.0, labels=(-1.0, 1.0)):
    examples = WeightedSample()
    for _ in range(n):
        x = rng.uniform(-1.0, 1.0, size=dim)
        y = labels[rng.integers(len(labels))]
        w = rng.uniform(1.0, max_weight)
        examples.append(x, y, w)
    return examples


def weighted_total_loss(predictor, sample, loss):
    """Brute-force oracle: sum of weight * normalized loss, row by row."""
    return sum(e.weight * loss.eval(predictor.predict(e.x), e.y) for e in sample)


def random_linear_predictors(rng, n, dim, norm_bound=1.0, range_bound=1.0):
    predictors = []
    for _ in range(n):
        u = rng.normal(size=dim)
        u *= np.sqrt(norm_bound) * rng.uniform(0.2, 1.0) / np.linalg.norm(u)
        predictors.append(LinearPredictor(u, range_bound))
    return predictors


def pair_spread_oracle(x, predictors, loss, labels=(-1.0, 1.0)):
    """Literal double loop over ordered pairs and labels."""
    best = 0.0
    for f in predictors:
        for g in predictors:
            for y in labels:
                gap = loss.eval(f.predict(x), y) - loss.eval(g.predict(x), y)
                best = max(best, gap)
    return best


def linear_stream_config(kind, seed):
    """A 150-step loss-weighting-linear run on the 5-d sphere, optimistic slack."""
    return ExperimentConfig.from_dict({
        "dataset": {"kind": "sphere", "dim": 5, "noise": 0.1},
        "strategy": "loss-weighting-linear", "loss_kind": kind,
        "slack_mode": "optimistic", "train_size": 150, "test_size": 200,
        "checkpoint_every": 50, "seed": seed})


def assert_same_tree(tree, other):
    """The two trees have equal node arrays (dtypes too), depth and width."""
    assert tree.n_features == other.n_features
    assert tree.depth() == other.depth()
    for name in ("feature", "threshold", "left", "right", "label"):
        a, b = getattr(tree, name), getattr(other, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
