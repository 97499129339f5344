"""Greedy information-gain decision trees for binary labels.

Axis-aligned threshold splits chosen by entropy reduction, leaves labeled by
majority vote with ties going to +1. Trees serialize to plain nested dicts /
JSON.

Tie rule: a node's candidate cuts are scanned in feature-major order (feature
index, then position in the feature's stable sort). The first allowed cut is
kept, and a later one replaces the kept cut only if its gain exceeds the kept
gain by more than 1e-12. The search evaluates every cut of a node at once and
replays this rule without a per-cut loop. Vector gains use np.log2, which can
differ from math.log2 in the last bit, so a gain can differ from the scalar
`_entropy` form by about 1e-16. When any comparison of the replay lies within
1e-14 of its 1e-12 margin, the node's gains are recomputed with the scalar
`_entropy` and the rule is replayed on those, so the tree is the one the
sequential scan over scalar gains would grow.

Presort invariant: `fit` sorts every feature once (a stable argsort of the
root's rows). A node holds a (features, rows) index matrix whose row f lists
its rows in the stable order of feature f. A split partitions every row by the
threshold mask `X[feature] <= threshold`, never by cut position (a midpoint can
round up to the upper value, whose rows then go left), so each child's rows
stay stably sorted and see the cuts, counts and midpoints a fresh sort gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

_MIN_GAIN = 1e-12
# far above the gap between vector and scalar gains, far below _MIN_GAIN
_CERTIFY = 1e-14


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 8
    min_leaf: int = 2

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")


def _entropy(n_pos: int, n: int) -> float:
    if n == 0 or n_pos == 0 or n_pos == n:
        return 0.0
    q = n_pos / n
    return -(q * math.log2(q) + (1 - q) * math.log2(1 - q))


def _entropy_many(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """`_entropy` elementwise: the same formula and operation order (the
    caller silences the 0/0 and log2(0) warnings)."""
    q = n_pos / n
    h = -(q * np.log2(q) + (1 - q) * np.log2(1 - q))
    return np.where((n == 0) | (n_pos == 0) | (n_pos == n), 0.0, h)


def _entropy_exact(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """`_entropy` called once per element, for certifying near-ties."""
    return np.frompyfunc(_entropy, 2, 1)(n_pos, n).astype(float)


def _scan(gains: np.ndarray):
    """Replay the tie rule over gains in scan order (-inf marks a cut that is
    not allowed). Returns (kept index or None, whether any comparison of the
    replay lies within _CERTIFY of its margin)."""
    before = np.maximum.accumulate(np.concatenate(([-np.inf], gains)))[:-1]
    rising = np.flatnonzero(gains > before)
    if rising.size == 0:
        return None, False
    # Only a new running maximum can replace the kept cut, since the kept
    # gain is never below the running maximum by more than _MIN_GAIN. One
    # that tops the running maximum by more than _MIN_GAIN always does.
    sure = gains[rising] > before[rising] + _MIN_GAIN
    chain = rising[sure]
    unsure = rising[~sure]
    if unsure.size:
        taken = []
        for j, last_sure in zip(unsure.tolist(),
                                chain[np.searchsorted(chain, unsure) - 1].tolist()):
            kept = max(last_sure, taken[-1]) if taken else last_sure
            if gains[j] > gains[kept] + _MIN_GAIN:
                taken.append(j)
        chain = np.union1d(chain, np.array(taken, dtype=chain.dtype))
    # the kept cut at the time each later cut is compared against it
    marks = np.full(gains.size, -1)
    marks[chain] = chain
    kept_before = np.maximum.accumulate(marks)[:-1]
    margin = np.where(kept_before >= 0, gains[kept_before], np.inf) + _MIN_GAIN
    close = bool(np.any(np.abs(gains[1:] - margin) <= _CERTIFY))
    return int(chain[-1]), close


def _best_split(values: np.ndarray, flags: np.ndarray, pos_total: int,
                min_leaf: int):
    """(feature, threshold) of the best entropy split, or None.

    values and flags (label > 0) hold one row per feature, in that feature's
    sorted order. A cut after sorted position i leaves i + 1 points on the
    left; min_leaf allows lo <= i < hi.
    """
    n = values.shape[1]
    lo, hi = min_leaf - 1, n - min_leaf
    pos_left = np.cumsum(flags, axis=1)[:, lo:hi]
    n_left = np.arange(lo + 1, hi + 1)
    counts = np.array((pos_left, pos_total - pos_left))
    sizes = np.array((n_left, n - n_left))[:, None]
    allowed = values[:, lo:hi] != values[:, lo + 1:hi + 1]
    parent = _entropy(pos_total, n)

    def gains(entropy):
        h = entropy(counts, sizes)
        child = (n_left * h[0] + sizes[1] * h[1]) / n
        return np.where(allowed, parent - child, -np.inf).ravel()

    best, close = _scan(gains(_entropy_many))
    if close:
        best, _ = _scan(gains(_entropy_exact))
    if best is None:
        return None
    feature, i = divmod(best, hi - lo)
    i += lo
    return feature, 0.5 * (values[feature, i] + values[feature, i + 1])


def _grow(X: np.ndarray, pos: np.ndarray, order: np.ndarray, depth: int,
          params: TreeParams) -> dict:
    """X is the root's (features, rows) array and pos its label > 0 flags;
    order holds the node's rows, row f in the stable order of feature f."""
    d, n = order.shape
    flags = pos[order]
    pos_total = int(np.count_nonzero(flags[0]))
    leaf = {"label": 1.0 if pos_total * 2 >= n else -1.0}
    if depth >= params.max_depth or n < 2 * params.min_leaf or pos_total in (0, n):
        return leaf
    # zero-gain splits are allowed on impure nodes: parity-style patterns
    # only pay off a level deeper, and max_depth bounds the growth
    split = _best_split(X[np.arange(d)[:, None], order], flags, pos_total,
                        params.min_leaf)
    if split is None:
        return leaf
    feature, threshold = split
    left = X[feature][order] <= threshold
    k = int(np.count_nonzero(left[0]))
    return {
        "feature": int(feature),
        "threshold": float(threshold),
        "left": _grow(X, pos, order[left].reshape(d, k), depth + 1, params),
        "right": _grow(X, pos, order[~left].reshape(d, n - k), depth + 1, params),
    }


class DecisionTree:
    """A fitted tree; construct via DecisionTree.fit or from_dict."""

    def __init__(self, root: dict, n_features: int):
        self.root = root
        self.n_features = n_features

    @classmethod
    def fit(cls, X, y, params: TreeParams = TreeParams()) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("cannot fit a tree on an empty sample")
        # no feature: sort one constant column instead, which allows no cut
        XT = np.ascontiguousarray(X.T) if X.shape[1] else np.zeros((1, len(X)))
        with np.errstate(divide="ignore", invalid="ignore"):
            root = _grow(XT, y > 0, np.argsort(XT, axis=1, kind="stable"), 0, params)
        return cls(root, X.shape[1])

    @classmethod
    def leaf(cls, label: float, n_features: int) -> "DecisionTree":
        return cls({"label": 1.0 if label > 0 else -1.0}, n_features)

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_features:
            raise DimensionMismatchError(
                f"expected dimension {self.n_features}, got {x.shape[0]}"
            )
        node = self.root
        while "label" not in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["label"]

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        if len(X) == 0:
            return out
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected rows of dimension {self.n_features}, got shape {X.shape}"
            )
        pending = [(self.root, np.arange(len(X)))]
        while pending:
            node, rows = pending.pop()
            if "label" in node:
                out[rows] = node["label"]
                continue
            left = X[rows, node["feature"]] <= node["threshold"]
            pending.append((node["left"], rows[left]))
            pending.append((node["right"], rows[~left]))
        return out

    def depth(self) -> int:
        def walk(node):
            if "label" in node:
                return 0
            return 1 + max(walk(node["left"]), walk(node["right"]))
        return walk(self.root)

    def to_dict(self) -> dict:
        return {"n_features": self.n_features, "root": self.root}

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionTree":
        return cls(payload["root"], payload["n_features"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        return cls.from_dict(json.loads(text))
