"""Greedy information-gain decision trees for binary labels.

Axis-aligned threshold splits chosen by entropy reduction, leaves labeled by
majority vote with ties going to +1. A fitted tree is a set of flat node
arrays; it serializes to plain nested dicts / JSON.

Tie rule: a node's candidate cuts are scanned in feature-major order (feature
index, then position in the feature's stable sort). The first allowed cut is
kept, and a later one replaces the kept cut only if its gain exceeds the kept
gain by more than _MIN_GAIN (1e-12). Vector gains use np.log2, which can
differ from math.log2 in the last bit, so a gain can differ from the scalar
`_entropy` form by about 1e-16; the tree must be the one the sequential scan
over scalar gains grows.

Selection by band. Let M be a node's largest vector gain and j* the first
cut in scan order whose gain is at least M - _NEAR (1e-13). `fit` keeps j*
unless some gain lies in the band [M - (_MIN_GAIN + _NEAR + _CERTIFY),
M - _NEAR). Such a node goes to `_best_split`, which replays the rule and,
when a comparison lies within _CERTIFY of its margin, recomputes the gains
with the scalar `_entropy` and replays again. Outside the band every gain is
near (>= M - _NEAR) or far (< M - _MIN_GAIN - _NEAR - _CERTIFY). With the
vector-scalar gap below _CERTIFY / 2, on vector and on scalar gains alike:
  - every cut before j* is far, so the cut kept when the scan reaches j* is
    below j* by more than _MIN_GAIN, and j* replaces it;
  - every later gain is at most M, above j* by less than _MIN_GAIN, so
    nothing replaces j*.
So the replay, its scalar certification and the sequential scan over scalar
gains all keep j*.

Per-depth segments: `fit` sorts every feature once (a stable argsort of the
root's rows) and grows the tree one depth at a time with one search per
depth. The rows of that depth's searched nodes lie in a (features, rows)
index matrix, each node's rows one contiguous column segment, row f of a
segment in the stable order of feature f. Prefix counts, both child
entropies and the gains of every cut of every node come from a few array
passes over the whole matrix; per-node maxima and first picks come from
`reduceat` over the segment starts. A split partitions the rows by the
threshold mask `X[feature] <= threshold`, never by cut position (a midpoint
can round up to the upper value, whose rows then go left). Every feature row
of a segment holds the same rows, so one per-row mask gathered through the
matrix compresses it into the children's segments, still stably sorted:
each child sees the cuts, counts and midpoints a fresh sort gives.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

_MIN_GAIN = 1e-12
# far above the gap between vector and scalar gains, far below _MIN_GAIN
_CERTIFY = 1e-14
# cuts this close to a node's best gain tie with it (_NEAR + _CERTIFY < _MIN_GAIN)
_NEAR = 1e-13


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
    caller silences the 0/0 and log2(0) warnings). The formula gives NaN
    exactly where `_entropy` returns 0: n = 0, n_pos = 0 or n_pos = n."""
    q = n_pos / n
    r = 1 - q
    # -(q * log2(q) + r * log2(r)), in place
    h = np.log2(q)
    h *= q
    s = np.log2(r)
    s *= r
    h += s
    np.negative(h, out=h)
    np.copyto(h, 0.0, where=np.isnan(h))
    return h


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
    """(feature, threshold) of one node's best entropy split, or None: the
    exact replay of the tie rule, with scalar certification.

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


def _select(gains: np.ndarray, sizes: np.ndarray):
    """The batched tie rule over node segments of a (features, columns) gain
    matrix (-inf marks a cut that is not allowed). Per node: the feature and
    column of the first cut in scan order within _NEAR of its best gain M
    (feature -1 when no cut is allowed), and whether a gain lies in the band
    [M - (_MIN_GAIN + _NEAR + _CERTIFY), M - _NEAR), which `_best_split`
    must settle. See the module docstring."""
    d, m = gains.shape
    node = np.arange(len(sizes)).repeat(sizes)
    best = np.maximum.reduceat(gains, sizes.cumsum() - sizes, axis=1).max(axis=0)
    # cuts at or above the band's floor, in scan order (all cuts of a node
    # with none allowed, each near its best of -inf)
    hits = np.flatnonzero(gains >= (best - (_MIN_GAIN + _NEAR + _CERTIFY))[node])
    hit_node = node[hits % m]
    near = gains.ravel()[hits] >= best[hit_node] - _NEAR
    first = np.full(len(sizes), d * m)
    np.minimum.at(first, hit_node[near], hits[near])
    exact = np.zeros(len(sizes), dtype=bool)
    exact[hit_node[~near]] = True
    feature, column = np.divmod(first, m)
    feature[best == -np.inf] = -1
    return feature, column, exact


def _split_depth(X: np.ndarray, pos: np.ndarray, order: np.ndarray,
                 sizes: np.ndarray, n_pos: np.ndarray, min_leaf: int):
    """One depth's split search: (feature, threshold) per node, feature -1
    where the node has no allowed cut.

    X is the root's (features, rows) array and pos its label > 0 flags; order
    holds the nodes' rows as consecutive column segments of the given sizes,
    with n_pos positive labels each.
    """
    d, n_rows = X.shape
    m = order.shape[1]
    starts = sizes.cumsum() - sizes
    node = np.arange(len(sizes)).repeat(sizes)       # each column's segment
    values = X.ravel().take(order + np.arange(0, d * n_rows, n_rows)[:, None])
    blocked = np.ones((d, m), dtype=bool)        # cuts that are not allowed
    np.equal(values[:, :-1], values[:, 1:], out=blocked[:, :-1])
    flags = pos.take(order)
    # positives up to each column, less those before the column's segment
    pos_left = flags.ravel().cumsum()
    before = pos_left.take((np.arange(0, d * m, m)[:, None] + starts - 1).ravel())
    before[0] = 0
    pos_left = pos_left.reshape(d, m)
    pos_left -= before.reshape(d, -1).take(node, axis=1)
    # a cut after a column leaves the segment's columns up to it on the left
    n = sizes.take(node).astype(float)
    n_left = np.arange(1.0, m + 1) - starts.take(node)
    n_right = n - n_left
    blocked |= (n_left < min_leaf) | (n_right < min_leaf)
    parent = np.array([_entropy(p, s) for p, s in zip(n_pos.tolist(), sizes.tolist())])
    # `_best_split`'s gain formula and operation order, elementwise and in
    # place (one child at a time, to hold fewer temporaries):
    # parent - (n_left * h_left + n_right * h_right) / n
    gains = _entropy_many(pos_left, n_left)
    gains *= n_left
    h = _entropy_many(n_pos.take(node) - pos_left, n_right)
    h *= n_right
    gains += h
    gains /= n
    np.subtract(parent.take(node), gains, out=gains)
    np.copyto(gains, -np.inf, where=blocked)

    feature, column, exact = _select(gains, sizes)
    threshold = 0.5 * (values[feature, column] + values[feature, column + 1])
    for k in np.flatnonzero(exact).tolist():
        seg = slice(starts[k], starts[k] + sizes[k])
        feature[k], threshold[k] = _best_split(values[:, seg], flags[:, seg],
                                               int(n_pos[k]), min_leaf)
    return feature, threshold


def _grow(X: np.ndarray, pos: np.ndarray, params: TreeParams):
    """(feature, threshold, left, right, label, depth) of the tree grown on
    the (features, rows) array X with label > 0 flags pos. Nodes are numbered
    breadth first, as `_flatten` numbers them; a leaf's children are itself."""
    d, n_rows = X.shape

    def searched(depth, sizes, n_pos):
        return ((depth < params.max_depth) & (sizes >= 2 * params.min_leaf)
                & (n_pos > 0) & (n_pos < sizes))

    sizes = np.array([n_rows])
    n_pos = np.array([np.count_nonzero(pos)])
    ids = np.zeros(1, dtype=np.intp)
    levels = [(ids, sizes, n_pos)]    # every node: id, rows, positives
    splits = []                       # split nodes: ids, features, thresholds, left child ids
    n_nodes, depth = 1, 0
    wanted = searched(0, sizes, n_pos)
    order = np.argsort(X, axis=1, kind="stable") if wanted[0] else None
    while wanted.any():
        ids, sizes, n_pos = ids[wanted], sizes[wanted], n_pos[wanted]
        # zero-gain splits are allowed on impure nodes: parity-style patterns
        # only pay off a level deeper, and max_depth bounds the growth
        feature, threshold = _split_depth(X, pos, order, sizes, n_pos, params.min_leaf)
        split = feature >= 0
        k = int(np.count_nonzero(split))
        if k == 0:
            break
        # children numbered in the order of their parents' ids
        parents = ids[split]
        taken = np.zeros(n_nodes, dtype=bool)
        taken[parents] = True
        left_ids = n_nodes + 2 * (np.cumsum(taken) - 1)[parents]
        splits.append((parents, feature[split], threshold[split], left_ids))
        # each row's side, by its node's threshold mask (unused for the rows
        # of a node without a split, whose feature -1 picks some value)
        node = np.arange(len(ids)).repeat(sizes)
        rows = order[0]
        goes_left = X.ravel().take(feature[node] * n_rows + rows) <= threshold[node]
        starts = sizes.cumsum() - sizes
        left_sizes = np.add.reduceat(goes_left, starts)[split]
        left_pos = np.add.reduceat(goes_left & pos[rows], starts)[split]
        # the children's segments: all left ones, then all right ones
        ids = np.concatenate((left_ids, left_ids + 1))
        sizes = np.concatenate((left_sizes, sizes[split] - left_sizes))
        n_pos = np.concatenate((left_pos, n_pos[split] - left_pos))
        levels.append((ids, sizes, n_pos))
        n_nodes += 2 * k
        depth += 1
        wanted = searched(depth, sizes, n_pos)
        if not wanted.any():
            break
        # keep the rows of the children searched next, in their segments
        rank = np.cumsum(split) - 1
        child = np.where(goes_left, rank[node], k + rank[node])
        keep = split[node] & wanted[child]
        side = np.zeros(n_rows, dtype=np.int8)        # 1: left, 2: right
        side[rows] = keep * (2 - goes_left)
        side = side.take(order).ravel()
        order = order.ravel()
        order = np.concatenate((order.compress(side == 1).reshape(d, -1),
                                order.compress(side == 2).reshape(d, -1)), axis=1)

    ids, sizes, n_pos = (np.concatenate(column) for column in zip(*levels))
    label = np.empty(n_nodes)
    label[ids] = np.where(2 * n_pos >= sizes, 1.0, -1.0)
    feature = np.zeros(n_nodes, dtype=np.intp)
    threshold = np.zeros(n_nodes)
    left = np.arange(n_nodes)
    right = np.arange(n_nodes)
    for ids, f, t, left_ids in splits:
        feature[ids], threshold[ids], label[ids] = f, t, 0.0
        left[ids], right[ids] = left_ids, left_ids + 1
    return feature, threshold, left, right, label, depth


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _flatten(root: dict, n_features: int):
    """Node arrays and depth of a nested-dict tree, as `_grow` returns them.
    Every node is checked; a bad one raises ValueError naming its path."""
    feature, threshold, left, right, label = [], [], [], [], []
    pending, depth = [(root, "root", 0)], 0
    seen = set()
    for i, (node, path, level) in enumerate(pending):   # pending grows as it is read
        if not isinstance(node, dict):
            raise ValueError(f"tree node {path} is not a dict")
        depth = max(depth, level)
        if "label" in node:
            value = node["label"]
            if not _is_real(value) or value not in (-1.0, 1.0):
                raise ValueError(f"leaf {path} has label {value!r}, not +1 or -1")
            feature.append(0)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
            label.append(float(value))
            continue
        missing = [key for key in ("feature", "threshold", "left", "right") if key not in node]
        if missing:
            raise ValueError(f"split node {path} has no {', '.join(missing)}")
        if id(node) in seen:
            raise ValueError(f"split node {path} appears twice in the tree")
        seen.add(id(node))
        f, t = node["feature"], node["threshold"]
        if not _is_int(f) or not 0 <= f < n_features:
            raise ValueError(f"split node {path} has feature {f!r}, "
                             f"not an index below {n_features}")
        if not _is_real(t) or not math.isfinite(t):
            raise ValueError(f"split node {path} has threshold {t!r}, not a finite number")
        feature.append(int(f))
        threshold.append(float(t))
        left.append(len(pending))
        right.append(len(pending) + 1)
        label.append(0.0)
        pending += [(node["left"], path + ".left", level + 1),
                    (node["right"], path + ".right", level + 1)]
    return (np.array(feature, dtype=np.intp), np.array(threshold),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array(label), depth)


class DecisionTree:
    """A fitted tree as parallel node arrays: node i splits on feature[i] at
    threshold[i] into left[i] and right[i]; a leaf is its own child and
    carries label[i] (0 at split nodes). Node 0 is the root. Construct via
    DecisionTree.fit, from_dict, or DecisionTree(root dict, n_features)."""

    def __init__(self, root: dict, n_features: int):
        if not _is_int(n_features) or n_features < 0:
            raise ValueError(f"n_features must be a nonnegative integer, got {n_features!r}")
        self._set(int(n_features), *_flatten(root, n_features))

    def _set(self, n_features, feature, threshold, left, right, label, depth):
        self.n_features = n_features
        self.feature, self.threshold = feature, threshold
        self.left, self.right, self.label = left, right, label
        self._depth = depth
        # scalar predictions walk lists: indexing them beats indexing arrays
        self._walk = (feature.tolist(), threshold.tolist(), left.tolist(),
                      right.tolist(), label.tolist())

    @classmethod
    def fit(cls, X, y, params: TreeParams = TreeParams()) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("cannot fit a tree on an empty sample")
        if not np.isfinite(X).all():
            # a fitted tree's thresholds are finite, as `_flatten` requires
            raise ValueError("cannot fit a tree on features that are not finite")
        # no feature: sort one constant column instead, which allows no cut
        XT = np.ascontiguousarray(X.T) if X.shape[1] else np.zeros((1, len(X)))
        tree = cls.__new__(cls)
        with np.errstate(divide="ignore", invalid="ignore"):
            tree._set(X.shape[1], *_grow(XT, y > 0, params))
        return tree

    @classmethod
    def leaf(cls, label: float, n_features: int) -> "DecisionTree":
        return cls({"label": 1.0 if label > 0 else -1.0}, n_features)

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise DimensionMismatchError(
                f"expected dimension {self.n_features}, got {x.shape}"
            )
        feature, threshold, left, right, label = self._walk
        node = 0
        while left[node] != node:
            node = left[node] if x[feature[node]] <= threshold[node] else right[node]
        return label[node]

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected rows of dimension {self.n_features}, got shape {X.shape}"
            )
        node = np.zeros(len(X), dtype=np.intp)
        # X[i, feature[node[i]]] as one flat take
        flat, rows = X.ravel(), np.arange(len(X)) * self.n_features
        for _ in range(self._depth):
            node = np.where(flat.take(rows + self.feature.take(node))
                            <= self.threshold.take(node),
                            self.left.take(node), self.right.take(node))
        return self.label.take(node)

    def depth(self) -> int:
        return self._depth

    @property
    def root(self) -> dict:
        """The tree as nested dicts, built from the node arrays."""
        feature, threshold, left, right, label = self._walk

        def node(i):
            if left[i] == i:
                return {"label": label[i]}
            return {"feature": feature[i], "threshold": threshold[i],
                    "left": node(left[i]), "right": node(right[i])}
        return node(0)

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
