"""Greedy information-gain decision trees for binary labels.

Axis-aligned threshold splits chosen by entropy reduction, leaves labeled by
majority vote with ties going to +1. A fitted tree is a set of flat node
arrays.

Tie rule: a node's cuts are scanned in feature-major order (feature index,
then position in the feature's stable sort). Let M be the node's best gain;
the node keeps the first allowed cut in scan order whose gain is within
_MIN_GAIN (1e-12) of M. Gains that are equal in exact arithmetic can differ
in the last bits once computed (the mirror cut of a symmetric split takes
each child's entropy from the other label's count), and the allowance lets
such a tie keep the first cut.

Candidate cuts. A depth computes gains only at candidate cuts: allowed cuts
with a label change across them (the rows on their two sides differ in
label), or next to a blocked cut (one between equal values, one leaving
fewer than min_leaf rows on a side, or the segment edge before a node's
first column). In a node of more than _BOUNDARY_ROWS rows every allowed cut
is a candidate. After Fayyad & Irani (Machine Learning 8, 1992), no other
cut can be within _MIN_GAIN of M, so the tie rule over the candidates picks
the cut it would pick over every allowed cut.
  Proof. Take a searched node of n rows, P of them positive; it is impure.
Let cut i leave the first i rows of a feature's order on the left and
W(i) = i H(left) + (n - i) H(right), so its gain is G(i) = H(P/n) - W(i)/n.
With f(p, q) = (p + q) H(p / (p + q)) for p positive and q negative rows,
W = f(left) + f(right), and d2f/dp2 = -q / (ln2 p (p + q)). Let cut i be
allowed but not a candidate: rows i and i + 1 (counting from 1) share a
label, say +, and cuts i - 1 and i + 1 are allowed. From cut i - 1 to i + 1
the two rows move left one at a time and both children keep their negative
counts, which sum to at least 1. A child with q >= 1 and p + q < n has a
second difference below -1 / (ln2 n^2) (by the mean value theorem), the
other one at most 0, so G(i - 1) - 2 G(i) + G(i + 1) > 1 / (ln2 n^3) = 2 delta
and a neighbour of i has a gain above G(i) + delta. Walk from i that way:
while the cut reached is not a candidate the same argument applies there,
so the gain keeps rising, and the walk ends at a candidate (a node's first
and last allowed cuts are candidates) whose gain exceeds G(i) + delta. The
computed gains lie within _CERTIFY / 2 of the exact ones (their rounding is
about 1e-16), so cut i is below that candidate by more than
delta - _CERTIFY. _BOUNDARY_ROWS is the largest n with
delta = 1 / (2 ln2 n^3) > _MIN_GAIN + 2 _CERTIFY: up to it, cut i is more
than _MIN_GAIN below M, and dropping it moves neither M nor the kept cut.

Shared presort. `fit_many` takes one (X, y) and, per tree, a strictly
increasing array of row indices into it. Every feature gets one stable
argsort over all the rows. A tree's rows keep their order and repeat none,
so the shared order filtered to them is the order a stable sort of those
rows alone gives, bit for bit. Bootstrap resamples repeat rows, so the
committee stacks them as consecutive blocks of one (X, y).

Per-depth segments: `fit_many` grows many trees together, as a forest,
one depth at a time with one search per depth; `fit` is its one-tree case.
A forest of K trees starts from K root segments, each a tree's rows in the
shared order, copied into the forest's own rows. The rows of that depth's
searched nodes lie in a (features, rows) index matrix, each node's rows one
contiguous column segment, row f of a segment in the stable order of
feature f. Prefix counts and the candidate cuts come from a few array
passes over the whole matrix, the entropies and gains from passes over the
candidates; per-node maxima and first picks come from `ufunc.at` over the
candidates' nodes. A split partitions the rows by the threshold mask
`X[feature] <= threshold`, never by cut position (a midpoint can round up
to the upper value, whose rows then go left). Every feature row
of a segment holds the same rows, so one per-row mask gathered through the
matrix compresses it into the children's segments, still stably sorted:
each child sees the cuts, counts and midpoints a fresh sort gives.
A node's search reads only its own segment, so each tree of a forest is the
tree it would be alone; the forest only shares each depth's NumPy calls,
which small trees are bound by. Nodes are numbered breadth first across
the forest, each depth's children in the order of their parents, so a
tree's nodes in forest order are in its own breadth-first order, and its
arrays are cut out of the forest's.

Forest size. A depth's arrays grow with the forest's rows x features, its
NumPy calls do not, so a forest holds the datasets that fit in _FOREST_CELLS
feature values; a larger one is grown alone. The bound is the knee of a sweep
on the 5-feature bootstrap benchmark (BENCH_21.json): run time fell up to
40,960 (8,192 rows) and stayed within noise above, while peak memory rose.

Prediction. `predict_forest` stacks many trees' node arrays, child ids
offset per tree, and steps a (trees, rows) node matrix the deepest tree's
depth once; a leaf is its own child, so a shallower tree's rows wait at
their leaves. `predict_many` is its one-tree case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import _point, _rows

# cuts this close to a node's best gain tie with it
_MIN_GAIN = 1e-12
# far above the rounding of a computed gain, far below _MIN_GAIN
_CERTIFY = 1e-14
# feature values (rows x features) of the datasets grown together in a forest
_FOREST_CELLS = 40960
# largest node whose cuts inside a stretch of one label are far below its
# best gain, derived from the tie allowance (module docstring)
_BOUNDARY_ROWS = int((2 * math.log(2) * (_MIN_GAIN + 2 * _CERTIFY)) ** (-1 / 3))


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
    # -(q * log2(q) + r * log2(r)), in place; r * log2(r) goes into q's array
    h = np.log2(q)
    h *= q
    s = np.log2(r, out=q)
    s *= r
    h += s
    np.negative(h, out=h)
    np.copyto(h, 0.0, where=np.isnan(h))
    return h


def _select(cells: np.ndarray, gains: np.ndarray, node: np.ndarray,
            n_nodes: int, m: int):
    """The tie rule over one depth's searched cuts: their flat indices into a
    (features, m) matrix of node column segments (ascending, so in scan
    order within each node), their gains and their nodes. Per node, the
    feature and column of the first cut in scan order within _MIN_GAIN of
    its best gain (feature -1, column 0 when no cut is searched)."""
    best = np.full(n_nodes, -np.inf)
    np.maximum.at(best, node, gains)
    near = gains >= best.take(node) - _MIN_GAIN
    # column 0 where no cut is searched
    first = np.full(n_nodes, np.iinfo(np.intp).max // m * m)
    np.minimum.at(first, node[near], cells[near])
    feature, column = np.divmod(first, m)
    feature[best == -np.inf] = -1
    return feature, column


def _split_depth(X: np.ndarray, pos: np.ndarray, order: np.ndarray,
                 sizes: np.ndarray, starts: np.ndarray, node: np.ndarray,
                 n_pos: np.ndarray, min_leaf: int):
    """One depth's split search: (feature, threshold) per node, feature -1
    where the node has no allowed cut.

    X is the root's (features, rows) array and pos its label > 0 flags; order
    holds the nodes' rows as consecutive column segments of the given sizes
    and starts, with n_pos positive labels each; node is each column's
    segment.
    """
    d, n_rows = X.shape
    m = order.shape[1]
    # (features, m) arrays bound a forest's memory: each is dropped once read
    values = X.ravel().take(order + np.arange(0, d * n_rows, n_rows)[:, None])
    blocked = np.ones((d, m), dtype=bool)        # cuts that are not allowed
    np.equal(values[:, :-1], values[:, 1:], out=blocked[:, :-1])
    del values
    flags = pos.take(order)
    # a cut after a column leaves the segment's columns up to it on the left
    n = sizes.take(node).astype(float)
    n_left = np.arange(1.0, m + 1) - starts.take(node)
    blocked |= (n_left < min_leaf) | (n - n_left < min_leaf)
    # the candidate cuts, the only ones searched (module docstring); the first
    # column has the segment edge before it
    candidate = np.ones((d, m), dtype=bool)
    np.not_equal(flags[:, :-1], flags[:, 1:], out=candidate[:, :-1])
    candidate[:, 1:] |= blocked[:, :-1]
    candidate[:, :-1] |= blocked[:, 1:]
    candidate[:, 0] = True
    candidate |= n > _BOUNDARY_ROWS
    candidate &= ~blocked
    cells = np.flatnonzero(candidate)
    column = cells - cells // m * m
    cut_node = node.take(column)
    n_left = n_left.take(column)
    n_right = n.take(column) - n_left
    # positives before each flat index; a cut's left side holds those up to
    # it less those before its segment, whose flat start replaces its column
    # (copied into intp first: a cumsum of the bools would cast as it sums)
    cum = np.zeros(d * m + 1, dtype=np.intp)
    cum[1:] = flags.ravel()
    np.cumsum(cum[1:], out=cum[1:])
    np.subtract(cells, column, out=column)
    column += starts.take(cut_node)
    pos_left = cum.take(cells + 1)
    pos_left -= cum.take(column)
    del cum, column
    # parent entropies by math.log2 (`_entropy`), as the tests' frozen oracle
    # computes them; np.log2 may differ in the last bit
    parent = np.array([_entropy(p, s) for p, s in zip(n_pos.tolist(), sizes.tolist())])
    # each cut's gain, elementwise and in place (one child at a time, to hold
    # fewer temporaries): parent - (n_left * h_left + n_right * h_right) / n
    gains = _entropy_many(pos_left, n_left)
    gains *= n_left
    # the right side's positives go into pos_left's array
    h = _entropy_many(np.subtract(n_pos.take(cut_node), pos_left, out=pos_left), n_right)
    h *= n_right
    gains += h
    # n_left + n_right is the node's row count exactly (integers below 2**53)
    gains /= n_left + n_right
    np.subtract(parent.take(cut_node), gains, out=gains)

    feature, column = _select(cells, gains, cut_node, len(sizes), m)
    threshold = 0.5 * (X[feature, order[feature, column]]
                       + X[feature, order[feature, column + 1]])
    return feature, threshold


def _grow(X: np.ndarray, pos: np.ndarray, order: np.ndarray, sizes: np.ndarray,
          params: TreeParams):
    """(feature, threshold, left, right, label, depth) of each tree grown on
    the (features, rows) array X with label > 0 flags pos, whose rows hold
    the trees' samples one after another, in blocks of the given sizes;
    order holds each tree's rows, stably sorted by each feature, as one
    column segment. The trees are grown together as one forest: their roots
    are the first depth's segments. Nodes are numbered breadth first across
    the forest; a leaf's children are itself."""
    d, n_rows = X.shape

    def searched(depth, sizes, n_pos):
        return ((depth < params.max_depth) & (sizes >= 2 * params.min_leaf)
                & (n_pos > 0) & (n_pos < sizes))

    n_trees = len(sizes)
    n_pos = np.add.reduceat(pos, sizes.cumsum() - sizes)
    ids = tree = np.arange(n_trees)
    levels = [(ids, sizes, n_pos, tree)]    # every node: id, rows, positives, tree
    splits = []                       # split nodes: ids, features, thresholds, left child ids
    n_nodes, depth = n_trees, 0
    wanted = searched(0, sizes, n_pos)
    order = order.compress(wanted.repeat(sizes), axis=1)
    while wanted.any():
        ids, sizes, n_pos, tree = ids[wanted], sizes[wanted], n_pos[wanted], tree[wanted]
        # zero-gain splits are allowed on impure nodes: parity-style patterns
        # only pay off a level deeper, and max_depth bounds the growth
        starts = sizes.cumsum() - sizes
        node = np.arange(len(ids)).repeat(sizes)
        feature, threshold = _split_depth(X, pos, order, sizes, starts, node, n_pos,
                                          params.min_leaf)
        split = feature >= 0
        k = int(np.count_nonzero(split))
        if k == 0:
            break
        # children numbered in the order of their parents' ids
        parents = ids[split]
        left_ids = n_nodes + 2 * np.sort(parents).searchsorted(parents)
        splits.append((parents, feature[split], threshold[split], left_ids))
        # each row's side, by its node's threshold mask (unused for the rows
        # of a node without a split, whose feature -1 picks some value)
        rows = order[0].copy()            # a view would pin this depth's order
        goes_left = X.ravel().take(feature[node] * n_rows + rows) <= threshold[node]
        left_sizes = np.add.reduceat(goes_left, starts)[split]
        left_pos = np.add.reduceat(goes_left & pos[rows], starts)[split]
        # the children's segments: all left ones, then all right ones
        ids = np.concatenate((left_ids, left_ids + 1))
        sizes = np.concatenate((left_sizes, sizes[split] - left_sizes))
        n_pos = np.concatenate((left_pos, n_pos[split] - left_pos))
        tree = np.concatenate((tree[split], tree[split]))
        levels.append((ids, sizes, n_pos, tree))
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

    ids, sizes, n_pos, tree = (np.concatenate(column) for column in zip(*levels))
    label = np.empty(n_nodes)
    label[ids] = np.where(2 * n_pos >= sizes, 1.0, -1.0)
    node_tree = np.empty(n_nodes, dtype=np.intp)
    node_tree[ids] = tree
    feature = np.zeros(n_nodes, dtype=np.intp)
    threshold = np.zeros(n_nodes)
    left = np.arange(n_nodes)
    right = np.arange(n_nodes)
    for ids, f, t, left_ids in splits:
        feature[ids], threshold[ids], label[ids] = f, t, 0.0
        left[ids], right[ids] = left_ids, left_ids + 1
    tree_depth = np.zeros(n_trees, dtype=int)
    for level, (*_, tree) in enumerate(levels):
        tree_depth[tree] = level
    # each tree cut out of the forest: its nodes, in forest order, are in its
    # own breadth-first order, since every depth numbers its children in the
    # order of their parents
    grown = []
    local = np.empty(n_nodes, dtype=np.intp)
    for k, depth in enumerate(tree_depth.tolist()):
        mine = np.flatnonzero(node_tree == k)
        local[mine] = np.arange(len(mine))
        grown.append((feature[mine], threshold[mine], local[left[mine]],
                      local[right[mine]], label[mine], depth))
    return grown


def leaf_label(walk, x: list) -> float:
    """The label of the leaf that x, a list of features, reaches in the tree
    whose node lists are `walk` (DecisionTree._walk)."""
    feature, threshold, left, right, label = walk
    node = 0
    while left[node] != node:
        node = left[node] if x[feature[node]] <= threshold[node] else right[node]
    return label[node]


def _checked(index: int, rows, n_rows: int) -> np.ndarray:
    """The index-th array of row indices; ValueError, naming the index,
    unless it is a nonempty, strictly increasing 1-D integer array of
    indices below n_rows."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"subset {index}: expected a 1-D array of integer row "
                         f"indices, got {rows.dtype} of shape {rows.shape}")
    if len(rows) == 0:
        raise ValueError(f"subset {index}: cannot fit a tree on an empty sample")
    if (np.diff(rows) <= 0).any() or rows[0] < 0 or rows[-1] >= n_rows:
        raise ValueError(f"subset {index}: row indices must be strictly increasing "
                         f"(sorted, none repeated) and within 0..{n_rows - 1}")
    return rows


def predict_forest(trees, X) -> np.ndarray:
    """Each tree's predictions on the rows of X, one row per tree, in one walk
    (module docstring); DimensionMismatchError unless X's rows have every tree's width."""
    for tree in trees:
        X = _rows(X, tree.n_features)
    offsets = np.cumsum([0] + [len(tree.label) for tree in trees])[:-1]
    feature, threshold, left, right, label = (np.concatenate(arrays) for arrays in zip(
        *((t.feature, t.threshold, t.left + k, t.right + k, t.label)
          for t, k in zip(trees, offsets.tolist()))))
    node = np.repeat(offsets[:, None], len(X), axis=1)
    # X[i, feature[node[k, i]]] as one flat take
    flat, rows = X.ravel(), np.arange(len(X)) * X.shape[1]
    for _ in range(max(tree.depth() for tree in trees)):
        node = np.where(flat.take(rows + feature.take(node)) <= threshold.take(node),
                        left.take(node), right.take(node))
    return label.take(node)


class DecisionTree:
    """A fitted tree as parallel node arrays: node i splits on feature[i] at
    threshold[i] into left[i] and right[i]; a leaf is its own child and
    carries label[i] (0 at split nodes). Node 0 is the root, and depth is the
    number of splits on the longest root-to-leaf path. Grown by
    DecisionTree.fit or fit_many."""

    def __init__(self, n_features, feature, threshold, left, right, label, depth):
        self.n_features = n_features
        self.feature, self.threshold = feature, threshold
        self.left, self.right, self.label = left, right, label
        self._depth = depth

    @functools.cached_property
    def _walk(self):
        # scalar predictions walk lists: indexing them beats indexing arrays;
        # made on first use, since most fitted trees only predict in batches
        return (self.feature.tolist(), self.threshold.tolist(), self.left.tolist(),
                self.right.tolist(), self.label.tolist())

    @classmethod
    def fit(cls, X, y, params: TreeParams = TreeParams()) -> "DecisionTree":
        return cls.fit_many(X, y, [np.arange(len(X))], params)[0]

    @classmethod
    def fit_many(cls, X, y, subsets, params: TreeParams = TreeParams()) -> list:
        """One tree per array of row indices into (X, y) in `subsets`, in
        order, each the tree `fit` grows on those rows. Every feature is
        sorted once, over all rows. The iterable is read lazily: consecutive
        subsets are grown together, in forests of at most _FOREST_CELLS
        feature values, and a larger subset is grown alone. ValueError unless
        X is a finite (rows, features) array with one label per row, or,
        naming its index, unless a subset is nonempty, strictly increasing
        and in range."""
        X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError(f"expected (rows, features) features and one label "
                             f"per row, got shapes {X.shape} and {y.shape}")
        if not np.isfinite(X).all():
            # an infinite value would make an infinite or NaN midpoint threshold
            raise ValueError("cannot fit a tree on features that are not finite")
        # no feature: sort one constant column instead, which allows no cut
        XT = np.ascontiguousarray(X.T) if X.shape[1] else np.zeros((1, len(X)))
        order = np.argsort(XT, axis=1, kind="stable")

        slot = np.full(len(X), -1)

        def root(start, rows):
            # a tree's root: the shared order filtered to its rows, renumbered as
            # forest rows; one tree at a time, to hold one (features, rows) array
            slot[rows] = np.arange(start, start + len(rows))
            kept = slot.take(order)
            slot[rows] = -1
            return kept[kept >= 0].reshape(len(order), -1)

        def grow(forest):
            sizes = np.array([len(rows) for rows in forest])
            rows = np.concatenate(forest)
            # the roots are joined in the call, so _grow holds their only copy
            with np.errstate(divide="ignore", invalid="ignore"):
                grown = _grow(XT.take(rows, axis=1), y.take(rows) > 0, np.concatenate(
                    [root(*tree) for tree in zip(sizes.cumsum() - sizes, forest)], axis=1),
                    sizes, params)
            return [cls(X.shape[1], *arrays) for arrays in grown]

        fitted, forest = [], []
        for i, rows in enumerate(subsets):
            rows = _checked(i, rows, len(X))
            if forest and (sum(map(len, forest)) + len(rows)) * len(XT) > _FOREST_CELLS:
                fitted += grow(forest)
                forest = []
            forest.append(rows)
        if forest:
            fitted += grow(forest)
        return fitted

    def predict(self, x) -> float:
        return leaf_label(self._walk, _point(x, self.n_features).tolist())

    def predict_many(self, X) -> np.ndarray:
        return predict_forest([self], X)[0]

    def depth(self) -> int:
        return self._depth
