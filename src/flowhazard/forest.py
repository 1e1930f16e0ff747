"""Regression forest built on variance-reduction CART trees.

Split search is deterministic: candidate features are visited in
ascending index order and, within a feature, candidate thresholds in
ascending value order, so equal-gain ties resolve to the lowest feature
index and lowest threshold.  Per-tree randomness (bootstrap rows, feature
subsets) comes from streams derived as (seed, tree_index).

The search is exact over the distinct values of each feature within a
node, and reads the features only as per-row value ranks, computed once
per forest with ``np.unique``; no float copy of the matrix is kept.  A
cut is a feature and the ranks of two adjacent distinct values in the
node: rows at or below the lower rank go left, and the threshold is the
values' midpoint (or the lower value, where the midpoint would round
onto the upper one or overflow).  It runs one of two ways, and both
pick the same cut:

* Nodes above ``_BIG_NODE`` rows count, per distinct value, the node's
  rows and its rows with target 1, with one ``np.bincount`` each over
  the ranks.  The candidates' ranks are laid end to end, so each count
  covers every candidate; the non-empty bins are the node's distinct
  values in ascending order.
* Smaller nodes sort the node's block of candidate ranks in one stable
  ``argsort``, take cumulative sums along the sorted rows and take the
  first maximum over the whole block.

Targets are 0.0/1.0 (``FlowDataset`` enforces it), so a target equals its
square and every left-side row count and target sum is an integer held
exactly in float64.  Each cut's gain is then the same float whether it
comes from bins or from a sort, and the first-max rule picks the same
cut.  Trees are grown depth first from an explicit stack, in preorder, so
node numbering and the order of the per-node feature draws follow the
recursive definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import rng_from

# Nodes with more rows than this search rank bins; the rest sort.
_BIG_NODE = 256


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; ``feature == -1`` marks a leaf."""

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    value: np.ndarray      # float64, leaf prediction


@dataclass(frozen=True)
class ForestState:
    trees: tuple[Tree, ...]


@dataclass(frozen=True)
class _Columns:
    """The training features by column, as ranks, shared by every tree."""

    values: tuple        # per feature, its distinct values ascending
    ranks: np.ndarray    # (F, n) int32, each row's index into ``values``
    n_values: np.ndarray  # (F,) int32, the number of distinct values

    @classmethod
    def of(cls, X: np.ndarray) -> "_Columns":
        ranks = np.empty(X.shape[::-1], dtype=np.int32)
        values = []
        for f in range(X.shape[1]):
            distinct, ranks[f] = np.unique(X[:, f], return_inverse=True)
            values.append(distinct)
        n_values = np.array([v.size for v in values], dtype=np.int32)
        return cls(values=tuple(values), ranks=ranks, n_values=n_values)


def _threshold(lo, hi) -> float:
    """A threshold that sends ``lo`` left and ``hi`` right: their
    midpoint, or ``lo`` where the midpoint rounds onto ``hi`` (adjacent
    floats) or overflows."""
    lo, hi = float(lo), float(hi)  # Python floats overflow silently
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def _gains(k, c1, n, total, min_leaf, distinct):
    """Variance-reduction gain of each cut, ``-inf`` where not allowed.

    ``k`` rows with target sum ``c1`` go left of a cut; ``distinct``
    marks cuts that fall between two different values.  The targets are
    0/1, so ``c1`` is also the left side's sum of squared targets.
    """
    parent_sse = total - total * total / n
    left_sse = c1 - c1 * c1 / k
    right_sse = (total - c1) - (total - c1) ** 2 / (n - k)
    valid = distinct & (k >= min_leaf) & (n - k >= min_leaf)
    return np.where(valid, parent_sse - left_sse - right_sse, -np.inf)


def _grow_tree(cols: _Columns, y_all, idx, max_depth, min_leaf, mtry,
               rng) -> Tree:
    """One tree over the rows ``idx``, drawing each split node's
    candidate features from ``rng``."""
    n_features = cols.n_values.size
    feature, threshold, left, right, value = [], [], [], [], []
    # (rows, depth, parent node, parent's child list to link into)
    stack = [(idx, 0, -1, None)]
    while stack:
        idx, depth, parent, link = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        y = y_all[idx]
        total = float(y.sum())  # 0/1 targets: pure at 0 or idx.size
        split = None
        if not (
            (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or total in (0.0, idx.size)
        ):
            feats = (np.arange(n_features) if mtry >= n_features else
                     np.sort(rng.choice(n_features, mtry, replace=False)))
            search = _split_by_bins if idx.size > _BIG_NODE else _split_by_sort
            split = search(cols, min_leaf, idx, y, feats, total)
        if split is None:
            value.append(total / idx.size)
            continue
        value.append(0.0)
        feat, lo, hi = split
        v = cols.values[feat]
        go_left = cols.ranks[feat, idx] <= lo
        feature[node] = feat
        threshold[node] = _threshold(v[lo], v[hi])
        # the left child is popped first, so nodes number in preorder
        stack.append((idx[~go_left], depth + 1, node, right))
        stack.append((idx[go_left], depth + 1, node, left))
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def _split_by_bins(cols: _Columns, min_leaf, idx, y, feats, total):
    n = idx.size
    # each candidate's ranks shifted past the previous candidates'
    # values, so one bincount covers them all, feature by feature
    sizes = cols.n_values[feats]
    first = np.cumsum(sizes) - sizes
    ranks = cols.ranks[feats]

    def per_value(rows):
        bins = ranks.take(rows, axis=1) + first[:, None]
        return np.bincount(bins.ravel(), minlength=int(sizes.sum()))

    counts = per_value(idx)
    present = np.flatnonzero(counts > 0)
    k = np.cumsum(counts[present])
    c1 = np.cumsum(per_value(idx[y == 1.0])[present]).astype(np.float64)
    # every candidate holds all n rows, so candidate s's counts start
    # after s * n rows and s * total targets
    slot = (k - 1) // n
    k -= slot * n
    c1 -= slot * total
    # the cut after a candidate's largest value has n - k == 0 and is
    # never valid
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = _gains(k, c1, n, total, min_leaf, True)
    pos = int(np.argmax(gain))  # first max: lowest feature, then value
    if not gain[pos] > 0.0:
        return None
    s = slot[pos]
    return (int(feats[s]), int(present[pos] - first[s]),
            int(present[pos + 1] - first[s]))


def _split_by_sort(cols: _Columns, min_leaf, idx, y, feats, total):
    n = idx.size
    block = cols.ranks[feats[:, None], idx]  # (mtry, n)
    order = np.argsort(block, axis=1, kind="stable")
    sr = np.take_along_axis(block, order, axis=1)
    c1 = np.cumsum(y[order], axis=1)[:, :-1]
    k = np.arange(1, n)
    gain = _gains(k, c1, n, total, min_leaf, sr[:, :-1] < sr[:, 1:])
    # first max: lowest feature, then lowest value
    j, p = divmod(int(np.argmax(gain)), n - 1)
    if not gain[j, p] > 0.0:
        return None
    return int(feats[j]), int(sr[j, p]), int(sr[j, p + 1])


def train_forest(X: np.ndarray, y: np.ndarray, params, seed_key) -> ForestState:
    n, n_features = X.shape
    # features_per_split is None or >= 1
    mtry = min(params.features_per_split or math.ceil(n_features / 3),
               n_features)
    cols = _Columns.of(X)
    trees = []
    for i in range(params.n_trees):
        rng = rng_from(*seed_key, i)
        if params.bootstrap:
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)
        trees.append(_grow_tree(cols, y, idx, params.max_depth,
                                params.min_leaf, mtry, rng))
    return ForestState(trees=tuple(trees))


def tree_apply(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value for every row, by vectorized traversal: one step per
    tree level, each reading the rows still inside the tree with one
    gather from the raveled matrix and their next nodes with one gather
    from the interleaved child table.  Rows drop out as they reach a
    leaf; a NaN fails the ``<=`` test and goes right."""
    # node i's left child at 2 * i, its right child at 2 * i + 1
    children = np.stack((tree.left, tree.right), axis=1).reshape(-1)
    n_features = X.shape[1]
    flat = np.ascontiguousarray(X).reshape(-1)
    leaf = np.zeros(X.shape[0], dtype=np.int32)
    rows = np.arange(X.shape[0])
    base = rows * n_features
    node = np.zeros_like(leaf)
    while rows.size:
        feat = tree.feature[node]
        inner = feat >= 0
        if not inner.all():
            leaf[rows[~inner]] = node[~inner]
            rows, base, node, feat = (
                rows[inner], base[inner], node[inner], feat[inner]
            )
        go_left = flat.take(base + feat) <= tree.threshold[node]
        node = children.take(2 * node + 1 - go_left)
    return tree.value[leaf]


def forest_predict(state: ForestState, X: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[0])
    for tree in state.trees:
        out += tree_apply(tree, X)
    return out / len(state.trees)
