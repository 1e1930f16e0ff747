"""The forest's split search against the recursive per-feature sort,
and its tree walk against the masked one.

``train_forest`` searches rank bins on nodes above ``forest._BIG_NODE``
rows and sorts the candidate block on the rest; both must grow exactly
the trees of ``_oracles.PerFeatureSortTreeBuilder``.  ``tree_apply``
must reach the leaves of ``_oracles.masked_tree_apply``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhazard.errors import InvalidValue
from flowhazard.flowdata import FlowDataset, FlowSchema, binary_dataset
from flowhazard.models import RandomForestParams
from flowhazard.models import forest
from flowhazard.models.forest import train_forest, tree_apply

from _oracles import masked_tree_apply, per_feature_sort_train_forest
from _worlds import planted_world

# Values with many ties, both zeros, the smallest subnormal and large
# magnitudes; no two are adjacent floats, so every midpoint lies strictly
# between its two values.
POOL = (0.0, -0.0, 5e-324, 0.5, 1.0, -1.0, 2.5, 3.0, 1e300, -1e300)
TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def same_bytes(a, b) -> bool:
    """Equal trees, compared as raw bytes (NaN and -0.0 included)."""
    return len(a.trees) == len(b.trees) and all(
        getattr(s, f).dtype == getattr(t, f).dtype
        and getattr(s, f).tobytes() == getattr(t, f).tobytes()
        for s, t in zip(a.trees, b.trees)
        for f in TREE_FIELDS
    )


@st.composite
def designs(draw):
    n = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 4))
    columns = []
    for _ in range(n_features):
        if draw(st.booleans()):
            col = draw(st.lists(st.sampled_from(POOL), min_size=n,
                                max_size=n))
        else:
            col = [draw(st.sampled_from(POOL))] * n  # constant column
        columns.append(col)
    X = np.array(columns, dtype=np.float64).T
    y = np.array(
        draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    )
    params = RandomForestParams(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.none() | st.integers(0, 5)),
        min_leaf=draw(st.integers(1, 5)),
        features_per_split=draw(st.integers(1, n_features + 1)),
        bootstrap=draw(st.booleans()),
    )
    seed = draw(st.integers(0, 2**16))
    return X, y, params, seed


@settings(max_examples=150)
@given(designs())
def test_trees_equal_per_feature_sort_oracle(design):
    X, y, params, seed = design
    expected = per_feature_sort_train_forest(X, y, params, (seed,))
    for big_node in (0, 8, forest._BIG_NODE):
        with mock.patch.object(forest, "_BIG_NODE", big_node):
            got = train_forest(X, y, params, (seed,))
        assert same_bytes(got, expected), big_node


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_apply_equals_masked_walk(seed):
    benign, attack, post = planted_world(seed, n_pre=400, n_post=600, q=0.1)
    pre = binary_dataset(benign, attack, seed=seed)
    deep = train_forest(pre.features, pre.targets,
                        RandomForestParams(n_trees=4, min_leaf=1), (seed,))
    # one class only: every tree is a single leaf
    stump = train_forest(pre.features, np.ones(len(pre)),
                         RandomForestParams(n_trees=1), (seed,))
    X = post.features
    # raw rows, as predict_many takes them: a NaN fails every ``<=`` test
    # and goes right; -inf goes left and +inf right of any threshold
    non_finite = X.copy()
    cells = np.random.default_rng(seed).random(X.shape)
    non_finite[cells < 0.1] = np.nan
    non_finite[(cells >= 0.1) & (cells < 0.2)] = np.inf
    non_finite[(cells >= 0.2) & (cells < 0.3)] = -np.inf
    non_finite[:3] = [np.nan], [np.inf], [-np.inf]
    inputs = {
        "post": X,
        "one_row": X[:1],
        "no_rows": X[:0],
        "one_leaf": np.repeat(X[:1], 50, axis=0),
        "column_major": np.asfortranarray(X),
        "non_finite": non_finite,
    }
    for tree in deep.trees + stump.trees:
        for name, rows in inputs.items():
            want = masked_tree_apply(tree, rows)
            assert tree_apply(tree, rows).tobytes() == want.tobytes(), name


def test_alternating_targets_grow_a_deep_tree():
    # one cut per row pair: depth about 3,000, past the recursion limit
    x = np.arange(3000.0)[:, None]
    y = (np.arange(3000) % 2).astype(np.float64)
    params = RandomForestParams(n_trees=1, min_leaf=1, bootstrap=False)
    (tree,) = train_forest(x, y, params, (0,)).trees
    assert tree.feature.size == 5999
    assert np.array_equal(tree_apply(tree, x), y)


@pytest.mark.parametrize("lo, hi", [(-5e-324, 0.0), (1e308, 1.5e308)],
                         ids=["adjacent_floats", "overflowing_sum"])
def test_threshold_separates_its_two_values(lo, hi):
    # the midpoint rounds onto ``hi`` or overflows; the threshold falls
    # back to ``lo`` so that neither child is empty
    x = np.array([[lo], [hi]])
    y = np.array([0.0, 1.0])
    params = RandomForestParams(n_trees=1, min_leaf=1, bootstrap=False)
    (tree,) = train_forest(x, y, params, (0,)).trees
    assert tree.threshold[0] == lo
    assert np.array_equal(tree_apply(tree, x), y)


def test_targets_other_than_zero_or_one_are_rejected():
    schema = FlowSchema(("a",))
    with pytest.raises(InvalidValue, match="0.0 or 1.0"):
        FlowDataset(schema, np.zeros((2, 1)), ("x", "y"),
                    targets=np.array([0.0, 0.5]))
