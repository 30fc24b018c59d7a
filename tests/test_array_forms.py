"""missfit.core.unique_patterns, expand_matrix and the adaptive predicts
equal the reference loops in tests/oracles.py bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from missfit.adaptive import (FULLY_ADAPTIVE, AdaptiveModel, PartitionTree,
                              TreeNode, expand_matrix)
from missfit.core import unique_patterns
from missfit.elasticnet import LinearFit

# values a caller may leave at masked slots
FILLS = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.0, 7.5])


def batch(seed, n, d, p_miss):
    """Observed values of both signs and many magnitudes; masked slots hold
    FILLS. Returns the rng for any further draws."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    M = (rng.random((n, d)) < p_miss).astype(np.int8)
    X = np.where(M == 1, rng.choice(FILLS, size=(n, d)), X)
    return X, M, rng


def random_fit(rng, d):
    return LinearFit(float(rng.normal() * 10), rng.normal(size=d), [])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


batches = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 60),
               d=st.integers(1, 40), p_miss=st.sampled_from([0.0, 0.1, 0.5, 0.9]))


@settings(max_examples=150, deadline=None)
@given(**batches)
def test_unique_patterns_matches_dict_grouping(seed, n, d, p_miss):
    _, M, _ = batch(seed, n, d, p_miss)
    got = [(p, rows.tolist()) for p, rows in unique_patterns(M)]
    assert got == oracles.unique_patterns(M)
    assert all(type(v) is int for p, _ in got for v in p)


# each mode name as the oracle's (kind, degree)
ORACLE_FORMS = {"static": ("static", 1),
                "affine_intercept": ("affine_intercept", 1),
                "affine": ("monomials", 1), "polynomial1": ("monomials", 1),
                "polynomial2": ("monomials", 2), "polynomial3": ("monomials", 3)}


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(list(ORACLE_FORMS)),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       d=st.integers(1, 9), p_miss=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_expand_matrix_matches_per_column_loop(mode, seed, n, d, p_miss):
    kind, degree = ORACLE_FORMS[mode]
    if degree > d:
        return
    X, M, _ = batch(seed, n, d, p_miss)
    want = oracles.expand_matrix(X, M, kind, degree)
    assert same_bits(expand_matrix(X, M, mode), want)


@settings(max_examples=150, deadline=None)
@given(**batches)
def test_fully_adaptive_predict_matches_per_row_loop(seed, n, d, p_miss):
    X, M, rng = batch(seed, n, d, p_miss)
    # fits for about half the batch's patterns plus patterns it never shows;
    # the rest of the rows take the fallback
    seen = [p for p, _ in unique_patterns(M) if rng.random() < 0.5]
    unseen = [tuple(rng.integers(0, 2, size=d).tolist()) for _ in range(3)]
    fits = {p: random_fit(rng, d) for p in seen + unseen}
    model = AdaptiveModel(FULLY_ADAPTIVE, d, None, fits, random_fit(rng, d))
    want = oracles.fully_adaptive_predict(model, X, M)
    assert same_bits(model.predict_matrix(X, M), want)


def random_tree(rng, d, depth):
    node = TreeNode(random_fit(rng, d), n_rows=1)
    if depth > 0 and rng.random() < 0.8:
        node.split_feature = int(rng.integers(0, d))
        node.left = random_tree(rng, d, depth - 1)
        node.right = random_tree(rng, d, depth - 1)
    return node


@settings(max_examples=150, deadline=None)
@given(**batches, depth=st.integers(0, 4))
def test_partition_tree_predict_matches_route_and_masked_dot(seed, n, d,
                                                              p_miss, depth):
    X, M, rng = batch(seed, n, d, p_miss)
    tree = PartitionTree(random_tree(rng, d, depth), d)
    want = oracles.partition_tree_predict(tree, X, M)
    assert same_bits(tree.predict_matrix(X, M), want)


def test_predicts_reject_mask_of_another_shape():
    X, M, rng = batch(0, 5, 3, 0.5)
    model = AdaptiveModel(FULLY_ADAPTIVE, 3, None, {}, random_fit(rng, 3))
    tree = PartitionTree(random_tree(rng, 3, 2), 3)
    for predict in (model.predict, tree.predict):
        for bad in (M[:4], M[:, :2], M[0]):
            with pytest.raises(ValueError):
                predict(X, bad)
