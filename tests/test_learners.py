import itertools
import json
import tracemalloc
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from missfit import learners
from missfit.core import MaskedDataset
from missfit.joint import joint_fit, tree_contract
from missfit.learners import (Forest, MiaTree, TreeParams, fit_cart_mia,
                              fit_forest, forest_from_json, forest_to_json,
                              mean_impute, tree_from_json, tree_to_json)


def random_dataset(seed, n=200, d=4, p_miss=0.3, binary=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < p_miss).astype(int)
    signal = np.where(M[:, 0] == 1, 2.0, X[:, 0]) + 0.5 * X[:, 1] * (1 - M[:, 1])
    y = signal + 0.3 * rng.normal(size=n)
    return MaskedDataset(X, M, (y > 0).astype(float) if binary else y)


# a 0/1-target data case next to real targets, under the ids the two tasks had
BINARY = pytest.mark.parametrize("binary", [False, True],
                                 ids=["regression", "classification"])


def assert_same_split(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[:4] == want[:4]  # impurity, feature, threshold, side
    assert np.array_equal(got[4], want[4]) and np.array_equal(got[5], want[5])


@st.composite
def split_data(draw, labels=None):
    """Data built to hit the sweep's rounding and tie cases: (X, M, y,
    min_leaf, rng) with n >= 2 * min_leaf rows, rng to draw nodes. 0/1
    targets (always, if `labels`) tie exactly everywhere."""
    min_leaf = draw(st.integers(1, 12))
    n = 2 * min_leaf if draw(st.booleans()) else draw(st.integers(2 * min_leaf, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = rng.normal(size=draw(st.integers(1, n)))  # few levels: repeats
    X = rng.choice(levels, size=(n, d))
    if draw(st.booleans()):  # adjacent floats: midpoints round onto a value
        up = np.nextafter(1.0, 2.0)
        X[:, 0] = rng.choice([np.nextafter(1.0, 0.0), 1.0, up,
                              np.nextafter(up, 2.0)], size=n)
    if draw(st.booleans()):  # huge values: midpoints overflow to +-inf
        X[:, -1] = rng.choice([-1.6e308, -1.5e308, 0.0, 1.5e308, 1.6e308], size=n)
    M = (rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 0.7]))).astype(np.int8)
    if draw(st.booleans()):
        M[:, 0] = 1  # all missing
    if draw(st.booleans()):
        M[:, -1] = 0  # no missing rows: left and right sides tie
    if d > 1 and draw(st.booleans()):  # duplicate or mirrored column: ties
        X[:, 1], M[:, 1] = X[:, 0] * draw(st.sampled_from([1.0, -1.0])), M[:, 0]
    X[M == 1] = np.nan
    if labels or labels is None and draw(st.booleans()):
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = rng.normal(size=n) + draw(st.sampled_from([0.0, 1e6]))
        if draw(st.booleans()):  # few levels: distinct partitions tie exactly
            y = np.round(y)
    return X, M, y, min_leaf, rng


@st.composite
def split_cases(draw):
    """One node: every row or a bootstrap draw of them, some features."""
    X, M, y, min_leaf, rng = draw(split_data())
    n, d = X.shape
    rows = (rng.integers(0, n, size=n) if draw(st.booleans())
            else np.arange(n))
    features = np.sort(rng.choice(d, draw(st.integers(1, d)), replace=False))
    return X, M, y, rows, features, min_leaf


@st.composite
def split_batches(draw):
    """Nodes of one dataset that share their feature count and differ in
    rows: 2 * min_leaf bootstrap rows; 2 * min_leaf - 1 distinct rows, where
    no candidate is valid; the rows that miss a node's first feature; and a
    few random subsets and bootstrap draws, in a random order."""
    X, M, y, min_leaf, rng = draw(split_data())
    n, d = X.shape
    F = draw(st.integers(1, d))

    def features():
        return np.sort(rng.choice(d, F, replace=False))

    nodes = [(rng.integers(0, n, size=2 * min_leaf), features()),
             (rng.choice(n, 2 * min_leaf - 1, replace=False), features())]
    f = features()
    if np.any(missing := M[:, f[0]] == 1):
        nodes.append((np.flatnonzero(missing), f))
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, n))
        rows = (rng.integers(0, n, size=size) if draw(st.booleans())
                else np.sort(rng.choice(n, size, replace=False)))
        nodes.append((rows, features()))
    return X, M, y, draw(st.permutations(nodes)), min_leaf


def trap_batch():
    """A node of three distinct values at min_leaf 2, with thresholds but no
    valid candidate (least score inf), batched with a node that splits."""
    X = np.arange(12.0)[:, None]
    y = (X[:, 0] > 5).astype(float)
    nodes = [(np.arange(3), np.arange(1)), (np.arange(12), np.arange(1))]
    return X, np.zeros((12, 1), dtype=np.int8), y, nodes, 2


def forest_root_chunk():
    """The search chunk of a forest's roots on 440 training rows: 8
    bootstrap nodes over 4 of 10 features, 30% missing completely at
    random, min_leaf 5."""
    rng = np.random.default_rng(0)
    n, d = 440, 10
    X, M = rng.normal(size=(n, d)), (rng.random((n, d)) < 0.3).astype(np.int8)
    X[M == 1] = np.nan
    y = rng.normal(size=n)
    nodes = [(rng.integers(0, n, size=n), np.sort(rng.choice(d, 4, replace=False)))
             for _ in range(8)]
    return X, M, y, nodes, 5


def search_one(X, M, y, rows, features, min_leaf):
    """_best_splits on a batch of one node."""
    return learners._best_splits(X, M, y, [(rows, features)], min_leaf)[0]


def mirrored_case(seed, n=40):
    """A node whose feature 1 is feature 0 negated, with 0/1 targets: each
    cut of one feature ties exactly with its mirror image in the other, and
    the sweep's sums, taken in opposite orders, tell the two apart by
    rounding alone."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n) < 0.3, np.nan, rng.choice(rng.normal(size=8), n))
    X = np.stack([x, -x], axis=1)
    M = np.isnan(X).astype(np.int8)
    y = rng.integers(0, 2, n).astype(float)
    return X, M, y, np.arange(n), np.arange(2), 3


def assert_same_tree(a, b):
    assert (a.feature, a.threshold, a.missing_side, a.prediction, a.n_rows) == \
        (b.feature, b.threshold, b.missing_side, b.prediction, b.n_rows)
    if not a.is_leaf():
        assert_same_tree(a.left, b.left)
        assert_same_tree(a.right, b.right)


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 2000), kind=st.sampled_from(["normal", "labels", "repeated"]),
       seed=st.integers(0, 2 ** 32 - 1), decades=st.integers(0, 12),
       value=st.floats(-1e300, 1e300))
def test_node_mean_is_numpy_mean(n, kind, seed, decades, value):
    # _grow predicts a node's sum over its count, and _impurity_sums centres
    # on it: np.mean to the bit
    rng = np.random.default_rng(seed)
    if kind == "normal":  # magnitudes over `decades` decades
        y = rng.normal(size=n) * 10.0 ** rng.integers(-decades // 2, decades // 2 + 1, n)
    elif kind == "labels":
        y = (rng.random(n) < rng.random()).astype(float)
    else:
        y = rng.choice([value, value / 3, 1.0], n, p=[0.8, 0.1, 0.1])
    assert (y.sum() / len(y)).tobytes() == np.mean(y).tobytes()


class TestSplitSearch:
    @settings(deadline=None, max_examples=300)
    @given(split_cases())
    @example(mirrored_case(4))
    @example(mirrored_case(8))  # the shortlist's tolerance is needed here
    def test_matches_exhaustive_oracle(self, case):
        assert_same_split(search_one(*case), oracles.mia_best_split(*case))

    @settings(deadline=None, max_examples=150)
    @given(split_batches())
    @example(trap_batch())
    @example(forest_root_chunk())
    def test_batch_matches_oracle_per_node(self, batch):
        X, M, y, nodes, min_leaf = batch
        got = learners._best_splits(*batch)
        assert len(got) == len(nodes)
        for split, (rows, features) in zip(got, nodes):
            assert_same_split(split, oracles.mia_best_split(
                X, M, y, rows, features, min_leaf))

    def test_working_set_per_lane_slot(self):
        # the arrays live at once while candidates are scored, against the
        # B * F * (N + 1) lane slots that _grow's chunking rule counts
        chunk = forest_root_chunk()
        learners._best_splits(*chunk)  # lazy numpy set-up stays out of the peak
        tracemalloc.start()
        try:
            learners._best_splits(*chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes = chunk[3]
        slots = len(nodes) * len(nodes[0][1]) * (max(len(r) for r, _ in nodes) + 1)
        assert peak <= 125 * slots

    @BINARY
    def test_mask_only_signal_takes_the_pure_split(self, binary):
        # y follows x0's mask bit alone; the observed values are noise, so
        # every threshold, with the missing rows on either side, scores worse
        rng = np.random.default_rng(3)
        X, M = rng.normal(size=(40, 3)), np.zeros((40, 3), dtype=np.int8)
        M[::3, 0] = 1
        y = M[:, 0] + (0.0 if binary else 0.01 * rng.normal(size=40))
        case = (X, M, y, np.arange(40), np.arange(3), 3)
        got = search_one(*case)
        assert (got[1], got[2], got[3]) == (0, None, "left")
        assert np.array_equal(got[4], np.arange(0, 40, 3))
        assert_same_split(got, oracles.mia_best_split(*case))

    def test_a_fully_observed_lane_rescores_one_side(self, monkeypatch):
        # one clear best threshold; with no missing row its missing-right
        # copy has the same children and loses the tie, so it is not rescored
        X, M = np.arange(10.0)[:, None], np.zeros((10, 1), dtype=np.int8)
        y = (X[:, 0] > 4.5).astype(float)
        calls, exact = [], learners._impurity_sums
        monkeypatch.setattr(learners, "_impurity_sums",
                            lambda v: calls.append(len(v)) or exact(v))
        case = (X, M, y, np.arange(10), np.arange(1), 1)
        got = search_one(*case)
        assert calls == [5, 5]
        assert (got[0], got[2], got[3]) == (0.0, 4.5, "left")
        assert_same_split(got, oracles.mia_best_split(*case))

    @staticmethod
    def record_batches(monkeypatch, group_slots):
        """Cap the chunks at group_slots; (nodes, F, most rows) per search."""
        batches, search = [], learners._best_splits
        monkeypatch.setattr(learners, "_best_splits", lambda *a: batches.append(
            (len(a[3]), len(a[3][0][1]), max(len(r) for r, _ in a[3]))) or search(*a))
        monkeypatch.setattr(learners._Routing, "GROUP_SLOTS", group_slots)
        return batches

    @staticmethod
    def assert_batched_within(batches, group_slots):
        """Some search took several nodes, and each chunk kept its cap."""
        assert max(k for k, _, _ in batches) > 1
        assert all(k == 1 or k * F * (N + 1) <= group_slots for k, F, N in batches)

    @BINARY
    def test_forest_trees_match_oracle_build(self, binary, monkeypatch):
        # trees grown together against oracles.mia_build, one node at a time
        ds = random_dataset(18, n=150, d=5, binary=binary)
        ds = MaskedDataset(np.round(ds.X, 1), ds.M, ds.y)  # repeated values
        # mtry 5 = d draws no features; 600 slots make small chunks
        for mtry, group_slots in itertools.product([2, 5], [65_536, 600]):
            batches = self.record_batches(monkeypatch, group_slots)
            params = TreeParams(n_trees=4, mtry=mtry, max_depth=5, min_leaf=3)
            forest = fit_forest(ds, params)  # bootstrap rows: repeats
            for tree, root in zip(forest.trees, oracles.mia_forest_roots(ds, params),
                                  strict=True):
                assert_same_tree(tree.root, root)
            self.assert_batched_within(batches, group_slots)

    @BINARY
    def test_cart_tree_matches_oracle_build(self, binary, monkeypatch):
        ds = random_dataset(18, n=150, d=5, binary=binary)
        ds = MaskedDataset(np.round(ds.X, 1), ds.M, ds.y)
        params = TreeParams(max_depth=6, min_leaf=3)
        want = oracles.mia_build(ds.X, ds.M, ds.y, np.arange(ds.n), 0, params)
        for group_slots in [65_536, 600]:
            batches = self.record_batches(monkeypatch, group_slots)
            assert_same_tree(fit_cart_mia(ds, params).root, want)
            self.assert_batched_within(batches, group_slots)


def gini(y, rows):
    """A node's total Gini n * 2p(1 - p), exactly, from its class counts."""
    ones = int(y[rows].sum())
    return Fraction(2 * ones * (len(rows) - ones), len(rows))


def candidate_ginis(X, M, y, rows, min_leaf):
    """The exact Gini of each candidate split of a node with min_leaf rows on
    either side: every feature's pure split and its thresholds at midpoints,
    with the missing rows on either side."""
    for j in range(X.shape[1]):
        miss, obs = rows[M[rows, j] == 1], rows[M[rows, j] == 0]
        parts, vals = [(miss, obs)], np.unique(X[obs, j])
        with np.errstate(over="ignore"):  # midpoints of huge values: +-inf
            thresholds = (vals[:-1] + vals[1:]) / 2.0
        for thr in thresholds:
            lo, hi = obs[X[obs, j] <= thr], obs[X[obs, j] > thr]
            parts += [(np.concatenate([lo, miss]), hi), (lo, np.concatenate([hi, miss]))]
        for left, right in parts:
            if min(len(left), len(right)) >= min_leaf:
                yield gini(y, left) + gini(y, right)


def split_nodes(node, X, M, rows):
    """(split node, its left child's rows, its right child's), the rows
    routed from `rows` at the root."""
    if node.is_leaf():
        return
    j = node.feature
    miss = M[rows, j] == 1
    left = miss if node.threshold is None else np.where(
        miss, node.missing_side == "left", X[rows, j] <= node.threshold)
    yield node, rows[left], rows[~left]
    yield from split_nodes(node.left, X, M, rows[left])
    yield from split_nodes(node.right, X, M, rows[~left])


@settings(deadline=None, max_examples=150)
@given(split_data(labels=True), st.integers(1, 4))
def test_cart_splits_have_the_least_gini(data, max_depth):
    # on 0/1 targets squared error is half the Gini, so the least-squares
    # search picks a least-Gini split, exact ties included
    X, M, y, min_leaf, _ = data
    tree = fit_cart_mia(MaskedDataset(X, M, y),
                        TreeParams(max_depth=max_depth, min_leaf=min_leaf))
    for node, left, right in split_nodes(tree.root, X, M, np.arange(len(y))):
        assert (node.left.n_rows, node.right.n_rows) == (len(left), len(right))
        assert gini(y, left) + gini(y, right) == min(candidate_ginis(
            X, M, y, np.concatenate([left, right]), min_leaf))


class TestParams:
    def test_defaults(self):
        p = TreeParams()
        assert (p.max_depth, p.min_leaf, p.n_trees) == (6, 5, 100)

    def test_invalid(self):
        # a fit reads no task: on 0/1 targets squared error is half the Gini
        assert [f.name for f in fields(TreeParams)] == [
            "max_depth", "min_leaf", "n_trees", "mtry", "seed"]
        with pytest.raises(TypeError):
            TreeParams(task="classification")

    @pytest.mark.parametrize("field, value", [
        ("max_depth", 0), ("max_depth", 2.5), ("max_depth", True),
        ("n_trees", 0), ("mtry", 0), ("mtry", -1), ("mtry", 0.5),
        ("seed", -1)])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            TreeParams(**{field: value})


class TestCart:
    def test_step_function_recovered(self):
        # y = 1[x1 > 0], fully observed: a depth-1 tree nails it
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 2))
        M = np.zeros((300, 2), dtype=int)
        y = (X[:, 0] > 0).astype(float)
        tree = fit_cart_mia(MaskedDataset(X, M, y), TreeParams(max_depth=1))
        assert tree.root.feature == 0
        assert abs(tree.root.threshold) < 0.1
        preds = tree.predict(X, M)
        assert np.mean((preds > 0.5) == (y > 0.5)) > 0.99

    def test_pure_missingness_split_chosen(self):
        # target depends only on whether x1 is missing
        rng = np.random.default_rng(1)
        n = 200
        X = rng.normal(size=(n, 2))
        M = np.zeros((n, 2), dtype=int)
        M[: n // 2, 0] = 1
        y = np.where(M[:, 0] == 1, 5.0, -5.0) + 0.01 * rng.normal(size=n)
        tree = fit_cart_mia(MaskedDataset(X, M, y), TreeParams(max_depth=1))
        assert tree.root.feature == 0
        assert tree.root.threshold is None
        assert tree.root.left.prediction == pytest.approx(5.0, abs=0.1)
        assert tree.root.right.prediction == pytest.approx(-5.0, abs=0.1)

    def test_root_split_matches_bruteforce(self):
        ds = random_dataset(2, n=80, d=3)
        tree = fit_cart_mia(ds, TreeParams(max_depth=1, min_leaf=5))

        def sse(idx):
            return float(np.sum((ds.y[idx] - ds.y[idx].mean()) ** 2)) if len(idx) else 0.0

        best = None
        rows = np.arange(ds.n)
        for j in range(ds.d):
            miss = rows[ds.M[:, j] == 1]
            obs = rows[ds.M[:, j] == 0]
            cands = []
            if len(miss) >= 5 and len(obs) >= 5:
                cands.append((sse(miss) + sse(obs), j, None, "left"))
            vals = np.unique(ds.X[obs, j])
            for thr in (vals[:-1] + vals[1:]) / 2:
                lo = obs[ds.X[obs, j] <= thr]
                ro = obs[ds.X[obs, j] > thr]
                for side in ("left", "right"):
                    left = np.concatenate([lo, miss]) if side == "left" else lo
                    right = ro if side == "left" else np.concatenate([ro, miss])
                    if len(left) >= 5 and len(right) >= 5:
                        cands.append((sse(left) + sse(right), j, thr, side))
            for c in cands:
                if best is None or c[0] < best[0] - 1e-12:
                    best = c
        assert tree.root.feature == best[1]
        if best[2] is None:
            assert tree.root.threshold is None
        else:
            assert tree.root.threshold == pytest.approx(best[2])
            assert tree.root.missing_side == best[3]

    def test_min_leaf_respected(self):
        ds = random_dataset(3, n=150)
        tree = fit_cart_mia(ds, TreeParams(max_depth=6, min_leaf=20))

        def walk(node):
            if node.is_leaf():
                assert node.n_rows >= 20
            else:
                walk(node.left)
                walk(node.right)

        walk(tree.root)

    def test_max_depth_respected(self):
        ds = random_dataset(4, n=300)
        tree = fit_cart_mia(ds, TreeParams(max_depth=2, min_leaf=2))

        def depth(node):
            if node.is_leaf():
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) <= 2

    def test_constant_target_is_leaf(self):
        ds = random_dataset(5, n=50)
        tree = fit_cart_mia(MaskedDataset(ds.X, ds.M, np.ones(50)),
                            TreeParams())
        assert tree.root.is_leaf()
        assert tree.root.prediction == 1.0

    def test_too_few_rows(self):
        ds = random_dataset(6, n=5)
        with pytest.raises(ValueError):
            fit_cart_mia(ds, TreeParams(min_leaf=5))

    def test_no_feature_gives_a_leaf(self):
        ds = MaskedDataset(np.empty((40, 0)), np.empty((40, 0)), np.arange(40.0))
        tree = fit_cart_mia(ds, TreeParams())
        assert tree.root.is_leaf() and tree.root.prediction == 19.5

    def test_unseen_pattern_predicts(self):
        ds = random_dataset(7, n=200, d=3, p_miss=0.2)
        tree = fit_cart_mia(ds, TreeParams())
        pred = tree.predict(np.full((1, 3), np.nan), np.ones((1, 3), dtype=int))
        assert np.isfinite(pred[0])

    def test_invariant_to_masked_values(self):
        ds = random_dataset(8)
        tree = fit_cart_mia(ds, TreeParams())
        X2 = ds.X.copy()
        X2[ds.M == 1] = 1e9
        assert np.array_equal(tree.predict(ds.X, ds.M), tree.predict(X2, ds.M))

    def test_classification_gini(self):
        # 0/1 targets: the squared-error search is the Gini search
        ds = random_dataset(9, n=300, binary=True)
        tree = fit_cart_mia(ds, TreeParams(max_depth=4))
        preds = tree.predict(ds.X, ds.M)
        assert np.all((preds >= 0) & (preds <= 1))
        acc = np.mean((preds > 0.5) == (ds.y > 0.5))
        assert acc > 0.8


class TestForest:
    def test_deterministic_given_seed(self):
        ds = random_dataset(11, n=120)
        a = fit_forest(ds, TreeParams(n_trees=10, seed=5))
        b = fit_forest(ds, TreeParams(n_trees=10, seed=5))
        assert np.array_equal(a.predict(ds.X, ds.M), b.predict(ds.X, ds.M))

    def test_seed_changes_forest(self):
        ds = random_dataset(12, n=120)
        a = fit_forest(ds, TreeParams(n_trees=10, seed=5))
        b = fit_forest(ds, TreeParams(n_trees=10, seed=6))
        assert not np.array_equal(a.predict(ds.X, ds.M), b.predict(ds.X, ds.M))

    def test_empty_dataset_rejected(self):
        # its trees would hold 0 rows, which no model file may; the dataset
        # refuses them before any fit
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            MaskedDataset(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))

    def test_default_mtry_sqrt_d(self):
        ds = random_dataset(13, n=100, d=9)
        forest = fit_forest(ds, TreeParams(n_trees=3))
        assert len(forest.trees) == 3
        assert forest.d == 9

    def test_averaging_reduces_variance(self):
        ds = random_dataset(14, n=300)
        single = fit_forest(ds, TreeParams(n_trees=1, seed=0, max_depth=8))
        many = fit_forest(ds, TreeParams(n_trees=40, seed=0, max_depth=8))
        test = random_dataset(15, n=300)
        err1 = np.mean((test.y - single.predict(test.X, test.M)) ** 2)
        err40 = np.mean((test.y - many.predict(test.X, test.M)) ** 2)
        assert err40 < err1


def routing_dataset(seed, n, d, depth, all_missing, binary):
    """Rows whose targets reward every split kind: column 0 with its missing
    rows high (missing right), column 1 with them low (missing left), column 2
    by its mask alone (pure). Depth 0 is a constant target: a lone leaf."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < 0.3).astype(np.int8)
    if all_missing:
        M[:, -1] = 1
    signal = (np.where(M[:, 0] == 1, 2.0, X[:, 0])
              + np.where(M[:, 1] == 1, -2.0, X[:, 1]) + 1.5 * M[:, 2])
    y = signal + 0.3 * rng.normal(size=n)
    if binary:
        y = (y > 0).astype(float)
    if depth == 0:
        y = np.full(n, y[0])
    return MaskedDataset(X, M, y)


def routing_batch(rng, rows, d):
    """A batch with NaN, +-inf and 1e300 at masked slots, and NaN and +-inf
    at a few observed ones."""
    X = rng.normal(size=(rows, d))
    M = rng.random((rows, d)) < 0.4
    X[M] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=int(M.sum()))
    odd = ~M & (rng.random((rows, d)) < 0.05)
    X[odd] = rng.choice([np.nan, np.inf, -np.inf], size=int(odd.sum()))
    return X, M.astype(rng.choice([np.int8, bool, float]))


def split_kinds(root):
    stack, kinds = [root], set()
    while stack:
        node = stack.pop()
        if not node.is_leaf():
            kinds.add("pure" if node.threshold is None else node.missing_side)
            stack += (node.left, node.right)
    return kinds


def forest_oracle(forest, X, M):
    return np.stack([oracles.mia_tree_predict(t, X, M)
                     for t in forest.trees]).mean(axis=0)


class TestRouting:
    """Flat routing against the per-node walk of tests/oracles.py."""

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 10),
           min_leaf=st.integers(1, 5), all_missing=st.booleans(),
           binary=st.booleans(),
           n_trees=st.sampled_from([None, 1, 3]),
           rows=st.sampled_from([0, 1, 16, 500]))
    def test_matches_per_node_walk(self, seed, depth, min_leaf, all_missing,
                                   binary, n_trees, rows):
        ds = routing_dataset(seed, 120, 4, depth, all_missing, binary)
        params = TreeParams(max_depth=max(depth, 1), min_leaf=min_leaf,
                            n_trees=n_trees or 1, seed=seed % 1000)
        X, M = routing_batch(np.random.default_rng(seed), rows, 4)
        if n_trees is None:
            tree = fit_cart_mia(ds, params)
            got, want = tree.predict(X, M), oracles.mia_tree_predict(tree, X, M)
        else:
            forest = fit_forest(ds, params)
            got, want = forest.predict(X, M), forest_oracle(forest, X, M)
        assert got.shape == (rows,)
        assert got.tobytes() == want.tobytes()

    def test_cases_reach_every_split_kind(self):
        ds = routing_dataset(0, 120, 4, 6, True, False)
        tree = fit_cart_mia(ds, TreeParams(max_depth=6, min_leaf=2))
        assert split_kinds(tree.root) == {"pure", "left", "right"}
        assert tree._routing.depth == 6

    @pytest.mark.parametrize("rows", [4095, 4096, 4097])
    def test_group_cap_keeps_bytes(self, rows, monkeypatch):
        """16 trees x 4096 rows fill one group exactly; one more row makes
        two groups."""
        assert 16 * 4096 == learners._Routing.GROUP_SLOTS
        forest = fit_forest(random_dataset(20, n=100), TreeParams(n_trees=16,
                                                                  max_depth=4))
        X, M = routing_batch(np.random.default_rng(rows), rows, 4)
        got = forest.predict(X, M)
        monkeypatch.setattr(learners._Routing, "GROUP_SLOTS", 16 * rows)
        assert got.tobytes() == forest.predict(X, M).tobytes()

    def test_forest_of_single_leaf_trees(self):
        ds = MaskedDataset(np.ones((20, 3)), np.zeros((20, 3)), np.full(20, 2.5))
        forest = fit_forest(ds, TreeParams(n_trees=5))
        assert all(t.root.is_leaf() for t in forest.trees)
        X, M = routing_batch(np.random.default_rng(0), 7, 3)
        assert forest.predict(X, M).tolist() == [2.5] * 7

    def test_forest_routes_its_trees_without_their_own_copy(self):
        forest = fit_forest(random_dataset(21, n=80), TreeParams(n_trees=3))
        forest.predict(np.zeros((2, 4)), np.zeros((2, 4)))
        assert not any("_routing" in vars(t) for t in forest.trees)

    def test_zero_rows(self):
        ds = random_dataset(22, n=80)
        X, M = np.empty((0, 4)), np.empty((0, 4), dtype=np.int8)
        models = (fit_cart_mia(ds, TreeParams(max_depth=3)),
                  fit_forest(ds, TreeParams(n_trees=3, max_depth=3)),
                  joint_fit(ds, tree_contract(TreeParams(max_depth=3))))
        for model in models:
            pred = model.predict(X, M)
            assert pred.shape == (0,) and pred.dtype == float

    def test_without_a_mask_a_batch_is_fully_observed(self):
        ds = random_dataset(21, n=150)
        X = np.random.default_rng(22).normal(size=(40, 4))
        zeros = np.zeros((40, 4), dtype=np.int8)
        tree = fit_cart_mia(ds, TreeParams(max_depth=5))
        forest = fit_forest(ds, TreeParams(max_depth=4, n_trees=7))
        for model in (tree, forest):
            assert model.predict(X).tobytes() == model.predict(X, zeros).tobytes()
            assert model.predict(X[0]).tobytes() == model.predict(X[:1], zeros[:1]).tobytes()
        assert tree.predict(X, depth=2).tobytes() == tree.predict(X, zeros, 2).tobytes()

    def test_feature_outside_d_refused(self):
        doc = {"type": "mia_tree", "d": 2,
               "root": {"prediction": 0.0, "n_rows": 2, "feature": 2,
                        "threshold": 0.0, "missing_side": "left",
                        "left": {"prediction": -1.0, "n_rows": 1},
                        "right": {"prediction": 1.0, "n_rows": 1}}}
        with pytest.raises(ValueError, match="feature 2 outside"):
            MiaTree.from_dict(doc).predict(np.zeros((1, 2)), np.zeros((1, 2)))


def thresholds_of(roots, j):
    """Every number a split of a tree document tests feature j at."""
    stack, found = list(roots), []
    while stack:
        node = stack.pop()
        if "feature" in node:
            if node["feature"] == j and node["threshold"] is not None:
                found.append(node["threshold"])
            stack += node["left"], node["right"]
    return found


@st.composite
def crossing_cases(draw):
    """A tree or forest read back from its document, some of whose
    thresholds were set to +-inf there; a feature j; and two values for it,
    each drawn or one of the model's thresholds of j, exactly or one ulp off.
    Fitted with the data's mask or on fully observed data, as joint fits do."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    ds = routing_dataset(seed, 120, 4, 6, False, False)
    if draw(st.booleans()):
        ds = MaskedDataset(ds.X, np.zeros_like(ds.M), ds.y)
    params = TreeParams(max_depth=draw(st.integers(1, 6)), n_trees=3,
                        min_leaf=draw(st.integers(1, 5)), seed=seed % 1000)
    model = fit_forest(ds, params) if draw(st.booleans()) else fit_cart_mia(ds, params)
    doc = model.to_dict()
    roots = doc["trees"] if isinstance(model, Forest) else [doc["root"]]
    stack = list(roots)
    while stack:
        node = stack.pop()
        if "feature" in node:
            if node["threshold"] is not None and draw(st.integers(0, 5)) == 0:
                node["threshold"] = draw(st.sampled_from([-np.inf, np.inf]))
            stack += node["left"], node["right"]
    model = (forest_from_json if isinstance(model, Forest) else tree_from_json)(
        json.dumps(doc))
    j = draw(st.integers(0, 3))
    cuts = thresholds_of(roots, j)

    def value():
        if cuts and draw(st.booleans()):
            t = draw(st.sampled_from(cuts))
            return np.nextafter(t, draw(st.sampled_from([t, -np.inf, np.inf])))
        return draw(st.floats(-3, 3) | st.sampled_from([0.0, -np.inf, np.inf]))

    return model, j, value(), value()


class TestCrossing:
    """`crosses(j, a, b)` False: moving observed values of j from a to b
    changes no prediction, in any bit."""

    @settings(deadline=None, max_examples=200)
    @given(crossing_cases(), st.integers(0, 2 ** 32 - 1))
    def test_no_crossing_keeps_every_prediction(self, case, seed):
        model, j, a, b = case
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 4))
        rows = rng.random(200) < 0.5  # the rows that miss j in a joint fit
        Xa, Xb = X.copy(), X.copy()
        Xa[rows, j], Xb[rows, j] = a, b
        if not model.crosses(j, a, b):
            assert model.predict(Xa).tobytes() == model.predict(Xb).tobytes()

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_a_document_crosses_exactly_at_its_thresholds(self, kind):
        # feature 1 is split at -inf, 0.5 and +inf, each value range has its
        # own leaf, and feature 0 is split nowhere, though every leaf's slots
        # test column 0 at 0.0: a value crosses iff its prediction changes
        def leaf(v):
            return {"prediction": v, "n_rows": 1}

        def split(t, left, right):
            return {"prediction": 0.0, "n_rows": 2, "feature": 1, "threshold": t,
                    "missing_side": "left", "left": left, "right": right}

        root = split(-np.inf, leaf(0.0),
                     split(0.5, leaf(1.0), split(np.inf, leaf(2.0), leaf(3.0))))
        doc = ({"type": "mia_tree", "d": 2, "root": root} if kind == "tree" else
               {"type": "mia_forest", "d": 2, "params": asdict(TreeParams()),
                "trees": [root]})
        model = (tree_from_json if kind == "tree" else forest_from_json)(json.dumps(doc))
        values = [-np.inf, -1.0, 0.0, 0.5, np.nextafter(0.5, 1.0), 1.0, np.inf, np.nan]
        for j, a, b in itertools.product([0, 1], values, values):
            Xa, Xb = np.zeros((1, 2)), np.zeros((1, 2))
            Xa[0, j], Xb[0, j] = a, b
            moved = model.predict(Xa).tobytes() != model.predict(Xb).tobytes()
            assert model.crosses(j, a, b) is moved, (j, a, b)


class TestMeanImpute:
    def test_hand_example(self):
        ds = MaskedDataset(np.array([[1.0, 0.0], [3.0, 6.0], [0.0, 2.0]]),
                           np.array([[0, 1], [0, 0], [1, 0]]), np.zeros(3))
        mu, imputed = mean_impute(ds)
        assert mu.tolist() == [2.0, 4.0]
        assert imputed.tolist() == [[1.0, 4.0], [3.0, 6.0], [2.0, 2.0]]

    def test_all_missing_column_zero(self):
        ds = MaskedDataset(np.zeros((3, 1)), np.ones((3, 1)), np.zeros(3))
        mu, imputed = mean_impute(ds)
        assert mu[0] == 0.0
        assert np.all(imputed == 0.0)


class TestSerialization:
    def test_tree_round_trip(self):
        ds = random_dataset(16)
        tree = fit_cart_mia(ds, TreeParams())
        back = tree_from_json(tree_to_json(tree))
        assert np.array_equal(back.predict(ds.X, ds.M),
                              tree.predict(ds.X, ds.M))

    def test_forest_round_trip(self):
        ds = random_dataset(17, n=100)
        forest = fit_forest(ds, TreeParams(n_trees=5))
        back = forest_from_json(forest_to_json(forest))
        assert np.array_equal(back.predict(ds.X, ds.M),
                              forest.predict(ds.X, ds.M))
        assert back.params == forest.params
