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


def random_dataset(seed, n=200, d=4, p_miss=0.3, task="regression"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < p_miss).astype(int)
    signal = np.where(M[:, 0] == 1, 2.0, X[:, 0]) + 0.5 * X[:, 1] * (1 - M[:, 1])
    if task == "classification":
        y = (signal + 0.3 * rng.normal(size=n) > 0).astype(float)
    else:
        y = signal + 0.3 * rng.normal(size=n)
    return MaskedDataset(X, M, y)


def oracle_best_split(X, M, y, rows, features, min_leaf, task):
    """Exhaustive MIA split search: every candidate scored from scratch.

    The reference `learners._best_split` must reproduce exactly: same
    winner, same impurity, same row arrays in the same order.
    """
    best = None
    for j in features:
        mj = M[rows, j]
        xj = X[rows, j]
        miss = rows[mj == 1]
        obs = rows[mj == 0]
        # pure missing-vs-observed split
        if len(miss) >= min_leaf and len(obs) >= min_leaf:
            imp = (learners._impurity_sums(y[miss], task)
                   + learners._impurity_sums(y[obs], task))
            if best is None or imp < best[0]:
                best = (imp, j, None, "left", miss, obs)
        if len(obs) < 2:
            continue
        vals = np.unique(xj[mj == 0])
        if len(vals) < 2:
            continue
        order = obs[np.argsort(xj[mj == 0], kind="stable")]
        xo = X[order, j]
        with np.errstate(over="ignore"):  # midpoints of huge values: +-inf
            thresholds = (vals[:-1] + vals[1:]) / 2.0
        for thr in thresholds:
            n_left_obs = int(np.searchsorted(xo, thr, side="right"))
            left_obs = order[:n_left_obs]
            right_obs = order[n_left_obs:]
            for side in ("left", "right"):
                left = np.concatenate([left_obs, miss]) if side == "left" else left_obs
                right = right_obs if side == "left" else np.concatenate([right_obs, miss])
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                imp = (learners._impurity_sums(y[left], task)
                       + learners._impurity_sums(y[right], task))
                if best is None or imp < best[0]:
                    best = (imp, j, float(thr), side, left, right)
    return best


def assert_same_split(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[:4] == want[:4]  # impurity, feature, threshold, side
    assert np.array_equal(got[4], want[4]) and np.array_equal(got[5], want[5])


@st.composite
def split_cases(draw):
    """Nodes built to hit the sweep's rounding and tie cases."""
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
    task = draw(st.sampled_from(["regression", "classification"]))
    if task == "classification":
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = rng.normal(size=n) + draw(st.sampled_from([0.0, 1e6]))
        if draw(st.booleans()):  # few levels: distinct partitions tie exactly
            y = np.round(y)
    rows = (rng.integers(0, n, size=n) if draw(st.booleans())
            else np.arange(n))
    features = np.sort(rng.choice(d, draw(st.integers(1, d)), replace=False))
    return X, M, y, rows, features, min_leaf, task


def mirrored_case(seed, n=40):
    """A node whose feature 1 is feature 0 negated, with 0/1 regression
    targets: each cut of one feature ties exactly with its mirror image in
    the other, and the sweep's sums, taken in opposite orders, tell the two
    apart by rounding alone."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n) < 0.3, np.nan, rng.choice(rng.normal(size=8), n))
    X = np.stack([x, -x], axis=1)
    M = np.isnan(X).astype(np.int8)
    y = rng.integers(0, 2, n).astype(float)
    return X, M, y, np.arange(n), np.arange(2), 3, "regression"


def assert_same_tree(a, b):
    assert (a.feature, a.threshold, a.missing_side, a.prediction, a.n_rows) == \
        (b.feature, b.threshold, b.missing_side, b.prediction, b.n_rows)
    if not a.is_leaf():
        assert_same_tree(a.left, b.left)
        assert_same_tree(a.right, b.right)


class TestSplitSearch:
    @settings(deadline=None, max_examples=300)
    @given(split_cases())
    @example(mirrored_case(4))
    @example(mirrored_case(8))  # the shortlist's tolerance is needed here
    def test_matches_exhaustive_oracle(self, case):
        assert_same_split(learners._best_split(*case), oracle_best_split(*case))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_mask_only_signal_takes_the_pure_split(self, task):
        # y follows x0's mask bit alone; the observed values are noise, so
        # every threshold, with the missing rows on either side, scores worse
        rng = np.random.default_rng(3)
        X, M = rng.normal(size=(40, 3)), np.zeros((40, 3), dtype=np.int8)
        M[::3, 0] = 1
        y = M[:, 0] + (0.01 * rng.normal(size=40) if task == "regression" else 0.0)
        case = (X, M, y, np.arange(40), np.arange(3), 3, task)
        got = learners._best_split(*case)
        assert (got[1], got[2], got[3]) == (0, None, "left")
        assert np.array_equal(got[4], np.arange(0, 40, 3))
        assert_same_split(got, oracle_best_split(*case))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_forest_trees_match_oracle_build(self, task, monkeypatch):
        ds = random_dataset(18, n=150, d=5, task=task)
        ds = MaskedDataset(np.round(ds.X, 1), ds.M, ds.y)  # repeated values
        params = TreeParams(n_trees=4, mtry=2, max_depth=5, min_leaf=3, task=task)
        fast = fit_forest(ds, params)
        monkeypatch.setattr(learners, "_best_split", oracle_best_split)
        slow = fit_forest(ds, params)
        for a, b in zip(fast.trees, slow.trees, strict=True):
            assert_same_tree(a.root, b.root)


class TestParams:
    def test_defaults(self):
        p = TreeParams()
        assert (p.max_depth, p.min_leaf, p.n_trees) == (6, 5, 100)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TreeParams(task="ranking")

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
        ds = random_dataset(9, n=300, task="classification")
        tree = fit_cart_mia(ds, TreeParams(task="classification", max_depth=4))
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


def routing_dataset(seed, n, d, depth, all_missing, task):
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
    if task == "classification":
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
           task=st.sampled_from(["regression", "classification"]),
           n_trees=st.sampled_from([None, 1, 3]),
           rows=st.sampled_from([0, 1, 16, 500]))
    def test_matches_per_node_walk(self, seed, depth, min_leaf, all_missing,
                                   task, n_trees, rows):
        ds = routing_dataset(seed, 120, 4, depth, all_missing, task)
        params = TreeParams(max_depth=max(depth, 1), min_leaf=min_leaf,
                            n_trees=n_trees or 1, seed=seed % 1000, task=task)
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
        ds = routing_dataset(0, 120, 4, 6, True, "regression")
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

    def test_feature_outside_d_refused(self):
        doc = {"type": "mia_tree", "d": 2,
               "root": {"prediction": 0.0, "n_rows": 2, "feature": 2,
                        "threshold": 0.0, "missing_side": "left",
                        "left": {"prediction": -1.0, "n_rows": 1},
                        "right": {"prediction": 1.0, "n_rows": 1}}}
        with pytest.raises(ValueError, match="feature 2 outside"):
            MiaTree.from_dict(doc).predict(np.zeros((1, 2)), np.zeros((1, 2)))


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
