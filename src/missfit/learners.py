"""CART and random forest with Missing-Incorporated-in-Attribute splits.

Every internal node tests one feature and routes missing values to a fixed
side, so rows with any missingness pattern (seen or not) always reach a leaf.
Candidate splits per node and feature: the pure missing-vs-observed split,
then thresholds at midpoints of consecutive distinct observed values, each
with both choices of side for the missing rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import MaskedDataset, binary_mask, validate


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 6
    min_leaf: int = 5
    n_trees: int = 100
    mtry: int | None = None  # default: all features (tree), ceil(sqrt(d)) (forest)
    seed: int = 0
    task: str = "regression"  # or "classification" (binary y, Gini impurity)

    def __post_init__(self):
        if self.max_depth < 1 or self.min_leaf < 1 or self.n_trees < 1:
            raise ValueError("tree parameters must be positive")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass
class MiaNode:
    prediction: float  # mean target (regression) or class-1 frequency
    n_rows: int
    feature: int | None = None
    threshold: float | None = None  # None with feature set = pure missingness split
    missing_side: str = "left"
    left: "MiaNode | None" = None
    right: "MiaNode | None" = None

    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class MiaTree:
    root: MiaNode
    d: int

    def predict_row(self, x, m) -> float:
        node = self.root
        while not node.is_leaf():
            j = node.feature
            if node.threshold is None:  # pure split: missing left, observed right
                node = node.left if m[j] == 1 else node.right
            elif m[j] == 1:
                node = node.left if node.missing_side == "left" else node.right
            else:
                node = node.left if x[j] <= node.threshold else node.right
        return node.prediction

    def predict(self, X, M) -> np.ndarray:
        X = np.atleast_2d(X)
        M = binary_mask(M)
        return np.array([self.predict_row(X[i], M[i]) for i in range(len(X))])


def _impurity_sums(y: np.ndarray, task: str) -> float:
    """Total impurity (SSE, or n * Gini) of one node's targets."""
    n = len(y)
    if n == 0:
        return 0.0
    if task == "regression":
        return float(np.sum((y - y.mean()) ** 2))
    p = float(np.mean(y))
    return n * 2.0 * p * (1.0 - p)


def _sweep_impurity(k, s1, s2, task):
    """Impurity of children with k rows and target sums s1 (and squares s2)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0: masked out
        if task == "regression":
            return s2 - s1 * s1 / k
        p = s1 / k
        return k * 2.0 * p * (1.0 - p)


def _shortlist_tolerance(yr, c, task) -> float:
    """Margin above the least sweep score within which the exact winner lies.

    Any sum of m terms, in any order, errs by at most m*eps*sum|terms|. Over
    the node's n rows let u = y - ybar exactly, c = fl(y - ybar), U = sum u^2
    (the computed T = sum c^2 is within a factor 2 of U) and Y = max|y|.

    Regression, sweep: a child's S1 and S2 are each at most three running
    sums over the node added or subtracted, so S2 errs by at most
    3(n+2)*eps*U and S1 by e = 3(n+2)*eps*sum|u| <= 3(n+2)*eps*sqrt(nU). As
    |S1|/k <= sqrt(U), S1^2/k errs by at most 2e*sqrt(U); the square,
    division and subtraction add 3*eps*U. Two children and their sum:
    a <= [6(n+2)(1 + 2 sqrt(n)) + 8]*eps*U.
    Regression, exact: `_impurity_sums` takes the mean of the uncentred y,
    which errs by d <= k*eps*Y; sum (y - mean)^2 is the child's SSE plus
    k*d^2, summed with relative error (k+2)*eps. Two children:
    b <= (n+4)*eps*U + 2n^3*eps^2*Y^2.
    Each score is within a (sweep) or b (exact) of the true impurity, so any
    candidate of least exact score has a sweep score at most 2(a+b) <=
    32(n+2)(sqrt(n)+1)*eps*U + 4n^3*eps^2*Y^2 above the least one. The
    tolerance is twice that, as margin for T against U and the eps^2 terms
    dropped.

    Classification (Gini from raw y sums, p = S1/k): S1 errs by at most
    3(n+1)*n*eps*Y and 2kp(1-p) has slope at most 2k(1 + 2Y) in p; the same
    steps give 2(a+b) <= 18(n+1)^3*eps*Y(1 + 2Y), doubled likewise.
    """
    n = len(yr)
    eps = np.finfo(float).eps
    Y = float(np.max(np.abs(yr)))
    if task == "regression":
        T = float(np.dot(c, c))
        return (64.0 * (n + 2) * (np.sqrt(n) + 1) * eps * T
                + 8.0 * n ** 3 * (eps * Y) ** 2)
    return 36.0 * (n + 1) ** 3 * eps * Y * (1.0 + 2.0 * Y)


def _best_split(X, M, y, rows, features, min_leaf, task):
    """Best (feature, threshold, side) split of `rows`, by a presorted sweep.

    Returns (impurity, feature, threshold, side, left_rows, right_rows) or
    None. Candidates are ordered feature ascending, pure split first,
    thresholds ascending, missing rows left before right; the first candidate
    of least impurity wins.

    Each feature's observed rows are sorted once; prefix sums of the targets
    in that order, with the missing block's totals added to either side,
    score every threshold candidate at once. They round differently from
    `_impurity_sums`, so they only shortlist: every candidate within
    `_shortlist_tolerance` of the least score is rescored by `_impurity_sums`
    on the row arrays an exhaustive scan builds, which it also returns.
    """
    n = len(rows)
    yr = y[rows]
    node = np.ix_(rows, features)
    missing = M[node].T == 1                                     # (F, n)
    # missing slots may hold anything; as +inf they sort after every observed
    # value, and the stable sort keeps equal values in row order
    xs = np.where(missing, np.inf, X[node].T)
    perm = np.argsort(xs, axis=1, kind="stable")
    xs = np.take_along_axis(xs, perm, axis=1)
    n_obs = n - missing.sum(axis=1)

    c = yr - yr.mean() if task == "regression" else yr
    cs = c[perm]
    p1 = np.zeros((len(features), n + 1))
    np.cumsum(cs, axis=1, out=p1[:, 1:])
    p2 = np.zeros_like(p1)
    np.cumsum(cs * cs, axis=1, out=p2[:, 1:])

    # thresholds: midpoints of consecutive distinct observed values
    cut = (xs[:, :-1] != xs[:, 1:]) & (np.arange(1, n) < n_obs[:, None])
    f_idx, i_idx = np.nonzero(cut)
    thr = (xs[f_idx, i_idx] + xs[f_idx, i_idx + 1]) / 2.0
    starts = np.searchsorted(f_idx, np.arange(len(features) + 1))
    n_lo = np.empty(len(thr), dtype=np.intp)
    for f in range(len(features)):
        a, b = starts[f], starts[f + 1]
        n_lo[a:b] = np.searchsorted(xs[f, :n_obs[f]], thr[a:b], side="right")

    # (candidate, side) arrays of child totals; side 0 sends the missing
    # rows left
    no = n_obs[f_idx]

    def sides(prefix):
        lo, ob = prefix[f_idx, n_lo], prefix[f_idx, no]
        mi = prefix[f_idx, n] - ob
        return (np.stack([lo + mi, lo], axis=1),
                np.stack([ob - lo, ob - lo + mi], axis=1))

    k_left, k_right = sides(np.broadcast_to(np.arange(n + 1), p1.shape))
    s1_left, s1_right = sides(p1)
    s2_left, s2_right = sides(p2)
    approx = (_sweep_impurity(k_left, s1_left, s2_left, task)
              + _sweep_impurity(k_right, s1_right, s2_right, task))
    valid = (k_left >= min_leaf) & (k_right >= min_leaf)
    approx = np.where(valid, approx, np.inf).ravel()

    pure = np.full(len(features), np.inf)  # pure splits, scored exactly
    for f in np.flatnonzero((n - n_obs >= min_leaf) & (n_obs >= min_leaf)):
        pure[f] = (_impurity_sums(y[rows[missing[f]]], task)
                   + _impurity_sums(y[rows[~missing[f]]], task))
    least = min(pure.min(), approx.min(initial=np.inf))
    if least == np.inf:
        return None
    bound = least + _shortlist_tolerance(yr, c, task)
    short = np.flatnonzero(approx <= bound)
    short_f = f_idx[short // 2]

    best = None
    for f, j in enumerate(features):
        miss = rows[missing[f]]
        if pure[f] <= bound and (best is None or pure[f] < best[0]):
            best = (float(pure[f]), j, None, "left", miss, rows[~missing[f]])
        order = rows[perm[f, :n_obs[f]]]
        for cand in short[short_f == f]:
            k, side = divmod(int(cand), 2)
            left_obs, right_obs = order[:n_lo[k]], order[n_lo[k]:]
            if side == 0:
                left, right = np.concatenate([left_obs, miss]), right_obs
            else:
                left, right = left_obs, np.concatenate([right_obs, miss])
            imp = _impurity_sums(y[left], task) + _impurity_sums(y[right], task)
            if best is None or imp < best[0]:
                best = (imp, j, float(thr[k]), ("left", "right")[side], left, right)
    return best


def _build(X, M, y, rows, depth, params: TreeParams, rng) -> MiaNode:
    node = MiaNode(prediction=float(np.mean(y[rows])), n_rows=len(rows))
    if depth >= params.max_depth or len(rows) < 2 * params.min_leaf:
        return node
    if np.all(y[rows] == y[rows[0]]):
        return node
    d = X.shape[1]
    if rng is not None and params.mtry is not None and params.mtry < d:
        features = np.sort(rng.choice(d, params.mtry, replace=False))
    else:
        features = np.arange(d)
    parent_imp = _impurity_sums(y[rows], params.task)
    best = _best_split(X, M, y, rows, features, params.min_leaf, params.task)
    if best is None or best[0] >= parent_imp:
        return node
    imp, j, thr, side, left, right = best
    node.feature = j
    node.threshold = thr
    node.missing_side = side
    node.left = _build(X, M, y, left, depth + 1, params, rng)
    node.right = _build(X, M, y, right, depth + 1, params, rng)
    return node


def fit_cart_mia(dataset: MaskedDataset, params: TreeParams) -> MiaTree:
    """Fit a single MIA tree on the full dataset (no feature subsampling)."""
    validate(dataset)
    if dataset.n < 2 * params.min_leaf:
        raise ValueError("need at least 2 * min_leaf rows")
    root = _build(dataset.X, dataset.M, dataset.y, np.arange(dataset.n), 0,
                  params, rng=None)
    return MiaTree(root, dataset.d)


@dataclass
class Forest:
    trees: list[MiaTree]
    params: TreeParams
    d: int

    def predict(self, X, M) -> np.ndarray:
        preds = np.stack([t.predict(X, M) for t in self.trees])
        return preds.mean(axis=0)


def fit_forest(dataset: MaskedDataset, params: TreeParams,
               bootstrap: bool = True) -> Forest:
    """Bagged MIA trees with per-split feature subsampling.

    bootstrap=False fits every tree on the full sample (a single such tree
    with mtry=d reproduces fit_cart_mia exactly).
    """
    validate(dataset)
    mtry = params.mtry if params.mtry is not None else int(np.ceil(np.sqrt(dataset.d)))
    mtry = min(mtry, dataset.d)
    trees = []
    root_rng = np.random.default_rng(params.seed)
    tree_seeds = root_rng.integers(0, 2 ** 31, size=params.n_trees)
    for s in tree_seeds:
        rng = np.random.default_rng(int(s))
        rows = (rng.integers(0, dataset.n, size=dataset.n) if bootstrap
                else np.arange(dataset.n))
        sub_params = TreeParams(params.max_depth, params.min_leaf, params.n_trees,
                                mtry, params.seed, params.task)
        root = _build(dataset.X, dataset.M, dataset.y, np.asarray(rows), 0,
                      sub_params, rng)
        trees.append(MiaTree(root, dataset.d))
    return Forest(trees, params, dataset.d)


def mean_impute(dataset: MaskedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Observed column means and the matrix with missing slots filled by them.

    Columns with no observed value get mu_j = 0.
    """
    X, M = dataset.X, dataset.M
    obs = (M == 0)
    counts = obs.sum(axis=0)
    sums = np.where(obs, np.where(M == 1, 0.0, X), 0.0).sum(axis=0)
    mu = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    imputed = np.where(M == 1, mu, X)
    return mu, imputed


# ---------------------------------------------------------------------------
# JSON round-trip

def _node_to_json(node: MiaNode) -> dict:
    doc = {"prediction": node.prediction, "n_rows": node.n_rows}
    if not node.is_leaf():
        doc.update(feature=int(node.feature), threshold=node.threshold,
                   missing_side=node.missing_side,
                   left=_node_to_json(node.left), right=_node_to_json(node.right))
    return doc


def _node_from_json(obj) -> MiaNode:
    node = MiaNode(obj["prediction"], obj["n_rows"])
    if "feature" in obj:
        node.feature = obj["feature"]
        node.threshold = obj["threshold"]
        node.missing_side = obj["missing_side"]
        node.left = _node_from_json(obj["left"])
        node.right = _node_from_json(obj["right"])
    return node


def tree_to_json(tree: MiaTree) -> str:
    return json.dumps({"type": "mia_tree", "d": tree.d,
                       "root": _node_to_json(tree.root)}, indent=1)


def tree_from_json(text: str) -> MiaTree:
    doc = json.loads(text)
    return MiaTree(_node_from_json(doc["root"]), doc["d"])


def forest_to_json(forest: Forest) -> str:
    return json.dumps({
        "type": "mia_forest", "d": forest.d,
        "params": {"max_depth": forest.params.max_depth,
                   "min_leaf": forest.params.min_leaf,
                   "n_trees": forest.params.n_trees,
                   "mtry": forest.params.mtry,
                   "seed": forest.params.seed,
                   "task": forest.params.task},
        "trees": [_node_to_json(t.root) for t in forest.trees]}, indent=1)


def forest_from_json(text: str) -> Forest:
    doc = json.loads(text)
    params = TreeParams(**doc["params"])
    trees = [MiaTree(_node_from_json(t), doc["d"]) for t in doc["trees"]]
    return Forest(trees, params, doc["d"])
