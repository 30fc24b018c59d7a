"""CART and random forest with Missing-Incorporated-in-Attribute splits.

Every internal node tests one feature and routes missing values to a fixed
side, so rows with any missingness pattern (seen or not) always reach a leaf.
Candidate splits per node and feature: the pure missing-vs-observed split,
then thresholds at midpoints of consecutive distinct observed values, each
with both choices of side for the missing rows. A node scores all of them,
pure splits too, from prefix sums of its sorted targets and rescores only
the few near the least score exactly (_best_splits). The trees of a forest
grow in lockstep and a CART tree level by level, so one search scores many
nodes (_grow). Prediction sends every row through every tree of a model
together, one level per step (_Routing).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import MaskedDataset, batch, check_finite, check_int, json_reader, to_json


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 6
    min_leaf: int = 5
    n_trees: int = 100
    mtry: int | None = None  # default: all features (tree), ceil(sqrt(d)) (forest)
    seed: int = 0

    def __post_init__(self):
        for name in ("max_depth", "min_leaf", "n_trees", "mtry"):
            check_int(name, getattr(self, name), 1, null=name == "mtry")
        check_int("seed", self.seed, 0)


@dataclass
class MiaNode:
    prediction: float  # mean target: on 0/1 targets, the class-1 frequency
    n_rows: int
    feature: int | None = None
    threshold: float | None = None  # None with feature set = pure missingness split
    missing_side: str = "left"
    left: "MiaNode | None" = None
    right: "MiaNode | None" = None

    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        doc = {"prediction": self.prediction, "n_rows": self.n_rows}
        if not self.is_leaf():
            doc.update(feature=int(self.feature), threshold=self.threshold,
                       missing_side=self.missing_side,
                       left=self.left.to_dict(), right=self.right.to_dict())
        return doc

    @classmethod
    def from_dict(cls, doc, d: int) -> MiaNode:
        """A node of a model file: a split tests a feature in [0, d) at a number
        and sends missing rows left or right, or at null (a pure split, which
        sends them left)."""
        check_int("n_rows", doc["n_rows"], 1)
        check_finite("prediction", doc["prediction"])
        node = cls(float(doc["prediction"]), doc["n_rows"])
        if "feature" in doc:
            j, thr, side = doc["feature"], doc["threshold"], doc["missing_side"]
            check_int("feature", j, 0)
            if j >= d:
                raise ValueError(f"node feature {j} outside [0, {d})")
            # +-inf is a midpoint that overflowed in _best_splits
            if thr not in (None, -math.inf, math.inf):
                check_finite("threshold", thr)
            if side not in ("left", "right"):
                raise ValueError(f"missing_side: must be left or right, got {side!r}")
            if thr is None and side != "left":
                raise ValueError("missing_side: a pure split sends missing rows left")
            node.feature, node.threshold, node.missing_side = j, thr, side
            node.left = cls.from_dict(doc["left"], d)
            node.right = cls.from_dict(doc["right"], d)
        return node


class _Routing:
    """MIA trees as parallel slot arrays, breadth-first over all the trees, so
    tree t's root is node t. Node k's two slots, 2k and 2k + 1, both hold its
    column, threshold and value; child[2k + 1] and child[2k] are the first
    slots of its left and right child (a leaf's are its own). A row at slot s
    moves to child[s + (z[col[s]] <= thr[s])], where z is [x, masked slots -inf
    | x, masked slots NaN | 1 - m]: missing-left, missing-right and pure splits
    (at 0.5) test blocks 0, 1 and 2."""

    # trees x rows routed together, and nodes x features x (rows + 1) searched
    # together (_grow): caps the working arrays, a search's at 5-11 MB
    GROUP_SLOTS = 65_536

    def __init__(self, roots: list[MiaNode], d: int):
        nodes, depth, slots = list(roots), [0] * len(roots), []
        for k, node in enumerate(nodes):  # nodes grows as children are queued
            if node.is_leaf():
                slots += [(0, 0.0, node.prediction, 2 * k)] * 2
                continue
            block = 2 if node.threshold is None else int(node.missing_side != "left")
            thr = 0.5 if node.threshold is None else node.threshold
            test = (block * d + node.feature, thr, node.prediction)
            slots += [test + (2 * len(nodes) + 2,), test + (2 * len(nodes),)]
            nodes += (node.left, node.right)
            depth += (depth[k] + 1,) * 2
        self.col, self.thr, self.value, self.child = map(np.array, zip(*slots))
        self.d, self.trees, self.depth = d, len(roots), max(depth)

    def route(self, X, M=None, depth=None) -> np.ndarray:
        """Check a batch; its leaf values, (trees, rows), in every tree cut
        at `depth` if that is given. Without a mask M, X is fully observed."""
        X, M = batch(X, np.zeros_like(X, dtype=np.int8) if M is None else M, self.d)
        n, m = len(X), M == 1
        Z = np.concatenate([np.where(m, -np.inf, X), np.where(m, np.nan, X), 1.0 - m], 1)
        Z, base = Z.ravel(), np.arange(n) * (3 * self.d)
        out, group = np.empty((self.trees, n)), max(1, self.GROUP_SLOTS // max(n, 1))
        levels = self.depth if depth is None else min(depth, self.depth)
        for t in range(0, self.trees, group):
            s = 2 * np.arange(t, min(t + group, self.trees))[:, None].repeat(n, 1)
            for _ in range(levels):  # one tree level per step
                s = self.child[s + (Z[base + self.col[s]] <= self.thr[s])]
            out[t:t + group] = self.value[s]
        return out

    @functools.cached_property
    def cuts(self) -> list[np.ndarray]:
        """Per feature j, the sorted thresholds of the splits that test an
        observed value of j: blocks 0 and 1, not pure splits, nor the col-0,
        thr-0.0 slots of leaves, whose children are their own."""
        k = np.arange(0, len(self.child), 2)
        split = (self.child[k] != k) & (self.col[k] < 2 * self.d)
        j, t = self.col[k][split] % self.d, self.thr[k][split]
        return [np.sort(t[j == f]) for f in range(self.d)]

    def crosses(self, j, a, b) -> bool:
        """Whether an observed value of feature j that moves from a to b can
        take another branch at some split: whether a threshold t of j has
        a <= t and not b <= t, or the other way round. np.searchsorted counts
        the t < a and the t < b, so they differ exactly when some t lies in
        [min(a, b), max(a, b)); NaN sorts last and fails every <= as it does."""
        lo, hi = np.searchsorted(self.cuts[j], (a, b))
        return bool(lo != hi)


@dataclass
class MiaTree:
    root: MiaNode
    d: int

    @functools.cached_property
    def _routing(self) -> _Routing:
        return _Routing([self.root], self.d)

    def predict(self, X, M=None, depth=None) -> np.ndarray:
        """Leaf values; at `depth`, those of this tree cut at that depth.
        Without a mask M, X is fully observed."""
        return self._routing.route(X, M, depth)[0]

    def crosses(self, j, a, b) -> bool:
        """Can moving an observed value of j from a to b change a prediction?"""
        return self._routing.crosses(j, a, b)

    def to_dict(self) -> dict:
        return {"type": "mia_tree", "d": self.d, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, doc) -> MiaTree:
        check_int("d", doc["d"], 1)
        return cls(MiaNode.from_dict(doc["root"], doc["d"]), doc["d"])


def _impurity_sums(y: np.ndarray) -> float:
    """Total impurity of one node's targets: their squared error about the
    mean. On 0/1 targets it is half the node's total Gini n * 2p(1 - p), p
    the class-1 frequency, so the least-squares split is the least-Gini one."""
    # y.sum() / n is y.mean() to the bit, and cheaper
    return float(((y - y.sum() / len(y)) ** 2).sum())


def _sweep_impurity(k, s1, s2):
    """Impurity of children with k rows, target sums s1 and squares s2;
    k = 0 divides by zero, so the caller masks it out under np.errstate."""
    return s2 - s1 * s1 / k


def _shortlist_tolerance(yr, c) -> float:
    """Margin above the least sweep score within which the exact winner lies.

    Any sum of m terms, in any order, errs by at most m*eps*sum|terms|. Over
    the node's n rows let u = y - ybar exactly, c = fl(y - ybar), U = sum u^2
    (the computed T = sum c^2 is within a factor 2 of U) and Y = max|y|.

    Sweep: a child's S1 and S2 are each at most three running sums over the
    node added or subtracted (a threshold's side with the missing block;
    either side of a pure split is two: the missing block P[n] - P[n_obs],
    the observed block P[n_obs]), so S2 errs by at most 3(n+2)*eps*U and S1
    by e = 3(n+2)*eps*sum|u| <= 3(n+2)*eps*sqrt(nU). As |S1|/k <= sqrt(U),
    S1^2/k errs by at most 2e*sqrt(U); the square, division and subtraction
    add 3*eps*U. Two children and their sum:
    a <= [6(n+2)(1 + 2 sqrt(n)) + 8]*eps*U.
    Exact: `_impurity_sums` takes the mean of the uncentred y, which errs by
    d <= k*eps*Y; sum (y - mean)^2 is the child's SSE plus k*d^2, summed
    with relative error (k+2)*eps. Two children:
    b <= (n+4)*eps*U + 2n^3*eps^2*Y^2.
    Each score is within a (sweep) or b (exact) of the true impurity, so any
    candidate of least exact score has a sweep score at most 2(a+b) <=
    32(n+2)(sqrt(n)+1)*eps*U + 4n^3*eps^2*Y^2 above the least one. The
    tolerance is twice that, as margin for T against U and the eps^2 terms
    dropped.
    """
    n = len(yr)
    eps = np.finfo(float).eps
    Y = float(np.max(np.abs(yr)))
    T = float(np.dot(c, c))
    return (64.0 * (n + 2) * (np.sqrt(n) + 1) * eps * T
            + 8.0 * n ** 3 * (eps * Y) ** 2)


def _best_splits(X, M, y, nodes, min_leaf):
    """Best (feature, threshold, side) split of each (rows, features) node in
    `nodes`, all with one feature count, by one presorted sweep: per node
    (impurity, feature, threshold, side, left_rows, right_rows, the node's
    own impurity) or None.
    Candidates are ordered feature ascending, pure split first, thresholds
    ascending, missing rows left before right; the first candidate of least
    impurity wins.

    Lane b * F + f holds node b's rows sorted by its feature f, observed
    values first, then padding up to the largest node's row count; prefix
    sums of the targets along each lane, which round as the node's own 1-D
    sums would, score every candidate at once. The cut between sorted
    positions i and i + 1 puts the i + 1 lowest observed rows left, and the
    missing block's totals go to either side; the pure split is the cut
    before position 0 with the missing rows left. The sums round differently
    from `_impurity_sums`, so they only shortlist: every finite score within
    `_shortlist_tolerance` of its node's least one is rescored by
    `_impurity_sums` on the row arrays an exhaustive scan builds, which it
    also returns; a lane without missing rows gives both sides of a cut the
    same children, hence the same scores, and side 0 wins the tie, so its
    side 1 is left out. Working set, at its peak while one side is scored:
    9 bytes per lane slot, B * F * (N + 1) of them (perm, missing), and about
    165 per candidate (its lane, counts, cut, midpoint, child sums, scores and
    that side's temporaries); at most about 175 bytes a slot, where every slot
    is a candidate, and 83 on a forest root of 440 bootstrap rows, 30% missing.
    """
    sizes = np.array([len(rows) for rows, _ in nodes])
    features = np.array([f for _, f in nodes])
    (B, F), N = features.shape, int(sizes.max())
    n_lane = sizes.repeat(F)
    real = np.arange(N) < n_lane[:, None]                        # (B * F, N)
    R = np.zeros((B, N), dtype=np.intp)
    R[np.arange(N) < sizes[:, None]] = np.concatenate([rows for rows, _ in nodes])
    # flat indices: np.take is several times faster than multi-axis indexing
    cell = R[:, None, :] * X.shape[1] + features[:, :, None]
    missing = (np.take(M, cell).reshape(B * F, N) == 1) & real
    # missing slots may hold anything; as +inf they sort after every observed
    # value and before the padding, and the stable sort keeps equal values in
    # row order
    xs = np.where(missing | ~real, np.inf, np.take(X, cell).reshape(B * F, N))
    del R, cell, real
    perm = np.argsort(xs, axis=1, kind="stable")
    xs = np.take(xs, perm + np.arange(B * F)[:, None] * N)
    n_obs = n_lane - missing.sum(axis=1)

    C, tol = np.zeros((B, N)), np.empty(B)  # centred targets, padded with 0
    own = []  # each node's impurity, as _impurity_sums has it
    for b, (rows, _) in enumerate(nodes):
        yr = y[rows]
        c = yr - yr.sum() / len(rows)
        C[b, :len(rows)], tol[b] = c, _shortlist_tolerance(yr, c)
        own.append(float((c ** 2).sum()))
    cs = np.take(C, perm + np.arange(B).repeat(F)[:, None] * N)
    P = np.zeros((2, B * F, N + 1))  # prefix sums of c and c^2, per lane
    np.cumsum(cs, axis=1, out=P[0, :, 1:])
    np.cumsum(np.multiply(cs, cs, out=cs), axis=1, out=P[1, :, 1:])
    P = P.reshape(2, -1)
    del C, cs

    # candidates (lane, rows left of the cut): pure splits at 0, then the cuts
    # between consecutive distinct observed values
    cut = np.empty(xs.shape, dtype=bool)
    cut[:, 0] = (n_lane - n_obs >= min_leaf) & (n_obs >= min_leaf)
    cut[:, 1:] = (xs[:, :-1] != xs[:, 1:]) & (np.arange(1, N) < n_obs[:, None])
    at = np.flatnonzero(cut)
    del cut
    lane, n_lo = np.divmod(at, N)
    pure = n_lo == 0
    lo, hi = np.take(xs, at - 1), np.take(xs, at)  # pure: lo is another lane's
    with np.errstate(over="ignore"):
        thr = (lo + hi) / 2.0
    # a midpoint that rounded onto hi or overflowed sends another count left
    for k in np.flatnonzero(~pure & ((thr >= hi) | (thr < lo))):
        n_lo[k] = np.searchsorted(xs[lane[k], :n_obs[lane[k]]], thr[k], side="right")
    del at, lo, hi, xs

    # child sums, (stat, candidate), then scores one side at a time: 0 = missing left
    n, no, base = n_lane[lane], n_obs[lane], lane * (N + 1)
    s_lo, s_ob = np.take(P, base + n_lo, axis=1), np.take(P, base + no, axis=1)
    s_mi = np.take(P, base + n, axis=1) - s_ob
    del P, base
    s_hi, approx = np.subtract(s_ob, s_lo, out=s_ob), np.empty((2, len(lane)))
    with np.errstate(divide="ignore", invalid="ignore"):  # empty children
        for side, k in enumerate((n_lo + (n - no), n_lo)):
            left, right = (s_lo + s_mi, s_hi) if side == 0 else (s_lo, s_hi + s_mi)
            approx[side] = _sweep_impurity(k, *left) + _sweep_impurity(n - k, *right)
            approx[side, (k < min_leaf) | (n - k < min_leaf)] = np.inf
    least = np.full(B, np.inf)
    np.minimum.at(least, lane // F, approx.min(axis=0))
    # finite scores only: a node without a valid candidate has least = inf
    short = (approx <= (least + tol)[lane // F]) & (approx < np.inf)
    short[1] &= no < n  # without missing rows side 1 repeats side 0

    best = [None] * B
    for cand in np.flatnonzero(short.T):  # node-major, then candidate-major
        k, side = divmod(int(cand), 2)
        b, f = divmod(int(lane[k]), F)
        rows = nodes[b][0]
        order = rows[perm[lane[k], :len(rows)]]
        below, above, miss = order[:n_lo[k]], order[n_lo[k]:no[k]], order[no[k]:]
        if pure[k]:  # the observed rows in row order, as a scan keeps them
            left, right = miss, rows[~missing[lane[k], :len(rows)]]
        elif side == 0:
            left, right = np.concatenate([below, miss]), above
        else:
            left, right = below, np.concatenate([above, miss])
        imp = _impurity_sums(y[left]) + _impurity_sums(y[right])
        if best[b] is None or imp < best[b][0]:
            best[b] = (imp, features[b, f], None if pure[k] else float(thr[k]),
                       ("left", "right")[side], left, right, own[b])
    return best


def _grow(X, M, y, samples, params: TreeParams, rngs=None) -> list[MiaNode]:
    """One MIA tree per row sample, grown together by batched searches. Tree
    t draws each node's mtry features from rngs[t], if given, in its own
    depth-first order, so a round takes one node of each tree; otherwise a
    round takes every open node: one depth of each tree."""
    d, min_leaf = X.shape[1], params.min_leaf
    draw = rngs is not None and params.mtry is not None and params.mtry < d
    slots = _Routing.GROUP_SLOTS // (params.mtry if draw else max(d, 1))

    def leaf(rows):  # the sum over the count is np.mean to the bit, and cheaper
        return MiaNode(float(y[rows].sum() / len(rows)), len(rows))

    roots = [leaf(rows) for rows in samples]
    stacks = [[(root, rows, 0)] for root, rows in zip(roots, samples)]
    while any(stacks):
        taken = []  # (rows, features, tree, node, depth)
        for t, stack in enumerate(stacks):
            while stack:
                node, rows, depth = stack.pop()
                if (depth >= params.max_depth or len(rows) < 2 * min_leaf
                        or np.all(y[rows] == y[rows[0]])):
                    continue
                features = (np.sort(rngs[t].choice(d, params.mtry, replace=False))
                            if draw else np.arange(d))
                taken.append((rows, features, t, node, depth))
                if draw:
                    break
        taken.sort(key=lambda job: len(job[0]))  # chunks of nodes of about one size
        while taken:
            k = 1  # nodes x F x (N + 1) <= GROUP_SLOTS, N = rows of taken[k - 1]
            while k < len(taken) and (k + 1) * (len(taken[k][0]) + 1) <= slots:
                k += 1
            chunk, taken = taken[:k], taken[k:]
            found = _best_splits(X, M, y, [job[:2] for job in chunk], min_leaf)
            for (rows, _, t, node, depth), best in zip(chunk, found):
                if best is None or best[0] >= best[6]:  # no split lowers impurity
                    continue
                _, node.feature, node.threshold, node.missing_side, left, right, _ = best
                node.left, node.right = leaf(left), leaf(right)
                stacks[t] += (node.right, right, depth + 1), (node.left, left, depth + 1)
    return roots


def fit_cart_mia(dataset: MaskedDataset, params: TreeParams) -> MiaTree:
    """Fit a single MIA tree on the full dataset (no feature subsampling)."""
    if dataset.n < 2 * params.min_leaf:
        raise ValueError("need at least 2 * min_leaf rows")
    root, = _grow(dataset.X, dataset.M, dataset.y, [np.arange(dataset.n)], params)
    return MiaTree(root, dataset.d)


@dataclass
class Forest:
    trees: list[MiaTree]
    params: TreeParams
    d: int

    @functools.cached_property
    def _routing(self) -> _Routing:
        return _Routing([t.root for t in self.trees], self.d)

    def predict(self, X, M=None) -> np.ndarray:
        return self._routing.route(X, M).mean(axis=0)

    def crosses(self, j, a, b) -> bool:
        """Can moving an observed value of j from a to b change a prediction?"""
        return self._routing.crosses(j, a, b)

    def to_dict(self) -> dict:
        return {"type": "mia_forest", "d": self.d, "params": asdict(self.params),
                "trees": [t.root.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, doc) -> Forest:
        d = doc["d"]
        check_int("d", d, 1)
        trees = [MiaTree(MiaNode.from_dict(t, d), d) for t in doc["trees"]]
        if not trees:
            raise ValueError("trees: must hold at least one tree")
        params = {**doc["params"]}
        # forests saved while TreeParams had a task field hold one; no fit
        # or predict reads it
        task = params.pop("task", "regression")
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task {task!r}")
        return cls(trees, TreeParams(**params), d)


def fit_forest(dataset: MaskedDataset, params: TreeParams) -> Forest:
    """Bagged MIA trees, each on a bootstrap sample, with per-split feature
    subsampling."""
    mtry = params.mtry if params.mtry is not None else int(np.ceil(np.sqrt(dataset.d)))
    seeds = np.random.default_rng(params.seed).integers(0, 2 ** 31, size=params.n_trees)
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    samples = [rng.integers(0, dataset.n, size=dataset.n) for rng in rngs]
    roots = _grow(dataset.X, dataset.M, dataset.y, samples,
                  replace(params, mtry=min(mtry, dataset.d)), rngs)
    return Forest([MiaTree(root, dataset.d) for root in roots], params, dataset.d)


def mean_impute(dataset: MaskedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Observed column means and the matrix with missing slots filled by them.

    Columns with no observed value get mu_j = 0.
    """
    X, M = dataset.X, dataset.M
    obs = (M == 0)
    counts = obs.sum(axis=0)
    sums = np.where(obs, X, 0.0).sum(axis=0)
    mu = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    imputed = np.where(M == 1, mu, X)
    return mu, imputed


# ---------------------------------------------------------------------------
# JSON text of the documents above; the benchmark's tracer binds these by name.
tree_to_json = forest_to_json = to_json
tree_from_json, forest_from_json = json_reader(MiaTree), json_reader(Forest)
