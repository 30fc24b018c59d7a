"""Reference forms of the array code in missfit.adaptive, missfit.core,
missfit.elasticnet, missfit.joint and missfit.learners.

These are the per-row and per-column loops the package used before its
whole-array forms, the per-node walk of an MIA tree before its flat routing,
an exhaustive MIA split search, the recursive MIA growth that searched one
node at a time before trees grew together, the coordinate-descent loop
before its leaner one, the fully adaptive fit that solved every pattern at
fit time, the joint fit that rebuilt its whole imputed matrix (impute_with)
for every trial, the finite partition that solved both sides of every
candidate split, the walk of one row at a time down a nested partition
document, and the k-fold CV that went point by point with every point on
its own fit; tests compare the package against them bit for bit.
"""

import itertools
from dataclasses import replace

import numpy as np

from missfit import adaptive, bench, elasticnet
from missfit.adaptive import AdaptiveModel
from missfit.core import DatasetError
from missfit.joint import JointModel
from missfit.learners import MiaNode, _impurity_sums, mean_impute


def masked_dot(w, x, m) -> float:
    """Inner product of w and x restricted to observed coordinates (m == 0)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    m = np.asarray(m)
    if not (w.shape == x.shape == m.shape):
        raise DatasetError(
            f"length mismatch: w{w.shape}, x{x.shape}, m{m.shape}")
    return float(np.sum(w * np.where(m == 1, 0.0, x)))


def unique_patterns(M) -> list[tuple[tuple[int, ...], list[int]]]:
    """Row indices grouped by mask row, in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(np.asarray(M)):
        groups.setdefault(tuple(int(v) for v in row), []).append(i)
    return list(groups.items())


def _mask_monomials(d, t):
    out = []
    for size in range(1, t + 1):
        out.extend(itertools.combinations(range(d), size))
    return out


def _interaction_sets(d, t):
    out = []
    for jp in range(d):
        rest = [j for j in range(d) if j != jp]
        for size in range(1, t + 1):
            out.extend((jp, J) for J in itertools.combinations(rest, size))
    return out


def expand_matrix(X, M, kind: str, t: int = 1) -> np.ndarray:
    """Expansion one column at a time; kind is static, affine_intercept, or
    monomials (affine is t = 1, polynomial t = its degree)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    d = X.shape[1]
    Z = (1 - M) * np.where(M == 1, 0.0, X)
    if kind == "static":
        return Z
    if kind == "affine_intercept":
        return np.column_stack([Z, M])
    mono = [np.prod(M[:, list(J)], axis=1) for J in _mask_monomials(d, t)]
    inter = [Z[:, jp] * np.prod(M[:, list(J)], axis=1)
             for jp, J in _interaction_sets(d, t)]
    return np.column_stack([Z] + mono + inter)


def fully_adaptive_predict(model, X, M) -> np.ndarray:
    """One pattern lookup and one dot product per row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    M = np.atleast_2d(np.asarray(M))
    Z = (1 - M) * np.where(M == 1, 0.0, X)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        f = model.pattern_fits.get(tuple(int(v) for v in M[i]), model.fallback)
        out[i] = f.intercept + float(Z[i] @ f.coefficients)
    return out


def fit_fully_adaptive(dataset, spec):
    """A fully adaptive model whose pattern fits are all solved at fit time,
    each on its pattern's rows of the static design with their support
    weights, into a plain dict. It calls missfit.elasticnet.fit itself, so
    a count of adaptive's solves does not see it."""
    Z = expand_matrix(dataset.X, dataset.M, "static")

    def solve(rows):
        A = Z[rows]
        weights = elasticnet.support_penalty_weights(A)
        return elasticnet.fit(A, dataset.y[rows], replace(spec, penalty_weights=weights))

    fits = {p: solve(rows) for p, rows in unique_patterns(dataset.M)}
    return AdaptiveModel("fully_adaptive", dataset.d, None, fits,
                         solve(np.arange(dataset.n)))


def fit_finite_adaptive(dataset, spec, **limits):
    """missfit.adaptive.fit_finite_adaptive with an exhaustive split search,
    as its partition_tree document: both sides of every candidate are
    solved, and min keeps the lowest feature among equal totals. It solves
    through adaptive.enet_fit, so a count of adaptive's solves sees it."""
    max_depth, min_leaf, min_gain = adaptive.finite_limits(**limits).values()
    Z, y = adaptive.expand_matrix(dataset.X, dataset.M, "static"), dataset.y

    def static_fit_sse(rows):
        A, yr = Z[rows], y[rows]
        f = adaptive._solve(A, yr, spec)
        return f, float(np.sum((yr - f.predict(A)) ** 2))

    def build(rows, depth, fit_sse=None):
        f, sse = fit_sse or static_fit_sse(rows)
        node = {"fit": f.to_dict(), "n_rows": len(rows)}
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return node
        Msub = dataset.M[rows]
        sides = [(j, rows[Msub[:, j] == 0], rows[Msub[:, j] == 1])
                 for j in range(dataset.d)]
        splits = [(j, left, right, static_fit_sse(left), static_fit_sse(right))
                  for j, left, right in sides
                  if len(left) >= min_leaf and len(right) >= min_leaf]
        if not splits:
            return node
        j, left, right, fit_l, fit_r = min(splits, key=lambda s: s[3][1] + s[4][1])
        gain = (sse - (fit_l[1] + fit_r[1])) / sse if sse > 0 else 0.0
        if gain < min_gain:
            return node
        node.update(split_feature=j, left=build(left, depth + 1, fit_l),
                    right=build(right, depth + 1, fit_r))
        return node

    return {"type": "partition_tree", "d": dataset.d,
            "root": build(np.arange(dataset.n), 0)}


def partition_tree_predict(doc, X, M, depth=None) -> np.ndarray:
    """Walk each row down a partition_tree document, cut at `depth` if given,
    to its leaf (m_j = 0 left), then a masked dot product per row."""
    out = []
    for x, m in zip(X, M):
        node, level = doc["root"], 0
        while "split_feature" in node and level != depth:
            node = node["left"] if m[node["split_feature"]] == 0 else node["right"]
            level += 1
        fit = node["fit"]
        out.append(fit["intercept"] + masked_dot(fit["coefficients"], x, m))
    return np.array(out, dtype=float)


def mia_predict_row(root, x, m) -> float:
    """Walk one row down an MIA tree from its root MiaNode to a leaf."""
    node = root
    while not node.is_leaf():
        j = node.feature
        if node.threshold is None:  # pure split: missing left, observed right
            node = node.left if m[j] == 1 else node.right
        elif m[j] == 1:
            node = node.left if node.missing_side == "left" else node.right
        else:
            node = node.left if x[j] <= node.threshold else node.right
    return node.prediction


def mia_tree_predict(tree, X, M) -> np.ndarray:
    """One per-node walk per row."""
    return np.array([mia_predict_row(tree.root, x, m)
                     for x, m in zip(X.tolist(), M.tolist())], dtype=float)


def mia_best_split(X, M, y, rows, features, min_leaf):
    """Exhaustive MIA split search: every candidate scored from scratch.

    missfit.learners._best_splits must reproduce it exactly for each node:
    same winner, same impurity, same row arrays in the same order.
    """
    best = None
    for j in features:
        mj = M[rows, j]
        xj = X[rows, j]
        miss = rows[mj == 1]
        obs = rows[mj == 0]
        # pure missing-vs-observed split
        if len(miss) >= min_leaf and len(obs) >= min_leaf:
            imp = _impurity_sums(y[miss]) + _impurity_sums(y[obs])
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
                imp = _impurity_sums(y[left]) + _impurity_sums(y[right])
                if best is None or imp < best[0]:
                    best = (imp, j, float(thr), side, left, right)
    return best


def mia_build(X, M, y, rows, depth, params, rng=None) -> MiaNode:
    """An MIA tree grown recursively, one node at a time in depth-first
    order, by mia_best_split: the order in which a forest's tree draws the
    mtry features of each split from its generator rng."""
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
    parent_imp = _impurity_sums(y[rows])
    best = mia_best_split(X, M, y, rows, features, params.min_leaf)
    if best is None or best[0] >= parent_imp:
        return node
    imp, j, thr, side, left, right = best
    node.feature = j
    node.threshold = thr
    node.missing_side = side
    node.left = mia_build(X, M, y, left, depth + 1, params, rng)
    node.right = mia_build(X, M, y, right, depth + 1, params, rng)
    return node


def mia_forest_roots(dataset, params) -> list[MiaNode]:
    """missfit.learners.fit_forest's trees, grown one after another by
    mia_build from the same bootstrap rows and generators."""
    mtry = params.mtry if params.mtry is not None else int(np.ceil(np.sqrt(dataset.d)))
    sub_params = replace(params, mtry=min(mtry, dataset.d))
    roots = []
    for s in np.random.default_rng(params.seed).integers(0, 2 ** 31, size=params.n_trees):
        rng = np.random.default_rng(int(s))
        rows = rng.integers(0, dataset.n, size=dataset.n)
        roots.append(mia_build(dataset.X, dataset.M, dataset.y, rows, 0, sub_params, rng))
    return roots


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0) for gamma >= 0, where sign(-0.0) is +0.0:
    the threshold that missfit.elasticnet.fit inlines in its loop."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    a = abs(z) - gamma
    if a > 0.0:
        return a if z > 0.0 else -a
    return -0.0 if z < 0.0 else 0.0 if a == a else a


def _np_soft_threshold(z, gamma):
    return float(np.sign(z) * max(abs(z) - gamma, 0.0))


def _enet_objective(r, w, n, lam, alpha, c):
    pen = lam * np.sum(c * (alpha * np.abs(w) + 0.5 * (1 - alpha) * w ** 2))
    return float(0.5 * np.dot(r, r) / n + pen)


def enet_fit(X, y, spec):
    """Cyclic coordinate descent on numpy scalars, one array update per
    coordinate. Standardizes in the layout X comes in; missfit.elasticnet.fit
    matches it on C-order X."""
    from missfit.elasticnet import LinearFit
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    c = spec.penalty_weights
    c = np.ones(p) if c is None else np.asarray(c, dtype=float)
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    scale = np.sqrt(np.mean(Xc ** 2, axis=0))
    active = scale > 1e-12
    s = np.where(active, scale, 1.0)
    Xs = Xc / s
    lam, alpha = spec.lam, spec.alpha
    l1 = lam * alpha * c / s
    l2 = lam * (1 - alpha) * c / (s ** 2)
    wt = np.zeros(p)
    r = yc.copy()
    trace = [_enet_objective(r, wt / s, n, lam, alpha, c)]
    converged = False
    cols = [Xs[:, j] for j in range(p)]
    for _ in range(spec.max_iters):
        max_delta = 0.0
        for j in range(p):
            if not active[j]:
                continue
            xj = cols[j]
            old = wt[j]
            rho = np.dot(xj, r) / n + old
            new = _np_soft_threshold(rho, l1[j]) / (1.0 + l2[j])
            if new != old:
                r -= (new - old) * xj
                wt[j] = new
                max_delta = max(max_delta, abs(new - old))
        trace.append(_enet_objective(r, wt / s, n, lam, alpha, c))
        if max_delta < spec.tol:
            converged = True
            break
    coef = wt / s
    intercept = y_mean - float(np.dot(x_mean, coef))
    return LinearFit(intercept, coef, trace, converged)


def impute_with(dataset, mu) -> np.ndarray:
    """Fill missing entries of X with the per-feature constants mu."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (dataset.d,):
        raise ValueError(f"mu length {mu.shape} != d={dataset.d}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("non-finite imputation values")
    return np.where(dataset.M == 1, mu, dataset.X)


def _coordinate_step(mu, j, sigma_j, predictor, dataset, error_metric,
                     current):
    errors = {0: current}
    for eps in (-1, 1):
        trial = np.array(mu, dtype=float)
        trial[j] += eps * sigma_j
        errors[eps] = error_metric(dataset.y,
                                   predictor.predict(impute_with(dataset, trial)))
    best = min((0, -1, 1), key=lambda e: errors[e])
    return best, errors[best]


def joint_fit(dataset, contract, limits, error_metric, seed=0):
    """missfit.joint.joint_fit with impute_with rebuilding the whole imputed
    matrix for every refit, every error and every trial of mu. A first pass
    that moves no mu ends the fit, as there."""
    mu, imputed = mean_impute(dataset)
    predictor, n_refits = contract(imputed, dataset.y, seed), 1
    n, d = dataset.n, dataset.d
    obs = dataset.M == 0
    counts = obs.sum(axis=0)
    sigma = np.empty(d)
    for j in range(d):
        vals = dataset.X[obs[:, j], j]
        if len(vals) == 0:
            sigma[j] = 1.0
        elif len(vals) == 1:
            sigma[j] = 0.0
        else:
            sigma[j] = float(np.std(vals, ddof=1)) / np.sqrt(n)
    has_missing = counts < n
    current = error_metric(dataset.y, predictor.predict(impute_with(dataset, mu)))
    if not has_missing.any():
        return JointModel(mu, sigma, predictor, [current],
                          n_refits, [], "no_missing")
    trace = [current]
    cycles_per_iter = []
    stop_reason = "max_outer"
    for outer in range(limits.max_outer):
        if outer > 0:
            candidate = contract(impute_with(dataset, mu), dataset.y, seed)
            n_refits += 1
            cand_err = error_metric(dataset.y,
                                    candidate.predict(impute_with(dataset, mu)))
            if cand_err <= current:
                predictor = candidate
                current = cand_err
        iter_start = current
        cycles = 0
        moved = False
        for _ in range(limits.max_cycles):
            cycles += 1
            cycle_start = current
            changed = False
            for j in range(d):
                if sigma[j] == 0.0 or not has_missing[j]:
                    continue
                eps, err = _coordinate_step(mu, j, sigma[j], predictor, dataset,
                                            error_metric, current)
                if eps != 0 and err < current:
                    mu[j] += eps * sigma[j]
                    current = err
                    changed = moved = True
            if not changed:
                break
            rel = ((cycle_start - current) / abs(cycle_start)
                   if cycle_start != 0 else 0.0)
            if rel < limits.min_rel_improve:
                break
        cycles_per_iter.append(cycles)
        trace.append(current)
        rel_outer = ((iter_start - current) / abs(iter_start)
                     if iter_start != 0 else 0.0)
        # a first pass that moved no mu_j: the next refit sees the same
        # matrix, so that pass would replay this one and stop
        if ((outer > 0 or (not moved and outer + 1 < limits.max_outer))
                and rel_outer < limits.min_rel_improve):
            stop_reason = "min_rel_improve"
            break
    return JointModel(mu, sigma, predictor, trace, n_refits,
                      cycles_per_iter, stop_reason)


def kfold_cv(dataset, name, grid, folds, seed, task="regression"):
    """missfit.bench.kfold_cv point by point: every grid point is fitted on
    its own in every fold, no fit is shared, and a best-so-far scan with a
    strict > keeps the earliest of equals."""
    if dataset.n < folds:
        raise ValueError("need n >= folds")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    chunks = np.array_split(perm, folds)
    splits = [(dataset.subset(np.concatenate(chunks[:f] + chunks[f + 1:])),
               chunks[f]) for f in range(folds)]
    best = None
    for params in grid:
        scores = []
        for train, val in splits:
            model = bench.fit_method(name, train, params, seed, task)
            yhat = model.predict(dataset.X[val], dataset.M[val])
            try:
                scores.append(bench._score(dataset.y[val], yhat, task))
            except ValueError:  # degenerate fold (constant / one-class)
                continue
        mean_score = float(np.mean(scores)) if scores else -np.inf
        if best is None or mean_score > best[1]:
            best = (params, mean_score)
    return best
