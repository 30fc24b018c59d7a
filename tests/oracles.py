"""Reference forms of the array code in missfit.adaptive, missfit.core,
missfit.elasticnet, missfit.joint and missfit.learners.

These are the per-row and per-column loops the package used before its
whole-array forms, the per-node walk of an MIA tree before its flat routing,
the coordinate-descent loop before its leaner one, and the joint fit that
rebuilt its whole imputed matrix (impute_with) for every trial; tests
compare the package against them bit for bit.
"""

import itertools

import numpy as np

from missfit.core import DatasetError
from missfit.joint import JointModel
from missfit.learners import mean_impute


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


def partition_tree_predict(tree, X, M) -> np.ndarray:
    """Route each row to its leaf, then a masked dot product per row."""
    out = []
    for x, m in zip(X, M):
        leaf = tree.route(m)
        out.append(leaf.fit.intercept + masked_dot(leaf.fit.coefficients, x, m))
    return np.array(out)


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
    matrix for every refit, every error and every trial of mu."""
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
                    changed = True
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
        if outer > 0 and rel_outer < limits.min_rel_improve:
            stop_reason = "min_rel_improve"
            break
    return JointModel(mu, sigma, predictor, trace, n_refits,
                      cycles_per_iter, stop_reason)
