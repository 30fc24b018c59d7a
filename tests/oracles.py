"""Reference forms of the array code in missfit.adaptive and missfit.core.

These are the per-row and per-column loops the package used before its
whole-array forms; tests compare the package against them bit for bit.
"""

import itertools

import numpy as np

from missfit.core import DatasetError


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
