"""Cyclic coordinate descent for l1-l2 penalized least squares.

Minimizes, in the original (unstandardized) coordinates,

    (1/2n) ||y - b - X w||^2 + lambda * sum_j c_j (alpha |w_j| + (1-alpha)/2 w_j^2)

where b is an unpenalized intercept, fitted in every problem, and c_j are
per-feature penalty multipliers. Columns are standardized internally for
conditioning; the penalty weights are rescaled so the objective above is
optimized exactly, and coefficients are transformed back on exit.

Two steps are pinned so that results keep their bits (results CSVs and the
benchmark's references are compared byte for byte): each rho is np.dot on
the strided view Xs[:, j] of the C-order Xs, which OpenBLAS rounds unlike a
unit-stride dot, and the residual update is buf = x_j * delta, then r -= buf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_int, check_real


@dataclass(frozen=True)
class ElasticNetSpec:
    lam: float = 0.0
    alpha: float = 1.0
    penalty_weights: np.ndarray | None = None  # length-p, 1.0 = standard
    max_iters: int = 10_000
    tol: float = 1e-7

    def __post_init__(self):
        check_real("lam", self.lam, 0)
        check_real("alpha", self.alpha, 0, 1)
        check_real("tol", self.tol, 0)
        check_int("max_iters", self.max_iters, 1)
        if self.penalty_weights is not None:
            w = np.asarray(self.penalty_weights, dtype=float)
            if np.any(~np.isfinite(w)) or np.any(w < 0):
                raise ValueError("penalty_weights must be finite and >= 0")
            object.__setattr__(self, "penalty_weights", w)


@dataclass
class LinearFit:
    intercept: float
    coefficients: np.ndarray
    objective_trace: list[float]
    converged: bool = True

    def predict(self, X) -> np.ndarray:
        return self.intercept + np.asarray(X, dtype=float) @ self.coefficients

    def to_dict(self) -> dict:
        return {"intercept": self.intercept,
                "coefficients": list(map(float, self.coefficients)),
                "converged": self.converged}

    @classmethod
    def from_dict(cls, doc) -> LinearFit:
        return cls(float(doc["intercept"]), np.array(doc["coefficients"], dtype=float),
                   [], doc.get("converged", True))


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0) for gamma >= 0, where sign(-0.0) is +0.0."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    a = abs(z) - gamma
    if a > 0.0:
        return a if z > 0.0 else -a
    return -0.0 if z < 0.0 else 0.0 if a == a else a


def _objective(r, w, n, lam, alpha, c):
    pen = lam * np.add.reduce(c * (alpha * np.abs(w) + 0.5 * (1 - alpha) * w ** 2))
    return float(0.5 * np.dot(r, r) / n + pen)


def fit(X, y, spec: ElasticNetSpec) -> LinearFit:
    """Solve the penalized least-squares problem by cyclic coordinate descent.

    Coordinates are visited in fixed ascending order. Convergence is declared
    when the largest standardized-coefficient change in a sweep drops below
    spec.tol; hitting max_iters flags the fit as non-converged instead of
    raising.
    """
    X = np.ascontiguousarray(X, dtype=float)  # reductions round by layout
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be n x p and y length n")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
    n, p = X.shape
    c = np.ones(p) if spec.penalty_weights is None else spec.penalty_weights
    if c.shape != (p,):
        raise ValueError(f"penalty_weights length {c.shape} != p={p}")

    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xs = X - x_mean  # centred here, scaled in place below: one n x p copy
    scale = np.sqrt(np.mean(Xs ** 2, axis=0))
    active = scale > 1e-12  # zero-variance columns stay at coefficient 0
    s = np.where(active, scale, 1.0)
    Xs /= s

    # Penalties on original-scale w_j translate to weights c_j/s_j (l1) and
    # c_j/s_j^2 (l2) on the standardized coefficient w_j * s_j.
    lam, alpha = spec.lam, spec.alpha
    l1 = (lam * alpha * c / s).tolist()
    shrink = (1.0 + lam * (1 - alpha) * c / (s ** 2)).tolist()

    wt = [0.0] * p  # standardized-space coefficients
    r = y - y_mean  # residual, updated in place
    trace = [_objective(r, np.array(wt) / s, n, lam, alpha, c)]
    idx = np.flatnonzero(active).tolist()
    Xf = np.asfortranarray(Xs)
    coords = [(j, Xs[:, j], Xf[:, j], l1[j], shrink[j]) for j in idx]
    dot, multiply, subtract, buf = np.dot, np.multiply, np.subtract, np.empty(n)
    for _ in range(spec.max_iters):
        max_delta = 0.0
        for j, xj, xf, g, h in coords:
            old = wt[j]
            # rho = x_j . r / n + old, as the columns have unit mean square
            new = soft_threshold(float(dot(xj, r)) / n + old, g) / h
            if new != old:
                delta = new - old
                multiply(xf, delta, out=buf)
                subtract(r, buf, out=r)
                wt[j] = new
                max_delta = max(max_delta, abs(delta))
        trace.append(_objective(r, np.array(wt) / s, n, lam, alpha, c))
        if max_delta < spec.tol:
            break

    coef = np.array(wt) / s
    intercept = y_mean - float(np.dot(x_mean, coef))
    return LinearFit(intercept, coef, trace, max_delta < spec.tol)


def support_penalty_weights(X) -> np.ndarray:
    """Per-column penalty multipliers n / #nonzero, clamped to [1, 100]; a
    column with no nonzero entry gets 100.

    Sparse columns (few nonzero entries) carry proportionally fewer effective
    samples, so their coefficients are penalized more.
    """
    X = np.asarray(X, dtype=float)
    support = np.count_nonzero(X, axis=0)
    w = np.where(support > 0, X.shape[0] / np.maximum(support, 1), 100.0)
    return np.clip(w, 1.0, 100.0)


def lambda_max(X, y, alpha: float) -> float:
    """Smallest lambda zeroing all coefficients under unit penalty weights."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    grad = np.abs((X - X.mean(axis=0)).T @ (y - y.mean())) / X.shape[0]
    # with alpha = 0 nothing is ever exactly zeroed; use the lasso scale
    return float(grad.max() / max(alpha, 1e-3))
