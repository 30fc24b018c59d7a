"""Cyclic coordinate descent for l1-l2 penalized least squares.

Minimizes, in the original (unstandardized) coordinates,

    (1/2n) ||y - b - X w||^2 + lambda * sum_j c_j (alpha |w_j| + (1-alpha)/2 w_j^2)

where b is an unpenalized intercept, fitted in every problem, and c_j are
per-feature penalty multipliers. Columns are standardized internally for
conditioning; the penalty weights are rescaled so the objective above is
optimized exactly, and coefficients are transformed back on exit.

Five steps are pinned so that results keep their bits (results CSVs and the
benchmark's references are compared byte for byte):
  - each rho is Xs[:, j].dot(r) on the strided view of the C-order Xs (the
    BLAS ddot np.dot calls, without its dispatcher), which OpenBLAS rounds
    unlike a unit-stride dot;
  - the soft threshold is inlined as a = |z| - g, then +-a if a > 0, else a
    zero signed as z (+0.0 for z = -0.0), or a where a is NaN;
  - the residual update is buf = x_j * delta, then r -= buf;
  - the objective trace is evaluated on C-order blocks of 64 sweeps, whose
    rows np.add.reduce(axis=1) sums as the 1-d call does;
  - a visit that provably leaves a coefficient at +-0 is skipped. S sums
    |delta| cn_k over updates (cn: computed column RMS), so x_j . r / n moves
    by at most cn_j (S - S0) after a dead-zone visit at S0 that saw a = |z| - g;
    |z| <= g holds while S < T_j = (S0 - (a + m_j) / cn_j)(1 - e). With
    e = 8u (n + p max_iters) <= 1, u = 2^-53, m_j = e (g + cn_j ||r0|| / sqrt(n))
    covers two dots (n u each), the division and p max_iters residual updates,
    as ||r|| <= ||r0|| (the objective falls); 1 - e covers S. NaN never skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_finite, check_int, check_real


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
        check_finite("intercept", doc["intercept"])
        check_finite("coefficients", *doc["coefficients"])
        if not isinstance(converged := doc.get("converged", True), bool):
            raise ValueError("converged: must be true or false")
        return cls(float(doc["intercept"]), np.array(doc["coefficients"], dtype=float),
                   [], converged)


def _objectives(W, rr, s, n, lam, alpha, c) -> list[float]:
    w = W / s  # one row of original-scale coefficients per sweep
    pen = c * (alpha * np.abs(w) + 0.5 * (1 - alpha) * w ** 2)
    return (0.5 * rr / n + lam * np.add.reduce(pen, axis=1)).tolist()


def fit(X, y, spec: ElasticNetSpec) -> LinearFit:
    """Solve the penalized least-squares problem by cyclic coordinate descent.

    Coordinates are visited in fixed ascending order. Convergence is declared
    when the largest standardized-coefficient change in a sweep drops below
    spec.tol; hitting max_iters flags the fit as non-converged instead of
    raising.
    """
    X = np.ascontiguousarray(X, dtype=float)  # reductions round by layout
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or not y.size:
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
    W, rr, trace = np.empty((64, p)), np.empty(64), []  # (wt, r . r) per sweep
    W[0], rr[0], k = wt, np.dot(r, r), 1  # row 0: the start point
    idx = np.flatnonzero(active).tolist()
    e = min(n + p * int(spec.max_iters), 2 ** 50) * 2.0 ** -50  # 8u (n + p max_iters)
    cn, rms0 = np.sqrt(np.mean(Xs ** 2, axis=0)).tolist(), float(np.sqrt(rr[0] / n))
    Xf = np.asfortranarray(Xs)
    coords = [(j, Xs[:, j].dot, Xf[:, j], l1[j], shrink[j], cn[j],
               e * (l1[j] + cn[j] * rms0)) for j in idx]
    multiply, subtract, buf = np.multiply, np.subtract, np.empty(n)
    S, T, q = 0.0, [0.0] * p, 1.0 - e  # the drift sum and skip thresholds
    for _ in range(spec.max_iters):
        max_delta = 0.0
        for j, xdot, xf, g, h, cj, mj in coords:
            old = wt[j]
            if old == 0.0 and S < T[j]:
                continue
            # z = x_j . r / n + old, as the columns have unit mean square;
            # new = sign(z) * max(|z| - g, 0) / h, with sign(-0.0) = +0.0
            z = float(xdot(r)) / n + old
            a = abs(z) - g
            if a > 0.0:
                new = (a if z > 0.0 else -a) / h
            else:
                new = -0.0 if z < 0.0 else 0.0 if a == a else a / h
                T[j] = (S - (a + mj) / cj) * q
            if new != old:
                delta = new - old
                multiply(xf, delta, buf)
                subtract(r, buf, r)
                wt[j] = new
                S += (step := abs(delta)) * cj
                if step > max_delta:
                    max_delta = step
        if k == 64:  # the block is full: its objectives go into trace
            trace += _objectives(W, rr, s, n, lam, alpha, c)
            k = 0
        W[k], rr[k] = wt, np.dot(r, r)
        k += 1
        if max_delta < spec.tol:
            break
    trace += _objectives(W[:k], rr[:k], s, n, lam, alpha, c)

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
