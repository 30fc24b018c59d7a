"""Adaptive linear regression: coefficients that react to the missingness pattern.

The model hierarchy, from least to most expressive. A mode is its name, a
plain string, which the method table and the saved documents spell the same:

  static            z_j = (1-m_j) x_j only                         (d columns)
  affine_intercept  z ++ m                                         (2d columns)
  affine            z ++ m ++ {m_k z_j : k != j}                   (d + d^2 columns)
  polynomial<t>     z ++ mask monomials ++ z times mask monomials  (t >= 1)
  fully_adaptive    one static model per observed pattern

The intercept is treated as a constant, never-missing pseudo-feature, so the
affine expansion carries the raw mask indicators (its identically-zero
diagonal interactions m_j z_j are dropped, keeping the column count at
d + d^2). Each expansion's columns are a superset of the previous one's, so
in-sample error is monotone along the hierarchy at lambda = 0.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .core import MaskedDataset, batch, check_int, check_real, unique_patterns
from .elasticnet import ElasticNetSpec, LinearFit, fit as enet_fit, support_penalty_weights


STATIC = "static"
AFFINE_INTERCEPT = "affine_intercept"
AFFINE = "affine"
FULLY_ADAPTIVE = "fully_adaptive"


@functools.lru_cache(maxsize=None)  # holds valid (mode, d) pairs only
def _degree(mode, d: int) -> int:
    """The monomial degree t <= d of mode "affine" (1) or "polynomial<t>"."""
    name = isinstance(mode, str) and re.fullmatch("affine|polynomial([1-9][0-9]*)", mode)
    if not name:
        raise ValueError(f"unknown expansion mode {mode!r}")
    if (t := int(name[1] or 1)) > d:
        raise ValueError(f"polynomial degree {t} exceeds d={d}")
    return t


@functools.lru_cache(maxsize=None)
def _terms(d: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Index table (jp, J) of the expansion columns after the z block, each
    z_jp * prod(m_J): the mask monomials (jp = d), then the interactions by
    observed feature jp. J has size 1..t in (size, lex) order, padded with d;
    index d is a constant-1 column of both z and m."""
    sets = [J for size in range(1, t + 1)
            for J in itertools.combinations(range(d), size)]
    terms = [(d, J) for J in sets] + [(jp, J) for jp in range(d)
                                      for J in sets if jp not in J]
    jp = np.array([j for j, _ in terms])
    J = np.array([J + (d,) * (t - len(J)) for _, J in terms])
    return jp, J


def expansion_size(d: int, mode: str) -> int:
    if mode == STATIC:
        return d
    if mode == AFFINE_INTERCEPT:
        return 2 * d
    return d + len(_terms(d, _degree(mode, d))[0])


def expand_matrix(X, M, mode: str) -> np.ndarray:
    """Expanded design of the rows of X with mask M: the z block (x with
    masked slots zeroed), then the columns listed by _terms."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if X.shape != M.shape:
        raise ValueError(f"X shape {X.shape} != M shape {M.shape}")
    d = X.shape[1]
    Z = np.where(M == 1, 0.0, X)  # kill stored values at missing slots
    if mode == STATIC:
        return Z
    if mode == AFFINE_INTERCEPT:
        return np.column_stack([Z, M])
    t = _degree(mode, d)
    jp, J = _terms(d, t)
    one = np.ones((len(X), 1))
    M1 = np.hstack([M, one])
    terms = M1[:, J[:, 0]]  # prod(m_J), one factor at a time: no (n, K, t) array
    for k in range(1, t):
        terms *= M1[:, J[:, k]]
    terms *= np.hstack([Z, one])[:, jp]
    return np.column_stack([Z, terms])


def _per_row_fits(M, fit_of) -> tuple[np.ndarray, np.ndarray]:
    """Per-row intercepts and coefficient rows, where fit_of(pattern) is the
    LinearFit that serves the rows with that missingness pattern; it is
    called once per distinct pattern of the batch."""
    keys = list(map(tuple, M.astype(np.int8, copy=False).tolist()))
    fits = {p: fit_of(p) for p in dict.fromkeys(keys)}
    per_row = [fits[p] for p in keys]
    b = np.array([f.intercept for f in per_row], dtype=float)
    W = np.array([f.coefficients for f in per_row], dtype=float)
    return b, W.reshape(M.shape)


@dataclass
class AdaptiveModel:
    mode: str
    d: int
    fit: LinearFit | None  # None for fully adaptive
    pattern_fits: dict[tuple[int, ...], LinearFit] | None = None
    fallback: LinearFit | None = None  # static model for unseen patterns

    @property
    def expansion_size(self) -> int:
        """Columns of the design; for fully adaptive, the number of pattern fits."""
        if self.mode == FULLY_ADAPTIVE:
            return len(self.pattern_fits)
        return len(self.fit.coefficients)

    def predict_matrix(self, X, M) -> np.ndarray:
        X, M = batch(X, M, self.d)
        if self.mode == FULLY_ADAPTIVE:
            b, W = _per_row_fits(
                M, lambda p: self.pattern_fits.get(p, self.fallback))
            Z = np.where(M == 1, 0.0, X)
            # one dot product per row, rounded as Z[i] @ w is; a single
            # matrix-vector product accumulates in another order
            return b + np.matmul(Z[:, None, :], W[:, :, None])[:, 0, 0]
        return self.fit.predict(expand_matrix(X, M, self.mode))

    def predict(self, X, M) -> np.ndarray:
        # The body stays under predict_matrix, the name the benchmark binds.
        return self.predict_matrix(X, M)

    def to_dict(self) -> dict:
        doc = {"type": "adaptive", "mode": self.mode, "d": self.d,
               "expansion_size": self.expansion_size}
        if self.mode == FULLY_ADAPTIVE:
            doc["patterns"] = [{"bits": list(k), "fit": v.to_dict()}
                               for k, v in self.pattern_fits.items()]
            doc["fallback"] = self.fallback.to_dict()
        else:
            doc["fit"] = self.fit.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc) -> AdaptiveModel:
        mode, d = doc["mode"], doc["d"]
        check_int("d", d, 1)
        if mode == FULLY_ADAPTIVE:
            pats = {tuple(p["bits"]): LinearFit.from_dict(p["fit"])
                    for p in doc["patterns"]}
            if any(len(k) != d or not set(k) <= {0, 1} for k in pats):
                raise ValueError(f"pattern bits are not {d} zeros and ones")
            model = cls(mode, d, None, pats, LinearFit.from_dict(doc["fallback"]))
            fits, size = [model.fallback, *pats.values()], d
        else:
            model = cls(mode, d, LinearFit.from_dict(doc["fit"]))
            fits, size = [model.fit], expansion_size(d, mode)
        if any(len(f.coefficients) != size for f in fits):
            raise ValueError(f"{mode} fit without {size} coefficients")
        return model


def fit_adaptive(dataset: MaskedDataset, mode: str,
                 spec: ElasticNetSpec) -> AdaptiveModel:
    """Fit one model from the hierarchy by penalized least squares, with the
    support weights of _solve unless the spec pins penalty_weights."""
    if dataset.n < 1:
        raise ValueError("empty dataset")
    if mode == FULLY_ADAPTIVE:
        Z, y = expand_matrix(dataset.X, dataset.M, STATIC), dataset.y
        pattern_fits = {pattern: _solve(Z[rows], y[rows], spec)
                        for pattern, rows in unique_patterns(dataset.M)}
        return AdaptiveModel(mode, dataset.d, None, pattern_fits,
                             _solve(Z, y, spec))
    A = expand_matrix(dataset.X, dataset.M, mode)
    return AdaptiveModel(mode, dataset.d, _solve(A, dataset.y, spec))


_SOLVES: dict | None = None  # key -> (intercept, coefficients, trace, converged)


@contextmanager
def shared_solves():
    """Within the block, _solve solves each distinct problem (the bytes of
    design and target, the spec) once; a repeat gets a new LinearFit of the
    first solve's numbers. The outer block's cache is restored on exit."""
    global _SOLVES
    outer, _SOLVES = _SOLVES, {}
    try:
        yield
    finally:
        _SOLVES = outer


def _solve(A, y, spec: ElasticNetSpec) -> LinearFit:
    """The elastic-net fit of y on design A. Unless the spec pins
    penalty_weights, they are A's support weights (sparser columns get
    penalized more)."""
    pinned = spec.penalty_weights
    if pinned is None:
        spec = replace(spec, penalty_weights=support_penalty_weights(A))
    if _SOLVES is None:
        return enet_fit(A, y, spec)
    A = np.ascontiguousarray(A, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    digest = hashlib.blake2b(A)
    digest.update(y)
    key = (A.shape, digest.digest(), spec.lam, spec.alpha, spec.max_iters,
           spec.tol, None if pinned is None else pinned.tobytes())
    if (entry := _SOLVES.get(key)) is None:
        f = enet_fit(A, y, spec)
        _SOLVES[key] = (f.intercept, f.coefficients.copy(),
                        np.array(f.objective_trace), f.converged)
        return f
    intercept, coefficients, trace, converged = entry
    return LinearFit(intercept, coefficients.copy(), trace.tolist(), converged)


def extract_imputation(model: AdaptiveModel) -> tuple[np.ndarray, np.ndarray]:
    """Read off the implied constant imputation from an affine-intercept fit.

    mu_j = (coefficient of m_j) / (coefficient of z_j). Entries where the z
    coefficient is (numerically) zero are flagged invalid: there the model
    uses the missingness indicator directly, not an imputed value.
    """
    if model.mode != AFFINE_INTERCEPT:
        raise ValueError("imputation extraction requires an affine_intercept model")
    d = model.d
    w = model.fit.coefficients[:d]
    b = model.fit.coefficients[d:2 * d]
    valid = np.abs(w) >= 1e-8
    mu = np.where(valid, b / np.where(valid, w, 1.0), 0.0)
    return mu, valid


# ---------------------------------------------------------------------------
# Finitely adaptive regression: recursive partitioning of pattern space.

@dataclass
class TreeNode:
    fit: LinearFit
    n_rows: int
    split_feature: int | None = None  # None at leaves
    left: "TreeNode | None" = None    # m_j = 0 branch
    right: "TreeNode | None" = None   # m_j = 1 branch

    def to_dict(self) -> dict:
        doc = {"fit": self.fit.to_dict(), "n_rows": self.n_rows}
        if self.split_feature is not None:
            doc["split_feature"] = self.split_feature
            doc["left"] = self.left.to_dict()
            doc["right"] = self.right.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc, d: int) -> TreeNode:
        """A node of a model file: a fit of d coefficients, a split in [0, d)."""
        check_int("n_rows", doc["n_rows"], 1)
        node = cls(LinearFit.from_dict(doc["fit"]), doc["n_rows"])
        if len(node.fit.coefficients) != d:
            raise ValueError(f"partition fit without {d} coefficients")
        if "split_feature" in doc:
            j = doc["split_feature"]
            check_int("split_feature", j, 0)
            if j >= d:
                raise ValueError(f"split_feature {j} outside [0, {d})")
            node.split_feature = j
            node.left = cls.from_dict(doc["left"], d)
            node.right = cls.from_dict(doc["right"], d)
        return node


@dataclass
class PartitionTree:
    root: TreeNode
    d: int

    def route(self, m) -> TreeNode:
        node = self.root
        while node.split_feature is not None:
            node = node.left if m[node.split_feature] == 0 else node.right
        return node

    def predict_matrix(self, X, M) -> np.ndarray:
        X, M = batch(X, M, self.d)
        b, W = _per_row_fits(M, lambda p: self.route(p).fit)
        return b + np.sum(W * np.where(M == 1, 0.0, X), axis=1)

    def predict(self, X, M) -> np.ndarray:
        # The body stays under predict_matrix, the name the benchmark binds.
        return self.predict_matrix(X, M)

    def leaves(self) -> list[TreeNode]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.split_feature is None:
                out.append(node)
            else:
                stack.extend([node.right, node.left])
        return out

    def to_dict(self) -> dict:
        return {"type": "partition_tree", "d": self.d, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, doc) -> PartitionTree:
        check_int("d", doc["d"], 1)
        return cls(TreeNode.from_dict(doc["root"], doc["d"]), doc["d"])


def finite_limits(max_depth, min_leaf, min_gain=1e-3) -> dict:
    """The stopping limits of fit_finite_adaptive as its keywords, checked."""
    check_int("max_depth", max_depth, 0)
    check_int("min_leaf", min_leaf, 1)
    check_real("min_gain", min_gain, 0)
    return {"max_depth": max_depth, "min_leaf": min_leaf, "min_gain": min_gain}


def fit_finite_adaptive(dataset: MaskedDataset, spec: ElasticNetSpec,
                        max_depth: int = 4, min_leaf: int = 20,
                        min_gain: float = 1e-3) -> PartitionTree:
    """Greedy recursive partitioning of missingness-pattern space.

    Each candidate split tests one feature's missingness bit; both sides get
    a static model fitted on their rows of the static design (expanded once)
    and the feature with the lowest summed in-sample squared error wins
    (lowest index on ties); its two fits become the children's models
    without a refit. Splits stop at max_depth, when a side would drop below
    min_leaf rows, or when the relative error reduction falls below min_gain.
    """
    finite_limits(max_depth, min_leaf, min_gain)
    Z, y = expand_matrix(dataset.X, dataset.M, STATIC), dataset.y

    def static_fit_sse(rows: np.ndarray):
        A, yr = Z[rows], y[rows]
        f = _solve(A, yr, spec)
        return f, float(np.sum((yr - f.predict(A)) ** 2))

    def build(rows: np.ndarray, depth: int, fit_sse=None) -> TreeNode:
        f, sse = fit_sse or static_fit_sse(rows)
        node = TreeNode(fit=f, n_rows=len(rows))
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return node
        best = None  # (sse, j, left_rows, right_rows, fl, sl, fr, sr)
        Msub = dataset.M[rows]
        for j in range(dataset.d):
            left = rows[Msub[:, j] == 0]
            right = rows[Msub[:, j] == 1]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            fl, sl = static_fit_sse(left)
            fr, sr = static_fit_sse(right)
            if best is None or sl + sr < best[0]:
                best = (sl + sr, j, left, right, fl, sl, fr, sr)
        if best is None:
            return node
        total, j, left, right, fl, sl, fr, sr = best
        gain = (sse - total) / sse if sse > 0 else 0.0
        if gain < min_gain:
            return node
        node.split_feature = j
        node.left = build(left, depth + 1, (fl, sl))
        node.right = build(right, depth + 1, (fr, sr))
        return node

    root = build(np.arange(dataset.n), 0)
    return PartitionTree(root, dataset.d)


# ---------------------------------------------------------------------------
# JSON text of the documents above; the benchmark's tracer binds these by name.

def model_to_json(model: AdaptiveModel) -> str:
    return json.dumps(model.to_dict(), indent=1)


def model_from_json(text: str) -> AdaptiveModel:
    return AdaptiveModel.from_dict(json.loads(text))


def tree_to_json(tree: PartitionTree) -> str:
    return json.dumps(tree.to_dict(), indent=1)


def tree_from_json(text: str) -> PartitionTree:
    return PartitionTree.from_dict(json.loads(text))
