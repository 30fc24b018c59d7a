"""Adaptive linear regression: coefficients that react to the missingness pattern.

The model hierarchy, from least to most expressive. A mode is its name, a
plain string, which the method table and the saved documents spell the same:

  static            z_j = (1-m_j) x_j only                         (d columns)
  affine_intercept  z ++ m                                         (2d columns)
  affine            polynomial1: z ++ m ++ {m_k z_j : k != j}      (d + d^2 columns)
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
import itertools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .core import (MaskedDataset, batch, check_int, check_real, json_reader, to_json,
                   unique_patterns)
from .elasticnet import ElasticNetSpec, LinearFit, fit as enet_fit, support_penalty_weights


STATIC = "static"
AFFINE_INTERCEPT = "affine_intercept"
AFFINE = "affine"
FULLY_ADAPTIVE = "fully_adaptive"


def _degree(mode, d: int) -> int:
    """The largest mask-monomial size t of mode's columns, checked against d."""
    name = isinstance(mode, str) and re.fullmatch(
        "static|affine_intercept|affine|polynomial([1-9][0-9]*)", mode)
    if not name:
        raise ValueError(f"unknown expansion mode {mode!r}")
    if mode in (STATIC, AFFINE_INTERCEPT):
        return int(mode == AFFINE_INTERCEPT)
    if (t := int(name[1] or 1)) > d:
        raise ValueError(f"polynomial degree {t} exceeds d={d}")
    return t


@functools.lru_cache(maxsize=None)  # holds valid (mode, d) pairs only
def _terms(mode, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index table (jp, J) of every mode's columns after the z block, each
    z_jp * prod(m_J): the mask monomials (jp = d), then the interactions by
    observed feature jp. J has size 1..t in (size, lex) order, padded with d;
    index d is a constant-1 column of both z and m. static lists no column,
    affine_intercept the d masks only (t = 1), and affine is polynomial1."""
    t = _degree(mode, d)
    sets = [J for size in range(1, t + 1)
            for J in itertools.combinations(range(d), size)]
    terms = [(d, J) for J in sets]
    if mode != AFFINE_INTERCEPT:
        terms += [(jp, J) for jp in range(d) for J in sets if jp not in J]
    jp = np.array([j for j, _ in terms], dtype=np.intp)
    J = np.array([J + (d,) * (t - len(J)) for _, J in terms], dtype=np.intp)
    return jp, J.reshape(len(terms), max(t, 1))


def expansion_size(d: int, mode: str, most=math.inf) -> int:
    """Columns of mode's design on d features, as _terms lists them: z, then
    per size s, C(d, s) mask monomials and, but for affine_intercept,
    d * C(d - 1, s) interactions. The count stops once it passes `most`."""
    size = d
    for s in range(1, _degree(mode, d) + 1):
        if size > most:
            break
        size += math.comb(d, s) + d * math.comb(d - 1, s) * (mode != AFFINE_INTERCEPT)
    return size


def expand_matrix(X, M, mode: str) -> np.ndarray:
    """Expanded design of the rows of X with mask M: the z block (x with
    masked slots zeroed), then the columns listed by _terms."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if X.shape != M.shape:
        raise ValueError(f"X shape {X.shape} != M shape {M.shape}")
    jp, J = _terms(mode, X.shape[1])
    Z = np.where(M == 1, 0.0, X)  # kill stored values at missing slots
    one = np.ones((len(X), 1))
    M1 = np.hstack([M, one])
    terms = M1[:, J[:, 0]]  # prod(m_J), one factor at a time: no (n, K, t) array
    for k in range(1, J.shape[1]):
        terms *= M1[:, J[:, k]]
    terms *= np.hstack([Z, one])[:, jp]
    return np.column_stack([Z, terms])


class PatternFits(Mapping):
    """A fully adaptive model's fit per training pattern, keyed by the
    pattern's bits in order of first appearance. A fit is solved from the
    pattern's rows of the static design Z when it is first read, so a
    pattern that no prediction reads costs no solve; `p in fits` solves
    nothing."""

    def __init__(self, Z, y, spec: ElasticNetSpec, groups):
        self._Z, self._y, self._spec = Z, y, spec
        self._rows = dict(groups)
        self._fits = {}

    def __getitem__(self, pattern) -> LinearFit:
        if (f := self._fits.get(pattern)) is None:
            rows = self._rows[pattern]
            f = self._fits[pattern] = _solve(self._Z[rows], self._y[rows], self._spec)
        return f

    def __contains__(self, pattern) -> bool:
        return pattern in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class AdaptiveModel:
    """A model of the hierarchy. A fully adaptive model has no single fit:
    its pattern_fits (a PatternFits after fit_adaptive, a dict after
    from_dict) serve the patterns of its training rows, and its fallback
    serves any other pattern."""
    mode: str
    d: int
    fit: LinearFit | None  # None for fully adaptive
    pattern_fits: Mapping[tuple[int, ...], LinearFit] | None = None
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
            keys = list(map(tuple, M.astype(np.int8, copy=False).tolist()))
            fits = {p: self.pattern_fits.get(p, self.fallback)
                    for p in dict.fromkeys(keys)}  # one ask per distinct pattern
            b = np.array([fits[p].intercept for p in keys], dtype=float)
            W = np.array([fits[p].coefficients for p in keys],
                         dtype=float).reshape(M.shape)
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
            pats = {}
            for p in doc["patterns"]:
                k = tuple(p["bits"])
                if len(k) != d or not all(type(b) is int and b in (0, 1) for b in k):
                    raise ValueError(f"pattern bits are not {d} zeros and ones")
                if k in pats:
                    raise ValueError(f"pattern {list(k)} is listed twice")
                pats[k] = LinearFit.from_dict(p["fit"])
            model = cls(mode, d, None, pats, LinearFit.from_dict(doc["fallback"]))
            fits, size = [model.fallback, *pats.values()], d
        else:
            model = cls(mode, d, LinearFit.from_dict(doc["fit"]))
            fits, size = [model.fit], expansion_size(d, mode, len(model.fit.coefficients))
        if any(len(f.coefficients) != size for f in fits):
            raise ValueError(f"{mode} fit without {size} coefficients")
        return model


def fit_adaptive(dataset: MaskedDataset, mode: str,
                 spec: ElasticNetSpec) -> AdaptiveModel:
    """Fit one model from the hierarchy by penalized least squares, with the
    support weights of _solve unless the spec pins penalty_weights. A fully
    adaptive fit solves its fallback on all rows here, and each pattern's
    fit on that pattern's rows when it is first read (PatternFits)."""
    if mode == FULLY_ADAPTIVE:
        Z, y = expand_matrix(dataset.X, dataset.M, STATIC), dataset.y
        return AdaptiveModel(mode, dataset.d, None,
                             PatternFits(Z, y, spec, unique_patterns(dataset.M)),
                             _solve(Z, y, spec))
    A = expand_matrix(dataset.X, dataset.M, mode)
    return AdaptiveModel(mode, dataset.d, _solve(A, dataset.y, spec))


def _solve(A, y, spec: ElasticNetSpec) -> LinearFit:
    """The elastic-net fit of y on design A. Unless the spec pins
    penalty_weights, they are A's support weights (sparser columns get
    penalized more)."""
    if spec.penalty_weights is None:
        spec = replace(spec, penalty_weights=support_penalty_weights(A))
    return enet_fit(A, y, spec)


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

class PartitionTree:
    """A finite partition of pattern space as one flat node table, root
    first, a parent before its children. Node i has fits[i], n_rows[i], its
    split feature feature[i] (-1 at a leaf) and its child pair child[i]:
    the m_j = 0 child, then the m_j = 1 child; a leaf is its own child. A
    batch descends the table in whole-array steps, one per level."""

    def __init__(self, d: int, nodes):
        """nodes: one [fit, n_rows, feature, child_0, child_1] per node."""
        self.d, self.fits = d, [n[0] for n in nodes]
        self.n_rows = [n[1] for n in nodes]
        self.feature = np.array([n[2] for n in nodes], dtype=np.intp)
        self.child = np.array([n[3:] for n in nodes], dtype=np.intp)
        self._b = np.array([f.intercept for f in self.fits], dtype=float)
        self._W = np.array([f.coefficients for f in self.fits],
                           dtype=float).reshape(len(nodes), d)
        level = [0] * len(nodes)
        for i, (_, _, j, c0, c1) in enumerate(nodes):
            if j >= 0:
                level[c0] = level[c1] = level[i] + 1
        self.levels = max(level)

    def predict_matrix(self, X, M, depth=None) -> np.ndarray:
        X, M = batch(X, M, self.d)
        node, rows = np.zeros(len(M), dtype=np.intp), np.arange(len(M))
        steps = self.levels if depth is None else min(depth, self.levels)
        for _ in range(steps):  # a row at a leaf steps to itself
            node = self.child[node, M[rows, self.feature[node]].astype(np.intp)]
        return self._b[node] + np.sum(self._W[node] * np.where(M == 1, 0.0, X), axis=1)

    def predict(self, X, M, depth=None) -> np.ndarray:
        # The body stays under predict_matrix, the name the benchmark binds.
        return self.predict_matrix(X, M, depth)

    def leaves(self) -> np.ndarray:
        """The leaves' node indices, in depth-first order (m_j = 0 first)."""
        return np.flatnonzero(self.feature < 0)

    def to_dict(self) -> dict:
        feature, child = self.feature.tolist(), self.child.tolist()

        def node(i) -> dict:
            doc = {"fit": self.fits[i].to_dict(), "n_rows": self.n_rows[i]}
            if feature[i] >= 0:
                doc["split_feature"] = feature[i]
                doc["left"], doc["right"] = map(node, child[i])
            return doc
        return {"type": "partition_tree", "d": self.d, "root": node(0)}

    @classmethod
    def from_dict(cls, doc) -> PartitionTree:
        """Each node of a model file: a fit of d coefficients, a split in [0, d)."""
        check_int("d", d := doc["d"], 1)
        nodes = []

        def add(node) -> int:
            check_int("n_rows", node["n_rows"], 1)
            fit, i = LinearFit.from_dict(node["fit"]), len(nodes)
            if len(fit.coefficients) != d:
                raise ValueError(f"partition fit without {d} coefficients")
            nodes.append([fit, node["n_rows"], -1, i, i])
            if "split_feature" in node:
                check_int("split_feature", j := node["split_feature"], 0)
                if j >= d:
                    raise ValueError(f"split_feature {j} outside [0, {d})")
                nodes[i][2:] = j, add(node["left"]), add(node["right"])
            return i

        add(doc["root"])
        return cls(d, nodes)


def finite_limits(max_depth=3, min_leaf=20, min_gain=1e-3) -> dict:
    """The stopping limits of fit_finite_adaptive, checked; their defaults."""
    check_int("max_depth", max_depth, 0)
    check_int("min_leaf", min_leaf, 1)
    check_real("min_gain", min_gain, 0)
    return {"max_depth": max_depth, "min_leaf": min_leaf, "min_gain": min_gain}


def fit_finite_adaptive(dataset: MaskedDataset, spec: ElasticNetSpec,
                        **limits) -> PartitionTree:
    """Greedy recursive partitioning of missingness-pattern space.

    Each candidate split tests one feature's missingness bit; both sides get
    a static model fitted on their rows of the static design (expanded once)
    and the feature with the lowest summed in-sample squared error wins
    (lowest index on ties); its two fits become the children's models
    without a refit. Splits stop at max_depth, when a side would drop below
    min_leaf rows, or when the relative error reduction falls below min_gain;
    finite_limits checks these limits and owns their defaults.

    Only candidates that can still win are solved: _lstsq_bound floors any
    fit's error on a side, candidates go by ascending bound_l + bound_r (then
    feature), and one is skipped once that sum, or its solved left error plus
    bound_r, exceeds the best total so far (float sums are monotone, so its
    total would too). A tie is solved, and the lower feature wins it.
    """
    max_depth, min_leaf, min_gain = finite_limits(**limits).values()
    Z, y = expand_matrix(dataset.X, dataset.M, STATIC), dataset.y

    def static_fit_sse(rows: np.ndarray):
        A, yr = Z[rows], y[rows]
        f = _solve(A, yr, spec)
        return f, float(np.sum((yr - f.predict(A)) ** 2))

    nodes = []

    def build(rows: np.ndarray, depth: int, fit_sse=None) -> int:
        """Appends the node of `rows` and its subtree; returns its index."""
        f, sse = fit_sse or static_fit_sse(rows)
        i = len(nodes)
        nodes.append([f, len(rows), -1, i, i])
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return i
        Msub, candidates = dataset.M[rows], []
        for j in range(dataset.d):
            sides = rows[Msub[:, j] == 0], rows[Msub[:, j] == 1]
            if min(map(len, sides)) >= min_leaf:
                bound_l, bound_r = (_lstsq_bound(Z[s], y[s]) for s in sides)
                candidates.append((bound_l + bound_r, j, *sides, bound_r))
        best = (math.inf, dataset.d)  # then (total, j, left, right, fit_l, fit_r)
        for bound, j, left, right, bound_r in sorted(candidates, key=lambda c: c[:2]):
            if bound > best[0]:
                break
            if (fit_l := static_fit_sse(left))[1] + bound_r > best[0]:
                continue
            fit_r = static_fit_sse(right)
            if (total := fit_l[1] + fit_r[1], j) < best[:2]:
                best = (total, j, left, right, fit_l, fit_r)
        gain = (sse - best[0]) / sse if sse > 0 else 0.0
        if len(best) == 2 or gain < min_gain:
            return i
        _, j, left, right, fit_l, fit_r = best
        nodes[i][2:] = j, build(left, depth + 1, fit_l), build(right, depth + 1, fit_r)
        return i

    build(np.arange(dataset.n), 0)
    return PartitionTree(dataset.d, nodes)


def _lstsq_bound(A, y) -> float:
    """A lower bound on ||y - b - A w||^2 over all b and w: the least-squares
    residual of the centred [A, y] by modified Gram-Schmidt, less a margin.
    MGS is backward stable: the residual's norm is off by about c n p u kappa
    ||y|| (u = 2^-53, p columns, kappa the column-scaled condition), its
    square by twice that times ||y||; a fit's squared error is rounded on
    the scale of ||y|| too, as y and the intercept are. A column keeping under
    `floor` of its norm after projection gives bound 0, else kappa stays near
    1/floor for these few columns; the margin n p 2^-47 / floor ||y||^2 takes
    c = 32. Zero columns are passed over; max(0, .) maps NaN to 0."""
    floor = 1e-6
    G = np.vstack([A.T, y])  # the columns of [A, y], as rows
    G -= G.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    for k in np.flatnonzero(norms[:-1]):
        nk = math.sqrt(G[k] @ G[k])
        if not nk >= floor * norms[k]:
            return 0.0
        q = G[k] / nk
        G[k + 1:] -= np.outer(G[k + 1:] @ q, q)
    margin = len(y) * len(G) * 2.0 ** -47 / floor * float(y @ y)
    return max(0.0, float(G[-1] @ G[-1]) - margin)


# ---------------------------------------------------------------------------
# JSON text of the documents above; the benchmark's tracer binds these by name.
model_to_json = tree_to_json = to_json
model_from_json, tree_from_json = json_reader(AdaptiveModel), json_reader(PartitionTree)
