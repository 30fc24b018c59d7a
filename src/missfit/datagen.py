"""Synthetic and semi-synthetic instance generators.

Gaussian designs with low-rank-plus-ridge covariance, linear or small-network
signals calibrated to a target signal-to-noise ratio, MCAR and censoring
masks, and the semi-synthetic signal constructions (MAR / NMAR / adversarial
reassignment of missingness patterns).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .core import MaskedDataset, write_csv


@dataclass(frozen=True)
class GeneratorSpec:
    n: int = 1000
    d: int = 10
    r: int = 5
    eps: float = 1e-2
    signal: str = "linear"  # linear | nn
    k: int = 5
    snr: float = 2.0
    mechanism: str = "mcar"  # mcar | censoring
    p: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.r < 0:
            raise ValueError("need n >= 2 and r >= 0")
        if not (self.d >= self.k >= 1):
            raise ValueError("need d >= k >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if self.snr <= 0 or self.eps <= 0:
            raise ValueError("snr and eps must be positive")
        if self.signal not in ("linear", "nn"):
            raise ValueError(f"unknown signal {self.signal!r}")
        if self.mechanism not in ("mcar", "censoring"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")


@dataclass(frozen=True)
class SemiSyntheticSpec:
    setting: str  # mar | nmar | am
    k: int
    k_missing: int
    signal: str = "linear"
    snr: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.setting not in ("mar", "nmar", "am"):
            raise ValueError(f"unknown setting {self.setting!r}")
        if not 0 <= self.k_missing <= self.k:
            raise ValueError("need 0 <= k_missing <= k")


class GroundTruth:
    """Noise-free signal function; evaluates on fully observed feature rows."""

    def __init__(self, support, kind, params):
        self.support = np.asarray(support)
        self.kind = kind
        self.params = params
        self.scale_mean, self.scale_std = 0.0, 1.0  # set by _noisy_signal

    def raw(self, X, M=None) -> np.ndarray:
        """The signal before standardization."""
        inputs = np.atleast_2d(X)[:, self.support]
        if M is not None and self.params.get("mask_cols") is not None:
            mask_cols = self.params["mask_cols"]
            inputs = np.column_stack([inputs, np.atleast_2d(M)[:, mask_cols]])
        if self.kind == "linear":
            return self.params["b"] + inputs @ self.params["w"]
        h = np.maximum(inputs @ self.params["W1"].T + self.params["c"], 0.0)
        return h @ self.params["v"]

    def __call__(self, X, M=None) -> np.ndarray:
        return (self.raw(X, M) - self.scale_mean) / self.scale_std


def gen_design(spec: GeneratorSpec) -> np.ndarray:
    """Draw n rows from N(0, B B^T + eps I), B standard Gaussian d x r."""
    rng = np.random.default_rng(spec.seed)
    B = rng.normal(size=(spec.d, spec.r))
    cov = B @ B.T + spec.eps * np.eye(spec.d)
    L = np.linalg.cholesky(cov)
    return rng.normal(size=(spec.n, spec.d)) @ L.T


def _noisy_signal(X, M, support, mask_cols, kind, snr, rng):
    """Draw a linear or small-network signal over X[:, support] (and the
    mask_cols of M), standardize it to unit empirical variance, and add
    noise of standard deviation 1/sqrt(snr). Returns (y, truth)."""
    k_in = len(support) + (0 if mask_cols is None else len(mask_cols))
    if kind == "linear":
        params = {"b": float(rng.normal()),
                  "w": rng.uniform(-1.0, 1.0, size=k_in)}
    else:
        hidden = 10
        params = {"W1": rng.normal(size=(hidden, k_in)),
                  "c": rng.normal(size=hidden), "v": rng.normal(size=hidden)}
    params["mask_cols"] = mask_cols
    truth = GroundTruth(support, kind, params)
    raw = truth.raw(X, M)
    if np.var(raw) <= 1e-12:
        raise ValueError("degenerate signal: zero empirical variance")
    truth.scale_mean, truth.scale_std = float(np.mean(raw)), float(np.std(raw))
    f = (raw - truth.scale_mean) / truth.scale_std
    return f + rng.normal(scale=1.0 / np.sqrt(snr), size=len(f)), truth


def gen_signal(X, spec: GeneratorSpec) -> tuple[np.ndarray, GroundTruth]:
    """Signal over k random support features plus SNR-calibrated noise."""
    rng = np.random.default_rng(spec.seed + 1)
    support = np.sort(rng.choice(spec.d, spec.k, replace=False))
    return _noisy_signal(X, None, support, None, spec.signal, spec.snr, rng)


def apply_mcar(n: int, d: int, p: float, seed: int) -> np.ndarray:
    """Independent Bernoulli(p) mask."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    rng = np.random.default_rng(seed)
    return (rng.random((n, d)) < p).astype(np.int8)


def apply_censoring(X, p: float, thresholds=None) -> np.ndarray:
    """Mask entries strictly above each column's (1-p) empirical quantile.

    Passing precomputed thresholds (e.g. from a training split) masks against
    those instead, avoiding test-time leakage.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    X = np.asarray(X, dtype=float)
    if thresholds is None:
        thresholds = censoring_thresholds(X, p)
    return (X > thresholds).astype(np.int8)


def censoring_thresholds(X, p: float) -> np.ndarray:
    """Each column's (1-p) empirical quantile (type-7 interpolation)."""
    return np.quantile(np.asarray(X, dtype=float), 1.0 - p, axis=0)


def generate(spec: GeneratorSpec) -> tuple[MaskedDataset, np.ndarray, GroundTruth]:
    """Full synthetic instance: returns (dataset, X_full, ground truth)."""
    X = gen_design(spec)
    y, truth = gen_signal(X, spec)
    if spec.mechanism == "mcar":
        M = apply_mcar(spec.n, spec.d, spec.p, spec.seed + 2)
    else:
        M = apply_censoring(X, spec.p)
    return MaskedDataset(X, M, y), X, truth


def adversarial_permute(X_full, M, exact_limit: int = 2000):
    """Permutation of mask rows maximizing sum_i <x_i, m_{sigma(i)}>.

    Solved exactly as a linear assignment problem up to exact_limit rows;
    larger instances use a greedy pass over rows in descending best-score
    order. Returns (sigma, achieved objective).
    """
    X_full = np.atleast_2d(np.asarray(X_full, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if X_full.shape != M.shape:
        raise ValueError("shape mismatch between X_full and M")
    n = X_full.shape[0]
    scores = X_full @ M.T  # scores[i, l] = <x_i, m_l>
    if n <= exact_limit:
        # imported here: scipy.optimize is most of the package's import time
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(scores, maximize=True)
        sigma = np.empty(n, dtype=int)
        sigma[rows] = cols
    else:
        sigma = np.full(n, -1, dtype=int)
        taken = np.zeros(n, dtype=bool)
        order = np.argsort(-scores.max(axis=1), kind="stable")
        masked = scores.copy()
        for i in order:
            row = np.where(taken, -np.inf, masked[i])
            pick = int(np.argmax(row))
            sigma[i] = pick
            taken[pick] = True
    objective = float(scores[np.arange(n), sigma].sum())
    return sigma, objective


def gen_semisynthetic(X_full, M, spec: SemiSyntheticSpec):
    """Semi-synthetic signal over a real (imputed) design matrix.

    mar:  y depends on k columns of X_full, k_missing of them drawn from
          columns that actually have missing entries.
    nmar: the k_missing mask columns additionally enter the signal.
    am:   mar signal, then mask rows reassigned adversarially.

    Returns (y, M_out, truth); M_out differs from M only in the am setting.
    """
    X_full = np.asarray(X_full, dtype=float)
    M = np.asarray(M)
    rng = np.random.default_rng(spec.seed)
    missing_cols = np.flatnonzero(M.sum(axis=0) > 0)
    clean_cols = np.flatnonzero(M.sum(axis=0) == 0)
    if spec.k_missing > len(missing_cols):
        raise ValueError(
            f"k_missing={spec.k_missing} exceeds the {len(missing_cols)} "
            "columns with missing entries")
    if spec.k - spec.k_missing > len(clean_cols):
        raise ValueError("not enough fully observed columns for the support")
    sup_miss = rng.choice(missing_cols, spec.k_missing, replace=False)
    sup_clean = rng.choice(clean_cols, spec.k - spec.k_missing, replace=False)
    support = np.sort(np.concatenate([sup_miss, sup_clean]).astype(int))

    mask_cols = None
    if spec.setting == "nmar" and spec.k_missing > 0:
        mask_cols = np.sort(sup_miss.astype(int))
    y, truth = _noisy_signal(X_full, M, support, mask_cols, spec.signal,
                             spec.snr, rng)
    if spec.setting == "am":
        sigma, _ = adversarial_permute(X_full, M)
        return y, np.asarray(M)[sigma], truth
    return y, M, truth


def save_dataset(dataset: MaskedDataset, csv_path, sidecar_path, spec) -> None:
    """Write the CSV plus a JSON sidecar recording the generating spec."""
    write_csv(dataset, csv_path)
    doc = {"spec": asdict(spec), "n": dataset.n, "d": dataset.d,
           "missing_fraction": [float(dataset.M[:, j].mean())
                                for j in range(dataset.d)]}
    with open(sidecar_path, "w") as fh:
        json.dump(doc, fh, indent=1)
