"""Synthetic instance generator.

Gaussian designs with low-rank-plus-ridge covariance, MCAR and censoring
masks over a leading block of columns, and linear or small-network signals
calibrated to a target signal-to-noise ratio. The signal ignores the mask
(MAR), reads the mask bits of its masked support columns (NMAR), or is drawn
before the mask rows are reassigned adversarially (AM).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .core import MaskedDataset, check_int, check_real, write_csv


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
    setting: str = "mar"  # mar | nmar | am
    d_missing: int | None = None  # the mask covers columns [0, d_missing)
    k_missing: int | None = None  # support columns drawn from those

    def __post_init__(self):
        check_int("n", self.n, 2)
        check_int("d", self.d, 1)
        check_int("r", self.r, 0)
        check_int("k", self.k, 1)
        check_real("eps", self.eps, 0, strict=True)
        check_real("snr", self.snr, 0, strict=True)
        check_real("p", self.p, 0, 1, strict=True)
        check_int("seed", self.seed, 0)
        check_int("d_missing", self.d_missing, 1, null=True)
        check_int("k_missing", self.k_missing, 0, null=True)
        for name, kinds in (("signal", ("linear", "nn")),
                            ("mechanism", ("mcar", "censoring")),
                            ("setting", ("mar", "nmar", "am"))):
            if (value := getattr(self, name)) not in kinds:
                raise ValueError(f"{name}: must be one of {', '.join(kinds)}"
                                 f", got {value!r}")
        d_miss, k_miss = self.masked_counts()
        check_real("k", self.k, 1, self.d)
        check_real("d_missing", d_miss, 1, self.d)
        check_real("k_missing", k_miss, max(0, self.k - self.d + d_miss),
                   min(self.k, d_miss))

    def masked_counts(self) -> tuple[int, int]:
        """(d_missing, k_missing) with None read as all d and all k."""
        return (self.d if self.d_missing is None else self.d_missing,
                self.k if self.k_missing is None else self.k_missing)


class GroundTruth:
    """Noise-free signal function; evaluates on fully observed feature rows."""

    def __init__(self, support, kind, params):
        self.support = np.asarray(support)
        self.kind = kind
        self.params = params
        self.scale_mean, self.scale_std = 0.0, 1.0  # set by generate

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
    """Full synthetic instance: returns (dataset, X_full, ground truth).

    The mask covers the first d_missing columns. The signal is a linear or
    small-network function of k support columns, k_missing of them drawn
    from the masked columns and the rest from the others, standardized to
    unit empirical variance, plus noise of standard deviation 1/sqrt(snr).
    nmar adds the mask bits of the k_missing columns to the signal's inputs;
    am reassigns the mask rows with adversarial_permute after y is drawn.
    """
    X = gen_design(spec)
    d_miss, k_miss = spec.masked_counts()
    if spec.mechanism == "mcar":
        M = apply_mcar(spec.n, d_miss, spec.p, spec.seed + 2)
    else:
        M = apply_censoring(X[:, :d_miss], spec.p)
    M = np.pad(M, ((0, 0), (0, spec.d - d_miss)))

    rng = np.random.default_rng(spec.seed + 1)
    masked = rng.choice(d_miss, k_miss, replace=False)
    rest = d_miss + rng.choice(spec.d - d_miss, spec.k - k_miss, replace=False)
    mask_cols = np.sort(masked) if spec.setting == "nmar" else None
    k_in = spec.k + (0 if mask_cols is None else k_miss)
    if spec.signal == "linear":
        params = {"b": float(rng.normal()),
                  "w": rng.uniform(-1.0, 1.0, size=k_in)}
    else:
        hidden = 10
        params = {"W1": rng.normal(size=(hidden, k_in)),
                  "c": rng.normal(size=hidden), "v": rng.normal(size=hidden)}
    params["mask_cols"] = mask_cols
    truth = GroundTruth(np.sort(np.concatenate([masked, rest])), spec.signal,
                        params)
    raw = truth.raw(X, M)
    if np.var(raw) <= 1e-12:
        raise ValueError("degenerate signal: zero empirical variance")
    truth.scale_mean, truth.scale_std = float(np.mean(raw)), float(np.std(raw))
    y = (raw - truth.scale_mean) / truth.scale_std \
        + rng.normal(scale=1.0 / np.sqrt(spec.snr), size=spec.n)
    if spec.setting == "am":
        M = M[adversarial_permute(X, M)[0]]
    return MaskedDataset(X, M, y), X, truth


def adversarial_permute(X_full, M):
    """Permutation of mask rows maximizing sum_i <x_i, m_{sigma(i)}>.

    Solved exactly as a linear assignment problem at every n. The solve
    slows faster than n^2 and with ties among the scores: at n = 4,000 on a
    2-CPU Xeon, about 1 s for random censoring masks and 6 s for masks of
    two patterns. Returns (sigma, achieved objective).
    """
    X_full = np.atleast_2d(np.asarray(X_full, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if X_full.shape != M.shape:
        raise ValueError("shape mismatch between X_full and M")
    scores = X_full @ M.T  # scores[i, l] = <x_i, m_l>
    # imported here: scipy.optimize is most of the package's import time
    from scipy.optimize import linear_sum_assignment
    # on a square matrix the rows come back as 0..n-1 in order
    rows, sigma = linear_sum_assignment(scores, maximize=True)
    objective = float(scores[rows, sigma].sum())
    return sigma, objective


def save_dataset(dataset: MaskedDataset, csv_path, sidecar_path, spec) -> None:
    """Write the CSV plus a JSON sidecar recording the generating spec."""
    write_csv(dataset, csv_path)
    doc = {"spec": asdict(spec), "n": dataset.n, "d": dataset.d,
           "missing_fraction": dataset.M.mean(axis=0).tolist()}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
