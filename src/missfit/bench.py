"""Metrics, cross-validation, and the experiment runner.

run_experiment reproduces the evaluation pipeline: per replication, hold out
a test fraction, tune each method's hyper-parameters by k-fold CV on the
training split, refit on the full training split, and score on the test
split. Records are canonically ordered so output bytes never depend on the
degree of parallelism.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import MaskedDataset, read_csv, validate
from .elasticnet import ElasticNetSpec, fit as enet_fit
from .adaptive import (ExpansionMode, fit_adaptive, fit_finite_adaptive)
from .joint import (FitLimits, auc_error, joint_fit, linear_contract, mse_error,
                    tree_contract, forest_contract)
from .learners import TreeParams, fit_cart_mia, fit_forest, mean_impute
from .datagen import GeneratorSpec, generate

log = logging.getLogger("missfit.bench")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the JSON path."""


def r_squared(y, yhat) -> float:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if len(y) != len(yhat) or len(y) < 2:
        raise ValueError("need equal-length vectors with n >= 2")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        raise ValueError("zero-variance targets")
    return 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot


def scaled_auc(y, scores) -> float:
    """2 * AUC - 1, with midrank handling of tied scores."""
    from scipy.stats import rankdata  # here: it doubles the package import time
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=float)
    pos = scores[y == 1]
    neg = scores[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present")
    ranks = rankdata(scores, method="average")
    auc = (ranks[y == 1].sum() - len(pos) * (len(pos) + 1) / 2.0) \
        / (len(pos) * len(neg))
    return 2.0 * auc - 1.0


def _is_binary(y) -> bool:
    vals = np.unique(y)
    return len(vals) == 2 and set(vals) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# Methods. Each fit returns a predictor: callable (dataset, X_full|None) -> yhat.

_ADAPTIVE_MODES = {"static", "affine_intercept", "affine", "polynomial2",
                   "fully_adaptive"}

DEFAULT_GRIDS = {
    "static": [{"lam": l} for l in (0.1, 0.01, 0.001)],
    "affine_intercept": [{"lam": l} for l in (0.1, 0.01, 0.001)],
    "affine": [{"lam": l} for l in (0.1, 0.01, 0.001)],
    "polynomial2": [{"lam": l} for l in (0.1, 0.01)],
    "fully_adaptive": [{"lam": l} for l in (0.1, 0.01)],
    "finite": [{"max_depth": t} for t in (1, 2, 3)],
    "joint_linear": [{"lam": l} for l in (0.01, 0.001)],
    "joint_tree": [{"max_depth": t} for t in (3, 5)],
    "joint_forest": [{"max_depth": 6, "n_trees": 50}],
    "mean_impute_linear": [{"lam": l} for l in (0.1, 0.01, 0.001)],
    "mean_impute_tree": [{"max_depth": t} for t in (3, 5, 7)],
    "mean_impute_forest": [{"max_depth": t, "n_trees": 100} for t in (6, 9)],
    "cart_mia": [{"max_depth": t} for t in (2, 4, 6, 8, 10)],
    "rf_mia": [{"max_depth": t, "n_trees": 100} for t in (6, 9)],
    "complete_features": [{"lam": l} for l in (0.1, 0.01, 0.001)],
    "oracle": [{"lam": l} for l in (0.1, 0.01, 0.001)],
}

BEST_VARIANTS = {
    "adaptive_best": ("static", "affine_intercept", "affine", "finite"),
    "joint_best": ("joint_linear", "joint_tree", "joint_forest"),
    "mean_impute_best": ("mean_impute_linear", "mean_impute_tree",
                         "mean_impute_forest"),
}

METHOD_NAMES = tuple(sorted(set(DEFAULT_GRIDS) | set(BEST_VARIANTS)))


def _enet_spec(params) -> ElasticNetSpec:
    return ElasticNetSpec(lam=params.get("lam", 0.01),
                          alpha=params.get("alpha", 0.5))


def _tree_params(params, seed, task) -> TreeParams:
    return TreeParams(max_depth=params.get("max_depth", 6),
                      min_leaf=params.get("min_leaf", 5),
                      n_trees=params.get("n_trees", 100),
                      mtry=params.get("mtry"), seed=seed, task=task)


def fit_method(name: str, train: MaskedDataset, X_full, params: dict,
               seed: int, task: str):
    """Fit one named method; returns predict(dataset, X_full_rows) -> scores."""
    if name in _ADAPTIVE_MODES:
        mode = ExpansionMode.parse(name)
        model = fit_adaptive(train, mode, _enet_spec(params))
        return lambda ds, xf=None: model.predict_matrix(ds.X, ds.M)
    if name == "finite":
        tree = fit_finite_adaptive(train, _enet_spec(params),
                                   max_depth=params.get("max_depth", 3),
                                   min_leaf=params.get("min_leaf", 20))
        return lambda ds, xf=None: tree.predict_matrix(ds.X, ds.M)
    if name.startswith("joint_"):
        kind = name.split("_", 1)[1]
        if kind == "linear":
            contract = linear_contract(_enet_spec(params))
        elif kind == "tree":
            contract = tree_contract(_tree_params(params, seed, task))
        else:
            contract = forest_contract(_tree_params(params, seed, task))
        metric = auc_error if task == "classification" else mse_error
        model = joint_fit(train, contract, FitLimits(), metric, seed)
        return lambda ds, xf=None: model.predict(ds)
    if name.startswith("mean_impute_"):
        kind = name.split("_")[-1]
        mu, imputed = mean_impute(train)
        if kind == "linear":
            lin = enet_fit(imputed, train.y, _enet_spec(params))
            return lambda ds, xf=None: lin.predict(
                np.where(ds.M == 1, mu, ds.X))
        zeros = np.zeros_like(imputed, dtype=np.int8)
        flat = MaskedDataset(imputed, zeros, train.y)
        tp = _tree_params(params, seed, task)
        model = (fit_cart_mia(flat, tp) if kind == "tree"
                 else fit_forest(flat, tp))
        return lambda ds, xf=None: model.predict(
            np.where(ds.M == 1, mu, ds.X), np.zeros_like(ds.M))
    if name == "cart_mia":
        model = fit_cart_mia(train, _tree_params(params, seed, task))
        return lambda ds, xf=None: model.predict(ds.X, ds.M)
    if name == "rf_mia":
        model = fit_forest(train, _tree_params(params, seed, task))
        return lambda ds, xf=None: model.predict(ds.X, ds.M)
    if name == "complete_features":
        cols = np.flatnonzero(train.M.sum(axis=0) == 0)
        lin = enet_fit(train.X[:, cols], train.y, _enet_spec(params))
        return lambda ds, xf=None, cols=cols: lin.predict(ds.X[:, cols])
    if name == "oracle":
        if X_full is None:
            raise ValueError("oracle requires the fully observed design")
        A = np.column_stack([X_full, train.M])
        lin = enet_fit(A, train.y, _enet_spec(params))
        return lambda ds, xf=None: lin.predict(np.column_stack([xf, ds.M]))
    raise ValueError(f"unknown method {name!r}; valid: {', '.join(METHOD_NAMES)}")


def _score(y, yhat, task) -> float:
    return scaled_auc(y, yhat) if task == "classification" else r_squared(y, yhat)


def kfold_cv(dataset: MaskedDataset, name: str, grid: list[dict], folds: int,
             seed: int, X_full=None, task: str = "regression"):
    """Pick the grid point with the best mean validation score.

    Fold assignment is a seeded shuffle split into `folds` chunks. Ties keep
    the earliest grid point in declared order. Returns (params, cv_score).
    """
    if dataset.n < folds:
        raise ValueError("need n >= folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    chunks = np.array_split(perm, folds)
    best = None
    for params in grid:
        scores = []
        for f in range(folds):
            val = chunks[f]
            tr = np.concatenate([chunks[g] for g in range(folds) if g != f])
            predictor = fit_method(name, dataset.subset(tr),
                                   None if X_full is None else X_full[tr],
                                   params, seed, task)
            yhat = predictor(dataset.subset(val),
                             None if X_full is None else X_full[val])
            try:
                scores.append(_score(dataset.y[val], yhat, task))
            except ValueError:  # degenerate fold (constant / one-class)
                continue
        mean_score = float(np.mean(scores)) if scores else -np.inf
        if best is None or mean_score > best[1]:
            best = (params, mean_score)
    return best


# ---------------------------------------------------------------------------
# Experiment configuration and runner

@dataclass
class ExperimentConfig:
    name: str
    methods: list[str]
    generator: dict | None = None
    dataset_csv: str | None = None
    target: str = "y"
    replications: int = 10
    test_fraction: float = 0.30
    cv_folds: int = 5
    grids: dict = field(default_factory=dict)
    seed_base: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("$.test_fraction: must be in (0, 1)")
        if self.cv_folds < 2:
            raise ConfigError("$.cv_folds: must be >= 2")
        if self.replications < 1:
            raise ConfigError("$.replications: must be >= 1")
        if (self.generator is None) == (self.dataset_csv is None):
            raise ConfigError(
                "$: exactly one of generator / dataset_csv is required")
        for i, m in enumerate(self.methods):
            if m not in METHOD_NAMES:
                raise ConfigError(f"$.methods[{i}]: unknown method {m!r}")
        if self.generator is not None:
            try:
                GeneratorSpec(**{**self.generator, "seed": 0})
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"$.generator: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"$: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError("$: top-level value must be an object")
        known = {f for f in cls.__dataclass_fields__}
        for key in doc:
            if key not in known:
                raise ConfigError(f"$.{key}: unknown field")
        for req in ("name", "methods"):
            if req not in doc:
                raise ConfigError(f"$.{req}: required field missing")
        return cls(**doc)


@dataclass(frozen=True)
class Record:
    dataset: str
    method: str
    setting: str
    replication: int
    metric: str
    value: float
    seconds: float

    def sort_key(self):
        return (self.dataset, self.method, self.replication, self.metric)


@dataclass
class ResultsTable:
    records: list[Record]
    errors: list[str] = field(default_factory=list)

    def sorted_records(self) -> list[Record]:
        recs = sorted(self.records, key=Record.sort_key)
        seen = set()
        for r in recs:
            if r.sort_key() in seen:
                raise ValueError(f"duplicate record {r.sort_key()}")
            seen.add(r.sort_key())
        return recs

    def summary(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(method, metric) -> (mean, standard error over replications)."""
        groups: dict[tuple[str, str], list[float]] = {}
        for r in self.records:
            groups.setdefault((r.method, r.metric), []).append(r.value)
        out = {}
        for key, vals in groups.items():
            arr = np.array(vals)
            se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
            out[key] = (float(arr.mean()), se)
        return out


def _replication_setting(config: ExperimentConfig) -> str:
    if config.generator:
        g = config.generator
        return (f"{g.get('mechanism', 'mcar')}_p{g.get('p', 0.3)}"
                f"_{g.get('signal', 'linear')}")
    return "csv"


def run_replication(config: ExperimentConfig, rep: int,
                    methods: list[str] | None = None) -> tuple[list[Record], list[str]]:
    methods = config.methods if methods is None else methods
    rep_seed = config.seed_base + 1000 * rep
    if config.generator is not None:
        spec = GeneratorSpec(**{**config.generator, "seed": rep_seed})
        dataset, X_full, _truth = generate(spec)
    else:
        dataset = read_csv(config.dataset_csv, config.target)
        X_full = None
    validate(dataset)
    task = "classification" if _is_binary(dataset.y) else "regression"
    metric_name = "2auc-1" if task == "classification" else "r2"
    rng = np.random.default_rng(rep_seed + 7)
    perm = rng.permutation(dataset.n)
    n_test = int(round(dataset.n * config.test_fraction))
    test_rows, train_rows = perm[:n_test], perm[n_test:]
    train = dataset.subset(train_rows)
    test = dataset.subset(test_rows)
    xf_train = None if X_full is None else X_full[train_rows]
    xf_test = None if X_full is None else X_full[test_rows]
    setting = _replication_setting(config)

    records, errors = [], []
    for method in methods:
        t0 = time.perf_counter()
        try:
            if method in BEST_VARIANTS:
                variants = BEST_VARIANTS[method]
                picks = []
                for v in variants:
                    grid = config.grids.get(v, DEFAULT_GRIDS[v])
                    params, score = kfold_cv(train, v, grid, config.cv_folds,
                                             rep_seed, xf_train, task)
                    picks.append((score, v, params))
                _, chosen, params = max(picks, key=lambda t: t[0])
                predictor = fit_method(chosen, train, xf_train, params,
                                       rep_seed, task)
            else:
                grid = config.grids.get(method, DEFAULT_GRIDS[method])
                params, _ = kfold_cv(train, method, grid, config.cv_folds,
                                     rep_seed, xf_train, task)
                predictor = fit_method(method, train, xf_train, params,
                                       rep_seed, task)
            yhat = predictor(test, xf_test)
            value = _score(test.y, yhat, task)
            records.append(Record(config.name, method, setting, rep,
                                  metric_name, value,
                                  time.perf_counter() - t0))
        except Exception as exc:  # failure of one cell must not abort the run
            msg = f"{config.name}/{method}/rep{rep}: {exc!r}"
            log.warning("method failed: %s", msg)
            errors.append(msg)
    return records, errors


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   skip: set | None = None) -> ResultsTable:
    """Run all replications; `skip` holds (dataset, method, replication) keys
    already computed (resume support)."""
    skip = skip or set()
    tasks = []
    for r in range(config.replications):
        todo = [m for m in config.methods if (config.name, m, r) not in skip]
        if todo:
            tasks.append((config, r, todo))
    table = ResultsTable([])
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_replication_star, tasks))
    else:
        results = [run_replication(*t) for t in tasks]
    for recs, errs in results:
        table.records.extend(recs)
        table.errors.extend(errs)
    return table


def _run_replication_star(args):
    return run_replication(*args)


RESULT_COLUMNS = ("dataset", "method", "setting", "replication", "metric", "value")


def write_results_csv(table: ResultsTable, path, timings_path=None) -> None:
    """Canonically ordered results CSV, wall times in a separate sidecar.

    Keeping timings out of the main file makes reruns byte-identical.
    """
    recs = table.sorted_records()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in recs:
            writer.writerow([r.dataset, r.method, r.setting, r.replication,
                             r.metric, repr(r.value)])
    if timings_path is not None:
        with open(timings_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "method", "replication", "seconds"])
            for r in recs:
                writer.writerow([r.dataset, r.method, r.replication,
                                 f"{r.seconds:.3f}"])


def read_results_csv(path, timings_path=None) -> ResultsTable:
    """Records of a results CSV. Seconds come from the timings sidecar when
    `timings_path` names an existing file, and are 0.0 otherwise."""
    seconds = {}
    if timings_path is not None and os.path.exists(timings_path):
        with open(timings_path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["dataset"], row["method"], int(row["replication"]))
                seconds[key] = float(row["seconds"])
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rep = int(row["replication"])
            records.append(Record(row["dataset"], row["method"], row["setting"],
                                  rep, row["metric"], float(row["value"]),
                                  seconds.get((row["dataset"], row["method"], rep),
                                              0.0)))
    return ResultsTable(records)
