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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import MaskedDataset, batch, check_int, check_real, read_csv
from .elasticnet import ElasticNetSpec, LinearFit, fit as enet_fit
from .adaptive import (fit_adaptive, fit_finite_adaptive, finite_limits,
                       shared_solves)
from .joint import (FitLimits, fit_mean_impute, joint_fit, linear_contract,
                    mse_error, tree_contract, forest_contract)
from .learners import TreeParams, fit_cart_mia, fit_forest
from .datagen import GeneratorSpec, generate


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


def auc_error(y, scores) -> float:
    """1 - AUC, midrank tie handling. Lower is better, matching mse_error.
    With one class in y every ranking ties: 0.5."""
    if len(np.unique(y)) < 2:
        return 0.5
    return 1.0 - (scaled_auc(y, scores) + 1.0) / 2.0


def _is_binary(y) -> bool:
    vals = np.unique(y)
    return len(vals) == 2 and set(vals) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# Methods. spec(params) builds the checked spec its fit reads; tree fits set
# seed and task with dataclasses.replace. Fits return a model with predict.

def _enet_spec(params) -> ElasticNetSpec:
    return ElasticNetSpec(lam=params.get("lam", 0.01),
                          alpha=params.get("alpha", 0.5))


def _finite_spec(params) -> tuple[ElasticNetSpec, dict]:
    return _enet_spec(params), finite_limits(params.get("max_depth", 3),
                                             params.get("min_leaf", 20))


def _tree_params(params) -> TreeParams:
    return TreeParams(max_depth=params.get("max_depth", 6),
                      min_leaf=params.get("min_leaf", 5))


def _forest_params(params) -> TreeParams:
    return replace(_tree_params(params), n_trees=params.get("n_trees", 100),
                   mtry=params.get("mtry"))


def _fit_adaptive(name, train, spec, seed, task):
    return fit_adaptive(train, name, spec)


def _fit_finite(name, train, spec, seed, task):
    return fit_finite_adaptive(train, spec[0], **spec[1])


def _fit_imputed(name, train, spec, seed, task):
    """joint_* and mean_impute_*: an imputation vector mu, then the regressor
    that the name's suffix names. Only joint_* searches mu."""
    kind = name.rsplit("_", 1)[1]
    if kind == "linear":
        contract = linear_contract(spec)
    else:
        tp = replace(spec, task=task)
        contract = tree_contract(tp) if kind == "tree" else forest_contract(tp)
    if name.startswith("mean_impute_"):
        return fit_mean_impute(train, contract, seed)
    metric = auc_error if task == "classification" else mse_error
    return joint_fit(train, contract, FitLimits(), metric, seed)


def _fit_mia(name, train, spec, seed, task):
    fit = fit_cart_mia if name == "cart_mia" else fit_forest
    return fit(train, replace(spec, seed=seed, task=task))


@dataclass(frozen=True)
class LinearOnDesign:
    """A linear fit on the design that `design` builds from (X, M), for
    batches d columns wide like the training data."""

    fit: LinearFit
    design: Callable
    d: int

    def predict(self, X, M) -> np.ndarray:
        return self.fit.predict(self.design(*batch(X, M, self.d)))


def _fit_on_design(name, train, spec, seed, task):
    if name == "oracle":  # train.X is fully observed; see run_replication
        design = lambda X, M: np.column_stack([X, M])
    else:  # complete_features: the columns observed in every training row
        cols = np.flatnonzero(train.M.sum(axis=0) == 0)
        design = lambda X, M: np.where(M == 1, 0.0, X)[:, cols]
    A = design(train.X, train.M)
    return LinearOnDesign(enet_fit(A, train.y, spec), design, train.d)


@dataclass(frozen=True)
class Method:
    spec: Callable     # (params) -> the checked spec that fit reads
    params: tuple[str, ...]  # the grid parameters that spec reads
    fit: Callable      # (name, train, spec, seed, task) -> model
    grid: list[dict]   # default hyper-parameter grid for kfold_cv
    saves: bool = False  # `missfit fit` may save it (model.to_dict())


_LINEAR = (_enet_spec, ("lam", "alpha"))
_FINITE = (_finite_spec, ("lam", "alpha", "max_depth", "min_leaf"))
_TREE = (_tree_params, ("max_depth", "min_leaf"))
_FOREST = (_forest_params, ("max_depth", "min_leaf", "n_trees", "mtry"))


def _lams(*lams):
    return [{"lam": l} for l in lams]


def _depths(*depths, **fixed):
    return [{"max_depth": t, **fixed} for t in depths]


METHODS = {
    "static": Method(*_LINEAR, _fit_adaptive, _lams(0.1, 0.01, 0.001), True),
    "affine_intercept": Method(*_LINEAR, _fit_adaptive, _lams(0.1, 0.01, 0.001), True),
    "affine": Method(*_LINEAR, _fit_adaptive, _lams(0.1, 0.01, 0.001), True),
    "polynomial2": Method(*_LINEAR, _fit_adaptive, _lams(0.1, 0.01), True),
    "fully_adaptive": Method(*_LINEAR, _fit_adaptive, _lams(0.1, 0.01), True),
    "finite": Method(*_FINITE, _fit_finite, _depths(1, 2, 3), True),
    "joint_linear": Method(*_LINEAR, _fit_imputed, _lams(0.01, 0.001), True),
    "joint_tree": Method(*_TREE, _fit_imputed, _depths(3, 5), True),
    "joint_forest": Method(*_FOREST, _fit_imputed, _depths(6, n_trees=50), True),
    "mean_impute_linear": Method(*_LINEAR, _fit_imputed, _lams(0.1, 0.01, 0.001), True),
    "mean_impute_tree": Method(*_TREE, _fit_imputed, _depths(3, 5, 7), True),
    "mean_impute_forest": Method(*_FOREST, _fit_imputed, _depths(6, 9, n_trees=100), True),
    "cart_mia": Method(*_TREE, _fit_mia, _depths(2, 4, 6, 8, 10), True),
    "rf_mia": Method(*_FOREST, _fit_mia, _depths(6, 9, n_trees=100), True),
    "complete_features": Method(*_LINEAR, _fit_on_design, _lams(0.1, 0.01, 0.001)),
    "oracle": Method(*_LINEAR, _fit_on_design, _lams(0.1, 0.01, 0.001)),
}

BEST_VARIANTS = {
    "adaptive_best": ("static", "affine_intercept", "affine", "finite"),
    "joint_best": ("joint_linear", "joint_tree", "joint_forest"),
    "mean_impute_best": ("mean_impute_linear", "mean_impute_tree",
                         "mean_impute_forest"),
}


def fit_method(name: str, train: MaskedDataset, params: dict, seed: int,
               task: str):
    """Fit one named method; returns a model with predict(X, M) -> scores."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; valid: {', '.join(METHODS)}")
    method = METHODS[name]
    return method.fit(name, train, method.spec(params), seed, task)


def _score(y, yhat, task) -> float:
    return scaled_auc(y, yhat) if task == "classification" else r_squared(y, yhat)


def kfold_cv(dataset: MaskedDataset, name: str, grid: list[dict], folds: int,
             seed: int, task: str = "regression"):
    """Pick the grid point with the best mean validation score.

    Fold assignment is a seeded shuffle split into `folds` chunks. Ties keep
    the earliest grid point in declared order. Returns (params, cv_score).

    The grid loop runs in adaptive.shared_solves, so an elastic net that
    recurs within the call is solved once: finite's depth-1 and depth-2
    trees are the top of its depth-3 tree, and fully_adaptive refits a
    pattern's rows unchanged in every fold that holds none of them. A solve
    is reused only on the exact bytes of its design and target and an equal
    spec, so every result keeps its bits.
    """
    if dataset.n < folds:
        raise ValueError("need n >= folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    chunks = np.array_split(perm, folds)
    splits = [(dataset.subset(np.concatenate(chunks[:f] + chunks[f + 1:])),
               chunks[f]) for f in range(folds)]
    best = None
    with shared_solves():
        for params in grid:
            scores = []
            for train, val in splits:
                model = fit_method(name, train, params, seed, task)
                yhat = model.predict(dataset.X[val], dataset.M[val])
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

# The JSON type of each config field that is not a number, as errors name it.
_FIELD_TYPES = {"name": ((str,), "a string"),
                "methods": ((list,), "a list of strings"),
                "generator": ((dict, type(None)), "an object"),
                "dataset_csv": ((str, type(None)), "a string"),
                "target": ((str,), "a string"),
                "grids": ((dict,), "an object of lists of objects")}


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
        for name, (types, kind) in _FIELD_TYPES.items():
            if not isinstance(value := getattr(self, name), types):
                raise ConfigError(f"$.{name}: must be {kind}, got {value!r}")
        try:
            check_int("replications", self.replications, 1)
            check_real("test_fraction", self.test_fraction, 0, 1, strict=True)
            check_int("cv_folds", self.cv_folds, 2)
            check_int("seed_base", self.seed_base, 0)
        except ValueError as exc:
            raise ConfigError(f"$.{exc}") from None
        for method, grid in self.grids.items():
            if method not in METHODS:
                raise ConfigError(f"$.grids.{method}: unknown method")
            if not (isinstance(grid, list) and grid
                    and all(isinstance(p, dict) for p in grid)):
                raise ConfigError(f"$.grids.{method}: must be a non-empty "
                                  f"list of objects, got {grid!r}")
            for i, point in enumerate(grid):
                where = f"$.grids.{method}[{i}]"
                for key in point:
                    if key not in METHODS[method].params:
                        raise ConfigError(f"{where}: unknown parameter {key!r}")
                try:
                    METHODS[method].spec(point)
                except ValueError as exc:
                    raise ConfigError(f"{where}.{exc}") from None
        if (self.generator is None) == (self.dataset_csv is None):
            raise ConfigError(
                "$: exactly one of generator / dataset_csv is required")
        for i, m in enumerate(self.methods):
            if not isinstance(m, str):
                raise ConfigError(
                    f"$.methods[{i}]: must be a string, got {m!r}")
            if m not in METHODS and m not in BEST_VARIANTS:
                raise ConfigError(f"$.methods[{i}]: unknown method {m!r}")
            if m in self.methods[:i]:
                raise ConfigError(f"$.methods[{i}]: duplicate method {m!r}")
            if m == "oracle" and self.dataset_csv is not None:
                raise ConfigError(f"$.methods[{i}]: oracle needs the fully "
                                  "observed design, which a CSV cannot give")
        if self.generator is not None:
            for key in self.generator:
                if key == "seed":
                    raise ConfigError(
                        "$.generator.seed: set per replication from seed_base")
                if key not in GeneratorSpec.__dataclass_fields__:
                    raise ConfigError(f"$.generator.{key}: unknown field")
            try:
                GeneratorSpec(**self.generator)
            except ValueError as exc:
                raise ConfigError(f"$.generator.{exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"$: invalid JSON ({exc})") from exc
        except RecursionError:
            raise ConfigError("$: invalid JSON (nested too deeply)") from None
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
    if (g := config.generator) is None:
        return "csv"
    spec = GeneratorSpec(**g)  # the defaults of the fields that g leaves out
    return (f"{spec.mechanism}_p{spec.p}_{spec.signal}"
            + (f"_{spec.setting}" if "setting" in g else ""))


def run_replication(config: ExperimentConfig, rep: int,
                    methods: list[str] | None = None) -> tuple[list[Record], list[str]]:
    methods = config.methods if methods is None else methods
    rep_seed = config.seed_base + 1000 * rep
    if config.generator is not None:
        spec = GeneratorSpec(**{**config.generator, "seed": rep_seed})
        dataset, X_full, _truth = generate(spec)
    else:
        dataset = read_csv(config.dataset_csv, config.target)
    task = "classification" if _is_binary(dataset.y) else "regression"
    metric_name = "2auc-1" if task == "classification" else "r2"
    rng = np.random.default_rng(rep_seed + 7)
    perm = rng.permutation(dataset.n)
    n_test = int(round(dataset.n * config.test_fraction))
    test_rows, train_rows = perm[:n_test], perm[n_test:]
    split = (dataset.subset(train_rows), dataset.subset(test_rows))
    if "oracle" in methods:  # the same rows, fully observed
        full = MaskedDataset(X_full, dataset.M, dataset.y)
        oracle_split = (full.subset(train_rows), full.subset(test_rows))
    setting = _replication_setting(config)

    records, errors = [], []
    tuned = {}  # variant -> (params, cv score); each is cross-validated once
    for method in methods:
        t0 = time.perf_counter()
        try:
            train, test = oracle_split if method == "oracle" else split
            picks = []
            for v in BEST_VARIANTS.get(method, (method,)):
                if v not in tuned:
                    grid = config.grids.get(v, METHODS[v].grid)
                    tuned[v] = kfold_cv(train, v, grid, config.cv_folds,
                                        rep_seed, task)
                params, score = tuned[v]
                picks.append((score, v, params))
            _, chosen, params = max(picks, key=lambda t: t[0])
            model = fit_method(chosen, train, params, rep_seed, task)
            value = _score(test.y, model.predict(test.X, test.M), task)
            records.append(Record(config.name, method, setting, rep,
                                  metric_name, value,
                                  time.perf_counter() - t0))
        except Exception as exc:  # failure of one cell must not abort the run
            errors.append(f"{config.name}/{method}/rep{rep}: {exc!r}")
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
            results = list(pool.map(run_replication, *zip(*tasks)))
    else:
        results = [run_replication(*t) for t in tasks]
    for recs, errs in results:
        table.records.extend(recs)
        table.errors.extend(errs)
    return table


RESULT_COLUMNS = ("dataset", "method", "setting", "replication", "metric", "value")


def write_results_csv(table: ResultsTable, path, timings_path=None) -> None:
    """Canonically ordered results CSV, wall times in a separate sidecar.

    Keeping timings out of the main file makes reruns byte-identical.
    """
    recs = table.sorted_records()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in recs:
            writer.writerow([r.dataset, r.method, r.setting, r.replication,
                             r.metric, repr(r.value)])
    if timings_path is not None:
        with open(timings_path, "w", newline="", encoding="utf-8") as fh:
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
        with open(timings_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["dataset"], row["method"], int(row["replication"]))
                seconds[key] = float(row["seconds"])
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rep = int(row["replication"])
            records.append(Record(row["dataset"], row["method"], row["setting"],
                                  rep, row["metric"], float(row["value"]),
                                  seconds.get((row["dataset"], row["method"], rep),
                                              0.0)))
    return ResultsTable(records)
