"""Metrics, cross-validation, and the experiment runner.

run_experiment reproduces the evaluation pipeline: per replication, hold out
a test fraction, tune each method's hyper-parameters by k-fold CV on the
training split, refit on the full training split, and score on the test
split. A method whose grid has one point is not cross-validated, since CV
could choose nothing else: that point is fitted once. A composite's variants
always are, one-point grids included, because their CV scores pick the
variant. Records are canonically ordered so output bytes never depend on the
degree of parallelism.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .core import MaskedDataset, check_int, check_real, read_csv, read_json
from .elasticnet import ElasticNetSpec, fit as enet_fit
from .adaptive import (STATIC, AdaptiveModel, expand_matrix, fit_adaptive,
                       fit_finite_adaptive, finite_limits)
from .joint import (FitLimits, fit_mean_impute, joint_fit, joint_search,
                    linear_contract, mse_error, tree_contract, forest_contract)
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


def task_of(y) -> str:
    """The task a cell fits for target y: classification when y takes the
    values 0 and 1 and no other, regression otherwise."""
    vals = np.unique(y)
    return ("classification" if len(vals) == 2 and set(vals) <= {0.0, 1.0}
            else "regression")


# ---------------------------------------------------------------------------
# Methods. Method.build turns a grid point into the checked spec that fit reads;
# tree fits set the seed with dataclasses.replace. Fits return a model with predict.

def _enet_spec(lam=0.01, alpha=0.5) -> ElasticNetSpec:
    return ElasticNetSpec(lam=lam, alpha=alpha)


def _finite_spec(lam=0.01, alpha=0.5, **limits) -> tuple[ElasticNetSpec, dict]:
    return _enet_spec(lam, alpha), finite_limits(**limits)


def _fit_adaptive(name, train, spec, seed, task):
    return fit_adaptive(train, name, spec)


def _fit_finite(name, train, spec, seed, task):
    return fit_finite_adaptive(train, spec[0], **spec[1])


def _fit_imputed(name, train, spec, seed, task):
    """joint_* and mean_impute_*: an imputation vector mu, then the regressor
    that the name's suffix names. Only joint_* searches mu."""
    kind = name.rsplit("_", 1)[1]
    contract = {"linear": linear_contract, "tree": tree_contract,
                "forest": forest_contract}[kind](spec)
    if name.startswith("mean_impute_"):
        return fit_mean_impute(train, contract, seed)
    metric = auc_error if task == "classification" else mse_error
    return joint_fit(train, contract, FitLimits(), metric, seed)


def _joint_tree_depths(train, params, seed, task):
    """joint_tree's fold fit for a depth grid (Method.nests): the first tree
    of its deepest point, `params`, which is mean_impute_tree's tree. It
    returns the model at each depth k: its own mu search from that tree's
    top k levels, its own first tree to the bit (MiaTree.top), so the model
    is the one its own fit makes, refits and stop included."""
    first = fit_method("mean_impute_tree", train, params, seed, task).predictor
    spec = _method("joint_tree").build(params)
    metric = auc_error if task == "classification" else mse_error

    def at(depth):  # None: params' own
        point = spec if depth is None else replace(spec, max_depth=depth)
        return joint_search(train, tree_contract(point), first.top(point.max_depth),
                            FitLimits(), metric, seed)

    return at


def _fit_mia(name, train, spec, seed, task):
    fit = fit_cart_mia if name == "cart_mia" else fit_forest
    return fit(train, replace(spec, seed=seed))


def _fit_complete(name, train, spec, seed, task):
    """The static fit that weighs 0 every column some training row misses.
    On the fully observed design [X, M] (see run_replication) it keeps every
    column: the oracle."""
    cols = np.flatnonzero(train.M.sum(axis=0) == 0)
    fit = enet_fit(expand_matrix(train.X, train.M, STATIC)[:, cols], train.y, spec)
    w = np.zeros(train.d)
    w[cols] = fit.coefficients
    return AdaptiveModel(STATIC, train.d, replace(fit, coefficients=w))


@dataclass(frozen=True)
class Method:
    spec: Callable     # (**params) -> the checked spec that fit reads
    params: tuple[str, ...]  # the grid parameters: spec's keywords
    fit: Callable      # (name, train, spec, seed, task) -> model
    # default hyper-parameter grid; run alone, a method is cross-validated
    # over it only where it has more than one point
    grid: list[dict]
    saves: bool = False  # `missfit fit` may save it (model.to_dict())
    # its tree grown to max_depth k is the top k levels of any deeper one on
    # the same rows, so CV fits a depth grid once per fold (_fit_plan). True:
    # its model's predict(X, M, depth) reads that top (cart_mia, finite, and
    # mean_impute_tree, whose mu is the column means at every depth). Or the
    # fold fit, which returns the model of each depth: joint_tree's mu search
    # reads the tree, so each depth searches from one first tree's top
    nests: bool | Callable = False

    def build(self, params: dict):
        """The spec of grid point `params`, whose keys outside self.params it ignores."""
        return self.spec(**{k: params[k] for k in self.params if k in params})


_LINEAR = (_enet_spec, ("lam", "alpha"))
_FINITE = (_finite_spec, ("lam", "alpha", "max_depth", "min_leaf"))
_TREE = (TreeParams, ("max_depth", "min_leaf"))
_FOREST = (TreeParams, ("max_depth", "min_leaf", "n_trees", "mtry"))


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
    "finite": Method(*_FINITE, _fit_finite, _depths(1, 2, 3), True, nests=True),
    "joint_linear": Method(*_LINEAR, _fit_imputed, _lams(0.01, 0.001), True),
    "joint_tree": Method(*_TREE, _fit_imputed, _depths(3, 5), True,
                         nests=_joint_tree_depths),
    "joint_forest": Method(*_FOREST, _fit_imputed, _depths(6, n_trees=50), True),
    "mean_impute_linear": Method(*_LINEAR, _fit_imputed, _lams(0.1, 0.01, 0.001), True),
    "mean_impute_tree": Method(*_TREE, _fit_imputed, _depths(3, 5, 7), True, nests=True),
    "mean_impute_forest": Method(*_FOREST, _fit_imputed, _depths(6, 9, n_trees=100), True),
    "cart_mia": Method(*_TREE, _fit_mia, _depths(2, 4, 6, 8, 10), True, nests=True),
    "rf_mia": Method(*_FOREST, _fit_mia, _depths(6, 9, n_trees=100), True),
    "complete_features": Method(*_LINEAR, _fit_complete, _lams(0.1, 0.01, 0.001), True),
    "oracle": Method(*_LINEAR, _fit_complete, _lams(0.1, 0.01, 0.001)),
}

BEST_VARIANTS = {
    "adaptive_best": ("static", "affine_intercept", "affine", "finite"),
    "joint_best": ("joint_linear", "joint_tree", "joint_forest"),
    "mean_impute_best": ("mean_impute_linear", "mean_impute_tree",
                         "mean_impute_forest"),
}


def _method(name: str) -> Method:
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; valid: {', '.join(METHODS)}")
    return METHODS[name]


def fit_method(name: str, train: MaskedDataset, params: dict, seed: int,
               task: str):
    """Fit one named method; returns a model with predict(X, M) -> scores."""
    method = _method(name)
    return method.fit(name, train, method.build(params), seed, task)


def _score(y, yhat, task) -> float:
    return scaled_auc(y, yhat) if task == "classification" else r_squared(y, yhat)


def _fit_plan(name: str, grid: list[dict]) -> dict[int, list[tuple[int, int | None]]]:
    """Checked: the grid index of each point that is fitted, mapped to the
    (grid index, depth cap) of every point scored on that fit. A method that
    nests scores each point that sets max_depth on the fit of the deepest
    point that agrees with it on every other key (the earliest declared
    among equals), predicted at its own depth; every other point is scored
    on its own fit, predicted whole (depth None)."""
    method = _method(name)
    rest = [{k: v for k, v in p.items() if k != "max_depth"} for p in grid]
    plan = {}
    for i, params in enumerate(grid):
        method.build(params)  # points that are never fitted are checked too
        peers = [k for k, p in enumerate(grid) if "max_depth" in p and rest[k] == rest[i]]
        top, depth = ((max(peers, key=lambda k: grid[k]["max_depth"]), params["max_depth"])
                      if method.nests and "max_depth" in params else (i, None))
        plan.setdefault(top, []).append((i, depth))
    return plan


def kfold_cv(dataset: MaskedDataset, name: str, grid: list[dict], folds: int,
             seed: int, task: str = "regression"):
    """Pick the grid point with the best mean validation score.

    Fold assignment is a seeded shuffle split into `folds` chunks. Ties keep
    the earliest grid point in declared order. Returns (params, cv_score).

    CV goes fold by fold: per fold it builds the training set, makes each
    fit of _fit_plan once, scores on it every grid point it serves, and
    drops it. A nested depth grid (cart_mia, finite, mean_impute_tree,
    joint_tree) is fitted at its deepest point, and each point is scored on
    that fit's predictions at its own depth, which are the bytes of its own
    fit's. For joint_tree that fit is the first tree alone, and each point's
    mu search starts from its top levels (_joint_tree_depths).
    """
    if not grid:
        raise ValueError(f"{name}: empty grid, nothing to cross-validate")
    if dataset.n < folds:
        raise ValueError("need n >= folds")
    plan, nests = _fit_plan(name, grid), METHODS[name].nests
    fit = nests if callable(nests) else partial(fit_method, name)
    chunks = np.array_split(np.random.default_rng(seed).permutation(dataset.n), folds)
    scores = [[] for _ in grid]
    for f, val in enumerate(chunks):
        train = dataset.subset(np.concatenate(chunks[:f] + chunks[f + 1:]))
        X, M, y = dataset.X[val], dataset.M[val], dataset.y[val]
        for top, points in plan.items():
            model = fit(train, grid[top], seed, task)
            for i, depth in points:
                if callable(nests):  # the model of each depth
                    yhat = model(depth).predict(X, M)
                else:
                    yhat = model.predict(X, M) if depth is None else model.predict(X, M, depth)
                try:
                    scores[i].append(_score(y, yhat, task))
                except ValueError:  # degenerate fold (constant / one-class)
                    continue
            del model  # no fit outlives its scores
    means = [float(np.mean(s)) if s else -np.inf for s in scores]
    best = max(range(len(grid)), key=means.__getitem__)  # the first of equals
    return grid[best], means[best]


def cv_fits(name: str, grid: list[dict], folds: int) -> int:
    """The fit_method calls kfold_cv(..., name, grid, folds, ...) makes: per
    fold, one per fit of its plan, a nested depth grid once."""
    return folds * len(_fit_plan(name, grid))


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
        if not self.methods:
            raise ConfigError("$.methods: must be a non-empty list of strings")
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
                    METHODS[method].build(point)
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
            doc = read_json(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"$: invalid JSON ({exc})") from exc
        except RecursionError:
            raise ConfigError("$: invalid JSON (nested too deeply)") from None
        except ValueError as exc:  # a name given twice, an int too long to read
            raise ConfigError(f"$: {exc}") from None
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

    def grid(self, name: str) -> list[dict]:
        """The grid of individual method `name`: the config's, else the default."""
        return self.grids.get(name, METHODS[name].grid)


def cv_grids(config: ExperimentConfig, method: str) -> dict[str, list[dict]]:
    """Variant -> grid, for each variant a cell of `method` cross-validates:
    each of a composite's, one-point grids included, as their scores pick
    the variant; a method alone only if its grid has more than one point."""
    if method in BEST_VARIANTS:
        return {v: config.grid(v) for v in BEST_VARIANTS[method]}
    return {method: grid} if len(grid := config.grid(method)) > 1 else {}


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
    task = task_of(dataset.y)
    metric_name = "2auc-1" if task == "classification" else "r2"
    rng = np.random.default_rng(rep_seed + 7)
    perm = rng.permutation(dataset.n)
    n_test = int(round(dataset.n * config.test_fraction))
    test_rows, train_rows = perm[:n_test], perm[n_test:]
    split = (dataset.subset(train_rows), dataset.subset(test_rows))
    if "oracle" in methods:  # the same rows: the design [X, M], fully observed
        full = MaskedDataset(np.hstack([X_full, dataset.M]),
                             np.zeros((dataset.n, 2 * dataset.d)), dataset.y)
        oracle_split = (full.subset(train_rows), full.subset(test_rows))
    setting = _replication_setting(config)

    records, errors = [], []
    # variant -> (params, cv score), for each variant of cv_grids; a variant
    # that two cells cross-validate is cross-validated once per replication
    tuned = {}
    for method in methods:
        t0 = time.perf_counter()
        try:
            train, test = oracle_split if method == "oracle" else split
            picks = []
            for v, grid in cv_grids(config, method).items():
                if v not in tuned:
                    tuned[v] = kfold_cv(train, v, grid, config.cv_folds,
                                        rep_seed, task)
                params, score = tuned[v]
                picks.append((score, v, params))
            _, chosen, params = max(picks, key=lambda t: t[0]) if picks \
                else (None, method, config.grid(method)[0])  # nothing to choose
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
        from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
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
