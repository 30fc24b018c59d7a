"""Degenerate inputs and run reproducibility, for every method of bench.METHODS.

The oracle is left out of the per-method fits: it needs the fully observed
design, which only the benchmark runner holds.
"""

import csv
import json

import numpy as np
import pytest

from missfit import bench
from missfit.cli import main
from missfit.core import MaskedDataset

NAMES = [m for m in bench.METHODS if m != "oracle"]
TREES = ("cart_mia", "rf_mia", "joint_tree", "mean_impute_tree", "finite")


def small_params(name, **over):
    params = {**bench.METHODS[name].grid[0], **over}
    if "n_trees" in params:
        params["n_trees"] = 3
    return params


def dataset(n, M=None, seed=0, d=3):
    """Rows with an MCAR(0.3) mask unless M is given; masked slots hold 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if M is None:
        M = (rng.random((n, d)) < 0.3).astype(np.int8)
    M = np.broadcast_to(np.asarray(M, dtype=np.int8), (n, d))
    y = np.sum((1 - M) * X, axis=1) + M @ np.arange(1.0, d + 1) \
        + 0.1 * rng.normal(size=n)
    return MaskedDataset(np.where(M == 1, 0.0, X), M, y)


def assert_fits_and_predicts(name, train, params=None):
    """Fit on train; predict finite values of the right shape on new rows,
    both those of train's patterns and others."""
    model = bench.fit_method(name, train, params or small_params(name), 0,
                             "regression")
    for test in (dataset(20, train.M[:1], seed=9), dataset(20, seed=9)):
        yhat = model.predict(test.X, test.M)
        assert yhat.shape == (test.n,) and np.all(np.isfinite(yhat))


@pytest.mark.parametrize("name", NAMES)
def test_a_column_always_missing(name):
    M = (np.random.default_rng(1).random((80, 3)) < 0.3).astype(np.int8)
    M[:, 1] = 1
    assert_fits_and_predicts(name, dataset(80, M))


@pytest.mark.parametrize("name", NAMES)
def test_a_single_missingness_pattern(name):
    assert_fits_and_predicts(name, dataset(80, [0, 1, 0]))


@pytest.mark.parametrize("name", NAMES)
def test_no_missing_values(name):
    assert_fits_and_predicts(name, dataset(80, [0, 0, 0]))


@pytest.mark.parametrize("min_leaf", [1, 5])
@pytest.mark.parametrize("name", TREES)
def test_exactly_twice_min_leaf_rows(name, min_leaf):
    assert_fits_and_predicts(name, dataset(2 * min_leaf),
                             small_params(name, min_leaf=min_leaf))


@pytest.mark.parametrize("name", NAMES)
def test_kfold_cv_scores_when_folds_hold_one_class(name):
    # 3 positives in 5 folds: at least two validation folds are one-class;
    # then all 3 in one validation fold, so its training rows are one-class
    ds = dataset(60)
    one_fold = np.random.default_rng(0).permutation(60)[:3]  # kfold_cv's fold 0
    for positives in ([4, 30, 51], one_fold):
        y = np.zeros(60)
        y[positives] = 1.0
        _, score = bench.kfold_cv(MaskedDataset(ds.X, ds.M, y), name,
                                  [small_params(name)], 5, 0, "classification")
        assert np.isfinite(score)


@pytest.mark.parametrize("name, point", [
    ("static", {"lam": 0.01}), ("cart_mia", {"max_depth": 2, "min_leaf": 1})])
def test_a_one_point_method_fits_fewer_training_rows_than_folds(name, point):
    # 4 training rows and 5 folds: a one-point cell is fitted without CV; a
    # two-point one still needs CV, and CV needs a row per fold
    doc = {"name": "few", "methods": [name], "replications": 1,
           "generator": {"n": 8, "d": 2, "k": 1, "r": 1},
           "test_fraction": 0.5, "cv_folds": 5}
    recs, errs = bench.run_replication(
        bench.ExperimentConfig(**doc, grids={name: [point]}), 0)
    assert errs == [] and np.isfinite(recs[0].value)
    _, errs = bench.run_replication(
        bench.ExperimentConfig(**doc, grids={name: [point, point]}), 0)
    assert len(errs) == 1 and "need n >= folds" in errs[0]


def tiny_config():
    """Every method and *_best variant, one grid point each."""
    return {"name": "tiny",
            "methods": list(bench.METHODS) + list(bench.BEST_VARIANTS),
            "generator": {"n": 90, "d": 3, "k": 2, "r": 2, "p": 0.3,
                          "mechanism": "censoring"},
            "replications": 2, "cv_folds": 2,
            "grids": {m: [small_params(m)] for m in bench.METHODS}}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Config path and the bytes of one serial run; every cell succeeds."""
    tmp = tmp_path_factory.mktemp("tiny")
    config = tmp / "tiny.json"
    config.write_text(json.dumps(tiny_config()))
    out = tmp / "ref.csv"
    assert main(["bench", "--config", str(config), "--out", str(out),
                 "--jobs", "1"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(tiny_config()["methods"])
    return config, out.read_bytes()


def run_bytes(config, out, *flags):
    assert main(["bench", "--config", str(config), "--out", str(out),
                 *flags]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("flags", [("--jobs", "1"), ("--jobs", "2")])
def test_results_bytes_repeat_in_process_and_across_jobs(reference, tmp_path,
                                                         flags):
    config, want = reference
    assert run_bytes(config, tmp_path / "out.csv", *flags) == want


@pytest.mark.parametrize("dropped", ["finite", "joint_best"])
def test_resume_after_dropping_one_method_restores_the_bytes(
        reference, tmp_path, dropped):
    config, want = reference
    out = tmp_path / "out.csv"
    lines = want.decode().splitlines(keepends=True)
    kept = [ln for ln in lines if ln.split(",")[1] != dropped]
    assert len(kept) == len(lines) - 2
    out.write_text("".join(kept))
    assert run_bytes(config, out, "--jobs", "1", "--resume") == want
