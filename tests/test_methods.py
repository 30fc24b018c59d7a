"""Invariants checked for every method of the method table, bench.METHODS."""

import functools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from missfit import adaptive, bench, joint, learners
from missfit.cli import LOADERS, main
from missfit.core import DatasetError, MaskedDataset, read_csv, to_json, write_csv
from missfit.datagen import GeneratorSpec, generate
from missfit.elasticnet import fit as enet_fit

ROOT = Path(__file__).resolve().parents[1]

# The methods `missfit fit` has always accepted.
CLI_CORE = ("static", "affine_intercept", "affine", "polynomial2",
            "fully_adaptive", "finite", "joint_linear", "joint_tree",
            "joint_forest", "cart_mia", "rf_mia")
SAVED = [m for m, spec in bench.METHODS.items() if spec.saves]
FILLS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "1e300": 1e300}


def split():
    """Training rows with feature 2 always observed (so complete_features
    keeps it), and test rows with more missingness, including all-missing
    rows and patterns absent from training."""
    rng = np.random.default_rng(0)
    n_train, n_test, d = 80, 30, 3
    X = rng.normal(size=(n_train + n_test, d))
    M = (rng.random((n_train + n_test, d)) < 0.3).astype(np.int8)
    M[:n_train, 2] = 0
    M[n_train:] |= (rng.random((n_test, d)) < 0.3).astype(np.int8)
    M[-3:] = 1
    y = np.sum((1 - M) * X, axis=1) + M @ np.array([1.0, -1.0, 0.5]) \
        + 0.1 * rng.normal(size=len(X))
    X = np.where(M == 1, 0.0, X)
    ds = MaskedDataset(X, M, y)
    return ds.subset(np.arange(n_train)), ds.subset(np.arange(n_train, len(X)))


def small_params(name):
    params = dict(bench.METHODS[name].grid[0])
    if "n_trees" in params:
        params["n_trees"] = 5
    return params


def filled(ds, value):
    return MaskedDataset(np.where(ds.M == 1, value, ds.X), ds.M, ds.y)


@functools.lru_cache(maxsize=None)
def clean_fit(name):
    train, _ = split()
    return bench.fit_method(name, train, small_params(name), 0, "regression")


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("name", [m for m in bench.METHODS if m != "oracle"])
def test_masked_slots_never_change_predictions(name, fill):
    # the oracle is left out: by definition it sees the full design
    train, test = split()
    want = clean_fit(name).predict(test.X, test.M)
    assert want.shape == (test.n,) and np.all(np.isfinite(want))
    got = clean_fit(name).predict(filled(test, FILLS[fill]).X, test.M)
    assert np.array_equal(got, want)
    refit = bench.fit_method(name, filled(train, FILLS[fill]),
                             small_params(name), 0, "regression")
    assert np.array_equal(refit.predict(test.X, test.M), want)



@pytest.mark.parametrize("name", [m for m in bench.METHODS if m != "oracle"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_masked_slot_values_never_change_predictions(name, data):
    # any float64 at each masked slot: NaN, ±inf, subnormals, -0.0, huge
    _, test = split()
    masked = test.M == 1
    values = data.draw(st.lists(st.floats(), min_size=int(masked.sum()),
                                max_size=int(masked.sum())))
    X = test.X.copy()
    X[masked] = values
    assert np.array_equal(clean_fit(name).predict(X, test.M),
                          clean_fit(name).predict(test.X, test.M))


@pytest.mark.parametrize("value, dtype", [(2, np.int8), (-1, np.int8),
                                          (2.0, float), (0.5, float),
                                          (-1.0, float)])
@pytest.mark.parametrize("name", list(bench.METHODS))
def test_predict_rejects_a_non_binary_mask(name, value, dtype):
    # before, a 2 read as observed in some methods and as a new pattern in others
    _, test = split()
    M = test.M.astype(dtype)
    M[4, 1] = value
    with pytest.raises(DatasetError, match=r"M\[4\]\[1\] is not binary"):
        clean_fit(name).predict(test.X, M)


@pytest.mark.parametrize("name", list(bench.METHODS))
def test_predict_rejects_a_mismatched_batch(name):
    # a 1-row mask, two extra mask rows, one extra column: never broadcast,
    # cut or ignored
    _, test = split()
    X, M = test.X[:5], test.M[:5]
    wider = lambda A: np.hstack([A, A[:, :1]])
    for bad_X, bad_M in [(X, M[:1]), (X, test.M[:7]), (wider(X), wider(M))]:
        with pytest.raises(ValueError):
            clean_fit(name).predict(bad_X, bad_M)


def kkt_violation(X, y, spec, fit) -> float:
    """Worst violation of the weighted elastic-net optimality conditions at
    `fit`: a zero mean residual for the intercept, and per column with
    variance (the solver leaves the others at 0), x_j . r / n minus the
    ridge term equal to the l1 bound times sign(w_j), or at most the bound
    where w_j = 0."""
    X, w = np.asarray(X, dtype=float), fit.coefficients
    c = np.ones(len(w)) if spec.penalty_weights is None else spec.penalty_weights
    r = y - fit.intercept - X @ w
    g = X.T @ r / len(y) - spec.lam * (1 - spec.alpha) * c * w
    bound = spec.lam * spec.alpha * c
    viol = np.where(w != 0, np.abs(g - bound * np.sign(w)),
                    np.maximum(np.abs(g) - bound, 0.0))
    varied = np.sqrt(np.mean((X - X.mean(axis=0)) ** 2, axis=0)) > 1e-12
    return max(abs(float(r.mean())), float(viol[varied].max(initial=0.0)))


@pytest.mark.parametrize("name", [m for m, e in bench.METHODS.items()
                                  if e.spec in (bench._enet_spec,
                                                bench._finite_spec)])
def test_every_linear_solve_meets_kkt_at_exit(name, monkeypatch):
    # every elastic net the fit solves, through each module's binding
    violations = []

    def checked(X, y, spec):
        fit = enet_fit(X, y, spec)
        violations.append(kkt_violation(X, y, spec, fit))
        return fit

    for module in (adaptive, joint, bench):
        monkeypatch.setattr(module, "enet_fit", checked)
    train, _ = split()
    bench.fit_method(name, train, small_params(name), 0, "regression")
    assert violations and max(violations) < 1e-4


@pytest.mark.parametrize("name", list(bench.METHODS))
def test_bool_mask_predicts_as_its_int8_form(name):
    _, test = split()
    assert np.array_equal(clean_fit(name).predict(test.X, test.M == 1),
                          clean_fit(name).predict(test.X, test.M))


@pytest.mark.parametrize("name", SAVED)
def test_cli_fit_predict_matches_in_process_model(name, tmp_path, capsys):
    train, test = split()
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train, train_csv)
    write_csv(test, test_csv)
    model_json, preds_csv = tmp_path / "model.json", tmp_path / "preds.csv"
    assert main(["fit", "--data", str(train_csv), "--method", name,
                 "--lam", "0.02", "--alpha", "0.7", "--max-depth", "2",
                 "--seed", "3", "--out", str(model_json)]) == 0
    assert main(["predict", "--model", str(model_json), "--data",
                 str(test_csv), "--out", str(preds_csv)]) == 0
    got = [float(v) for v in preds_csv.read_text().splitlines()[1:]]
    model = bench.fit_method(name, read_csv(train_csv, "y"),
                             {"lam": 0.02, "alpha": 0.7, "max_depth": 2}, 3,
                             "regression")
    new = read_csv(test_csv, "y")
    assert got == model.predict(new.X, new.M).tolist()


@pytest.mark.parametrize("name", list(bench.METHODS))
def test_every_fit_is_a_class_that_saves_and_loads(name):
    train, test = split()
    if name == "oracle":  # the fully observed design [X, M], as run_replication builds it
        ds, X_full, _ = generate(GeneratorSpec(n=110, d=3, k=2, r=2, seed=0))
        full = MaskedDataset(np.hstack([X_full, ds.M]), np.zeros((ds.n, 6)), ds.y)
        train, test = full.subset(np.arange(80)), full.subset(np.arange(80, 110))
    model = bench.fit_method(name, train, small_params(name), 0, "regression")
    assert isinstance(model, tuple(LOADERS.values()))
    back = LOADERS[model.to_dict()["type"]].from_dict(model.to_dict())
    assert np.array_equal(back.predict(test.X, test.M), model.predict(test.X, test.M))


# Saved model type -> the reader of its text that the benchmark binds.
READERS = {"adaptive": adaptive.model_from_json,
           "partition_tree": adaptive.tree_from_json,
           "joint": joint.joint_model_from_json,
           "mia_tree": learners.tree_from_json,
           "mia_forest": learners.forest_from_json}


@pytest.mark.parametrize("name", SAVED)
def test_saved_model_text_is_the_codec_and_round_trips(name, tmp_path):
    train, test = split()
    train_csv, model_json = tmp_path / "train.csv", tmp_path / "model.json"
    write_csv(train, train_csv)
    assert main(["fit", "--data", str(train_csv), "--method", name,
                 "--lam", "0.02", "--alpha", "0.7", "--max-depth", "2",
                 "--seed", "3", "--out", str(model_json)]) == 0
    model = bench.fit_method(name, read_csv(train_csv, "y"),
                             {"lam": 0.02, "alpha": 0.7, "max_depth": 2}, 3,
                             "regression")
    text = model_json.read_text(encoding="utf-8")
    assert text == to_json(model)
    back = READERS[model.to_dict()["type"]](text)
    assert to_json(back) == text
    assert np.array_equal(back.predict(test.X, test.M), model.predict(test.X, test.M))


def test_cli_method_set_comes_from_the_table(tmp_path, capsys):
    assert set(CLI_CORE) <= set(SAVED)
    data = tmp_path / "data.csv"
    write_csv(split()[0], data)
    unsaved = set(bench.METHODS) - set(SAVED)
    assert unsaved == {"oracle"}
    for name in sorted(unsaved | set(bench.BEST_VARIANTS)):
        code = main(["fit", "--data", str(data), "--method", name,
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err
    docs = (ROOT / "docs" / "cli.md").read_text()
    fit_section = docs.split("## fit", 1)[1].split("## predict", 1)[0]
    listed = re.search(r"Methods:(.*?)\.\s", fit_section, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(SAVED)
