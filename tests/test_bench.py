import concurrent.futures
import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from missfit.bench import (BEST_VARIANTS, METHODS, ConfigError,
                           ExperimentConfig, Record, ResultsTable, fit_method,
                           kfold_cv, r_squared, read_results_csv,
                           run_experiment, run_replication, scaled_auc,
                           write_results_csv)
from missfit import adaptive, bench
from missfit.cli import LOADERS
from missfit.core import MaskedDataset, read_json, to_json
from missfit.datagen import GeneratorSpec, generate
from missfit.elasticnet import ElasticNetSpec, fit as enet_fit
import oracles


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_prediction_zero(self):
        assert r_squared([1, 2, 3], [2, 2, 2]) == 0.0

    def test_hand_value(self):
        # residual SS 1, total SS 2
        assert r_squared([0, 1, 2], [0, 0, 2]) == pytest.approx(0.5)

    def test_worse_than_mean_negative(self):
        assert r_squared([1, 2, 3], [3, 2, 1]) < 0.0

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError):
            r_squared([1, 1, 1], [1, 2, 3])


class TestScaledAuc:
    def test_perfect(self):
        assert scaled_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed(self):
        assert scaled_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == -1.0

    def test_chance(self):
        assert scaled_auc([0, 1], [0.5, 0.5]) == 0.0

    def test_hand_value(self):
        # pairs: (0.3 vs 0.1) win, (0.3 vs 0.4) loss, (0.7 vs 0.1) win,
        # (0.7 vs 0.4) win -> AUC 0.75 -> scaled 0.5
        assert scaled_auc([0, 1, 0, 1], [0.1, 0.3, 0.4, 0.7]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            scaled_auc([1, 1], [0.2, 0.4])

    def test_matches_midrank_loop(self):
        def loop_auc(y, scores):
            order = np.argsort(scores, kind="stable")
            ranks = np.empty(len(scores))
            sorted_scores = scores[order]
            i = 0
            while i < len(scores):  # midranks over tied blocks
                j = i
                while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
                    j += 1
                ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
            auc = (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            return 2.0 * auc - 1.0

        rng = np.random.default_rng(0)
        for n in (2, 7, 50, 301):
            y = np.arange(n) % 2
            rng.shuffle(y)
            scores = rng.integers(0, 5, size=n) / 4.0  # many tied blocks
            scores[0] = -0.0
            assert scaled_auc(y, scores) == loop_auc(y, scores)


def small_dataset(seed=0, n=120, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < 0.3).astype(int)
    y = np.sum((1 - M) * X, axis=1) + 0.2 * rng.normal(size=n)
    return MaskedDataset(X, M, y)


class TestFitMethod:
    def test_all_grid_methods_produce_finite_predictions(self):
        ds = small_dataset()
        for name in METHODS:
            params = METHODS[name].grid[0]
            if name in ("joint_forest", "rf_mia", "mean_impute_forest"):
                params = {**params, "n_trees": 5}
            model = fit_method(name, ds, params, seed=0, task="regression")
            yhat = model.predict(ds.X, ds.M)
            assert yhat.shape == (ds.n,)
            assert np.all(np.isfinite(yhat))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name, point", [
        ("cart_mia", {"max_depth": 6}), ("rf_mia", {"max_depth": 6, "n_trees": 5}),
        ("mean_impute_tree", {"max_depth": 5}),
        ("mean_impute_forest", {"max_depth": 6, "n_trees": 5})])
    def test_tree_fits_do_not_read_the_task(self, name, point, seed):
        # on 0/1 targets the squared-error search is the Gini search, so a
        # classification cell fits the trees a regression cell would
        data = generated("mcar", seed, "classification")
        docs = [json.dumps(fit_method(name, data, point, seed, task).to_dict())
                for task in ("regression", "classification")]
        assert docs[0] == docs[1]

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            fit_method("mystery", small_dataset(), {}, 0, "regression")

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_params_list_what_the_fit_reads(self, name):
        class Reads(dict):
            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                read.add(key)
                return super().__contains__(key)

        read = set()
        params = {**METHODS[name].grid[0]}
        if "n_trees" in params:
            params["n_trees"] = 3
        fit_method(name, small_dataset(n=60), Reads(params), 0, "regression")
        assert read == set(METHODS[name].params)

    @pytest.mark.parametrize("name", ["static", "finite", "cart_mia", "rf_mia"])
    def test_build_ignores_keys_it_does_not_read(self, name):
        # in process, as fit_method reads a grid point; ExperimentConfig
        # refuses such a key with "unknown parameter"
        point = {**METHODS[name].grid[0], "bogus": 1, "seed": 3}
        assert METHODS[name].build(point) == METHODS[name].build(METHODS[name].grid[0])

    def test_finite_defaults_are_the_librarys(self):
        # a grid point without limits grows the tree a direct call grows;
        # 300 rows are enough for a depth-4 tree to differ
        ds = small_dataset(n=300)
        spec = ElasticNetSpec(lam=0.01, alpha=0.5)
        assert (fit_method("finite", ds, {"lam": 0.01}, 0, "regression").to_dict()
                == adaptive.fit_finite_adaptive(ds, spec).to_dict())

    def test_oracle_requires_full_design(self):
        # only a generator config has the fully observed design
        doc = {"name": "x", "methods": ["static", "oracle"],
               "dataset_csv": "data.csv"}
        with pytest.raises(ConfigError, match=r"\$\.methods\[1\]: oracle"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_complete_features_ignores_missing_columns(self):
        ds = small_dataset(1)
        model = fit_method("complete_features", ds, {"lam": 0.01}, 0,
                           "regression")
        X2 = ds.X.copy()
        cols_with_missing = np.flatnonzero(ds.M.sum(axis=0) > 0)
        X2[:, cols_with_missing] = 1e9
        ds2 = MaskedDataset(X2, ds.M, ds.y)
        assert np.allclose(model.predict(ds.X, ds.M),
                           model.predict(ds2.X, ds2.M))

    @pytest.mark.parametrize("lam", [0.1, 0.01, 0.001])
    def test_complete_features_is_the_fit_of_the_complete_columns(self, lam):
        # a column that some training row misses weighs exactly 0; the others
        # and the intercept are enet_fit's on the complete columns, bit for bit
        ds = generate(GeneratorSpec(n=200, d=8, k=4, d_missing=5, seed=3))[0]
        complete = np.flatnonzero(~ds.M.any(axis=0))
        assert len(complete) == 3
        model = fit_method("complete_features", ds, {"lam": lam}, 0, "regression")
        want = enet_fit(np.where(ds.M == 1, 0.0, ds.X)[:, complete], ds.y,
                        ElasticNetSpec(lam=lam, alpha=0.5))
        w = model.fit.coefficients
        assert model.mode == "static" and len(w) == ds.d
        assert np.array_equal(w[:5], np.zeros(5)) and not np.signbit(w[:5]).any()
        assert w[complete].tobytes() == want.coefficients.tobytes()
        assert model.fit.intercept.hex() == want.intercept.hex()

    def test_complete_features_without_a_complete_column_predicts_the_mean(self):
        ds = small_dataset(4)
        assert ds.M.any(axis=0).all()
        model = fit_method("complete_features", ds, {"lam": 0.01}, 0, "regression")
        test = small_dataset(5, n=30)
        yhat = model.predict(test.X, test.M)
        assert np.array_equal(yhat, np.full(test.n, ds.y.mean()))
        back = LOADERS["adaptive"].from_dict(read_json(to_json(model)))
        assert np.array_equal(back.predict(test.X, test.M), yhat)


class TestKfoldCv:
    def test_noiseless_prefers_smallest_lambda(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        M = np.zeros((100, 3), dtype=int)
        y = X @ np.array([1.0, -1.0, 0.5])
        ds = MaskedDataset(X, M, y)
        grid = [{"lam": 1.0}, {"lam": 0.1}, {"lam": 1e-6}]
        params, score = kfold_cv(ds, "static", grid, folds=5, seed=0)
        assert params == {"lam": 1e-6}
        assert score > 0.999

    def test_tie_keeps_earliest(self):
        ds = small_dataset(3)
        grid = [{"lam": 0.01}, {"lam": 0.01}]
        params, _ = kfold_cv(ds, "static", grid, folds=3, seed=0)
        assert params is grid[0]

    def test_deterministic(self):
        ds = small_dataset(4)
        grid = METHODS["affine_intercept"].grid
        a = kfold_cv(ds, "affine_intercept", grid, 4, seed=9)
        b = kfold_cv(ds, "affine_intercept", grid, 4, seed=9)
        assert a == b

    def test_too_few_rows(self):
        ds = small_dataset(5, n=3)
        with pytest.raises(ValueError):
            kfold_cv(ds, "static", [{"lam": 0.1}], folds=5, seed=0)

    def test_empty_grid_rejected_before_any_fold(self, monkeypatch):
        monkeypatch.setattr(MaskedDataset, "subset", None)  # no fold is built
        with pytest.raises(ValueError, match="static: empty grid"):
            kfold_cv(small_dataset(6, n=50), "static", [], 4, 0)

    def test_one_training_subset_per_fold(self, monkeypatch):
        sizes = []
        subset = MaskedDataset.subset

        def counted(self, rows):
            sizes.append(len(rows))
            return subset(self, rows)

        monkeypatch.setattr(MaskedDataset, "subset", counted)
        grid = [{"lam": 0.1}, {"lam": 0.01}, {"lam": 0.001}]
        kfold_cv(small_dataset(6, n=50), "static", grid, folds=5, seed=0)
        assert sizes == [40] * 5


def no_nesting(monkeypatch, name):
    monkeypatch.setitem(METHODS, name, replace(METHODS[name], nests=False))


def cv_bytes(data, name, grid, task="regression", folds=4, seed=1):
    params, score = kfold_cv(data, name, grid, folds, seed, task)
    return params, np.float64(score).tobytes()


def generated(mechanism, seed, task="regression", n=240):
    data = generate(GeneratorSpec(n=n, d=5, r=3, k=3, mechanism=mechanism,
                                  p=0.4, signal="nn", seed=seed))[0]
    if task == "classification":
        data = MaskedDataset(data.X, data.M,
                             (data.y > np.median(data.y)).astype(float))
    return data


class TestNestedDepthGrids:
    @pytest.fixture
    def fits(self, monkeypatch):
        """The max_depth of every fit that kfold_cv makes."""
        depths, real = [], bench.fit_method

        def counted(name, train, params, seed, task):
            depths.append(params.get("max_depth"))
            return real(name, train, params, seed, task)

        monkeypatch.setattr(bench, "fit_method", counted)
        return depths

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mechanism", ["mcar", "censoring"])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_cart_mia_keeps_its_bytes(self, task, mechanism, seed, fits,
                                      monkeypatch):
        data = generated(mechanism, seed, task)
        grid = [{"max_depth": t, "min_leaf": 3} for t in (1, 2, 3, 5, 8)]
        nested = cv_bytes(data, "cart_mia", grid, task)
        assert fits == [8] * 4  # the deepest point, once per fold
        no_nesting(monkeypatch, "cart_mia")
        fits.clear()
        assert cv_bytes(data, "cart_mia", grid, task) == nested
        assert fits == [1, 2, 3, 5, 8] * 4  # fold by fold, each point alone

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mechanism", ["mcar", "censoring"])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_mean_impute_tree_keeps_its_bytes(self, task, mechanism, seed, fits,
                                              monkeypatch):
        # mu is the column means at every depth, so the imputed matrix, and
        # with it the tree, is the same at every depth
        data = generated(mechanism, seed, task, n=300)
        grid = [{"max_depth": t} for t in (3, 5, 7)]
        nested = cv_bytes(data, "mean_impute_tree", grid, task)
        assert fits == [7] * 4
        no_nesting(monkeypatch, "mean_impute_tree")
        fits.clear()
        assert cv_bytes(data, "mean_impute_tree", grid, task) == nested
        assert fits == [3, 5, 7] * 4

    def test_joint_tree_does_not_nest(self, fits):
        # its mu search reads the tree, so each depth imputes its own mu
        assert not METHODS["joint_tree"].nests
        kfold_cv(generated("censoring", 3), "joint_tree",
                 [{"max_depth": 2}, {"max_depth": 3}], 4, 1)
        assert fits == [2, 3] * 4

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mechanism", ["mcar", "censoring"])
    def test_finite_keeps_its_bytes(self, mechanism, seed, fits, monkeypatch):
        data = generated(mechanism, seed)
        grid = [{"max_depth": t, "min_leaf": 10} for t in (0, 1, 2, 3)]
        nested = cv_bytes(data, "finite", grid)
        assert fits == [3] * 4
        no_nesting(monkeypatch, "finite")
        assert cv_bytes(data, "finite", grid) == nested

    @pytest.mark.parametrize("name", ["cart_mia", "finite", "mean_impute_tree"])
    @pytest.mark.parametrize("depths", [(1, 2, 3), (3, 2, 1), (2, 3, 2, 1, 3)],
                             ids=["ascending", "descending", "repeated"])
    def test_any_order_and_ties(self, name, depths, fits, monkeypatch):
        data = generated("censoring", 4)
        grid = [{"max_depth": t} for t in depths]
        nested = kfold_cv(data, name, grid, 4, 1)
        assert fits == [3] * 4
        no_nesting(monkeypatch, name)
        plain = kfold_cv(data, name, grid, 4, 1)
        assert plain[0] is nested[0]  # the same grid point, the earliest of equals
        assert np.float64(plain[1]).tobytes() == np.float64(nested[1]).tobytes()

    def test_tie_keeps_the_earliest_point(self):
        # at min_leaf 15 no tree grows past depth 1 on 40 training rows, so
        # every point scores the same
        data = generated("mcar", 5, n=60)
        grid = [{"max_depth": 8, "min_leaf": 15}, {"max_depth": 3, "min_leaf": 15},
                {"max_depth": 5, "min_leaf": 15}]
        params, _ = kfold_cv(data, "cart_mia", grid, 3, 0)
        assert params is grid[0]
        params, _ = kfold_cv(data, "cart_mia", grid[1:], 3, 0)
        assert params is grid[1]

    def test_points_that_differ_in_more_than_depth_fit_alone(self, fits):
        data = generated("mcar", 6)
        grid = [{"max_depth": 2, "min_leaf": 5}, {"max_depth": 4, "min_leaf": 10},
                {"max_depth": 6, "min_leaf": 15}]
        kfold_cv(data, "cart_mia", grid, 4, 1)
        assert fits == [2, 4, 6] * 4
        fits.clear()  # without max_depth a point is its own fit
        kfold_cv(data, "finite", [{"lam": 0.1}, {"lam": 0.1, "max_depth": 1}], 4, 1)
        assert fits == [None, 1] * 4

    def test_an_unfitted_point_is_still_checked(self):
        with pytest.raises(ValueError, match="max_depth"):
            kfold_cv(generated("mcar", 7), "cart_mia",
                     [{"max_depth": 0}, {"max_depth": 4}], 4, 1)

    @pytest.mark.parametrize("name", ["cart_mia", "finite", "mean_impute_tree"])
    def test_a_capped_prediction_is_the_shallow_fits(self, name):
        data = generated("censoring", 8)
        train, test = data.subset(np.arange(160)), data.subset(np.arange(160, 240))
        deep = fit_method(name, train, {"max_depth": 4}, 0, "regression")
        for k in range(0 if name == "finite" else 1, 5):
            shallow = fit_method(name, train, {"max_depth": k}, 0, "regression")
            assert (deep.predict(test.X, test.M, k).tobytes()
                    == shallow.predict(test.X, test.M).tobytes())
        assert (deep.predict(test.X, test.M, 9).tobytes()
                == deep.predict(test.X, test.M).tobytes())


def picked(cv, data, name, grid, task="regression", folds=4, seed=1):
    """The index of the grid point that cv picks, and its score's bytes."""
    params, score = cv(data, name, grid, folds, seed, task)
    return (next(i for i, p in enumerate(grid) if p is params),
            np.float64(score).tobytes())


class TestFoldByFold:
    """kfold_cv goes fold by fold and makes each fit of its plan once;
    oracles.kfold_cv goes point by point with every point on its own fit.
    Every (params, score) byte is the same."""

    @pytest.fixture
    def fitted(self, monkeypatch):
        """The params of every fit_method call, in call order."""
        calls, real = [], bench.fit_method

        def counted(name, train, params, seed, task):
            calls.append(params)
            return real(name, train, params, seed, task)

        monkeypatch.setattr(bench, "fit_method", counted)
        return calls

    @pytest.mark.parametrize("name", list(METHODS))
    def test_every_method_on_its_default_grid(self, name, fitted):
        data, grid = generated("censoring", 3, n=60), METHODS[name].grid
        ours = picked(kfold_cv, data, name, grid, folds=3)
        assert len(fitted) == bench.cv_fits(name, grid, 3)
        if not METHODS[name].nests:  # the same points, in fold order
            assert fitted == grid * 3
        assert picked(oracles.kfold_cv, data, name, grid, folds=3) == ours

    @pytest.mark.parametrize("name", ["cart_mia", "mean_impute_tree", "rf_mia",
                                      "finite", "affine_intercept",
                                      "mean_impute_linear"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_classification(self, name, seed):
        data, grid = generated("mcar", seed, "classification", n=80), METHODS[name].grid
        assert (picked(kfold_cv, data, name, grid, "classification")
                == picked(oracles.kfold_cv, data, name, grid, "classification"))

    @pytest.mark.parametrize("name", ["cart_mia", "finite", "mean_impute_tree"])
    def test_a_mixed_nesting_grid(self, name, fitted):
        # two depth families and a point without max_depth, which is its
        # own fit; each family is fitted at its deepest point, the earliest
        # of equals, in the order its first point is declared
        grid = [{"max_depth": 2, "min_leaf": 5}, {"max_depth": 4, "min_leaf": 10},
                {"min_leaf": 5}, {"max_depth": 3, "min_leaf": 5},
                {"max_depth": 1, "min_leaf": 10}, {"max_depth": 4, "min_leaf": 10}]
        data = generated("censoring", 5)
        ours = picked(kfold_cv, data, name, grid)
        assert [id(p) for p in fitted] == [id(grid[k]) for k in (3, 1, 2)] * 4
        assert len(fitted) == bench.cv_fits(name, grid, 4)
        assert picked(oracles.kfold_cv, data, name, grid) == ours

    @pytest.mark.parametrize("scores, best", [
        ([np.nan, 1.0, 2.0], 0), ([1.0, np.nan, 2.0], 2), ([1.0, 2.0, 2.0], 1),
        ([None, -np.inf, 0.5], 2), ([None, np.nan, None], 0),
        ([np.nan, np.nan, 1.0], 0), ([-1.0, None, -0.5], 2)])
    def test_the_pick_is_the_strict_scans(self, scores, best, monkeypatch):
        # each point scores its value in every fold, None raises as a
        # degenerate fold does (-inf): NaN and ties resolve as a best-so-far
        # scan with a strict > resolves them
        grid = [{"lam": 0.1, "score": v} for v in scores]

        class Fixed:
            def __init__(self, value):
                self.value = value

            def predict(self, X, M):
                return self.value

        def score(y, value, task):
            if value is None:
                raise ValueError("degenerate")
            return value

        monkeypatch.setattr(bench, "fit_method",
                            lambda name, train, params, seed, task: Fixed(params["score"]))
        monkeypatch.setattr(bench, "_score", score)
        data = small_dataset(7, n=40)
        ours = picked(kfold_cv, data, "static", grid)
        assert ours == picked(oracles.kfold_cv, data, "static", grid)
        assert ours[0] == best

    @pytest.mark.parametrize("name", ["cart_mia", "fully_adaptive", "rf_mia"])
    def test_no_fit_outlives_its_scores(self, name, monkeypatch):
        live, real = [], bench.fit_method

        def tracked(*args):
            gc.collect()
            assert not [ref for ref in live if ref() is not None]
            model = real(*args)
            live.append(weakref.ref(model))
            return model

        monkeypatch.setattr(bench, "fit_method", tracked)
        grid = [{"max_depth": 2, "n_trees": 5}, {"max_depth": 3, "n_trees": 5}] \
            if name == "rf_mia" else METHODS[name].grid
        kfold_cv(generated("mcar", 9, n=80), name, grid, 4, 1)
        assert len(live) == bench.cv_fits(name, grid, 4)


def patterns(M) -> set:
    return set(map(tuple, np.asarray(M, dtype=int).tolist()))


class TestSharedSolves:
    """The solves kfold_cv and the refit leave out, every byte kept: finite
    solves one tree per fold for its whole depth grid, and fully_adaptive
    solves only the pattern fits that a prediction reads."""

    @pytest.fixture(scope="class")
    def censored(self):
        spec = GeneratorSpec(n=300, d=4, r=2, k=2, mechanism="censoring",
                             p=0.5, seed=3)
        return generate(spec)[0]

    @pytest.fixture
    def solves(self, monkeypatch):
        """One entry per adaptive.enet_fit call made during the test."""
        calls = []
        real = adaptive.enet_fit

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(adaptive, "enet_fit", counted)
        return calls

    @staticmethod
    def cv(data, name, grid):
        params, score = kfold_cv(data, name, grid, folds=5, seed=1)
        return params, np.float64(score).tobytes()

    @pytest.mark.parametrize("name", ["finite", "fully_adaptive"])
    def test_same_bytes_with_fewer_solves(self, name, censored, solves,
                                          monkeypatch):
        train, test = censored.subset(np.arange(200)), censored.subset(np.arange(200, 300))
        grid = METHODS[name].grid
        got = self.cv(train, name, grid)
        n_cv = len(solves)
        pred = fit_method(name, train, got[0], 0, "regression").predict(test.X, test.M)
        n_refit = len(solves) - n_cv
        solves.clear()
        if name == "finite":
            # the deepest point's solves alone; the plain path fits every depth
            self.cv(train, name, grid[-1:])
            assert n_cv == len(solves)
            no_nesting(monkeypatch, name)
        else:
            # per fold and grid point, the fallback and each validation
            # pattern that the training rows hold; the plain path solves
            # every training pattern at fit time, out of this count
            chunks = np.array_split(np.random.default_rng(1).permutation(train.n), 5)
            held = [(patterns(train.M[c]), patterns(np.delete(train.M, c, axis=0)))
                    for c in chunks]
            assert n_cv == len(grid) * sum(len(v & t) + 1 for v, t in held)
            assert n_cv < len(grid) * sum(len(t) + 1 for _, t in held)
            assert n_refit == len(patterns(test.M) & patterns(train.M)) + 1
            eager = lambda name, train, spec, seed, task: \
                oracles.fit_fully_adaptive(train, spec)
            monkeypatch.setitem(METHODS, name, replace(METHODS[name], fit=eager))
        solves.clear()
        assert self.cv(train, name, grid) == got
        if name == "finite":
            assert n_cv < len(solves)
        plain = fit_method(name, train, got[0], 0, "regression")
        assert plain.predict(test.X, test.M).tobytes() == pred.tobytes()


class TestConfig:
    def base(self, **over):
        doc = {"name": "exp", "methods": ["static"],
               "generator": {"n": 100, "d": 4, "k": 2, "p": 0.3}}
        doc.update(over)
        return doc

    def test_round_trip(self):
        config = ExperimentConfig.from_json(json.dumps(self.base()))
        assert config.name == "exp"
        assert config.replications == 10
        assert config.test_fraction == 0.30
        assert config.cv_folds == 5

    def test_unknown_field_path(self):
        with pytest.raises(ConfigError, match=r"\$\.extra"):
            ExperimentConfig.from_json(json.dumps(self.base(extra=1)))

    def test_every_default_grid_passes(self):
        grids = {m: spec.grid for m, spec in METHODS.items()}
        assert ExperimentConfig(**self.base(grids=grids)).grids == grids
        mtry = {"rf_mia": [{"mtry": None}, {"mtry": 2, "n_trees": 5}]}
        assert ExperimentConfig(**self.base(grids=mtry)).grids == mtry

    def test_unknown_method_path(self):
        with pytest.raises(ConfigError, match=r"\$\.methods\[1\]"):
            ExperimentConfig.from_json(
                json.dumps(self.base(methods=["static", "nope"])))

    def test_empty_methods_is_refused(self):
        with pytest.raises(ConfigError, match=r"^\$\.methods: must be a "
                                              r"non-empty list of strings$"):
            ExperimentConfig(**self.base(methods=[]))

    def test_missing_required(self):
        with pytest.raises(ConfigError, match=r"\$\.methods"):
            ExperimentConfig.from_json(json.dumps({"name": "x"}))

    def test_generator_and_csv_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig.from_json(
                json.dumps(self.base(dataset_csv="data.csv")))
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig.from_json(
                json.dumps({"name": "x", "methods": ["static"]}))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_json("{nope")

    def test_bad_generator_params(self):
        with pytest.raises(ConfigError, match=r"\$\.generator"):
            ExperimentConfig.from_json(
                json.dumps(self.base(generator={"d": 2, "k": 5})))

    def test_empty_generator_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^\$\.generator\.n: must be >= 2$"):
            ExperimentConfig.from_json(
                json.dumps(self.base(generator={"n": 0, "d": 4, "k": 2})))

    def test_all_default_generator_labels_its_setting(self):
        config = ExperimentConfig(**self.base(generator={}))
        assert bench._replication_setting(config) == "mcar_p0.3_linear"

    def test_shipped_configs_keep_their_labels(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        labels = {path.stem: bench._replication_setting(ExperimentConfig.from_json(
                      path.read_text(encoding="utf-8")))
                  for path in configs.glob("*.json")}
        assert labels == {"censoring_linear": "censoring_p0.5_linear",
                          "mcar_linear": "mcar_p0.5_linear",
                          "nmar_linear": "mcar_p0.3_linear_nmar"}

    def test_label_reads_the_fields_it_is_given(self):
        config = ExperimentConfig(**self.base(generator={
            "mechanism": "censoring", "p": 0.25, "signal": "nn", "setting": "mar"}))
        assert bench._replication_setting(config) == "censoring_p0.25_nn_mar"


def tiny_config(**over):
    doc = {"name": "tiny", "methods": ["static", "cart_mia"],
           "generator": {"n": 120, "d": 4, "k": 2, "r": 2, "p": 0.3},
           "replications": 2, "cv_folds": 3,
           "grids": {"static": [{"lam": 0.01}],
                     "cart_mia": [{"max_depth": 3}]}}
    doc.update(over)
    return ExperimentConfig(**doc)


class TestRunner:
    @pytest.mark.parametrize("generator, want", [
        ({"mechanism": "censoring", "p": 0.4},
         [0.6721116358029577, 0.6395266824725616]),
        ({"mechanism": "mcar", "p": 0.3, "setting": "nmar", "d_missing": 3,
          "k_missing": 2}, [0.6592618625010189, 0.6849664974293387])])
    def test_oracle_values_are_pinned(self, generator, want):
        # the static fit of the fully observed design [X, M], tuned by CV
        config = ExperimentConfig(
            name="pin", methods=["oracle"], replications=2, cv_folds=3,
            generator={"n": 120, "d": 4, "r": 2, "k": 3, **generator})
        got = [run_replication(config, rep) for rep in range(2)]
        assert [errs for _, errs in got] == [[], []]
        assert [repr(recs[0].value) for recs, _ in got] == list(map(repr, want))

    def test_replication_records(self):
        recs, errs = run_replication(tiny_config(), 0)
        assert errs == []
        assert {r.method for r in recs} == {"static", "cart_mia"}
        for r in recs:
            assert r.metric == "r2"
            assert r.replication == 0
            assert np.isfinite(r.value)
            assert r.seconds >= 0

    def test_replications_differ(self):
        a, _ = run_replication(tiny_config(), 0)
        b, _ = run_replication(tiny_config(), 1)
        assert a[0].value != b[0].value

    def test_failures_logged_not_raised(self):
        # cart_mia cannot fit with min_leaf above half the rows, so that
        # cell fails while the other method still produces a record
        config = tiny_config(grids={"static": [{"lam": 0.01}],
                                    "cart_mia": [{"min_leaf": 1000}]})
        recs, errs = run_replication(config, 0)
        assert [r.method for r in recs] == ["static"]
        assert len(errs) == 1 and "cart_mia" in errs[0]

    def test_best_variant_beats_nothing(self):
        config = tiny_config(methods=["adaptive_best"],
                             grids={"static": [{"lam": 0.01}],
                                    "affine_intercept": [{"lam": 0.01}],
                                    "affine": [{"lam": 0.01}],
                                    "finite": [{"max_depth": 1}]})
        recs, errs = run_replication(config, 0)
        assert errs == []
        assert recs[0].method == "adaptive_best"

    def test_composite_reuses_cv_of_a_variant_run_alone(self, monkeypatch,
                                                        tmp_path):
        calls = []
        real_cv = bench.kfold_cv
        monkeypatch.setattr(bench, "kfold_cv",
                            lambda *a, **k: calls.append(1) or real_cv(*a, **k))
        grids = {"static": [{"lam": 0.01}],
                 "affine_intercept": [{"lam": 0.1}, {"lam": 0.01}],
                 "affine": [{"lam": 0.01}], "finite": [{"max_depth": 1}]}
        both = run_experiment(tiny_config(
            methods=["affine_intercept", "adaptive_best"], grids=grids))
        shared_calls = len(calls)
        calls.clear()
        alone = [run_experiment(tiny_config(methods=[m], grids=grids))
                 for m in ("affine_intercept", "adaptive_best")]
        assert shared_calls == len(calls) - tiny_config().replications
        write_results_csv(both, tmp_path / "both.csv")
        write_results_csv(ResultsTable(alone[0].records + alone[1].records),
                          tmp_path / "alone.csv")
        assert (tmp_path / "both.csv").read_bytes() == \
            (tmp_path / "alone.csv").read_bytes()

    def counted(self, monkeypatch, name):
        """The positional arguments of each call of bench.<name>."""
        calls, real = [], getattr(bench, name)
        monkeypatch.setattr(bench, name,
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_a_one_point_method_is_fitted_once_without_cv(self, monkeypatch):
        cv = self.counted(monkeypatch, "kfold_cv")
        fits = self.counted(monkeypatch, "fit_method")
        table = run_experiment(tiny_config())  # one point per method
        assert table.errors == [] and len(table.records) == 4
        assert cv == []
        assert sorted(a[0] for a in fits) == ["cart_mia"] * 2 + ["static"] * 2

    @pytest.mark.parametrize("method, point", [
        ("static", {"lam": 0.01}), ("cart_mia", {"max_depth": 3}),
        ("rf_mia", {"max_depth": 3, "n_trees": 3}),
        ("joint_forest", {"max_depth": 3, "n_trees": 3})])
    def test_one_point_bytes_equal_those_of_the_point_cross_validated(
            self, method, point, tmp_path):
        # the point listed twice forces CV, whose ties keep the earliest point
        paths = []
        for grid in ([point], [point, point]):
            table = run_experiment(tiny_config(methods=[method],
                                               grids={method: grid}))
            assert table.errors == [] and len(table.records) == 2
            paths.append(tmp_path / f"{len(grid)}.csv")
            write_results_csv(table, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    ONE_POINT_VARIANTS = {"static": [{"lam": 0.01}],
                          "affine_intercept": [{"lam": 0.01}],
                          "affine": [{"lam": 0.01}],
                          "finite": [{"max_depth": 1}]}

    def test_a_composite_cross_validates_its_one_point_variants(
            self, monkeypatch):
        cv = self.counted(monkeypatch, "kfold_cv")
        table = run_experiment(tiny_config(methods=["adaptive_best"],
                                           grids=self.ONE_POINT_VARIANTS))
        assert table.errors == []
        assert [a[1] for a in cv] == list(BEST_VARIANTS["adaptive_best"]) * 2

    @pytest.mark.parametrize("methods", [["static", "adaptive_best"],
                                         ["adaptive_best", "static"]])
    def test_a_one_point_method_beside_its_composite(self, methods, tmp_path):
        grids = self.ONE_POINT_VARIANTS
        both = run_experiment(tiny_config(methods=methods, grids=grids))
        alone = [run_experiment(tiny_config(methods=[m], grids=grids))
                 for m in methods]
        assert both.errors == [] and len(both.records) == 4
        write_results_csv(both, tmp_path / "both.csv")
        write_results_csv(ResultsTable(alone[0].records + alone[1].records),
                          tmp_path / "alone.csv")
        assert (tmp_path / "both.csv").read_bytes() == \
            (tmp_path / "alone.csv").read_bytes()

    def test_run_experiment_serial_equals_parallel(self):
        config = tiny_config()
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert serial.sorted_records() != []
        a = [(r.sort_key(), r.value) for r in serial.sorted_records()]
        b = [(r.sort_key(), r.value) for r in parallel.sorted_records()]
        assert a == b

    def test_at_most_one_worker_per_replication_left(self, monkeypatch):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = tiny_config(methods=["static"], replications=3)
        full = run_experiment(config, jobs=64)
        resumed = run_experiment(config, jobs=64, skip={("tiny", "static", 0)})
        assert pools == [3, 2]
        assert [r.replication for r in full.sorted_records()] == [0, 1, 2]
        assert [r.value for r in resumed.sorted_records()] == \
            [r.value for r in full.sorted_records()[1:]]

    def test_skip_cells(self):
        config = tiny_config()
        table = run_experiment(config, skip={("tiny", "static", 0)})
        keys = {(r.method, r.replication) for r in table.records}
        assert ("static", 0) not in keys
        assert ("cart_mia", 0) in keys
        assert ("static", 1) in keys


class TestResultsIO:
    def records(self):
        return [Record("d", "m2", "s", 0, "r2", 0.5, 1.0),
                Record("d", "m1", "s", 1, "r2", 0.25, 2.0),
                Record("d", "m1", "s", 0, "r2", 0.125, 3.0)]

    def test_canonical_order(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(ResultsTable(self.records()), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,method,setting,replication,metric,value"
        assert [l.split(",")[1:4:2] for l in lines[1:]] == \
            [["m1", "0"], ["m1", "1"], ["m2", "0"]]

    def test_order_independent_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(ResultsTable(self.records()), a)
        write_results_csv(ResultsTable(self.records()[::-1]), b)
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_detected(self, tmp_path):
        recs = self.records() + [Record("d", "m1", "s", 0, "r2", 0.9, 0.0)]
        with pytest.raises(ValueError, match="duplicate"):
            write_results_csv(ResultsTable(recs), tmp_path / "x.csv")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(ResultsTable(self.records()), path)
        back = read_results_csv(path)
        assert [(r.sort_key(), r.value) for r in back.sorted_records()] == \
            [(r.sort_key(), r.value)
             for r in ResultsTable(self.records()).sorted_records()]

    def test_timings_sidecar(self, tmp_path):
        path = tmp_path / "out.csv"
        timings = tmp_path / "out.timings.csv"
        write_results_csv(ResultsTable(self.records()), path, timings)
        lines = timings.read_text().splitlines()
        assert lines[0] == "dataset,method,replication,seconds"
        assert len(lines) == 4

    def test_summary(self):
        table = ResultsTable(self.records())
        summary = table.summary()
        mean, se = summary[("m1", "r2")]
        assert mean == pytest.approx((0.25 + 0.125) / 2)
        vals = np.array([0.25, 0.125])
        assert se == pytest.approx(vals.std(ddof=1) / np.sqrt(2))
        assert summary[("m2", "r2")] == (0.5, 0.0)


def test_classification_pipeline():
    config = tiny_config(methods=["cart_mia"],
                         grids={"cart_mia": [{"max_depth": 3}]})
    # generate a binary-target CSV by thresholding a synthetic instance
    ds, _, _ = generate(GeneratorSpec(n=150, d=4, k=2, r=2, p=0.3, seed=0))
    import tempfile, os
    from missfit.core import write_csv
    binary = MaskedDataset(ds.X, ds.M, (ds.y > np.median(ds.y)).astype(float))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bin.csv")
        write_csv(binary, path)
        config.generator = None
        config.dataset_csv = path
        recs, errs = run_replication(config, 0)
    assert errs == []
    assert recs[0].metric == "2auc-1"
    assert -1.0 <= recs[0].value <= 1.0
