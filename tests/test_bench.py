import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from missfit.bench import (BEST_VARIANTS, METHODS, ConfigError,
                           ExperimentConfig, Record, ResultsTable, fit_method,
                           kfold_cv, r_squared, read_results_csv,
                           run_experiment, run_replication, scaled_auc,
                           write_results_csv)
from missfit import adaptive, bench
from missfit.core import MaskedDataset
from missfit.datagen import GeneratorSpec, generate
from missfit.elasticnet import ElasticNetSpec


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

        read = set()
        params = {**METHODS[name].grid[0]}
        if "n_trees" in params:
            params["n_trees"] = 3
        fit_method(name, small_dataset(n=60), Reads(params), 0, "regression")
        assert read == set(METHODS[name].params)

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


class TestSharedSolves:
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
        grid = METHODS[name].grid
        shared = self.cv(censored, name, grid)
        n_shared = len(solves)
        monkeypatch.setattr(bench, "shared_solves", contextlib.nullcontext)
        solves.clear()
        assert self.cv(censored, name, grid) == shared
        assert n_shared < len(solves)
        if name == "finite":  # depths 1 and 2 are the top of the depth-3 tree
            solves.clear()
            self.cv(censored, name, grid[-1:])
            assert n_shared <= len(solves)

    def test_cache_lives_only_inside_the_block(self, censored, monkeypatch):
        kfold_cv(censored, "finite", [{"max_depth": 1}], folds=3, seed=0)
        assert adaptive._SOLVES is None
        with adaptive.shared_solves():
            outer = adaptive._SOLVES
            kfold_cv(censored, "finite", [{"max_depth": 1}], folds=3, seed=0)
            assert adaptive._SOLVES is outer and outer == {}
        assert adaptive._SOLVES is None

        def fails(*args, **kwargs):
            raise RuntimeError("solver down")

        monkeypatch.setattr(adaptive, "enet_fit", fails)
        with pytest.raises(RuntimeError, match="solver down"):
            kfold_cv(censored, "fully_adaptive", [{"lam": 0.1}], folds=3, seed=0)
        assert adaptive._SOLVES is None

    def test_a_hit_is_a_fresh_copy_of_the_solve(self, censored, solves):
        A = adaptive.expand_matrix(censored.X, censored.M, "affine_intercept")
        y = censored.y
        spec = ElasticNetSpec(lam=1e-3, alpha=0.5)
        fresh = adaptive._solve(A, y, spec)
        solves.clear()
        with adaptive.shared_solves():
            adaptive._solve(A, y, spec)
            hit = adaptive._solve(A.copy(order="F"), y.copy(), spec)
            (entry,) = adaptive._SOLVES.values()
            assert len(solves) == 1
            # other bytes or another spec are another problem
            adaptive._solve(A, np.nextafter(y, np.inf), spec)
            adaptive._solve(A, y, ElasticNetSpec(lam=1e-3, alpha=0.5,
                                                 penalty_weights=np.ones(8)))
            adaptive._solve(A, y, ElasticNetSpec(lam=1e-3, alpha=0.5, tol=1e-6))
            assert len(solves) == len(adaptive._SOLVES) == 4
        assert hit.converged == fresh.converged
        assert np.float64(hit.intercept).tobytes() == np.float64(fresh.intercept).tobytes()
        assert hit.coefficients.tobytes() == fresh.coefficients.tobytes()
        assert np.array(hit.objective_trace).tobytes() \
            == np.array(fresh.objective_trace).tobytes()
        assert all(type(v) is float for v in hit.objective_trace)
        assert not any(np.shares_memory(hit.coefficients, a)
                       for a in entry if isinstance(a, np.ndarray))


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

    def test_run_experiment_serial_equals_parallel(self):
        config = tiny_config()
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert serial.sorted_records() != []
        a = [(r.sort_key(), r.value) for r in serial.sorted_records()]
        b = [(r.sort_key(), r.value) for r in parallel.sorted_records()]
        assert a == b

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
