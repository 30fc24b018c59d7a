"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line so the whole gate can be read off
the -s output at a glance. These run the real pipeline (no mocking) and are
slower than the unit tests; the full module finishes in a few minutes.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from missfit.adaptive import (AFFINE, AFFINE_INTERCEPT, FULLY_ADAPTIVE, STATIC,
                              expansion_size, extract_imputation,
                              fit_adaptive, fit_finite_adaptive)
from missfit.bench import (ExperimentConfig, run_experiment, write_results_csv)
from missfit.core import MaskedDataset, unique_patterns
from missfit.datagen import adversarial_permute
from missfit.elasticnet import ElasticNetSpec, fit as enet_fit
from missfit.joint import FitLimits, joint_fit, linear_contract

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _run_config(path, tmp_path):
    """Per method, the mean score of the config's full run, whose results
    CSV must be the bytes of the committed <name>.results.csv beside it."""
    config = ExperimentConfig.from_json(path.read_text())
    table = run_experiment(config, jobs=4)
    assert not table.errors, table.errors
    write_results_csv(table, out := tmp_path / "results.csv")
    golden = path.with_name(f"{path.stem}.results.csv")
    assert out.read_bytes() == golden.read_bytes(), \
        f"results moved: diff {out} {golden}, and rewrite it if on purpose"
    means = {}
    for (method, metric), (mean, _se) in table.summary().items():
        means[method] = mean
    return means


class TestCriterion1:
    def test_censoring_gap(self, tmp_path):
        means = _run_config(CONFIG_DIR / "censoring_linear.json", tmp_path)
        gap_joint = means["joint_linear"] - means["mean_impute_linear"]
        gap_adaptive = means["affine_intercept"] - means["mean_impute_linear"]
        _report("criterion 1: censoring R2 gap > 0.03 for joint and adaptive",
                gap_joint > 0.03 and gap_adaptive > 0.03,
                f"joint +{gap_joint:.3f}, adaptive +{gap_adaptive:.3f}")


class TestCriterion2:
    def test_mcar_parity(self, tmp_path):
        means = _run_config(CONFIG_DIR / "mcar_linear.json", tmp_path)
        diff = abs(means["joint_linear"] - means["mean_impute_linear"])
        _report("criterion 2: MCAR |joint - mean-impute| < 0.03",
                diff < 0.03, f"|diff| = {diff:.4f}")


class TestCriterion11:
    def test_nmar_gap(self, tmp_path):
        # recorded over 10 replications: +0.030 (affine_intercept) and +0.028
        # (joint_linear); the same config with setting mar ties at 0.585
        means = _run_config(CONFIG_DIR / "nmar_linear.json", tmp_path)
        gap_joint = means["joint_linear"] - means["mean_impute_linear"]
        gap_adaptive = means["affine_intercept"] - means["mean_impute_linear"]
        _report("criterion 11: NMAR R2 gap > 0.015 for joint and adaptive",
                gap_joint > 0.015 and gap_adaptive > 0.015,
                f"joint +{gap_joint:.3f}, adaptive +{gap_adaptive:.3f}")


class TestCriterion3:
    def test_imputation_semantics(self):
        rng = np.random.default_rng(0)
        n = 20_000
        x = rng.normal(size=n)
        m = (x > np.quantile(x, 0.6)).astype(int)[:, None]
        y = 1.7 * x + 0.1 * rng.normal(size=n)
        ds = MaskedDataset(x[:, None], m, y)
        model = fit_adaptive(ds, AFFINE_INTERCEPT,
                             ElasticNetSpec(lam=0.0, tol=1e-10))
        mu, valid = extract_imputation(model)
        censored = x[m[:, 0] == 1]
        observed = x[m[:, 0] == 0]
        se = censored.std(ddof=1) / np.sqrt(len(censored))
        near = abs(mu[0] - censored.mean())
        far = abs(mu[0] - observed.mean())
        _report("criterion 3: learned imputation tracks the censored mean",
                bool(valid[0]) and near < 3 * se and far > 5 * se,
                f"mu={mu[0]:.3f}, censored mean={censored.mean():.3f}, "
                f"|off| = {near / se:.2f} se")


class TestCriterion4:
    def test_dimension_counts(self):
        ok = True
        details = []
        for d in (2, 5, 10):
            sizes = (expansion_size(d, STATIC),
                     expansion_size(d, AFFINE_INTERCEPT),
                     expansion_size(d, AFFINE))
            ok &= sizes == (d, 2 * d, d + d * d)
            details.append(f"d={d}: {sizes}")
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 4))
        M = (rng.random((200, 4)) < 0.4).astype(int)
        ds = MaskedDataset(X, M, rng.normal(size=200))
        model = fit_adaptive(ds, FULLY_ADAPTIVE, ElasticNetSpec(lam=0.01))
        ok &= len(model.pattern_fits) == len(unique_patterns(ds.M))
        _report("criterion 4: expansion sizes d / 2d / d + d^2, one model per "
                "pattern", ok, "; ".join(details))


class TestCriterion5:
    def test_root_split_oracle(self):
        mismatches = 0
        spec = ElasticNetSpec(lam=0.0, tol=1e-10, max_iters=50_000)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n, d = 100, 4
            X = rng.normal(size=(n, d))
            M = (rng.random((n, d)) < 0.4).astype(int)
            y = np.sum((1 - M) * X, axis=1) + M @ rng.uniform(-2, 2, d) \
                + 0.2 * rng.normal(size=n)
            ds = MaskedDataset(X, M, y)
            tree = fit_finite_adaptive(ds, spec, max_depth=1, min_leaf=5)

            def sse(rows):
                Z = (1 - ds.M[rows]) * np.where(ds.M[rows] == 1, 0, ds.X[rows])
                A = np.column_stack([np.ones(len(rows)), Z])
                coef, *_ = np.linalg.lstsq(A, ds.y[rows], rcond=None)
                return float(np.sum((ds.y[rows] - A @ coef) ** 2))

            rows = np.arange(n)
            best = {}
            for j in range(d):
                left = rows[M[:, j] == 0]
                right = rows[M[:, j] == 1]
                if len(left) >= 5 and len(right) >= 5:
                    best[j] = sse(left) + sse(right)
            if best and tree.feature[0] != min(best, key=best.get):
                mismatches += 1
        _report("criterion 5: greedy root split matches exhaustive search on "
                "20 instances", mismatches == 0, f"{mismatches} mismatches")


class TestCriterion6:
    def test_descent_and_limits(self):
        limits = FitLimits()
        saw_rel_stop = False
        ok = True
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            n, d = 150, 4
            X = rng.normal(size=(n, d))
            M = np.zeros((n, d), dtype=int)
            for j in range(d):
                M[X[:, j] > np.quantile(X[:, j], 0.7), j] = 1
            y = X @ rng.uniform(-1, 1, d) + 0.1 * rng.normal(size=n)
            model = joint_fit(MaskedDataset(X, M, y), linear_contract(),
                              limits, seed=seed)
            trace = np.array(model.error_trace)
            ok &= bool(np.all(np.diff(trace) <= 1e-12))
            ok &= model.n_refits <= limits.max_outer
            ok &= all(c <= limits.max_cycles for c in model.cycles_per_iter)
            saw_rel_stop |= model.stop_reason == "min_rel_improve"
        _report("criterion 6: monotone error trace, refit/cycle limits, "
                "relative-improvement stop observed", ok and saw_rel_stop)


class TestCriterion7:
    def test_adversarial_exact(self):
        ok = True
        for trial in range(10):
            rng = np.random.default_rng(300 + trial)
            n = int(rng.integers(2, 8))  # n <= 7 so n! enumeration is cheap
            d = 3
            X = rng.normal(size=(n, d))
            M = (rng.random((n, d)) < 0.5).astype(int)
            sigma, obj = adversarial_permute(X, M)
            scores = X @ M.T.astype(float)
            brute = max(sum(scores[i, p[i]] for i in range(n))
                        for p in itertools.permutations(range(n)))
            identity = float(np.sum(X * M))
            ok &= abs(obj - brute) < 1e-9 and obj >= identity - 1e-9
        _report("criterion 7: assignment matches brute force for n <= 7 and "
                "never trails identity", ok)


class TestCriterion8:
    def test_elasticnet_kkt_and_ols(self):
        ok = True
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(400 + trial)
            X = rng.normal(size=(50, 6))
            y = rng.normal(size=50)
            lam = float(rng.uniform(0.01, 0.3))
            f = enet_fit(X, y, ElasticNetSpec(lam=lam, alpha=1.0))
            g = X.T @ (y - f.intercept - X @ f.coefficients) / 50
            for j in range(6):
                viol = (abs(abs(g[j]) - lam) if f.coefficients[j] != 0
                        else max(0.0, abs(g[j]) - lam))
                worst = max(worst, viol)
        ok &= worst < 1e-4
        rng = np.random.default_rng(500)
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        f = enet_fit(X, y, ElasticNetSpec(lam=0.0, tol=1e-12, max_iters=100_000))
        A = np.column_stack([np.ones(80), X])
        beta = np.linalg.solve(A.T @ A, A.T @ y)
        ols_err = max(abs(f.intercept - beta[0]),
                      float(np.max(np.abs(f.coefficients - beta[1:]))))
        ok &= ols_err < 1e-6
        _report("criterion 8: lasso KKT within 1e-4; lambda=0 matches normal "
                "equations within 1e-6",
                ok, f"worst KKT {worst:.2e}, OLS gap {ols_err:.2e}")


class TestCriterion9:
    def test_nesting(self):
        modes = [STATIC, AFFINE_INTERCEPT, AFFINE, "polynomial2"]
        spec = ElasticNetSpec(lam=0.0, tol=1e-10, max_iters=50_000)
        ok = True
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            n, d = 150, 4
            X = rng.normal(size=(n, d))
            M = (rng.random((n, d)) < 0.3).astype(int)
            y = np.sum((1 - M) * X, axis=1) + M @ rng.uniform(-1, 1, d) \
                + 0.3 * rng.normal(size=n)
            ds = MaskedDataset(X, M, y)
            mses = []
            for mode in modes:
                model = fit_adaptive(ds, mode, spec)
                mses.append(float(np.mean(
                    (y - model.predict_matrix(X, M)) ** 2)))
            ok &= all(lo <= hi + 1e-6 for hi, lo in zip(mses, mses[1:]))
        _report("criterion 9: training MSE ordering static >= affine-intercept "
                ">= affine >= polynomial(2) at lambda = 0", ok)


class TestCriterion10:
    def test_determinism_across_jobs(self, tmp_path):
        config = ExperimentConfig.from_json(
            (CONFIG_DIR / "censoring_linear.json").read_text())
        config.replications = 3  # smaller slice; same code path as the full run
        outputs = []
        for jobs in (1, 4):
            table = run_experiment(config, jobs=jobs)
            path = tmp_path / f"jobs{jobs}.csv"
            write_results_csv(table, path)
            outputs.append(path.read_bytes())
        _report("criterion 10: results CSV byte-identical across reruns and "
                "--jobs settings", outputs[0] == outputs[1])
