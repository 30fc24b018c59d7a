import numpy as np
import pytest

from missfit.core import MaskedDataset
from missfit.elasticnet import ElasticNetSpec
from missfit.joint import (FitLimits, auc_error, coordinate_step,
                           forest_contract, impute_with, joint_fit,
                           joint_model_from_json, joint_model_to_json,
                           linear_contract, mse_error, tree_contract)
from missfit.learners import TreeParams, mean_impute


def censored_dataset(seed=0, n=800, d=3, frac=0.4, noise=0.05):
    """Linear signal with top-fraction censoring on every feature."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = np.array([1.5, -1.0, 0.5])[:d]
    y = X @ w + noise * rng.normal(size=n)
    M = np.zeros((n, d), dtype=int)
    for j in range(d):
        M[X[:, j] > np.quantile(X[:, j], 1 - frac), j] = 1
    return MaskedDataset(X, M, y)


class TestImputeWith:
    def test_fills_only_missing_slots(self):
        ds = MaskedDataset(np.array([[1.0, 0.0], [3.0, 4.0]]),
                           np.array([[0, 1], [0, 0]]), np.zeros(2))
        out = impute_with(ds, [10.0, 20.0])
        assert out.tolist() == [[1.0, 20.0], [3.0, 4.0]]

    def test_wrong_length(self):
        ds = censored_dataset(n=10)
        with pytest.raises(ValueError):
            impute_with(ds, [0.0])

    def test_non_finite_mu(self):
        ds = censored_dataset(n=10)
        with pytest.raises(ValueError):
            impute_with(ds, [np.nan, 0.0, 0.0])


class TestCoordinateStep:
    def test_picks_error_reducing_direction(self):
        # y = x1 exactly; predictor is identity on the single feature, so the
        # best eps moves mu toward the censored mean (above the observed mean)
        ds = censored_dataset(seed=1, n=400, d=3, noise=0.0)

        class Identity:
            def predict(self, X):
                return X @ np.array([1.5, -1.0, 0.5])

        mu, _ = mean_impute(ds)
        mu = mu.copy()
        current = mse_error(ds.y, Identity().predict(impute_with(ds, mu)))
        eps, err = coordinate_step(mu, 0, 0.5, Identity(), ds, mse_error, current)
        assert eps == 1
        assert err < current

    def test_flat_surface_keeps_zero(self):
        ds = censored_dataset(seed=2, n=100)

        class Constant:
            def predict(self, X):
                return np.zeros(len(X))

        current = mse_error(ds.y, np.zeros(ds.n))
        eps, _ = coordinate_step(np.zeros(3), 1, 1.0, Constant(), ds, mse_error,
                                 current)
        assert eps == 0


class TestJointFit:
    def test_no_missing_short_circuits(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        ds = MaskedDataset(X, np.zeros((50, 2), dtype=int), X[:, 0])
        model = joint_fit(ds, linear_contract())
        assert model.stop_reason == "no_missing"
        assert len(model.error_trace) == 1
        assert model.n_refits == 1
        mu, _ = mean_impute(ds)
        assert np.allclose(model.mu, mu)

    def test_initial_mu_is_observed_means(self):
        ds = censored_dataset(seed=4)
        model = joint_fit(ds, linear_contract(), FitLimits(max_outer=1))
        mu0, _ = mean_impute(ds)
        # after one outer iteration each coordinate moved at most
        # max_cycles steps of size sigma_j from the column means
        assert np.all(np.abs(model.mu - mu0) <= 10 * model.sigma + 1e-12)

    def test_sigma_is_standard_error(self):
        ds = censored_dataset(seed=5)
        model = joint_fit(ds, linear_contract(), FitLimits(max_outer=1))
        for j in range(ds.d):
            vals = ds.X[ds.M[:, j] == 0, j]
            assert model.sigma[j] == pytest.approx(
                np.std(vals, ddof=1) / np.sqrt(ds.n))

    def test_error_trace_non_increasing(self):
        for seed in range(3):
            ds = censored_dataset(seed=seed, n=300)
            model = joint_fit(ds, linear_contract())
            trace = np.array(model.error_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_beats_mean_imputation_under_censoring(self):
        ds = censored_dataset(seed=6, n=600)
        spec = ElasticNetSpec(lam=1e-6)
        model = joint_fit(ds, linear_contract(spec))
        _, imputed = mean_impute(ds)
        from missfit.elasticnet import fit as enet_fit
        baseline = enet_fit(imputed, ds.y, spec)
        base_err = mse_error(ds.y, baseline.predict(imputed))
        assert model.error_trace[-1] < base_err

    def test_mu_moves_toward_censored_mean(self):
        ds = censored_dataset(seed=7, n=1000, noise=0.01)
        model = joint_fit(ds, linear_contract(ElasticNetSpec(lam=1e-6)),
                          FitLimits(max_outer=40, max_cycles=10))
        mu0, _ = mean_impute(ds)
        for j in range(ds.d):
            censored_mean = ds.X[ds.M[:, j] == 1, j].mean()
            # moved strictly toward the truth from the biased start
            assert abs(model.mu[j] - censored_mean) < abs(mu0[j] - censored_mean)

    def test_stop_reason_values(self):
        ds = censored_dataset(seed=8, n=200)
        fast = joint_fit(ds, linear_contract(), FitLimits(max_outer=2))
        assert fast.stop_reason in ("max_outer", "min_rel_improve")
        slow = joint_fit(ds, linear_contract(), FitLimits(max_outer=50))
        assert slow.stop_reason == "min_rel_improve"

    def test_refit_count_bounded(self):
        ds = censored_dataset(seed=9, n=200)
        limits = FitLimits(max_outer=5)
        model = joint_fit(ds, linear_contract(), limits)
        assert 1 <= model.n_refits <= limits.max_outer
        assert len(model.cycles_per_iter) == len(model.error_trace) - 1
        assert all(1 <= c <= limits.max_cycles for c in model.cycles_per_iter)

    def test_tree_and_forest_contracts_run(self):
        ds = censored_dataset(seed=10, n=200)
        for contract in (tree_contract(TreeParams(max_depth=3)),
                         forest_contract(TreeParams(max_depth=3, n_trees=10))):
            model = joint_fit(ds, contract, FitLimits(max_outer=3))
            preds = model.predict(ds.X, ds.M)
            assert preds.shape == (ds.n,)
            assert np.all(np.diff(model.error_trace) <= 1e-12)

    def test_deterministic(self):
        ds = censored_dataset(seed=11, n=200)
        contract = forest_contract(TreeParams(max_depth=3, n_trees=5))
        a = joint_fit(ds, contract, FitLimits(max_outer=3), seed=4)
        b = joint_fit(ds, contract, FitLimits(max_outer=3), seed=4)
        assert np.array_equal(a.mu, b.mu)
        assert a.error_trace == b.error_trace


class TestPredictAndSerialize:
    def test_predict_matrix_form(self):
        ds = censored_dataset(seed=12, n=150)
        model = joint_fit(ds, linear_contract(), FitLimits(max_outer=2))
        via_ds = model.predictor.predict(impute_with(ds, model.mu))
        via_xm = model.predict(ds.X, ds.M)
        assert np.allclose(via_ds, via_xm)

    def test_round_trip_all_contracts(self):
        ds = censored_dataset(seed=13, n=150)
        for contract in (linear_contract(),
                         tree_contract(TreeParams(max_depth=3)),
                         forest_contract(TreeParams(max_depth=3, n_trees=5))):
            model = joint_fit(ds, contract, FitLimits(max_outer=2))
            back = joint_model_from_json(joint_model_to_json(model))
            assert np.allclose(back.predict(ds.X, ds.M),
                               model.predict(ds.X, ds.M))
            assert back.contract_label == model.contract_label


class TestAucError:
    def test_perfect_ranking(self):
        assert auc_error([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_reversed_ranking(self):
        assert auc_error([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_ties_midrank(self):
        assert auc_error([0, 1], [0.5, 0.5]) == 0.5


def test_limits_validation():
    with pytest.raises(ValueError):
        FitLimits(max_outer=0)
