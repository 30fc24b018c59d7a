import numpy as np
import pytest

from missfit.bench import auc_error
from missfit.core import MaskedDataset
from missfit.elasticnet import ElasticNetSpec
from missfit.joint import (FitLimits, coordinate_step,
                           forest_contract, impute_with, joint_fit,
                           joint_model_from_json, joint_model_to_json,
                           linear_contract, mse_error, tree_contract)
from missfit.learners import TreeParams, mean_impute
import oracles


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
        A = impute_with(ds, mu)
        current = mse_error(ds.y, Identity().predict(A))
        eps, err = coordinate_step(A, np.flatnonzero(ds.M[:, 0]), 0, mu[0], 0.5,
                                   Identity(), ds.y, mse_error, current)
        assert eps == 1
        assert err < current

    def test_leaves_the_matrix_as_found(self):
        ds = censored_dataset(seed=3, n=100)
        mu, A = mean_impute(ds)
        before = A.copy()
        fit = linear_contract().factory(A.copy(), ds.y, 0)
        coordinate_step(A, np.flatnonzero(ds.M[:, 2]), 2, mu[2], 0.3, fit,
                        ds.y, mse_error, mse_error(ds.y, fit.predict(A)))
        assert A.tobytes() == before.tobytes()

    def test_flat_surface_keeps_zero(self):
        ds = censored_dataset(seed=2, n=100)

        class Constant:
            def predict(self, X):
                return np.zeros(len(X))

        current = mse_error(ds.y, np.zeros(ds.n))
        A = impute_with(ds, np.zeros(3))
        eps, _ = coordinate_step(A, np.flatnonzero(ds.M[:, 1]), 1, 0.0, 1.0,
                                 Constant(), ds.y, mse_error, current)
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


def degenerate_columns(ds: MaskedDataset) -> MaskedDataset:
    """ds with two more columns: one never observed (sigma = 1) and one
    observed in a single row (sigma = 0)."""
    n = ds.n
    extra = np.random.default_rng(0).normal(size=(n, 2))
    M_extra = np.ones((n, 2), dtype=int)
    M_extra[n // 2, 1] = 0
    return MaskedDataset(np.hstack([ds.X, extra]), np.hstack([ds.M, M_extra]),
                         ds.y)


CONTRACTS = {"linear": linear_contract(ElasticNetSpec(lam=1e-4)),
             "tree": tree_contract(TreeParams(max_depth=3)),
             "forest": forest_contract(TreeParams(max_depth=3, n_trees=5))}


def small_mcar_dataset(seed=13, n=40):
    """Half the entries missing at random, and y shifted where x1 is."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    M = (rng.random((n, 3)) < 0.5).astype(int)
    y = X[:, 0] - X[:, 1] + 2 * M[:, 0] + 0.3 * rng.normal(size=n)
    return MaskedDataset(X, M, y)


# Each contract takes coordinate steps that move mu on at least one of these.
DATASETS = {"censored": lambda: censored_dataset(seed=14, n=200),
            "small_mcar": small_mcar_dataset}


@pytest.mark.parametrize("metric", [mse_error, auc_error],
                         ids=["mse", "auc"])
@pytest.mark.parametrize("label", sorted(CONTRACTS))
@pytest.mark.parametrize("data", sorted(DATASETS))
def test_matches_reference_loop_bit_for_bit(data, label, metric):
    # joint_fit patches one imputed matrix in place; the reference rebuilds
    # it with impute_with for every trial and every refit
    ds = degenerate_columns(DATASETS[data]())
    if metric is auc_error:
        ds = MaskedDataset(ds.X, ds.M, (ds.y > np.median(ds.y)).astype(float))
    limits = FitLimits(max_outer=4)
    got = joint_fit(ds, CONTRACTS[label], limits, metric, seed=3)
    want = oracles.joint_fit(ds, CONTRACTS[label], limits, metric, seed=3)
    assert got.sigma[-2:].tolist() == [1.0, 0.0]
    assert got.mu.tobytes() == want.mu.tobytes()
    assert got.sigma.tobytes() == want.sigma.tobytes()
    assert got.error_trace == want.error_trace
    assert got.cycles_per_iter == want.cycles_per_iter
    assert got.n_refits == want.n_refits
    assert got.stop_reason == want.stop_reason
    assert got.predict(ds.X, ds.M).tobytes() == \
        want.predict(ds.X, ds.M).tobytes()


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

    @pytest.mark.parametrize("y", [[0, 0, 0], [1, 1, 1], [1]],
                             ids=["negatives", "positives", "one row"])
    def test_one_class_ties_every_ranking(self, y):
        assert auc_error(y, np.arange(len(y), dtype=float)) == 0.5


def test_limits_validation():
    with pytest.raises(ValueError):
        FitLimits(max_outer=0)
