import json

import numpy as np
import pytest

from missfit.bench import METHODS, auc_error, fit_method
from missfit.core import MaskedDataset
from missfit.elasticnet import ElasticNetSpec, fit as enet_fit
from missfit.joint import (FitLimits, coordinate_step, fit_mean_impute,
                           forest_contract, joint_fit,
                           joint_model_from_json, joint_model_to_json,
                           linear_contract, mse_error, tree_contract)
from missfit.learners import Forest, MiaTree, TreeParams, mean_impute
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
        out = oracles.impute_with(ds, [10.0, 20.0])
        assert out.tolist() == [[1.0, 20.0], [3.0, 4.0]]

    def test_wrong_length(self):
        ds = censored_dataset(n=10)
        with pytest.raises(ValueError):
            oracles.impute_with(ds, [0.0])

    def test_non_finite_mu(self):
        ds = censored_dataset(n=10)
        with pytest.raises(ValueError):
            oracles.impute_with(ds, [np.nan, 0.0, 0.0])


class TestCoordinateStep:
    def test_picks_error_reducing_direction(self):
        # y = x1 exactly; predictor is identity on the single feature, so the
        # best eps moves mu toward the censored mean (above the observed mean)
        ds = censored_dataset(seed=1, n=400, d=3, noise=0.0)

        class Identity:
            def predict(self, X):
                return X @ np.array([1.5, -1.0, 0.5])

        mu, _ = mean_impute(ds)
        A = oracles.impute_with(ds, mu)
        current = mse_error(ds.y, Identity().predict(A))
        eps, err = coordinate_step(A, np.flatnonzero(ds.M[:, 0]), 0, mu[0], 0.5,
                                   Identity(), ds.y, mse_error, current)
        assert eps == 1
        assert err < current

    def test_leaves_the_matrix_as_found(self):
        ds = censored_dataset(seed=3, n=100)
        mu, A = mean_impute(ds)
        before = A.copy()
        fit = linear_contract()(A.copy(), ds.y, 0)
        coordinate_step(A, np.flatnonzero(ds.M[:, 2]), 2, mu[2], 0.3, fit,
                        ds.y, mse_error, mse_error(ds.y, fit.predict(A)))
        assert A.tobytes() == before.tobytes()

    def test_flat_surface_keeps_zero(self):
        ds = censored_dataset(seed=2, n=100)

        class Constant:
            def predict(self, X):
                return np.zeros(len(X))

        current = mse_error(ds.y, np.zeros(ds.n))
        A = oracles.impute_with(ds, np.zeros(3))
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


def masked_noise_feature(seed=121, n=120):
    """y follows x0 and x1; only x2, which y ignores, has missing values. At
    this seed no contract's first coordinate pass moves mu."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    M = np.zeros((n, 3), dtype=int)
    M[:, 2] = rng.random(n) < 0.3
    y = X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=n)
    return MaskedDataset(X, M, y)


class TestFirstPassStop:
    @staticmethod
    def data(metric):
        ds = masked_noise_feature()
        if metric is auc_error:
            ds = MaskedDataset(ds.X, ds.M, (ds.y > np.median(ds.y)).astype(float))
        return ds

    @pytest.mark.parametrize("metric", [mse_error, auc_error], ids=["mse", "auc"])
    @pytest.mark.parametrize("label", sorted(CONTRACTS))
    def test_a_second_pass_would_replay_the_first(self, label, metric):
        # the premise of the rule: refitting the matrix that the first pass
        # left gives the first predictor back, which moves no mu either
        ds, contract = self.data(metric), CONTRACTS[label]
        model = joint_fit(ds, contract, FitLimits(max_outer=4), metric, seed=3)
        assert (model.n_refits, model.cycles_per_iter, model.stop_reason) == \
            (1, [1], "min_rel_improve")
        assert model.error_trace[0] == model.error_trace[1]
        A = oracles.impute_with(ds, model.mu)
        refit = contract(A.copy(), ds.y, 3)
        probe = np.random.default_rng(0).normal(size=(50, ds.d))
        for Z in (A, probe):
            assert refit.predict(Z).tobytes() == model.predictor.predict(Z).tobytes()
        current = metric(ds.y, model.predictor.predict(A))
        assert current == model.error_trace[-1]
        for j in np.flatnonzero(ds.M.any(axis=0) & (model.sigma > 0)):
            eps, _ = coordinate_step(A, np.flatnonzero(ds.M[:, j]), j, model.mu[j],
                                     model.sigma[j], model.predictor, ds.y, metric,
                                     current)
            assert eps == 0

    @pytest.mark.parametrize("label", sorted(CONTRACTS))
    def test_other_limits_keep_their_stop(self, label):
        ds = self.data(mse_error)
        # no improvement is too small: the fit refits to max_outer
        model = joint_fit(ds, CONTRACTS[label],
                          FitLimits(max_outer=4, min_rel_improve=0), seed=3)
        assert (model.n_refits, model.cycles_per_iter, model.stop_reason) == \
            (4, [1] * 4, "max_outer")
        assert len(set(model.error_trace)) == 1
        # one pass is all that max_outer allows
        model = joint_fit(ds, CONTRACTS[label], FitLimits(max_outer=1), seed=3)
        assert (model.n_refits, model.stop_reason) == (1, "max_outer")


class TestScreenedTrials:
    """A tree predictor is asked to predict only for trials that move mu_j
    across one of its thresholds of j."""

    @staticmethod
    def count(monkeypatch, record=lambda X: None):
        """Count MiaTree.predict calls, and the trials `crosses` passes and
        sees; `record` gets each matrix predicted."""
        counts = {"predict": 0, "through": 0, "trials": 0}
        predict, crosses = MiaTree.predict, MiaTree.crosses

        def counted_predict(self, X, *args, **kwargs):
            counts["predict"] += 1
            record(X)
            return predict(self, X, *args, **kwargs)

        def counted_crosses(self, j, a, b):
            counts["trials"] += 1
            counts["through"] += (out := crosses(self, j, a, b))
            return out

        monkeypatch.setattr(MiaTree, "predict", counted_predict)
        monkeypatch.setattr(MiaTree, "crosses", counted_crosses)
        return counts

    @pytest.mark.parametrize("max_depth, through", [(3, 0), (5, 1)])
    def test_only_trials_that_cross_predict(self, monkeypatch, max_depth, through):
        # one error at the start, then one per trial the rule lets through;
        # the fit stops after one pass, so no refit predicts
        counts = self.count(monkeypatch)
        contract = tree_contract(TreeParams(max_depth=max_depth, min_leaf=2))
        model = joint_fit(masked_noise_feature(), contract)
        assert model.n_refits == 1
        assert (counts["trials"], counts["through"]) == (2, through)
        assert counts["predict"] == 1 + through

    def test_a_never_observed_column_is_never_predicted_on(self, monkeypatch):
        # mean_impute fills it with mu = 0, so no tree splits on it, and its
        # +-1 trials never reach a matrix that predict sees
        ds = degenerate_columns(small_mcar_dataset())
        seen = set()
        counts = self.count(monkeypatch, lambda X: seen.update(X[:, -2].tolist()))
        model = joint_fit(ds, CONTRACTS["tree"], FitLimits(max_outer=4), seed=3)
        assert seen == {0.0} and model.mu[-2] == 0.0 and model.sigma[-2] == 1.0
        assert counts["through"] > 0 and counts["predict"] > model.n_refits


class TestPredictAndSerialize:
    def test_predict_matrix_form(self):
        ds = censored_dataset(seed=12, n=150)
        model = joint_fit(ds, linear_contract(), FitLimits(max_outer=2))
        via_ds = model.predictor.predict(oracles.impute_with(ds, model.mu))
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

    @pytest.mark.parametrize("max_iters", [1, 1000])
    def test_a_linear_document_records_convergence(self, max_iters):
        ds = censored_dataset(seed=13, n=150)
        contract = linear_contract(ElasticNetSpec(lam=1e-4, max_iters=max_iters))
        model = joint_fit(ds, contract, FitLimits(max_outer=2))
        assert model.predictor.converged is (max_iters == 1000)
        text = joint_model_to_json(model)
        predictor = json.loads(text)["predictor"]
        assert predictor == {"type": "linear", **model.predictor.to_dict()}
        assert predictor["converged"] is model.predictor.converged
        assert joint_model_to_json(joint_model_from_json(text)) == text


class TestContracts:
    @pytest.mark.parametrize("name", ["joint_linear", "joint_tree", "joint_forest",
                                      "mean_impute_linear", "mean_impute_tree",
                                      "mean_impute_forest"])
    def test_label_is_the_regressor_of_the_method(self, name):
        params = {**METHODS[name].grid[0]}
        if "n_trees" in params:
            params["n_trees"] = 5
        model = fit_method(name, censored_dataset(seed=14, n=120), params, 0,
                           "regression")
        assert model.contract_label == name.rsplit("_", 1)[1]
        assert model.to_dict()["contract"] == model.contract_label

    @pytest.mark.parametrize("name", ["joint_tree", "joint_forest",
                                      "mean_impute_tree", "mean_impute_forest"])
    def test_a_tree_predictor_is_the_fitted_model(self, name):
        params = {**METHODS[name].grid[0]}
        if "n_trees" in params:
            params["n_trees"] = 5
        ds = censored_dataset(seed=16, n=120)
        model = fit_method(name, ds, params, 0, "regression")
        assert type(model.predictor) is (MiaTree if name.endswith("tree") else Forest)
        assert model.to_dict()["predictor"] == model.predictor.to_dict()
        imputed = np.where(ds.M == 1, model.mu, ds.X)
        assert (model.predict(ds.X, ds.M).tobytes()
                == model.predictor.predict(imputed, np.zeros_like(ds.M)).tobytes())

    def test_a_plain_function_is_a_contract(self):
        ds = censored_dataset(seed=15, n=200)
        spec = ElasticNetSpec(lam=1e-3)
        for fit in (lambda c: joint_fit(ds, c, FitLimits(max_outer=2)),
                    lambda c: fit_mean_impute(ds, c)):
            got = fit(lambda X, y, seed: enet_fit(X, y, spec))
            want = fit(linear_contract(spec))
            assert got.mu.tobytes() == want.mu.tobytes()
            assert got.error_trace == want.error_trace
            assert got.predict(ds.X, ds.M).tobytes() == \
                want.predict(ds.X, ds.M).tobytes()
            assert got.contract_label == "linear"

    def test_a_predictor_of_no_known_kind_has_no_label(self):
        class Zero:
            def predict(self, X):
                return np.zeros(len(X))

        model = fit_mean_impute(censored_dataset(n=20), lambda X, y, seed: Zero())
        with pytest.raises(TypeError, match="Zero"):
            model.contract_label
        with pytest.raises(TypeError, match="Zero"):
            model.to_dict()


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
    with pytest.raises(ValueError, match="^max_outer: must be an integer"):
        FitLimits(max_outer=2.5)
