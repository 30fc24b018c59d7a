import itertools
import json
import math
import pickle
import re
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from missfit import adaptive, bench
from missfit.adaptive import (AFFINE, AFFINE_INTERCEPT, FULLY_ADAPTIVE, STATIC,
                              AdaptiveModel, expand_matrix, expansion_size,
                              extract_imputation, fit_adaptive,
                              fit_finite_adaptive, model_from_json,
                              model_to_json, tree_from_json, tree_to_json)
from missfit.core import MaskedDataset, unique_patterns
from missfit.elasticnet import (ElasticNetSpec, LinearFit, fit as enet_fit,
                                support_penalty_weights)
import oracles
from oracles import masked_dot

POLY1 = "polynomial1"
POLY2 = "polynomial2"
LAM0 = ElasticNetSpec(lam=0.0, tol=1e-10, max_iters=50_000)


def random_dataset(seed, n=120, d=4, p_miss=0.3, mask_signal=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < p_miss).astype(int)
    y = X @ rng.uniform(-1, 1, d) + 0.3 * rng.normal(size=n)
    if mask_signal:
        y = y + M @ rng.uniform(-2, 2, d)
    return MaskedDataset(X, M, y)


class TestExpand:
    def test_affine_length_d2(self):
        out = expand_matrix([1.0, 2.0], [0, 1], AFFINE)[0]
        assert out.shape == (6,)  # d + d^2

    def test_affine_reduces_to_static_when_fully_observed(self):
        x = np.array([3.0, -1.0, 2.0])
        m = np.zeros(3)
        aff = expand_matrix(x, m, AFFINE)[0]
        stat = expand_matrix(x, m, STATIC)[0]
        assert np.array_equal(aff[:3], stat)
        assert np.all(aff[3:] == 0.0)

    def test_affine_intercept_hand_example(self):
        out = expand_matrix([3.0, 5.0], [1, 0], AFFINE_INTERCEPT)[0]
        assert out.tolist() == [0.0, 5.0, 1.0, 0.0]

    def test_sizes_match_declared(self):
        x = np.arange(5, dtype=float)
        m = np.array([0, 1, 0, 1, 0])
        for mode in (STATIC, AFFINE_INTERCEPT, AFFINE, POLY1, POLY2):
            assert expand_matrix(x, m, mode)[0].shape == (expansion_size(5, mode),)

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_designs_nest_along_the_hierarchy(self, d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(30, d))
        M = (rng.random((30, d)) < 0.4).astype(int)
        polys = [f"polynomial{t}" for t in range(1, d + 1)]
        A = {mode: expand_matrix(X, M, mode)
             for mode in [STATIC, AFFINE_INTERCEPT, AFFINE, *polys]}
        for design in A.values():  # z leads every design
            assert A[STATIC].tobytes() == design[:, :d].tobytes()
        # [z, m] leads affine's and polynomial2's: extract_imputation reads it
        for mode in [AFFINE, *polys[1:2]]:
            assert A[AFFINE_INTERCEPT].tobytes() == A[mode][:, :2 * d].tobytes()
        assert A[AFFINE].tobytes() == A[POLY1].tobytes()
        for low, high in zip(polys, polys[1:]):  # each a superset of the last
            columns = {c.tobytes() for c in A[high].T}
            assert all(c.tobytes() in columns for c in A[low].T)

    def test_sizes_match_closed_forms(self):
        for d in range(1, 7):
            sizes = {STATIC: d, AFFINE_INTERCEPT: 2 * d, AFFINE: d + d * d}
            for t in range(1, d + 1):
                sizes[f"polynomial{t}"] = d + sum(
                    math.comb(d, s) + d * math.comb(d - 1, s) for s in range(1, t + 1))
            for mode, size in sizes.items():
                A = expand_matrix(np.ones((2, d)), np.eye(2, d, dtype=int), mode)
                assert A.shape == (2, size) and expansion_size(d, mode) == size

    def test_polynomial_degree_too_large(self):
        with pytest.raises(ValueError):
            expand_matrix([1.0, 2.0], [0, 0], "polynomial3")[0]

    def test_missing_values_never_leak(self):
        x = np.array([np.nan, 2.0])
        m = np.array([1, 0])
        for mode in (STATIC, AFFINE_INTERCEPT, AFFINE, POLY2):
            assert np.all(np.isfinite(expand_matrix(x, m, mode)[0]))


# values that are no mode name; "polynomial" meant degree 1 before modes
# became their names, but no method name or saved document spells it so
NOT_MODES = ["polynomial0", "polynomial", "polynomial1x", "Affine", 3, None]


class TestModeNames:
    NAMES = [name for name, method in bench.METHODS.items()
             if method.fit is bench._fit_adaptive] + ["polynomial1", "polynomial3"]

    def test_every_adaptive_method_name_is_listed(self):
        assert self.NAMES == [STATIC, AFFINE_INTERCEPT, AFFINE, "polynomial2",
                              FULLY_ADAPTIVE, "polynomial1", "polynomial3"]

    @pytest.mark.parametrize("mode", NAMES)
    def test_fits_and_round_trips(self, mode):
        ds = random_dataset(24, n=100, d=4, p_miss=0.3)
        model = fit_adaptive(ds, mode, ElasticNetSpec(lam=0.01))
        doc = json.loads(json.dumps(model.to_dict()))
        assert model.mode == doc["mode"] == mode
        back = AdaptiveModel.from_dict(doc)
        assert back.expansion_size == model.expansion_size == doc["expansion_size"]
        if mode != FULLY_ADAPTIVE:
            assert model.expansion_size == expansion_size(4, mode)
        assert (back.predict(ds.X, ds.M).tobytes()
                == model.predict(ds.X, ds.M).tobytes())

    @pytest.mark.parametrize("mode", NOT_MODES, ids=repr)
    def test_other_values_refused(self, mode):
        ds = random_dataset(25, n=30, d=4)
        calls = (lambda: fit_adaptive(ds, mode, ElasticNetSpec(lam=0.01)),
                 lambda: expand_matrix(ds.X, ds.M, mode),
                 lambda: expansion_size(4, mode))
        for call in calls:
            with pytest.raises(ValueError, match="unknown expansion mode"):
                call()

    def test_fully_adaptive_has_no_design(self):
        for call in (lambda: expand_matrix(np.ones((1, 2)), np.zeros((1, 2)),
                                           FULLY_ADAPTIVE),
                     lambda: expansion_size(2, FULLY_ADAPTIVE)):
            with pytest.raises(ValueError, match="unknown expansion mode"):
                call()

    def test_degree_above_d_refused(self):
        assert expansion_size(3, "polynomial3") == 3 + 7 + 3 * 3
        with pytest.raises(ValueError, match="degree 4 exceeds d=3"):
            expansion_size(3, "polynomial4")

    def test_expansion_size_is_read_from_the_fits(self):
        model = fit_adaptive(random_dataset(26, d=3), AFFINE, ElasticNetSpec(lam=0.01))
        assert model.expansion_size == 12
        with pytest.raises(AttributeError):
            model.expansion_size = 5

    @pytest.mark.parametrize("mode", [STATIC, AFFINE, "polynomial2", FULLY_ADAPTIVE])
    def test_document_with_other_coefficient_count_refused(self, mode):
        model = fit_adaptive(random_dataset(27, d=3), mode, ElasticNetSpec(lam=0.01))
        doc = json.loads(json.dumps(model.to_dict()))
        fit = doc["fallback"] if mode == FULLY_ADAPTIVE else doc["fit"]
        fit["coefficients"].append(0.0)
        with pytest.raises(ValueError, match="coefficients"):
            AdaptiveModel.from_dict(doc)


class TestFitAdaptive:
    def test_static_recovery_noiseless(self):
        rng = np.random.default_rng(0)
        n = 500
        X = rng.normal(size=(n, 2))
        M = (rng.random((n, 2)) < 0.3).astype(int)
        y = np.sum(np.array([2.0, -1.0]) * (1 - M) * X, axis=1)
        model = fit_adaptive(MaskedDataset(X, M, y), STATIC, LAM0)
        assert np.allclose(model.fit.coefficients, [2.0, -1.0], atol=0.05)

    def test_intercept_shift_needs_adaptive_intercept(self):
        rng = np.random.default_rng(1)
        n = 600
        X = rng.normal(size=(n, 2))
        M = (rng.random((n, 2)) < 0.4).astype(int)
        y = np.sum((1 - M) * X, axis=1) + 3.0 * M[:, 0] \
            + 0.05 * rng.normal(size=n)
        ds = MaskedDataset(X, M, y)
        ai = fit_adaptive(ds, AFFINE_INTERCEPT, LAM0)
        assert ai.fit.coefficients[2] == pytest.approx(3.0, abs=0.1)
        static = fit_adaptive(ds, STATIC, LAM0)
        mse = lambda m: np.mean((y - m.predict_matrix(X, M)) ** 2)
        assert mse(ai) < mse(static)

    def test_expansion_sizes_d10(self):
        ds = random_dataset(2, n=60, d=10)
        sizes = {mode: fit_adaptive(ds, mode, ElasticNetSpec(lam=0.01)).expansion_size
                 for mode in (STATIC, AFFINE_INTERCEPT, AFFINE)}
        assert sizes == {"static": 10, "affine_intercept": 20, "affine": 110}

    def test_empty_dataset_rejected(self):
        # no fit sees 0 rows: the dataset refuses them
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            MaskedDataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("mode", [AFFINE_INTERCEPT, FULLY_ADAPTIVE])
    def test_pinned_penalty_weights_are_kept(self, mode):
        ds = random_dataset(5, n=100, d=3, p_miss=0.4, mask_signal=True)
        design = STATIC if mode == FULLY_ADAPTIVE else mode
        A = expand_matrix(ds.X, ds.M, design)
        coefs = lambda c: enet_fit(A, ds.y, ElasticNetSpec(
            lam=0.05, penalty_weights=c)).coefficients
        pinned = np.linspace(0, 2, A.shape[1])
        model = fit_adaptive(ds, mode, ElasticNetSpec(lam=0.05,
                                                      penalty_weights=pinned))
        got = (model.fallback if mode == FULLY_ADAPTIVE else model.fit).coefficients
        assert got.tobytes() == coefs(pinned).tobytes()
        assert not np.array_equal(got, coefs(support_penalty_weights(A)))

    def test_fully_adaptive_one_model_per_pattern(self):
        ds = random_dataset(3, n=80, d=3, p_miss=0.4)
        from missfit.core import unique_patterns
        model = fit_adaptive(ds, FULLY_ADAPTIVE, ElasticNetSpec(lam=0.01))
        assert len(model.pattern_fits) == len(unique_patterns(ds.M))
        assert model.expansion_size == len(model.pattern_fits)

    def test_fully_adaptive_pattern_fits_equal_subset_fits(self):
        # each pattern's fit on its rows of one static design is the fit on
        # that pattern's own dataset, bit for bit; the fallback likewise
        ds = random_dataset(4, n=150, d=3, p_miss=0.4, mask_signal=True)
        spec = ElasticNetSpec(lam=0.01)
        model = fit_adaptive(ds, FULLY_ADAPTIVE, spec)
        pairs = [(model.pattern_fits[p], ds.subset(rows))
                 for p, rows in unique_patterns(ds.M)] + [(model.fallback, ds)]
        for got, sub in pairs:
            want = fit_adaptive(sub, STATIC, spec).fit
            assert got.intercept == want.intercept
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
            assert got.objective_trace == want.objective_trace


class TestPatternFitsOnRead:
    """A fully adaptive fit solves a pattern's fit when something first
    reads it: a prediction, to_dict or items()."""

    SPEC = ElasticNetSpec(lam=0.01)

    @pytest.fixture
    def solves(self, monkeypatch):
        """One entry per adaptive.enet_fit call made during the test."""
        calls, real = [], adaptive.enet_fit

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(adaptive, "enet_fit", counted)
        return calls

    @staticmethod
    def rows_of(ds, patterns):
        keep = set(patterns)
        return np.flatnonzero([tuple(m) in keep for m in ds.M.tolist()])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_reads_then_to_dict_give_the_eager_bytes(self, seed):
        ds = random_dataset(seed, n=150, d=5)
        eager = oracles.fit_fully_adaptive(ds, self.SPEC)
        text = json.dumps(eager.to_dict())
        groups = [p for p, _ in unique_patterns(ds.M)]
        rng = np.random.default_rng(seed)
        for k in (0, 1, len(groups) // 2, len(groups)):
            model = fit_adaptive(ds, FULLY_ADAPTIVE, self.SPEC)
            rows = self.rows_of(ds, [groups[i] for i in rng.permutation(len(groups))[:k]])
            for batch in np.array_split(rng.permutation(rows), 3):
                assert (model.predict(ds.X[batch], ds.M[batch]).tobytes()
                        == eager.predict(ds.X[batch], ds.M[batch]).tobytes())
            assert json.dumps(model.to_dict()) == text
            assert type(AdaptiveModel.from_dict(model.to_dict()).pattern_fits) is dict

    def test_a_pattern_no_batch_reads_is_never_solved(self, solves):
        ds = random_dataset(10, n=150, d=5)
        groups = [p for p, _ in unique_patterns(ds.M)]
        model = fit_adaptive(ds, FULLY_ADAPTIVE, self.SPEC)
        assert len(solves) == 1  # the fallback
        read = groups[::3]
        rows = self.rows_of(ds, read)
        for _ in range(2):
            model.predict(ds.X[rows], ds.M[rows])
        assert list(model.pattern_fits) == groups  # order of first appearance
        assert len(model.pattern_fits) == model.expansion_size == len(groups)
        assert len(solves) == 1 + len(read)
        fits = dict(model.pattern_fits.items())
        assert len(solves) == 1 + len(groups)
        assert all(model.pattern_fits[p] is f for p, f in fits.items())
        assert len(solves) == 1 + len(groups)

    def test_an_unseen_pattern_takes_the_fallback_without_a_solve(self, solves):
        ds = random_dataset(11, n=150, d=4)
        unseen = (1, 1, 0, 1)
        train = ds.subset(np.flatnonzero([tuple(m) != unseen for m in ds.M.tolist()]))
        model = fit_adaptive(train, FULLY_ADAPTIVE, self.SPEC)
        solves.clear()
        X, M = np.full((3, 4), 2.5), np.tile(unseen, (3, 1))
        got = model.predict(X, M)
        assert solves == []
        want = oracles.fit_fully_adaptive(train, self.SPEC).predict(X, M)
        assert got.tobytes() == want.tobytes()
        assert got[0] == model.fallback.intercept + float(
            np.where(M[0] == 1, 0.0, X[0]) @ model.fallback.coefficients)

    def test_membership_solves_nothing(self, solves):
        ds = random_dataset(12, n=150, d=4)
        model = fit_adaptive(ds, FULLY_ADAPTIVE, self.SPEC)
        solves.clear()
        assert all(p in model.pattern_fits for p, _ in unique_patterns(ds.M))
        assert (2, 0, 0, 0) not in model.pattern_fits
        assert "x" not in model.pattern_fits
        assert solves == []
        with pytest.raises(TypeError, match="does not support item assignment"):
            model.pattern_fits[(0, 0, 0, 0)] = model.fallback

    @pytest.mark.parametrize("read", ["none", "some", "all"])
    def test_pickle_round_trip_predicts_the_same_bytes(self, read):
        ds = random_dataset(13, n=150, d=5)
        model = fit_adaptive(ds, FULLY_ADAPTIVE, self.SPEC)
        rows = {"none": [], "some": np.arange(0, ds.n, 7), "all": np.arange(ds.n)}[read]
        model.predict(ds.X[rows], ds.M[rows])
        back = pickle.loads(pickle.dumps(model))
        assert back.predict(ds.X, ds.M).tobytes() == model.predict(ds.X, ds.M).tobytes()
        assert json.dumps(back.to_dict()) == json.dumps(model.to_dict())


class TestPredict:
    def test_zero_coefficients_give_intercept(self):
        ds = random_dataset(4)
        model = fit_adaptive(ds, STATIC, ElasticNetSpec(lam=1e9, alpha=1.0))
        preds = model.predict_matrix(ds.X, ds.M)
        assert np.allclose(preds, model.fit.intercept)

    def test_invariant_to_missing_values(self):
        ds = random_dataset(5)
        model = fit_adaptive(ds, AFFINE, ElasticNetSpec(lam=0.01))
        X2 = ds.X.copy()
        X2[ds.M == 1] = 1e6
        assert np.allclose(model.predict_matrix(ds.X, ds.M),
                           model.predict_matrix(X2, ds.M))

    def test_static_round_trip_matches_masked_dot(self):
        ds = random_dataset(6)
        model = fit_adaptive(ds, STATIC, ElasticNetSpec(lam=0.01))
        for i in range(5):
            expected = model.fit.intercept + masked_dot(
                model.fit.coefficients, ds.X[i], ds.M[i])
            pred = model.predict(ds.X[i:i + 1], ds.M[i:i + 1])[0]
            assert pred == pytest.approx(expected)

    def test_dimension_mismatch(self):
        ds = random_dataset(7)
        model = fit_adaptive(ds, STATIC, ElasticNetSpec(lam=0.01))
        with pytest.raises(ValueError):
            model.predict_matrix(ds.X[:, :2], ds.M[:, :2])

    def test_fully_adaptive_unseen_pattern_falls_back(self):
        ds = random_dataset(8, d=3, p_miss=0.2)
        model = fit_adaptive(ds, FULLY_ADAPTIVE, ElasticNetSpec(lam=0.01))
        # a pattern absent from training still predicts (via the global fit)
        pred = model.predict(np.ones((1, 3)), np.ones((1, 3), dtype=int))
        assert np.isfinite(pred)

    def test_per_row_fits_asks_once_per_distinct_pattern(self):
        fits = {(0, 1): LinearFit(1.0, np.array([1.0, 2.0]), []),
                (1, 1): LinearFit(2.0, np.array([3.0, 4.0]), [])}
        asked = []

        class Counting(Mapping):  # Mapping.get reads through __getitem__
            def __getitem__(self, pattern):
                asked.append(pattern)
                return fits[pattern]

            def __iter__(self):
                return iter(fits)

            def __len__(self):
                return len(fits)

        fallback = LinearFit(9.0, np.array([5.0, 6.0]), [])
        model = AdaptiveModel(FULLY_ADAPTIVE, 2, None, Counting(), fallback)
        M = np.array([[0, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        X = np.array([[10.0, 100.0]] * 6)
        pred = model.predict(X, M)
        assert asked == [(0, 1), (1, 0), (1, 1)]
        # b + w . x over the observed slots of each row's pattern
        assert pred.tolist() == [11.0, 609.0, 11.0, 2.0, 609.0, 11.0]

    @pytest.mark.parametrize("fit", [
        lambda ds: fit_adaptive(ds, FULLY_ADAPTIVE, ElasticNetSpec(lam=0.01)),
        lambda ds: fit_finite_adaptive(ds, ElasticNetSpec(lam=0.01),
                                       max_depth=2, min_leaf=5)],
        ids=["fully_adaptive", "finite"])
    def test_empty_batch_and_zero_width_model(self, fit):
        model = fit(random_dataset(9, n=60, d=3))
        pred = model.predict(np.empty((0, 3)), np.empty((0, 3), dtype=int))
        assert pred.shape == (0,)
        y = np.arange(40.0)
        zero = fit(MaskedDataset(np.empty((40, 0)), np.empty((40, 0)), y))
        for n in (0, 5):
            pred = zero.predict(np.empty((n, 0)), np.empty((n, 0), dtype=int))
            assert pred.shape == (n,)
            assert np.all(pred == zero.predict(np.empty((1, 0)),
                                               np.empty((1, 0)))[0])


def static_fit_sse(sub: MaskedDataset, spec):
    """The static fit of a whole dataset and its in-sample squared error."""
    f = fit_adaptive(sub, STATIC, spec).fit
    A = expand_matrix(sub.X, sub.M, STATIC)
    return f, float(np.sum((sub.y - f.predict(A)) ** 2))


def oracle_fit_finite_adaptive(dataset, spec, max_depth, min_leaf,
                               min_gain=1e-3):
    """The greedy partition as first written, as its partition_tree document:
    every node refits its own rows, so each child of a split is fitted twice
    (once as a candidate side)."""
    def build(rows, depth):
        f, sse = static_fit_sse(dataset.subset(rows), spec)
        node = {"fit": f.to_dict(), "n_rows": len(rows)}
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return node
        best = None
        for j in range(dataset.d):
            left = rows[dataset.M[rows, j] == 0]
            right = rows[dataset.M[rows, j] == 1]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            sl = static_fit_sse(dataset.subset(left), spec)[1]
            sr = static_fit_sse(dataset.subset(right), spec)[1]
            if best is None or sl + sr < best[0]:
                best = (sl + sr, j, left, right)
        if best is None:
            return node
        total, j, left, right = best
        gain = (sse - total) / sse if sse > 0 else 0.0
        if gain < min_gain:
            return node
        node.update(split_feature=j, left=build(left, depth + 1),
                    right=build(right, depth + 1))
        return node

    return {"type": "partition_tree", "d": dataset.d,
            "root": build(np.arange(dataset.n), 0)}


def assert_same_partition(tree, doc):
    """tree's document is doc: splits, row counts and fits, bit for bit."""
    assert json.dumps(tree.to_dict()) == json.dumps(doc)


class TestFiniteAdaptive:
    @pytest.mark.parametrize("seed,spec,max_depth,min_leaf", [
        (20, ElasticNetSpec(lam=0.01), 3, 20),
        (21, LAM0, 2, 10),
        (22, ElasticNetSpec(lam=0.1), 4, 5),
    ])
    def test_matches_oracle_without_refits(self, monkeypatch, seed, spec,
                                           max_depth, min_leaf):
        ds = random_dataset(seed, n=300, d=4, p_miss=0.4, mask_signal=True)
        calls = []
        real_fit = adaptive.enet_fit
        monkeypatch.setattr(adaptive, "enet_fit",
                            lambda *a: calls.append(1) or real_fit(*a))
        want = oracle_fit_finite_adaptive(ds, spec, max_depth, min_leaf)
        calls.clear()
        tree = fit_finite_adaptive(ds, spec, max_depth=max_depth,
                                   min_leaf=min_leaf)
        assert_same_partition(tree, want)
        splits = len(tree.leaves()) - 1
        assert splits >= 2
        # a winner's fits pass to its children, and the bound skips the
        # candidates that cannot win (the exhaustive search makes 33, 21, 51)
        assert len(calls) == {20: 13, 21: 7, 22: 31}[seed]

    def test_single_pattern_no_split(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 3))
        M = np.zeros((100, 3), dtype=int)
        y = X @ np.array([1.0, 2.0, 3.0])
        tree = fit_finite_adaptive(MaskedDataset(X, M, y), LAM0)
        assert tree.feature.tolist() == [-1]

    def test_sign_flip_instance_splits_on_feature_two(self):
        rng = np.random.default_rng(10)
        n = 400
        X = rng.normal(size=(n, 2))
        M = np.zeros((n, 2), dtype=int)
        M[: n // 2, 1] = 1
        y = np.where(M[:, 1] == 0, X[:, 0], -X[:, 0]) \
            + 0.02 * rng.normal(size=n)
        tree = fit_finite_adaptive(MaskedDataset(X, M, y), LAM0)
        assert tree.feature[0] == 1
        observed, missing = tree.child[0]
        slope_obs = tree.fits[observed].coefficients[0]
        slope_miss = tree.fits[missing].coefficients[0]
        assert slope_obs == pytest.approx(1.0, abs=0.05)
        assert slope_miss == pytest.approx(-1.0, abs=0.05)

    def test_root_split_matches_bruteforce(self):
        ds = random_dataset(11, n=100, d=4, p_miss=0.4, mask_signal=True)
        tree = fit_finite_adaptive(ds, LAM0, max_depth=1, min_leaf=5)

        def lstsq_sse(rows):
            Z = (1 - ds.M[rows]) * np.where(ds.M[rows] == 1, 0, ds.X[rows])
            A = np.column_stack([np.ones(len(rows)), Z])
            coef, *_ = np.linalg.lstsq(A, ds.y[rows], rcond=None)
            return float(np.sum((ds.y[rows] - A @ coef) ** 2))

        sses = {}
        rows = np.arange(ds.n)
        for j in range(4):
            left = rows[ds.M[:, j] == 0]
            right = rows[ds.M[:, j] == 1]
            if len(left) >= 5 and len(right) >= 5:
                sses[j] = lstsq_sse(left) + lstsq_sse(right)
        assert tree.feature[0] == min(sses, key=sses.get)

    def test_routing_totality(self):
        ds = random_dataset(12, n=300, d=4, p_miss=0.4, mask_signal=True)
        tree = fit_finite_adaptive(ds, LAM0, max_depth=3, min_leaf=10)
        assert tree.levels == 3
        # every one of the 2^d masks reaches a leaf: the walk of the
        # document to a leaf, row by row, gives the same bits
        M = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.int8)
        X = np.random.default_rng(0).normal(size=M.shape)
        want = oracles.partition_tree_predict(tree.to_dict(), X, M)
        for mask in (M, M.astype(bool), M.astype(float)):
            assert tree.predict(X, mask).tobytes() == want.tobytes()

    @pytest.mark.parametrize("limits, message", [
        ({"max_depth": -1}, "max_depth: must be >= 0"),
        ({"min_leaf": 0}, "min_leaf: must be >= 1"),
        ({"min_gain": np.nan}, "min_gain: must be in [0, inf)")])
    def test_rejects_limits_that_cannot_stop(self, limits, message):
        ds = random_dataset(13, n=50, d=2, p_miss=0.4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_finite_adaptive(ds, LAM0, **limits)

    def test_empty_dataset_rejected(self):
        # its root would hold 0 rows, which no model file may; the dataset
        # refuses them before any fit
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            MaskedDataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    def test_min_leaf_respected(self):
        ds = random_dataset(13, n=200, d=4, p_miss=0.4, mask_signal=True)
        tree = fit_finite_adaptive(ds, LAM0, max_depth=4, min_leaf=25)
        assert all(tree.n_rows[i] >= 25 for i in tree.leaves())

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e300])
    def test_invariant_to_non_finite_masked_values(self, fill):
        ds = random_dataset(15, n=200, d=4, p_miss=0.4, mask_signal=True)
        tree = fit_finite_adaptive(ds, ElasticNetSpec(lam=0.01), max_depth=2,
                                   min_leaf=20)
        X2 = ds.X.copy()
        X2[ds.M == 1] = fill
        assert np.array_equal(tree.predict_matrix(ds.X, ds.M),
                              tree.predict_matrix(X2, ds.M))


def finite_case(seed, n, d, min_leaf, lam, scaled=False, dup=None,
                tie=None, all_missing=False, const_y=False):
    """A partition problem that strains the split search's bound: column
    scales 1e-6..1e6, duplicate z columns (exact, or 1e-9 apart), two mask
    columns that are equal (their candidates tie) or one row apart (their
    totals nearly tie), a column that is always missing, or a constant y
    (every total is about 0, so min_gain 0 keeps splitting on ties)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < 0.4).astype(int)
    y = X @ rng.uniform(-1, 1, d) * (1 - 2 * M[:, -1]) + 0.3 * rng.normal(size=n)
    if scaled:
        X *= 10.0 ** rng.uniform(-6, 6, d)
    if dup:
        M[:, 1] = M[:, 0]
        X[:, 1] = X[:, 0] * (1 + (dup == "near") * 1e-9 * rng.normal(size=n))
    if tie:
        M[:, -2] = M[:, -1]
        M[0, -2] ^= tie == "near"
    if all_missing:
        M[:, 0] = 1
    if const_y:
        y[:] = 3.7
    spec = ElasticNetSpec(lam=lam, alpha=0.5, max_iters=300)
    limits = {"max_depth": 3, "min_leaf": min(min_leaf, n // 2),  # n >= 2 min_leaf
              "min_gain": 0.0 if const_y else 1e-3}
    return MaskedDataset(X, M, y), spec, limits


finite_cases = st.fixed_dictionaries(
    {"seed": st.integers(0, 2 ** 32 - 1), "n": st.integers(8, 90),
     "d": st.integers(2, 6), "min_leaf": st.integers(1, 10),
     "lam": st.sampled_from([0.0, 1e-3, 0.01, 0.1])},
    optional={"scaled": st.booleans(), "dup": st.sampled_from(["exact", "near"]),
              "tie": st.sampled_from(["exact", "near"]), "all_missing": st.booleans(),
              "const_y": st.booleans()})


class TestFinitePruning:
    """The bound-pruned split search against the exhaustive one in oracles."""

    @settings(max_examples=40, deadline=None)
    @given(case=finite_cases)
    @example(case={"seed": 1, "n": 90, "d": 4, "min_leaf": 5, "lam": 0.0})
    @example(case={"seed": 2, "n": 90, "d": 5, "min_leaf": 5, "lam": 0.0,
                   "scaled": True})
    @example(case={"seed": 3, "n": 80, "d": 4, "min_leaf": 4, "lam": 0.0,
                   "dup": "exact"})
    @example(case={"seed": 4, "n": 80, "d": 4, "min_leaf": 4, "lam": 0.01,
                   "dup": "near"})
    @example(case={"seed": 5, "n": 90, "d": 4, "min_leaf": 5, "lam": 0.0,
                   "tie": "exact"})
    @example(case={"seed": 261891784, "n": 31, "d": 5, "min_leaf": 2,
                   "lam": 0.0, "tie": "near"})
    @example(case={"seed": 6, "n": 24, "d": 6, "min_leaf": 2, "lam": 0.0})
    @example(case={"seed": 7, "n": 20, "d": 3, "min_leaf": 10, "lam": 0.001})
    @example(case={"seed": 8, "n": 90, "d": 4, "min_leaf": 5, "lam": 0.0,
                   "all_missing": True})
    @example(case={"seed": 9, "n": 60, "d": 4, "min_leaf": 3, "lam": 0.0,
                   "const_y": True, "tie": "exact"})
    def test_tree_bytes_match_exhaustive_search(self, case):
        ds, spec, limits = finite_case(**case)
        tree = fit_finite_adaptive(ds, spec, **limits)
        want = oracles.fit_finite_adaptive(ds, spec, **limits)
        assert_same_partition(tree, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_is_below_every_fit(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 30 + 10 * seed, 1 + seed
        A = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3, p) + rng.normal(size=p)
        y = A @ rng.normal(size=p) + rng.normal(size=n)
        bound = adaptive._lstsq_bound(A, y)
        A1 = np.column_stack([np.ones(n), A])
        coef = np.linalg.lstsq(A1, y, rcond=None)[0]
        lstsq_sse = float(np.sum((y - A1 @ coef) ** 2))
        assert lstsq_sse - 1e-4 * float(y @ y) <= bound <= lstsq_sse
        for lam, alpha, weights in itertools.product(
                [0.0, 1e-3, 0.1, 1.0], [0.0, 0.5, 1.0],
                [None, rng.uniform(0, 100, p)]):
            f = enet_fit(A, y, ElasticNetSpec(lam=lam, alpha=alpha,
                                              penalty_weights=weights))
            assert bound <= float(np.sum((y - f.predict(A)) ** 2))

    @pytest.mark.parametrize("shape", ["duplicate", "near_duplicate", "wide"])
    def test_bound_is_zero_on_a_rank_deficient_design(self, shape):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5 if shape == "wide" else 40, 6))
        if shape != "wide":
            A[:, 3] = A[:, 1] + (shape == "near_duplicate") * 1e-9 * rng.normal(size=40)
        assert adaptive._lstsq_bound(A, rng.normal(size=len(A))) == 0.0

    def test_bound_skips_zero_columns_and_a_constant_y(self):
        rng = np.random.default_rng(2)
        A = np.column_stack([rng.normal(size=30), np.zeros(30)])
        y = 2.0 * A[:, 0] + rng.normal(size=30)
        assert adaptive._lstsq_bound(A, y) == pytest.approx(
            adaptive._lstsq_bound(A[:, :1], y), rel=1e-4)
        assert adaptive._lstsq_bound(A, np.full(30, 3.7)) == 0.0


class TestExtractImputation:
    def test_hand_coefficients(self):
        ds = random_dataset(14, d=2)
        model = fit_adaptive(ds, AFFINE_INTERCEPT, ElasticNetSpec(lam=0.01))
        model.fit.coefficients = np.array([1.0, 4.0, 2.0, 0.0])
        mu, valid = extract_imputation(model)
        assert mu.tolist() == [2.0, 0.0]
        assert valid.tolist() == [True, True]

    def test_zero_weight_flagged(self):
        ds = random_dataset(15, d=2)
        model = fit_adaptive(ds, AFFINE_INTERCEPT, ElasticNetSpec(lam=0.01))
        model.fit.coefficients = np.array([0.0, 4.0, 1.0, 0.0])
        _, valid = extract_imputation(model)
        assert valid.tolist() == [False, True]

    def test_wrong_mode_rejected(self):
        ds = random_dataset(16)
        model = fit_adaptive(ds, STATIC, ElasticNetSpec(lam=0.01))
        with pytest.raises(ValueError):
            extract_imputation(model)

    def test_censored_single_feature_learns_censored_mean(self):
        # linear truth y = 1.7 x, top 40% censored: the joint fit should
        # impute close to E[X | missing], far from the observed mean
        rng = np.random.default_rng(17)
        n = 20_000
        x = rng.normal(size=n)
        thr = np.quantile(x, 0.6)
        m = (x > thr).astype(int)[:, None]
        y = 1.7 * x + 0.1 * rng.normal(size=n)
        ds = MaskedDataset(x[:, None], m, y)
        model = fit_adaptive(ds, AFFINE_INTERCEPT, LAM0)
        mu, valid = extract_imputation(model)
        assert valid[0]
        censored = x[m[:, 0] == 1]
        observed = x[m[:, 0] == 0]
        se = censored.std(ddof=1) / np.sqrt(len(censored))
        assert abs(mu[0] - censored.mean()) < 3 * se
        assert abs(mu[0] - observed.mean()) > 5 * se


class TestHierarchy:
    def modes(self):
        return [STATIC, AFFINE_INTERCEPT, AFFINE, POLY2]

    def train_mse(self, ds, mode):
        model = fit_adaptive(ds, mode, LAM0)
        return float(np.mean((ds.y - model.predict_matrix(ds.X, ds.M)) ** 2))

    def test_dominance_chain(self):
        for seed in range(3):
            ds = random_dataset(seed, n=150, d=4, mask_signal=True)
            mses = [self.train_mse(ds, mode) for mode in self.modes()]
            for lo, hi in zip(mses[1:], mses[:-1]):
                assert lo <= hi + 1e-6

    def test_poly1_spans_affine(self):
        ds = random_dataset(20, n=150, d=4, mask_signal=True)
        assert self.train_mse(ds, POLY1) == pytest.approx(
            self.train_mse(ds, AFFINE), abs=1e-6)

    def test_fully_adaptive_minimal_when_patterns_large(self):
        rng = np.random.default_rng(21)
        n, d = 400, 3
        X = rng.normal(size=(n, d))
        # few patterns, each with plenty of rows
        pats = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
        M = pats[rng.integers(0, 3, size=n)]
        y = X @ np.array([1.0, -2.0, 0.5]) + M @ np.array([0.3, -0.7, 1.1]) \
            + 0.1 * rng.normal(size=n)
        ds = MaskedDataset(X, M, y)
        fa = self.train_mse(ds, FULLY_ADAPTIVE)
        for mode in self.modes():
            assert fa <= self.train_mse(ds, mode) + 1e-6


class TestSerialization:
    def test_adaptive_round_trip(self):
        ds = random_dataset(22)
        for mode in (STATIC, AFFINE, FULLY_ADAPTIVE):
            model = fit_adaptive(ds, mode, ElasticNetSpec(lam=0.01))
            back = model_from_json(model_to_json(model))
            assert np.allclose(back.predict_matrix(ds.X, ds.M),
                               model.predict_matrix(ds.X, ds.M))

    def test_tree_round_trip(self):
        ds = random_dataset(23, n=200, d=3, p_miss=0.4, mask_signal=True)
        tree = fit_finite_adaptive(ds, LAM0, min_leaf=10)
        back = tree_from_json(tree_to_json(tree))
        assert np.allclose(back.predict_matrix(ds.X, ds.M),
                           tree.predict_matrix(ds.X, ds.M))
