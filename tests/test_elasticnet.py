import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from missfit.elasticnet import (ElasticNetSpec, fit, lambda_max,
                                support_penalty_weights)
from oracles import enet_fit as oracle_fit, soft_threshold


class TestSoftThreshold:
    def test_positive(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_dead_zone(self):
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_sign_preserved(self):
        assert soft_threshold(-4.0, 1.5) == -2.5

    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @pytest.mark.parametrize("z, gamma, sign", [
        (-0.5, 1.0, -1.0), (-1.0, 1.0, -1.0), (-0.0, 1.0, 1.0), (0.0, 1.0, 1.0),
        (0.5, 1.0, 1.0), (-0.0, 0.0, 1.0), (-3.0, 0.0, -1.0)])
    def test_signed_zero(self, z, gamma, sign):
        # as numpy's sign(z) * max(|z| - gamma, 0): sign(-0.0) is +0.0
        out = soft_threshold(z, gamma)
        assert type(out) is float
        assert math.copysign(1.0, out) == sign
        assert out == float(np.sign(z) * max(abs(z) - gamma, 0.0))


def test_ols_closed_form():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 3.0, 5.0])
    f = fit(x, y, ElasticNetSpec(lam=0.0))
    assert f.intercept == pytest.approx(1.0, abs=1e-8)
    assert f.coefficients[0] == pytest.approx(2.0, abs=1e-8)


def test_lambda_max_zeroes_everything():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    crit = lambda_max(X, y, alpha=1.0)
    f = fit(X, y, ElasticNetSpec(lam=crit * 1.0001, alpha=1.0))
    assert np.all(f.coefficients == 0.0)
    assert f.intercept == pytest.approx(y.mean())


def _grid_minimize(X, y, lam, alpha, c, ranges, steps=201):
    """Brute-force minimizer of the penalized objective over a 2-d grid."""
    n = len(y)
    best = None
    for w1 in np.linspace(*ranges[0], steps):
        for w2 in np.linspace(*ranges[1], steps):
            w = np.array([w1, w2])
            b = y.mean() - X.mean(axis=0) @ w  # optimal intercept given w
            r = y - b - X @ w
            obj = 0.5 * np.dot(r, r) / n + lam * np.sum(
                c * (alpha * np.abs(w) + 0.5 * (1 - alpha) * w ** 2))
            if best is None or obj < best[0]:
                best = (obj, w)
    return best[1]


def test_per_feature_weights_match_grid_minimizer():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    y = 1.5 * X[:, 0] - 0.8 * X[:, 1] + 0.1 * rng.normal(size=30)
    lam, alpha, c = 2.0, 1.0, np.array([0.0, 1.0])
    f = fit(X, y, ElasticNetSpec(lam=lam, alpha=alpha, penalty_weights=c))
    # weight 1.0 with large lambda kills coefficient 2; weight 0 leaves
    # coefficient 1 unpenalized
    assert f.coefficients[1] == pytest.approx(0.0, abs=1e-8)
    # crude grid pass, then refine around the winner
    w = _grid_minimize(X, y, lam, alpha, c, [(-3, 3), (-3, 3)])
    w = _grid_minimize(X, y, lam, alpha, c,
                       [(w[0] - 0.05, w[0] + 0.05), (w[1] - 0.05, w[1] + 0.05)])
    assert f.coefficients[0] == pytest.approx(w[0], abs=1e-4)
    assert f.coefficients[1] == pytest.approx(w[1], abs=1e-4)


class TestLambdaGrid:
    def test_path_sparsity_monotone(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 6))
        y = X @ np.array([2.0, -1.0, 0.5, 0, 0, 0]) + 0.2 * rng.normal(size=40)
        lmax = lambda_max(X, y, 1.0)
        grid = np.geomspace(lmax, lmax * 1e-3, 8)
        nnz = [np.sum(fit(X, y, ElasticNetSpec(lam=l, alpha=1.0)).coefficients != 0)
               for l in grid]
        # grid is decreasing, so nonzero counts must be non-decreasing
        assert all(a <= b for a, b in itertools.pairwise(nnz))


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 8))
    y = rng.normal(size=50)
    f = fit(X, y, ElasticNetSpec(lam=0.05, alpha=0.7))
    trace = np.array(f.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_unpenalized_gradient_vanishes():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 5))
    y = rng.normal(size=60)
    f = fit(X, y, ElasticNetSpec(lam=0.0))
    r = y - f.intercept - X @ f.coefficients
    grad = X.T @ r / len(y)
    assert np.max(np.abs(grad)) < 1e-6
    assert abs(r.mean()) < 1e-8


def test_kkt_lasso():
    rng = np.random.default_rng(9)
    for trial in range(5):
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        lam = 0.1
        c = np.array([1.0, 1.0, 2.0, 0.5, 1.0, 1.0])
        f = fit(X, y, ElasticNetSpec(lam=lam, alpha=1.0, penalty_weights=c))
        r = y - f.intercept - X @ f.coefficients
        g = X.T @ r / len(y)
        for j in range(6):
            if f.coefficients[j] != 0:
                assert abs(abs(g[j]) - lam * c[j]) < 1e-4
            else:
                assert abs(g[j]) <= lam * c[j] + 1e-4


def test_non_finite_input_rejected():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(ValueError):
        fit(X, np.array([1.0, 2.0]), ElasticNetSpec())


def test_zero_variance_column_gets_zero_coefficient():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.full(20, 3.0), rng.normal(size=20)])
    y = 2 * X[:, 1] + rng.normal(size=20) * 0.01
    f = fit(X, y, ElasticNetSpec(lam=0.001))
    assert f.coefficients[0] == 0.0


def test_support_penalty_weights():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    w = support_penalty_weights(X)
    assert w[0] == 1.0
    assert w[1] == 4.0
    assert np.all(support_penalty_weights(np.zeros((5, 1))) == 100.0)


def test_alpha_bounds():
    with pytest.raises(ValueError):
        ElasticNetSpec(alpha=1.2)


@pytest.mark.parametrize("field, value", [
    ("alpha", float("nan")),
    ("lam", float("nan")), ("lam", float("inf")), ("lam", -1e-9),
    ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.0), ("max_iters", 2.5),
    ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
    ("lam", True), ("alpha", "0.5"), ("max_iters", True)])
def test_spec_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        ElasticNetSpec(**{field: value})


def test_spec_accepts_edges():
    ElasticNetSpec(lam=0.0, max_iters=1, tol=0.0)
    ElasticNetSpec(lam=np.float64(0.5), max_iters=np.int64(3))


def _bits(f):
    return (np.float64(f.intercept).tobytes(), f.coefficients.tobytes(),
            np.array(f.objective_trace).tobytes(), f.converged)


def _layouts(X):
    """X in C order, Fortran order, and as strided views of larger arrays."""
    n, p = X.shape
    big = np.zeros((2 * n, 3 * p))
    big[::2, 1::3] = X
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X),
            "strided": big[::2, 1::3]}


def test_fit_is_independent_of_memory_layout():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 30)) * np.geomspace(1e-2, 1e2, 30)
    y = X[:, :5] @ rng.normal(size=5) + rng.normal(size=200)
    spec = ElasticNetSpec(lam=1e-3, alpha=0.5)
    ref = oracle_fit(np.ascontiguousarray(X), y, spec)
    for layout, Xl in _layouts(X).items():
        assert _bits(fit(Xl, y, spec)) == _bits(ref), layout


# The objective trace is evaluated in blocks of 64 sweeps (the start point is
# row 0 of the first): fits stopped on either side of the block edges.
@pytest.mark.parametrize("sweeps", [1, 63, 64, 65, 127, 128, 129])
def test_fit_stopped_at_max_iters_matches_reference(sweeps):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(50, 8)) * np.geomspace(1e-2, 1e2, 8)
    y = X[:, :3] @ rng.normal(size=3) + rng.normal(size=50)
    spec = ElasticNetSpec(lam=1e-3, alpha=0.5, max_iters=sweeps, tol=0.0)
    got = fit(X, y, spec)
    assert len(got.objective_trace) == sweeps + 1 and not got.converged
    assert _bits(got) == _bits(oracle_fit(X, y, spec))


def test_fit_converged_after_many_blocks_matches_reference():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(40, 1))
    X = z + 0.2 * rng.normal(size=(40, 6))  # six nearly collinear columns
    y = X @ rng.normal(size=6) + rng.normal(size=40)
    spec = ElasticNetSpec(lam=1e-4, alpha=0.5)
    got = fit(X, y, spec)
    assert len(got.objective_trace) > 301 and got.converged
    assert _bits(got) == _bits(oracle_fit(X, y, spec))


@pytest.mark.parametrize("X", [np.full((20, 3), 2.0), np.zeros((20, 0)),
                               np.random.default_rng(15).normal(size=(20, 1))],
                         ids=["no-active-column", "p=0", "p=1"])
@pytest.mark.parametrize("tol", [0.0, 1e-7])
def test_small_designs_match_reference(X, tol):
    y = np.random.default_rng(14).normal(size=20) + 3.0
    spec = ElasticNetSpec(lam=1e-2, alpha=0.5, max_iters=70, tol=tol)
    got = fit(X, y, spec)
    assert _bits(got) == _bits(oracle_fit(X, y, spec))


# Column kinds of the drawn designs: the degenerate columns that expanded
# missing-data designs contain.
KINDS = ("normal", "constant", "duplicate", "mask", "z*m", "z(1-m)")


@st.composite
def enet_cases(draw):
    n = draw(st.integers(1, 80))
    p = draw(st.integers(1, 120))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = (rng.random(n) < 0.4).astype(float)
    X = np.empty((n, p))
    for j, kind in enumerate(kinds):
        z = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        X[:, j] = {"normal": z, "constant": np.full(n, z[0]),
                   "duplicate": X[:, j - 1] if j else z, "mask": m,
                   "z*m": z * m, "z(1-m)": z * (1 - m)}[kind]
    y = X[:, :3] @ rng.normal(size=min(p, 3)) + rng.normal(size=n)
    if draw(st.booleans()):
        y = y - rng.normal() * 1e3
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    lmax = lambda_max(X, y, alpha)
    lam = draw(st.sampled_from([0.0, 1e-12, 1e-3 * lmax, 0.1 * lmax,
                                1.5 * lmax + 1.0]))
    weights = draw(st.sampled_from(["none", "ones", "with zeros"]))
    c = None if weights == "none" else rng.choice(
        [0.0, 0.5, 1.0, 3.0] if weights == "with zeros" else [1.0], size=p)
    if draw(st.booleans()):
        max_iters, tol = draw(st.integers(1, 3)), 0.0
    else:
        max_iters, tol = 200, 1e-7
    spec = ElasticNetSpec(lam=float(lam), alpha=alpha, penalty_weights=c,
                          max_iters=max_iters, tol=tol)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    return _layouts(X)[layout], y, spec


@settings(max_examples=150, deadline=None)
@given(case=enet_cases())
def test_fit_matches_reference_loop_bit_for_bit(case):
    X, y, spec = case
    got = fit(X, y, spec)
    # the reference runs on C order: those bits are the ones callers get
    assert _bits(got) == _bits(oracle_fit(np.ascontiguousarray(X), y, spec))


def test_zero_rows_rejected():
    with pytest.raises(ValueError, match="n x p"):
        fit(np.empty((0, 3)), np.empty(0), ElasticNetSpec())


# Screening: a visit to a coefficient at +-0 is skipped while a bound on the
# residual's drift proves it would stay in the dead zone |z| <= g. A skipped
# visit is one the reference loop makes without moving anything, so every
# case below matches the unscreened loop bit for bit.

def _start_gradient(X, y):
    """z_j of each coordinate's first visit when nothing has moved yet,
    computed as fit computes it, and the column scales."""
    n = X.shape[0]
    Xs = X - X.mean(axis=0)
    s = np.sqrt(np.mean(Xs ** 2, axis=0))
    Xs /= s
    r = y - float(y.mean())
    return np.array([float(Xs[:, j].dot(r)) / n for j in range(X.shape[1])]), s


def _ulps_from(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def _weights_at_start_gradient(X, y, ulps):
    """Penalty weights putting g_j = c_j / s_j (lam * alpha = 1) about
    ulps[j] ulps above |z_j| of the start point (below it where ulps[j] < 0).
    c_j / s_j rounds, so g_j is the nearest reachable on the side asked for."""
    z, s = _start_gradient(X, y)
    c = []
    for zj, sj, k in zip(np.abs(z), s, ulps):
        g = _ulps_from(zj, k)
        near = [_ulps_from(g * sj, i) for i in range(-8, 9)]
        c.append(min((cj for cj in near if np.sign(cj / sj - zj) == np.sign(k)),
                     key=lambda cj: abs(cj / sj - g)))
    off = (np.array(c) / s - np.abs(z)) / np.spacing(np.abs(z))
    assert np.all(np.sign(off) == np.sign(ulps)) and np.all(np.abs(off) <= 5)
    return np.array(c)


def _correlated(seed, n=30, p=6):
    """Columns sharing one factor, y on a random subset of them: the lasso
    path of such designs moves coordinates in and out of zero."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 1)) + rng.uniform(0.1, 0.8) * rng.normal(size=(n, p))
    y = X @ (rng.normal(size=p) * rng.integers(0, 2, size=p)) + 0.5 * rng.normal(size=n)
    return X, y


def _ulps_case(seed, free_last):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 8)) * np.geomspace(0.1, 10, 8)
    y = X @ rng.normal(size=8) + rng.normal(size=40)
    c = _weights_at_start_gradient(X, y, [-4, -3, -2, -1, 1, 2, 3, 4])
    if free_last:  # an unpenalized column that moves after the others' first visit
        X, c = np.column_stack([X, rng.normal(size=40)]), np.append(c, 0.0)
    return X, y, c


class TestScreening:
    @pytest.mark.parametrize("free_last", [False, True])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_dead_zone_within_ulps_of_g(self, seed, free_last, alpha):
        X, y, c = _ulps_case(seed, free_last)
        for sweeps in (1, 2, 3, 30):
            spec = ElasticNetSpec(lam=1.0 / alpha, alpha=alpha, penalty_weights=c,
                                  max_iters=sweeps, tol=0.0)
            assert _bits(fit(X, y, spec)) == _bits(oracle_fit(X, y, spec)), sweeps
        spec = ElasticNetSpec(lam=1.0 / alpha, alpha=alpha, penalty_weights=c)
        assert _bits(fit(X, y, spec)) == _bits(oracle_fit(X, y, spec))

    def _path(self, seed, lam_frac, j, sweeps=40):
        """Coordinate j after 1..sweeps sweeps (tol = 0), each fit checked
        bit for bit against the reference loop."""
        X, y = _correlated(seed)
        lam = lambda_max(X, y, 1.0) * lam_frac
        path = []
        for k in range(1, sweeps + 1):
            spec = ElasticNetSpec(lam=lam, alpha=1.0, max_iters=k, tol=0.0)
            got = fit(X, y, spec)
            assert _bits(got) == _bits(oracle_fit(X, y, spec)), k
            path.append(got.coefficients[j])
        return np.array(path)

    def test_coordinate_wakes_after_many_sweeps_at_zero(self):
        path = self._path(18, 0.05, j=2)
        assert np.all(path[:9] == 0.0) and np.all(path[9:] != 0.0)

    def test_coordinate_goes_nonzero_then_zero_then_nonzero(self):
        path = self._path(5, 0.02, j=0)
        on = path != 0.0
        assert on[:9].all() and not on[9:15].any() and on[15:].all()

    @pytest.mark.parametrize("seed", [5, 18])
    def test_converged_fit_matches_reference(self, seed):
        X, y = _correlated(seed)
        for frac in (0.02, 0.05, 0.2):
            spec = ElasticNetSpec(lam=lambda_max(X, y, 1.0) * frac, alpha=1.0)
            assert _bits(fit(X, y, spec)) == _bits(oracle_fit(X, y, spec))

    # the margin's factor e = 8u (n + p max_iters) is capped at 1, where
    # nothing is skipped; it must neither overflow nor wrap around
    @pytest.mark.parametrize("max_iters", [10 ** 30, np.int64(2 ** 62)])
    def test_huge_max_iters_matches_reference(self, max_iters):
        X, y = _correlated(5)
        spec = ElasticNetSpec(lam=lambda_max(X, y, 1.0) * 0.02, max_iters=max_iters)
        assert _bits(fit(X, y, spec)) == _bits(oracle_fit(X, y, spec))
