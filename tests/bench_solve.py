"""Per-layer timings of the elastic-net solve and of k-fold CV.

Run with pytest-benchmark (the tier-1 suite does not collect this file):

    python -m pytest tests/bench_solve.py --benchmark-json BENCH_solve.json

The instance is replication 0 of configs/censoring_linear.json (n = 1000,
d = 10, censoring p = 0.5): its 700-row training split, and the 560 rows of
the first cross-validation training fold. The solves are the affine fit at
lambda = 1e-3 (thousands of sweeps) and 0.1 (about a hundred), and the
fully_adaptive fit (one small solve per mask pattern, and the fallback); the
CV cases run kfold_cv over the default grids of finite and fully_adaptive.
Each case records its elastic-net solves and coordinate-descent sweeps in
extra_info, so a change that does less work shows apart from one that does
the same work faster.
"""

import numpy as np
import pytest

from missfit import adaptive
from missfit.adaptive import expand_matrix, fit_adaptive
from missfit.bench import METHODS, kfold_cv
from missfit.datagen import GeneratorSpec, generate
from missfit.elasticnet import ElasticNetSpec, fit as enet_fit, support_penalty_weights


@pytest.fixture(scope="module")
def train():
    """The training split of replication 0, as bench.run_replication makes it."""
    spec = GeneratorSpec(n=1000, d=10, r=5, k=5, snr=2.0, mechanism="censoring",
                         p=0.5, signal="linear", seed=0)
    data, _X_full, _truth = generate(spec)
    perm = np.random.default_rng(7).permutation(data.n)
    return data.subset(perm[300:])


@pytest.fixture(scope="module")
def fold(train):
    """The training rows of kfold_cv's first fold (seed 0, 5 folds)."""
    chunks = np.array_split(np.random.default_rng(0).permutation(train.n), 5)
    return train.subset(np.concatenate(chunks[1:]))


def work(monkeypatch, fn, *args) -> dict:
    """Elastic-net solves and sweeps of one call of fn(*args) through adaptive."""
    counts = {"solves": 0, "sweeps": 0}

    def counted(*a, **k):
        f = enet_fit(*a, **k)
        counts["solves"] += 1
        counts["sweeps"] += len(f.objective_trace) - 1
        return f

    with monkeypatch.context() as patch:
        patch.setattr(adaptive, "enet_fit", counted)
        fn(*args)
    return counts


@pytest.mark.parametrize("lam", [1e-3, 0.1])
def test_affine_solve(benchmark, fold, lam):
    A = expand_matrix(fold.X, fold.M, "affine")
    spec = ElasticNetSpec(lam=lam, alpha=0.5, penalty_weights=support_penalty_weights(A))
    f = benchmark(enet_fit, A, fold.y, spec)
    assert A.shape == (560, 110) and f.converged
    benchmark.extra_info.update(solves=1, sweeps=len(f.objective_trace) - 1)


def test_fully_adaptive_pattern_fits(benchmark, monkeypatch, fold):
    spec = ElasticNetSpec(lam=0.01, alpha=0.5)
    model = benchmark(fit_adaptive, fold, "fully_adaptive", spec)
    counts = work(monkeypatch, fit_adaptive, fold, "fully_adaptive", spec)
    assert counts["solves"] == len(model.pattern_fits) + 1
    benchmark.extra_info.update(counts)


@pytest.mark.parametrize("name", ["finite", "fully_adaptive"])
def test_kfold_cv(benchmark, monkeypatch, train, name):
    grid = METHODS[name].grid
    params, score = benchmark.pedantic(kfold_cv, (train, name, grid, 5, 0),
                                       rounds=3, iterations=1)
    assert params in grid and np.isfinite(score)
    benchmark.extra_info.update(work(monkeypatch, kfold_cv, train, name, grid, 5, 0))
