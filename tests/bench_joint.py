"""Per-layer timings of the joint impute-then-regress fit and its coordinate step.

Run with pytest-benchmark (the tier-1 suite does not collect this file):

    python -m pytest tests/bench_joint.py --benchmark-json BENCH_joint.json

The instance is the censoring one of tests/bench_adaptive.py (n = 2400,
d = 10, p = 0.5), and the fits run on its first 560 rows, the size of one
cross-validation training fold of a shipped config. Each joint fit records its
work in extra_info: the refits of the predictor and the coordinate-search
cycles; the trees are those of joint_tree's default grid, depths 3 and 5.
One coordinate step is timed on the fitted model of each predictor, at its
fitted mu, on the column with the most missing rows.
"""

import numpy as np
import pytest

from missfit import datagen
from missfit.elasticnet import ElasticNetSpec
from missfit.joint import (coordinate_step, joint_fit, linear_contract,
                           mse_error, tree_contract)
from missfit.learners import TreeParams

N_TRAIN = 560

CONTRACTS = {"linear": linear_contract(ElasticNetSpec(lam=0.01, alpha=0.5)),
             "tree": tree_contract(TreeParams(max_depth=5)),
             "tree3": tree_contract(TreeParams(max_depth=3))}


@pytest.fixture(scope="module")
def train():
    spec = datagen.GeneratorSpec(n=2400, d=10, r=5, k=5, snr=2.0,
                                 mechanism="censoring", p=0.5, seed=0)
    data, _X_full, _truth = datagen.generate(spec)
    return data.subset(np.arange(N_TRAIN))


@pytest.fixture(scope="module")
def models(train):
    return {kind: joint_fit(train, contract) for kind, contract in CONTRACTS.items()}


@pytest.mark.parametrize("kind", sorted(CONTRACTS))
def test_joint_fit(benchmark, train, kind):
    model = benchmark(joint_fit, train, CONTRACTS[kind])
    benchmark.extra_info["n_refits"] = model.n_refits
    benchmark.extra_info["cycles"] = sum(model.cycles_per_iter)
    assert model.error_trace[-1] <= model.error_trace[0]


@pytest.mark.parametrize("kind", sorted(CONTRACTS))
def test_coordinate_step(benchmark, train, models, kind):
    model = models[kind]
    j = int(np.argmax(train.M.sum(axis=0)))
    rows = np.flatnonzero(train.M[:, j])
    A = np.where(train.M == 1, model.mu, train.X)
    current = mse_error(train.y, model.predictor.predict(A))
    eps, err = benchmark(coordinate_step, A, rows, j, model.mu[j], model.sigma[j],
                         model.predictor, train.y, mse_error, current)
    assert eps in (-1, 0, 1) and err <= current
