"""Per-layer timings of MIA tree and forest prediction.

Run with pytest-benchmark (the tier-1 suite does not collect this file):

    python -m pytest tests/bench_trees.py --benchmark-json BENCH_trees.json

The models are fitted on the first 400 rows of the censoring instance that
perfbench's predict_stream workload serves (n = 2400, d = 10, p = 0.5), and
the batches are drawn from its other rows: 16 rows, the stream's batch size,
and 352 rows, about a mia_trees test split.
"""

import numpy as np
import pytest

from missfit import datagen
from missfit.learners import TreeParams, fit_cart_mia, fit_forest

N_TRAIN = 400


@pytest.fixture(scope="module")
def instance():
    spec = datagen.GeneratorSpec(n=2400, d=10, r=5, k=5, snr=2.0,
                                 mechanism="censoring", p=0.5, seed=0)
    data, _X_full, _truth = datagen.generate(spec)
    return data.subset(np.arange(N_TRAIN)), data


@pytest.fixture(scope="module")
def models(instance):
    train, _data = instance
    return {"tree": fit_cart_mia(train, TreeParams(max_depth=6)),
            "forest8": fit_forest(train, TreeParams(max_depth=6, n_trees=8)),
            "forest100": fit_forest(train, TreeParams(max_depth=6, n_trees=100))}


@pytest.mark.parametrize("rows", [16, 352])
@pytest.mark.parametrize("model", ["tree", "forest8", "forest100"])
def test_predict(benchmark, instance, models, model, rows):
    _train, data = instance
    idx = np.random.default_rng(rows).integers(N_TRAIN, data.n, size=rows)
    M = data.M[idx]
    X = np.where(M == 1, 0.0, data.X[idx])
    pred = benchmark(models[model].predict, X, M)
    assert pred.shape == (rows,) and np.all(np.isfinite(pred))
