"""Per-layer timings of the adaptive expansion and the adaptive predicts.

Run with pytest-benchmark (the tier-1 suite does not collect this file):

    python -m pytest tests/bench_adaptive.py --benchmark-json BENCH_adaptive.json

The instance is the censoring one that perfbench's predict_stream workload
serves (n = 2400, d = 10, p = 0.5). The expansion runs on its first 560 rows,
the size of one cross-validation training fold of a shipped config (700
training rows, 5 folds); the models are fitted on those rows, and the predict
batches are drawn from the other rows: 16 rows, the stream's batch size, and
352 rows, about a test split.
"""

import numpy as np
import pytest

from missfit import datagen
from missfit.adaptive import expand_matrix, fit_adaptive
from missfit.elasticnet import ElasticNetSpec

N_TRAIN = 560


@pytest.fixture(scope="module")
def instance():
    spec = datagen.GeneratorSpec(n=2400, d=10, r=5, k=5, snr=2.0,
                                 mechanism="censoring", p=0.5, seed=0)
    data, _X_full, _truth = datagen.generate(spec)
    return data.subset(np.arange(N_TRAIN)), data


@pytest.fixture(scope="module")
def models(instance):
    train, _data = instance
    spec = ElasticNetSpec(lam=0.01)
    return {mode: fit_adaptive(train, mode, spec)
            for mode in ("affine", "fully_adaptive")}


@pytest.mark.parametrize("mode, columns", [("static", 10), ("affine_intercept", 20),
                                           ("affine", 110), ("polynomial2", 515)])
def test_expand_matrix(benchmark, instance, mode, columns):
    train, _data = instance
    A = benchmark(expand_matrix, train.X, train.M, mode)
    assert A.shape == (N_TRAIN, columns)


@pytest.mark.parametrize("rows", [16, 352])
@pytest.mark.parametrize("mode", ["affine", "fully_adaptive"])
def test_predict(benchmark, instance, models, mode, rows):
    _train, data = instance
    idx = np.random.default_rng(rows).integers(N_TRAIN, data.n, size=rows)
    M = data.M[idx]
    X = np.where(M == 1, 0.0, data.X[idx])
    pred = benchmark(models[mode].predict, X, M)
    assert pred.shape == (rows,) and np.all(np.isfinite(pred))
