"""Per-layer timings of MIA tree and forest fitting and prediction.

Run with pytest-benchmark (the tier-1 suite does not collect this file):

    python -m pytest tests/bench_trees.py --benchmark-json BENCH_trees.json

The models are fitted on the first 400 rows of the censoring instance that
perfbench's predict_stream workload serves (n = 2400, d = 10, p = 0.5), and
the batches are drawn from its other rows: 16 rows, the stream's batch size,
and 352 rows, about a mia_trees test split. A fit's time is mostly MIA split
search; its entry records the split searches it makes and the nodes it
grows.
"""

import numpy as np
import pytest

from missfit import datagen, learners
from missfit.learners import TreeParams, fit_cart_mia, fit_forest

N_TRAIN = 400
FITS = {"tree": (fit_cart_mia, TreeParams(max_depth=6)),
        "forest8": (fit_forest, TreeParams(max_depth=6, n_trees=8))}


@pytest.fixture(scope="module")
def instance():
    spec = datagen.GeneratorSpec(n=2400, d=10, r=5, k=5, snr=2.0,
                                 mechanism="censoring", p=0.5, seed=0)
    data, _X_full, _truth = datagen.generate(spec)
    return data.subset(np.arange(N_TRAIN)), data


@pytest.fixture(scope="module")
def models(instance):
    train, _data = instance
    fits = {**FITS, "forest100": (fit_forest, TreeParams(max_depth=6, n_trees=100))}
    return {name: fit(train, params) for name, (fit, params) in fits.items()}


def count_nodes(node) -> int:
    return 1 if node.is_leaf() else 1 + count_nodes(node.left) + count_nodes(node.right)


@pytest.mark.parametrize("model", sorted(FITS))
def test_fit(benchmark, instance, model, monkeypatch):
    train, _data = instance
    fit, params = FITS[model]
    searches, search = [], learners._best_split
    monkeypatch.setattr(learners, "_best_split",
                        lambda *args: searches.append(1) or search(*args))
    counted = fit(train, params)
    monkeypatch.undo()
    fitted = benchmark(fit, train, params)
    assert fitted.to_dict() == counted.to_dict()
    trees = getattr(fitted, "trees", [fitted])
    benchmark.extra_info.update(split_searches=len(searches),
                                nodes=sum(count_nodes(t.root) for t in trees))


@pytest.mark.parametrize("rows", [16, 352])
@pytest.mark.parametrize("model", ["tree", "forest8", "forest100"])
def test_predict(benchmark, instance, models, model, rows):
    _train, data = instance
    idx = np.random.default_rng(rows).integers(N_TRAIN, data.n, size=rows)
    M = data.M[idx]
    X = np.where(M == 1, 0.0, data.X[idx])
    pred = benchmark(models[model].predict, X, M)
    assert pred.shape == (rows,) and np.all(np.isfinite(pred))
