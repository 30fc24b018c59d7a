"""The names the benchmark in perfbench/ binds in the package still exist,
and a seed-0 pass of each workload still gives the benchmark's committed
outputs.

The benchmark's tracer wraps package functions and methods by name, and its
workloads call package functions through their modules. A renamed binding
would otherwise show up only in a traced benchmark run. The layer harnesses
(tests/bench_*.py, which write the committed BENCH_*.json and which the
test_*.py pattern does not collect) are checked the same way.
"""

import ast
import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

from missfit import adaptive, bench, core, elasticnet, joint, learners
from missfit.core import MaskedDataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_traced_functions_exist(tracer):
    for _span, mod, attr, _counter in tracer.FUNCTIONS:
        module = importlib.import_module(f"missfit.{mod}")
        assert callable(getattr(module, attr, None)), f"missfit.{mod}.{attr}"


def test_traced_methods_are_defined_on_their_class(tracer):
    for _span, mod, cls_name, attr, _counter in tracer.METHODS:
        cls = getattr(importlib.import_module(f"missfit.{mod}"), cls_name)
        assert attr in cls.__dict__, f"missfit.{mod}.{cls_name}.{attr}"


def test_install_then_uninstall_restores_bindings(tracer):
    from missfit import adaptive, bench
    before = (bench.fit_method, bench.kfold_cv, adaptive.enet_fit,
              adaptive.AdaptiveModel.__dict__["predict_matrix"])
    t = tracer.Tracer()
    t.install()
    try:
        assert bench.fit_method is not before[0]
    finally:
        t.uninstall()
    assert (bench.fit_method, bench.kfold_cv, adaptive.enet_fit,
            adaptive.AdaptiveModel.__dict__["predict_matrix"]) == before


def test_workload_module_attributes_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {"adaptive", "cli", "datagen", "joint", "learners"}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert ("adaptive", "model_to_json") in used
    for mod, attr in sorted(used):
        assert hasattr(importlib.import_module(f"missfit.{mod}"), attr), \
            f"missfit.{mod}.{attr}"


@pytest.mark.parametrize("harness", sorted(p.stem for p in Path(__file__).parent.glob("bench_*.py")))
def test_layer_harness_module_attributes_exist(harness):
    # importing checks each `from missfit... import name`; every missfit
    # module attribute the harness reads, or monkeypatches by name, exists
    module = importlib.import_module(harness)
    bound = {name: m for name, m in vars(module).items()
             if isinstance(m, types.ModuleType) and m.__name__.startswith("missfit")}
    used = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            used.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setattr" and len(node.args) > 1
              and isinstance(node.args[0], ast.Name) and node.args[0].id in bound
              and isinstance(node.args[1], ast.Constant)):
            used.add((node.args[0].id, node.args[1].value))
    assert used
    for name, attr in sorted(used):
        assert hasattr(bound[name], attr), f"{harness}: {bound[name].__name__}.{attr}"


def test_linear_censor_seed0_pass_equals_its_reference(monkeypatch, tmp_path):
    # one seed-0 pass of the benchmark's linear_censor workload, in process
    # (about 8 s): a moved solver bit changes its R² strings
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").LINEAR_CENSOR
    workload.setup(0, tmp_path)
    result = workload.judge(*workload.timed())
    ref = json.loads((PERFBENCH / "refs" / "linear_censor.seed0.json").read_text())
    assert result.outputs == ref["rows"]
    assert result.failures == []


def test_mia_trees_seed0_pass_equals_its_reference(monkeypatch, tmp_path):
    # one seed-0 pass of the benchmark's mia_trees workload, in process: a
    # moved tree bit changes its R² strings and fails here, not only in a
    # benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").MIA_TREES
    workload.setup(0, tmp_path)
    result = workload.judge(*workload.timed())
    ref = json.loads((PERFBENCH / "refs" / "mia_trees.seed0.json").read_text())
    assert result.outputs == ref["rows"]
    assert result.failures == []


def test_predict_stream_seed0_pass_equals_its_reference(monkeypatch, tmp_path):
    # one seed-0 pass of the benchmark's predict_stream workload, in process:
    # a moved prediction bit of any zoo model changes a batch digest
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["predict_stream"]
    workload.setup(0, tmp_path)
    result = workload.judge(*workload.timed())
    ref = json.loads((PERFBENCH / "refs" / "predict_stream.seed0.json").read_text())
    assert result.failures == []
    assert list(result.outputs.values()) == ref["digests"]


# The JSON text readers the benchmark binds refuse a name given twice, at the
# top level and nested, as a model file read by the CLI does; json alone
# keeps the name's last value.
SPEC = elasticnet.ElasticNetSpec(lam=0.01)
JSON_TEXTS = {
    "adaptive.model_from_json": lambda ds: adaptive.model_to_json(
        adaptive.fit_adaptive(ds, adaptive.STATIC, SPEC)),
    "adaptive.tree_from_json": lambda ds: adaptive.tree_to_json(
        adaptive.fit_finite_adaptive(ds, SPEC, max_depth=1, min_leaf=10)),
    "joint.joint_model_from_json": lambda ds: joint.joint_model_to_json(
        joint.joint_fit(ds, joint.linear_contract(SPEC))),
    "learners.tree_from_json": lambda ds: learners.tree_to_json(
        learners.fit_cart_mia(ds, learners.TreeParams(max_depth=2))),
    "learners.forest_from_json": lambda ds: learners.forest_to_json(
        learners.fit_forest(ds, learners.TreeParams(max_depth=2, n_trees=2))),
}


@pytest.mark.parametrize("reader", sorted(JSON_TEXTS))
def test_json_readers_refuse_a_repeated_key(reader):
    mod, name = reader.split(".")
    read = getattr(importlib.import_module(f"missfit.{mod}"), name)
    lines = JSON_TEXTS[reader](tiny()).splitlines()
    read("\n".join(lines))
    nested = next(i for i, line in enumerate(lines)
                  if line.startswith("  \"") and line.endswith(","))
    for i in (1, nested):
        key = lines[i].split('"')[1]
        with pytest.raises(ValueError, match=f"^repeated key '{key}'$"):
            read("\n".join(lines[:i + 1] + lines[i:]))


# Each work counter of the tracer, run on the real result of a tiny call of
# the function it is bound to. A change to what a function returns must not
# silently change a per-layer metric of the benchmark.

def tiny(n=120, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < 0.4).astype(np.int8)
    y = X.sum(axis=1) + M @ np.array([2.0, -2.0, 1.0]) \
        + 0.1 * rng.normal(size=n)
    return MaskedDataset(np.where(M == 1, 0.0, X), M, y)


def json_nodes(doc):
    """(node count, sum of n_rows) of a serialized MIA or partition tree."""
    nodes, rows = 1, doc["n_rows"]
    for side in ("left", "right"):
        if side in doc:
            n, r = json_nodes(doc[side])
            nodes, rows = nodes + n, rows + r
    return nodes, rows


def case_patterns():
    ds = tiny()
    return (ds.M,), core.unique_patterns(ds.M), \
        {"patterns": len(np.unique(ds.M, axis=0))}


def case_enet_fit():
    ds = tiny()
    A = np.where(ds.M == 1, 0.0, ds.X)
    spec = elasticnet.ElasticNetSpec(lam=0.01, max_iters=3, tol=0.0)
    return (A, ds.y, spec), elasticnet.fit(A, ds.y, spec), \
        {"sweeps": 3, "coord_updates": 9, "nonconverged": 1}


def case_expand():
    ds = tiny()
    return (ds.X, ds.M, adaptive.AFFINE), \
        adaptive.expand_matrix(ds.X, ds.M, adaptive.AFFINE), \
        {"expand_cells": ds.n * (3 + 3 * 3)}


def case_finite():
    ds = tiny()
    tree = adaptive.fit_finite_adaptive(ds, elasticnet.ElasticNetSpec(lam=0.01),
                                        max_depth=2, min_leaf=10)
    nodes, _ = json_nodes(tree.to_dict()["root"])
    assert nodes > 1
    # every split has two children, so a tree of n nodes has (n + 1) / 2 leaves
    return (ds,), tree, {"finite_leaves": (nodes + 1) // 2}


def case_joint_fit():
    ds = tiny()
    refits, steps = [], []
    linear = joint.linear_contract(elasticnet.ElasticNetSpec(lam=0.01))

    def contract(X, y, seed):
        refits.append(1)
        return linear(X, y, seed)

    step = joint.coordinate_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(joint, "coordinate_step",
                   lambda *a: steps.append(1) or step(*a))
        model = joint.joint_fit(ds, contract, joint.FitLimits(max_outer=3))
    # every feature has missing rows and a nonzero step, so each cycle
    # takes one coordinate step per feature
    assert len(steps) % ds.d == 0 and len(steps) > 0
    return (ds, contract), model, \
        {"refits": len(refits), "cycles": len(steps) // ds.d}


def case_coordinate_step():
    ds = tiny()
    fit = elasticnet.LinearFit(0.0, np.array([1.0, 0.0, 1.0]), [])
    A = np.where(ds.M == 1, 0.0, ds.X)
    current = joint.mse_error(ds.y, fit.predict(A))
    args = [(A, np.flatnonzero(ds.M[:, j]), j, 0.0, 1.0, fit, ds.y,
             joint.mse_error, current) for j in (0, 1)]
    moved = joint.coordinate_step(*args[0])
    flat = joint.coordinate_step(*args[1])
    assert moved[0] != 0 and flat[0] == 0  # feature 1 has weight 0
    return [(args[0], moved, {"step_moves": 1}),
            (args[1], flat, {"step_moves": 0})]


def case_cart():
    ds = tiny()
    tree = learners.fit_cart_mia(ds, learners.TreeParams(max_depth=3))
    nodes, rows = json_nodes(json.loads(learners.tree_to_json(tree))["root"])
    assert nodes > 1
    return (ds,), tree, {"trees": 1, "nodes": nodes, "node_rows": rows}


def case_forest():
    ds = tiny()
    forest = learners.fit_forest(ds, learners.TreeParams(max_depth=2,
                                                         n_trees=3, seed=0))
    sizes = [json_nodes(t) for t in
             json.loads(learners.forest_to_json(forest))["trees"]]
    return (ds,), forest, {"trees": 3, "nodes": sum(n for n, _ in sizes),
                           "node_rows": sum(r for _, r in sizes)}


def case_replication():
    config = bench.ExperimentConfig(
        "tiny", ["static", "cart_mia"], replications=1, cv_folds=2,
        generator={"n": 60, "d": 3, "k": 2, "r": 2, "p": 0.3},
        grids={"static": [{"lam": 0.01}], "cart_mia": [{"max_depth": 2}]})
    return (config, 0), bench.run_replication(config, 0), {"cells": 2}


def case_tree_predict():
    ds = tiny()
    tree = learners.fit_cart_mia(ds, learners.TreeParams(max_depth=2))
    return (tree, ds.X[:7], ds.M[:7]), tree.predict(ds.X[:7], ds.M[:7]), \
        {"row_visits": 7}


COUNTER_CASES = {
    "core.unique_patterns": case_patterns,
    "elasticnet.fit": case_enet_fit,
    "adaptive.expand_matrix": case_expand,
    "adaptive.fit_finite_adaptive": case_finite,
    "joint.joint_fit": case_joint_fit,
    "joint.coordinate_step": case_coordinate_step,
    "learners.fit_cart_mia": case_cart,
    "learners.fit_forest": case_forest,
    "bench.run_replication": case_replication,
    "learners.predict": case_tree_predict,
}


def traced_counters(tracer):
    """span name -> counter, over every traced function and method."""
    entries = [(e[0], e[-1]) for e in tracer.FUNCTIONS + tracer.METHODS]
    return {span: counter for span, counter in entries if counter is not None}


def test_every_counter_has_a_case(tracer):
    assert set(traced_counters(tracer)) == set(COUNTER_CASES)


@pytest.mark.parametrize("span", sorted(COUNTER_CASES))
def test_counter_reads_the_real_result(tracer, span):
    runs = COUNTER_CASES[span]()
    counter = traced_counters(tracer)[span]
    for args, out, expected in runs if isinstance(runs, list) else [runs]:
        assert counter(args, {}, out) == expected
