"""The names the benchmark in perfbench/ binds in the package still exist.

The benchmark's tracer wraps package functions and methods by name, and its
workloads call package functions through their modules. A renamed binding
would otherwise show up only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
