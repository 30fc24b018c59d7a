"""Package modules import at module level only.

The exceptions are scipy and `concurrent.futures`, imported inside the
functions that use them for the package's import footprint (see test_cli's
import tests): `scipy.stats` and `scipy.optimize` are most of its import time,
and the process pool loads `multiprocessing`, which a one-worker run never
uses. And only `core` calls `json.loads` or `json.dumps`: its `read_json`
and `to_json` are the package's one JSON codec. Every class that predicts
also writes and reads its own document, so no fitted form sits outside that
one serializer.
"""

import ast
from pathlib import Path

import missfit

SRC = Path(missfit.__file__).resolve().parent


def function_level_imports(tree):
    """(function name, imported module) of every import in a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    yield from ((fn.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    yield fn.name, "." * node.level + (node.module or "")


def test_only_scipy_is_imported_inside_functions():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for fn, module in function_level_imports(ast.parse(path.read_text())):
            if module.split(".")[0] != "scipy" and module != "concurrent.futures":
                found.setdefault(path.name, []).append((fn, module))
    assert found == {}


def test_json_text_is_read_and_written_only_in_core():
    # core.read_json and core.to_json are the package's one JSON codec, so no
    # other module restates the parse rule or the model-file format
    codec, importers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and "json" in (a.name for a in node.names):
                importers.add(path.stem)
            restated = (isinstance(node, ast.Attribute) and node.attr in ("loads", "dumps")
                        and isinstance(node.value, ast.Name) and node.value.id == "json")
            if restated or (isinstance(node, ast.ImportFrom) and node.module == "json"):
                codec.add(path.stem)
    assert codec == {"core"}
    assert not importers & {"adaptive", "joint", "learners", "cli"}


def test_every_class_that_predicts_saves_and_loads():
    unsaved = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if "predict" in methods and not {"to_dict", "from_dict"} <= methods:
                    unsaved.append(f"{path.stem}.{node.name}")
    assert unsaved == []
