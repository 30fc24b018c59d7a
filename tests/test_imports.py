"""Package modules import at module level only.

The one exception is scipy: `scipy.stats` and `scipy.optimize` are imported
inside the functions that use them, since together they are most of the
package's import time (see test_cli's import-time test).
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
            if module.split(".")[0] != "scipy":
                found.setdefault(path.name, []).append((fn, module))
    assert found == {}
