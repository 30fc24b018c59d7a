"""Span tracing of the missfit layers, installed from outside the package.

The package binds functions by name at import time (``from .elasticnet import
fit as enet_fit``), so wrapping ``missfit.elasticnet.fit`` alone would miss
every call made through ``missfit.bench.enet_fit``. ``Tracer.install``
therefore replaces the original function object wherever any loaded
``missfit`` module binds it, and wraps methods on their classes. Per-row and
per-coordinate helpers (``soft_threshold``, ``predict_row``, ``masked_dot``)
are deliberately left alone: they run so often that their spans would
dominate the time being measured.

Spans stay in memory as ``[name, start, end, parent, counts]`` lists and are
written out once the run ends. Work counters are read from the objects a
wrapped call returns and stored on its span, so they can be summed over any
subtree (for example one timed pass) exactly like the times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _tree_nodes(root):
    """(node count, sum of n_rows) over one MiaNode tree."""
    nodes = rows = 0
    stack = [root]
    while stack:
        node = stack.pop()
        nodes += 1
        rows += node.n_rows
        if node.feature is not None:
            stack.extend((node.left, node.right))
    return nodes, rows


def _count_enet_fit(args, kwargs, out):
    sweeps = len(out.objective_trace) - 1
    p = len(out.coefficients)
    return {"sweeps": sweeps, "coord_updates": sweeps * p,
            "nonconverged": int(not out.converged)}


def _count_cart(args, kwargs, out):
    nodes, rows = _tree_nodes(out.root)
    return {"trees": 1, "nodes": nodes, "node_rows": rows}


def _count_forest(args, kwargs, out):
    counts = {"trees": len(out.trees), "nodes": 0, "node_rows": 0}
    for tree in out.trees:
        nodes, rows = _tree_nodes(tree.root)
        counts["nodes"] += nodes
        counts["node_rows"] += rows
    return counts


def _count_rows(args, kwargs, out):
    return {"row_visits": len(out)}


def _count_expand(args, kwargs, out):
    return {"expand_cells": int(out.shape[0] * out.shape[1])}


def _count_joint(args, kwargs, out):
    return {"refits": out.n_refits, "cycles": sum(out.cycles_per_iter or [])}


def _count_step(args, kwargs, out):
    return {"step_moves": int(out[0] != 0)}


def _count_replication(args, kwargs, out):
    records, errors = out
    return {"cells": len(records) + len(errors)}


# (span name, module, attribute, counter). Every binding of the attribute's
# original object in a loaded missfit module is wrapped.
FUNCTIONS = (
    ("core.validate", "core", "validate", None),
    ("core.unique_patterns", "core", "unique_patterns",
     lambda a, k, out: {"patterns": len(out)}),
    ("datagen.generate", "datagen", "generate", None),
    ("elasticnet.fit", "elasticnet", "fit", _count_enet_fit),
    ("adaptive.expand_matrix", "adaptive", "expand_matrix", _count_expand),
    ("adaptive.fit_adaptive", "adaptive", "fit_adaptive", None),
    ("adaptive.fit_finite_adaptive", "adaptive", "fit_finite_adaptive",
     lambda a, k, out: {"finite_leaves": len(out.leaves())}),
    ("adaptive.from_json", "adaptive", "model_from_json", None),
    ("adaptive.from_json", "adaptive", "tree_from_json", None),
    ("joint.joint_fit", "joint", "joint_fit", _count_joint),
    ("joint.coordinate_step", "joint", "coordinate_step", _count_step),
    ("joint.from_json", "joint", "joint_model_from_json", None),
    ("learners.fit_cart_mia", "learners", "fit_cart_mia", _count_cart),
    ("learners.fit_forest", "learners", "fit_forest", _count_forest),
    ("learners.mean_impute", "learners", "mean_impute", None),
    ("learners.from_json", "learners", "tree_from_json", None),
    ("learners.from_json", "learners", "forest_from_json", None),
    ("bench.run_replication", "bench", "run_replication", _count_replication),
    ("bench.kfold_cv", "bench", "kfold_cv", None),
    ("bench.fit_method", "bench", "fit_method", None),
    ("bench.score", "bench", "r_squared", None),
    ("bench.score", "bench", "scaled_auc", None),
)

# (span name, module, class, method, counter)
METHODS = (
    ("core.subset", "core", "MaskedDataset", "subset", None),
    ("elasticnet.predict", "elasticnet", "LinearFit", "predict", None),
    ("adaptive.predict", "adaptive", "AdaptiveModel", "predict_matrix", None),
    ("adaptive.predict", "adaptive", "PartitionTree", "predict_matrix", None),
    ("joint.predict", "joint", "JointModel", "predict", None),
    ("learners.predict", "learners", "MiaTree", "predict", _count_rows),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # what spans are timed with
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][4] = counter(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Wrap every traced layer entry point; undone by uninstall()."""
        import missfit.cli  # noqa: F401  (loads every submodule)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "missfit" or key.startswith("missfit."))]
        for name, mod, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[f"missfit.{mod}"], attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, mod, cls_name, attr, counter in METHODS:
            cls = getattr(sys.modules[f"missfit.{mod}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, counter))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def subtree_totals(self, root_names):
        """Per-span-name calls, self time and summed counters, over the spans
        below any top-level span whose name is in root_names."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inside = [False] * n
        for i, (name, _s, _e, parent, _c) in enumerate(self.spans):
            inside[i] = inside[parent] if parent >= 0 else name in root_names
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            if not inside[i] or parent < 0:
                continue
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            for key, value in (counts or {}).items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")
