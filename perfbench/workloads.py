"""The benchmark's three workloads.

Each workload is single-threaded and runs as a closed loop with one client:
a pass starts only after the previous one has finished. ``setup`` makes the
inputs from the workload seed, ``timed`` is the timed section, and ``judge``
checks what it produced, after the clock has stopped, against the committed
references (seed 0) or, on any other seed, against the invariants every
output must meet.

Why each workload exists, which layers it stresses and which it bypasses is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``; the bypasses are
asserted from traced counts in ``perfbench/selftest.py``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Package functions are called through their modules, so that spans the
# tracer installs there also cover the benchmark's own set-up calls.
from missfit import adaptive, cli, datagen, joint, learners
from missfit.core import MaskedDataset, write_csv
from missfit.elasticnet import ElasticNetSpec

REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class Failure:
    op: str           # cell method or batch index
    reasons: list[str]
    known: bool = False


@dataclass
class PassResult:
    """What one timed pass produced; the times are filled in by the caller."""

    outputs: dict                      # op -> output, compared across passes
    scores: dict[str, float]           # per method / model, failed ops left out
    attempted: int
    failures: list[Failure] = field(default_factory=list)
    latency: np.ndarray | None = None  # seconds per batch, stream only
    extra: dict = field(default_factory=dict)
    wall_s: float = 0.0
    slowdown: float = 1.0              # machine slowdown during the pass
    ref_s: float = 0.0                 # wall_s at reference speed


def _load_ref(workload: str, seed: int):
    path = REFS / f"{workload}.seed{seed}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Fit workloads: one in-process `missfit bench --jobs 1` replication.

class FitWorkload:
    """One replication of the paper's evaluation pipeline through the CLI.

    The instance is the generator's seed-0 draw and the config's seed_base is
    0, so on workload seed 0 the run is replication 0 of a config with this
    generator: for linear_censor the same instance, grids and folds as
    `missfit bench configs/censoring_linear.json`. Any other seed replaces
    the held-out rows with rows drawn from the same distribution (same
    design covariance, ground truth and mask mechanism), picked by the seed
    from a pool of fresh draws. The training split, and so every fit the
    replication makes, is the same on every seed; the seed changes only what
    the fitted models are scored on. Drawing a new instance per seed instead
    makes the solver's work, and the wall time, differ by up to 40% between
    seeds.
    """

    POOL = 3000

    def __init__(self, name, dataset, generator, methods, grids,
                 test_fraction=0.3):
        self.name = name
        self.dataset = dataset
        self.generator = generator
        self.methods = methods
        self.grids = grids
        self.test_fraction = test_fraction

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        data = self.instance(seed)
        csv_path = workdir / f"{self.name}.csv"
        write_csv(data, csv_path)
        self.config_path = workdir / f"{self.name}.config.json"
        config = {"name": self.dataset, "methods": self.methods,
                  "dataset_csv": str(csv_path), "replications": 1,
                  "test_fraction": self.test_fraction, "cv_folds": 5,
                  "seed_base": 0, "grids": self.grids}
        with open(self.config_path, "w") as fh:
            json.dump(config, fh, indent=1)
        self.ref = _load_ref(self.name, seed)
        self._passes = 0

    def instance(self, seed: int) -> MaskedDataset:
        spec = datagen.GeneratorSpec(**self.generator, seed=0)
        data, X_full, truth = datagen.generate(spec)
        if seed == 0:
            return data
        n, d = data.n, data.d
        n_test = int(round(n * self.test_fraction))
        # The held-out rows of replication 0 with seed_base 0, as
        # missfit.bench.run_replication draws them.
        test_rows = np.random.default_rng(7).permutation(n)[:n_test]
        # gen_design draws its rows after the covariance factor, so rows past
        # the first n of a longer draw are fresh rows of the same design.
        pool = datagen.gen_design(replace(spec, n=n + self.POOL))[n:]
        rng = np.random.default_rng(seed)
        X_new = pool[rng.choice(self.POOL, n_test, replace=False)]
        y_new = truth(X_new) + rng.normal(scale=1.0 / np.sqrt(spec.snr), size=n_test)
        if spec.mechanism == "censoring":
            M_new = datagen.apply_censoring(
                X_new, spec.p, datagen.censoring_thresholds(X_full, spec.p))
        else:
            M_new = (rng.random((n_test, d)) < spec.p).astype(np.int8)
        X, M, y = X_full.copy(), data.M.copy(), data.y.copy()
        X[test_rows], M[test_rows], y[test_rows] = X_new, M_new, y_new
        return MaskedDataset(X, M, y)

    def timed(self, main=None, clock=None):
        """The timed section: `missfit bench --config <cfg> --jobs 1`."""
        main = main or cli.main
        out = self.workdir / f"{self.name}.results.{self._passes}.csv"
        self._passes += 1
        log_out, log_err = io.StringIO(), io.StringIO()
        with redirect_stdout(log_out), redirect_stderr(log_err):
            code = main(["bench", "--config", str(self.config_path),
                         "--out", str(out), "--jobs", "1"])
        return code, out, log_err.getvalue()

    def judge(self, code, out, stderr) -> PassResult:
        rows, timings = {}, {}
        if code == 0:
            with open(out, newline="") as fh:
                rows = {r["method"]: r["value"] for r in csv.DictReader(fh)}
            with open(str(out) + ".timings.csv", newline="") as fh:
                timings = {r["method"]: float(r["seconds"])
                           for r in csv.DictReader(fh)}
        failures = []
        for method in self.methods:
            reasons = []
            value = rows.get(method)
            if value is None:
                reasons.append("raised")
            elif not math.isfinite(float(value)):
                reasons.append("nonfinite")
            elif self.ref is not None and self.ref["rows"].get(method) != value:
                reasons.append("reference_mismatch")
            if reasons:
                failures.append(Failure(method, reasons))
        failed = {f.op for f in failures}
        scores = {m: float(v) for m, v in rows.items() if m not in failed}
        return PassResult(outputs=rows, scores=scores,
                          attempted=len(self.methods), failures=failures,
                          extra={"cell_s": timings, "stderr": stderr[-2000:]})

    def reference(self, result: PassResult) -> dict:
        return {"rows": result.outputs}


LINEAR_CENSOR = FitWorkload(
    "linear_censor", "censoring_linear",
    {"n": 1000, "d": 10, "r": 5, "k": 5, "snr": 2.0,
     "mechanism": "censoring", "p": 0.5, "signal": "linear"},
    ["mean_impute_linear", "affine_intercept", "affine", "fully_adaptive",
     "finite", "joint_linear"],
    {})

# Small grids: the default rf_mia grid (100 trees, depths 6 and 9) alone
# takes minutes per replication. 440 training rows as with n = 600 at the
# usual 30%, but 360 held-out rows, so that the held-out R² varies less
# between seeds.
MIA_TREES = FitWorkload(
    "mia_trees", "mcar_nn",
    {"n": 800, "d": 10, "r": 5, "k": 5, "snr": 8.0,
     "mechanism": "mcar", "p": 0.3, "signal": "nn"},
    ["cart_mia", "rf_mia", "joint_tree"],
    {"cart_mia": [{"max_depth": 3}, {"max_depth": 6}],
     "rf_mia": [{"max_depth": 6, "n_trees": 8}],
     "joint_tree": [{"max_depth": 3}, {"max_depth": 5}]},
    test_fraction=0.45)


# ---------------------------------------------------------------------------
# predict_stream: a fitted model zoo scoring a stream of small batches.

LINEAR_FAMILY = ("affine", "fully_adaptive", "finite", "joint_linear")
TREE_FAMILY = ("cart_mia", "rf_mia", "joint_tree")
ZOO = LINEAR_FAMILY + TREE_FAMILY
FAMILY = {**{m: "linear" for m in LINEAR_FAMILY}, **{m: "tree" for m in TREE_FAMILY}}

# Values a library caller may leave at masked slots. Every fourth round of
# batches carries one of them; predictions must equal those for the same rows
# with zeros at the masked slots.
PROBES = {"nan": np.nan, "inf": np.inf, "1e300": 1e300}
PROBE_EVERY = 4

# Failures present at the seed commit, counted in `failed` but not held
# against `correct`: core.masked_dot computes w * (1 - m) * x, and 0 * NaN
# and 0 * inf are NaN, so the `finite` partition tree returns NaN for rows
# whose masked slots hold NaN or inf.
KNOWN_FAILURES = {("finite", "nan"), ("finite", "inf")}


def _digest(pred: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(pred, dtype=float).tobytes()).hexdigest()[:16]


def _predict(model, X, M):
    if isinstance(model, (adaptive.AdaptiveModel, adaptive.PartitionTree)):
        return model.predict_matrix(X, M)
    return model.predict(X, M)


def _load(text: str):
    """Rebuild a model from its JSON document, dispatching on its type."""
    kind = json.loads(text)["type"]
    loader = {"adaptive": adaptive.model_from_json,
              "partition_tree": adaptive.tree_from_json,
              "joint": joint.joint_model_from_json,
              "mia_tree": learners.tree_from_json,
              "mia_forest": learners.forest_from_json}[kind]
    return loader(text)


class StreamWorkload:
    """Serve a fixed zoo of serialized models to one closed-loop client.

    The zoo is fitted once in set-up on the first N_TRAIN rows of a fixed
    censoring instance; the stream is drawn by the workload seed from the
    instance's remaining rows, so it holds missingness patterns the
    per-pattern models never saw and they use their fallback.
    """

    name = "predict_stream"
    N_TRAIN = 400
    N_POOL = 2000
    BATCH_ROWS = 16
    ROUNDS = 400   # one batch per zoo model per round
    SPEC = ElasticNetSpec(lam=0.01, alpha=0.5)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        spec = datagen.GeneratorSpec(n=self.N_TRAIN + self.N_POOL, d=10, r=5,
                                     k=5, snr=2.0, mechanism="censoring",
                                     p=0.5, signal="linear", seed=0)
        data, _X_full, _truth = datagen.generate(spec)
        train = data.subset(np.arange(self.N_TRAIN))
        self.zoo_json = self._fit_zoo(train)

        rng = np.random.default_rng(seed)
        n_batches = self.ROUNDS * len(ZOO)
        rows = self.N_TRAIN + rng.integers(0, self.N_POOL,
                                           size=(n_batches, self.BATCH_ROWS))
        self.batches = []
        for b in range(n_batches):
            X = data.X[rows[b]]
            M = data.M[rows[b]].astype(np.int8)
            X = np.where(M == 1, 0.0, X)
            rnd = b // len(ZOO)
            probe = None
            if rnd % PROBE_EVERY == PROBE_EVERY - 1:
                probe = list(PROBES)[(rnd // PROBE_EVERY) % len(PROBES)]
            self.batches.append((ZOO[b % len(ZOO)], X, M, data.y[rows[b]], probe))
        self.batch_family = np.array([FAMILY[b[0]] for b in self.batches])
        self.ref = _load_ref(self.name, seed)

    def _fit_zoo(self, train) -> dict[str, str]:
        spec = self.SPEC
        return {
            "affine": adaptive.model_to_json(
                adaptive.fit_adaptive(train, adaptive.AFFINE, spec)),
            "fully_adaptive": adaptive.model_to_json(
                adaptive.fit_adaptive(train, adaptive.FULLY_ADAPTIVE, spec)),
            "finite": adaptive.tree_to_json(
                adaptive.fit_finite_adaptive(train, spec, max_depth=3)),
            "joint_linear": joint.joint_model_to_json(
                joint.joint_fit(train, joint.linear_contract(spec))),
            "cart_mia": learners.tree_to_json(
                learners.fit_cart_mia(train, learners.TreeParams(max_depth=6))),
            "rf_mia": learners.forest_to_json(
                learners.fit_forest(train, learners.TreeParams(
                    max_depth=6, n_trees=8, seed=0))),
            "joint_tree": joint.joint_model_to_json(
                joint.joint_fit(train, joint.tree_contract(
                    learners.TreeParams(max_depth=4)))),
        }

    def timed(self, main=None, clock=time.perf_counter):
        """The timed section: load the zoo, then score every batch. Batch
        latencies are read from `clock`."""
        models = {name: _load(text) for name, text in self.zoo_json.items()}
        preds = []
        latency = np.empty(len(self.batches))
        for b, (name, X, M, _y, probe) in enumerate(self.batches):
            if probe is not None:
                X = np.where(M == 1, PROBES[probe], X)
            t = clock()
            try:
                pred = np.asarray(_predict(models[name], X, M), dtype=float)
            except Exception as exc:  # a failed batch is counted, not fatal
                pred = exc
            latency[b] = clock() - t
            preds.append(pred)
        return models, preds, latency

    def judge(self, models, preds, latency) -> PassResult:
        """Check every batch; runs after the timed section has ended."""
        failures, expected = [], []
        ys = {m: [] for m in ZOO}
        yhats = {m: [] for m in ZOO}
        for b, ((name, X, M, y, probe), pred) in enumerate(zip(self.batches, preds)):
            want = pred if probe is None else np.asarray(
                _predict(models[name], X, M), dtype=float)
            expected.append(_digest(want))
            reasons = []
            if isinstance(pred, Exception):
                reasons.append("raised")
            else:
                if not np.all(np.isfinite(pred)):
                    reasons.append("nonfinite")
                if probe is not None and not np.array_equal(pred, want):
                    reasons.append("masked_slot")
                if self.ref is not None and self.ref["digests"][b] != _digest(pred):
                    reasons.append("reference_mismatch")
            if reasons:
                failures.append(Failure(str(b), reasons,
                                        known=(name, probe) in KNOWN_FAILURES))
            else:
                ys[name].append(y)
                yhats[name].append(pred)
        scores = {}
        for m in ZOO:
            if ys[m]:
                y, yhat = np.concatenate(ys[m]), np.concatenate(yhats[m])
                scores[m] = 1.0 - float(np.sum((y - yhat) ** 2)) / float(
                    np.sum((y - y.mean()) ** 2))
        digests = {str(b): None if isinstance(p, Exception) else _digest(p)
                   for b, p in enumerate(preds)}
        return PassResult(outputs=digests, scores=scores,
                          attempted=len(self.batches), failures=failures,
                          latency=latency, extra={"expected": expected})

    def reference(self, result: PassResult) -> dict:
        return {"baseline_failed": len(result.failures),
                "baseline_attempted": result.attempted,
                "digests": result.extra["expected"]}


WORKLOADS = {w.name: w for w in (LINEAR_CENSOR, MIA_TREES, StreamWorkload())}
