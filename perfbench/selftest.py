"""Tests of the benchmark itself; slow, so outside the package's test suite.

    python3 -m pytest perfbench/selftest.py -q

Each traced workload runs twice on seed 0 (about three minutes in all). The
work counters of the two runs must be equal, each run checks its traced
outputs against its untraced ones, and the traced counts must show every
workload bypassing the layers BENCHMARK.json says it bypasses.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("linear_censor", "mia_trees", "predict_stream")
# Per-layer metrics that count the traced pass's work. Times and the measured
# machine slowdown vary, and the number of untraced passes (hence batches.*)
# depends on the machine's speed.
COUNT_METRICS = [name for name, unit in run.per_layer_names()
                 if unit in ("count", "ratio")
                 and not name.startswith(("trace.", "batches.", "calib."))]


def _run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload on seed 0."""
    return {w: [_result(_run(w, 1)) for _ in range(2)] for w in WORKLOADS}


def _value(result, name):
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_are_correct_and_counters_repeat(traced, workload):
    first, second = traced[workload]
    assert first["correct"] and second["correct"]
    assert first["failed"] * second["attempted"] == second["failed"] * first["attempted"]
    for name in COUNT_METRICS:
        assert _value(first, name) == _value(second, name), name


def test_per_layer_metrics_match_benchmark_json(traced):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == dict(run.per_layer_names())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        assert set(traced[workload][0]["metrics"]) == set(declared)


ADAPTIVE_CALLS = [f"{n}.calls" for n in run.SPAN_NAMES if n.startswith("adaptive.")]
FIT_CALLS = ["learners.fit_cart_mia.calls", "learners.fit_forest.calls"]
SOLVER_CALLS = ["elasticnet.fit.calls", "adaptive.fit_adaptive.calls",
                "adaptive.fit_finite_adaptive.calls", "joint.joint_fit.calls",
                "joint.coordinate_step.calls"]


def test_linear_censor_stresses_solver_and_bypasses_tree_fitting(traced):
    result = traced["linear_censor"][0]
    for name in FIT_CALLS:
        assert _value(result, name) == 0, name
    for name in ("elasticnet.fit.calls", "adaptive.expand_matrix.calls",
                 "adaptive.fit_finite_adaptive.calls", "core.unique_patterns.calls",
                 "joint.coordinate_step.calls", "elasticnet.sweeps"):
        assert _value(result, name) > 0, name


def test_mia_trees_bypasses_elasticnet_and_adaptive(traced):
    result = traced["mia_trees"][0]
    for name in ["elasticnet.fit.calls"] + ADAPTIVE_CALLS:
        assert _value(result, name) == 0, name
    for name in FIT_CALLS + ["joint.refits", "learners.node_rows"]:
        assert _value(result, name) > 0, name


def test_predict_stream_times_no_solver_or_split_search(traced):
    result = traced["predict_stream"][0]
    for name in SOLVER_CALLS + FIT_CALLS + ["bench.fit_method.calls"]:
        assert _value(result, name) == 0, name
    for name in ("learners.row_visits", "adaptive.predict.calls",
                 "adaptive.from_json.calls", "learners.from_json.calls",
                 "batches.linear", "batches.tree"):
        assert _value(result, name) > 0, name
    assert _value(result, "batches.linear") >= 1000
    assert _value(result, "batches.tree") >= 1000


def test_predict_stream_baseline_failures():
    """On the seed commit only the `finite` batches with NaN or inf at masked
    slots fail, and that share is the recorded baseline."""
    result = _result(_run("predict_stream", 0))
    with open(HERE / "out" / "predict_stream.seed0.trace0.json") as fh:
        detail = json.load(fh)
    with open(HERE / "refs" / "predict_stream.seed0.json") as fh:
        ref = json.load(fh)
    assert result["correct"]
    passes = len(detail["passes_wall_s"])
    assert result["failed"] == detail["known_failures"] == ref["baseline_failed"] * passes
    assert result["attempted"] == ref["baseline_attempted"] * passes


def test_linear_censor_reference_is_replication_zero_of_shipped_config(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from missfit import cli
    with open(ROOT / "configs" / "censoring_linear.json") as fh:
        config = json.load(fh)
    config["replications"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    assert cli.main(["bench", "--config", str(path), "--out", str(out),
                     "--jobs", "1"]) == 0
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        rows[fields[1]] = fields[-1]
    with open(HERE / "refs" / "linear_censor.seed0.json") as fh:
        ref = json.load(fh)["rows"]
    assert set(rows) == {"mean_impute_linear", "affine_intercept", "joint_linear"}
    for method, value in rows.items():
        assert ref[method] == value, method


def test_calibrator_leaves_out_its_kernels():
    """Time read from the calibrator's clock excludes the kernels it ran."""
    from calib import Calibrator
    cal = Calibrator()
    cal.start()
    try:
        t, c = time.perf_counter(), cal.clock()
        while time.perf_counter() - t < 0.5:
            sum(range(1000))
        wall, net = time.perf_counter() - t, cal.clock() - c
    finally:
        cal.stop()
    assert len(cal.samples) >= 5
    assert net == pytest.approx(wall - cal.spent, abs=5e-3)
    assert net < wall
    assert 0.1 < cal.slowdown() < 10


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("linear_censor", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
