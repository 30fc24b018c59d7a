"""The committed BENCH_layers.json and BENCH_configs.json name only what the
benchmark measures, and tools/record_bench.py reduces its runs as it says:
scaled to reference speed, and refusing a run that is wrong or that did
other work than the first."""

import ast
import importlib
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def recorder(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("record_bench")


def run_py_names():
    """Workload, span and counter names of perfbench/run.py, read without
    importing it: the import sets BLAS thread variables."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    assigned = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    workloads = next(ast.literal_eval(k.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and node.args
                     and isinstance(node.args[0], ast.Constant)
                     and node.args[0].value == "--workload"
                     for k in node.keywords if k.arg == "choices")
    counters = {metric for metric, _span, _key in ast.literal_eval(assigned["COUNTERS"])}
    return set(workloads), set(ast.literal_eval(assigned["SPAN_NAMES"])), counters


def spreads(doc):
    if isinstance(doc, dict):
        if "median" in doc:
            yield doc
        for value in doc.values():
            yield from spreads(value)


def test_committed_files_name_what_perfbench_and_the_configs_define():
    workloads, spans, counters = run_py_names()
    layers = json.loads((ROOT / "BENCH_layers.json").read_text())
    configs = json.loads((ROOT / "BENCH_configs.json").read_text())
    assert layers["workloads"] and set(layers["workloads"]) <= workloads
    for entry in layers["workloads"].values():
        assert entry["spans"] and set(entry["spans"]) <= spans
        assert set(entry["counters"]) <= counters
    for path in sorted((ROOT / "configs").glob("*.json")):
        methods = json.loads(path.read_text())["methods"]
        assert set(configs["configs"][path.stem]["cell_ref_s"]) == set(methods), path.name
    found = list(spreads(layers)) + list(spreads(configs))
    assert found
    for s in found:
        assert all(math.isfinite(v) for v in s.values())
        assert 0 < s["q1"] <= s["median"] <= s["q3"], s


def layer_out(correct=True, failed=0, calls=3, sweeps=10, self_s=2.0,
              ref_s=1.0, wall_s=2.0):
    metrics = {"elasticnet.fit.calls": calls, "elasticnet.fit.self_s": self_s,
               "learners.predict.calls": 0, "learners.predict.self_s": 0.0,
               "elasticnet.sweeps": sweeps}
    report = {"correct": correct, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return report, {"traced_ref_s": ref_s, "traced_wall_s": wall_s}


def config_out(code=0, results=b"r", ref_s=2.0, raw_s=4.0, seconds=(1.0, 3.0)):
    rows = "".join(f"c,affine,{rep},{s}\n" for rep, s in enumerate(seconds))
    return {"code": code, "results": results, "ref_s": ref_s, "raw_s": raw_s,
            "timings": "dataset,method,replication,seconds\n" + rows}


def test_times_are_scaled_to_reference_speed_by_their_own_run(recorder):
    layers = recorder.reduce_layers(
        {"w": [layer_out(), layer_out(self_s=3.0, ref_s=2.0, wall_s=1.0),
               layer_out(self_s=1.0)]}, ["elasticnet.sweeps"])
    assert layers == {"w": {
        "spans": {"elasticnet.fit": {  # 1.0, 6.0 and 0.5 s at reference speed
            "calls": 3, "self_ref_s": {"median": 1.0, "q1": 0.75, "q3": 3.5}}},
        "counters": {"elasticnet.sweeps": 10}}}
    configs = recorder.reduce_configs(
        {"c": [config_out(), config_out(ref_s=3.0, raw_s=2.0)]}, {"c": b"r"})
    assert configs == {"c": {  # cells 2.0 and 6.0 s at reference speed
        "wall_ref_s": {"median": 2.5, "q1": 2.25, "q3": 2.75},
        "cell_ref_s": {"affine": {"median": 4.0, "q1": 3.0, "q3": 5.0}}}}


@pytest.mark.parametrize("bad, message", [
    (layer_out(correct=False), "w run 2: correct False, failed 0"),
    (layer_out(failed=1), "w run 2: correct True, failed 1"),
    (layer_out(calls=4), "w run 2: elasticnet.fit.calls 4, against 3 in run 1"),
    (layer_out(sweeps=11), "w run 2: elasticnet.sweeps 11, against 10 in run 1"),
])
def test_layer_runs_that_are_wrong_or_differ_are_refused(recorder, bad, message):
    with pytest.raises(SystemExit, match=f"^refused: {message}$"):
        recorder.reduce_layers({"w": [layer_out(), bad]}, ["elasticnet.sweeps"])


@pytest.mark.parametrize("bad", [config_out(results=b"s"), config_out(code=1)])
def test_config_runs_whose_results_differ_are_refused(recorder, bad):
    with pytest.raises(SystemExit, match=r"^refused: c run 2: exit \d, results "
                                         r"differ from configs/c.results.csv$"):
        recorder.reduce_configs({"c": [config_out(), bad]}, {"c": b"r"})
