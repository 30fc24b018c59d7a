"""Record the committed benchmark numbers, BENCH_layers.json and
BENCH_configs.json at the root of the checkout:

    python3 tools/record_bench.py

BENCH_layers.json holds REPEATS traced seed-0 runs of each workload that
BENCHMARK.json declares (`perfbench/run.py --seed 0 --seconds 1 --trace 1`),
the workloads taken in turn. Per workload it keeps each called span's call
count and the work counters, which must be equal in every run, and each
span's self time at reference speed. A run's self times are raw seconds of
its one traced pass; each is scaled by that pass's traced_ref_s /
traced_wall_s, read from the run's detail file.

BENCH_configs.json holds REPEATS runs of `missfit bench --jobs 1` on each
configs/*.json, the configs taken in turn, each in a fresh process under
perfbench's calibrator with one BLAS thread. Per config it keeps the wall
time of the command and each method's cell seconds, summed over its
replications, both at reference speed.

Every time is given as the median and quartiles over the runs. The recorder
exits 1, naming the run, when a perfbench run is not correct or has a failed
operation, when a call count or counter differs between runs, or when a
config's results CSV differs from the committed one.
"""

import csv
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import redirect_stdout
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
REPEATS = 5


def spread(values) -> dict:
    """Median and quartiles of at least two values, to 4 significant digits."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {k: float(f"{v:.4g}") for k, v in
            (("median", median), ("q1", q1), ("q3", q3))}


def reduce_layers(runs, counters) -> dict:
    """Per workload, its spans and counters over runs: workload -> a list of
    (run.py's last output line, parsed; the run's detail file, parsed)."""
    doc = {}
    for workload, outs in runs.items():
        first, times = None, {}
        for i, (report, detail) in enumerate(outs, 1):
            name = f"{workload} run {i}"
            if report["correct"] is not True or report["failed"] != 0:
                raise SystemExit(f"refused: {name}: correct {report['correct']}, "
                                 f"failed {report['failed']}")
            metrics = {k: v["value"] for k, v in report["metrics"].items()}
            counts = {k: v for k, v in metrics.items()
                      if k.endswith(".calls") or k in counters}
            first = first or counts
            for key in sorted(first.keys() | counts.keys()):
                if first.get(key) != counts.get(key):
                    raise SystemExit(f"refused: {name}: {key} {counts.get(key)}, "
                                     f"against {first.get(key)} in run 1")
            scale = detail["traced_ref_s"] / detail["traced_wall_s"]
            for key, calls in counts.items():
                if key.endswith(".calls") and calls:
                    span = key[:-len(".calls")]
                    times.setdefault(span, []).append(metrics[f"{span}.self_s"] * scale)
        doc[workload] = {
            "spans": {span: {"calls": first[f"{span}.calls"], "self_ref_s": spread(t)}
                      for span, t in sorted(times.items())},
            "counters": {c: first[c] for c in counters}}
    return doc


def reduce_configs(runs, committed) -> dict:
    """Per config, its wall and cell times over runs: config -> a list of
    config_run outputs, each checked against committed[config], the bytes of
    its committed results CSV."""
    doc = {}
    for config, outs in runs.items():
        walls, cells = [], {}
        for i, out in enumerate(outs, 1):
            if out["code"] != 0 or out["results"] != committed[config]:
                raise SystemExit(f"refused: {config} run {i}: exit {out['code']}, "
                                 f"results differ from configs/{config}.results.csv")
            walls.append(out["ref_s"])
            run_cells = defaultdict(float)
            for row in csv.DictReader(io.StringIO(out["timings"])):
                run_cells[row["method"]] += float(row["seconds"])
            # cell seconds are raw perf_counter seconds, calibration kernels
            # included, as is the run's raw wall time
            for method, seconds in run_cells.items():
                cells.setdefault(method, []).append(seconds * out["ref_s"] / out["raw_s"])
        doc[config] = {"wall_ref_s": spread(walls),
                       "cell_ref_s": {m: spread(s) for m, s in sorted(cells.items())}}
    return doc


def layer_run(workload):
    """run.py's last output line and the detail file of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    detail = (PERFBENCH / "out" / f"{workload}.seed0.trace1.json").read_text()
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(detail)


def config_run(config):
    """One `missfit bench --jobs 1` of a config in this process, under the
    calibrator: its exit code, results CSV bytes, timings CSV text, and wall
    time raw and at reference speed."""
    from calib import Calibrator
    from missfit import cli
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results.csv"
        cal = Calibrator()
        cal.start()
        try:
            t0, c0 = time.perf_counter(), cal.clock()
            with redirect_stdout(io.StringIO()):
                code = cli.main(["bench", "--config", str(config),
                                 "--out", str(out), "--jobs", "1"])
            raw_s, wall_s = time.perf_counter() - t0, cal.clock() - c0
        finally:
            cal.stop()
        timings = Path(f"{out}.timings.csv")
        return {"code": code, "raw_s": raw_s, "ref_s": wall_s / cal.slowdown(),
                "results": out.read_bytes() if code == 0 else b"",
                "timings": timings.read_text() if code == 0 else ""}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]  # spawned children too
    import run  # pins BLAS to one thread before numpy loads, in children too
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    layer_runs = {w["name"]: [] for w in declared}
    for _ in range(REPEATS):
        for workload, outs in layer_runs.items():
            outs.append(layer_run(workload))
    layers = reduce_layers(layer_runs, [metric for metric, _span, _key in run.COUNTERS])
    configs = sorted((ROOT / "configs").glob("*.json"))
    config_runs = {c.stem: [] for c in configs}
    with get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for _ in range(REPEATS):
            for config in configs:
                config_runs[config.stem].append(pool.apply(config_run, (config,)))
    committed = {c.stem: c.with_suffix(".results.csv").read_bytes() for c in configs}
    config_doc = reduce_configs(config_runs, committed)
    machine = next(iter(layer_runs.values()))[0][1]["machine"]
    head = {"machine": {k: machine[k] for k in
                        ("cpu_model", "nproc", "python", "numpy", "scipy")},
            "runs": REPEATS}
    for name, doc in (("BENCH_layers.json", {"workloads": layers}),
                      ("BENCH_configs.json", {"configs": config_doc})):
        (ROOT / name).write_text(json.dumps({**head, **doc}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
