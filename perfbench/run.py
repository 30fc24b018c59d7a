"""Run one missfit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload linear_censor --seed 0 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Set-up makes the workload's inputs from ``--seed``; the timed section then
runs back to back, one pass after another, until about ``--seconds`` have
passed (at least one pass). Every pass's outputs are checked. The last line
on standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run makes the same untraced
passes first, then one pass with spans installed, so the tracing overhead is
the traced pass's time minus the untraced median. Every pass runs with the
calibrator of ``calib.py``, which measures the machine's speed during the
pass, so each pass's time is also given at reference speed.

Details (machine, seed, per-pass times, failures, and with tracing the span
log) go to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

# Every workload is single-threaded. numpy's BLAS would otherwise start a
# thread per core, and on a machine with few cores the timings would then
# measure the scheduler. This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calib import Calibrator  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3  # this process plus two fresh ones; setup_s is the median

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("score_mean", "r2"),
)

# Spans recorded per layer; each yields <name>.calls and <name>.self_s.
SPAN_NAMES = (
    "core.validate", "core.subset", "core.unique_patterns",
    "datagen.generate",
    "elasticnet.fit", "elasticnet.predict",
    "adaptive.expand_matrix", "adaptive.fit_adaptive",
    "adaptive.fit_finite_adaptive", "adaptive.predict", "adaptive.from_json",
    "joint.joint_fit", "joint.coordinate_step", "joint.predict", "joint.from_json",
    "learners.fit_cart_mia", "learners.fit_forest", "learners.predict",
    "learners.mean_impute", "learners.from_json",
    "bench.run_replication", "bench.kfold_cv", "bench.fit_method", "bench.score",
    "cli.main",
)
# Work counters: (metric, span name, counter key)
COUNTERS = (
    ("core.patterns", "core.unique_patterns", "patterns"),
    ("elasticnet.sweeps", "elasticnet.fit", "sweeps"),
    ("elasticnet.coord_updates", "elasticnet.fit", "coord_updates"),
    ("elasticnet.nonconverged", "elasticnet.fit", "nonconverged"),
    ("adaptive.expand_cells", "adaptive.expand_matrix", "expand_cells"),
    ("adaptive.finite_leaves", "adaptive.fit_finite_adaptive", "finite_leaves"),
    ("joint.refits", "joint.joint_fit", "refits"),
    ("joint.cycles", "joint.joint_fit", "cycles"),
    ("learners.trees", None, "trees"),
    ("learners.nodes", None, "nodes"),
    ("learners.node_rows", None, "node_rows"),
    ("learners.row_visits", "learners.predict", "row_visits"),
)
CELL_METHODS = ("mean_impute_linear", "affine_intercept", "affine",
                "fully_adaptive", "finite", "joint_linear",
                "cart_mia", "rf_mia", "joint_tree")
FAMILIES = ("linear", "tree")


def per_layer_names():
    """Every per-layer metric with its unit, in print order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(metric, "count") for metric, _span, _key in COUNTERS]
    out += [("joint.step_move_ratio", "ratio"), ("bench.fits_per_cell", "ratio")]
    out += [(f"bench.cell_s.{m}", "s") for m in CELL_METHODS]
    for fam in FAMILIES:
        out += [(f"rows_per_s.{fam}", "1/s"), (f"batch_p50_ms.{fam}", "ms"),
                (f"batch_p99_ms.{fam}", "ms"), (f"batches.{fam}", "count")]
    out += [("wall_s", "s"), ("calib.slowdown", "ratio"),
            ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("linear_censor", "mia_trees", "predict_stream"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--write-refs", action="store_true",
                   help="write this run's outputs as the seed's references")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(args):
    """Import the package and build the workload's inputs."""
    if not (ROOT / "src" / "missfit" / "__init__.py").is_file():
        raise SystemExit(f"error: no missfit package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload.setup(args.seed, workdir)
    if args.write_refs:
        workload.ref = None
    return workload, workdir


def one_pass(workload, tracer=None):
    """One timed section with the calibrator running (see calib.py). Its
    wall_s leaves out the time of the calibration kernels, and ref_s is that
    time at reference machine speed. With a tracer, spans are installed for
    the section, under a "pass" span, and timed on the same clock."""
    cal = Calibrator()
    main = None
    if tracer is not None:
        import missfit.cli
        tracer.clock = cal.clock
        tracer.install()
        main = tracer.wrap("cli.main", missfit.cli.main)
    cal.start()
    try:
        t = cal.clock()
        with tracer.span("pass") if tracer is not None else nullcontext():
            raw = workload.timed(main, cal.clock)
        wall = cal.clock() - t
    finally:
        cal.stop()
        if tracer is not None:
            tracer.uninstall()
    result = workload.judge(*raw)
    result.wall_s = wall
    result.slowdown = cal.slowdown()
    result.ref_s = wall / result.slowdown
    return result


def timed_passes(workload, seconds, problems):
    """Closed loop: passes back to back while the next one is expected to
    end within half a pass of the time budget. Each later pass is compared
    with the first, then its outputs are dropped, so memory does not grow
    with the number of passes."""
    results = [one_pass(workload)]
    elapsed = results[0].wall_s
    while elapsed + 0.5 * results[-1].wall_s <= seconds:
        result = one_pass(workload)
        changed = _changed(results[0].outputs, result.outputs)
        if changed:
            problems.append(f"pass {len(results)} differs from pass 0 at {changed}")
        result.outputs, result.extra = None, {}
        results.append(result)
        elapsed += result.wall_s
    return results


def _changed(first, other):
    return sorted(op for op in set(first) | set(other)
                  if first.get(op) != other.get(op))[:5]


def traced_pass(workload, args, workdir):
    """One pass with spans installed; once it is judged, the set-up runs
    again under its own root span, since set-up is where the inputs
    (datagen) are made."""
    from tracer import Tracer
    tracer = Tracer()
    result = one_pass(workload, tracer)
    tracer.clock = time.perf_counter
    tracer.install()
    try:
        with tracer.span("setup"):
            workload.setup(args.seed, workdir)
    finally:
        tracer.uninstall()
    return result, tracer


def setup_probe(args) -> dict:
    """Set-up times of a fresh process running this script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def stream_metrics(workload, passes):
    """Per-family batch rate and latency over all untraced passes."""
    out = {}
    for fam in FAMILIES:
        lat = []
        if passes[0].latency is not None:
            mask = workload.batch_family == fam
            for p in passes:
                lat += p.latency[mask].tolist()
        out[f"batches.{fam}"] = len(lat)
        out[f"rows_per_s.{fam}"] = len(lat) * workload.BATCH_ROWS / sum(lat) if lat else 0.0
        out[f"batch_p50_ms.{fam}"] = 1e3 * statistics.median(lat) if lat else 0.0
        out[f"batch_p99_ms.{fam}"] = 1e3 * percentile(lat, 99) if lat else 0.0
    return out


def layer_metrics(workload, tracer, passes, traced):
    totals = tracer.subtree_totals({"pass"})
    setup_totals = tracer.subtree_totals({"setup"})
    m = {}
    for name in SPAN_NAMES:
        # Inputs are made in set-up, so datagen is measured there.
        t = (setup_totals if name == "datagen.generate" else totals).get(name, {})
        m[f"{name}.calls"] = t.get("calls", 0)
        m[f"{name}.self_s"] = t.get("self_s", 0.0)
    for metric, span, key in COUNTERS:
        spans = [span] if span else list(totals)
        m[metric] = sum(totals.get(s, {}).get(key, 0) for s in spans)
    steps = m["joint.coordinate_step.calls"]
    m["joint.step_move_ratio"] = (
        totals.get("joint.coordinate_step", {}).get("step_moves", 0) / steps
        if steps else 0.0)
    cells = totals.get("bench.run_replication", {}).get("cells", 0)
    m["bench.fits_per_cell"] = m["bench.fit_method.calls"] / cells if cells else 0.0
    cell_s = passes[0].extra.get("cell_s", {})
    for method in CELL_METHODS:
        m[f"bench.cell_s.{method}"] = cell_s.get(method, 0.0)
    m.update(stream_metrics(workload, passes))
    m["wall_s"] = statistics.median(p.wall_s for p in passes)
    m["calib.slowdown"] = statistics.median(p.slowdown for p in passes)
    m["trace.overhead_s"] = traced.ref_s - statistics.median(p.ref_s for p in passes)
    m["trace.spans"] = len(tracer.spans)
    return m


def machine_info(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Set-up is timed from process start, with the calibrator running from
    # here on; its wall time, less the kernels, is also given at reference
    # speed, like a pass's.
    cal = Calibrator()
    cal.start()
    try:
        workload, workdir = setup(args)
    finally:
        cal.stop()
    wall = cal.clock() - T0
    setup_time = {"setup_wall_s": wall, "setup_s": wall / cal.slowdown()}
    try:
        return run(args, workload, workdir, setup_time)
    finally:
        shutil.rmtree(workdir)


def run(args, workload, workdir, setup_time) -> int:
    if args.setup_only:
        print(json.dumps(setup_time))
        return 0

    problems = []  # check failures that are not single operations
    passes = timed_passes(workload, args.seconds, problems)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)

    detail = {"machine": machine_info(args),
              "passes_wall_s": [p.wall_s for p in passes],
              "passes_ref_s": [p.ref_s for p in passes],
              "passes_slowdown": [p.slowdown for p in passes],
              "scores": passes[0].scores,
              "program_stderr": passes[0].extra.get("stderr", "")}
    if args.trace:
        traced, tracer = traced_pass(workload, args, workdir)
        failures += traced.failures
        attempted += traced.attempted
        changed = _changed(passes[0].outputs, traced.outputs)
        if changed:
            problems.append(f"traced outputs differ at {changed}")
        metrics = layer_metrics(workload, tracer, passes, traced)
        units = dict(per_layer_names())
        detail["traced_wall_s"] = traced.wall_s
        detail["traced_ref_s"] = traced.ref_s
        tracer.write(OUT / f"{args.workload}.seed{args.seed}.spans.jsonl")
    else:
        setups = [setup_time] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        detail["setups_s"] = [t["setup_s"] for t in setups]
        detail["setups_wall_s"] = [t["setup_wall_s"] for t in setups]
        scores = list(passes[0].scores.values())
        metrics = {
            "setup_s": statistics.median(detail["setups_s"]),
            "wall_ref_s": statistics.median(p.ref_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "score_mean": sum(scores) / len(scores) if scores else 0.0,
        }
        units = dict(END_TO_END)

    unknown = [f for f in failures if not f.known]
    correct = not unknown and not problems
    detail.update(failed_ops=[vars(f) for f in failures[:200]],
                  known_failures=sum(f.known for f in failures),
                  problems=problems, metrics=metrics)
    with open(OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if args.write_refs:
        with open(HERE / "refs" / f"{args.workload}.seed{args.seed}.json", "w") as fh:
            json.dump(workload.reference(passes[0]), fh, indent=0)
            fh.write("\n")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    for f in unknown[:20]:
        print(f"failed: {f.op} {f.reasons}", file=sys.stderr)
    machine = detail["machine"]
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"failed={len(failures)}/{attempted} (known {detail['known_failures']}) "
          f"nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
