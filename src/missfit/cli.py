"""Command-line front end: generate datasets, fit models, run benchmarks.

Exit codes: 0 success, 1 runtime failure, 2 usage error. All randomness is
driven by --seed; the MISSFIT_SEED environment variable overrides it.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

import numpy as np

from . import adaptive, bench, datagen, joint, learners
from .core import DatasetError, read_csv, read_json, to_json, unique_patterns

# Saved model type -> the class whose from_dict reads it.
LOADERS = {"adaptive": adaptive.AdaptiveModel,
           "partition_tree": adaptive.PartitionTree,
           "joint": joint.JointModel,
           "mia_tree": learners.MiaTree,
           "mia_forest": learners.Forest}
# The GeneratorSpec fields that `generate` takes as flags.
GENERATE_FLAGS = ("n", "d", "r", "k", "snr", "signal", "mechanism", "p")


class UsageError(Exception):
    pass


def _seed(args) -> int:
    env = os.environ.get("MISSFIT_SEED")
    try:
        seed = int(env) if env is not None else args.seed
    except ValueError:
        raise UsageError(f"MISSFIT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        source = "--seed" if env is None else "MISSFIT_SEED"
        raise UsageError(f"{source} must be >= 0, got {seed}")
    return seed


def _check_out(path) -> None:  # called before any read or fit the command makes
    if not os.path.isdir(out_dir := os.path.dirname(path) or "."):
        raise FileNotFoundError(f"--out {path}: no directory {out_dir}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path}: is a directory")


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def cmd_generate(args) -> int:
    try:
        spec = datagen.GeneratorSpec(
            **{k: getattr(args, k) for k in GENERATE_FLAGS}, seed=_seed(args))
    except ValueError as exc:
        raise UsageError(exc) from exc
    _check_out(args.out)
    dataset, _X_full, _truth = datagen.generate(spec)
    sidecar = args.out + ".json"
    datagen.save_dataset(dataset, args.out, sidecar, spec)
    print(f"wrote {args.out} and {sidecar}")
    print(f"n={dataset.n} d={dataset.d}")
    for j, frac in enumerate(dataset.M.mean(axis=0)):
        print(f"  column x{j+1}: missing fraction {_sig6(float(frac))}")
    return 0


def cmd_fit(args) -> int:
    method = bench.METHODS.get(args.method)
    if method is None or not method.saves:
        valid = [m for m, entry in bench.METHODS.items() if entry.saves]
        raise UsageError(
            f"unknown method {args.method!r}; valid: {', '.join(valid)}")
    params = {k: v for k in method.params  # the flags it reads; unset: spec default
              if (v := getattr(args, k, None)) is not None}
    try:  # the checks a benchmark config gets, before the data is read
        method.build(params)
    except ValueError as exc:
        raise UsageError(exc) from None
    seed = _seed(args)
    _check_out(args.out)
    dataset = read_csv(args.data, args.target)
    model = bench.fit_method(args.method, dataset, params, seed,
                             bench.task_of(dataset.y))
    yhat = model.predict(dataset.X, dataset.M)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))
    mse = float(np.mean((dataset.y - yhat) ** 2))
    print(f"wrote {args.out}")
    print(f"training MSE {_sig6(mse)}  R2 {_sig6(bench.r_squared(dataset.y, yhat))}")
    return 0


def _load_model(path):
    try:  # not UTF-8 or JSON, a name given twice, or a field absent or ill-typed
        with open(path, encoding="utf-8") as fh:
            doc = read_json(fh.read())
        cls = LOADERS.get(doc.get("type")) if isinstance(doc, dict) else None
        if cls is None:
            raise UsageError(f"unrecognized model file {path}")
        return cls.from_dict(doc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            RecursionError) as exc:
        raise UsageError(f"malformed model file {path}: {exc!r}") from exc


def cmd_predict(args) -> int:
    _check_out(args.out)
    model = _load_model(args.model)
    dataset = read_csv(args.data, args.target)
    yhat = model.predict(dataset.X, dataset.M)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("prediction\n")
        for v in yhat:
            fh.write(repr(float(v)) + "\n")
    print(f"wrote {len(yhat)} predictions to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = bench.ExperimentConfig.from_json(fh.read())
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        raise bench.ConfigError(f"$: {args.config} is not UTF-8 text "
                                f"({exc.reason})") from None
    if args.dry_run:
        print(f"experiment {config.name!r}")
        print(f"  replications: {config.replications}, "
              f"test fraction: {config.test_fraction}, "
              f"cv folds: {config.cv_folds}, seed base: {config.seed_base}")
        src = (f"generator {config.generator}" if config.generator is not None
               else f"dataset {config.dataset_csv}")
        print(f"  data: {src}")
        tuned = set()  # as in run_replication: a variant is cross-validated once
        for m in config.methods:
            cv = bench.cv_grids(config, m)
            fits = 1 + sum(bench.cv_fits(v, grid, config.cv_folds)
                           for v, grid in cv.items() if v not in tuned)
            tuned.update(cv)
            print(f"  method {m}, fits per replication: {fits}")
            for v in bench.BEST_VARIANTS.get(m, (m,)):
                print(f"    {v} grid={config.grid(v)}")
        return 0
    _check_out(args.out)
    skip = set()
    prior = bench.ResultsTable([])
    timings = args.out + ".timings.csv"
    if args.resume and os.path.exists(args.out):
        try:  # a header without a column, a field that is no number
            prior = bench.read_results_csv(args.out, timings)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed results file {args.out}: {exc!r}") \
                from None
        skip = {(r.dataset, r.method, r.replication) for r in prior.records}
        print(f"resuming: {len(skip)} completed cells found")
    table = bench.run_experiment(config, jobs=args.jobs, skip=skip)
    table.records.extend(prior.records)
    bench.write_results_csv(table, args.out, timings)
    for msg in table.errors:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"wrote {len(table.records)} records to {args.out}")
    for (method, metric), (mean, se) in sorted(table.summary().items()):
        print(f"  {method:24s} {metric}: {_sig6(mean)} ({_sig6(se)})")
    return 0


def cmd_inspect(args) -> int:
    if args.path.endswith(".json"):
        model = _load_model(args.path)
        print(type(model).__name__)
        for attr in ("mode", "d", "expansion_size", "contract_label", "stop_reason"):
            if hasattr(model, attr):
                print(f"  {attr}: {getattr(model, attr)}")
        return 0
    dataset = read_csv(args.path, args.target)
    print(f"n={dataset.n} d={dataset.d} "
          f"patterns={len(unique_patterns(dataset.M))}")
    for name, frac in zip(dataset.feature_names, dataset.M.mean(axis=0)):
        print(f"  {name}: missing fraction {_sig6(float(frac))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="missfit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    for name in GENERATE_FLAGS:  # name, type and default of a spec field
        default = datagen.GeneratorSpec.__dataclass_fields__[name].default
        g.add_argument(f"--{name}", type=type(default), default=default)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit one model on a CSV dataset")
    f.add_argument("--data", required=True)
    f.add_argument("--target", default="y")
    f.add_argument("--method", required=True)
    f.add_argument("--lam", type=float)
    f.add_argument("--alpha", type=float)
    f.add_argument("--max-depth", type=int, default=4)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="apply a saved model to a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    b = sub.add_parser("bench", help="run a benchmark config")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    b.add_argument("--dry-run", action="store_true")
    b.add_argument("--resume", action="store_true")
    b.set_defaults(func=cmd_bench)

    i = sub.add_parser("inspect", help="summarize a dataset or model file")
    i.add_argument("path")
    i.add_argument("--target", default="y")
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    # stdout escapes what its encoding cannot hold, as stderr does, so that a
    # non-ASCII column name does not fail a command under an ASCII locale
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, bench.ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # an unreadable path, a failed run
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
