import contextlib
import functools
import io
import json
import operator
import os
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import missfit
from missfit.bench import ExperimentConfig
from missfit.cli import LOADERS, UsageError, _load_model, main
from missfit.core import MaskedDataset, read_csv, write_csv
from missfit.datagen import GeneratorSpec, generate


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    M = (rng.random((80, 3)) < 0.3).astype(int)
    y = np.sum((1 - M) * X, axis=1) + 0.1 * rng.normal(size=80)
    path = tmp_path / "data.csv"
    write_csv(MaskedDataset(X, M, y), path)
    return path


def config_doc(**over):
    doc = {"name": "cli", "methods": ["static"],
           "generator": {"n": 100, "d": 3, "k": 2, "r": 2, "p": 0.3},
           "replications": 2, "cv_folds": 3,
           "grids": {"static": [{"lam": 0.01}]}}
    doc.update(over)
    return doc


def test_cli_import_leaves_scipy_optimize_and_stats_unloaded():
    # each is imported where it is used: together they are most of the
    # package's import time
    code = ("import sys, missfit.cli; "
            "print(sorted({'scipy.optimize', 'scipy.stats'} & set(sys.modules)))")
    src = str(Path(missfit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # a C locale without UTF-8 mode makes ASCII the default file encoding;
    # every file missfit writes or reads is UTF-8 whatever the locale
    data, copy = tmp_path / "data.csv", tmp_path / "copy.csv"
    data.write_text("température,x2,y\n1.5,NA,2.0\n-3.0,4.0,5.0\nNA,1.0,0.5\n",
                    encoding="utf-8")
    code = ("import sys; from missfit.core import read_csv, write_csv; "
            "from missfit.cli import main; d, c = sys.argv[1:]; "
            "write_csv(read_csv(d, 'y'), c); "
            "assert main(['fit', '--data', c, '--method', 'static', '--out', c + '.json']) == 0; "
            "assert main(['predict', '--model', c + '.json', '--data', c, '--out', c + '.p']) == 0")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(missfit.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code, str(data), str(copy)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    a, b = read_csv(data, "y"), read_csv(copy, "y")
    assert b.feature_names == ("température", "x2")
    assert a.M.tobytes() == b.M.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert np.where(a.M == 1, 0, a.X).tobytes() == np.where(b.M == 1, 0, b.X).tobytes()
    assert len((tmp_path / "copy.csv.p").read_text(encoding="utf-8").splitlines()) == 4


class TestGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        code = main(["generate", "--n", "50", "--d", "4", "--k", "2",
                     "--r", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        doc = json.loads((tmp_path / "gen.csv.json").read_text())
        assert doc["n"] == 50 and doc["d"] == 4
        text = capsys.readouterr().out
        assert "missing fraction" in text

    def test_bad_p_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--p", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", ["--n 0", "--n 1", "--r -1",
                                       "--d 3 --k 5", "--snr 0"])
    def test_bad_generator_flags_are_usage_errors(self, flags, tmp_path,
                                                  capsys):
        out = tmp_path / "x.csv"
        assert main(["generate", *flags.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--signal", "signal: must be one of linear, nn, got 'bogus'"),
        ("--mechanism", "mechanism: must be one of mcar, censoring, got 'bogus'")])
    def test_unknown_kind_is_refused_by_the_spec(self, flag, message, tmp_path,
                                                 capsys):
        out = tmp_path / "x.csv"
        assert main(["generate", flag, "bogus", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flag_defaults_are_the_specs(self, tmp_path):
        # only the seed is given; every other field is GeneratorSpec's default
        assert main(["generate", "--seed", "3", "--out",
                     str(tmp_path / "x.csv")]) == 0
        doc = json.loads((tmp_path / "x.csv.json").read_text())
        assert doc["spec"] == asdict(GeneratorSpec(seed=3))

    def test_bad_seed_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MISSFIT_SEED", "abc")
        code = main(["generate", "--n", "30", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "MISSFIT_SEED must be an integer, got 'abc'" in \
            capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["generate", "--n", "30", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_negative_seed_env_is_usage_error(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setenv("MISSFIT_SEED", "-3")
        out = tmp_path / "x.csv"
        assert main(["generate", "--n", "30", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: MISSFIT_SEED must be >= 0, got -3\n"
        assert not out.exists()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        args = ["generate", "--n", "30", "--d", "3", "--k", "2", "--r", "2"]
        main(args + ["--seed", "1", "--out", str(a)])
        monkeypatch.setenv("MISSFIT_SEED", "1")
        main(args + ["--seed", "99", "--out", str(b)])
        monkeypatch.delenv("MISSFIT_SEED")
        main(args + ["--seed", "99", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class Overran(Exception):
    pass


@contextlib.contextmanager
def time_bound(seconds: float):
    """Fail the block with Overran once it has run `seconds` of wall time."""
    def overran(signum, frame):
        raise Overran(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# per saved model type, documents whose fields are well typed but do not fit
# together, or hold a string where a number belongs; d = 3, as the data
FIT = {"intercept": 0.0, "coefficients": [1.0, 2.0, 3.0]}
LEAF = {"prediction": 0.0, "n_rows": 1}
SPLIT = {"prediction": 0.0, "n_rows": 2, "feature": 0, "threshold": 0.5,
         "missing_side": "left", "left": LEAF, "right": LEAF}
PART = {"fit": FIT, "n_rows": 2, "split_feature": 0,
        "left": {"fit": FIT, "n_rows": 1}, "right": {"fit": FIT, "n_rows": 1}}
NAN, INF = float("nan"), float("inf")
HUGE = 10 ** 400  # a JSON integer past the float range; float() overflows
INVALID_MODELS = {
    "adaptive": [
        {"mode": "fully_adaptive", "d": 3, "expansion_size": 1,
         "patterns": [{"bits": [0, 1], "fit": FIT}], "fallback": FIT},
        {"mode": "fully_adaptive", "d": 3, "expansion_size": 1,
         "patterns": [{"bits": [0, 1, 2], "fit": FIT}], "fallback": FIT},
        {"mode": "affine_intercept", "d": 3, "expansion_size": 6, "fit": FIT},
        {"mode": "static", "d": 3, "expansion_size": 3,
         "fit": {**FIT, "coefficients": ["x", 2.0, 3.0]}},
        {"mode": "static", "d": 3, "expansion_size": 3, "fit": {**FIT, "intercept": "x"}},
        {"mode": "static", "d": True, "expansion_size": 1,
         "fit": {**FIT, "coefficients": [1.0]}},
        # JSON as Python reads it holds NaN and Infinity
        {"mode": "static", "d": 3, "expansion_size": 3,
         "fit": {**FIT, "coefficients": [NAN, 2.0, 3.0]}},
        {"mode": "static", "d": 3, "expansion_size": 3, "fit": {**FIT, "intercept": INF}},
        # a number is a JSON number: no numeric string, no bool, none past floats
        *({"mode": "static", "d": 3, "expansion_size": 3, "fit": {**FIT, **bad}}
          for bad in ({"intercept": "1.5"}, {"intercept": HUGE},
                      {"coefficients": ["2", 2.0, 3.0]},
                      {"coefficients": [1.0, True, 3.0]},
                      {"coefficients": [1.0, 2.0, -HUGE]})),
        {"mode": "fully_adaptive", "d": 3, "expansion_size": 1,
         "patterns": [{"bits": [True, False, False], "fit": FIT}], "fallback": FIT},
        {"mode": "fully_adaptive", "d": 3, "expansion_size": 1,
         "patterns": [{"bits": [0, 1, 0], "fit": FIT}, {"bits": [0, 1, 0], "fit": FIT}],
         "fallback": FIT},
        # converged is a bool where present
        *({"mode": "static", "d": 3, "expansion_size": 3, "fit": {**FIT, "converged": v}}
          for v in ("no", 1, None)),
        # a d whose design is far larger than the fit: refused without the
        # term table, which would not fit in memory or time
        {"mode": "static", "d": 10 ** 30, "expansion_size": 1,
         "fit": {**FIT, "coefficients": [1.0]}},
        {"mode": "polynomial20", "d": 40, "expansion_size": 40,
         "fit": {**FIT, "coefficients": [1.0] * 40}},
        {"mode": "affine_intercept", "d": HUGE, "expansion_size": 1,
         "fit": {**FIT, "coefficients": [1.0]}}],
    "partition_tree": [{"d": 3, "root": {**PART, "split_feature": 3}},
                       {"d": 3, "root": {**PART, "split_feature": -1}},
                       {"d": 3, "root": {**PART, "fit": {**FIT, "coefficients": [1.0]}}},
                       {"d": True, "root": {"fit": {**FIT, "coefficients": [1.0]},
                                            "n_rows": 1}},
                       {"d": 3, "root": {**PART, "fit": {**FIT, "intercept": NAN}}}],
    "joint": [
        {"contract": "linear", "mu": [0.0, 0.0], "sigma": [1.0, 1.0],
         "predictor": {"type": "linear", **FIT}},
        {"contract": "tree", "mu": [0.0] * 3, "sigma": [1.0] * 3,
         "predictor": {"type": "mia_tree", "d": 4, "root": SPLIT}},
        {"contract": "linear", "mu": ["x", 0.0, 0.0], "sigma": [1.0] * 3,
         "predictor": {"type": "linear", **FIT}},
        # the contract is the predictor's kind
        {"contract": "forest", "mu": [0.0] * 3, "sigma": [1.0] * 3,
         "predictor": {"type": "linear", **FIT}},
        {"contract": "linear", "mu": [0.0] * 3, "sigma": [1.0] * 3,
         "predictor": {"type": "mia_tree", "d": 3, "root": SPLIT}},
        {"contract": "linear", "mu": [NAN, 0.0, 0.0], "sigma": [1.0] * 3,
         "predictor": {"type": "linear", **FIT}},
        {"contract": "linear", "mu": [0.0] * 3, "sigma": [1.0, INF, 1.0],
         "predictor": {"type": "linear", **FIT}},
        *({"contract": "linear", "predictor": {"type": "linear", **FIT}, **bad}
          for bad in ({"mu": ["0.5", 0.0, 0.0], "sigma": [1.0] * 3},
                      {"mu": [0.0] * 3, "sigma": [True, 1.0, 1.0]},
                      {"mu": [HUGE, 0.0, 0.0], "sigma": [1.0] * 3})),
        # stop_reason is a string where present
        *({"contract": "linear", "mu": [0.0] * 3, "sigma": [1.0] * 3,
           "stop_reason": v, "predictor": {"type": "linear", **FIT}}
          for v in ([1, 2], 3, None))],
    "mia_tree": [*({"d": 3, "root": {**SPLIT, **bad}}
                   for bad in ({"missing_side": "up"}, {"threshold": "x"},
                               {"threshold": True}, {"feature": 1.5},
                               {"feature": 7}, {"feature": -1}, {"prediction": "x"},
                               {"threshold": NAN}, {"prediction": NAN},
                               {"right": {**LEAF, "prediction": -INF}},
                               {"prediction": "3.25"}, {"prediction": True},
                               {"right": {**LEAF, "prediction": HUGE}},
                               {"threshold": HUGE}, {"threshold": -HUGE},
                               {"threshold": None, "missing_side": "right"})),
                 {"d": 2.5, "root": SPLIT}, {"d": True, "root": LEAF}],
    "mia_forest": [{"d": 3, "params": {}, "trees": [LEAF, {**SPLIT, "feature": 3}]},
                   {"d": 3, "params": {}, "trees": [LEAF, {**SPLIT, "threshold": NAN}]},
                   {"d": 2.5, "params": {}, "trees": [SPLIT]},
                   {"d": 3, "params": {}, "trees": []}],
}


class TestFitPredict:
    @pytest.mark.parametrize("method", ["static", "affine_intercept", "finite",
                                        "joint_linear", "cart_mia"])
    def test_fit_then_predict(self, dataset_csv, tmp_path, method, capsys):
        model = tmp_path / "model.json"
        code = main(["fit", "--data", str(dataset_csv), "--method", method,
                     "--lam", "0.001", "--out", str(model)])
        assert code == 0
        assert "training MSE" in capsys.readouterr().out
        preds = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(model), "--data",
                     str(dataset_csv), "--out", str(preds)])
        assert code == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 81

    @pytest.mark.parametrize("method", ["rf_mia", "joint_forest", "cart_mia"])
    def test_negative_seed_is_usage_error(self, method, dataset_csv, tmp_path,
                                          capsys):
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(dataset_csv), "--method", method,
                     "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("method, flags, message", [
        ("static", ["--lam", "-1"], "lam: must be in [0, inf)"),
        ("static", ["--alpha", "2"], "alpha: must be in [0, 1]"),
        ("cart_mia", ["--max-depth", "0"], "max_depth: must be >= 1"),
        ("rf_mia", ["--max-depth", "0"], "max_depth: must be >= 1"),
        ("finite", ["--max-depth", "-2"], "max_depth: must be >= 0")])
    def test_flag_out_of_range_is_usage_error(self, method, flags, message,
                                              dataset_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(dataset_csv), "--method", method,
                     *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["static", "finite"])
    def test_lam_and_alpha_default_to_the_benchmarks(self, method, dataset_csv,
                                                     tmp_path):
        # flags that are not given leave their defaults to bench._enet_spec
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fit", "--data", str(dataset_csv), "--method", method]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--lam", "0.01", "--alpha", "0.5",
                            "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("y\n" + "1.0\n" * 12, "has no feature column"),
        ("x1,x2,y\n", "has no data row"),
        # "y,b,y" would read the first column as the target
        ("y,b,y\n" + "1.0,2.0,3.0\n" * 12, "repeats column 'y' in its header")],
        ids=["no-feature", "no-row", "repeated-name"])
    @pytest.mark.parametrize("command", ["fit", "predict", "inspect"])
    def test_csv_without_features_or_rows_is_usage_error(
            self, command, text, message, dataset_csv, tmp_path, capsys):
        data, model = tmp_path / "empty.csv", tmp_path / "m.json"
        data.write_text(text)
        assert main(["fit", "--data", str(dataset_csv), "--method", "cart_mia",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {"fit": ["fit", "--data", str(data), "--method", "cart_mia",
                        "--out", str(out)],
                "predict": ["predict", "--model", str(model), "--data",
                            str(data), "--out", str(out)],
                "inspect": ["inspect", str(data)]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {data} {message}\n"
        assert not out.exists()

    def test_unknown_method(self, dataset_csv, tmp_path, capsys):
        code = main(["fit", "--data", str(dataset_csv), "--method", "magic",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_a_directory_is_a_runtime_error(self, dataset_csv, tmp_path,
                                            capsys):
        out = str(tmp_path / "out.csv")
        for argv in (["predict", "--model", str(tmp_path), "--data",
                      str(dataset_csv), "--out", out],
                     ["inspect", str(tmp_path)],
                     ["bench", "--config", str(tmp_path), "--out", out]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--method", "static", "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_predict_rejects_garbage_model(self, dataset_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for data in (b'{"type": "sundial"}', b"[1]", b"{", b"\xff\xfe"):
            bad.write_bytes(data)
            code = main(["predict", "--model", str(bad), "--data",
                         str(dataset_csv), "--out", str(tmp_path / "p.csv")])
            assert code == 2

    # a field of the wrong type, per saved model type
    ILL_TYPED = {"adaptive": {"mode": 3, "d": 3, "expansion_size": 3},
                 "partition_tree": {"d": 3, "root": []},
                 "joint": {"predictor": "linear"},
                 "mia_tree": {"d": 3, "root": 5},
                 "mia_forest": {"d": 3, "params": {"depth": 2}, "trees": []}}

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_malformed_model_is_usage_error(self, kind, dataset_csv, tmp_path,
                                            capsys):
        bad = tmp_path / "bad.json"
        for doc in ({"type": kind}, {"type": kind, **self.ILL_TYPED[kind]},
                    *({"type": kind, **doc} for doc in INVALID_MODELS[kind])):
            bad.write_text(json.dumps(doc))
            for argv in (["predict", "--model", str(bad), "--data",
                          str(dataset_csv), "--out", str(tmp_path / "p.csv")],
                         ["inspect", str(bad)]):
                with time_bound(2.0):  # a refusal reads the file, nothing more
                    assert main(argv) == 2
                assert "malformed model file" in capsys.readouterr().err

    def test_infinite_threshold_loads(self, dataset_csv, tmp_path, capsys):
        # _best_splits keeps a midpoint that overflowed to +-inf: every
        # observed value is below +inf, so only the missing rows go right
        model, preds = tmp_path / "m.json", tmp_path / "p.csv"
        model.write_text(json.dumps({"type": "mia_tree", "d": 3, "root": {
            **SPLIT, "threshold": INF, "missing_side": "right",
            "right": {**LEAF, "prediction": 1.0}}}))
        assert main(["predict", "--model", str(model), "--data",
                     str(dataset_csv), "--out", str(preds)]) == 0
        missing = read_csv(dataset_csv, "y").M[:, 0] == 1
        assert missing.any() and not missing.all()
        got = np.loadtxt(preds, skiprows=1)
        assert np.array_equal(got, np.where(missing, 1.0, 0.0))

    def test_integer_numbers_load(self, dataset_csv, tmp_path):
        # a JSON integer is a number, as a float is; a bool or a string is none
        def docs(num):
            return [{"type": "adaptive", "mode": "static", "d": 3, "expansion_size": 3,
                     "fit": {"intercept": num(1), "coefficients": [num(2), num(0), num(-1)]}},
                    {"type": "mia_tree", "d": 3, "root": {
                        **SPLIT, "threshold": num(0), "right": {**LEAF, "prediction": num(4)}}}]

        model, preds = tmp_path / "m.json", tmp_path / "p.csv"
        for pair in zip(docs(int), docs(float)):
            out = []
            for doc in pair:
                model.write_text(json.dumps(doc))
                assert main(["predict", "--model", str(model), "--data",
                             str(dataset_csv), "--out", str(preds)]) == 0
                out.append(preds.read_bytes())
            assert out[0] == out[1]

    def test_converged_and_stop_reason_may_be_absent(self):
        # the joint's linear predictor document has no converged flag
        static = {"mode": "static", "d": 3, "expansion_size": 3, "fit": FIT}
        assert LOADERS["adaptive"].from_dict(static).fit.converged is True
        static["fit"] = {**FIT, "converged": False}
        assert LOADERS["adaptive"].from_dict(static).fit.converged is False
        joint = {"contract": "linear", "mu": [0.0] * 3, "sigma": [1.0] * 3,
                 "predictor": {"type": "linear", **FIT}}
        assert LOADERS["joint"].from_dict(joint).stop_reason == ""
        joint["stop_reason"] = "max_cycles"
        assert LOADERS["joint"].from_dict(joint).stop_reason == "max_cycles"

    # n_rows as a string on the root, or below 1 on a child
    BAD_N_ROWS = {
        "mia_tree": [{"d": 3, "root": {**SPLIT, "n_rows": "lots"}},
                     {"d": 3, "root": {**SPLIT, "right": {**LEAF, "n_rows": -5}}}],
        "mia_forest": [{"d": 3, "params": {}, "trees": [{**LEAF, "n_rows": "lots"}]},
                       {"d": 3, "params": {}, "trees": [
                           LEAF, {**SPLIT, "left": {**LEAF, "n_rows": 0}}]}],
        "partition_tree": [{"d": 3, "root": {**PART, "n_rows": "lots"}},
                           {"d": 3, "root": {**PART, "right": {"fit": FIT, "n_rows": -5}}}],
        "joint": [{"contract": "tree", "mu": [0.0] * 3, "sigma": [1.0] * 3,
                   "predictor": {"type": "mia_tree", "d": 3,
                                 "root": {**SPLIT, "left": {**LEAF, "n_rows": -5}}}}],
    }

    @pytest.mark.parametrize("kind", sorted(BAD_N_ROWS))
    def test_n_rows_is_checked(self, kind, dataset_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for doc in self.BAD_N_ROWS[kind]:
            bad.write_text(json.dumps({"type": kind, **doc}))
            for argv in (["predict", "--model", str(bad), "--data",
                          str(dataset_csv), "--out", str(tmp_path / "p.csv")],
                         ["inspect", str(bad)]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert "malformed model file" in err and "n_rows: must be" in err

    def test_model_nested_too_deeply_is_usage_error(self, dataset_csv,
                                                    tmp_path, capsys):
        # past the recursion limit: json.dumps cannot write it, so spell it
        split = json.dumps({k: v for k, v in SPLIT.items() if k != "left"})
        root = (split[:-1] + ', "left": ') * 1200 + json.dumps(LEAF) + "}" * 1200
        bad = tmp_path / "deep.json"
        bad.write_text(f'{{"type": "mia_tree", "d": 3, "root": {root}}}')
        for argv in (["predict", "--model", str(bad), "--data",
                      str(dataset_csv), "--out", str(tmp_path / "p.csv")],
                     ["inspect", str(bad)]):
            assert main(argv) == 2
            assert "malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["polynomial0", "polynomial", "polynomial1x",
                                      "Affine", 3, None], ids=repr)
    def test_unknown_mode_is_usage_error(self, mode, dataset_csv, tmp_path,
                                         capsys):
        model = tmp_path / "model.json"
        main(["fit", "--data", str(dataset_csv), "--method", "affine",
              "--out", str(model)])
        model.write_text(json.dumps({**json.loads(model.read_text()), "mode": mode}))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data",
                     str(dataset_csv), "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert "malformed model file" in err and "unknown expansion mode" in err


    @pytest.mark.parametrize("method", ["static", "finite", "cart_mia", "joint_linear"])
    def test_a_repeated_name_is_usage_error(self, method, dataset_csv, tmp_path,
                                            capsys):
        # json keeps a repeated name's last value; a model file refuses it,
        # at the top level and nested, even where the two values agree
        model = tmp_path / "model.json"
        main(["fit", "--data", str(dataset_csv), "--method", method,
              "--out", str(model)])
        lines = model.read_text().splitlines()
        nested = next(i for i, line in enumerate(lines)
                      if line.startswith("  \"") and line.endswith(","))
        argv = ["predict", "--model", str(model), "--data", str(dataset_csv),
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        for i in (1, nested):
            model.write_text("\n".join(lines[:i + 1] + lines[i:]))
            key = lines[i].split('"')[1]
            capsys.readouterr()
            for args in (argv, ["inspect", str(model)]):
                assert main(args) == 2
                assert capsys.readouterr().err.endswith(
                    f"ValueError(\"repeated key '{key}'\")\n")

SAVED = sorted(m for m, entry in missfit.bench.METHODS.items() if entry.saves)
DELETE = object()  # the mutant that deletes the value
MUTANTS = ("x", True, None, [], {}, 0, -1, 1, 2, 7, HUGE, DELETE)


def mutation_data() -> MaskedDataset:
    return generate(GeneratorSpec(n=80, d=3, k=2, r=2, p=0.3, seed=0))[0]


@functools.lru_cache(maxsize=None)
def saved_document(method: str) -> str:
    """The JSON text that `missfit fit` saves for `method` on mutation_data,
    at its first default grid point, with 3 trees in a forest."""
    params = {**missfit.bench.METHODS[method].grid[0]}
    if "n_trees" in params:
        params["n_trees"] = 3
    model = missfit.bench.fit_method(method, mutation_data(), params, 0, "regression")
    return json.dumps(model.to_dict())


def value_paths(doc, path=()):
    """The path (keys and indices) of every value below doc, parents first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from value_paths(value, path + (key,))


def mutations():
    """(method, path, mutant): one value of a saved document to replace."""
    def of(method):
        paths = list(value_paths(json.loads(saved_document(method))))
        return st.tuples(st.just(method), st.sampled_from(paths),
                         st.sampled_from(MUTANTS))

    return st.sampled_from(SAVED).flatmap(of)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


# A saved document with one value replaced or deleted is refused as a usage
# error, or loads and predicts finite values on a batch of the data's width
# (masked slots NaN), or refuses that batch's width; fast, whatever d says.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=mutations())
@example(mutation=("static", ("d",), HUGE))
@example(mutation=("affine_intercept", ("d",), HUGE))
def test_a_mutated_model_file_is_refused_or_predicts(mutation, model_dir):
    method, path, mutant = mutation
    doc = json.loads(saved_document(method))
    *parents, last = path
    owner = functools.reduce(operator.getitem, parents, doc)
    if mutant is DELETE:
        del owner[last]
    else:
        owner[last] = mutant
    file = model_dir / "mutant.json"
    file.write_text(json.dumps(doc))
    data = mutation_data().subset(np.arange(12))
    X = np.where(data.M == 1, np.nan, data.X)
    with time_bound(2.0):
        try:
            model = _load_model(str(file))
        except UsageError as exc:
            assert "model file" in str(exc)
            return
        try:
            yhat = model.predict(X, data.M)
        except ValueError as exc:  # core.batch: a d that is not the data's
            assert str(exc).startswith("expected d=")
            return
    assert yhat.shape == (12,) and np.isfinite(yhat).all()


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_loads_and_dry_runs(path, tmp_path):
    # a bad key in a shipped config fails here, not in the acceptance run
    ExperimentConfig.from_json(path.read_text(encoding="utf-8"))
    out = tmp_path / "out.csv"
    assert main(["bench", "--config", str(path), "--out", str(out),
                 "--dry-run"]) == 0
    assert not out.exists()


class TestBench:
    def test_dry_run_lists_plan(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        code = main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "out.csv"), "--dry-run"])
        assert code == 0
        text = capsys.readouterr().out
        assert "method static" in text
        assert not (tmp_path / "out.csv").exists()

    def test_dry_run_lists_grids_and_the_fits_a_replication_makes(
            self, tmp_path, capsys, monkeypatch):
        doc = config_doc(
            methods=["rf_mia", "cart_mia", "static", "adaptive_best"],
            grids={"rf_mia": [{"max_depth": 6, "n_trees": 8}],
                   "cart_mia": [{"max_depth": 2}, {"max_depth": 4},
                                {"max_depth": 4, "min_leaf": 9}]})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "out.csv"), "--dry-run"]) == 0
        text = capsys.readouterr().out
        # 3 folds; cart_mia's depths 2 and 4 share a fit, its min_leaf 9
        # point fits alone; adaptive_best reuses static's cross-validation
        assert ("  method rf_mia, fits per replication: 1\n"
                "    rf_mia grid=[{'max_depth': 6, 'n_trees': 8}]\n"
                "  method cart_mia, fits per replication: 7\n"
                "    cart_mia grid=[{'max_depth': 2}, {'max_depth': 4}, "
                "{'max_depth': 4, 'min_leaf': 9}]\n"
                "  method static, fits per replication: 10\n"
                "    static grid=[{'lam': 0.1}, {'lam': 0.01}, {'lam': 0.001}]\n"
                "  method adaptive_best, fits per replication: 22\n"
                "    static grid=[{'lam': 0.1}, {'lam': 0.01}, {'lam': 0.001}]\n"
                "    affine_intercept grid=") in text
        calls = []  # the fits one replication makes, as the plan counts them
        fit = missfit.bench.fit_method
        monkeypatch.setattr(missfit.bench, "fit_method",
                            lambda *a, **k: calls.append(a) or fit(*a, **k))
        _, errors = missfit.bench.run_replication(ExperimentConfig(**doc), 0)
        assert errors == [] and len(calls) == 1 + 7 + 10 + 22

    def test_dry_run_fits_a_mean_impute_tree_grid_once_per_fold(self, tmp_path,
                                                                 capsys):
        # depths 3, 5 and 7 nest: 5 folds of the depth-7 fit, then the refit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc(methods=["mean_impute_tree"],
                                             cv_folds=5, grids={})))
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "out.csv"), "--dry-run"]) == 0
        assert ("  method mean_impute_tree, fits per replication: 6\n"
                "    mean_impute_tree grid=[{'max_depth': 3}, {'max_depth': 5}, "
                "{'max_depth': 7}]\n") in capsys.readouterr().out

    def test_dry_run_names_an_all_default_generator(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc(generator={})))
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "out.csv"), "--dry-run"]) == 0
        assert "\n  data: generator {}\n" in capsys.readouterr().out

    def test_out_in_missing_directory_fails_before_any_fit(self, tmp_path,
                                                           monkeypatch, capsys):
        def run_experiment(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(missfit.bench, "run_experiment", run_experiment)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        out = tmp_path / "missing" / "r.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"--out {out}: no directory {out.parent}" in err
        assert not out.parent.exists()

    def test_out_that_is_a_directory_fails_before_any_fit(self, tmp_path,
                                                          monkeypatch, capsys):
        def run_experiment(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(missfit.bench, "run_experiment", run_experiment)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        out = tmp_path / "outdir"
        out.mkdir()
        for resume in ([], ["--resume"]):
            assert main(["bench", "--config", str(cfg), "--out", str(out),
                         "--jobs", "1", *resume]) == 1
            assert capsys.readouterr().err == \
                f"error: --out {out}: is a directory\n"

    def test_config_nested_too_deeply_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        grids = '{"static": ' + "[" * 3000 + "]" * 3000 + "}"
        cfg.write_text(json.dumps(config_doc(grids="G")).replace('"G"', grids))
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "out.csv"), "--dry-run"]) == 2
        assert capsys.readouterr().err == \
            "error: $: invalid JSON (nested too deeply)\n"

    @pytest.mark.parametrize("text, key", [
        ('"methods": ["static"], "methods": ["affine"]', "methods"),
        ('"generator": {"n": 60, "d": 3, "n": 80}', "n"),
        ('"grids": {"static": [{"lam": 0.1, "lam": 0.1}]}', "lam"),
        ('"replications": 1, "replications": 1', "replications")])
    def test_a_repeated_name_is_usage_error(self, text, key, tmp_path, capsys):
        # json keeps a repeated name's last value, so the run and its
        # dry-run plan would read a config other than the one written
        doc = json.dumps({k: v for k, v in config_doc().items()
                          if k not in text}).rstrip("}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f"{doc}, {text}}}")
        for dry in (["--dry-run"], []):
            assert main(["bench", "--config", str(cfg), "--out",
                         str(tmp_path / "out.csv"), *dry]) == 2
            assert capsys.readouterr().err == f"error: $: repeated key {key!r}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_full_run_writes_results(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        out = tmp_path / "out.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dataset,method,setting,replication,metric,value"
        assert len(lines) == 3  # 1 method x 2 replications
        assert (tmp_path / "out.csv.timings.csv").exists()

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc(methods=["bogus"])))
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "$.methods[0]" in capsys.readouterr().err

    def test_oracle_with_csv_is_usage_error(self, dataset_csv, tmp_path,
                                            capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "csv", "methods": ["oracle"],
                                   "dataset_csv": str(dataset_csv)}))
        out = tmp_path / "o.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "$.methods[0]: oracle" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("over, path", [
        ({"generator": {"n": 50.5, "d": 3, "k": 2}},
         "$.generator.n: must be an integer, got 50.5"),
        ({"generator": {"n": 50, "d": 3, "k": True}},
         "$.generator.k: must be an integer, got True"),
        ({"generator": {"n": 50, "d": 3, "k": 2, "snr": True}},
         "$.generator.snr: must be a number, got True"),
        ({"replications": 2.5}, "$.replications: must be an integer"),
        ({"cv_folds": "5"}, "$.cv_folds: must be an integer"),
        ({"test_fraction": "0.3"}, "$.test_fraction: must be a number"),
        ({"methods": "static"}, "$.methods: must be a list of strings"),
        ({"methods": [1]}, "$.methods[0]: must be a string"),
        ({"grids": []}, "$.grids: must be an object of lists of objects"),
        ({"grids": {"static": []}}, "$.grids.static: must be a non-empty"),
        ({"grids": {"static": [0.01]}}, "$.grids.static: must be a non-empty")],
        ids=["n-float", "k-bool", "snr-bool", "replications-float", "cv_folds-str",
             "test_fraction-str", "methods-str", "method-int", "grids-list",
             "grid-empty", "grid-of-numbers"])
    def test_ill_typed_field_is_usage_error(self, over, path, tmp_path,
                                            capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc(**over)))
        out = tmp_path / "o.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("over, message", [
        ({"seed_base": -5}, "$.seed_base: must be >= 0"),
        ({"methods": ["static", "static"]},
         "$.methods[1]: duplicate method 'static'"),
        ({"grids": {"bogus": [{"lam": 0.1}]}}, "$.grids.bogus: unknown method"),
        ({"grids": {"adaptive_best": [{"lam": 0.1}]}},
         "$.grids.adaptive_best: unknown method"),
        ({"grids": {"static": [{"lamda": 5.0}, {"lamda": 1e-4}]}},
         "$.grids.static[0]: unknown parameter 'lamda'"),
        ({"grids": {"static": [{"lam": 0.1}, {"max_depth": 3}]}},
         "$.grids.static[1]: unknown parameter 'max_depth'"),
        ({"grids": {"static": [{"lam": "0.1"}]}},
         "$.grids.static[0].lam: must be a number, got '0.1'"),
        ({"grids": {"static": [{"alpha": True}]}},
         "$.grids.static[0].alpha: must be a number, got True"),
        ({"grids": {"finite": [{"max_depth": 2.0}]}},
         "$.grids.finite[0].max_depth: must be an integer, got 2.0"),
        ({"grids": {"cart_mia": [{"min_leaf": False}]}},
         "$.grids.cart_mia[0].min_leaf: must be an integer, got False"),
        ({"grids": {"rf_mia": [{"n_trees": None}]}},
         "$.grids.rf_mia[0].n_trees: must be an integer, got None"),
        ({"grids": {"rf_mia": [{"mtry": 0.5}]}},
         "$.grids.rf_mia[0].mtry: must be an integer or null, got 0.5"),
        ({"grids": {"static": [{"lam": -1.0}]}},
         "$.grids.static[0].lam: must be in [0, inf)"),
        ({"grids": {"static": [{"alpha": 2}]}},
         "$.grids.static[0].alpha: must be in [0, 1]"),
        ({"grids": {"cart_mia": [{"max_depth": 0}]}},
         "$.grids.cart_mia[0].max_depth: must be >= 1"),
        ({"grids": {"rf_mia": [{"n_trees": 0}]}},
         "$.grids.rf_mia[0].n_trees: must be >= 1"),
        ({"grids": {"rf_mia": [{"mtry": 0}]}},
         "$.grids.rf_mia[0].mtry: must be >= 1"),
        ({"grids": {"joint_tree": [{"min_leaf": 0}]}},
         "$.grids.joint_tree[0].min_leaf: must be >= 1"),
        ({"grids": {"finite": [{"max_depth": -1}]}},
         "$.grids.finite[0].max_depth: must be >= 0"),
        ({"grids": {"finite": [{"max_depth": 2, "min_leaf": 0}]}},
         "$.grids.finite[0].min_leaf: must be >= 1"),
        ({"grids": {"cart_mia": [{"n_trees": 10}]}},
         "$.grids.cart_mia[0]: unknown parameter 'n_trees'"),
        ({"grids": {"joint_tree": [{"max_depth": 3, "mtry": 2}]}},
         "$.grids.joint_tree[0]: unknown parameter 'mtry'"),
        ({"grids": {"mean_impute_tree": [{"n_trees": 5}]}},
         "$.grids.mean_impute_tree[0]: unknown parameter 'n_trees'"),
        ({"generator": {"n": 100, "d": 3, "k": 2, "seed": 123}},
         "$.generator.seed: set per replication from seed_base"),
        ({"generator": {"n": 100, "d": 3, "k": 2, "rank": 2}},
         "$.generator.rank: unknown field"),
        ({"generator": {"n": 100, "d": 3, "k": 2, "setting": "mnar"}},
         "$.generator.setting: must be one of mar, nmar, am, got 'mnar'"),
        ({"generator": {"n": 100, "d": 3, "k": 2, "d_missing": 2,
                        "k_missing": 0}},
         "$.generator.k_missing: must be in [1, 2]")],
        ids=["seed_base-negative", "methods-duplicate", "grids-bogus",
             "grids-variant", "grid-key-typo", "grid-key-of-another-method",
             "lam-str", "alpha-bool", "max_depth-float", "min_leaf-bool",
             "n_trees-null", "mtry-float", "lam-negative", "alpha-above-1",
             "cart-max_depth-0", "n_trees-0", "mtry-0", "joint-min_leaf-0",
             "finite-max_depth-negative", "finite-min_leaf-0",
             "cart-n_trees", "joint_tree-mtry", "mean_impute_tree-n_trees",
             "generator-seed", "generator-unknown-key", "generator-setting",
             "generator-support-block"])
    def test_unusable_method_or_grid_is_usage_error(self, over, message,
                                                    tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc(**over)))
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--jobs", jobs]) == 2
        assert capsys.readouterr().err == \
            f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_each_failed_cell_is_one_warning(self, tmp_path):
        # min_leaf 1000 passes the config and fails each cart_mia fit. A
        # fresh interpreter: pytest would capture what logging printed.
        cfg = tmp_path / "cfg.json"
        grids = {"static": [{"lam": 0.01}], "cart_mia": [{"min_leaf": 1000}]}
        cfg.write_text(json.dumps(config_doc(methods=["static", "cart_mia"],
                                             grids=grids)))
        src = str(Path(missfit.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "missfit.cli", "bench", "--config", str(cfg),
             "--out", str(tmp_path / "o.csv"), "--jobs", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0
        lines = run.stderr.splitlines()
        assert [line.split(":")[0] for line in lines] == ["warning"] * 2
        assert "cli/cart_mia/rep0" in lines[0]
        assert "cli/cart_mia/rep1" in lines[1]

    def test_empty_test_split_fails_at_once(self, tmp_path, capsys):
        # 4 rows at test_fraction 0.1 round to a test split of 0 rows: the
        # run stops with one error, not one warning per cell
        cfg = tmp_path / "cfg.json"
        gen = {"n": 4, "d": 3, "k": 2, "r": 2, "p": 0.3}
        cfg.write_text(json.dumps(config_doc(generator=gen, test_fraction=0.1)))
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 2
        assert capsys.readouterr().err == "error: dataset has no rows\n"
        assert not out.exists()

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"name": "x"}')
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"error: $: {cfg} is not UTF-8 text" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["bench", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_resume_reproduces_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc(methods=["static", "cart_mia"],
                                             grids={"static": [{"lam": 0.01}],
                                                    "cart_mia": [{"max_depth": 3}]})))
        full = tmp_path / "full.csv"
        main(["bench", "--config", str(cfg), "--out", str(full), "--jobs", "1"])
        reference = full.read_bytes()
        # drop the cart_mia rows and resume
        partial = tmp_path / "partial.csv"
        lines = full.read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if ",cart_mia," not in l]
        partial.write_text("\n".join(kept) + "\n")
        full_timings = (tmp_path / "full.csv.timings.csv").read_text().splitlines()
        kept_timings = [l for l in full_timings if ",cart_mia," not in l]
        (tmp_path / "partial.csv.timings.csv").write_text("\n".join(kept_timings) + "\n")
        code = main(["bench", "--config", str(cfg), "--out", str(partial),
                     "--resume", "--jobs", "1"])
        assert code == 0
        assert "resuming" in capsys.readouterr().out
        assert partial.read_bytes() == reference
        # the kept cells keep their timings; the recomputed ones are added
        resumed = (tmp_path / "partial.csv.timings.csv").read_text().splitlines()
        assert [l for l in resumed if ",cart_mia," not in l] == kept_timings
        assert len(resumed) == len(full_timings)

    @pytest.mark.parametrize("data", [
        b"dataset,method,setting,metric,value\ncli,static,s,r2,0.5\n",
        b"dataset,method,setting,replication,metric,value\n"
        b"cli,static,s,one,r2,0.5\n",
        b"dataset,method,setting,replication,metric,value\ncli,static\n",
        b"dataset,method,setting,replication,metric,value\n"
        b"cli,static,\xff,0,r2,0.5\n"],
        ids=["no-replication-column", "replication-not-int", "short-row",
             "not-utf8"])
    def test_resume_from_malformed_results_is_usage_error(self, data,
                                                          tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        out = tmp_path / "out.csv"
        out.write_bytes(data)
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--resume", "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed results file {out}: ")
        assert err.count("\n") == 1
        assert out.read_bytes() == data
        assert not (tmp_path / "out.csv.timings.csv").exists()

    def test_parallel_matches_serial_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_doc()))
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["bench", "--config", str(cfg), "--out", str(serial), "--jobs", "1"])
        main(["bench", "--config", str(cfg), "--out", str(parallel), "--jobs", "2"])
        assert serial.read_bytes() == parallel.read_bytes()


class TestInspect:
    def test_dataset_summary(self, dataset_csv, capsys):
        code = main(["inspect", str(dataset_csv)])
        assert code == 0
        text = capsys.readouterr().out
        assert "n=80 d=3" in text
        assert "missing fraction" in text

    @pytest.mark.parametrize("encoding, name", [("ascii", b"temp\\xe9rature"),
                                                ("utf-8", "température".encode())])
    def test_a_name_stdout_cannot_encode_is_escaped(self, tmp_path, monkeypatch,
                                                    encoding, name):
        # stdout's encoding follows the locale, and an ASCII one cannot hold
        # the name: it is escaped, as stderr does, and the command succeeds
        data = tmp_path / "data.csv"
        data.write_text("température,y\n1.0,2.0\nNA,3.0\n", encoding="utf-8")
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding=encoding))
        assert main(["inspect", str(data)]) == 0
        sys.stdout.flush()
        assert raw.getvalue() == (b"n=2 d=1 patterns=2\n  " + name
                                  + b": missing fraction 0.5\n")

    def test_model_summary(self, dataset_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--data", str(dataset_csv), "--method", "static",
              "--out", str(model)])
        capsys.readouterr()
        code = main(["inspect", str(model)])
        assert code == 0
        assert "AdaptiveModel" in capsys.readouterr().out

    def test_joint_predictor_of_another_type_is_named(self, dataset_csv,
                                                      tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--data", str(dataset_csv), "--method", "static",
              "--out", str(model)])
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(
            {"type": "joint", "contract": "linear", "mu": [0.0] * 3,
             "sigma": [1.0] * 3, "predictor": json.loads(model.read_text())}))
        capsys.readouterr()
        assert main(["inspect", str(joint)]) == 2
        err = capsys.readouterr().err
        assert "malformed model file" in err
        assert "predictor type 'adaptive'" in err

    @pytest.mark.parametrize("method, mode", [
        ("static", "static"), ("affine", "affine"),
        ("polynomial2", "polynomial2"), ("fully_adaptive", "fully_adaptive")])
    def test_adaptive_model_prints_its_mode_name(self, method, mode,
                                                 dataset_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--data", str(dataset_csv), "--method", method,
              "--out", str(model)])
        capsys.readouterr()
        assert main(["inspect", str(model)]) == 0
        assert f"\n  mode: {mode}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("", "no header row"),
        ("x1,y\n1.0,2.0\n1.0\n", "row 1 has 1 fields, the header 2"),
        ("x1,y\n1.0,2.0,3.0\n", "row 0 has 3 fields, the header 2")])
    def test_malformed_csv_is_usage_error(self, text, message, tmp_path,
                                          capsys):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert main(["inspect", str(data)]) == 2
        assert message in capsys.readouterr().err

    def test_dataset_not_utf8_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x1,y\n\xff,1\n")
        assert main(["inspect", str(data)]) == 2
        assert f"error: {data} is not UTF-8 text" in capsys.readouterr().err

    def test_non_numeric_field_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n1.0,abc,3.0\n")
        assert main(["inspect", str(data)]) == 2
        assert "row 0 column 'x2': 'abc' is not a number" in \
            capsys.readouterr().err
