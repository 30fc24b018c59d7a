import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import missfit
from missfit.bench import ExperimentConfig
from missfit.cli import LOADERS, main
from missfit.core import MaskedDataset, write_csv


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


# per saved model type, documents whose fields are well typed but do not fit
# together, or hold a string where a number belongs; d = 3, as the data
FIT = {"intercept": 0.0, "coefficients": [1.0, 2.0, 3.0]}
LEAF = {"prediction": 0.0, "n_rows": 1}
SPLIT = {"prediction": 0.0, "n_rows": 2, "feature": 0, "threshold": 0.5,
         "missing_side": "left", "left": LEAF, "right": LEAF}
PART = {"fit": FIT, "n_rows": 2, "split_feature": 0,
        "left": {"fit": FIT, "n_rows": 1}, "right": {"fit": FIT, "n_rows": 1}}
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
         "fit": {**FIT, "coefficients": [1.0]}}],
    "partition_tree": [{"d": 3, "root": {**PART, "split_feature": 3}},
                       {"d": 3, "root": {**PART, "split_feature": -1}},
                       {"d": 3, "root": {**PART, "fit": {**FIT, "coefficients": [1.0]}}},
                       {"d": True, "root": {"fit": {**FIT, "coefficients": [1.0]},
                                            "n_rows": 1}}],
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
         "predictor": {"type": "mia_tree", "d": 3, "root": SPLIT}}],
    "mia_tree": [*({"d": 3, "root": {**SPLIT, **bad}}
                   for bad in ({"missing_side": "up"}, {"threshold": "x"},
                               {"threshold": True}, {"feature": 1.5},
                               {"feature": 7}, {"feature": -1}, {"prediction": "x"})),
                 {"d": 2.5, "root": SPLIT}, {"d": True, "root": LEAF}],
    "mia_forest": [{"d": 3, "params": {}, "trees": [LEAF, {**SPLIT, "feature": 3}]},
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
                assert main(argv) == 2
                assert "malformed model file" in capsys.readouterr().err

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
