import hashlib
import itertools
import json

import numpy as np
import pytest

from missfit.datagen import (GeneratorSpec, adversarial_permute,
                             apply_censoring, apply_mcar, censoring_thresholds,
                             gen_design, generate, save_dataset)


class TestSpecs:
    def test_bad_support_size(self):
        with pytest.raises(ValueError):
            GeneratorSpec(d=3, k=4)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            GeneratorSpec(p=1.0)

    @pytest.mark.parametrize("field, message", [
        ({"n": 0}, "n: must be >= 2"), ({"n": 1}, "n: must be >= 2"),
        ({"r": -1}, "r: must be >= 0")], ids=["n=0", "n=1", "r=-1"])
    def test_no_dataset_to_make(self, field, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorSpec(**field)

    def test_bad_setting(self):
        with pytest.raises(ValueError, match="^setting: must be one of "
                           "mar, nmar, am, got 'mnar'$"):
            GeneratorSpec(setting="mnar")

    @pytest.mark.parametrize("field, message", [
        ({"snr": True}, "snr: must be a number, got True"),
        ({"eps": True}, "eps: must be a number, got True"),
        ({"p": "0.3"}, "p: must be a number, got '0.3'"),
        ({"eps": 0.0}, "eps: must be in (0, inf)"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"d_missing": 2.0}, "d_missing: must be an integer or null, got 2.0"),
        ({"d": 3, "k": 4}, "k: must be in [1, 3]"),
        ({"d_missing": 11}, "d_missing: must be in [1, 10]"),
        ({"d_missing": 3}, "k_missing: must be in [0, 3]"),
        ({"d_missing": 8, "k_missing": 2}, "k_missing: must be in [3, 5]")],
        ids=["snr-bool", "eps-bool", "p-str", "eps-0", "seed-negative",
             "d_missing-float", "k-above-d", "d_missing-above-d",
             "k_missing-default-above", "k_missing-below"])
    def test_each_message_names_its_field(self, field, message):
        with pytest.raises(ValueError) as err:
            GeneratorSpec(**field)
        assert str(err.value) == message

    def test_default_draws_keep_their_bytes(self):
        # sha256 of X, M and y recorded before the MAR/NMAR/AM settings
        # joined this generator (numpy 2.4, x86-64); a moved default draw
        # moves every shipped results CSV
        X = "f86bfbc071bf0b98d78b9ae2f108f38d5c660920ab93e71177c938e57b123a33"
        y = "1c027a250c08eac4d0842ee44f565aaed9966d3d6473eb83caa57eacbd132d0a"
        masks = {
            "mcar": "41cc6fe6110d31ba5f9da96823d7d0e67cbb238fe391f0ca84e82ba568912a7c",
            "censoring": "eccd3fee9028585f5bc11224e47579ed8d18ba7645b2cd1230cfc44b139da6ce"}
        for mechanism, M in masks.items():
            ds, _, _ = generate(GeneratorSpec(n=200, d=6, r=3, k=3, p=0.4,
                                              mechanism=mechanism, seed=5))
            assert [hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (ds.X, ds.M, ds.y)] == [X, M, y]


class TestDesign:
    def test_shape_and_determinism(self):
        spec = GeneratorSpec(n=50, d=6, r=3, seed=11)
        X = gen_design(spec)
        assert X.shape == (50, 6)
        assert np.array_equal(X, gen_design(spec))

    def test_covariance_matches_target(self):
        # Monte-Carlo check of the sample covariance against B B^T + eps I
        spec = GeneratorSpec(n=60_000, d=4, r=2, k=2, eps=1e-2, seed=3)
        X = gen_design(spec)
        B = np.random.default_rng(3).normal(size=(4, 2))
        target = B @ B.T + 1e-2 * np.eye(4)
        sample = np.cov(X, rowvar=False)
        assert np.max(np.abs(sample - target)) < 0.15

    def test_seed_changes_design(self):
        a = gen_design(GeneratorSpec(n=20, d=4, r=2, k=2, seed=0))
        b = gen_design(GeneratorSpec(n=20, d=4, r=2, k=2, seed=1))
        assert not np.array_equal(a, b)


class TestSignal:
    def test_snr_calibration(self):
        for signal in ("linear", "nn"):
            spec = GeneratorSpec(n=40_000, d=8, k=4, snr=2.0, signal=signal,
                                 seed=7)
            ds, X, truth = generate(spec)
            y, f = ds.y, truth(X)
            assert np.var(f) == pytest.approx(1.0, abs=1e-8)
            noise_var = np.var(y - f)
            assert 1.8 <= 1.0 / noise_var <= 2.2  # empirical SNR near 2

    def test_support_size_and_range(self):
        _, _, truth = generate(GeneratorSpec(n=100, d=10, k=5, seed=9))
        assert len(truth.support) == 5
        assert len(set(truth.support.tolist())) == 5
        assert truth.support.min() >= 0 and truth.support.max() < 10

    def test_off_support_features_ignored(self):
        _, X, truth = generate(GeneratorSpec(n=200, d=6, k=2, seed=13))
        X2 = X.copy()
        off = [j for j in range(6) if j not in truth.support]
        X2[:, off] = 1e6
        assert np.allclose(truth(X), truth(X2))


class TestMasks:
    def test_mcar_rate(self):
        M = apply_mcar(100_000, 3, 0.3, seed=1)
        assert np.allclose(M.mean(axis=0), 0.3, atol=0.01)

    def test_mcar_deterministic(self):
        assert np.array_equal(apply_mcar(50, 4, 0.5, 2), apply_mcar(50, 4, 0.5, 2))

    def test_censoring_masks_top_fraction(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1000, 4))
        M = apply_censoring(X, 0.25)
        # strictly-above-quantile rule: exactly floor fraction at these sizes
        assert np.allclose(M.mean(axis=0), 0.25, atol=0.01)
        for j in range(4):
            assert X[M[:, j] == 1, j].min() > X[M[:, j] == 0, j].max()

    def test_censoring_with_frozen_thresholds(self):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(500, 2))
        test = rng.normal(size=(200, 2)) + 1.0  # shifted: more censoring
        thr = censoring_thresholds(train, 0.3)
        M = apply_censoring(test, 0.3, thresholds=thr)
        assert M.mean() > 0.4
        assert np.array_equal(M, (test > thr).astype(int))

    def test_generate_end_to_end(self):
        for mech in ("mcar", "censoring"):
            spec = GeneratorSpec(n=300, d=5, k=3, mechanism=mech, p=0.4, seed=5)
            ds, X_full, truth = generate(spec)
            assert ds.n == 300 and ds.d == 5
            assert np.array_equal(ds.X, X_full)
            assert set(np.unique(ds.M)) <= {0, 1}
            assert 0.2 < ds.M.mean() < 0.6


class TestAdversarial:
    def test_matches_factorial_bruteforce(self):
        rng = np.random.default_rng(6)
        n, d = 6, 3
        X = rng.normal(size=(n, d))
        M = (rng.random((n, d)) < 0.5).astype(int)
        sigma, obj = adversarial_permute(X, M)
        scores = X @ M.T.astype(float)
        best = max(sum(scores[i, perm[i]] for i in range(n))
                   for perm in itertools.permutations(range(n)))
        assert obj == pytest.approx(best)
        assert sorted(sigma.tolist()) == list(range(n))

    def test_never_below_identity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(30, 4))
            M = (rng.random((30, 4)) < 0.4).astype(int)
            _, obj = adversarial_permute(X, M)
            identity = float(np.sum(X * M))
            assert obj >= identity - 1e-9

    def test_greedy_fallback_is_valid_permutation(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        M = (rng.random((50, 3)) < 0.4).astype(int)
        sigma, obj = adversarial_permute(X, M, exact_limit=0)  # greedy at any n
        assert sorted(sigma.tolist()) == list(range(50))
        assert obj == float((X @ M.T.astype(float))[np.arange(50), sigma].sum())
        _, exact = adversarial_permute(X, M)
        assert obj <= exact + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adversarial_permute(np.zeros((3, 2)), np.zeros((4, 2)))


class TestSemiSynthetic:
    def instance(self, setting, **over):
        """4 of 8 columns masked (MCAR 0.3); 2 of the 4 support columns
        drawn from them."""
        spec = GeneratorSpec(**{"n": 400, "d": 8, "r": 3, "k": 4,
                                "setting": setting, "d_missing": 4,
                                "k_missing": 2, **over})
        return generate(spec)

    def test_mar_support_column_counts(self):
        _, _, truth = self.instance("mar", seed=1)
        chosen_miss = [j for j in truth.support if j < 4]
        assert len(chosen_miss) == 2
        assert len(truth.support) == 4

    @pytest.mark.parametrize("mechanism", ["mcar", "censoring"])
    def test_mask_covers_first_d_missing_columns(self, mechanism):
        ds, _, _ = self.instance("mar", mechanism=mechanism, seed=6)
        assert ds.M[:, 4:].sum() == 0
        assert ds.M[:, :4].min(axis=0).tolist() == [0] * 4
        assert ds.M[:, :4].max(axis=0).tolist() == [1] * 4

    def test_nmar_depends_on_mask(self):
        ds, X, truth = self.instance("nmar", seed=2)
        flipped = ds.M.copy()
        cols = truth.params["mask_cols"]
        assert set(cols.tolist()) == {j for j in truth.support if j < 4}
        flipped[:, cols] = 1 - flipped[:, cols]
        assert not np.allclose(truth(X, ds.M), truth(X, flipped))

    def test_mar_ignores_mask(self):
        ds, X, truth = self.instance("mar", seed=3)
        assert np.allclose(truth(X, ds.M), truth(X, 1 - ds.M))

    def test_am_permutes_mask_rows_only(self):
        mar, X, _ = self.instance("mar", seed=4)
        am, X_am, _ = self.instance("am", seed=4)
        assert np.array_equal(X, X_am)
        assert np.array_equal(mar.y, am.y)  # signal unchanged; only masks move
        assert sorted(map(tuple, am.M.tolist())) == \
            sorted(map(tuple, mar.M.tolist()))
        assert float(np.sum(X * am.M)) > float(np.sum(X * mar.M))

    def test_k_missing_exceeds_available(self):
        with pytest.raises(ValueError, match="^k_missing: must be in"):
            GeneratorSpec(d=8, k=6, d_missing=4, k_missing=5)

    def test_signal_standardized(self):
        ds, X, truth = self.instance("nmar", n=5000, snr=4.0, seed=5)
        f = truth(X, ds.M)
        assert np.var(f) == pytest.approx(1.0, abs=1e-8)
        assert np.var(ds.y - f) == pytest.approx(0.25, abs=0.05)


def test_save_dataset_sidecar(tmp_path):
    spec = GeneratorSpec(n=40, d=3, k=2, seed=6)
    ds, _, _ = generate(spec)
    csv = tmp_path / "data.csv"
    sidecar = tmp_path / "data.csv.json"
    save_dataset(ds, csv, sidecar, spec)
    doc = json.loads(sidecar.read_text())
    assert doc["n"] == 40 and doc["d"] == 3
    assert doc["spec"]["seed"] == 6
    assert len(doc["missing_fraction"]) == 3
    from missfit.core import read_csv
    back = read_csv(csv, "y")
    assert np.array_equal(back.M, ds.M)
