import re
from types import SimpleNamespace

import numpy as np
import pytest

from missfit.core import (DatasetError, MaskedDataset, binary_mask, check_finite,
                          read_csv, unique_patterns, validate, write_csv)
from oracles import masked_dot


def make_dataset(seed=0, n=30, d=4, p_miss=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    M = (rng.random((n, d)) < p_miss).astype(int)
    y = rng.normal(size=n)
    return MaskedDataset(X, M, y)


class TestCheckFinite:
    # what Python's json reads from a model file where a number belongs
    @pytest.mark.parametrize("value", [0, -7, 0.5, 10 ** 308, 1.7976931348623157e308,
                                       -1.7976931348623157e308], ids=repr)
    def test_numbers_within_the_float_range_pass(self, value):
        check_finite("x", value)
        check_finite("x", 1.0, value, 2)

    @pytest.mark.parametrize("value", [True, False, "1.5", None, [1.0], {},
                                       float("nan"), float("inf"), -float("inf"),
                                       2 ** 1024, -(10 ** 400)], ids=repr)
    def test_other_values_are_refused(self, value):
        with pytest.raises(ValueError, match="^x: must be a finite number$"):
            check_finite("x", 1.0, value)


class TestMaskedDot:
    def test_no_missingness_is_plain_dot(self):
        assert masked_dot([1, 2], [3, 4], [0, 0]) == 11

    def test_all_missing_is_zero(self):
        assert masked_dot([1, 2], [3, 4], [1, 1]) == 0

    def test_partial(self):
        # hand evaluation: 1*5 + 0 + (-1)*2
        assert masked_dot([1, 2, -1], [5, 7, 2], [0, 1, 0]) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DatasetError):
            masked_dot([1, 2], [3, 4, 5], [0, 0, 0])


class TestValidate:
    def test_well_formed(self):
        ds = MaskedDataset(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))
        validate(ds)

    def test_non_binary_mask_names_cell(self):
        M = np.zeros((3, 2))
        M[1, 0] = 2
        with pytest.raises(DatasetError, match=r"M\[1\]\[0\]"):
            ds = MaskedDataset(np.zeros((3, 2)), M, np.zeros(3))
            validate(ds)

    def test_nan_at_observed_position_rejected(self):
        X = np.zeros((3, 2))
        X[0, 1] = np.nan
        with pytest.raises(DatasetError, match=r"X\[0\]\[1\]"):
            ds = MaskedDataset(X, np.zeros((3, 2)), np.zeros(3))
            validate(ds)

    def test_nan_at_missing_position_ok(self):
        X = np.zeros((3, 2))
        X[0, 1] = np.nan
        M = np.zeros((3, 2))
        M[0, 1] = 1
        validate(MaskedDataset(X, M, np.zeros(3)))

    def test_no_rows(self):
        with pytest.raises(DatasetError, match="^dataset has no rows$"):
            MaskedDataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    def test_subset_of_no_rows(self):
        # as a test split that rounds to 0 rows asks for
        with pytest.raises(DatasetError, match="^dataset has no rows$"):
            make_dataset().subset(np.arange(0))

    @pytest.mark.parametrize("rows", [[], (), np.array([]),
                                      np.array([], dtype=bool)])
    def test_subset_of_an_empty_index(self, rows):
        # np.asarray([]) is a float array, which numpy refuses as an index
        with pytest.raises(DatasetError, match="^dataset has no rows$"):
            make_dataset().subset(rows)

    @pytest.mark.parametrize("rows", [[2, 0], np.array([2, 0], dtype=np.int8),
                                      np.arange(30) % 7 == 0])
    def test_subset_by_integer_or_boolean_index(self, rows):
        ds = make_dataset()
        idx = np.flatnonzero(rows) if np.asarray(rows).dtype == bool else rows
        sub = ds.subset(rows)
        assert np.array_equal(sub.X, ds.X[idx]) and np.array_equal(sub.M, ds.M[idx])
        assert np.array_equal(sub.y, ds.y[idx])

    def test_one_dimensional_mask(self):
        # refused before binary_mask, which would read it as one row
        with pytest.raises(DatasetError, match="^X and M must be 2-dimensional$"):
            MaskedDataset(np.zeros((1, 2)), np.zeros(2), np.zeros(1))

    def test_row_count_mismatch(self):
        with pytest.raises(DatasetError):
            validate(MaskedDataset(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(4)))


class TestConstruction:
    @pytest.mark.parametrize("X, M, message", [
        (np.array([[0.0, np.nan]]), np.zeros((1, 2), dtype=np.int8),
         r"^non-finite observed value at X\[0\]\[1\]$"),
        (np.zeros((1, 2)), np.array([[0, 2]], dtype=np.int8),
         r"^M\[0\]\[1\] is not binary$")])
    def test_constructor_raises_what_validate_says(self, X, M, message):
        # a dataset that exists is valid: the constructor runs validate
        unbuilt = SimpleNamespace(X=X, M=M, y=np.zeros(1), feature_names=None)
        with pytest.raises(DatasetError, match=message):
            validate(unbuilt)
        with pytest.raises(DatasetError, match=message):
            MaskedDataset(X, M, np.zeros(1))


    def test_callers_arrays_stay_writable_and_apart(self):
        X, M, y = np.zeros((3, 2)), np.zeros((3, 2), dtype=np.int8), np.zeros(3)
        ds = MaskedDataset(X, M, y)
        X[0, 0], M[1, 1], y[2] = np.nan, 2, np.inf  # each would be invalid
        assert not ds.X.any() and not ds.M.any() and not ds.y.any()
        validate(ds)
        assert not (ds.X.flags.writeable or ds.M.flags.writeable
                    or ds.y.flags.writeable)


class TestMaskValues:
    @pytest.mark.parametrize("dtype, value", [
        (float, 0.5), (float, -0.5), (float, 0.999), (float, 256.0),
        (float, np.nan), (float, np.inf),
        (np.int64, 257)])  # the int8 cast would wrap 257 to 1
    def test_dataset_refuses_what_the_int8_cast_would_change(self, dtype, value):
        M = np.zeros((3, 2), dtype=dtype)
        M[2, 1] = value
        with pytest.raises(DatasetError, match=r"M\[2\]\[1\] is not binary"):
            MaskedDataset(np.zeros((3, 2)), M, np.zeros(3))

    def test_dataset_names_the_first_bad_cell(self):
        # an int8 cast keeps the 2 and truncates the 0.5 to 0; the mask is
        # checked as given, so the first bad cell in row order is named
        M = np.zeros((2, 2))
        M[0, 0], M[1, 1] = 2, 0.5
        with pytest.raises(DatasetError, match=r"^M\[0\]\[0\] is not binary$"):
            MaskedDataset(np.zeros((2, 2)), M, np.zeros(2))

    @pytest.mark.parametrize("M", [np.array([[0.0, 1.0], [-0.0, 1.0]]),
                                   np.array([[False, True], [True, False]]),
                                   np.array([[0, 1], [1, 0]], dtype=np.uint8)])
    def test_dataset_keeps_binary_masks(self, M):
        ds = MaskedDataset(np.zeros((2, 2)), M, np.zeros(2))
        assert ds.M.dtype == np.int8
        assert ds.M.tolist() == (M == 1).astype(int).tolist()

    @pytest.mark.parametrize("dtype, value", [
        (float, 2.0), (float, -1.0), (float, 0.5), (float, np.nan),
        (np.int8, 2), (np.int8, -1), (np.uint8, 2), (np.uint8, 255),
        (np.int64, 2), (np.int64, -1)])
    def test_binary_mask_names_the_first_bad_cell(self, dtype, value):
        M = np.zeros((4, 3), dtype=dtype)
        M[3, 0] = M[3, 2] = value
        with pytest.raises(DatasetError, match=r"^M\[3\]\[0\] is not binary$"):
            binary_mask(M)

    def test_binary_mask_reads_one_mask_row_as_2d(self):
        assert binary_mask(np.array([0, 1, 1], dtype=np.int8)).shape == (1, 3)
        with pytest.raises(DatasetError, match=r"^M\[0\]\[2\] is not binary$"):
            binary_mask([0, 1, 2])

    @pytest.mark.parametrize("dtype", [float, np.int8, np.uint8, np.int64, bool])
    def test_binary_mask_returns_binary_arrays_as_they_are(self, dtype):
        M = np.eye(3, dtype=dtype)[:, ::-1]  # strided: tobytes copies
        assert binary_mask(M) is M


class TestUniquePatterns:
    def test_two_groups(self):
        ds = MaskedDataset(np.zeros((3, 2)), np.array([[0, 0], [0, 0], [1, 0]]),
                           np.zeros(3))
        groups = dict(unique_patterns(ds.M))
        assert groups[(0, 0)].tolist() == [0, 1]
        assert groups[(1, 0)].tolist() == [2]

    def test_fully_observed_single_group(self):
        ds = make_dataset(p_miss=0.0)
        groups = unique_patterns(ds.M)
        assert len(groups) == 1
        assert groups[0][1].tolist() == list(range(ds.n))

    def test_matches_bruteforce_grouping(self):
        ds = make_dataset(seed=5, n=6, d=3, p_miss=0.5)
        expected = {}
        for i in range(6):
            expected.setdefault(tuple(ds.M[i]), []).append(i)
        groups = {k: rows.tolist() for k, rows in unique_patterns(ds.M)}
        assert groups == expected

    def test_group_count_bound(self):
        for seed in range(5):
            ds = make_dataset(seed=seed, n=20, d=3, p_miss=0.5)
            assert len(unique_patterns(ds.M)) <= min(ds.n, 2 ** ds.d)

    def test_partition_covers_all_rows(self):
        ds = make_dataset(seed=9, n=40, d=5, p_miss=0.4)
        rows = sorted(i for _, idx in unique_patterns(ds.M) for i in idx)
        assert rows == list(range(40))


def test_observability_scrambling():
    ds = make_dataset(seed=3)
    rng = np.random.default_rng(99)
    X2 = ds.X.copy()
    X2[ds.M == 1] = rng.normal(size=int(ds.M.sum())) * 1e3
    ds2 = MaskedDataset(X2, ds.M, ds.y)
    w = rng.normal(size=ds.d)
    for i in range(ds.n):
        assert masked_dot(w, ds.X[i], ds.M[i]) == masked_dot(w, ds2.X[i], ds2.M[i])
    assert [k for k, _ in unique_patterns(ds.M)] == \
        [k for k, _ in unique_patterns(ds2.M)]


def test_csv_round_trip(tmp_path):
    ds = make_dataset(seed=7, n=15, d=3, p_miss=0.4)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = read_csv(path, "y")
    assert np.array_equal(back.M, ds.M)
    assert np.allclose(back.y, ds.y)
    assert np.allclose(back.X[ds.M == 0], ds.X[ds.M == 0])
    # missing cells come back as the 0 sentinel with M = 1
    assert np.all(back.X[back.M == 1] == 0.0)


def test_csv_text_is_the_repr_of_each_observed_value(tmp_path):
    # a masked slot writes NA whatever it holds; a number writes its float repr
    X = [[-0.0, np.nan], [5e-324, 1e300], [np.inf, 0.1]]
    ds = MaskedDataset(X, [[0, 1], [0, 0], [1, 0]], [1e300, -0.0, 5e-324], ("a", "b"))
    write_csv(ds, path := tmp_path / "data.csv")
    assert path.read_bytes() == (b"a,b,y\r\n-0.0,NA,1e+300\r\n5e-324,1e+300,-0.0\r\n"
                                 b"NA,0.1,5e-324\r\n")


def test_csv_header_names_each_column_once(tmp_path):
    # a target named as a feature would come back as that feature
    ds = MaskedDataset(np.arange(6.0).reshape(3, 2), np.zeros((3, 2)),
                       [1.0, 2.0, 3.0], ("y", "b"))
    path = tmp_path / "data.csv"
    with pytest.raises(DatasetError, match=r"repeats column 'y' in its header$"):
        write_csv(ds, path, "y")
    assert not path.exists()
    write_csv(ds, path, "target")
    path.write_text(path.read_text().replace("target", "y", 1))
    with pytest.raises(DatasetError,
                       match=rf"^{re.escape(str(path))} repeats column 'y' in its header$"):
        read_csv(path, "y")


def test_csv_missing_tokens(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,y\n1.0,,2.0\nNA,3.0,4.0\n")
    ds = read_csv(path, "y")
    assert ds.M.tolist() == [[0, 1], [1, 0]]
    assert ds.y.tolist() == [2.0, 4.0]


def test_csv_requires_target(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetError, match="target"):
        read_csv(path, "y")


def test_csv_empty_file_is_a_dataset_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(DatasetError, match="no header row"):
        read_csv(path, "y")


@pytest.mark.parametrize("line", ["5.0,6.0", "5.0,6.0,7.0,8.0"])
def test_csv_row_of_another_width_names_the_row(tmp_path, line):
    path = tmp_path / "data.csv"
    path.write_text(f"a,b,y\n1.0,2.0,3.0\n{line}\n")
    n = len(line.split(","))
    with pytest.raises(DatasetError,
                       match=rf"^row 1 has {n} fields, the header 3$"):
        read_csv(path, "y")


@pytest.mark.parametrize("line, message", [
    ("1.0,abc,3.0", r"^row 1 column 'b': 'abc' is not a number$"),
    ("1.0,2.0,x", r"^row 1 column 'y': 'x' is not a number$")])
def test_csv_non_numeric_field_names_row_and_column(tmp_path, line, message):
    path = tmp_path / "data.csv"
    path.write_text(f"a,b,y\n1.0,2.0,3.0\n{line}\n")
    with pytest.raises(DatasetError, match=message):
        read_csv(path, "y")
