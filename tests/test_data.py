import hashlib
import math
import shutil
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mgkd import data
from mgkd.data import (Scaler, SyntheticConfig, TwoPhaseDataset,
                       apply_standardize, fit_standardize, generate_synthetic,
                       load_delimited, save_delimited, sidecar_path,
                       temporal_split)
from mgkd.errors import ConfigError, DataError
from mgkd.numcore import sigmoid

from conftest import peak_bytes


def small_config(**kw):
    base = dict(n=2000, d_pre=4, d_in=4, positive_rate=0.10, snr_pre=0.1,
                snr_in_base=0.5, window_days=30, window_gain=0.5, seed=3)
    base.update(kw)
    return SyntheticConfig(**base)


class TestGenerator:
    def test_positive_rate_calibrated(self):
        ds = generate_synthetic(small_config(n=50_000))
        assert 0.095 <= ds.y.mean() <= 0.105

    def test_deterministic(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        assert np.array_equal(a.x_pre, b.x_pre)
        assert np.array_equal(a.x_in, b.x_in)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.timestamp, b.timestamp)

    def test_window_gain_zero_flat(self):
        # With no window gain the in-service SNR is window-independent, so
        # the datasets (and any downstream AUC) are identical across windows.
        sets = [generate_synthetic(small_config(window_days=w, window_gain=0.0))
                for w in (30, 60, 90)]
        assert np.array_equal(sets[0].x_in, sets[1].x_in)
        assert np.array_equal(sets[1].x_in, sets[2].x_in)

    def test_snr_monotone_in_window(self):
        cfg = small_config()
        assert cfg.snr_in(90) > cfg.snr_in(60) > cfg.snr_in(30) > cfg.snr_pre

    def test_gap_invariant_enforced(self):
        with pytest.raises(ConfigError, match="in-service SNR"):
            small_config(snr_pre=5.0, snr_in_base=0.1, window_gain=0.0)

    def test_unequal_widths(self):
        ds = generate_synthetic(small_config(d_pre=3, d_in=6))
        assert ds.d_pre == 3 and ds.d_in == 6

    def test_no_pre_service_block_rejected(self):
        with pytest.raises(ConfigError, match="d_pre must be at least 1"):
            small_config(d_pre=0)


class TestDelimitedIO:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(small_config(n=1000))
        path = tmp_path / "ds.csv"
        save_delimited(ds, path)
        back = load_delimited(path)
        assert np.array_equal(ds.x_pre, back.x_pre)
        assert np.array_equal(ds.x_in, back.x_in)
        assert np.array_equal(ds.y, back.y)
        assert np.array_equal(ds.timestamp, back.timestamp)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("user_id,ts,y,pre_0,in_0\n")
        ds = load_delimited(path)
        assert ds.n == 0 and ds.d_pre == 1 and ds.d_in == 1

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,ts,y,pre_0\n0,1,0,0.5\n1,2,2,0.5\n")
        with pytest.raises(DataError, match=r"bad.csv:3: label 2 outside"):
            load_delimited(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,ts,y,pre_0\n0,1,0,zzz\n")
        with pytest.raises(DataError, match="bad.csv:2: bad cell"):
            load_delimited(path)

    @pytest.mark.parametrize("cell, column", [("nan", "pre_1"),
                                              ("inf", "in_0"),
                                              ("-inf", "in_0")])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell,
                                                   column):
        path = tmp_path / "bad.csv"
        rows = ["0,1,0,0.5,0.5,0.5", "1,2,1,0.5,0.5,0.5",
                "2,3,0,0.5,0.5,0.5"]
        cells = rows[2].split(",")
        cells[{"pre_1": 4, "in_0": 5}[column]] = cell
        rows[2] = ",".join(cells)
        path.write_text("user_id,ts,y,pre_0,pre_1,in_0\n"
                        + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=f"bad.csv:4: .*{column}"):
            load_delimited(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,ts,pre_0\n")
        with pytest.raises(DataError, match="missing column 'y'"):
            load_delimited(path)

    def test_missing_in_service_block(self, tmp_path):
        path = tmp_path / "pre_only.csv"
        path.write_text("user_id,ts,y,pre_0,pre_1\n0,5,1,0.25,-1.5\n")
        ds = load_delimited(path)
        assert ds.d_in == 0 and ds.d_pre == 2 and ds.n == 1

    def test_missing_pre_service_block(self, tmp_path):
        path = tmp_path / "in_only.csv"
        path.write_text("user_id,ts,y,in_0\n0,5,1,0.25\n")
        with pytest.raises(DataError) as info:
            load_delimited(path)
        assert str(info.value) == f"{path}: header has no pre_* column"

    def test_last_line_without_line_end(self, tmp_path):
        path = tmp_path / "open.csv"
        path.write_text("user_id,ts,y,pre_0\r\n0,1,0,0.5\r\n1,2,1,1.5",
                        newline="")
        ds = load_delimited(path)
        assert ds.timestamp.tolist() == [1, 2] and ds.y.tolist() == [0, 1]
        assert ds.x_pre[:, 0].tolist() == [0.5, 1.5]
        path.write_text("user_id,ts,y,pre_0\r\n0,1,0,0.5\r\n1,2,1,1.5,7",
                        newline="")
        with pytest.raises(DataError) as info:
            load_delimited(path)
        assert str(info.value) == f"{path}:3: expected 4 fields, got 5"


# The loader's accept/reject table. Every file has the header
# `user_id,ts,y,pre_0,in_0`, a good line 2 and the case's line 3. A
# rejection is the exact DataError message after "<path>:"; an acceptance
# is the parsed (ts, y, pre_0, in_0) of both rows.
GOOD_LINE = "0,1,0,0.5,0.25"
LOADER_TABLE = [
    ("blank_line", "\n1,2,1,1.5,-0.5", "3: expected 5 fields, got 0"),
    # The long row's extra commas make up for the blank line's missing ones.
    ("blank_then_long_row", "\n1,2,1,1.5,-0.5,0,0,0,0",
     "3: expected 5 fields, got 0"),
    ("short_row", "1,2,1,1.5", "3: expected 5 fields, got 4"),
    ("extra_field", "1,2,1,1.5,-0.5,7", "3: expected 5 fields, got 6"),
    ("non_numeric", "1,2,1,zzz,-0.5",
     "3: bad cell (could not convert string to float: 'zzz')"),
    ("label_2", "1,2,2,1.5,-0.5", "3: label 2 outside {0, 1}"),
    ("ts_fraction", "1,1.5,1,1.5,-0.5",
     "3: bad cell (invalid literal for int() with base 10: '1.5')"),
    ("ts_overflow", "1,99999999999999999999,1,1.5,-0.5",
     "3: bad cell (integer 99999999999999999999 outside the int64 range)"),
    ("nan", "1,2,1,nan,-0.5", "3: non-finite value in column pre_0"),
    ("inf", "1,2,1,1.5,inf", "3: non-finite value in column in_0"),
    ("quoted", '1,2,1,"1.5",-0.5',
     "3: bad cell (could not convert string to float: '\"1.5\"')"),
    # "\udcff" is written as the single byte 0xff.
    ("not_utf8", "1,2,1,1.5\udcff,-0.5",
     "3: not UTF-8 text (invalid start byte)"),
    ("underscore", "1,2,1,1_5,-0.5",
     "3: bad cell (not a number: '1_5')"),
    ("leading_space", "1,2,1, 1.5,-0.5",
     ([1, 2], [0, 1], [0.5, 1.5], [0.25, -0.5])),
    ("text_user_id", "abc,2,1,1.5,-0.5",
     ([1, 2], [0, 1], [0.5, 1.5], [0.25, -0.5])),
    ("header_only", None, ([], [], [], [])),
]


@pytest.mark.parametrize("body, outcome", [case[1:] for case in LOADER_TABLE],
                         ids=[case[0] for case in LOADER_TABLE])
def test_loader_accept_reject_table(tmp_path, body, outcome):
    path = tmp_path / "table.csv"
    lines = ["user_id,ts,y,pre_0,in_0"]
    if body is not None:
        lines += [GOOD_LINE, body]
    path.write_text("\r\n".join(lines) + "\r\n", newline="",
                    errors="surrogateescape")
    if isinstance(outcome, str):
        with pytest.raises(DataError) as info:
            load_delimited(path)
        assert str(info.value) == f"{path}:{outcome}"
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_delimited(path)
    ts, y, pre, inn = outcome
    assert ds.n == len(ts) and ds.d_pre == 1 and ds.d_in == 1
    assert ds.timestamp.tolist() == ts and ds.y.tolist() == y
    assert ds.x_pre[:, 0].tolist() == pre and ds.x_in[:, 0].tolist() == inn


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 50))
    d_pre, d_in = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    cells = st.one_of(st.sampled_from(EDGE_FLOATS), FINITE)
    return TwoPhaseDataset(
        x_pre=draw(hnp.arrays(np.float64, (n, d_pre), elements=cells)),
        x_in=draw(hnp.arrays(np.float64, (n, d_in), elements=cells)),
        y=draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1))),
        timestamp=draw(hnp.arrays(np.int64, n, elements=st.integers(
            -2**63, 2**63 - 1))),
        split=np.full(n, "", dtype="<U5"))


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_round_trip_is_bit_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    save_delimited(ds, path)
    back = load_delimited(path)
    for name in ("x_pre", "x_in", "y", "timestamp"):
        assert getattr(back, name).shape == getattr(ds, name).shape
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()


@settings(max_examples=150, deadline=None)
@given(cell=st.text(alphabet="0123456789+-.eEinfatyx_\" \t\r\xa0١",
                    max_size=8))
@example(cell="1.5\r")
def test_every_rejection_names_a_line(tmp_path_factory, cell):
    # The rescan that names the bad line must agree with numpy's reader on
    # every cell: no rejected file may fall through without a line number.
    path = tmp_path_factory.mktemp("cell") / "cell.csv"
    path.write_bytes(f"user_id,ts,y,pre_0\r\n0,1,0,0.5\r\n1,2,1,{cell}\r\n"
                     .encode("utf-8"))
    try:
        load_delimited(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}:3: ")


def test_save_bytes_match_golden_digest(tmp_path):
    # Recorded from the csv.writer-based writer: the file's bytes must not
    # change with the writer.
    path = tmp_path / "golden.csv"
    save_delimited(generate_synthetic(small_config(n=200, d_pre=3, d_in=2)),
                   path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "7562fa10f9462aae008cb531406a8181cfe11a6a78f50467a958edaf2a7f63ae"


def test_multi_block_save_matches_golden_digests(tmp_path):
    # 1,543 rows, three row blocks and 7 rows; recorded from the writer
    # that formatted 2,048 rows per block: the CSV and sidecar bytes must
    # not depend on the block size.
    path = tmp_path / "golden.csv"
    save_delimited(generate_synthetic(small_config(n=1543, d_pre=3, d_in=2)),
                   path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "933d7b47f313fd0da600529fa6839cac12599d042a70798de279079e9d571547"
    assert hashlib.sha256(sidecar_path(path).read_bytes()).hexdigest() == \
        "1c8dbed3254b6381d190591c2e6cc3aa9173ac6e18082f3800f1620127b5c5ea"


# The sidecar: `save_delimited` writes the parsed rows next to the CSV, and
# `load_delimited` uses them only for the exact CSV bytes they were
# written with.

def _fields(ds: TwoPhaseDataset) -> dict:
    return {name: (getattr(ds, name).dtype, getattr(ds, name).shape,
                   getattr(ds, name).tobytes())
            for name in ("x_pre", "x_in", "y", "timestamp", "split")}


def _parsed(path) -> TwoPhaseDataset:
    """`path` loaded with its sidecar moved away."""
    side = sidecar_path(path)
    hidden = side.with_name(side.name + ".hidden")
    side.rename(hidden)
    try:
        return load_delimited(path)
    finally:
        hidden.rename(side)


def _from_sidecar(path) -> TwoPhaseDataset:
    with mock.patch.object(np, "loadtxt",
                           side_effect=AssertionError("CSV was parsed")):
        return load_delimited(path)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 300), d_pre=st.integers(1, 4),
       d_in=st.integers(0, 4), seed=st.integers(0, 2**16))
def test_sidecar_load_is_bit_identical_to_parse(tmp_path_factory, n, d_pre,
                                                d_in, seed):
    path = tmp_path_factory.mktemp("side") / "ds.csv"
    digest = save_delimited(generate_synthetic(
        small_config(n=n, d_pre=d_pre, d_in=d_in, seed=seed)), path)
    fast, slow = _from_sidecar(path), _parsed(path)
    assert _fields(fast) == _fields(slow)
    assert fast.sha256 == slow.sha256 == digest \
        == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "ds.csv"
    ds = generate_synthetic(small_config(n=300))
    save_delimited(ds, path)
    return path, ds


def test_stale_sidecar_is_not_used(saved):
    path, ds = saved
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[5].split(b",")
    cells[3] = b"0.125"
    lines[5] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    back = load_delimited(path)
    assert back.x_pre[4, 0] == 0.125
    assert _fields(back) == _fields(_parsed(path))
    assert np.array_equal(back.x_pre[5:], ds.x_pre[5:])

    cells[3] = b"zzz"
    lines[5] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DataError) as with_sidecar:
        load_delimited(path)
    sidecar_path(path).unlink()
    with pytest.raises(DataError) as without_sidecar:
        load_delimited(path)
    assert str(with_sidecar.value) == str(without_sidecar.value) == \
        f"{path}:6: bad cell (could not convert string to float: 'zzz')"


def test_foreign_sidecar_is_not_used(saved, tmp_path):
    path, ds = saved
    other = tmp_path / "other.csv"
    save_delimited(generate_synthetic(small_config(n=300, seed=4)), other)
    shutil.copyfile(sidecar_path(other), sidecar_path(path))
    back = load_delimited(path)
    assert np.array_equal(back.x_pre, ds.x_pre)
    assert np.array_equal(back.x_in, ds.x_in)


def _flip(position: int):
    def edit(raw: bytes) -> bytes:
        return raw[:position] + bytes([raw[position] ^ 1]) + raw[position + 1:]
    return edit


SIDECAR_DAMAGE = {
    "empty": lambda raw: b"",
    "truncated_by_one": lambda raw: raw[:-1],
    "truncated_to_half": lambda raw: raw[:len(raw) // 2],
    "one_extra_byte": lambda raw: raw + b"\0",
    "garbage_of_same_length": lambda raw: bytes(
        np.random.default_rng(0).integers(0, 256, len(raw), dtype=np.uint8)),
    "flipped_bit_in_rows": _flip(1000),
    "flipped_bit_in_trailer": _flip(-1),
    "npz_archive": lambda raw: b"PK\x03\x04" + raw[4:],
}


@pytest.mark.parametrize("damage", SIDECAR_DAMAGE.values(),
                         ids=SIDECAR_DAMAGE.keys())
def test_damaged_sidecar_is_not_used(saved, damage):
    path, ds = saved
    side = sidecar_path(path)
    side.write_bytes(damage(side.read_bytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_delimited(path)
    assert _fields(back) == _fields(_parsed(path))
    assert np.array_equal(back.x_pre, ds.x_pre)


def test_sidecar_that_is_a_directory_is_not_used(saved):
    path, ds = saved
    side = sidecar_path(path)
    side.unlink()
    side.mkdir()
    assert np.array_equal(load_delimited(path).x_in, ds.x_in)


def test_sidecar_with_non_finite_rows_falls_back_to_the_line_error(
        tmp_path):
    # A sidecar is checked like a parse: its rows never carry a value the
    # CSV's cell rules reject.
    path = tmp_path / "nan.csv"
    ds = generate_synthetic(small_config(n=20))
    ds.x_in[3, 1] = np.nan
    save_delimited(ds, path)
    with pytest.raises(DataError) as info:
        load_delimited(path)
    assert str(info.value) == f"{path}:5: non-finite value in column in_1"


class TestTemporalSplit:
    def _dataset(self, timestamps):
        n = len(timestamps)
        return TwoPhaseDataset(
            x_pre=np.zeros((n, 1)), x_in=np.zeros((n, 1)),
            y=np.zeros(n, dtype=np.int64),
            timestamp=np.asarray(timestamps, dtype=np.int64),
            split=np.full(n, "", dtype="<U5"))

    def test_distinct_timestamps(self):
        ds = temporal_split(self._dataset(np.arange(100)), 0.1, 0.1)
        assert (ds.split == "train").sum() == 80
        assert (ds.split == "valid").sum() == 10
        assert (ds.split == "test").sum() == 10
        assert ds.timestamp[ds.split == "train"].max() \
            < ds.timestamp[ds.split == "valid"].min()
        assert ds.timestamp[ds.split == "valid"].max() \
            < ds.timestamp[ds.split == "test"].min()

    def test_all_equal_timestamps(self):
        with pytest.raises(DataError, match="left an empty partition"):
            temporal_split(self._dataset(np.zeros(50)), 0.1, 0.1)

    def test_ties_go_to_earlier_split(self):
        # Boundary timestamp repeats across the nominal valid cut.
        ts = [0, 1, 2, 3, 4, 5, 6, 7, 7, 9]
        ds = temporal_split(self._dataset(ts), 0.2, 0.1)
        for tag in ("train", "valid", "test"):
            other = ds.timestamp[ds.split != tag]
            mine = ds.timestamp[ds.split == tag]
            assert not np.intersect1d(mine, other).size

    def test_chronological_order(self):
        rng = np.random.default_rng(0)
        ts = rng.integers(0, 10_000, 500)
        ds = temporal_split(self._dataset(ts), 0.15, 0.15)
        assert ds.timestamp[ds.split == "train"].max() \
            <= ds.timestamp[ds.split == "valid"].min()
        assert ds.timestamp[ds.split == "valid"].max() \
            <= ds.timestamp[ds.split == "test"].min()

    def test_bad_fractions(self):
        with pytest.raises(ConfigError, match="split fractions"):
            temporal_split(self._dataset(np.arange(10)), 0.6, 0.5)

    def test_only_split_is_new(self):
        ds = self._dataset(np.arange(20))
        out = temporal_split(ds, 0.1, 0.1)
        assert all(getattr(out, name) is getattr(ds, name)
                   for name in ("x_pre", "x_in", "y", "timestamp"))
        assert (ds.split == "").all()

    def test_deterministic(self):
        ts = np.random.default_rng(1).integers(0, 1000, 300)
        a = temporal_split(self._dataset(ts), 0.1, 0.1)
        b = temporal_split(self._dataset(ts), 0.1, 0.1)
        assert np.array_equal(a.split, b.split)


class TestStandardize:
    def _split_ds(self, x_pre):
        x_pre = np.asarray(x_pre, dtype=np.float64)
        n = x_pre.shape[0]
        ds = TwoPhaseDataset(
            x_pre=np.asarray(x_pre, dtype=np.float64),
            x_in=np.zeros((n, 0)),
            y=np.zeros(n, dtype=np.int64),
            timestamp=np.arange(n, dtype=np.int64),
            split=np.full(n, "train", dtype="<U5"))
        return ds

    def test_population_std_closed_form(self):
        ds = self._split_ds([[1.0], [2.0], [3.0]])
        out = apply_standardize(ds, fit_standardize(ds))
        assert np.allclose(out.x_pre.ravel(), [-1.224745, 0.0, 1.224745],
                           atol=1e-6)

    def test_constant_column_to_zeros(self):
        ds = self._split_ds([[5.0], [5.0], [5.0]])
        out = apply_standardize(ds, fit_standardize(ds))
        assert np.array_equal(out.x_pre, np.zeros((3, 1)))

    def test_refit_is_identity(self):
        rng = np.random.default_rng(2)
        ds = self._split_ds(rng.standard_normal((50, 3)) * 4 + 1)
        out = apply_standardize(ds, fit_standardize(ds))
        scaler2 = fit_standardize(out)
        assert np.allclose(scaler2.mean_pre, 0.0, atol=1e-9)
        assert np.allclose(scaler2.std_pre, 1.0, atol=1e-9)

    def test_train_columns_standardized(self):
        ds = generate_synthetic(small_config(n=3000))
        ds = temporal_split(ds, 0.1, 0.1)
        out = apply_standardize(ds, fit_standardize(ds))
        tr = out.mask("train")
        assert np.allclose(out.x_pre[tr].mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.x_pre[tr].std(axis=0), 1.0, atol=1e-9)

    def test_no_leakage(self):
        # Statistics depend only on the train rows.
        ds = generate_synthetic(small_config(n=3000))
        ds = temporal_split(ds, 0.1, 0.1)
        scaler = fit_standardize(ds)
        shifted = replace(ds, x_pre=ds.x_pre.copy())
        shifted.x_pre[~ds.mask("train")] += 100.0
        scaler2 = fit_standardize(shifted)
        assert np.array_equal(scaler.mean_pre, scaler2.mean_pre)
        assert np.array_equal(scaler.std_pre, scaler2.std_pre)

    def test_new_feature_blocks_only(self):
        ds = temporal_split(generate_synthetic(small_config(n=300)), 0.1, 0.1)
        x_pre, x_in = ds.x_pre.copy(), ds.x_in.copy()
        out = apply_standardize(ds, fit_standardize(ds))
        assert not np.shares_memory(out.x_pre, ds.x_pre)
        assert not np.shares_memory(out.x_in, ds.x_in)
        assert np.array_equal(ds.x_pre, x_pre)
        assert np.array_equal(ds.x_in, x_in)
        assert all(getattr(out, name) is getattr(ds, name)
                   for name in ("y", "timestamp", "split"))

    def test_requires_train_rows(self):
        ds = self._split_ds([[1.0], [2.0]])
        ds.split[:] = ""
        with pytest.raises(DataError, match="no train rows tagged"):
            fit_standardize(ds)


class TestSplitsByName:
    def _dataset(self, y):
        n = len(y)
        return TwoPhaseDataset(
            x_pre=np.arange(2.0 * n).reshape(n, 2),
            x_in=-np.arange(1.0 * n).reshape(n, 1),
            y=np.asarray(y, dtype=np.int64), timestamp=np.arange(n),
            split=np.array(["train", "valid", "train", "test", "valid"]))

    def test_labels_of_a_split(self):
        ds = self._dataset([1, 0, 0, 1, 1])
        assert ds.labels("train").tolist() == [1, 0]
        assert ds.labels("valid").tolist() == [0, 1]

    @pytest.mark.parametrize("split, message", [
        ("test", "the test split has 1 positive and 0 negative rows; "
                 "it needs both"),
        ("train", "the train split has 0 positive and 2 negative rows"),
    ])
    def test_one_class_split_names_itself(self, split, message):
        ds = self._dataset([0, 0, 0, 1, 1])
        with pytest.raises(DataError, match=message):
            ds.labels(split)

    def test_features_of_a_split(self):
        ds = self._dataset([1, 0, 0, 1, 1])
        assert ds.features("pre", "valid").tolist() == [[2.0, 3.0],
                                                        [8.0, 9.0]]
        assert ds.features("in", "valid").tolist() == [[-1.0], [-4.0]]
        assert ds.features("both", "train").tolist() == [[0.0, 1.0, -0.0],
                                                         [4.0, 5.0, -2.0]]

    def test_unknown_block_or_split(self):
        ds = self._dataset([1, 0, 0, 1, 1])
        with pytest.raises(ConfigError, match="unknown feature block"):
            ds.features("post", "train")
        with pytest.raises(ConfigError, match="unknown split"):
            ds.labels("holdout")


# Row blocks: generating, writing and standardizing work BLOCK_ROWS rows at
# a time. The frozen references below are those passes as whole-array
# formulas, from before the blocks; the blocks must match them bit for bit.

def whole_array_synthetic(cfg: SyntheticConfig) -> TwoPhaseDataset:
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal(cfg.n)
    b = data._calibrate_intercept(cfg.positive_rate)
    y = (rng.random(cfg.n) < sigmoid(data.LATENT_SLOPE * z + b)) \
        .astype(np.int64)

    def block(d: int, snr: float) -> np.ndarray:
        loadings = rng.standard_normal(d)
        loadings /= np.abs(loadings)
        noise = rng.standard_normal((cfg.n, d)) * math.sqrt(1.0 / snr)
        return z[:, None] * loadings[None, :] + noise

    x_pre = block(cfg.d_pre, cfg.snr_pre)
    x_in = block(cfg.d_in, cfg.snr_in(cfg.window_days))
    timestamp = rng.integers(0, 365 * 86_400, size=cfg.n)
    return TwoPhaseDataset(x_pre, x_in, y, timestamp,
                           np.full(cfg.n, "", dtype="<U5"))


def whole_array_standardize(ds: TwoPhaseDataset,
                            scaler: Scaler) -> TwoPhaseDataset:
    x_in = (ds.x_in - scaler.mean_in) / scaler.std_in if ds.d_in else ds.x_in
    return replace(ds, x_pre=(ds.x_pre - scaler.mean_pre) / scaler.std_pre,
                   x_in=x_in)


B = data.BLOCK_ROWS


@pytest.mark.parametrize("d_in", [0, 20])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_row_blocks_match_whole_array_passes(n, d_in):
    cfg = SyntheticConfig(n=n, d_in=d_in, seed=5)
    ds = generate_synthetic(cfg)
    assert _fields(ds) == _fields(whole_array_synthetic(cfg))
    # A scaler of 20 in-service columns, as when rows without the
    # in-service block are scored.
    rng = np.random.default_rng(n)
    scaler = Scaler(rng.standard_normal(20), rng.random(20) + 0.5,
                    rng.standard_normal(20), rng.random(20) + 0.5)
    assert _fields(apply_standardize(ds, scaler)) == \
        _fields(whole_array_standardize(ds, scaler))


def test_generator_peak_memory_is_bounded():
    # The noise is drawn into the returned arrays; the whole-array
    # formula peaked at 1.40 times the bytes it returned.
    cfg = SyntheticConfig(n=100_000)
    ds = generate_synthetic(cfg)  # also the warm-up
    returned = sum(getattr(ds, name).nbytes
                   for name in ("x_pre", "x_in", "y", "timestamp", "split"))
    assert peak_bytes(lambda: generate_synthetic(cfg)) <= 1.15 * returned


def test_standardize_peak_memory_is_bounded():
    # The whole-array formula peaked at 1.50 times its outputs.
    ds = temporal_split(generate_synthetic(SyntheticConfig(n=100_000)),
                        0.1, 0.1)
    scaler = fit_standardize(ds)
    out = apply_standardize(ds, scaler)
    assert peak_bytes(lambda: apply_standardize(ds, scaler)) \
        <= 1.15 * (out.x_pre.nbytes + out.x_in.nbytes)


def test_save_peak_memory_is_bounded(tmp_path):
    # 20k rows of 40 features: one row block's text and Python floats at a
    # time. 2,048-row blocks peaked at 5.3 MB.
    ds = generate_synthetic(SyntheticConfig(n=20_000))
    save_delimited(ds, tmp_path / "warm.csv")
    assert peak_bytes(lambda: save_delimited(ds, tmp_path / "ds.csv")) \
        <= 2 * 10**6


@pytest.mark.parametrize("y", [
    [0, 1, 1], [0, 2], [-1, 1], [True, False], [0.0, 1.0], [0.5, 1.0],
    [0.0, math.nan], np.array([], dtype=np.int64),
    np.array([0, 1], dtype=np.uint8), np.array([1, 3], dtype=np.uint8)])
def test_label_check_rejects_what_isin_rejects(y):
    y = np.asarray(y)
    n = len(y)

    def make():
        return TwoPhaseDataset(np.zeros((n, 1)), np.zeros((n, 0)), y,
                               np.zeros(n, dtype=np.int64),
                               np.full(n, "", dtype="<U5"))

    if np.isin(y, (0, 1)).all():
        assert make().y is y
    else:
        with pytest.raises(ConfigError, match="^labels must be 0 or 1$"):
            make()


def test_label_check_makes_no_label_sized_array():
    # Integer labels are read by min and max. `np.isin` allocated 1.9 MB
    # here on every construction, `dataclasses.replace` included.
    ds = generate_synthetic(SyntheticConfig(n=100_000, d_in=0))
    replace(ds)  # warm-up
    assert peak_bytes(lambda: replace(ds)) < ds.y.nbytes / 100
