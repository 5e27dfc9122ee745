import numpy as np
import pytest

from mgkd import data
from mgkd.data import (Scaler, SyntheticConfig, TwoPhaseDataset,
                       apply_standardize, fit_standardize, generate_synthetic,
                       load_delimited, save_delimited, temporal_split)
from mgkd.errors import ConfigError, ParseError, SplitError


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
        with pytest.raises(ConfigError):
            small_config(snr_pre=5.0, snr_in_base=0.1, window_gain=0.0)

    def test_label_noise_keeps_rate(self):
        ds = generate_synthetic(small_config(n=50_000, label_noise=0.05))
        assert 0.095 <= ds.y.mean() <= 0.105

    def test_unequal_widths(self):
        ds = generate_synthetic(small_config(d_pre=3, d_in=6))
        assert ds.d_pre == 3 and ds.d_in == 6


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
        with pytest.raises(ParseError, match=":3"):
            load_delimited(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,ts,y,pre_0\n0,1,0,zzz\n")
        with pytest.raises(ParseError, match=":2"):
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
        with pytest.raises(ParseError, match=f"bad.csv:4: .*{column}"):
            load_delimited(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,ts,pre_0\n")
        with pytest.raises(ParseError, match="y"):
            load_delimited(path)

    def test_missing_in_service_block(self, tmp_path):
        path = tmp_path / "pre_only.csv"
        path.write_text("user_id,ts,y,pre_0,pre_1\n0,5,1,0.25,-1.5\n")
        ds = load_delimited(path)
        assert ds.d_in == 0 and ds.d_pre == 2 and ds.n == 1


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
        with pytest.raises(SplitError):
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
        with pytest.raises(ConfigError):
            temporal_split(self._dataset(np.arange(10)), 0.6, 0.5)

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
        shifted = ds.copy()
        shifted.x_pre[~ds.mask("train")] += 100.0
        scaler2 = fit_standardize(shifted)
        assert np.array_equal(scaler.mean_pre, scaler2.mean_pre)
        assert np.array_equal(scaler.std_pre, scaler2.std_pre)

    def test_requires_train_rows(self):
        ds = self._split_ds([[1.0], [2.0]])
        ds.split[:] = ""
        with pytest.raises(SplitError):
            fit_standardize(ds)
