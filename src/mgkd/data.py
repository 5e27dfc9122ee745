"""Two-phase datasets: synthetic generation, file I/O, splitting, scaling.

Each user carries a pre-service feature row, an in-service feature row, a
default label and a timestamp. The synthetic generator draws a scalar
latent risk per user and emits both feature blocks as noisy views of it,
with the in-service block given a higher signal-to-noise ratio that grows
with the observation window, so models with in-service access have a real
information advantage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GenerationError, ParseError, SplitError
from .numcore import sigmoid

SPLIT_TAGS = ("train", "valid", "test")

# Slope of the latent-risk logit; fixed, the intercept is calibrated.
LATENT_SLOPE = 2.0


@dataclass
class TwoPhaseDataset:
    x_pre: np.ndarray      # (n, d_pre)
    x_in: np.ndarray       # (n, d_in); d_in may be 0 at inference time
    y: np.ndarray          # (n,) ints in {0,1}
    timestamp: np.ndarray  # (n,) ints
    split: np.ndarray      # (n,) strings in {"", "train", "valid", "test"}

    def __post_init__(self):
        n = self.x_pre.shape[0]
        for name in ("x_in", "y", "timestamp", "split"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(f"dataset field {name} has wrong length")
        if not np.isin(self.y, (0, 1)).all():
            raise ConfigError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.x_pre.shape[0]

    @property
    def d_pre(self) -> int:
        return self.x_pre.shape[1]

    @property
    def d_in(self) -> int:
        return self.x_in.shape[1]

    def mask(self, split: str) -> np.ndarray:
        if split not in SPLIT_TAGS:
            raise ConfigError(f"unknown split {split!r}")
        return self.split == split

    def copy(self) -> "TwoPhaseDataset":
        return TwoPhaseDataset(self.x_pre.copy(), self.x_in.copy(),
                               self.y.copy(), self.timestamp.copy(),
                               self.split.copy())


@dataclass
class SyntheticConfig:
    n: int = 50_000
    d_pre: int = 20
    d_in: int = 20
    positive_rate: float = 0.10
    snr_pre: float = 0.05
    snr_in_base: float = 0.3
    window_days: int = 30
    window_gain: float = 0.5
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.window_days not in (30, 60, 90):
            raise ConfigError(f"window_days must be 30/60/90, "
                              f"got {self.window_days}")
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError("positive_rate must be in (0,1)")
        if self.snr_pre <= 0.0 or self.snr_in_base <= 0.0:
            raise ConfigError("signal-to-noise ratios must be positive")
        if self.window_gain < 0.0:
            raise ConfigError("window_gain must be nonnegative")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError("label_noise must be in [0, 0.5)")
        if self.snr_in(self.window_days) <= self.snr_pre:
            raise ConfigError(
                "in-service SNR must exceed pre-service SNR "
                f"({self.snr_in(self.window_days)} <= {self.snr_pre})")

    def snr_in(self, window_days: int) -> float:
        return self.snr_in_base * (1.0 + self.window_gain * window_days / 30.0)


def _expected_rate(b: float, nodes: np.ndarray, w: np.ndarray) -> float:
    # E[sigmoid(a z + b)] over z ~ N(0,1) by Gauss-Hermite quadrature.
    return float(np.sum(w * sigmoid(LATENT_SLOPE * nodes + b))
                 / math.sqrt(2.0 * math.pi))


def _calibrate_intercept(target: float, max_steps: int = 100) -> float:
    """Bisection for the logit intercept that hits the target positive rate."""
    nodes, w = np.polynomial.hermite_e.hermegauss(101)
    lo, hi = -60.0, 60.0
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        if _expected_rate(mid, nodes, w) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    b = 0.5 * (lo + hi)
    if abs(_expected_rate(b, nodes, w) - target) > 0.005 * target + 1e-4:
        raise GenerationError(
            f"could not calibrate positive rate {target} in {max_steps} steps")
    return b


def generate_synthetic(cfg: SyntheticConfig) -> TwoPhaseDataset:
    """Draw a deterministic two-phase dataset from the latent-risk model."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal(cfg.n)

    # Account for symmetric label flips so the marginal rate still matches.
    target = cfg.positive_rate
    if cfg.label_noise > 0.0:
        target = (cfg.positive_rate - cfg.label_noise) / (1.0 - 2.0 * cfg.label_noise)
        if not 0.0 < target < 1.0:
            raise GenerationError(
                "positive_rate unreachable under the requested label_noise")
    b = _calibrate_intercept(target)
    y = (rng.random(cfg.n) < sigmoid(LATENT_SLOPE * z + b)).astype(np.int64)
    if cfg.label_noise > 0.0:
        flips = rng.random(cfg.n) < cfg.label_noise
        y = np.where(flips, 1 - y, y)

    def block(d: int, snr: float) -> np.ndarray:
        loadings = rng.standard_normal(d)
        loadings /= np.abs(loadings)  # column-normalize: unit signal variance
        noise = rng.standard_normal((cfg.n, d)) * math.sqrt(1.0 / snr)
        return z[:, None] * loadings[None, :] + noise

    x_pre = block(cfg.d_pre, cfg.snr_pre)
    x_in = block(cfg.d_in, cfg.snr_in(cfg.window_days))
    timestamp = rng.integers(0, 365 * 86_400, size=cfg.n)
    split = np.full(cfg.n, "", dtype="<U5")
    return TwoPhaseDataset(x_pre, x_in, y, timestamp, split)


def _header(d_pre: int, d_in: int) -> list[str]:
    return (["user_id", "ts", "y"] + [f"pre_{j}" for j in range(d_pre)]
            + [f"in_{j}" for j in range(d_in)])


def save_delimited(ds: TwoPhaseDataset, path) -> None:
    """Write the dataset as CSV with exact round-trip float text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(ds.d_pre, ds.d_in))
        for i in range(ds.n):
            row = [str(i), str(int(ds.timestamp[i])), str(int(ds.y[i]))]
            row += [repr(float(v)) for v in ds.x_pre[i]]
            row += [repr(float(v)) for v in ds.x_in[i]]
            writer.writerow(row)


def load_delimited(path) -> TwoPhaseDataset:
    """Parse a delimited dataset; the in-service block may be absent."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, header required") from None
        header = [h.strip() for h in header]
        for col in ("user_id", "ts", "y"):
            if col not in header:
                raise ParseError(f"{path}: missing column {col!r}")
        d_pre = sum(h.startswith("pre_") for h in header)
        d_in = sum(h.startswith("in_") for h in header)
        if header != _header(d_pre, d_in):
            raise ParseError(f"{path}: header does not match schema "
                             f"user_id, ts, y, pre_*, in_*")

        ts_list, y_list, pre_rows, in_rows = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            try:
                ts_list.append(int(row[1]))
                label = int(row[2])
                pre_rows.append([float(v) for v in row[3:3 + d_pre]])
                in_rows.append([float(v) for v in row[3 + d_pre:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric cell "
                                 f"({exc})") from None
            if label not in (0, 1):
                raise ParseError(f"{path}:{lineno}: label {label} "
                                 "outside {0, 1}")
            y_list.append(label)

    n = len(y_list)
    x_pre = np.array(pre_rows, dtype=np.float64).reshape(n, d_pre)
    x_in = np.array(in_rows, dtype=np.float64).reshape(n, d_in)
    finite = np.isfinite(x_pre).all(axis=1) & np.isfinite(x_in).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        col = np.argmin(np.isfinite(np.concatenate([x_pre[row], x_in[row]])))
        raise ParseError(f"{path}:{row + 2}: non-finite value in column "
                         f"{header[3 + col]}")
    return TwoPhaseDataset(
        x_pre=x_pre,
        x_in=x_in,
        y=np.array(y_list, dtype=np.int64),
        timestamp=np.array(ts_list, dtype=np.int64),
        split=np.full(n, "", dtype="<U5"),
    )


def temporal_split(ds: TwoPhaseDataset, frac_valid: float,
                   frac_test: float) -> TwoPhaseDataset:
    """Tag rows chronologically: oldest train, then valid, newest test.

    Rows whose timestamp ties the boundary go to the earlier split, so no
    timestamp ever straddles two splits.
    """
    if frac_valid <= 0.0 or frac_test <= 0.0 or frac_valid + frac_test >= 1.0:
        raise ConfigError("split fractions must be positive and sum below 1")
    n = ds.n
    order = np.argsort(ds.timestamp, kind="stable")
    ts_sorted = ds.timestamp[order]

    t_start = n - int(n * frac_test)
    while 0 < t_start < n and ts_sorted[t_start] == ts_sorted[t_start - 1]:
        t_start += 1
    v_start = n - int(n * frac_test) - int(n * frac_valid)
    while 0 < v_start < t_start and ts_sorted[v_start] == ts_sorted[v_start - 1]:
        v_start += 1

    if v_start == 0 or v_start >= t_start or t_start >= n:
        raise SplitError("temporal split left an empty partition")
    split = np.full(n, "", dtype="<U5")
    split[order[:v_start]] = "train"
    split[order[v_start:t_start]] = "valid"
    split[order[t_start:]] = "test"
    out = ds.copy()
    out.split = split
    return out


@dataclass
class Scaler:
    """Per-column standardization statistics fitted on the train split."""

    mean_pre: np.ndarray
    std_pre: np.ndarray
    mean_in: np.ndarray
    std_in: np.ndarray


def _fit_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0) if x.size else np.zeros(x.shape[1])
    std = x.std(axis=0) if x.size else np.ones(x.shape[1])
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def fit_standardize(ds: TwoPhaseDataset) -> Scaler:
    """Fit column statistics on the train rows only (no leakage)."""
    mask = ds.mask("train")
    if not mask.any():
        raise SplitError("cannot fit scaler: no train rows tagged")
    mean_pre, std_pre = _fit_columns(ds.x_pre[mask])
    mean_in, std_in = _fit_columns(ds.x_in[mask])
    return Scaler(mean_pre, std_pre, mean_in, std_in)


def apply_standardize(ds: TwoPhaseDataset, scaler: Scaler) -> TwoPhaseDataset:
    out = ds.copy()
    out.x_pre = (ds.x_pre - scaler.mean_pre) / scaler.std_pre
    if ds.d_in:
        out.x_in = (ds.x_in - scaler.mean_in) / scaler.std_in
    return out
