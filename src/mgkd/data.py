"""Two-phase datasets: synthetic generation, file I/O, splitting, scaling.

Each user carries a pre-service feature row, an in-service feature row, a
default label and a timestamp. The synthetic generator draws a scalar
latent risk per user and emits both feature blocks as noisy views of it,
with the in-service block given a higher signal-to-noise ratio that grows
with the observation window, so models with in-service access have a real
information advantage.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConfigError, DataError
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
    sha256: str | None = None  # hex digest of the file it was loaded from

    def __post_init__(self):
        n = self.x_pre.shape[0]
        for name in ("x_in", "y", "timestamp", "split"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(f"dataset field {name} has wrong length")
        y = self.y  # integers by min and max, with no temporary array
        if not ((y.dtype.kind in "biu" and y.size and y.min() >= 0
                 and y.max() <= 1) or np.isin(y, (0, 1)).all()):
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

    def labels(self, split: str) -> np.ndarray:
        """The split's labels; DataError unless it holds both classes."""
        y = self.y[self.mask(split)]
        n_pos = np.count_nonzero(y)
        if n_pos in (0, len(y)):
            raise DataError(f"the {split} split has {n_pos} positive and "
                            f"{len(y) - n_pos} negative rows; it needs both")
        return y

    def features(self, block: str, split: str) -> np.ndarray:
        """The split's rows of block "pre", "in" or "both" (pre then in)."""
        rows = self.mask(split)
        if block == "both":
            return np.hstack([self.x_pre[rows], self.x_in[rows]])
        if block in ("pre", "in"):
            return getattr(self, f"x_{block}")[rows]
        raise ConfigError(f"unknown feature block {block!r}")


def check_finite(cfg) -> None:
    """Raise ConfigError if any float field of dataclass `cfg` is nan/inf."""
    for name, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


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
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if min(self.n, self.d_in, self.seed, self.window_gain) < 0:
            raise ConfigError("n, d_in, seed and window_gain must be "
                              "nonnegative")
        if self.d_pre < 1:
            raise ConfigError(f"d_pre must be at least 1, got {self.d_pre}")
        if self.window_days not in (30, 60, 90):
            raise ConfigError(f"window_days must be 30/60/90, "
                              f"got {self.window_days}")
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError("positive_rate must be in (0,1)")
        if self.snr_pre <= 0.0 or self.snr_in_base <= 0.0:
            raise ConfigError("signal-to-noise ratios must be positive")
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
        raise ConfigError(
            f"could not calibrate positive rate {target} in {max_steps} steps")
    return b


def generate_synthetic(cfg: SyntheticConfig) -> TwoPhaseDataset:
    """Draw a deterministic two-phase dataset from the latent-risk model."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal(cfg.n)
    b = _calibrate_intercept(cfg.positive_rate)
    y = (rng.random(cfg.n) < sigmoid(LATENT_SLOPE * z + b)).astype(np.int64)

    def block(d: int, snr: float) -> np.ndarray:
        loadings = rng.standard_normal(d)
        loadings /= np.abs(loadings)  # column-normalize: unit signal variance
        x = np.empty((cfg.n, d))
        for rows in _row_blocks(cfg.n):
            rng.standard_normal(out=x[rows])  # one draw's stream order
            x[rows] *= math.sqrt(1.0 / snr)
            x[rows] += z[rows, None] * loadings
        return x

    x_pre = block(cfg.d_pre, cfg.snr_pre)
    x_in = block(cfg.d_in, cfg.snr_in(cfg.window_days))
    timestamp = rng.integers(0, 365 * 86_400, size=cfg.n)
    split = np.full(cfg.n, "", dtype="<U5")
    return TwoPhaseDataset(x_pre, x_in, y, timestamp, split)


def _header(d_pre: int, d_in: int) -> list[str]:
    return (["user_id", "ts", "y"] + [f"pre_{j}" for j in range(d_pre)]
            + [f"in_{j}" for j in range(d_in)])


def sidecar_path(path) -> Path:
    """The binary copy of a CSV's rows that `save_delimited` writes."""
    path = Path(path)
    return path.with_name(path.name + ".sidecar")


def _row_dtype(width: int) -> np.dtype:
    return np.dtype([("ts", "<i8"), ("y", "<i8"), ("x", "<f8", (width,))])


# Generating, writing and standardizing work BLOCK_ROWS rows at a time,
# so each holds one block's temporaries, not the whole dataset's.
BLOCK_ROWS = 512


def _row_blocks(n: int):
    return (slice(a, min(a + BLOCK_ROWS, n)) for a in range(0, n, BLOCK_ROWS))


_INT64 = np.iinfo(np.int64)


def save_delimited(ds: TwoPhaseDataset, path) -> str:
    """Write the dataset as CSV with exact round-trip float text, and its
    sidecar; return the sha256 of the CSV's bytes.

    Rows are formatted a row block at a time, one `write` each: commas,
    shortest-`repr` floats and CRLF line ends. The sidecar holds the same
    rows as little-endian records, then the sha256 of those record bytes
    followed by the CSV's digest: it vouches for itself and for one CSV.
    """
    csv_hash, side_hash = hashlib.sha256(), hashlib.sha256()
    dtype = _row_dtype(ds.d_pre + ds.d_in)
    with open(path, "wb") as fh, open(sidecar_path(path), "wb") as side:
        def write(out, digest, data) -> None:
            digest.update(data)
            out.write(data)

        write(fh, csv_hash,
              (",".join(_header(ds.d_pre, ds.d_in)) + "\r\n").encode())
        for rows in _row_blocks(ds.n):
            rec = np.empty(rows.stop - rows.start, dtype)
            rec["ts"], rec["y"] = ds.timestamp[rows], ds.y[rows]
            rec["x"] = np.hstack([ds.x_pre[rows], ds.x_in[rows]])
            write(side, side_hash, rec)
            write(fh, csv_hash, "".join(
                ",".join(map(repr, [uid, t, label, *row])) + "\r\n"
                for uid, t, label, row in zip(
                    range(rows.start, rows.stop), rec["ts"].tolist(),
                    rec["y"].tolist(), rec["x"].tolist())).encode())
        side_hash.update(csv_hash.digest())
        side.write(side_hash.digest())
    return csv_hash.hexdigest()


def _read_sidecar(path, csv_digest: bytes, dtype: np.dtype,
                  n: int) -> np.ndarray | None:
    """The sidecar's n rows if it vouches for itself and for `csv_digest`."""
    try:
        with open(sidecar_path(path), "rb") as fh:
            if os.fstat(fh.fileno()).st_size != n * dtype.itemsize + 32:
                return None
            rec = np.empty(n, dtype)
            fh.readinto(rec)
            trailer = fh.read(33)
    except OSError:
        return None
    side_hash = hashlib.sha256(rec)
    side_hash.update(csv_digest)
    return rec if trailer == side_hash.digest() else None


def load_delimited(path) -> TwoPhaseDataset:
    """Parse a delimited dataset; the in-service block may be absent.

    One streaming pass hashes the file and counts its lines and commas.
    If the file's sidecar holds rows for exactly these bytes, they stand
    in for the parse. Otherwise numpy's streaming reader parses the rows
    into one record array. Either way, when a line is blank or has extra
    fields, or a label or feature is out of range, `_raise_first_bad_line`
    rescans the file and names the first line that breaks a rule.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file, header required")
        csv_hash = hashlib.sha256(first)
        lines = commas = 0
        last = b"\n"
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            csv_hash.update(chunk)
            lines += chunk.count(b"\n")
            commas += chunk.count(b",")
            last = chunk[-1:]
        lines += last != b"\n"  # a last line with no line end

        header = [h.strip() for h in _decode_line(path, 1, first).split(",")]
        for col in ("user_id", "ts", "y"):
            if col not in header:
                raise DataError(f"{path}: missing column {col!r}")
        d_pre = sum(h.startswith("pre_") for h in header)
        d_in = sum(h.startswith("in_") for h in header)
        if header != _header(d_pre, d_in):
            raise DataError(f"{path}: header does not match schema "
                            f"user_id, ts, y, pre_*, in_*")
        if d_pre == 0:
            raise DataError(f"{path}: header has no pre_* column")

        def clean(rec) -> bool:
            return (rec is not None and rec.shape[0] == lines
                    and commas == lines * (len(header) - 1)
                    and np.isin(rec["y"], (0, 1)).all()
                    and np.isfinite(rec["x"]).all())

        dtype = _row_dtype(d_pre + d_in)
        rec = _read_sidecar(path, csv_hash.digest(), dtype, lines)
        if not clean(rec):
            fh.seek(len(first))
            try:
                with warnings.catch_warnings():
                    # A header-only file is a valid empty dataset.
                    warnings.filterwarnings("ignore", "loadtxt: input "
                                            "contained no data", UserWarning)
                    rec = np.loadtxt(fh, dtype=dtype, delimiter=",",
                                     usecols=range(1, len(header)),
                                     comments=None, ndmin=1,
                                     encoding="utf-8")
            except ValueError:
                rec = None
            if not clean(rec):
                _raise_first_bad_line(path, header)
    return TwoPhaseDataset(x_pre=rec["x"][:, :d_pre].copy(),
                           x_in=rec["x"][:, d_pre:].copy(),
                           y=rec["y"].copy(), timestamp=rec["ts"].copy(),
                           split=np.full(lines, "", dtype="<U5"),
                           sha256=csv_hash.hexdigest())


def _decode_line(path, lineno: int, line: bytes) -> str:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}:{lineno}: not UTF-8 text "
                        f"({exc.reason})") from None
    return text.removesuffix("\n").removesuffix("\r")


def _number_text(cell: str) -> str:
    # What `np.loadtxt` takes as a number: whitespace around it is
    # stripped; ASCII digits only, with no `_` separators.
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {cell!r}")
    return text


def _int64_cell(cell: str) -> int:
    value = int(_number_text(cell))
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"integer {value} outside the int64 range")
    return value


def _raise_first_bad_line(path, header: list[str]) -> NoReturn:
    """Rescan a rejected file and raise a DataError naming its first bad line.

    The cell rules are the ones `np.loadtxt` applies (`_number_text`, and
    `ts` and `y` fit in int64). On top of those, every line has exactly
    the header's fields, labels are 0 or 1 and features are finite.
    """
    with open(path, "rb") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            text = _decode_line(path, lineno, line)
            if "\r" in text:
                raise DataError(f"{path}:{lineno}: carriage return inside "
                                "the line")
            row = text.split(",") if text else []
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected "
                                f"{len(header)} fields, got {len(row)}")
            try:
                _int64_cell(row[1])
                label = _int64_cell(row[2])
                values = [float(_number_text(v)) for v in row[3:]]
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: bad cell ({err})") \
                    from None
            if label not in (0, 1):
                raise DataError(f"{path}:{lineno}: label {label} "
                                "outside {0, 1}")
            for name, value in zip(header[3:], values):
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: non-finite value "
                                    f"in column {name}")
    raise DataError(f"{path}: rows do not parse")


def temporal_split(ds: TwoPhaseDataset, frac_valid: float,
                   frac_test: float) -> TwoPhaseDataset:
    """Tag rows chronologically: oldest train, then valid, newest test.

    Rows whose timestamp ties the boundary go to the earlier split, so no
    timestamp ever straddles two splits. Only `split` is a new array.
    """
    if not (min(frac_valid, frac_test) > 0.0 and frac_valid + frac_test < 1.0):
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
        raise DataError("temporal split left an empty partition")
    split = np.full(n, "", dtype="<U5")
    split[order[:v_start]] = "train"
    split[order[v_start:t_start]] = "valid"
    split[order[t_start:]] = "test"
    return replace(ds, split=split)


@dataclass
class Scaler:
    """Per-column standardization statistics fitted on the train split."""

    mean_pre: np.ndarray
    std_pre: np.ndarray
    mean_in: np.ndarray
    std_in: np.ndarray


def _fit_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean, std = x.mean(axis=0), x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def fit_standardize(ds: TwoPhaseDataset) -> Scaler:
    """Fit column statistics on the train rows only (no leakage)."""
    mask = ds.mask("train")
    if not mask.any():
        raise DataError("cannot fit scaler: no train rows tagged")
    mean_pre, std_pre = _fit_columns(ds.x_pre[mask])
    mean_in, std_in = _fit_columns(ds.x_in[mask])
    return Scaler(mean_pre, std_pre, mean_in, std_in)


def _standardized(x, mean, std) -> np.ndarray:
    # `(x - mean) / std` into the result, a row block at a time, in cache.
    out = np.empty(x.shape, np.result_type(x, mean, std))
    for rows in _row_blocks(x.shape[0]):
        np.subtract(x[rows], mean, out=out[rows])
        out[rows] /= std
    return out


def apply_standardize(ds: TwoPhaseDataset, scaler: Scaler) -> TwoPhaseDataset:
    """`ds` with standardized feature blocks; it shares the other arrays."""
    x_in = _standardized(ds.x_in, scaler.mean_in, scaler.std_in) \
        if ds.d_in else ds.x_in
    return replace(ds, x_pre=_standardized(ds.x_pre, scaler.mean_pre,
                                           scaler.std_pre), x_in=x_in)
