"""Portable binary model files.

Layout (all little-endian): magic b"MGKD", uint32 version, uint8 feature
mode (0=pre, 1=in, 2=both), float64 dropout rate, uint32 encoder layer
count, then per layer (encoder layers first, classifier last) a shape
table entry of two uint32 dims followed by the weight matrix and the bias
vector as float64. The layer order is that of `numcore.FlatParams`; the
shapes must chain and every parameter must be finite, or the file is
rejected with `DataError`.
"""

from __future__ import annotations

import io
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import DataError
from .numcore import Layer, MlpModel

MAGIC = b"MGKD"
VERSION = 1
FEATURE_MODES = ("pre", "in", "both")


def _write_layer(fh, layer: Layer) -> None:
    rows, cols = layer.weights.shape
    fh.write(struct.pack("<II", rows, cols))
    fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _read(fh, n: int, path, what: str) -> bytes:
    chunk = fh.read(min(n, sys.maxsize))  # a corrupt shape can exceed it
    if len(chunk) != n:
        raise DataError(f"{path}: truncated {what}")
    return chunk


def _read_layer(fh, path) -> Layer:
    rows, cols = struct.unpack("<II", _read(fh, 8, path, "layer header"))
    weights = _read(fh, rows * cols * 8, path, "layer data")
    bias = _read(fh, cols * 8, path, "layer data")
    return Layer(np.frombuffer(weights, dtype="<f8").reshape(rows, cols),
                 np.frombuffer(bias, dtype="<f8"))


def save_model(model: MlpModel, path, feature_mode: str) -> None:
    """Write `model`, which reads block `feature_mode`, to `path`.

    The bytes go to a temporary file that is renamed into place, so the
    file at `path` is always whole. Missing parent directories are made.
    """
    if feature_mode not in FEATURE_MODES:
        raise DataError(f"unknown feature mode {feature_mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IBd", VERSION,
                                 FEATURE_MODES.index(feature_mode),
                                 model.dropout_rate))
            fh.write(struct.pack("<I", len(model.encoder)))
            for layer in model.layers():
                _write_layer(fh, layer)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_model(path) -> tuple[MlpModel, str]:
    # Whole-file read: a corrupt length can then never allocate past it.
    fh = io.BytesIO(Path(path).read_bytes())
    if fh.read(4) != MAGIC:
        raise DataError(f"{path}: bad magic, not a model file")
    version, mode_code, dropout = struct.unpack(
        "<IBd", _read(fh, 13, path, "header"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if mode_code >= len(FEATURE_MODES):
        raise DataError(f"{path}: bad feature mode {mode_code}")
    if not 0.0 <= dropout < 1.0:  # DistillConfig's range; False for nan
        raise DataError(f"{path}: dropout rate {dropout} not in [0, 1)")
    (n_layers,) = struct.unpack("<I", _read(fh, 4, path, "header"))
    layers = [_read_layer(fh, path) for _ in range(n_layers + 1)]
    if fh.read(1):
        raise DataError(f"{path}: trailing bytes after the classifier")
    try:
        model = MlpModel.from_layers(layers, dropout)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    for name, array in model.param_arrays():
        if not np.isfinite(array).all():
            raise DataError(f"{path}: non-finite value in {name}")
    return model, FEATURE_MODES[mode_code]
