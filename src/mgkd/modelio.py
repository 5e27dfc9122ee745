"""Portable binary model files.

Layout (all little-endian): magic b"MGKD", uint32 version, uint8 feature
mode (0=pre, 1=in, 2=both), float64 dropout rate, uint32 encoder layer
count, then per layer (encoder layers first, classifier last) a shape
table entry of two uint32 dims followed by the weight matrix and the bias
vector as float64. The layer order is that of `numcore.FlatParams`; the
shapes must chain, or the file is rejected with `ParseError`.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParseError
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
    chunk = fh.read(n)
    if len(chunk) != n:
        raise ParseError(f"{path}: truncated {what}")
    return chunk


def _read_layer(fh, path) -> Layer:
    rows, cols = struct.unpack("<II", _read(fh, 8, path, "layer header"))
    weights = _read(fh, rows * cols * 8, path, "layer data")
    bias = _read(fh, cols * 8, path, "layer data")
    return Layer(np.frombuffer(weights, dtype="<f8").reshape(rows, cols),
                 np.frombuffer(bias, dtype="<f8"))


def save_model(model: MlpModel, path, feature_mode: str = "pre") -> None:
    if feature_mode not in FEATURE_MODES:
        raise ParseError(f"unknown feature mode {feature_mode!r}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBd", VERSION,
                             FEATURE_MODES.index(feature_mode),
                             model.dropout_rate))
        fh.write(struct.pack("<I", len(model.encoder)))
        for layer in model.layers():
            _write_layer(fh, layer)


def load_model(path) -> tuple[MlpModel, str]:
    # Whole-file read: a corrupt length can then never allocate past it.
    fh = io.BytesIO(Path(path).read_bytes())
    if fh.read(4) != MAGIC:
        raise ParseError(f"{path}: bad magic, not a model file")
    version, mode_code, dropout = struct.unpack(
        "<IBd", _read(fh, 13, path, "header"))
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    if mode_code >= len(FEATURE_MODES):
        raise ParseError(f"{path}: bad feature mode {mode_code}")
    (n_layers,) = struct.unpack("<I", _read(fh, 4, path, "header"))
    layers = [_read_layer(fh, path) for _ in range(n_layers + 1)]
    if fh.read(1):
        raise ParseError(f"{path}: trailing bytes after the classifier")
    try:
        model = MlpModel.from_layers(layers, dropout)
    except DimensionError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return model, FEATURE_MODES[mode_code]
