"""Dense MLP substrate: forward/backward passes and Adam.

The model is an encoder stack (affine + ReLU + inverted dropout per hidden
layer) followed by a single-logit linear classifier, so the representation
produced by the encoder is available to the training loop alongside the
logit. Backprop accepts two upstream gradients: one w.r.t. the logits and
one w.r.t. the representation, which lets the trainer mix prediction-level
and representation-level losses without an autodiff framework.

Every parameter set (model, gradients, both Adam moments) is one contiguous
vector, `FlatParams.flat`. Its order is the encoder layers, then the
classifier, each as weights (fan_in x fan_out, row-major) then bias; that
is also the order of `layers()`, `param_arrays()` and the model file.
The per-layer `Layer` views are the only way to reach the weights.
Activations take the input's dtype (float32 stays float32, anything else
becomes float64) and parameter gradients the model's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, TrainingError


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    a = a if a.dtype == np.float32 else a.astype(np.float64, copy=False)
    if a.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic: 1/(1+e) if z >= 0 else e/(1+e), e = exp(-|z|) <= 1."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e  # in place: a 0-d input stays an array
    return out


class Layer(NamedTuple):
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray     # (fan_out,)


class FlatParams:
    """One contiguous vector and per-layer views into it.

    `shapes` holds each layer's (fan_in, fan_out), encoder layers first and
    the classifier last. Writes through a view land in `flat` and the
    reverse, so models, gradients and Adam moments share one layout.
    """

    def __init__(self, flat: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        self.flat = flat
        self.shapes = shapes
        views, offset = [], 0
        for fan_in, fan_out in shapes:
            end = offset + fan_in * fan_out
            views.append(Layer(flat[offset:end].reshape(fan_in, fan_out),
                               flat[end:end + fan_out]))
            offset = end + fan_out
        *encoder, self.classifier = views
        self.encoder = tuple(encoder)

    def zeros_like(self) -> "FlatParams":
        return FlatParams(np.zeros_like(self.flat), self.shapes)

    def layers(self) -> list[Layer]:
        return [*self.encoder, self.classifier]

    def param_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Named views on every parameter array (mutable, used in-place)."""
        names = [f"encoder[{i}]" for i in range(len(self.encoder))]
        return [(f"{name}.{part}", getattr(layer, part))
                for name, layer in zip([*names, "classifier"], self.layers())
                for part in ("weights", "bias")]


class MlpModel(FlatParams):
    """Encoder stack plus single-logit classifier head."""

    def __init__(self, flat, shapes, dropout_rate: float = 0.0):
        super().__init__(flat, shapes)
        self.dropout_rate = dropout_rate

    @classmethod
    def from_layers(cls, layers, dropout_rate: float = 0.0) -> "MlpModel":
        """Pack `(weights, bias)` pairs, encoder first, into one vector.

        The only constructor that takes layers: their shapes must chain
        into a single-logit MLP.
        """
        layers = [Layer(np.asarray(w, dtype=np.float64),
                        np.asarray(b, dtype=np.float64)) for w, b in layers]
        shapes = tuple(w.shape for w, _ in layers)
        # 2-D weights, one bias per output, each fan-in equal to the
        # previous fan-out, and a single logit out of the classifier.
        chained = bool(layers) and shapes[-1][1:] == (1,) and all(
            len(s) == 2 and b.shape == s[1:]
            and (i == 0 or s[0] == shapes[i - 1][1])
            for i, (s, (_, b)) in enumerate(zip(shapes, layers)))
        if not chained:
            raise DataError(
                f"layer shapes do not chain into one logit: weights "
                f"{list(shapes)}, biases {[b.shape for _, b in layers]}")
        flat = np.concatenate([a.ravel() for layer in layers for a in layer])
        return cls(flat, shapes, dropout_rate)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def repr_dim(self) -> int:
        return self.shapes[-1][0]

    def copy(self) -> "MlpModel":
        return MlpModel(self.flat.copy(), self.shapes, self.dropout_rate)


def init_mlp(input_dim: int, hidden_dims: list[int], dropout_rate: float,
             rng: np.random.Generator) -> MlpModel:
    """He-uniform weights for the ReLU stack, zero biases everywhere;
    `dropout_rate` is in [0, 1), as DistillConfig checks."""
    dims = [input_dim, *hidden_dims, 1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        layers.append((rng.uniform(-limit, limit, size=(fan_in, fan_out)),
                       np.zeros(fan_out)))
    return MlpModel.from_layers(layers, dropout_rate)


class Workspace:
    """Scratch buffers reused by a run's steps and eval passes.

    A training step's buffers are the gathered rows `x`, each encoder
    layer's output `act<i>`, the bool keep flags and ReLU gate `bool`, the
    parameter gradients `grads`, and backward's two gradient buffers
    `grad0` and `grad1`, which the MSE feature loss also uses. An eval pass
    writes only `act<i>`. A buffer is keyed by name and dtype, so float32
    steps and float64 passes share a workspace. It is allocated on its
    first request and again only when a later request for its key is
    larger, so one workspace serves batches and passes of any size.
    `forward`, `backward` and `losses.feat_loss` write into it, so every
    array they return from it, and a ForwardCache built on it, is valid
    only until the next call that writes into it.
    """

    def __init__(self):
        self.buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def take(self, name: str, rows: np.ndarray, idx) -> np.ndarray:
        """`rows[idx]` gathered into buffer `name`; `idx` must be in range.

        mode="clip" lets np.take write straight into the buffer, where the
        default mode="raise" fills a temporary first.
        """
        out = _room(self, name, (len(idx), rows.shape[1]), rows.dtype)
        return np.take(rows, idx, axis=0, out=out, mode="clip")

    def reserve(self, shapes: tuple[tuple[int, int], ...], rows: int,
                dtype=np.float64, step: bool = False) -> "Workspace":
        """Size now the buffers that a `dtype` eval-mode `forward` of up to
        `rows` rows through a model of layer `shapes` writes, and with
        `step` those of a whole training step (the gathered `x`, forward,
        `losses.objective` and `backward`), so the pass makes none of them.
        Reserved for several models, a workspace fits each of them.
        """
        widths = [fan_out for _, fan_out in shapes[:-1]]
        for i, width in enumerate(widths):
            _room(self, f"act{i}", (rows, width), dtype)
        if step:
            # The gradient buffers hold the representation (the input
            # itself in a linear model) and each hidden layer's input.
            wide = max(fan_in for fan_in, _ in shapes[1:] or shapes)
            _room(self, "x", (rows, shapes[0][0]), dtype)
            _room(self, "bool", (rows, max(widths, default=0)), bool)
            _room(self, "grads", (sum((a + 1) * b for a, b in shapes),),
                  dtype)
            for name in ("grad0", "grad1"):
                _room(self, name, (rows, wide), dtype)
        return self


def _room(ws: Workspace | None, name: str, shape: tuple[int, ...],
          dtype=np.float64):
    """`ws`'s `dtype` buffer `name` as a C-contiguous array of `shape`.

    Without a workspace this is None, so a numpy `out=` allocates. It is
    private so that perfbench/tracer.py, which wraps every public function,
    does not record a span for each call.
    """
    if ws is None:
        return None
    size = math.prod(shape)
    key = name, np.dtype(dtype)
    buf = ws.buffers.get(key)
    if buf is None or buf.size < size:
        buf = ws.buffers[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


# Dropout keeps a unit when its 16-bit flag is >= k, so rates act as k/65536.
DROPOUT_LEVELS = 1 << 16
FLAG_CHUNK = 1 << 16  # flags per raw draw; a multiple of 4


def _dropout_k(rate: float) -> int:
    return int(rate * DROPOUT_LEVELS)  # floor, exact; rate < 1: k <= 65535


def _dropout_scale(rate: float) -> float:
    return DROPOUT_LEVELS / (DROPOUT_LEVELS - _dropout_k(rate))  # 1/keep


def _keep_flags(rng, k: int, shape, ws: Workspace | None) -> np.ndarray:
    """Bool `shape` array, True where a unit's flag is >= k. The flags are
    the little-endian 16-bit lanes of raw 64-bit draws, FLAG_CHUNK at a
    time: whole draws, so the chunking leaves the stream as it is."""
    flat = _room(ws or Workspace(), "bool", shape, bool).reshape(-1)
    for start in range(0, flat.size, FLAG_CHUNK):
        n = min(FLAG_CHUNK, flat.size - start)
        raw = rng.bit_generator.random_raw(-(-n // 4))
        lanes = raw.astype("<u8", copy=False).view(np.uint16)
        np.greater_equal(lanes[:n], k, out=flat[start:start + n])
    return flat.reshape(shape)


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward pass.

    `pre_acts` and `masks` are always empty; they stay only because
    perfbench/tracer.py reads them.
    """

    x: np.ndarray
    pre_acts: list[np.ndarray]   # always empty
    post_acts: list[np.ndarray]  # per encoder layer, after ReLU and dropout
    masks: list[np.ndarray]      # always empty
    h: np.ndarray                # representation, (n, repr_dim)
    z: np.ndarray                # logits, (n,)
    p: np.ndarray                # sigmoid(z), (n,)
    mode: str


def forward(model: MlpModel, x, mode: str = "eval",
            rng: np.random.Generator | None = None,
            ws: Workspace | None = None) -> ForwardCache:
    """Run the encoder and classifier, keeping intermediates for backprop.

    Each encoder layer keeps one array, its output, and no dropout mask.
    Train mode with a nonzero dropout rate draws the masks from `rng`.
    With a workspace every batch-by-width array is written into it.
    """
    x = _as_matrix(x, "x")
    if x.shape[1] != model.input_dim:
        raise DataError(
            f"input has {x.shape[1]} columns, model expects {model.input_dim}")
    if mode not in ("train", "eval"):
        raise TrainingError(f"unknown forward mode {mode!r}")
    use_dropout = mode == "train" and model.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise TrainingError("train-mode forward with dropout needs an rng")

    a = x
    n = x.shape[0]
    post_acts = []
    for i, layer in enumerate(model.encoder):
        shape = (n, layer.weights.shape[1])
        a = np.matmul(a, layer.weights,
                      out=_room(ws, f"act{i}", shape, x.dtype))
        a += layer.bias
        np.maximum(a, 0.0, out=a)
        if use_dropout:
            # Inverted dropout, as if multiplied by (flag >= k) * scale.
            a *= _dropout_scale(model.dropout_rate)
            a *= _keep_flags(rng, _dropout_k(model.dropout_rate), shape, ws)
        post_acts.append(a)

    h = a
    # Row by row: unlike BLAS's h @ w, a row's logit ignores its place.
    z = np.einsum("ij,j->i", h, model.classifier.weights[:, 0]) \
        + model.classifier.bias[0]
    p = sigmoid(z)
    # A non-finite h makes its row's logit non-finite too (inf * 0 is NaN).
    if not np.all(np.isfinite(z)):
        raise TrainingError("forward pass produced non-finite activations")
    return ForwardCache(x, [], post_acts, [], h, z, p, mode)


def backward(model: MlpModel, cache: ForwardCache, grad_logit,
             grad_repr=None, ws: Workspace | None = None) -> FlatParams:
    """Reverse-accumulate parameter gradients from two upstream channels.

    `grad_logit` is dL/dz per sample; `grad_repr` is dL/dH and is injected
    at the encoder output in addition to the classifier path. None means
    a zero `grad_repr`. Both are cast to the cache's dtype. The input
    gradient of `encoder[0]` is not computed.
    Without a workspace the gradients are new arrays on every call; with
    one they are views of its `grads` buffer, overwritten by the next call.

    Both gates are read from the layer output. A train-mode output is 0
    where dropout dropped the unit, so gating on output > 0 and scaling by
    1/keep equals multiplying by the mask; where the unit was kept, output
    > 0 exactly when the pre-activation is > 0.
    """
    if len(cache.post_acts) != len(model.encoder):
        raise TrainingError("cache does not match model layer count")
    n, dtype = cache.z.shape[0], cache.h.dtype
    grad_logit = np.asarray(grad_logit, dtype=dtype)
    if grad_logit.shape != (n,):
        raise DataError(f"grad_logit shape {grad_logit.shape} != ({n},)")
    if grad_repr is not None:
        grad_repr = np.asarray(grad_repr, dtype=dtype)
        if grad_repr.shape != cache.h.shape:
            raise DataError(
                f"grad_repr shape {grad_repr.shape} != {cache.h.shape}")
    if cache.h.shape[1] != model.repr_dim:
        raise TrainingError("cache representation width does not match model")

    grads = model.zeros_like() if ws is None else \
        FlatParams(_room(ws, "grads", model.flat.shape, model.flat.dtype),
                   model.shapes)
    dz = grad_logit
    np.matmul(cache.h.T, dz[:, None], out=grads.classifier.weights)
    grads.classifier.bias[0] = dz.sum()
    da = np.multiply(dz[:, None], model.classifier.weights[:, 0][None, :],
                     out=_room(ws, "grad0", cache.h.shape, dtype))
    if grad_repr is None:
        da += 0.0  # -0.0 to +0.0, as adding a zeros grad_repr did
    else:
        da += grad_repr

    dropped = cache.mode == "train" and model.dropout_rate > 0.0
    for i in range(len(model.encoder) - 1, -1, -1):
        a_prev = cache.post_acts[i - 1] if i > 0 else cache.x
        if dropped:
            da *= _dropout_scale(model.dropout_rate)
        da *= np.greater(cache.post_acts[i], 0.0,
                         out=_room(ws, "bool", da.shape, dtype=bool))
        _rows_product(a_prev, da, grads.encoder[i].weights)
        np.sum(da, axis=0, out=grads.encoder[i].bias)
        if i > 0:
            buffer = f"grad{(len(model.encoder) - i) % 2}"  # the other one
            da = np.matmul(da, model.encoder[i].weights.T,
                           out=_room(ws, buffer, a_prev.shape, dtype))
    return grads


def _rows_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """`a.T @ b`, a reduction over the rows, into `out`: one product over
    the first multiple of 32 rows plus one over the rest. OpenBLAS gives
    the same bits under one and two threads only for a multiple of 32
    rows, and so does the sum of the two products."""
    cut = len(a) - len(a) % 32
    if 0 < cut < len(a):
        np.matmul(a[:cut].T, b[:cut], out=out)
        out += a[cut:].T @ b[cut:]
    else:
        np.matmul(a.T, b, out=out)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment accumulators, flat like the model parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(model: MlpModel) -> AdamState:
    return AdamState(np.zeros_like(model.flat), np.zeros_like(model.flat))


def adam_step(model: MlpModel, grads: FlatParams, state: AdamState,
              lr: float, weight_decay: float = 0.0) -> None:
    """One in-place Adam update in the model's dtype, with L2 weight decay."""
    if not np.all(np.isfinite(grads.flat)):
        name = next(name for name, g in grads.param_arrays()
                    if not np.all(np.isfinite(g)))
        raise TrainingError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g, m, v = grads.flat.astype(model.flat.dtype, copy=False), state.m, state.v
    if weight_decay != 0.0:
        g = g + weight_decay * model.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    model.flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
