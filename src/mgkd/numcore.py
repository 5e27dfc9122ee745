"""Dense MLP substrate: forward/backward passes, Adam, gradient checking.

The model is an encoder stack (affine + ReLU + inverted dropout per hidden
layer) followed by a single-logit linear classifier, so the representation
produced by the encoder is available to the training loop alongside the
logit. Backprop accepts two upstream gradients: one w.r.t. the logits and
one w.r.t. the representation, which lets the trainer mix prediction-level
and representation-level losses without an autodiff framework.

Every parameter set (model, gradients, both Adam moments) is one contiguous
float64 vector, `FlatParams.flat`. Its order is the encoder layers, then
the classifier, each as weights (fan_in x fan_out, row-major) then bias;
that is also the order of `layers()`, `param_arrays()` and the model file.
The per-layer `Layer` views are the only way to reach the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, StateError


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Layer(NamedTuple):
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray     # (fan_out,)


class FlatParams:
    """One contiguous float64 vector and per-layer views into it.

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
            raise DimensionError(
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
    """He-uniform weights for the ReLU stack, zero biases everywhere."""
    if not 0.0 <= dropout_rate < 1.0:
        raise StateError(f"dropout_rate must be in [0,1), got {dropout_rate}")
    dims = [input_dim, *hidden_dims, 1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        layers.append((rng.uniform(-limit, limit, size=(fan_in, fan_out)),
                       np.zeros(fan_out)))
    return MlpModel.from_layers(layers, dropout_rate)


class Workspace:
    """Batch-sized buffers that one training run reuses on every step.

    Room for `rows` rows of: the gathered input rows (`x`) and teacher
    representation rows (`teacher_h`), each encoder layer's output
    (`act<i>`), one dropout draw (`draw`) and one bool buffer (`bool`) of
    the widest layer, two activation-gradient buffers (`grad0`, `grad1`),
    and the MSE feature loss's difference (`diff`) and square (`square`);
    plus one set of parameter gradients (`grads`). `forward`, `backward`
    and `losses.feat_loss` write into it, so every array they return from
    it, and a ForwardCache built on it, is valid only until the next step.
    """

    def __init__(self, model: MlpModel, rows: int):
        widths = [fan_out for _, fan_out in model.shapes[:-1]]
        widest = max([model.repr_dim, *widths])
        sizes = {"x": model.input_dim, "teacher_h": model.repr_dim,
                 **{f"act{i}": width for i, width in enumerate(widths)},
                 "draw": widest, "grad0": widest, "grad1": widest,
                 "diff": model.repr_dim, "square": model.repr_dim}
        self.buffers = {name: np.empty(rows * width)
                        for name, width in sizes.items()}
        self.buffers["bool"] = np.empty(rows * widest, dtype=bool)
        self.grads = model.zeros_like()

    def take(self, name: str, rows: np.ndarray, idx) -> np.ndarray:
        """`rows[idx]` gathered into buffer `name`; `idx` must be in range.

        mode="clip" lets np.take write straight into the buffer, where the
        default mode="raise" fills a temporary first.
        """
        out = _room(self, name, (len(idx), rows.shape[1]))
        return np.take(rows, idx, axis=0, out=out, mode="clip")


def _room(ws: Workspace | None, name: str, shape: tuple[int, ...]):
    """`ws`'s buffer `name` viewed as a C-contiguous array of `shape`.

    Without a workspace this is None, so a numpy `out=` allocates. It is
    private so that perfbench/tracer.py, which wraps every public function,
    does not record a span for each call.
    """
    if ws is None:
        return None
    buf, size = ws.buffers[name], math.prod(shape)
    if size > buf.size:
        raise StateError(f"workspace buffer {name!r} holds {buf.size} "
                         f"values, {size} needed")
    return buf[:size].reshape(shape)


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
        raise DimensionError(
            f"input has {x.shape[1]} columns, model expects {model.input_dim}")
    if mode not in ("train", "eval"):
        raise StateError(f"unknown forward mode {mode!r}")
    use_dropout = mode == "train" and model.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise StateError("train-mode forward with dropout needs an rng")

    a = x
    n = x.shape[0]
    post_acts = []
    for i, layer in enumerate(model.encoder):
        shape = (n, layer.weights.shape[1])
        a = np.matmul(a, layer.weights, out=_room(ws, f"act{i}", shape))
        a += layer.bias
        np.maximum(a, 0.0, out=a)
        if use_dropout:
            # Inverted dropout: the same draw and products as multiplying
            # by the float mask (draw >= rate) / keep.
            draw = rng.random(shape, out=_room(ws, "draw", shape))
            a *= 1.0 / (1.0 - model.dropout_rate)
            a *= np.greater_equal(draw, model.dropout_rate,
                                  out=_room(ws, "bool", shape))
        post_acts.append(a)

    h = a
    z = (h @ model.classifier.weights).ravel() + model.classifier.bias[0]
    p = sigmoid(z)
    if not (np.isfinite(h, out=_room(ws, "bool", h.shape)).all()
            and np.all(np.isfinite(z))):
        raise NumericError("forward pass produced non-finite activations")
    return ForwardCache(x, [], post_acts, [], h, z, p, mode)


def backward(model: MlpModel, cache: ForwardCache, grad_logit,
             grad_repr=None, ws: Workspace | None = None) -> FlatParams:
    """Reverse-accumulate parameter gradients from two upstream channels.

    `grad_logit` is dL/dz per sample; `grad_repr` is dL/dH and is injected
    at the encoder output in addition to the classifier path. None means
    a zero `grad_repr`. The input gradient of `encoder[0]` is not computed.
    Without a workspace the gradients are new arrays on every call; with
    one they are `ws.grads`, overwritten by the next call.

    Both gates are read from the layer output. A train-mode output is 0
    where dropout dropped the unit, so gating on output > 0 and scaling by
    1/keep equals multiplying by the mask; where the unit was kept, output
    > 0 exactly when the pre-activation is > 0.
    """
    if len(cache.post_acts) != len(model.encoder):
        raise StateError("cache does not match model layer count")
    n = cache.z.shape[0]
    grad_logit = np.asarray(grad_logit, dtype=np.float64)
    if grad_logit.shape != (n,):
        raise DimensionError(
            f"grad_logit shape {grad_logit.shape} != ({n},)")
    if grad_repr is not None:
        grad_repr = np.asarray(grad_repr, dtype=np.float64)
        if grad_repr.shape != cache.h.shape:
            raise DimensionError(
                f"grad_repr shape {grad_repr.shape} != {cache.h.shape}")
    if cache.h.shape[1] != model.repr_dim:
        raise StateError("cache representation width does not match model")

    grads = model.zeros_like() if ws is None else ws.grads
    dz = grad_logit
    np.matmul(cache.h.T, dz[:, None], out=grads.classifier.weights)
    grads.classifier.bias[0] = dz.sum()
    da = np.multiply(dz[:, None], model.classifier.weights[:, 0][None, :],
                     out=_room(ws, "grad0", cache.h.shape))
    if grad_repr is None:
        da += 0.0  # -0.0 to +0.0, as adding a zeros grad_repr did
    else:
        da += grad_repr

    dropped = cache.mode == "train" and model.dropout_rate > 0.0
    for i in range(len(model.encoder) - 1, -1, -1):
        a_prev = cache.post_acts[i - 1] if i > 0 else cache.x
        if dropped:
            da *= 1.0 / (1.0 - model.dropout_rate)
        da *= np.greater(cache.post_acts[i], 0.0,
                         out=_room(ws, "bool", da.shape))
        np.matmul(a_prev.T, da, out=grads.encoder[i].weights)
        np.sum(da, axis=0, out=grads.encoder[i].bias)
        if i > 0:
            buffer = f"grad{(len(model.encoder) - i) % 2}"  # the other one
            da = np.matmul(da, model.encoder[i].weights.T,
                           out=_room(ws, buffer, a_prev.shape))
    return grads


@dataclass
class AdamState:
    """First/second-moment accumulators, flat like the model parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(model: MlpModel, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(np.zeros_like(model.flat), np.zeros_like(model.flat),
                     0, beta1, beta2, eps)


def adam_step(model: MlpModel, grads: FlatParams, state: AdamState,
              lr: float, weight_decay: float = 0.0) -> tuple[MlpModel, AdamState]:
    """One Adam update in place; weight decay is classic L2 added to grads."""
    if not np.all(np.isfinite(grads.flat)):
        name = next(name for name, g in grads.param_arrays()
                    if not np.all(np.isfinite(g)))
        raise NumericError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    g, m, v = grads.flat, state.m, state.v
    if weight_decay != 0.0:
        g = g + weight_decay * model.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    model.flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model, state


GRAD_CHECK_MAX_PARAMS = 10_000


def grad_check(loss_fn, model: MlpModel, eps: float = 1e-5,
               rng: np.random.Generator | None = None,
               sample_size: int = 1500) -> float:
    """Worst relative error between analytic and central-difference grads.

    `loss_fn(model)` must return `(value, FlatParams gradients)`. Above
    GRAD_CHECK_MAX_PARAMS parameters a random subsample of coordinates is
    checked to bound the runtime.
    """
    if eps <= 0:
        raise StateError("eps must be positive")
    _, grads = loss_fn(model)
    flat, total = model.flat, model.flat.size

    if total > GRAD_CHECK_MAX_PARAMS:
        if rng is None:
            rng = np.random.default_rng(0)
        indices = rng.choice(total, size=min(sample_size, total),
                             replace=False)
    else:
        indices = np.arange(total)

    worst = 0.0
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + eps
        plus, _ = loss_fn(model)
        flat[idx] = orig - eps
        minus, _ = loss_fn(model)
        flat[idx] = orig
        numeric = (plus - minus) / (2.0 * eps)
        analytic = grads.flat[idx]
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst
