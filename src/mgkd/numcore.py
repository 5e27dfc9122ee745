"""Dense MLP substrate: forward/backward passes, Adam, gradient checking.

The model is an encoder stack (affine + ReLU + inverted dropout per hidden
layer) followed by a single-logit linear classifier, so the representation
produced by the encoder is available to the training loop alongside the
logit. Backprop accepts two upstream gradients: one w.r.t. the logits and
one w.r.t. the representation, which lets the trainer mix prediction-level
and representation-level losses without an autodiff framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, StateError


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with shape validation and a finiteness check."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    out = a @ b
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix product contains non-finite entries")
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray     # (fan_out,)

    def copy(self) -> "Layer":
        return Layer(self.weights.copy(), self.bias.copy())


class LayerStack:
    """Parameter layout of models, gradients and Adam moments: the encoder
    layers in order, then the classifier, each as weights then bias."""

    encoder: list[Layer]
    classifier: Layer

    def layers(self) -> list[Layer]:
        return [*self.encoder, self.classifier]

    def param_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Named views on every parameter array (mutable, used in-place)."""
        names = [f"encoder[{i}]" for i in range(len(self.encoder))]
        return [(f"{name}.{part}", getattr(layer, part))
                for name, layer in zip([*names, "classifier"], self.layers())
                for part in ("weights", "bias")]


@dataclass
class MlpModel(LayerStack):
    """Encoder stack plus single-logit classifier head."""

    encoder: list[Layer]
    classifier: Layer          # weights (repr_dim, 1), bias (1,)
    dropout_rate: float = 0.0
    input_dim: int = 0

    @property
    def repr_dim(self) -> int:
        return self.classifier.weights.shape[0]

    def copy(self) -> "MlpModel":
        *encoder, classifier = [l.copy() for l in self.layers()]
        return MlpModel(encoder, classifier, self.dropout_rate,
                        self.input_dim)


def init_mlp(input_dim: int, hidden_dims: list[int], dropout_rate: float,
             rng: np.random.Generator) -> MlpModel:
    """He-uniform weights for the ReLU stack, zero biases everywhere."""
    if not 0.0 <= dropout_rate < 1.0:
        raise StateError(f"dropout_rate must be in [0,1), got {dropout_rate}")
    dims = [input_dim, *hidden_dims]
    encoder = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        encoder.append(Layer(
            weights=rng.uniform(-limit, limit, size=(fan_in, fan_out)),
            bias=np.zeros(fan_out),
        ))
    d = dims[-1]
    limit = math.sqrt(6.0 / d)
    classifier = Layer(
        weights=rng.uniform(-limit, limit, size=(d, 1)),
        bias=np.zeros(1),
    )
    return MlpModel(encoder, classifier, dropout_rate, input_dim)


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward pass."""

    x: np.ndarray
    pre_acts: list[np.ndarray]   # per encoder layer, before ReLU
    post_acts: list[np.ndarray]  # per encoder layer, after ReLU and dropout
    masks: list[np.ndarray]      # inverted-dropout masks (all-ones in eval)
    h: np.ndarray                # representation, (n, repr_dim)
    z: np.ndarray                # logits, (n,)
    p: np.ndarray                # sigmoid(z), (n,)
    mode: str


def forward(model: MlpModel, x, mode: str = "eval",
            rng: np.random.Generator | None = None) -> ForwardCache:
    """Run the encoder and classifier, keeping intermediates for backprop.

    Eval mode is deterministic (identity dropout masks); train mode with a
    nonzero dropout rate draws masks from `rng`.
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
    pre_acts, post_acts, masks = [], [], []
    keep = 1.0 - model.dropout_rate
    for layer in model.encoder:
        s = a @ layer.weights + layer.bias
        r = np.maximum(s, 0.0)
        if use_dropout:
            mask = (rng.random(r.shape) >= model.dropout_rate) / keep
        else:
            mask = np.ones_like(r)
        a = r * mask
        pre_acts.append(s)
        post_acts.append(a)
        masks.append(mask)

    h = a
    z = (h @ model.classifier.weights).ravel() + model.classifier.bias[0]
    p = sigmoid(z)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(z))):
        raise NumericError("forward pass produced non-finite activations")
    return ForwardCache(x, pre_acts, post_acts, masks, h, z, p, mode)


@dataclass
class Gradients(LayerStack):
    """Parameter gradients mirroring the model structure."""

    encoder: list[Layer]
    classifier: Layer


def backward(model: MlpModel, cache: ForwardCache, grad_logit,
             grad_repr) -> Gradients:
    """Reverse-accumulate parameter gradients from two upstream channels.

    `grad_logit` is dL/dz per sample; `grad_repr` is dL/dH and is injected
    at the encoder output in addition to the classifier path. Either may be
    all zeros.
    """
    if len(cache.pre_acts) != len(model.encoder):
        raise StateError("cache does not match model layer count")
    n = cache.z.shape[0]
    grad_logit = np.asarray(grad_logit, dtype=np.float64)
    grad_repr = np.asarray(grad_repr, dtype=np.float64)
    if grad_logit.shape != (n,):
        raise DimensionError(
            f"grad_logit shape {grad_logit.shape} != ({n},)")
    if grad_repr.shape != cache.h.shape:
        raise DimensionError(
            f"grad_repr shape {grad_repr.shape} != {cache.h.shape}")
    if cache.h.shape[1] != model.repr_dim:
        raise StateError("cache representation width does not match model")

    dz = grad_logit
    g_clf = Layer(
        weights=cache.h.T @ dz[:, None],
        bias=np.array([dz.sum()]),
    )
    da = dz[:, None] * model.classifier.weights[:, 0][None, :] + grad_repr

    g_encoder: list[Layer | None] = [None] * len(model.encoder)
    for i in range(len(model.encoder) - 1, -1, -1):
        layer = model.encoder[i]
        a_prev = cache.post_acts[i - 1] if i > 0 else cache.x
        ds = da * cache.masks[i] * (cache.pre_acts[i] > 0.0)
        g_encoder[i] = Layer(weights=a_prev.T @ ds, bias=ds.sum(axis=0))
        da = ds @ layer.weights.T
    return Gradients(g_encoder, g_clf)


@dataclass
class AdamState:
    """First/second-moment accumulators shaped like the model parameters."""

    m: Gradients
    v: Gradients
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _zeros_like_model(model: MlpModel) -> Gradients:
    *encoder, classifier = [Layer(np.zeros_like(l.weights),
                                  np.zeros_like(l.bias))
                            for l in model.layers()]
    return Gradients(encoder, classifier)


def init_adam(model: MlpModel, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(_zeros_like_model(model), _zeros_like_model(model),
                     0, beta1, beta2, eps)


def adam_step(model: MlpModel, grads: Gradients, state: AdamState,
              lr: float, weight_decay: float = 0.0) -> tuple[MlpModel, AdamState]:
    """One Adam update in place; weight decay is classic L2 added to grads."""
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    params = model.param_arrays()
    triples = zip(params, grads.param_arrays(),
                  state.m.param_arrays(), state.v.param_arrays())
    for (name, theta), (_, g), (_, m), (_, v) in triples:
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        if weight_decay != 0.0:
            g = g + weight_decay * theta
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model, state


GRAD_CHECK_MAX_PARAMS = 10_000


def grad_check(loss_fn, model: MlpModel, eps: float = 1e-5,
               rng: np.random.Generator | None = None,
               sample_size: int = 1500) -> float:
    """Worst relative error between analytic and central-difference grads.

    `loss_fn(model)` must return `(value, Gradients)`. Above
    GRAD_CHECK_MAX_PARAMS parameters a random subsample of coordinates is
    checked to bound the runtime.
    """
    if eps <= 0:
        raise StateError("eps must be positive")
    _, grads = loss_fn(model)
    arrays = model.param_arrays()
    flat_analytic = np.concatenate(
        [g.ravel() for _, g in grads.param_arrays()])
    sizes = [a.size for _, a in arrays]
    total = int(sum(sizes))

    if total > GRAD_CHECK_MAX_PARAMS:
        if rng is None:
            rng = np.random.default_rng(0)
        indices = rng.choice(total, size=min(sample_size, total),
                             replace=False)
    else:
        indices = np.arange(total)

    offsets = np.cumsum([0, *sizes])
    worst = 0.0
    for idx in indices:
        which = int(np.searchsorted(offsets, idx, side="right") - 1)
        local = int(idx - offsets[which])
        arr = arrays[which][1]
        flat = arr.ravel()
        orig = flat[local]
        flat[local] = orig + eps
        plus, _ = loss_fn(model)
        flat[local] = orig - eps
        minus, _ = loss_fn(model)
        flat[local] = orig
        numeric = (plus - minus) / (2.0 * eps)
        analytic = flat_analytic[idx]
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst
