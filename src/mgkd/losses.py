"""Training losses for the teacher/student objective.

Every loss returns a LossValue carrying the scalar plus its gradient w.r.t.
the student logits and (where relevant) the student representation.
`objective` is the one place that mixes the terms into the training loss,
and the trainer feeds both channels to backprop. The teacher/snapshot side
of every distillation term is treated as a constant.

Temperature acts on logits: both sides of a softened KL term are
sigmoid(z / tau), and the softened losses carry the conventional tau^2
scale so their gradient magnitude stays comparable across temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numcore import Workspace, _room, sigmoid

PROB_CLAMP = 1e-7


@dataclass
class LossValue:
    value: float
    grad_logit: np.ndarray | None = None  # (n,); None means zero
    grad_repr: np.ndarray | None = None   # (n, d); None means zero


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def kl_hard(y, p, weights=None, n: int | None = None) -> LossValue:
    """Weighted cross-entropy (binary KL against one-hot targets)."""
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = len(y) if n is None else n
    pc = _clamp(p)
    ce = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    grad_logit = pc - y
    if weights is not None:  # no weights means unit ones: 1.0 * x is x
        w = np.asarray(weights, dtype=np.float64)
        ce *= w
        grad_logit *= w
    grad_logit /= n
    return LossValue(float(np.sum(ce) / n), grad_logit, None)


def kl_soft(teacher_logits, student_logits, tau: float,
            n: int | None = None) -> LossValue:
    """Temperature-softened two-class KL from teacher to student.

    Gradient flows to the student logits only; the teacher side is a
    constant.
    """
    zt = np.asarray(teacher_logits, dtype=np.float64)
    zs = np.asarray(student_logits, dtype=np.float64)
    n = len(zt) if n is None else n
    qt = _clamp(sigmoid(zt / tau))
    qs = _clamp(sigmoid(zs / tau))
    kl = qt * np.log(qt / qs) + (1.0 - qt) * np.log((1.0 - qt) / (1.0 - qs))
    value = float(tau * tau * (np.sum(kl) / n))
    grad_logit = tau * (qs - qt) / n
    return LossValue(value, grad_logit, None)


def feat_loss(h_teacher, h_student, metric: str = "mse",
              ws: Workspace | None = None, n: int | None = None) -> LossValue:
    """Representation alignment loss of two (n, d) arrays, and its gradient
    w.r.t. the student rows.

    With a workspace the MSE gradient is written into its `grad1` buffer,
    which `h_teacher` may already be (`ws.take("grad1", ...)`), and the
    squares into `grad0`: `numcore.backward` writes `grad0` only after the
    value is taken, and `grad1` only after it has added `grad_repr`.
    Float32 operands keep the arithmetic in float32. Under cosine, a row
    where either side has norm 0 counts as cosine 0 (distance 1) and gets a
    zero gradient.
    """
    ht, hs = h_teacher, h_student
    n, d = len(hs) if n is None else n, hs.shape[1]
    if metric == "mse":
        dtype = np.result_type(hs, ht)
        diff = np.subtract(hs, ht, out=_room(ws, "grad1", hs.shape, dtype))
        square = np.multiply(diff, diff,
                             out=_room(ws, "grad0", hs.shape, dtype))
        value = float(np.sum(square) / (n * d))
        diff *= 2.0
        diff /= n * d
        return LossValue(value, None, diff)
    if metric != "cosine":
        raise ConfigError(f"unknown feature metric {metric!r}")
    nt = np.linalg.norm(ht, axis=1)
    ns = np.linalg.norm(hs, axis=1)
    zero = (nt == 0.0) | (ns == 0.0)
    # A zero row's dot product is 0, so its cosine is 0 / 1.
    norms = np.where(zero, 1.0, nt * ns)
    cos = np.sum(ht * hs, axis=1) / norms
    value = float(np.sum(1.0 - cos) / n)
    grad_repr = -(ht / norms[:, None]
                  - (cos / np.where(zero, 1.0, ns * ns))[:, None] * hs
                  ) / n
    grad_repr[zero] = 0.0
    return LossValue(value, None, grad_repr)


def reweight(y, pi1: float) -> np.ndarray:
    """Per-sample weights 1/pi_c, where pi1 is the train positive share and
    pi0 = 1 - pi1."""
    y = np.asarray(y)
    return np.where(y == 1, 1.0 / pi1, 1.0 / (1.0 - pi1))


def objective(cfg, cache, y, weights=None, teacher_h=None, teacher_z=None,
              snapshot=None, ws: Workspace | None = None,
              n: int | None = None) -> tuple[LossValue, dict[str, float]]:
    """(1 - alpha) * hard + alpha * soft + beta * feat + lam * self.

    One batch's training loss and each term's value, 0.0 for a term left
    out: soft at alpha = 0, feat at beta = 0, self at lam = 0 or with no
    snapshot. `cfg` holds the settings (a DistillConfig, which checks
    their ranges), `cache` is the student's ForwardCache and the rest are
    the batch's rows. With `n`, the rows are one tile of an n-row batch:
    every mean divides by n, so the tiles' values and gradients sum to the
    batch's. The hard term is `kl_hard` under `weights`. `ws` is passed on
    to `feat_loss`, and feat's `grad_repr` is scaled by beta in place and
    becomes the total's. The self term is the softened KL from the
    previous epoch's logits to the current ones.
    """
    alpha, beta, lam = cfg.alpha, cfg.beta, cfg.lam
    hard = kl_hard(y, cache.p, weights, n)
    terms = {"hard": hard.value, "soft": 0.0, "feat": 0.0, "self": 0.0}
    value, grad_logit, grad_repr = hard.value, hard.grad_logit, None
    if alpha > 0.0:
        soft = kl_soft(teacher_z, cache.z, cfg.tau, n)
        terms["soft"] = soft.value
        value = (1.0 - alpha) * hard.value + alpha * soft.value
        grad_logit = (1.0 - alpha) * hard.grad_logit \
            + alpha * soft.grad_logit
    if beta > 0.0:
        feat = feat_loss(teacher_h, cache.h, cfg.feat_metric, ws, n)
        terms["feat"] = feat.value
        value += beta * feat.value
        grad_repr = feat.grad_repr
        grad_repr *= beta
    if lam > 0.0 and snapshot is not None:
        self_part = kl_soft(snapshot, cache.z, cfg.tau, n)
        terms["self"] = self_part.value
        value += lam * self_part.value
        grad_logit = grad_logit + lam * self_part.grad_logit
    return LossValue(value, grad_logit, grad_repr), terms
