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

from .errors import ConfigError, DimensionError
from .numcore import Workspace, _as_matrix, _room, sigmoid

PROB_CLAMP = 1e-7


@dataclass
class LossValue:
    value: float
    grad_logit: np.ndarray | None = None  # (n,); None means zero
    grad_repr: np.ndarray | None = None   # (n, d); None means zero


@dataclass
class ClassPriors:
    """Training-split class proportions, pi0 + pi1 = 1."""

    pi0: float
    pi1: float

    def __post_init__(self):
        if not (self.pi0 > 0.0 and self.pi1 > 0.0):
            raise ConfigError("class priors must be strictly positive")
        if abs(self.pi0 + self.pi1 - 1.0) > 1e-12:
            raise ConfigError("class priors must sum to 1")

    @classmethod
    def from_labels(cls, y) -> "ClassPriors":
        y = np.asarray(y)
        pi1 = float(np.mean(y == 1))
        return cls(1.0 - pi1, pi1)


def _check_lengths(*vecs):
    n = len(vecs[0])
    for v in vecs[1:]:
        if len(v) != n:
            raise DimensionError(
                f"length mismatch: {len(v)} != {n}")
    return n


def _sample_weights(y, weights) -> np.ndarray:
    if weights is None:
        return np.ones(len(y))
    w = np.asarray(weights, dtype=np.float64)
    _check_lengths(y, w)
    return w


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def kl_hard(y, p, weights=None) -> LossValue:
    """Weighted cross-entropy (binary KL against one-hot targets)."""
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = _check_lengths(y, p)
    w = _sample_weights(y, weights)
    pc = _clamp(p)
    ce = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    value = float(np.mean(w * ce))
    grad_logit = w * (pc - y) / n
    return LossValue(value, grad_logit, None)


def kl_soft(teacher_logits, student_logits, tau: float) -> LossValue:
    """Temperature-softened two-class KL from teacher to student.

    Gradient flows to the student logits only; the teacher side is a
    constant.
    """
    if tau < 1.0:
        raise ConfigError(f"temperature must be >= 1, got {tau}")
    zt = np.asarray(teacher_logits, dtype=np.float64)
    zs = np.asarray(student_logits, dtype=np.float64)
    n = _check_lengths(zt, zs)
    qt = _clamp(sigmoid(zt / tau))
    qs = _clamp(sigmoid(zs / tau))
    kl = qt * np.log(qt / qs) + (1.0 - qt) * np.log((1.0 - qt) / (1.0 - qs))
    value = float(tau * tau * np.mean(kl))
    grad_logit = tau * (qs - qt) / n
    return LossValue(value, grad_logit, None)


def feat_loss(h_teacher, h_student, metric: str = "mse",
              ws: Workspace | None = None) -> LossValue:
    """Representation alignment loss; gradient w.r.t. the student rows.

    With a workspace the MSE gradient is the workspace's `diff` buffer.
    Float32 operands keep the arithmetic in float32. Under cosine, a row
    where either side has norm 0 counts as cosine 0 (distance 1) and gets a
    zero gradient.
    """
    ht = _as_matrix(h_teacher, "h_teacher")
    hs = _as_matrix(h_student, "h_student")
    if ht.shape != hs.shape:
        raise DimensionError(
            f"representation shapes differ: {ht.shape} vs {hs.shape}")
    n, d = hs.shape
    if metric == "mse":
        dtype = np.result_type(hs, ht)
        diff = np.subtract(hs, ht, out=_room(ws, "diff", hs.shape, dtype))
        square = np.multiply(diff, diff,
                             out=_room(ws, "square", hs.shape, dtype))
        value = float(np.mean(square))
        diff *= 2.0
        diff /= n * d
        return LossValue(value, None, diff)
    if metric == "cosine":
        nt = np.linalg.norm(ht, axis=1)
        ns = np.linalg.norm(hs, axis=1)
        zero = (nt == 0.0) | (ns == 0.0)
        # A zero row's dot product is 0, so its cosine is 0 / 1.
        norms = np.where(zero, 1.0, nt * ns)
        cos = np.sum(ht * hs, axis=1) / norms
        value = float(np.mean(1.0 - cos))
        grad_repr = -(ht / norms[:, None]
                      - (cos / np.where(zero, 1.0, ns * ns))[:, None] * hs
                      ) / n
        grad_repr[zero] = 0.0
        return LossValue(value, None, grad_repr)
    raise ConfigError(f"unknown feature metric {metric!r}")


def reweight(y, priors: ClassPriors) -> np.ndarray:
    """Per-sample weights 1/pi_c, inversely proportional to class priors."""
    y = np.asarray(y)
    return np.where(y == 1, 1.0 / priors.pi1, 1.0 / priors.pi0)


def focal_loss(y, p, gamma: float = 2.0, weights=None) -> LossValue:
    """Cross-entropy modulated by (1 - p_t)^gamma; gamma=0 is exactly CE."""
    if gamma < 0.0:
        raise ConfigError(f"gamma must be nonnegative, got {gamma}")
    if gamma == 0.0:
        return kl_hard(y, p, weights)
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = _check_lengths(y, p)
    w = _sample_weights(y, weights)
    pc = _clamp(p)
    pt = np.where(y == 1, pc, 1.0 - pc)
    mod = (1.0 - pt) ** gamma
    value = float(np.mean(w * mod * (-np.log(pt))))
    dl_dpt = w * (-gamma * (1.0 - pt) ** (gamma - 1.0) * (-np.log(pt))
                  - mod / pt)
    sign = np.where(y == 1, 1.0, -1.0)
    grad_logit = dl_dpt * sign * pc * (1.0 - pc) / n
    return LossValue(value, grad_logit, None)


# What each DistillConfig.hard_term name means: (reweighted, focal), that is
# sample weights 1/pi_c from `reweight`, and `focal_loss` for `kl_hard`.
HARD_TERMS = {"ce": (False, False), "reweighted": (True, False),
              "focal": (False, True), "reweighted_focal": (True, True)}


def hard_loss(cfg, y, p, weights=None) -> LossValue:
    """The hard term that `cfg.hard_term` names, on probabilities `p`."""
    _, focal = HARD_TERMS[cfg.hard_term]
    return focal_loss(y, p, cfg.gamma if focal else 0.0, weights)  # 0: CE


def objective(cfg, cache, y, weights=None, teacher_h=None, teacher_z=None,
              snapshot=None, ws: Workspace | None = None,
              ) -> tuple[LossValue, dict[str, float]]:
    """(1 - alpha) * hard + alpha * soft + beta * feat + lam * self.

    One batch's training loss and each term's value, 0.0 for a term left
    out: soft at alpha = 0, feat at beta = 0, self at lam = 0 or with no
    snapshot. `cfg` holds the settings (a DistillConfig), `cache` is the
    student's ForwardCache and the rest are the batch's rows. `ws` is
    passed on to `feat_loss`, and feat's `grad_repr` is scaled by beta in
    place and becomes the total's. The self term is the softened KL from
    the previous epoch's logits to the current ones.
    """
    alpha, beta, lam = cfg.alpha, cfg.beta, cfg.lam
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0,1], got {alpha}")
    if beta < 0.0 or lam < 0.0:
        raise ConfigError("beta and lambda must be nonnegative")
    hard = hard_loss(cfg, y, cache.p, weights)
    terms = {"hard": hard.value, "soft": 0.0, "feat": 0.0, "self": 0.0}
    value, grad_logit, grad_repr = hard.value, hard.grad_logit, None
    if alpha > 0.0:
        soft = kl_soft(teacher_z, cache.z, cfg.tau)
        terms["soft"] = soft.value
        value = (1.0 - alpha) * hard.value + alpha * soft.value
        grad_logit = (1.0 - alpha) * hard.grad_logit \
            + alpha * soft.grad_logit
    if beta > 0.0:
        feat = feat_loss(teacher_h, cache.h, cfg.feat_metric, ws)
        terms["feat"] = feat.value
        value += beta * feat.value
        grad_repr = feat.grad_repr
        grad_repr *= beta
    if lam > 0.0 and snapshot is not None:
        self_part = kl_soft(snapshot, cache.z, cfg.tau)
        terms["self"] = self_part.value
        value += lam * self_part.value
        grad_logit = grad_logit + lam * self_part.grad_logit
    return LossValue(value, grad_logit, grad_repr), terms
