"""Ranking metrics for scored splits: AUC, KS, Recall@k.

AUC uses the rank-sum formula with midranks for ties; KS scans the
empirical CDFs of the two classes at every observed score; Recall@k takes
the ceiling of k% of rows and breaks score ties by original index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


def _validate(scores, labels, need_negative=True):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise MetricError("scores and labels must be equal-length 1-D, "
                          "nonempty")
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores must be finite")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or (need_negative and n_neg == 0):
        raise MetricError("need at least one positive and one negative")
    return scores, labels, n_pos, n_neg


def _midranks(scores: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks with tied values assigned their average."""
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    # A tie group starts wherever a sorted value differs from the one
    # before it (so -0.0 and 0.0 share a group); its members sit at
    # sorted positions starts..ends and all get 0.5 * (start + end) + 1.
    starts = np.flatnonzero(np.concatenate(
        ([True], s_sorted[1:] != s_sorted[:-1])))
    ends = np.append(starts[1:], scores.size) - 1
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc(scores, labels) -> float:
    """Rank-formula AUC: (sum of positive ranks - n+(n+ + 1)/2) / (n+ n-)."""
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ks(scores, labels) -> float:
    """Max gap between the class-conditional empirical score CDFs."""
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    thresholds = np.unique(scores)
    pos_sorted = np.sort(scores[labels == 1])
    neg_sorted = np.sort(scores[labels == 0])
    f1 = np.searchsorted(pos_sorted, thresholds, side="right") / n_pos
    f0 = np.searchsorted(neg_sorted, thresholds, side="right") / n_neg
    return float(np.max(np.abs(f1 - f0)))


def recall_at_k(scores, labels, k_percent: float = 10.0) -> float:
    """Fraction of all positives inside the top k% of scores."""
    if not 0.0 < k_percent <= 100.0:
        raise MetricError(f"k_percent must be in (0, 100], got {k_percent}")
    scores, labels, n_pos, _ = _validate(scores, labels, need_negative=False)
    m = math.ceil(k_percent / 100.0 * scores.size)
    # Stable sort on negated scores: ties keep original index order.
    top = np.argsort(-scores, kind="stable")[:m]
    return float(np.sum(labels[top] == 1)) / n_pos


@dataclass
class EvalReport:
    """Metrics for one scored split plus run metadata."""

    auc: float
    ks: float
    recall_at_k: float
    k_percent: float = 10.0
    n_pos: int = 0
    n_neg: int = 0
    split: str = ""
    seed: int | None = None
    mode: str = ""


def evaluate(scores, labels, k_percent: float = 10.0, split: str = "",
             seed: int | None = None, mode: str = "") -> EvalReport:
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    return EvalReport(
        auc=auc(scores, labels),
        ks=ks(scores, labels),
        recall_at_k=recall_at_k(scores, labels, k_percent),
        k_percent=k_percent,
        n_pos=n_pos,
        n_neg=n_neg,
        split=split,
        seed=seed,
        mode=mode,
    )
