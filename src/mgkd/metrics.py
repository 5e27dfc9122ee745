"""Ranking metrics for scored splits: AUC, KS, Recall@k.

AUC uses the rank-sum formula with midranks for ties; KS scans the
empirical CDFs of the two classes at every observed score; Recall@k takes
the ceiling of k% of rows and breaks score ties by original index. All
three read the tie groups of one unstable sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


def _validate(scores, labels, need_negative=True, k_percent=10.0):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise DataError("scores and labels must be equal-length 1-D, "
                        "nonempty")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    pos = labels == 1
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(labels == 0))
    if n_pos + n_neg != scores.size:
        raise DataError("labels must be 0 or 1")
    if n_pos == 0 or (need_negative and n_neg == 0):
        raise DataError("need at least one positive and one negative")
    if not 0.0 < k_percent <= 100.0:  # before any sort
        raise DataError(f"k_percent must be in (0, 100], got {k_percent}")
    return scores, pos, n_pos, n_neg


def _rank(scores: np.ndarray, pos: np.ndarray):
    """Sort order, tie groups and cumulative positives of one sort.

    A tie group starts wherever a sorted value differs from the one before
    it (so -0.0 and 0.0 share a group); its members sit at sorted positions
    starts..ends, in no particular order. `cpos[i]` counts the positives
    among the first i sorted rows.
    """
    order = np.argsort(scores)
    s_sorted = scores[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], s_sorted[1:] != s_sorted[:-1])))
    ends = np.append(starts[1:], scores.size) - 1
    cpos = np.empty(scores.size + 1, np.int64)  # summed in place
    cpos[0], cpos[1:] = 0, pos[order]
    return order, starts, ends, np.cumsum(cpos, out=cpos)


def _auc(ranked, n_pos: int, n_neg: int) -> float:
    # A group's midrank is (start + end + 2) / 2: twice the positive rank
    # sum is an exact integer, equal to the float sum while below 2**53.
    _, starts, ends, cpos = ranked
    twice = int(np.dot(starts + ends + 2, cpos[ends + 1] - cpos[starts]))
    return (twice / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ks(ranked, n_pos: int, n_neg: int) -> float:
    _, _, ends, cpos = ranked
    below = cpos[ends + 1]  # positives at or below each distinct score
    return float(np.max(np.abs(below / n_pos - (ends + 1 - below) / n_neg)))


def _recall(ranked, pos, n_pos: int, k_percent: float) -> float:
    order, starts, ends, cpos = ranked
    n = cpos.size - 1
    cut = n - math.ceil(k_percent / 100.0 * n)  # first kept sorted position
    # The groups above g, the one holding `cut`, and g's lowest indices.
    g = np.searchsorted(starts, cut, side="right") - 1
    tied = np.sort(order[starts[g]:ends[g] + 1])[:ends[g] - cut + 1]
    hits = cpos[n] - cpos[ends[g] + 1] + np.count_nonzero(pos[tied])
    return float(hits) / n_pos


def auc(scores, labels) -> float:
    """Rank-formula AUC: (sum of positive ranks - n+(n+ + 1)/2) / (n+ n-)."""
    scores, pos, n_pos, n_neg = _validate(scores, labels)
    return _auc(_rank(scores, pos), n_pos, n_neg)


def ks(scores, labels) -> float:
    """Max gap between the class-conditional empirical score CDFs."""
    scores, pos, n_pos, n_neg = _validate(scores, labels)
    return _ks(_rank(scores, pos), n_pos, n_neg)


def recall_at_k(scores, labels, k_percent: float = 10.0) -> float:
    """Fraction of all positives inside the top k% of scores."""
    scores, pos, n_pos, _ = _validate(scores, labels, need_negative=False,
                                      k_percent=k_percent)
    return _recall(_rank(scores, pos), pos, n_pos, k_percent)


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
    scores, pos, n_pos, n_neg = _validate(scores, labels, k_percent=k_percent)
    ranked = _rank(scores, pos)
    return EvalReport(
        auc=_auc(ranked, n_pos, n_neg),
        ks=_ks(ranked, n_pos, n_neg),
        recall_at_k=_recall(ranked, pos, n_pos, k_percent),
        k_percent=k_percent,
        n_pos=n_pos,
        n_neg=n_neg,
        split=split,
        seed=seed,
        mode=mode,
    )
