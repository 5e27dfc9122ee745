"""Ranking metrics for scored splits: AUC, KS, Recall@k.

AUC uses the rank-sum formula with midranks for ties; KS scans the
empirical CDFs of the two classes at every observed score; Recall@10 takes
the ceiling of 10% of rows and breaks score ties by original index. All
three read the tie groups of one unstable sort, equal a stable sort's
values bit for bit and hold one int64 per row, tie group and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

KS_BLOCK = 32_768  # tie groups per KS block: about 1 MB of temporaries
_K_PERCENT = 10.0  # Recall@10: the top 10% of rows


def _validate(scores, labels, need_negative=True):
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
    return scores, pos, n_pos, n_neg


def _rank(scores: np.ndarray, pos: np.ndarray):
    """Sort order, tie-group bounds and the positives' sorted positions.

    A tie group starts wherever a sorted value differs from the one before
    it (so -0.0 and 0.0 share a group). Group g holds sorted positions
    bounds[g] to bounds[g + 1] - 1, in no particular order; bounds[-1] is n.
    """
    order = np.argsort(scores)
    pos_at = np.flatnonzero(pos[order])
    s_sorted = scores[order]
    new = np.ones(scores.size + 1, bool)
    np.not_equal(s_sorted[1:], s_sorted[:-1], out=new[1:-1])
    del s_sorted  # before the bounds are made
    return order, np.flatnonzero(new), pos_at


def _auc(ranked, n_pos: int, n_neg: int) -> float:
    # A group's midrank is (start + stop + 1) / 2: twice the positive rank
    # sum is an exact integer, equal to the float sum while below 2**53.
    _, bounds, pos_at = ranked
    g = np.searchsorted(bounds, pos_at, side="right")  # each one's stop
    twice = int(np.sum(bounds[g])) + n_pos
    g -= 1  # in place, not a second array: each one's start
    twice += int(np.sum(bounds[g]))
    return (twice / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ks(ranked, n_pos: int, n_neg: int) -> float:
    _, bounds, pos_at = ranked
    best = 0.0
    for b in range(1, bounds.size, KS_BLOCK):  # each group's CDF gap
        stops = bounds[b:b + KS_BLOCK]
        below = np.searchsorted(pos_at, stops)  # positives before each stop
        gaps = np.abs(below / n_pos - (stops - below) / n_neg)
        best = max(best, float(np.max(gaps)))
    return best


def _recall(ranked, pos, n_pos: int, k_percent: float) -> float:
    order, bounds, pos_at = ranked
    n = order.size
    cut = n - math.ceil(k_percent / 100.0 * n)  # first kept sorted position
    # The groups above g, the one holding `cut`, and g's lowest indices.
    g = np.searchsorted(bounds, cut, side="right") - 1
    stop = bounds[g + 1]
    tied = np.sort(order[bounds[g]:stop])[:stop - cut]
    hits = n_pos - np.searchsorted(pos_at, stop) + np.count_nonzero(pos[tied])
    return float(hits) / n_pos


def auc(scores, labels) -> float:
    """Rank-formula AUC: (sum of positive ranks - n+(n+ + 1)/2) / (n+ n-)."""
    scores, pos, n_pos, n_neg = _validate(scores, labels)
    return _auc(_rank(scores, pos), n_pos, n_neg)


def ks(scores, labels) -> float:
    """Max gap between the class-conditional empirical score CDFs."""
    scores, pos, n_pos, n_neg = _validate(scores, labels)
    return _ks(_rank(scores, pos), n_pos, n_neg)


def recall_at_k(scores, labels) -> float:
    """Fraction of all positives inside the top 10% of scores."""
    scores, pos, n_pos, _ = _validate(scores, labels, need_negative=False)
    return _recall(_rank(scores, pos), pos, n_pos, _K_PERCENT)


@dataclass
class EvalReport:
    """Metrics for one scored split plus run metadata."""

    auc: float
    ks: float
    recall_at_k: float
    k_percent: float = _K_PERCENT
    n_pos: int = 0
    n_neg: int = 0
    split: str = ""
    seed: int | None = None
    mode: str = ""


def evaluate(scores, labels, split: str = "", seed: int | None = None,
             mode: str = "") -> EvalReport:
    scores, pos, n_pos, n_neg = _validate(scores, labels)
    ranked = _rank(scores, pos)
    return EvalReport(
        auc=_auc(ranked, n_pos, n_neg),
        ks=_ks(ranked, n_pos, n_neg),
        recall_at_k=_recall(ranked, pos, n_pos, _K_PERCENT),
        n_pos=n_pos,
        n_neg=n_neg,
        split=split,
        seed=seed,
        mode=mode,
    )
