import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgkd import metrics
from mgkd.errors import DataError
from mgkd.metrics import EvalReport, _rank, auc, evaluate, ks, recall_at_k

from conftest import peak_bytes


def pairwise_auc(scores, labels):
    """Brute-force oracle: count positive-over-negative pairs, ties half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def scan_ks(scores, labels):
    """Oracle: evaluate both empirical CDFs at every observed score."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    best = 0.0
    for t in scores:
        f1 = np.mean(pos <= t)
        f0 = np.mean(neg <= t)
        best = max(best, abs(f1 - f0))
    return best


def recall_at(scores, labels, k_percent):
    """Recall at any k: `recall_at_k`'s `_recall` with k_percent in place
    of its fixed 10."""
    scores, pos, n_pos, _ = metrics._validate(scores, labels,
                                              need_negative=False)
    return metrics._recall(_rank(scores, pos), pos, n_pos, k_percent)


def naive_recall(scores, labels, k_percent):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    m = math.ceil(k_percent / 100.0 * len(scores))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    top = order[:m]
    return sum(labels[i] == 1 for i in top) / np.sum(labels == 1)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_equal_scores(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_count(self):
        # Pairwise oracle: 3 wins of 4 positive/negative pairs.
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class(self):
        with pytest.raises(DataError, match="one positive and one negative"):
            auc([0.1, 0.2], [1, 1])

    def test_monotone_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(80)
        labels = rng.integers(0, 2, 80)
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base,
                                                                abs=1e-12)

    def test_reversal_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(50).astype(float)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels))


class TestKs:
    def test_identical_distributions(self):
        assert ks([0.1, 0.2, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_perfect_separation(self):
        assert ks([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_hand_value(self):
        assert ks([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.5

    def test_single_class(self):
        with pytest.raises(DataError, match="one positive and one negative"):
            ks([0.1, 0.2], [0, 0])


class TestRecallAtK:
    def test_k_100(self):
        assert recall_at([0.3, 0.1, 0.9], [1, 0, 1], 100.0) == 1.0

    def test_top_positive(self):
        scores = np.linspace(1.0, 0.1, 10)
        labels = np.zeros(10, dtype=int)
        labels[0] = 1
        assert recall_at_k(scores, labels) == 1.0

    def test_half_captured(self):
        scores = np.linspace(1.0, 0.05, 20)
        labels = np.zeros(20, dtype=int)
        labels[0] = 1   # rank 1
        labels[4] = 1   # rank 5, outside top 2
        assert recall_at_k(scores, labels) == 0.5

    def test_ceiling_cutoff(self):
        # 10% of 11 rows -> top 2 by the ceiling rule.
        scores = np.linspace(1.0, 0.0, 11)
        labels = np.zeros(11, dtype=int)
        labels[1] = 1
        assert recall_at_k(scores, labels) == 1.0

    def test_no_positives(self):
        with pytest.raises(DataError, match="one positive and one negative"):
            recall_at_k([0.1, 0.2], [0, 0])


class TestOracleAgreement:
    def test_random_scored_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            if rng.random() < 0.5:
                scores = rng.integers(0, 6, n).astype(float)  # many ties
            else:
                scores = rng.standard_normal(n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            k = float(rng.uniform(5.0, 100.0))
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12)
            assert ks(scores, labels) == scan_ks(scores, labels)
            assert recall_at(scores, labels, k) == \
                naive_recall(scores, labels, k)
            assert recall_at_k(scores, labels) == \
                naive_recall(scores, labels, 10.0)


class TestLabels:
    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    @pytest.mark.parametrize("metric", [auc, ks, recall_at_k, evaluate])
    def test_only_zero_and_one(self, metric, bad):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            metric([0.1, 0.4, 0.35, 0.8, 0.5], [0, 1, 0, 1, bad])

    def test_bool_labels(self):
        scores, labels = [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]
        assert evaluate(scores, np.array(labels, dtype=bool)) == \
            evaluate(scores, labels)


class TestEvaluate:
    def test_report_fields(self):
        report = evaluate([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1],
                          split="test", seed=3, mode="full")
        assert report.auc == 0.75
        assert report.ks == 0.5
        assert report.n_pos == 2 and report.n_neg == 2
        assert report.split == "test" and report.seed == 3
        assert 0.0 <= report.recall_at_k <= 1.0
        assert report.k_percent == 10.0


def loop_midranks(scores):
    """The while-loop midranks that the whole-array version replaced."""
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def midranks(scores):
    """Each row's midrank, rebuilt from `_rank`'s order and group bounds."""
    order, bounds, _ = _rank(scores, np.zeros(scores.size, dtype=bool))
    starts, ends = bounds[:-1], bounds[1:] - 1
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


class TestMidranks:
    @pytest.mark.parametrize("scores", [
        np.random.default_rng(5).integers(0, 4, 500).astype(float),
        np.full(9, 0.25),
        np.array([0.7]),
        np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0]),
        np.random.default_rng(6).standard_normal(300),
    ], ids=["heavy_ties", "all_equal", "single", "signed_zeros", "no_ties"])
    def test_matches_loop(self, scores):
        assert np.array_equal(midranks(scores), loop_midranks(scores))

    def test_signed_zeros_share_one_midrank(self):
        ranks = midranks(np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0]))
        assert np.array_equal(ranks, [3.5, 3.5, 6.0, 3.5, 1.0, 3.5])


# The four-sort metrics that `evaluate` replaced: one validation per
# metric, a stable argsort for AUC, np.unique and two class sorts for KS,
# and a stable argsort of the negated scores for Recall@k.

def parent_midranks(scores):
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], s_sorted[1:] != s_sorted[:-1])))
    ends = np.append(starts[1:], scores.size) - 1
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def parent_auc(scores, labels):
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    pos_rank_sum = float(parent_midranks(scores)[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def parent_ks(scores, labels):
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    thresholds = np.unique(scores)
    pos_sorted = np.sort(scores[labels == 1])
    neg_sorted = np.sort(scores[labels == 0])
    f1 = np.searchsorted(pos_sorted, thresholds, side="right") / n_pos
    f0 = np.searchsorted(neg_sorted, thresholds, side="right") / n_neg
    return float(np.max(np.abs(f1 - f0)))


def parent_recall_at_k(scores, labels, k_percent):
    m = math.ceil(k_percent / 100.0 * scores.size)
    top = np.argsort(-scores, kind="stable")[:m]
    return float(np.sum(labels[top] == 1)) / int(np.sum(labels == 1))


@st.composite
def scored_sets(draw):
    """Heavy ties, mixed signed zeros or all-equal scores, n >= 2."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["ties", "signed_zeros", "equal"]))
    if kind == "ties":
        scores = [float(v) for v in draw(st.lists(
            st.integers(0, 4), min_size=n, max_size=n))]
    elif kind == "signed_zeros":
        scores = draw(st.lists(st.sampled_from([0.0, -0.0]),
                               min_size=n, max_size=n))
    else:
        scores = [draw(st.sampled_from([0.25, -0.0, 7.0]))] * n
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[-1] = 0, 1  # both classes present
    return np.array(scores), np.array(labels)


def bits(report):
    return [np.float64(v).tobytes() if isinstance(v, float) else v
            for v in astuple(report)]


@settings(max_examples=300, deadline=None)
@given(scored=scored_sets(), k=st.sampled_from([0.01, 10.0, 33.3, 100.0]))
def test_one_sort_matches_four_sorts(scored, k):
    assert_matches_four_sorts(*scored, [k])


def assert_matches_four_sorts(scores, labels, k_percents):
    """`evaluate` and each metric equal the parent's sorts bit for bit, and
    so does recall at each of `k_percents`."""
    parent = EvalReport(parent_auc(scores, labels), parent_ks(scores, labels),
                        parent_recall_at_k(scores, labels, 10.0), 10.0,
                        int(np.sum(labels == 1)), int(np.sum(labels == 0)))
    assert bits(evaluate(scores, labels)) == bits(parent)
    assert bits(EvalReport(auc(scores, labels), ks(scores, labels),
                           recall_at_k(scores, labels), 10.0,
                           parent.n_pos, parent.n_neg)) == bits(parent)
    for k in k_percents:
        assert np.float64(recall_at(scores, labels, k)).tobytes() == \
            np.float64(parent_recall_at_k(scores, labels, k)).tobytes(), k


@pytest.mark.parametrize("n", [1, 2, 9])
def test_recall_accepts_all_positive_labels(n):
    scores = np.linspace(0.0, 1.0, n)
    for k in (0.01, 10.0, 100.0):
        assert recall_at(scores, np.ones(n, dtype=int), k) == \
            parent_recall_at_k(scores, np.ones(n, dtype=int), k)
    assert recall_at_k(scores, np.ones(n, dtype=int)) == \
        parent_recall_at_k(scores, np.ones(n, dtype=int), 10.0)


def boundary_group_case(n):
    """Recall@10's cut falls inside the top tie group, every third row.

    Its positives are the even indices below n / 2, so they interleave
    with its negatives by original index, and the kept rows (its lowest
    indices) hold more positives than its highest indices do.
    """
    rng = np.random.default_rng(n)
    scores = rng.uniform(0.0, 0.5, n)
    labels = (rng.random(n) < 0.1).astype(int)
    top = np.arange(0, n, 3)
    scores[top] = 1.0
    labels[top] = (top % 2 == 0) & (top < n // 2)
    return scores, labels


def ks_block_case(n, side=1):
    """Tie groups of one row, but three rows on each side of every KS block
    edge; the group just above the first edge holds both -0.0 and 0.0. The
    largest CDF gap is at the stop of the group just below (side 0) or just
    above (side 1) the second edge: the last or first stop of a block.
    """
    block = metrics.KS_BLOCK
    groups = n
    while groups + 4 * ((groups - 1) // block) > n:
        groups -= 1
    sizes = np.ones(groups, dtype=int)
    edges = np.arange(block, groups, block)
    sizes[edges - 1] = sizes[edges] = 3
    sizes[-1] += n - sizes.sum()
    level = np.repeat(np.arange(groups), sizes)
    scores = (level - block).astype(float)
    if groups > block:
        first = np.flatnonzero(level == block)
        scores[first[1::2]] = -0.0
    # 3 groups in 5 positive up to the top group and 1 in 5 above it; the
    # top group and the one below it positive, the five above it negative.
    top = 2 * block - 1 + side
    labels = np.where(level <= top, level % 5 < 3, level % 5 == 0)
    labels[(level == top - 1) | (level == top)] = True
    labels[(level > top) & (level <= top + 5)] = False
    shuffle = np.random.default_rng(n).permutation(n)
    return scores[shuffle], labels[shuffle].astype(int)


@pytest.mark.parametrize("n", [20_000, 100_000])
@pytest.mark.parametrize("kind", ["int_levels", "rounded", "boundary_group",
                                  "ks_block_edges"])
def test_large_sort_matches_four_sorts(n, kind):
    # Above the property's n <= 300, where numpy's sort may switch kernels.
    rng = np.random.default_rng(7)
    if kind == "int_levels":
        scores = rng.integers(0, 5, n).astype(float)
        labels = rng.integers(0, 2, n)
    elif kind == "rounded":
        scores = np.round(rng.standard_normal(n), 2)
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-scores))).astype(int)
    elif kind == "boundary_group":
        scores, labels = boundary_group_case(n)
    else:
        scores, labels = ks_block_case(n)
    assert_matches_four_sorts(scores, labels, (0.01, 10.0, 33.3, 100.0))


@pytest.mark.parametrize("n", [20_000, 100_000])
def test_boundary_group_is_cut(n):
    # The case above would not test the tie-breaking if the cut missed
    # the group, or if any subset of its rows had the same positives.
    scores, labels = boundary_group_case(n)
    m = math.ceil(0.1 * n)
    group = np.flatnonzero(scores == 1.0)
    assert 0 < m < group.size
    assert labels[group[:m]].sum() != labels[group[-m:]].sum()


@pytest.mark.parametrize("side", [0, 1])
def test_ks_block_case_spans_three_blocks(side):
    # The case above would not test the KS blocks unless its groups fill
    # three of them, with ties on both sides of each edge, signed zeros at
    # one edge and the largest gap at another; side 0 puts that gap on a
    # block's last stop, side 1 (the case above) on the next block's first.
    scores, labels = ks_block_case(100_000, side)
    block = metrics.KS_BLOCK
    levels, counts = np.unique(scores, return_counts=True)
    assert levels.size > 2 * block
    for edge in (block, 2 * block):
        assert counts[edge - 1] == counts[edge] == 3
    assert levels[block] == 0.0
    assert set(np.signbit(scores[scores == 0.0])) == {False, True}
    pos, neg = np.sort(scores[labels == 1]), np.sort(scores[labels == 0])
    gaps = np.abs(np.searchsorted(pos, levels, side="right") / pos.size -
                  np.searchsorted(neg, levels, side="right") / neg.size)
    assert int(np.argmax(gaps)) == 2 * block - 1 + side
    assert np.float64(ks(scores, labels)).tobytes() == \
        np.float64(parent_ks(scores, labels)).tobytes()


def test_evaluate_peak_memory_is_bounded():
    # One sort order, group bounds and positive positions: at 1M rows,
    # 10% positive, evaluate's temporaries stay under 2.5 score arrays.
    rng = np.random.default_rng(0)
    scores = rng.random(1_000_000)
    labels = (rng.random(scores.size) < 0.1).astype(int)
    evaluate(scores, labels)  # warm-up
    assert peak_bytes(lambda: evaluate(scores, labels)) <= 2.5 * scores.nbytes
