"""Ranking evaluation metrics: AUC, GAUC and LogLoss.

AUC is the tie-aware Mann-Whitney statistic computed by rank-sum in
O(n log n), by GAUC's rank code over a single group.  Average tied
ranks are integer multiples of 0.5, so for realistic sizes every
intermediate sum is exactly representable and the result is
bit-identical to an O(n^2) pairwise count.

GAUC: the impression-weighted mean of per-group AUC, where groups with
a single label class are excluded from both numerator and denominator.
There are uniform-weight variants of this metric in the wild; reported
numbers depend on the choice, so it is fixed and documented here.
Groups are visited in sorted key order, which makes the accumulation
order (and therefore the float result) reproducible.
"""

from __future__ import annotations

import numpy as np

LOGLOSS_CLIP = 1e-7


def _as_arrays(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length 1-d arrays")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return labels, scores


def _rank_sums(labels, scores, groups):
    """Per group, in sorted key order: (size, positives, the sum of the
    positives' 1-based midranks within the group).

    One sort on (group, score) gives every row its tied rank, so the
    cost is O(n log n) however many groups there are.
    """
    order = np.lexsort((scores, groups))
    g, s, y = groups[order], scores[order], labels[order].astype(np.float64)
    n = g.size
    group_first = np.ones(n, dtype=bool)
    group_first[1:] = g[1:] != g[:-1]
    run_first = group_first.copy()
    run_first[1:] |= s[1:] != s[:-1]
    group_id = np.cumsum(group_first) - 1
    run_start = np.flatnonzero(run_first)
    run_end = np.append(run_start[1:], n)
    # mean 1-based position of each tied run, less its group's offset
    ranks = ((run_start + run_end + 1) / 2.0)[np.cumsum(run_first) - 1]
    ranks -= np.flatnonzero(group_first)[group_id]
    return (np.bincount(group_id).astype(np.float64),
            np.bincount(group_id, weights=y),
            np.bincount(group_id, weights=ranks * y))


def auc(labels, scores):
    """Probability that a random positive outscores a random negative,
    ties counted half.  Raises on single-class input (AUC is undefined)."""
    labels, scores = _as_arrays(labels, scores)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc undefined: need at least one positive and one negative")
    rank_pos = _rank_sums(labels, scores, np.zeros(n_pos + n_neg, np.int8))[2][0]
    num = float(rank_pos) - n_pos * (n_pos + 1) / 2.0
    return num / float(n_pos * n_neg)


def gauc(labels, scores, groups):
    """Impression-weighted mean of per-group AUC.

    Groups lacking either class contribute nothing (neither weight nor
    value).  Raises when no group has both classes.
    """
    labels, scores = _as_arrays(labels, scores)
    groups = np.asarray(groups)
    if groups.shape != labels.shape:
        raise ValueError("groups must align with labels")
    size, n_pos, rank_pos = _rank_sums(labels, scores, groups)
    both = (n_pos > 0) & (n_pos < size)
    if not both.any():
        raise ValueError("gauc undefined: no group has both classes")
    w, n_pos = size[both], n_pos[both]
    per_group = (rank_pos[both] - n_pos * (n_pos + 1) / 2.0) / (n_pos * (w - n_pos))
    # cumsum adds left to right, the sorted-key order of a running sum
    return float(np.cumsum(w * per_group)[-1] / np.cumsum(w)[-1])


def logloss(labels, scores):
    """Mean binary cross-entropy; scores clipped to [1e-7, 1 - 1e-7]."""
    labels, scores = _as_arrays(labels, scores)
    p = np.clip(scores, LOGLOSS_CLIP, 1.0 - LOGLOSS_CLIP)
    y = labels.astype(np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())
