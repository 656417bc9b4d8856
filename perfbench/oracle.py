"""Independent ranking metrics for the correctness gate.

These share no code with ``storerank.metrics``: AUC and GAUC come from
one sort each (a ``lexsort`` on (group, score) for GAUC) with midranks
over tied runs, instead of ``np.unique`` ranks and a mask per group.
The gate requires both to agree to 1e-12 on the rows a workload scores.
"""

import numpy as np

LOGLOSS_CLIP = 1e-7


def _segment_midranks(keys_sorted, starts):
    """1-based midranks of sorted rows, restarting at each segment start.

    ``keys_sorted`` is a boolean array marking rows whose key equals the
    previous row's (a tie); ``starts`` marks the first row of a segment.
    """
    n = keys_sorted.size
    idx = np.arange(n)
    run_start = ~keys_sorted | starts
    run_first = np.maximum.accumulate(np.where(run_start, idx, 0))
    run_ids = np.cumsum(run_start) - 1
    run_last = np.zeros(run_ids[-1] + 1, dtype=np.int64)
    np.maximum.at(run_last, run_ids, idx)
    seg_first = np.maximum.accumulate(np.where(starts, idx, 0))
    first_rank = run_first - seg_first + 1
    last_rank = run_last[run_ids] - seg_first + 1
    return (first_rank + last_rank) / 2.0


def gauc(labels, scores, groups):
    """Impression-weighted mean of per-group AUC over groups holding both
    classes, with ties counted half."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    groups = np.asarray(groups)
    order = np.lexsort((scores, groups))
    g, s, y = groups[order], scores[order], labels[order]
    starts = np.ones(g.size, dtype=bool)
    starts[1:] = g[1:] != g[:-1]
    tie = np.zeros(g.size, dtype=bool)
    tie[1:] = (s[1:] == s[:-1]) & ~starts[1:]
    ranks = _segment_midranks(tie, starts)
    seg = np.cumsum(starts) - 1
    size = np.bincount(seg).astype(np.float64)
    pos = np.bincount(seg, weights=y)
    rank_pos = np.bincount(seg, weights=ranks * y)
    ok = (pos > 0) & (pos < size)
    if not ok.any():
        raise ValueError("gauc undefined: no group has both classes")
    neg = size - pos
    per = (rank_pos[ok] - pos[ok] * (pos[ok] + 1) / 2.0) / (pos[ok] * neg[ok])
    return float((size[ok] * per).sum() / size[ok].sum())


def auc(labels, scores):
    return gauc(labels, scores, np.zeros(np.shape(labels), dtype=np.int64))


def logloss(labels, scores):
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(scores, dtype=np.float64), LOGLOSS_CLIP, 1.0 - LOGLOSS_CLIP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
