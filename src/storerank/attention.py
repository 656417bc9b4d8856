"""Dense and block-sparse multi-head attention over token sequences.

Keys and values are partitioned into fixed blocks of size B (the last
block may be short when B does not divide H; a short block behaves like
a padded block whose pad slots are excluded from gates and softmax).
Each query scores every block by dot(query, block key mean) and attends
only to its top k_blocks blocks, with its own block always included and
score ties broken toward the lower block index.  Routing is computed
outside the autodiff graph and is therefore constant during backward.

Training and scoring run one autodiff node per layer,
``efficient_attention``, on batched (n, H, d_model) input: it projects
Q/K/V, decides whether the layer routes (only when ``k_blocks_for``
keeps fewer than every block), routes every head at once with one
``moba_route``, masks the scores of unselected blocks with one additive
-inf mask, and has an analytic backward that reuses the saved
probabilities.  It returns the one ``RoutingPlan`` it used, or None when
it routed nothing, and replays a plan it is given.  The mask is
numerically identical to gathering the selected keys and, at the few
tokens per instance this model attends over, faster.  On leaves that
need no gradient (a frozen model scoring) the node keeps no backward.

``dense_core`` / ``sparse_core`` are graph-free numpy kernels for the
wall-clock race at long sequences (``bench_attention``, asserted by
``test_08c``).  The sparse one is MoBA's block loop: each key block
scores only the queries that selected it, and each query carries its
softmax across its blocks as a running max, sum and output.  Its time
at full selection is the fair comparator for its time at rho < 1.
They stay beside the node because a CPU does not reward gathering at
any H measured so far: short sequences pay for the per-block gathers,
and long ones run faster as two dense BLAS GEMMs than gathered or
masked.

Scores are scaled by 1/sqrt(d_head).  Attention here is non-causal: the
tokens are features of one instance, not a temporal sequence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T


def k_blocks_for(h, block_size, rho):
    """Routed block count: max(1, ceil(rho * H / B)), capped at the block count."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"sparsity rho must be in (0, 1], got {rho}")
    n_blocks = -(-h // block_size)
    k = max(1, math.ceil(rho * h / block_size - 1e-9))
    return min(k, n_blocks)


class AttentionParams:
    """Projection weights plus the block/sparsity knobs for one layer."""

    def __init__(self, d_model, n_heads, block_size, rho, rng):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"sparsity rho must be in (0, 1], got {rho}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.block_size = block_size
        self.rho = float(rho)
        self.wq = T.glorot(rng, (d_model, d_model))
        self.wk = T.glorot(rng, (d_model, d_model))
        self.wv = T.glorot(rng, (d_model, d_model))
        self.wo = T.glorot(rng, (d_model, d_model))

    @property
    def d_head(self):
        return self.d_model // self.n_heads

    def params(self):
        return [self.wq, self.wk, self.wv, self.wo]


@dataclass
class RoutingPlan:
    """Frozen per-query block selection of one layer, all heads at once.

    allowed: (n, n_heads, H, n_blocks) bool, True on each query's
    k_blocks selected blocks, which always include its own block.
    gates: (n, n_heads, H, n_blocks) raw gate scores (before own-block
    forcing).  ``moba_route`` over other leading axes gives those axes.
    """
    allowed: np.ndarray
    gates: np.ndarray
    block_size: int


def _block_means(k, block_size):
    """Mean key per block, (..., n_blocks, d_head); short last block uses
    its true member count."""
    if block_size == 1:
        return k        # a one-key mean is the key
    h = k.shape[-2]
    starts = np.arange(0, h, block_size)
    sums = np.add.reduceat(k, starts, axis=-2)
    counts = np.minimum(block_size, h - starts).astype(np.float64)
    return sums / counts[:, None]


def _select_blocks(aug, k_blocks):
    """(..., n_blocks) bool: True on the blocks that
    ``np.argsort(-aug, kind="stable")[..., :k_blocks]`` names (ties to
    the lower block, NaN last).  Selecting every block ranks nothing.

    Under 8 blocks (at most 21 pairs), as at the benchmarked H, this is
    found without sorting: block j is taken when fewer than k_blocks
    blocks beat it, counted over block pairs, each pair one whole-array
    comparison (a block beats a later one unless the later gate is
    greater).  More blocks, or a NaN gate (which compares false either
    way), take the argsort itself.
    """
    n_blocks = aug.shape[-1]
    if k_blocks == n_blocks:
        return np.ones(aug.shape, dtype=bool)
    if n_blocks >= 8 or np.isnan(aug).any():
        order = np.argsort(-aug, axis=-1, kind="stable")[..., :k_blocks]
        row_starts = np.arange(0, aug.size, n_blocks).reshape(*aug.shape[:-1], 1)
        allowed = np.zeros(aug.size, dtype=bool)
        allowed[(order + row_starts).ravel()] = True
        return allowed.reshape(aug.shape)
    gates = [aug[..., j] for j in range(n_blocks)]
    beaten = [np.zeros(aug.shape[:-1], dtype=np.int8) for _ in gates]
    for i in range(n_blocks):
        for j in range(i + 1, n_blocks):
            later_wins = gates[j] > gates[i]
            beaten[i] += later_wins
            beaten[j] += ~later_wins
    return np.stack([b < k_blocks for b in beaten], axis=-1)


def moba_route(q, k, block_size, k_blocks):
    """Select k_blocks key blocks per query from gate = dot(q, block key mean).

    q, k: (H, d_head) for one instance or (..., H, d_head) batched over
    any leading axes.  The query's own block is always kept (its gate is
    taken as +inf); the rest go by gate, ties toward the lower block index.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim == 2:
        q, k = q[None], k[None]
    h = q.shape[-2]
    n_blocks = -(-h // block_size)
    if k_blocks > n_blocks:
        raise ValueError(f"k_blocks {k_blocks} exceeds block count {n_blocks}")
    if k_blocks < 1:
        raise ValueError("k_blocks must be >= 1")
    gates = q @ np.swapaxes(_block_means(k, block_size), -1, -2)
    aug = gates.copy()
    aug[..., np.arange(h), np.arange(h) // block_size] = np.inf
    return RoutingPlan(_select_blocks(aug, k_blocks), gates, block_size)


def plan_to_mask(plan, h):
    """Additive mask (..., H, H): 0 on keys inside selected blocks, -inf elsewhere."""
    hq = plan.allowed.shape[-2]
    if hq != h:
        raise ValueError(f"plan covers {hq} queries, sequence has {h}")
    allowed = plan.allowed
    if plan.block_size > 1:
        allowed = allowed[..., np.arange(h) // plan.block_size]
    return np.where(allowed, 0.0, -np.inf)


def _heads(a, n_heads):
    """(n, H, n_heads * d_head) -> a (n, n_heads, H, d_head) view."""
    n, h, d = a.shape
    return a.reshape(n, h, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def efficient_attention(x, params, plan=None):
    """(output, routing plan) of one layer on x of shape (n, H, d_model):
    one autodiff node with parents (x, wq, wk, wv, wo) for all heads,
    the projections and the softmax.

    The layer routes exactly when ``k_blocks_for`` keeps fewer than all
    ceil(H / B) key blocks: one ``moba_route`` over every head, then
    each query's softmax masked to its routed blocks.  A given ``plan``
    is replayed as is, which is what gradient checks need.  The plan
    used comes back; a layer that routes nothing masks nothing and
    returns None.  The backward is analytic and reuses the saved
    probabilities.

    It runs the same products, in the same shapes and order, as the
    graph of per-head matmul / softmax ops it replaces, so values and
    gradients are bit for bit those of that graph.  A product's bits
    follow its shapes: one product with [wq | wk | wv] has three times
    the columns and, at most widths, rounds otherwise, so Q, K and V are
    three products, as in the graph.  They follow the layout of the
    operands too: ``g @ wo.T`` on a transposed view and on a contiguous
    copy of it round differently, and so does flattening (n, H, d) @
    (d, d) into one 2-D product, so every operand is the graph's.  They
    do not follow where a product is written: Q, K and V are strided
    per-head views of those products, per-head products land through
    ``out=`` straight in the (n, H, d_model) layout of the projections
    that follow, and k's part lands transposed.  With one-key blocks a
    fresh route's gates are q @ k^T, the scores' own product, and are
    reused.
    """
    if x.ndim != 3:
        raise ValueError(f"attention input must be (n, H, d_model), got shape {x.shape}")
    n, h, d = x.shape
    heads, block_size = params.n_heads, params.block_size
    wq, wk, wv, wo = params.params()
    xv = x.values
    q, k, v = (_heads(xv @ w.values, heads) for w in (wq, wk, wv))
    scale = 1.0 / math.sqrt(params.d_head)
    kb = k_blocks_for(h, block_size, params.rho)
    fresh = plan is None and kb < -(-h // block_size)
    if fresh:
        plan = moba_route(q, k, block_size, kb)
    if fresh and block_size == 1:
        s = plan.gates * scale
    else:
        s = q @ np.swapaxes(k, -1, -2)
        s *= scale
    if plan is not None:
        s += plan_to_mask(plan, h)
    p = T.softmax_values(s)
    merged = np.empty((n, h, d))
    np.matmul(p, v, out=_heads(merged, heads))

    def bwd(g):
        if wo.requires_grad:
            wo.accumulate_grad(merged.reshape(-1, d).T @ g.reshape(-1, d))
        go = _heads(g @ np.swapaxes(wo.values, -1, -2), heads)
        # the softmax backward p * (gp - sum(gp * p)), formed on gp
        gs = go @ np.swapaxes(v, -1, -2)
        gs -= T.reduce_keepdims(np.add, gs * p)
        gs *= p
        gs *= scale
        gq, gk, gv = (np.empty((n, h, d)) for _ in range(3))
        np.matmul(gs, k, out=_heads(gq, heads))
        # k's part as the graph formed it, the gradient of k^T, written
        # transposed back: a product of other shapes need not round the
        # same, but where it lands does not matter
        np.matmul(np.swapaxes(q, -1, -2), gs,
                  out=np.swapaxes(_heads(gk, heads), -1, -2))
        np.matmul(np.swapaxes(p, -1, -2), go, out=_heads(gv, heads))
        # x takes the q, k, v parts in that order, one addition each, as
        # from the graph's three projection nodes: float sums depend on
        # order.  The q part is an array of its own, which x may keep as
        # its first gradient; the k and v parts share one scratch buffer
        scratch = None
        for w, gw in zip((wq, wk, wv), (gq, gk, gv)):
            if x.requires_grad:
                wt = np.swapaxes(w.values, -1, -2)
                if w is wq:
                    x.accumulate_grad(gw @ wt)
                else:
                    scratch = np.matmul(gw, wt, out=scratch)
                    x.accumulate_grad(scratch)
            if w.requires_grad:
                w.accumulate_grad(xv.reshape(-1, d).T @ gw.reshape(-1, d))
    return T._result(merged @ wo.values, (x, wq, wk, wv, wo), bwd), plan


def attention_flops(h, d_model, n_heads, block_size, k_blocks, include_projections=True):
    """Analytic flop count (multiply-adds x 2) for one H-token sequence.

    Counts the score and value-weighting contractions, which scale with
    the selected key count min(k_blocks * B, H), plus optionally the four
    dense projections.  Gate scoring, softmax and block means are not
    counted: they carry no multiply-add mass comparable to the main
    terms, and leaving them out keeps full selection exactly equal to
    dense.  Dense cost = attention_flops with k_blocks = ceil(H / B).
    """
    n_blocks = -(-h // block_size)
    if not 1 <= k_blocks <= n_blocks:
        raise ValueError(f"k_blocks {k_blocks} out of range [1, {n_blocks}]")
    if d_model % n_heads != 0:
        raise ValueError("d_model not divisible by n_heads")
    selected = min(k_blocks * block_size, h)
    macs = 2 * h * selected * (d_model // n_heads) * n_heads
    if include_projections:
        macs += 4 * h * d_model * d_model
    return 2 * macs


# ---------------------------------------------------------------------------
# graph-free kernels for the wall-clock benchmark
# ---------------------------------------------------------------------------

def dense_core(q, k, v):
    """Stable softmax attention on raw (n_heads, H, d_head) arrays."""
    s = q @ np.swapaxes(k, 1, 2)
    s *= 1.0 / math.sqrt(q.shape[-1])
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    out = s @ v
    out /= s.sum(axis=-1, keepdims=True)
    return out


def sparse_core(q, k, v, block_size, k_blocks):
    """Routed block-sparse attention on raw (n_heads, H, d_head) arrays.

    MoBA's block loop: per head, each key block scores only the queries
    that selected it, and each query carries its softmax across its
    blocks as a running max m, sum l and output o, rescaled by
    exp(m - m') whenever the max grows to m'.  A ones column appended to
    v makes l the last column of o's product.  Work scales with
    k_blocks * B selected keys per query, not with H.  A short last
    block is a shorter slice; every query keeps its own block, so every
    l is positive.  Agrees with dense_core at full selection to ~1e-12.
    """
    n_heads, h, dh = q.shape
    allowed = moba_route(q, k, block_size, k_blocks).allowed
    qs = q * (1.0 / math.sqrt(dh))
    v1 = np.concatenate((v, np.ones((n_heads, h, 1))), axis=-1)
    out = np.empty_like(qs)
    for e in range(n_heads):
        m = np.full(h, -np.inf)
        ol = np.zeros((h, dh + 1))         # [o | l] per query
        for j, b0 in enumerate(range(0, h, block_size)):
            rows = np.flatnonzero(allowed[e, :, j])
            # (B, rows): a query's max is a reduction over B full rows,
            # cheaper than over each query's B-long row
            s = k[e, b0:b0 + block_size] @ qs[e, rows].T
            c = m[rows]
            m_new = np.maximum(c, s.max(axis=0))
            m[rows] = m_new
            s -= m_new
            np.exp(s, out=s)
            c -= m_new
            np.exp(c, out=c)                # exp(m - m'), 0 on a first block
            ol[rows] = ol[rows] * c[:, None] + s.T @ v1[e, b0:b0 + block_size]
        out[e] = ol[:, :dh] / ol[:, dh:]
    return out


def bench_attention(h, d_model=256, n_heads=4, block_size=32, rho=0.5,
                    repeats=7, seed=0):
    """Time dense_core, and sparse_core at rho and at full selection, on
    one random sequence.

    Returns the bench CSV columns plus ``wall_time_full_ms``.  Each call
    is warmed up once, then the timed repeats interleave the three calls
    so drift in the host's speed hits all alike; each time is the best
    of ``repeats``.  Sparse timings include routing.  Full selection runs
    the same routed code path with every block selected: sparse/full is
    what routing saves in this kernel, sparse/dense the race against two
    full BLAS GEMMs.  max_abs_diff_at_rho1 compares the warm-up outputs
    of the full-selection and dense calls, a correctness tie-down for
    every benched shape.
    """
    if min(h, d_model, n_heads, block_size, repeats) < 1 or d_model % n_heads:
        raise ValueError("h, d_model, n_heads, block_size and repeats must "
                         "be >= 1, and n_heads must divide d_model")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    dh = d_model // n_heads
    q, k, v = (rng.normal(size=(n_heads, h, dh)) for _ in range(3))
    kb = k_blocks_for(h, block_size, rho)
    n_blocks = -(-h // block_size)
    calls = {"dense": lambda: dense_core(q, k, v),
             "sparse": lambda: sparse_core(q, k, v, block_size, kb),
             "full": lambda: sparse_core(q, k, v, block_size, n_blocks)}
    warm = {name: fn() for name, fn in calls.items()}
    times = {name: [] for name in calls}
    for _ in range(repeats):
        for name, fn in calls.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    best = {name: min(ts) * 1e3 for name, ts in times.items()}
    diff = float(np.max(np.abs(warm["full"] - warm["dense"])))
    return {
        "H": h,
        "B": block_size,
        "k_blocks": kb,
        "dense_flops": attention_flops(h, d_model, n_heads, block_size, n_blocks),
        "sparse_flops": attention_flops(h, d_model, n_heads, block_size, kb),
        "wall_time_dense_ms": best["dense"],
        "wall_time_sparse_ms": best["sparse"],
        "wall_time_full_ms": best["full"],
        "max_abs_diff_at_rho1": diff,
    }
