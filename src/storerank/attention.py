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
``test_08c``).  The sparse one gathers the selected (query, block)
pairs into per-block panels so all contractions stay batched; its time
at full selection is the fair comparator for its time at rho < 1.
They stay beside the node because a CPU does not reward gathering at
any H measured so far: short sequences pay for the gather, and long
ones run faster as two dense BLAS GEMMs than gathered or masked.

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

    @property
    def block_ids(self):
        """(..., H, k_blocks) int: each query's selected blocks, ascending."""
        lead, n_blocks = self.allowed.shape[:-1], self.allowed.shape[-1]
        flat = np.flatnonzero(self.allowed).reshape(*lead, -1)
        return flat - np.arange(0, self.allowed.size, n_blocks).reshape(*lead, 1)


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

def _scratch(pool, name, shape):
    """Work buffer ``name`` of ``shape``, a view of the front of a flat
    buffer in the dict ``pool`` that only grows.

    Freshly mmapped pages cost more to fault in than these kernels spend
    computing, so repeated calls (the benchmark takes a min over repeats)
    pass one pool and do not reallocate their large temporaries, even
    when calls of two shapes alternate (the benchmark interleaves half
    and full selection).  Zero-filled only on allocation: panel pad slots
    may later hold stale values from earlier calls of any shape, which
    is fine because they are finite and never gathered.  Never returned
    to the caller; every kernel's result is freshly allocated.
    """
    size = math.prod(shape)
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = pool[name] = np.zeros(size)
    return buf[:size].reshape(shape)


def dense_core(q, k, v, pool=None):
    """Stable softmax attention on raw (n_heads, H, d_head) arrays;
    ``pool`` (a dict) keeps the work buffers across calls."""
    pool = {} if pool is None else pool
    n_heads, h, dh = q.shape
    s = _scratch(pool, "dense.scores", (n_heads, h, h))
    np.matmul(q, np.swapaxes(k, 1, 2), out=s)
    s *= 1.0 / math.sqrt(dh)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    out = s @ v
    out /= s.sum(axis=-1, keepdims=True)
    return out


def sparse_core(q, k, v, block_size, k_blocks, pool=None):
    """Routed block-sparse attention on raw (n_heads, H, d_head) arrays.

    The selected (query, block) pairs of all heads are grouped by block
    into padded per-block panels, so the score and value contractions
    run as matmuls over full panels and the softmax touches only the
    selected scores.  Work scales with k_blocks * B selected keys per
    query (plus panel-padding slack), not with H.  Panel pad rows hold
    stale values from previous calls; they are computed over but never
    gathered back.  Agrees with dense_core at full selection to ~1e-12.
    ``pool`` (a dict) keeps the work buffers across calls.
    """
    pool = {} if pool is None else pool
    n_heads, h, dh = q.shape
    nb = -(-h // block_size)
    plan = moba_route(q, k, block_size, k_blocks)
    sel = plan.block_ids

    # pair p = (head e, query i, slot c) in row-major order; panel id e*nb + block
    groups = (sel + nb * np.arange(n_heads)[:, None, None]).ravel()
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=n_heads * nb)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    total = groups.size
    # row of each pair within its (padded) panel, in natural pair order
    pos = np.empty(total, dtype=np.intp)
    pos[order] = np.arange(total) - np.repeat(starts, counts)
    rows = int(counts.max())
    slot = groups * rows + pos                          # flat pair position

    pq_key = ("pair_query", n_heads * h, k_blocks)
    pair_query = pool.get(pq_key)
    if pair_query is None:
        pair_query = pool[pq_key] = np.repeat(np.arange(n_heads * h), k_blocks)

    qpairs = _scratch(pool, "sparse.qpairs", (total, dh))
    np.take(q.reshape(-1, dh), pair_query, axis=0, out=qpairs, mode="clip")
    qpairs *= 1.0 / math.sqrt(dh)
    qbuf = _scratch(pool, "sparse.qbuf", (n_heads * nb, rows, dh))
    qbuf.reshape(-1, dh)[slot] = qpairs

    # keys/values by block, zero-padded when the last block is short
    pad = nb * block_size - h
    if pad:
        kb = _scratch(pool, "sparse.kpad", (n_heads, nb * block_size, dh))
        vb = _scratch(pool, "sparse.vpad", (n_heads, nb * block_size, dh))
        kb[:, :h], kb[:, h:] = k, 0.0
        vb[:, :h], vb[:, h:] = v, 0.0
    else:
        kb, vb = k, v
    kb = kb.reshape(n_heads * nb, block_size, dh)
    vb = vb.reshape(n_heads * nb, block_size, dh)

    scores = _scratch(pool, "sparse.scores", (n_heads * nb, rows, block_size))
    np.matmul(qbuf, np.swapaxes(kb, 1, 2), out=scores)

    # softmax in compact query layout (heads * h, k_blocks * B)
    sq = _scratch(pool, "sparse.probs", (total, block_size))
    np.take(scores.reshape(-1, block_size), slot, axis=0, out=sq, mode="clip")
    if pad:
        sq[(sel == nb - 1).ravel(), -pad:] = -np.inf    # pad keys are not real
    compact = sq.reshape(n_heads * h, k_blocks * block_size)
    compact -= compact.max(axis=-1, keepdims=True)
    np.exp(compact, out=compact)
    denom = compact.sum(axis=-1)

    scores.reshape(-1, block_size)[slot] = sq
    contrib = _scratch(pool, "sparse.contrib", (n_heads * nb, rows, dh))
    for g in range(n_heads * nb):                       # 2-d gemms beat batched here
        np.matmul(scores[g], vb[g], out=contrib[g])
    opairs = _scratch(pool, "sparse.opairs", (total, dh))
    np.take(contrib.reshape(-1, dh), slot, axis=0, out=opairs, mode="clip")
    out = opairs.reshape(n_heads * h, k_blocks, dh).sum(axis=1)
    out /= denom[:, None]
    return out.reshape(n_heads, h, dh)


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
    rng = np.random.default_rng(seed)
    dh = d_model // n_heads
    q, k, v = (rng.normal(size=(n_heads, h, dh)) for _ in range(3))
    kb = k_blocks_for(h, block_size, rho)
    n_blocks = -(-h // block_size)
    pool = {}       # the buffers are only worth keeping across repeats
    calls = {"dense": lambda: dense_core(q, k, v, pool),
             "sparse": lambda: sparse_core(q, k, v, block_size, kb, pool=pool),
             "full": lambda: sparse_core(q, k, v, block_size, n_blocks, pool=pool)}
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
