"""Multi-expert semantic tokenization of pretrained item embeddings.

K parallel expert networks (each a one-hidden-layer tanh MLP) encode a
batch (n, d_p) of item embeddings into K latents, each latent snaps to
the nearest codeword of that expert's private codebook, and a decoder
(one ``T.mlp``) reconstructs the batch from the SUM of the quantized
latents.  The K codeword indices are the item's semantic ids (SIDs),
which replace the raw item id downstream.

Quantization is non-differentiable, so the decoder input uses the
straight-through form z + sg(s - z): forward sees the codeword, backward
treats quantization as identity.  Codebooks therefore learn only from
the auxiliary VQ losses ||sg(z) - s||^2 + beta ||z - sg(s)||^2, and an
orthogonality penalty on the (L2-normalized, flattened) expert weight
matrices pushes the experts to specialize.  Any codeword unused for a
full check interval is reseeded from a live latent so codebooks cannot
collapse.

The K experts are one stacked network and the K codebooks one table
(``OpmqModel``), so a training step runs each stage once for all
experts, in a few fused autodiff nodes: the experts, the straight-through
latent sum, the VQ loss, the reconstruction loss and the orthogonality
penalty, around the decoder's ``T.mlp``.  Each node's backward replays
the graph of per-expert, per-op nodes it stands for, product for product
and in that graph's summation order, so values, gradients and fits are
bit for bit that graph's.

Embedding and SID tables share one base and one CSV layout: a header
``item_id,<key>=<int>...``, then a line per item.  The ``tokenizer.opmq``
artifact holds the model's whole ``OpmqConfig`` and each expert's arrays
under its own names.

A residual-quantization baseline (sequential k-means stages on
reconstruction residuals) is included for ablation comparisons.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from . import artifact
from . import tensor as T
from .options import check_finite

OPMQ_MAGIC = b"OPMQ2"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class _ItemTable:
    """Item ids, one per row of a 2-d array, and their row index.

    Ids are kept as strings so tables read from CSV compare equal to
    tables built from integer ids in memory.
    """

    def __init__(self, ids, rows, what):
        if rows.ndim != 2:
            raise ValueError(f"{what} rows must be 2-d, got shape {rows.shape}")
        if len(ids) != rows.shape[0]:
            raise ValueError(f"{len(ids)} ids but {rows.shape[0]} {what} rows")
        self.ids = [str(i) for i in ids]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"duplicate item ids in {what} table")
        self.index = {item: row for row, item in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def __contains__(self, item_id):
        return str(item_id) in self.index


class EmbeddingTable(_ItemTable):
    """Item id -> pretrained embedding, stored densely."""

    def __init__(self, ids, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        super().__init__(ids, vectors, "embedding")
        if vectors.shape[1] < 1:
            raise ValueError("embeddings must have at least one dimension")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("non-finite embedding values")
        self.vectors = vectors

    @property
    def dim(self):
        return self.vectors.shape[1]


class SidTable(_ItemTable):
    """Item id -> K integer codes, each in [0, V)."""

    def __init__(self, ids, codes, v):
        codes = np.asarray(codes, dtype=np.int64)
        super().__init__(ids, codes, "SID")
        if codes.size and (codes.min() < 0 or codes.max() >= v):
            raise ValueError(f"codes outside [0, {v})")
        self.codes = codes
        self.v = int(v)

    @property
    def k(self):
        return self.codes.shape[1]


def _write_table(path, header, ids, rows, fmt):
    """CSV: ``item_id`` then ``key=<int>`` per ``header`` item, then one
    ``id,value...`` line per item, each value formatted by ``fmt``."""
    with open(path, "w") as f:
        f.write("item_id" + "".join(f",{k}={n}" for k, n in header.items()) + "\n")
        for item, row in zip(ids, rows):
            f.write(item + "," + ",".join(map(fmt, row)) + "\n")


def _read_table(path, keys, cast):
    """(header values, ids, rows) of a ``_write_table`` CSV with header
    ``keys``; the first key's value is the row width, and each value is
    parsed by ``cast``.  Errors name the file and line."""
    with open(path) as f:
        header = f.readline().rstrip("\n")
        match = re.fullmatch("item_id" + "".join(f",{k}=(0*[1-9][0-9]*)"
                                                 for k in keys), header)
        if match is None:
            want = "item_id" + "".join(f",{k}=<int >= 1>" for k in keys)
            raise ValueError(f"{path}:1: bad header {header!r}, expected {want}")
        values = [int(g) for g in match.groups()]
        width = values[0]
        ids, rows = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != width + 1:
                raise ValueError(f"{path}:{lineno}: expected {width + 1} "
                                 f"fields, got {len(parts)}")
            ids.append(parts[0])
            try:
                rows.append(np.array([cast(p) for p in parts[1:]], dtype=cast))
            except (ValueError, OverflowError) as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return values, ids, np.array(rows, dtype=cast).reshape(len(ids), width)


def write_embeddings(path, table):
    """CSV with header ``item_id,dim=<d_p>``; values use shortest
    round-trip float formatting so rewrites are byte-identical."""
    _write_table(path, {"dim": table.dim}, table.ids, table.vectors,
                 lambda x: repr(float(x)))


def read_embeddings(path):
    _, ids, vectors = _read_table(path, ("dim",), float)
    if not ids:
        raise ValueError(f"{path}: no items")
    with artifact.named(path):
        return EmbeddingTable(ids, vectors)


def write_sids(path, table):
    """CSV with header ``item_id,K=<K>,V=<V>``."""
    _write_table(path, {"K": table.k, "V": table.v}, table.ids, table.codes,
                 lambda c: str(int(c)))


def read_sids(path):
    (_, v), ids, codes = _read_table(path, ("K", "V"), int)
    with artifact.named(path):
        return SidTable(ids, codes, v)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class OpmqConfig:
    k: int = 3
    v: int = 16
    d_z: int | None = None       # defaults to the embedding dimension
    w_orth: float = 0.01
    beta: float = 0.25           # commitment weight in the VQ aux loss
    lr: float = 2e-3
    batch_size: int = 128
    epochs: int = 50
    reinit_every: int = 500      # dead-codeword check interval, in steps
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        d_z = 1 if self.d_z is None else self.d_z
        if min(self.k, self.v, d_z, self.batch_size, self.epochs,
               self.reinit_every) < 1:
            raise ValueError("k, v, d_z, batch_size, epochs and reinit_every "
                             "must be >= 1")
        if self.lr <= 0.0 or min(self.beta, self.w_orth) < 0.0:
            raise ValueError("lr must be positive, beta and w_orth >= 0")


class OpmqModel:
    """K expert encoders, K codebooks, one decoder on the latent sum.

    Each expert is a tanh MLP d_p -> d_z with hidden width d_p, whose
    hidden layer enters the orthogonality penalty; the decoder is one
    ``T.mlp`` d_z -> d_p.  ``experts`` is one stacked network, (w1, b1,
    w2, b2) of shapes (K, d_p, d_p), (K, d_p), (K, d_p, d_z) and
    (K, d_z), expert k at index k of each.  ``codebooks`` is one
    (K V, d_z) table: rows k V to k V + V - 1 are expert k's codebook.
    """

    def __init__(self, d_p, config, rng):
        self.d_p = d_p
        self.config = config
        k = config.k
        self.d_z = config.d_z if config.d_z is not None else d_p
        # drawn expert by expert, as K separate networks would be
        w1, w2 = zip(*[(T.glorot(rng, (d_p, d_p)).values,
                        T.glorot(rng, (d_p, self.d_z)).values) for _ in range(k)])
        self.experts = (T.Tensor(np.stack(w1), requires_grad=True), T.zeros((k, d_p)),
                        T.Tensor(np.stack(w2), requires_grad=True),
                        T.zeros((k, self.d_z)))
        self.codebooks = T.Tensor(
            rng.normal(size=(k * config.v, self.d_z)) / np.sqrt(self.d_z),
            requires_grad=True)
        self.decoder = (T.glorot(rng, (self.d_z, d_p)), T.zeros((d_p,)),
                        T.glorot(rng, (d_p, d_p)), T.zeros((d_p,)))

    def params(self):
        """The stacked expert layers, the codebook table, the decoder."""
        return [*self.experts, self.codebooks, *self.decoder]

    def books(self):
        """The codebook table as a (K, V, d_z) view, expert by expert."""
        return self.codebooks.values.reshape(self.config.k, self.config.v, self.d_z)

    def encode_values(self, e):
        """Expert latents, (K, n, d_z), for bulk tokenization: the experts'
        forward on plain arrays, so no graph is kept."""
        e = np.asarray(e, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != self.d_p:
            raise ValueError(f"expected (n, {self.d_p}) embeddings, got {e.shape}")
        return _expert_layers(e, self)[1]


def _expert_layers(x, model):
    """(tanh hidden layers, latents), each (K, n, .), of a batch array
    (n, d_p): ``T.mlp``'s arithmetic, one batched product per layer,
    which numpy runs as one BLAS product per expert in its own shapes.
    Biases and tanh apply in place, so a catalog's temporaries stay at
    two (K, n, .) arrays."""
    w1, b1, w2, b2 = (t.values for t in model.experts)
    h = x @ w1
    h += b1[:, None]
    np.tanh(h, out=h)
    z = h @ w2
    z += b2[:, None]
    return h, z


def _bias_grads(g):
    """``T.bias_grad`` of each (n, d) slice of a (K, n, d) gradient."""
    return g.sum(axis=1) if g.shape[1] != 1 else g[:, 0]


def _experts(x, model):
    """The K expert MLPs as one node, (K, n, d_z), with parents the four
    stacked layers.  Values and gradients are bit for bit those of K
    ``T.mlp`` graphs: the batched products run each graph's products on
    the same operands.  A parameter takes one part here and at most one
    more from ``orth_penalty``, which add the same in either order."""
    h, z = _expert_layers(x, model)
    w1, b1, w2, b2 = model.experts

    def bwd(g):
        if w2.requires_grad:
            w2.accumulate_grad(np.swapaxes(h, -1, -2) @ g)
        if b2.requires_grad:
            b2.accumulate_grad(_bias_grads(g))
        if w1.requires_grad or b1.requires_grad:
            gh = g @ np.swapaxes(w2.values, -1, -2) * (1.0 - h ** 2)
            if w1.requires_grad:
                w1.accumulate_grad(x.T @ gh)
            if b1.requires_grad:
                b1.accumulate_grad(_bias_grads(gh))
    return T._result(z, model.experts, bwd)


def nearest_codewords(z, codebook):
    """Batched argmin_j ||z - s_j||^2, first index on ties: bit for bit
    the scan of explicit differences, ``_scan``.  Latents (n, d_z) search
    one codebook (V, d_z) and give (n,) indices; stacked latents
    (K, n, d_z) search stacked codebooks (K, V, d_z), expert k's latents
    expert k's codebook, in one call, and give (K, n).

    A cheap screen settles most rows, and the scan takes the rest.  The
    screen forms f_j = ||s_j||^2 - 2 s_j . z, the squared distance less
    ||z||^2, laid out (K, V, n) so that its reductions run across rows.
    With N = ||z||^2 + max_j ||s_j||^2 (over the row's own codebook), f
    and the scan's distances are each within about 2 (d_z + 2) 2^-53 N
    of exact, in any summation order, plus 2^-1075 per product that
    underflows.  The scan's pick thus has f within four such errors of
    the row's least f, and ``bound`` = (d_z + 3) (2^-49 N + 2^-1071) is
    over twice that, so the threshold, least f + ``bound``, rounds to no
    less than the pick's f.  Every codeword with f at or below the
    threshold is a candidate, and a row with one candidate takes it.
    Every other row takes the scan of its own codebook: one with tied or
    near-tied codewords, one with a NaN (which has no candidate) and one
    with N above 2^1020, whose terms could overflow.  Chunked by
    K V d_z to bound the temporaries.
    """
    z = np.asarray(z, dtype=np.float64)
    codebook = np.asarray(codebook, dtype=np.float64)
    given = z.shape, codebook.shape
    stacked = codebook.ndim == 3
    if not stacked:
        z, codebook = z[None], codebook[None]
    if (codebook.ndim != 3 or 0 in codebook.shape or z.ndim != 3
            or z.shape[::2] != codebook.shape[::2]):
        raise ValueError("latents {} do not fit codebook {}: expected (n, d_z) and a "
                         "nonempty (V, d_z), or (K, n, d_z) and (K, V, d_z)".format(*given))
    k, v, d = codebook.shape
    sq = np.einsum("kij,kij->ki", codebook, codebook)[..., None]
    sq_max = sq.max(axis=1)
    scaled = -2.0 * codebook
    # candidate j at weight v + j: a row with one candidate sums to v
    # plus its index, a row with none to 0 and one with more to >= 2v
    weights = np.arange(v, 2 * v, dtype=np.float64)
    out = np.empty(z.shape[:2], dtype=np.int64)
    chunk = max(1, (1 << 22) // (k * v * d))
    for a in range(0, z.shape[1], chunk):
        part = z[:, a:a + chunk]
        f = scaled @ np.swapaxes(part, 1, 2)
        f += sq
        norms = np.einsum("kij,kij->ki", part, part) + sq_max
        bound = ((d + 3) * 2.0 ** -49) * norms + (d + 3) * 2.0 ** -1071
        score = weights @ (f <= (np.minimum.reduce(f, axis=1) + bound)[:, None])
        settled = (score >= v) & (score < 2 * v) & (norms <= 2.0 ** 1020)
        out[:, a:a + part.shape[1]] = score - v
        experts, rows = np.nonzero(~settled)
        if rows.size:
            out[experts, a + rows] = _scan(part[experts, rows], codebook[experts])
    return out if stacked else out[0]


def _scan(z, codebooks):
    """argmin_j ||z_i - s_ij||^2 from explicit differences, first index
    on ties, row i of z (m, d_z) searching codebooks[i] (m, V, d_z); the
    difference is formed and squared in the gathered codebooks' place."""
    diff = np.subtract(z[:, None, :], codebooks, out=codebooks)
    diff *= diff
    return np.argmin(diff.sum(axis=-1), axis=1)


def _quantize(z, model, sids):
    """(latent sum, vq_aux) of the experts node ``z`` under the (n, K)
    assignment ``sids``, one node each.

    Expert k's code j is row k V + j of the codebook table, read by one
    gather.  The sum is over z + sg(s - z), folded in expert order:
    forward the codewords (as rounded by that form), backward the
    identity to z.  Its parents include the table, which takes no
    gradient from it.  vq_aux is sum_i ||sg(z_i) - s_i||^2 +
    beta ||z_i - sg(s_i)||^2 over the batch size.  Both backwards replay
    the graph of per-expert ops, elementwise on all experts at once (the
    table's gradient is one ``T.lookup_grad``): a square's two factors
    each add their part, so d(e * e) is ``g * e + g * e``.
    """
    inv_n = 1.0 / z.shape[1]
    beta = model.config.beta
    table = model.codebooks
    slots = sids.T + (np.arange(model.config.k) * model.config.v)[:, None]
    s = np.take(table.values, slots, axis=0)
    diff = z.values - s
    sq = diff * diff
    terms = sq.sum(axis=(1, 2))
    terms += terms * beta

    def bwd_sum(g):
        if z.requires_grad:
            # C order: each expert's slice is then laid out as g is
            z.accumulate_grad(np.broadcast_to(g, z.shape).copy())

    def bwd_aux(g):
        g_code = g * inv_n
        if z.requires_grad:
            gz = (g_code * beta) * diff
            z.accumulate_grad(gz + gz)
        if table.requires_grad:
            gs = g_code * diff
            T.lookup_grad(table, slots, -(gs + gs))
    parents = (z, table)
    return (T._result(reduce(np.add, z.values + (s - z.values)), parents, bwd_sum),
            T._result(reduce(np.add, terms) * inv_n, parents, bwd_aux))


def _mean_sq_error(x, recon):
    """Mean over the rows of ||x - recon||^2, one node with parent recon."""
    err = x - recon.values
    inv_n = 1.0 / len(x)

    def bwd(g):
        ge = g * inv_n * err
        recon.accumulate_grad(-(ge + ge))
    return T._result((err * err).sum() * inv_n, (recon,), bwd)


def opmq_forward(e, model, sids=None):
    """(sids, reconstruction, loss_recon, vq_aux, latents) for a batch
    (n, d_p); latents is the experts node's (K, n, d_z) array.

    loss_recon is the mean over the batch of the squared reconstruction
    error.  Codewords receive no gradient from it (straight-through);
    they learn from vq_aux, also a batch mean.  ``sids`` replays a frozen
    (n, K) assignment, which is what finite-difference gradient checks
    need; otherwise each latent routes to its nearest codeword, outside
    the graph.
    """
    x = np.asarray(e, dtype=np.float64)
    z = _experts(x, model)
    n = x.shape[0]
    if sids is None:
        sids = np.ascontiguousarray(nearest_codewords(z.values, model.books()).T)
    else:
        sids = np.asarray(sids, dtype=np.int64).reshape(n, model.config.k)
    quantized, aux = _quantize(z, model, sids)
    recon = T.mlp(quantized, model.decoder)
    return sids, recon, _mean_sq_error(x, recon), aux, z.values


def orth_penalty(model):
    """||V V^T - I||_F^2 over the experts' flattened, L2-normalized
    hidden-layer weights, one node with parent the stacked w1.  Its
    backward replays the graph of flatten, concat, normalize, Gram-matrix
    and square ops, product for product and in that graph's summation
    order (a row takes its normalized part first, then the two parts of
    its square)."""
    w1 = model.experts[0]
    m = w1.values.reshape(model.config.k, -1)
    sq = (m * m).sum(axis=1, keepdims=True)
    if np.any(sq <= 0.0):
        bad = int(np.argmin(sq))
        raise ValueError(f"expert {bad} has zero-norm weights")
    scale = sq ** -0.5
    normed = m * scale
    diff = normed @ np.swapaxes(normed, -1, -2) - np.eye(model.config.k)

    def bwd(g):
        g_gram = g * diff + g * diff
        gb = np.swapaxes(normed, -1, -2) @ g_gram
        g_normed = g_gram @ normed + np.swapaxes(gb, -1, -2)
        g_scale = g_normed * m
        if m.shape[1] != 1:     # broadcast_to sums only a lifted axis
            g_scale = g_scale.sum(axis=1, keepdims=True)
        g_sq = g_scale * -0.5 * sq ** -1.5
        gm = g_normed * scale + g_sq * m + g_sq * m
        w1.accumulate_grad(gm.reshape(w1.shape))
    return T._result((diff * diff).sum(), (w1,), bwd)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _count_distinct(rows, at_least):
    """The number of distinct rows when it is below ``at_least``, else a
    number >= ``at_least``: the first ``4 * at_least`` rows are counted,
    and every row only when those hold fewer than ``at_least``."""
    head = np.unique(rows[:4 * at_least], axis=0).shape[0]
    if head < at_least and len(rows) > 4 * at_least:
        return np.unique(rows, axis=0).shape[0]
    return head


def _usage_stats(counts):
    """Per position, the number of codes used and the perplexity of the
    code usage, given (K, V) assignment counts."""
    used, perplexity = [], []
    for c in counts:
        p = c[c > 0] / c.sum()
        used.append(int(p.size))
        perplexity.append(float(np.exp(-(p * np.log(p)).sum())))
    return used, perplexity


def train_opmq(embeddings, cfg):
    """Fit an OpmqModel to an EmbeddingTable; returns (model, epoch log).

    Codebooks start from latents of randomly chosen items, total loss is
    loss_recon + vq_aux + w_orth * orth_penalty, and every reinit_every
    steps any codeword with no assignments since the previous check is
    reseeded to the latent of a random item from the current batch.
    An epoch's record holds its mean losses, the penalty after it, and
    per position the codes its assignments used and their perplexity.
    """
    rng = np.random.default_rng(cfg.seed)
    model = OpmqModel(embeddings.dim, cfg, rng)
    n = len(embeddings)
    if n == 0:
        raise ValueError("empty embedding table")
    distinct = _count_distinct(embeddings.vectors, cfg.v)
    if distinct < cfg.v:
        warnings.warn(f"only {distinct} distinct embeddings for V={cfg.v} codewords")

    latents0 = model.encode_values(embeddings.vectors)
    books = model.books()
    for i in range(cfg.k):
        pick = rng.choice(n, size=cfg.v, replace=n < cfg.v)
        books[i] = latents0[i][pick]

    params = model.params()
    opt = T.Adam(params, lr=cfg.lr)
    # code j of position i counts at i * V + j
    offsets = np.arange(cfg.k) * cfg.v
    usage = np.zeros((cfg.k, cfg.v), dtype=np.int64)
    step = 0
    log = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        tot_sum = recon_sum = 0.0
        batches = 0
        epoch_usage = np.zeros_like(usage)
        for a in range(0, n, cfg.batch_size):
            idx = perm[a:a + cfg.batch_size]
            batch = embeddings.vectors[idx]
            sids, _, loss_recon, aux, latents = opmq_forward(batch, model)
            orth = orth_penalty(model)
            total = T.add(T.add(loss_recon, aux), T.mul(orth, cfg.w_orth))
            if not np.isfinite(total.values):
                raise FloatingPointError(
                    f"non-finite tokenizer loss at epoch {epoch} step {step}: "
                    f"recon={loss_recon.values} aux={aux.values} orth={orth.values}")
            opt.step(T.grad(total, params))
            counts = np.bincount((sids + offsets).ravel(),
                                 minlength=usage.size).reshape(usage.shape)
            usage += counts
            epoch_usage += counts
            tot_sum += float(total.values)
            recon_sum += float(loss_recon.values)
            batches += 1
            step += 1
            if step % cfg.reinit_every == 0:
                for i in range(cfg.k):
                    dead = np.flatnonzero(usage[i] == 0)
                    if dead.size:
                        pick = rng.choice(len(idx), size=dead.size,
                                          replace=dead.size > len(idx))
                        books[i, dead] = latents[i][pick]
                usage[:] = 0
        codes_used, perplexity = _usage_stats(epoch_usage)
        log.append({
            "epoch": epoch + 1,
            "loss": tot_sum / batches,
            "loss_recon": recon_sum / batches,
            "orth_penalty": float(orth_penalty(model).values),
            "codes_used": codes_used,
            "usage_perplexity": perplexity,
        })
    return model, log


def tokenize_catalog(embeddings, model):
    """Assign every item its K nearest-codeword indices."""
    latents = model.encode_values(embeddings.vectors)
    codes = nearest_codewords(latents, model.books())
    return SidTable(embeddings.ids, np.ascontiguousarray(codes.T), model.config.v)


def mean_baseline_loss(embeddings):
    """Reconstruction loss of predicting every item as the dataset mean."""
    err = embeddings.vectors - embeddings.vectors.mean(axis=0, keepdims=True)
    return float((err * err).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# residual-quantization baseline
# ---------------------------------------------------------------------------

def _kmeans(x, v, rng, iters=25):
    """Plain Lloyd iterations; the returned centers are exact means of the
    returned assignment, which guarantees the residual-norm contract in
    train_rq_baseline.  Empty clusters reseed to random points."""
    n = x.shape[0]
    centers = x[rng.choice(n, size=v, replace=n < v)].copy()
    # one more round than iters: the final exact-mean update reseeds none
    for it in range(iters + 1):
        d = (x * x).sum(1, keepdims=True) - 2.0 * (x @ centers.T) \
            + (centers * centers).sum(1)
        assign = d.argmin(axis=1)
        for j in range(v):
            members = x[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            elif it < iters:
                centers[j] = x[rng.integers(n)]
    return centers, assign


def train_rq_baseline(embeddings, cfg):
    """Residual quantization: K sequential k-means stages on residuals.

    Returns (SidTable, per-stage residual RMS).  Because each stage
    subtracts exact cluster means, the RMS sequence is non-increasing.
    """
    rng = np.random.default_rng(cfg.seed)
    residual = embeddings.vectors.copy()
    codes = np.zeros((len(embeddings), cfg.k), dtype=np.int64)
    stage_rms = []
    for i in range(cfg.k):
        centers, assign = _kmeans(residual, cfg.v, rng)
        codes[:, i] = assign
        residual -= centers[assign]
        stage_rms.append(float(np.sqrt((residual * residual).sum(axis=1).mean())))
    return SidTable(embeddings.ids, codes, cfg.v), stage_rms


# ---------------------------------------------------------------------------
# artifact io
# ---------------------------------------------------------------------------

def _model_arrays(model):
    """(name, Tensor) of each artifact array, in file order; an expert's
    arrays view its slices of the stacked parameters."""
    names = ("w1", "b1", "w2", "b2")
    arrays = [(f"expert{i}.{name}", T.Tensor(t.values[i]))
              for i in range(model.config.k) for name, t in zip(names, model.experts)]
    arrays += [(f"codebook{i}", T.Tensor(book)) for i, book in enumerate(model.books())]
    arrays += [(f"decoder.{name}", t) for name, t in zip(names, model.decoder)]
    return arrays


def save_opmq(path, model):
    """Write the quantizer as an ``artifact`` container: its config in
    the header, then the expert, codebook and decoder arrays."""
    header = {"d_p": model.d_p, "config": asdict(model.config)}
    artifact.write(path, OPMQ_MAGIC, header,
                   [(name, t.values) for name, t in _model_arrays(model)])


def load_opmq(path):
    header, arrays = artifact.read(path, OPMQ_MAGIC)
    config = artifact.config(path, OpmqConfig, header.get("config"))
    with artifact.named(path):
        model = OpmqModel(artifact.typed(path, header, "d_p", int), config,
                          np.random.default_rng(0))
        artifact.restore(path, arrays, _model_arrays(model))
    return model
