"""Multi-expert semantic tokenization of pretrained item embeddings.

K parallel expert networks (each a one-hidden-layer ``T.mlp``) encode
a batch (n, d_p) of item embeddings into K latents, each latent snaps
to the nearest codeword of that expert's private codebook, and a decoder
(one more ``T.mlp``) reconstructs the batch from the SUM of the
quantized latents.  The K codeword indices are the item's semantic ids
(SIDs), which replace the raw item id downstream.

Quantization is non-differentiable, so the decoder input uses the
straight-through form z + sg(s - z): forward sees the codeword, backward
treats quantization as identity.  Codebooks therefore learn only from
the auxiliary VQ losses ||sg(z) - s||^2 + beta ||z - sg(s)||^2, and an
orthogonality penalty on the (L2-normalized, flattened) expert weight
matrices pushes the experts to specialize.  Any codeword unused for a
full check interval is reseeded from a live latent so codebooks cannot
collapse.

Embedding and SID tables share one base and one CSV layout: a header
``item_id,<key>=<int>...``, then a line per item.  The ``tokenizer.opmq``
artifact holds the model's whole ``OpmqConfig``.

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

    def vector(self, item_id):
        return self.vectors[self.index[str(item_id)]]


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

    def sids(self, item_id):
        return self.codes[self.index[str(item_id)]]


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
    return EmbeddingTable(ids, vectors)


def write_sids(path, table):
    """CSV with header ``item_id,K=<K>,V=<V>``."""
    _write_table(path, {"K": table.k, "V": table.v}, table.ids, table.codes,
                 lambda c: str(int(c)))


def read_sids(path):
    (_, v), ids, codes = _read_table(path, ("K", "V"), int)
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
    activation: str = "tanh"     # "linear" exists for identity-map tests
    orth_weights: str = "hidden"  # or "all": include both expert layers

    def __post_init__(self):
        d_z = 1 if self.d_z is None else self.d_z
        if min(self.k, self.v, d_z, self.batch_size, self.epochs,
               self.reinit_every) < 1:
            raise ValueError("k, v, d_z, batch_size, epochs and reinit_every "
                             "must be >= 1")
        if self.lr <= 0.0 or min(self.beta, self.w_orth) < 0.0:
            raise ValueError("lr must be positive, beta and w_orth >= 0")
        if self.activation not in T.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.orth_weights not in ("hidden", "all"):
            raise ValueError(f"unknown orth_weights {self.orth_weights!r}")


class OpmqModel:
    """K expert encoders, K codebooks, one decoder on the latent sum.

    Each expert is a ``T.mlp`` d_p -> d_z with hidden width d_p; the
    decoder is one d_z -> d_p.  The weight matrix entering the
    orthogonality penalty is the expert's hidden layer (or both layers
    concatenated when orth_weights="all").
    """

    def __init__(self, d_p, config, rng):
        self.d_p = d_p
        self.config = config
        self.d_z = config.d_z if config.d_z is not None else d_p
        self.experts = [(T.glorot(rng, (d_p, d_p)), T.zeros((d_p,)),
                         T.glorot(rng, (d_p, self.d_z)), T.zeros((self.d_z,)))
                        for _ in range(config.k)]
        self.codebooks = [
            T.Tensor(rng.normal(size=(config.v, self.d_z)) / np.sqrt(self.d_z),
                     requires_grad=True)
            for _ in range(config.k)
        ]
        self.decoder = (T.glorot(rng, (self.d_z, d_p)), T.zeros((d_p,)),
                        T.glorot(rng, (d_p, d_p)), T.zeros((d_p,)))

    def params(self):
        """Every parameter, in artifact layout order."""
        return [t for _, t in _model_arrays(self)]

    def encode_values(self, e):
        """Expert latents, (K, n, d_z), for bulk tokenization.  The MLPs
        run on constant views of the weights, so no graph is kept."""
        e = np.asarray(e, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != self.d_p:
            raise ValueError(f"expected (n, {self.d_p}) embeddings, got {e.shape}")
        x = T.Tensor(e)
        return np.stack([
            T.mlp(x, [T.Tensor(t.values) for t in layer],
                  self.config.activation).values
            for layer in self.experts])


def encode_experts(x, model):
    """The K expert latents, (n, d_z) each, of a batch (n, d_p) given as
    an array or a Tensor: the one graph path through the experts."""
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    if x.ndim != 2 or x.shape[1] != model.d_p:
        raise ValueError(f"expected (n, {model.d_p}) embeddings, got {x.shape}")
    return [T.mlp(x, layer, model.config.activation) for layer in model.experts]


def nearest_codewords(z, codebook):
    """Batched argmin_j ||z - s_j||^2 over latents (n, d_z), first index
    on ties.

    Distances are formed as explicit differences, not the expanded
    cross-term identity, so results match a per-codeword scan bitwise.
    Chunked to bound the (chunk, V, d_z) temporary.
    """
    z = np.asarray(z, dtype=np.float64)
    codebook = np.asarray(codebook, dtype=np.float64)
    if codebook.ndim != 2 or codebook.shape[0] < 1:
        raise ValueError("codebook must be a nonempty (V, d_z) matrix")
    if z.ndim != 2 or z.shape[1] != codebook.shape[1]:
        raise ValueError(f"expected (n, {codebook.shape[1]}) latents, got {z.shape}")
    out = np.empty(z.shape[0], dtype=np.int64)
    chunk = max(1, (1 << 22) // (codebook.shape[0] * codebook.shape[1]))
    for a in range(0, z.shape[0], chunk):
        diff = z[a:a + chunk, None, :] - codebook[None, :, :]
        out[a:a + chunk] = np.argmin((diff * diff).sum(axis=-1), axis=1)
    return out


def opmq_forward(e, model, sids=None):
    """(sids, reconstruction, loss_recon, vq_aux, latents) for a batch
    (n, d_p).

    loss_recon is the mean over the batch of the squared reconstruction
    error.  Codewords receive no gradient from it (straight-through);
    they learn from vq_aux, also a batch mean.  ``sids`` replays a frozen
    (n, K) assignment, which is what finite-difference gradient checks
    need; otherwise each latent routes to its nearest codeword, outside
    the graph.
    """
    x = T.Tensor(e)
    latents = encode_experts(x, model)
    n = x.shape[0]
    if sids is None:
        sids = np.stack([nearest_codewords(z.values, cb.values)
                         for z, cb in zip(latents, model.codebooks)], axis=1)
    else:
        sids = np.asarray(sids, dtype=np.int64).reshape(n, model.config.k)

    quantized = []
    aux_terms = []
    for i, z in enumerate(latents):
        s = T.embedding(model.codebooks[i], sids[:, i])
        # straight-through: forward value is s, gradient passes to z only
        quantized.append(T.add(z, T.stop_gradient(T.sub(s, z))))
        code_err = T.sub(T.stop_gradient(z), s)
        commit_err = T.sub(z, T.stop_gradient(s))
        aux_terms.append(T.add(
            T.tsum(T.mul(code_err, code_err)),
            T.mul(T.tsum(T.mul(commit_err, commit_err)), model.config.beta)))
    recon = T.mlp(reduce(T.add, quantized), model.decoder,
                  model.config.activation)
    err = T.sub(x, recon)
    loss_recon = T.mul(T.tsum(T.mul(err, err)), 1.0 / n)
    aux = T.mul(reduce(T.add, aux_terms), 1.0 / n)
    return sids, recon, loss_recon, aux, latents


def orth_penalty(model):
    """||V V^T - I||_F^2 over the L2-normalized flattened expert weights."""
    rows = []
    for w1, _, w2, _ in model.experts:
        flats = [T.reshape(w1, (1, w1.values.size))]
        if model.config.orth_weights == "all":
            flats.append(T.reshape(w2, (1, w2.values.size)))
        rows.append(flats[0] if len(flats) == 1 else T.concat(flats, axis=1))
    m = T.concat(rows, axis=0)
    sq = T.tsum(T.mul(m, m), axis=1, keepdims=True)
    if np.any(sq.values <= 0.0):
        bad = int(np.argmin(sq.values))
        raise ValueError(f"expert {bad} has zero-norm weights")
    normed = T.mul(m, T.broadcast_to(T.power(sq, -0.5), m.shape))
    gram = T.matmul(normed, T.transpose_last(normed))
    diff = T.sub(gram, T.Tensor(np.eye(model.config.k)))
    return T.tsum(T.mul(diff, diff))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_opmq(embeddings, cfg):
    """Fit an OpmqModel to an EmbeddingTable; returns (model, epoch log).

    Codebooks start from latents of randomly chosen items, total loss is
    loss_recon + vq_aux + w_orth * orth_penalty, and every reinit_every
    steps any codeword with no assignments since the previous check is
    reseeded to the latent of a random item from the current batch.
    """
    rng = np.random.default_rng(cfg.seed)
    model = OpmqModel(embeddings.dim, cfg, rng)
    n = len(embeddings)
    if n == 0:
        raise ValueError("empty embedding table")
    distinct = np.unique(embeddings.vectors, axis=0).shape[0]
    if distinct < cfg.v:
        warnings.warn(f"only {distinct} distinct embeddings for V={cfg.v} codewords")

    latents0 = model.encode_values(embeddings.vectors)
    for i, cb in enumerate(model.codebooks):
        pick = rng.choice(n, size=cfg.v, replace=n < cfg.v)
        cb.values[...] = latents0[i][pick]

    params = model.params()
    opt = T.Adam(params, lr=cfg.lr)
    usage = np.zeros((cfg.k, cfg.v), dtype=np.int64)
    step = 0
    log = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        tot_sum = recon_sum = 0.0
        batches = 0
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
            np.add.at(usage, (np.arange(cfg.k)[:, None], sids.T), 1)
            tot_sum += float(total.values)
            recon_sum += float(loss_recon.values)
            batches += 1
            step += 1
            if step % cfg.reinit_every == 0:
                for i, cb in enumerate(model.codebooks):
                    dead = np.flatnonzero(usage[i] == 0)
                    if dead.size:
                        pick = rng.choice(len(idx), size=dead.size,
                                          replace=dead.size > len(idx))
                        cb.values[dead] = latents[i].values[pick]
                usage[:] = 0
        log.append({
            "epoch": epoch + 1,
            "loss": tot_sum / batches,
            "loss_recon": recon_sum / batches,
            "orth_penalty": float(orth_penalty(model).values),
        })
    return model, log


def tokenize_catalog(embeddings, model):
    """Assign every item its K nearest-codeword indices."""
    latents = model.encode_values(embeddings.vectors)
    codes = np.stack([nearest_codewords(z, cb.values)
                      for z, cb in zip(latents, model.codebooks)], axis=1)
    return SidTable(embeddings.ids, codes, model.config.v)


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
    arrays = []
    for i, layer in enumerate(model.experts):
        for name, t in zip(("w1", "b1", "w2", "b2"), layer):
            arrays.append((f"expert{i}.{name}", t))
    for i, cb in enumerate(model.codebooks):
        arrays.append((f"codebook{i}", cb))
    for name, t in zip(("w1", "b1", "w2", "b2"), model.decoder):
        arrays.append((f"decoder.{name}", t))
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
    model = OpmqModel(header["d_p"], config, np.random.default_rng(0))
    artifact.restore(path, arrays, _model_arrays(model))
    return model
