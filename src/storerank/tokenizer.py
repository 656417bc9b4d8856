"""Multi-expert semantic tokenization of pretrained item embeddings.

K parallel expert networks each encode an item embedding into a latent,
each latent snaps to the nearest codeword of that expert's private
codebook, and a decoder reconstructs the embedding from the SUM of the
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

A residual-quantization baseline (sequential k-means stages on
reconstruction residuals) is included for ablation comparisons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import artifact
from . import tensor as T

OPMQ_MAGIC = b"OPMQ2"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class EmbeddingTable:
    """Item id -> pretrained embedding, stored densely.

    Ids are kept as strings so tables read from CSV compare equal to
    tables built from integer ids in memory.
    """

    def __init__(self, ids, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-d, got shape {vectors.shape}")
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
        self.ids = [str(i) for i in ids]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate item ids in embedding table")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("non-finite embedding values")
        self.vectors = vectors
        self.index = {item: row for row, item in enumerate(self.ids)}

    @property
    def dim(self):
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, item_id):
        return str(item_id) in self.index

    def vector(self, item_id):
        return self.vectors[self.index[str(item_id)]]


class SidTable:
    """Item id -> K integer codes, each in [0, V)."""

    def __init__(self, ids, codes, v):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
        if len(ids) != codes.shape[0]:
            raise ValueError(f"{len(ids)} ids but {codes.shape[0]} code rows")
        if codes.size and (codes.min() < 0 or codes.max() >= v):
            raise ValueError(f"codes outside [0, {v})")
        self.ids = [str(i) for i in ids]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate item ids in SID table")
        self.codes = codes
        self.v = int(v)
        self.index = {item: row for row, item in enumerate(self.ids)}

    @property
    def k(self):
        return self.codes.shape[1]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, item_id):
        return str(item_id) in self.index

    def sids(self, item_id):
        return self.codes[self.index[str(item_id)]]


def write_embeddings(path, table):
    """CSV with header ``item_id,dim=<d_p>``; values use shortest
    round-trip float formatting so rewrites are byte-identical."""
    with open(path, "w") as f:
        f.write(f"item_id,dim={table.dim}\n")
        for item, row in zip(table.ids, table.vectors):
            f.write(item + "," + ",".join(repr(float(v)) for v in row) + "\n")


def read_embeddings(path):
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if not header.startswith("item_id,dim="):
            raise ValueError(f"{path}:1: bad embedding header {header!r}")
        dim = int(header.split("=", 1)[1])
        ids, rows = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}")
            ids.append(parts[0])
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return EmbeddingTable(ids, np.array(rows, dtype=np.float64).reshape(len(ids), dim))


def write_sids(path, table):
    """CSV with header ``item_id,K=<K>,V=<V>``."""
    with open(path, "w") as f:
        f.write(f"item_id,K={table.k},V={table.v}\n")
        for item, row in zip(table.ids, table.codes):
            f.write(item + "," + ",".join(str(int(c)) for c in row) + "\n")


def read_sids(path):
    with open(path) as f:
        header = f.readline().rstrip("\n")
        parts = header.split(",")
        if (len(parts) != 3 or parts[0] != "item_id"
                or not parts[1].startswith("K=") or not parts[2].startswith("V=")):
            raise ValueError(f"{path}:1: bad SID header {header!r}")
        k = int(parts[1][2:])
        v = int(parts[2][2:])
        ids, rows = [], []
        for lineno, line in enumerate(f, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != k + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {k + 1} fields, got {len(fields)}")
            ids.append(fields[0])
            try:
                rows.append([int(c) for c in fields[1:]])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    codes = np.array(rows, dtype=np.int64).reshape(len(ids), k)
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


def _act(x, kind):
    if kind == "tanh":
        return T.tanh(x)
    if kind == "linear":
        return x
    raise ValueError(f"unknown activation {kind!r}")


def _mlp(x, layer, kind):
    w1, b1, w2, b2 = layer
    n = x.shape[0]
    h = T.add(T.matmul(x, w1), T.broadcast_to(T.reshape(b1, (1, b1.shape[0])), (n, b1.shape[0])))
    h = _act(h, kind)
    return T.add(T.matmul(h, w2), T.broadcast_to(T.reshape(b2, (1, b2.shape[0])), (n, b2.shape[0])))


def _mlp_values(x, layer, kind):
    w1, b1, w2, b2 = layer
    h = x @ w1.values + b1.values
    if kind == "tanh":
        h = np.tanh(h)
    return h @ w2.values + b2.values


class OpmqModel:
    """K expert encoders, K codebooks, one decoder on the latent sum.

    Each expert is a single-hidden-layer map d_p -> d_z with hidden
    width d_p; the decoder mirrors it (d_z -> d_p).  The weight matrix
    entering the orthogonality penalty is the expert's hidden layer
    (or both layers concatenated when orth_weights="all").
    """

    def __init__(self, d_p, cfg, rng):
        if cfg.k < 1 or cfg.v < 1:
            raise ValueError(f"K and V must be >= 1, got K={cfg.k} V={cfg.v}")
        self.d_p = d_p
        self.k = cfg.k
        self.v = cfg.v
        self.d_z = cfg.d_z if cfg.d_z is not None else d_p
        self.activation = cfg.activation
        self.orth_weights = cfg.orth_weights
        self.beta = cfg.beta
        _act(T.Tensor(0.0), cfg.activation)  # validate the name early
        self.experts = []
        for _ in range(cfg.k):
            self.experts.append((T.glorot(rng, (d_p, d_p)), T.zeros((d_p,)),
                                 T.glorot(rng, (d_p, self.d_z)), T.zeros((self.d_z,))))
        self.codebooks = [
            T.Tensor(rng.normal(size=(cfg.v, self.d_z)) / np.sqrt(self.d_z),
                     requires_grad=True)
            for _ in range(cfg.k)
        ]
        self.decoder = (T.glorot(rng, (self.d_z, d_p)), T.zeros((d_p,)),
                        T.glorot(rng, (d_p, d_p)), T.zeros((d_p,)))

    def params(self):
        out = []
        for layer in self.experts:
            out.extend(layer)
        out.extend(self.codebooks)
        out.extend(self.decoder)
        return out

    def encode_values(self, e):
        """Graph-free expert latents, (K, n, d_z); for bulk tokenization."""
        e = np.asarray(e, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != self.d_p:
            raise ValueError(f"expected (n, {self.d_p}) embeddings, got {e.shape}")
        return np.stack([_mlp_values(e, layer, self.activation)
                         for layer in self.experts])


def _lift_embedding(e_p, d_p):
    if isinstance(e_p, T.Tensor):
        x = e_p
    else:
        x = T.Tensor(np.asarray(e_p, dtype=np.float64))
    single = len(x.shape) == 1
    if single:
        x = T.reshape(x, (1, x.shape[0]))
    if len(x.shape) != 2 or x.shape[1] != d_p:
        raise ValueError(f"expected embeddings of dimension {d_p}, got shape {x.shape}")
    return x, single


def encode_experts(e_p, model):
    """K expert latents for one embedding (d_p,) or a batch (n, d_p)."""
    x, single = _lift_embedding(e_p, model.d_p)
    outs = [_mlp(x, layer, model.activation) for layer in model.experts]
    if single:
        outs = [T.reshape(z, (z.shape[1],)) for z in outs]
    return outs


def nearest_codewords(z, codebook):
    """Batched argmin_j ||z - s_j||^2, first index on ties.

    Distances are formed as explicit differences, not the expanded
    cross-term identity, so results match a per-codeword scan bitwise.
    Chunked to bound the (chunk, V, d_z) temporary.
    """
    z = np.asarray(z, dtype=np.float64)
    codebook = np.asarray(codebook, dtype=np.float64)
    if codebook.ndim != 2 or codebook.shape[0] < 1:
        raise ValueError("codebook must be a nonempty (V, d_z) matrix")
    if z.shape[-1] != codebook.shape[1]:
        raise ValueError(f"latent dim {z.shape[-1]} != codebook dim {codebook.shape[1]}")
    out = np.empty(z.shape[0], dtype=np.int64)
    chunk = max(1, (1 << 22) // (codebook.shape[0] * codebook.shape[1]))
    for a in range(0, z.shape[0], chunk):
        diff = z[a:a + chunk, None, :] - codebook[None, :, :]
        out[a:a + chunk] = np.argmin((diff * diff).sum(axis=-1), axis=1)
    return out


def nearest_codeword(z, codebook):
    """(index, codeword) of the closest codebook row to one latent."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected a single latent vector, got shape {z.shape}")
    idx = int(nearest_codewords(z[None], codebook)[0])
    return idx, np.asarray(codebook, dtype=np.float64)[idx].copy()


def _forward_full(e_p, model, sids=None):
    """Shared forward: returns (sids, recon, loss_recon, vq_aux, latents).

    ``sids`` replays a frozen assignment, which is what finite-difference
    gradient checks need; otherwise each latent routes to its nearest
    codeword, outside the graph.
    """
    x, single = _lift_embedding(e_p, model.d_p)
    n = x.shape[0]
    latents = [_mlp(x, layer, model.activation) for layer in model.experts]
    if sids is None:
        sids = np.stack([nearest_codewords(z.values, cb.values)
                         for z, cb in zip(latents, model.codebooks)], axis=1)
    else:
        sids = np.asarray(sids, dtype=np.int64).reshape(n, model.k)

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
            T.mul(T.tsum(T.mul(commit_err, commit_err)), model.beta)))
    total = quantized[0]
    for qz in quantized[1:]:
        total = T.add(total, qz)
    recon = _mlp(total, model.decoder, model.activation)
    err = T.sub(x, recon)
    loss_recon = T.mul(T.tsum(T.mul(err, err)), 1.0 / n)
    aux = aux_terms[0]
    for t in aux_terms[1:]:
        aux = T.add(aux, t)
    aux = T.mul(aux, 1.0 / n)
    if single:
        recon = T.reshape(recon, (recon.shape[1],))
        sids = sids[0]
    return sids, recon, loss_recon, aux, latents


def opmq_forward(e_p, model, sids=None):
    """(sids, reconstruction, loss_recon) for one embedding or a batch.

    loss_recon is the mean over the batch of the squared reconstruction
    error.  Codewords receive no gradient from it (straight-through);
    they learn from the auxiliary loss inside train_opmq.
    """
    out_sids, recon, loss_recon, _, _ = _forward_full(e_p, model, sids=sids)
    return out_sids, recon, loss_recon


def orth_penalty(model):
    """||V V^T - I||_F^2 over the L2-normalized flattened expert weights."""
    rows = []
    for w1, _, w2, _ in model.experts:
        flats = [T.reshape(w1, (1, w1.values.size))]
        if model.orth_weights == "all":
            flats.append(T.reshape(w2, (1, w2.values.size)))
        rows.append(flats[0] if len(flats) == 1 else T.concat(flats, axis=1))
    m = T.concat(rows, axis=0)
    sq = T.tsum(T.mul(m, m), axis=1, keepdims=True)
    if np.any(sq.values <= 0.0):
        bad = int(np.argmin(sq.values))
        raise ValueError(f"expert {bad} has zero-norm weights")
    normed = T.mul(m, T.broadcast_to(T.power(sq, -0.5), m.shape))
    gram = T.matmul(normed, T.transpose_last(normed))
    diff = T.sub(gram, T.Tensor(np.eye(model.k)))
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
            sids, _, loss_recon, aux, latents = _forward_full(batch, model)
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
    if embeddings.dim != model.d_p:
        raise ValueError(
            f"embedding dim {embeddings.dim} != model dim {model.d_p}")
    latents = model.encode_values(embeddings.vectors)
    codes = np.stack([nearest_codewords(latents[i], model.codebooks[i].values)
                      for i in range(model.k)], axis=1)
    return SidTable(embeddings.ids, codes, model.v)


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
    assign = None
    for _ in range(iters):
        d = (x * x).sum(1, keepdims=True) - 2.0 * (x @ centers.T) \
            + (centers * centers).sum(1)
        assign = d.argmin(axis=1)
        for j in range(v):
            members = x[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            else:
                centers[j] = x[rng.integers(n)]
    # final exact-mean update for the final assignment
    d = (x * x).sum(1, keepdims=True) - 2.0 * (x @ centers.T) \
        + (centers * centers).sum(1)
    assign = d.argmin(axis=1)
    for j in range(v):
        members = x[assign == j]
        if members.shape[0]:
            centers[j] = members.mean(axis=0)
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
    header = {
        "d_p": model.d_p,
        "k": model.k,
        "v": model.v,
        "d_z": model.d_z,
        "activation": model.activation,
        "orth_weights": model.orth_weights,
        "beta": model.beta,
    }
    artifact.write(path, OPMQ_MAGIC, header,
                   [(name, t.values) for name, t in _model_arrays(model)])


def load_opmq(path):
    header, arrays = artifact.read(path, OPMQ_MAGIC)
    cfg = OpmqConfig(k=header["k"], v=header["v"], d_z=header["d_z"],
                     activation=header["activation"],
                     orth_weights=header["orth_weights"],
                     beta=header["beta"])
    model = OpmqModel(header["d_p"], cfg, np.random.default_rng(0))
    artifact.restore(path, arrays, _model_arrays(model))
    return model
