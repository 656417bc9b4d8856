"""The assembled CTR ranker: SID tokens paired with rotated static views.

Each training instance carries one high-cardinality item id, a handful
of low-cardinality categoricals, and a binary click label.  The item id
is replaced by its K discrete semantic codes and each code is embedded
with its own small table; the remaining categoricals are fused into one
static block C whose K orthogonal rotated views pair up with the K code
embeddings.  Token i is a shared linear projection of [s_i ; C R_i],
giving an H = K token sequence that a stack of block-sparse attention
layers mixes, residual + LayerNorm per layer, before a mean-pool readout
and a sigmoid head produce the click probability.

A raw-id ablation swaps the K code embeddings for a single hashed item
embedding repeated at every position, leaving every other component
untouched, so code-vs-raw comparisons isolate the tokenization.

The token build is one autodiff node (``_tokens``), each layer an
attention node and one residual + LayerNorm node, the readout one node
(``_readout``) and the loss one more (``bce_loss``), all bit for bit
the per-op graphs they replace.  Training and scoring run the one
``forward``: ``predict`` runs it on a frozen view of the model, whose
leaves need no gradient, so no node keeps a backward and the fused
nodes work in place.

Training alternates within each step: the dense parameters take an Adam
step while the rotation matrices take a plain gradient step followed by
polar re-projection back onto the orthogonal manifold.
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import artifact
from . import tensor as T
from .attention import AttentionParams, attention_flops, efficient_attention, \
    k_blocks_for
from .data import batch_iter
from .metrics import auc, gauc, logloss
from .options import check_finite
from .rotation import FeatureGroup, GroupConfig, GroupFuser, RotationBank, \
    diversity_penalty, rotation_step
from .tokenizer import SidTable


@dataclass(frozen=True)
class StoreConfig:
    """Model and training knobs.  h is both the token count and the SID
    count per item; the rotation bank and embedding bank are sized to it.
    rho = 1 or block_size >= h keeps every key block: dense attention."""
    h: int = 3
    v: int = 16
    d_s: int = 16           # SID / hashed-id embedding width
    d: int = 32             # token width
    n_layers: int = 2
    n_heads: int = 2
    block_size: int = 1
    rho: float = 0.5        # attention density: share of key blocks kept
    lam: float = 0.1        # rotation diversity weight
    use_rotation: bool = True
    use_raw_ids: bool = False
    hash_buckets: int = 1 << 17
    lr: float = 1e-3
    rot_lr: float = 0.01
    epochs: int = 1
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.h, self.v, self.d_s, self.d, self.n_layers, self.n_heads,
               self.block_size, self.hash_buckets, self.epochs,
               self.batch_size) < 1:
            raise ValueError("all counts and widths must be >= 1")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d {self.d} not divisible by n_heads {self.n_heads}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.lr <= 0.0 or self.rot_lr <= 0.0:
            raise ValueError("learning rates must be positive")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")


def check_sid_table(sid_table, config):
    """Refuse a SID table whose K and V are not the config's h and v."""
    if (sid_table.k, sid_table.v) != (config.h, config.v):
        raise ValueError(f"SID table carries K={sid_table.k} codes of "
                         f"V={sid_table.v}, model expects H={config.h}, "
                         f"V={config.v}")


def sid_rows(sid_table, items):
    """The row of each raw item id of ``items`` in ``sid_table``; an id
    the table lacks is refused."""
    index = sid_table.index
    rows = np.array([index.get(str(s), -1) for s in items], dtype=np.int64)
    if rows.size and rows.min() < 0:
        miss = [str(s) for s in items[rows < 0][:3]]
        raise ValueError(f"{int((rows < 0).sum())} item ids lack SID codes "
                         f"(first: {miss})")
    return rows


def default_groups(schema, emb_dim=8, d_g=16):
    """Two-group partition: the group key alone, then every static column.

    Hand-tuned partitions can be passed to the model instead; this just
    covers schemas without one.
    """
    groups = [FeatureGroup("audience", (schema.group_col,), emb_dim)]
    if schema.static_cols:
        groups.append(FeatureGroup("context", tuple(schema.static_cols), emb_dim))
    return GroupConfig(tuple(groups), d_g)


def _tokens(c, lookups, mats, proj_w, proj_b):
    """The (n, H, d) token sequence as one node: token i is
    ``[table_i[idx_i] ; C R_i] @ proj_w + proj_b`` for the i-th
    (table, idx) of ``lookups``, with C itself where ``mats`` is None.
    Its parents are C, the distinct tables, the rotations, proj_w and
    proj_b.

    Each position runs the per-op graph's products in its shapes (a
    lookup, C @ R_i, and one (n, d_s + d_c) @ proj_w product), written
    into preallocated buffers, so values are bit for bit that graph's.
    The backward replays the graph position by position, 0 first, in
    its order: proj_w, proj_b, the table and C each take one part per
    position, and C's parts arrive in position order.  Only when a
    parent needs a gradient are the positions' inputs kept; otherwise
    one buffer serves every position.
    """
    n, d_c = c.shape
    d_s, d = lookups[0][0].shape[1], proj_w.shape[1]
    tables = list({id(t): t for t, _ in lookups}.values())
    parents = [c] + tables + list(mats or ()) + [proj_w, proj_b]
    keep = any(p.requires_grad for p in parents)
    cats = np.empty((len(lookups) if keep else 1, n, d_s + d_c))
    out = np.empty((n, len(lookups), d))
    for i, (table, idx) in enumerate(lookups):
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("embedding indices must be integers")
        cat = cats[i if keep else 0]
        np.take(table.values, idx, axis=0, out=cat[:, :d_s])
        if mats is None:
            cat[:, d_s:] = c.values
        else:
            np.matmul(c.values, mats[i].values, out=cat[:, d_s:])
        np.matmul(cat, proj_w.values, out=out[:, i])
        out[:, i] += proj_b.values

    def bwd(g):
        for i, (table, idx) in enumerate(lookups):
            # the graph's reshape and affine nodes copy the slice first,
            # keeping its layout
            gt = np.array(g[:, i])
            gcat = gt @ proj_w.values.T
            if proj_w.requires_grad:
                proj_w.accumulate_grad(cats[i].T @ gt)
            if proj_b.requires_grad:
                proj_b.accumulate_grad(T.bias_grad(gt))
            if table.requires_grad:
                T.lookup_grad(table, idx, gcat[:, :d_s])
            gv = gcat[:, d_s:]
            if mats is None:
                if c.requires_grad:
                    c.accumulate_grad(gv)
                continue
            if c.requires_grad:
                c.accumulate_grad(gv @ mats[i].values.T)
            if mats[i].requires_grad:
                mats[i].accumulate_grad(c.values.T @ gv)
    return T._result(out, parents, bwd)


def _readout(x, head_w, head_b):
    """Click probabilities (n,) from the (n, H, d) sequence x as one
    node: the mean over the H tokens, the (d, 1) head affine and a
    sigmoid.  Parents x, head_w and head_b.

    Bit for bit the graph ``sigmoid(reshape(affine(tmean(x, axis=1),
    head_w, head_b), (n,)))``: the same products and elementwise steps,
    and the same arrays handed to each parent.
    """
    n, h = x.shape[:2]
    pooled = x.values.sum(axis=1) * (1.0 / h)
    out = T.sigmoid_values((pooled @ head_w.values + head_b.values).reshape(n))

    def bwd(g):
        # the sigmoid's gradient, as the affine takes it
        gz = (g * out * (1.0 - out)).reshape(n, 1)
        if x.requires_grad:
            gp = (gz @ head_w.values.T) * (1.0 / h)
            x.accumulate_grad(np.broadcast_to(np.expand_dims(gp, 1), x.shape))
        if head_w.requires_grad:
            head_w.accumulate_grad(pooled.T @ gz)
        if head_b.requires_grad:
            head_b.accumulate_grad(T.bias_grad(gz))
    return T._result(out, (x, head_w, head_b), bwd)


class StoreModel:
    """Token builder plus attention stack; all parameters live in Tensors.

    ``vocab_sizes`` maps every fused feature to its table height (OOV row
    included).  Exactly one of SID table / raw-id mode must be chosen.
    """

    def __init__(self, config, groups, vocab_sizes, sid_table=None):
        if sid_table is None and not config.use_raw_ids:
            raise ValueError("code tokens requested but no SID table given")
        if sid_table is not None and config.use_raw_ids:
            raise ValueError("raw-id ablation and a SID table are mutually exclusive")
        if sid_table is not None:
            check_sid_table(sid_table, config)
        self.config = config
        self.groups = groups
        self.sid_table = sid_table
        rng = np.random.default_rng(config.seed)
        self.static_tables = {}
        for grp in groups.groups:
            for f in grp.features:
                if f not in vocab_sizes:
                    raise ValueError(f"no vocabulary size for feature {f!r}")
                self.static_tables[f] = T.glorot(rng, (vocab_sizes[f], grp.emb_dim))
        self.fuser = GroupFuser(groups, rng)
        self.bank = RotationBank(config.h, groups.d_c,
                                 seed=int(rng.integers(2 ** 31)), lam=config.lam)
        # id tables draw from their own stream so the raw-vs-SID ablation
        # leaves every shared parameter bitwise identical at init
        id_rng = np.random.default_rng([config.seed, 1])
        if config.use_raw_ids:
            self.sid_tables = None
            self.raw_table = T.glorot(id_rng, (config.hash_buckets, config.d_s))
        else:
            self.sid_tables = [T.glorot(id_rng, (config.v, config.d_s))
                               for _ in range(config.h)]
            self.raw_table = None
        self.proj_w = T.glorot(rng, (config.d_s + groups.d_c, config.d))
        self.proj_b = T.zeros((config.d,))
        self.layers = [AttentionParams(config.d, config.n_heads,
                                       config.block_size, config.rho, rng)
                       for _ in range(config.n_layers)]
        self.norms = [(T.Tensor(np.ones(config.d), requires_grad=True),
                       T.zeros((config.d,))) for _ in range(config.n_layers)]
        # zero head: an untrained model predicts exactly 0.5 everywhere
        self.head_w = T.zeros((config.d, 1))
        self.head_b = T.zeros((1,))

    def params(self):
        """Dense parameters, the ones Adam owns, in artifact layout order.
        Rotations are excluded; they take the projected step in ``fit``."""
        return [t for name, t in _store_arrays(self)
                if not name.startswith("rot.")]

    def static_block(self, inputs):
        """Fused static block C, shape (n, d_c)."""
        emb = {f: T.embedding(tbl, inputs["static"][f])
               for f, tbl in self.static_tables.items()}
        return self.fuser.fuse_groups(emb)

    def frozen(self):
        """A view of the model for scoring: the same arrays, held in
        leaves that need no gradient, so no node of its forward keeps a
        backward or the arrays only a backward reads."""
        memo = {id(t): T.Tensor(t.values) for _, t in _store_arrays(self)}
        memo[id(self.sid_table)] = self.sid_table
        return copy.deepcopy(self, memo)

    def build_tokens(self, inputs):
        """(n, H, d) sequence; token i = proj([s_i ; C R_i]).

        The projection is shared across positions, so position identity
        comes entirely from the code table i and the rotation R_i.
        """
        cfg = self.config
        c = self.static_block(inputs)
        if self.sid_tables is not None:
            codes = np.asarray(inputs["sid"])
            if codes.ndim != 2 or codes.shape[1] != cfg.h:
                raise ValueError(f"sid codes must be (n, {cfg.h}), got {codes.shape}")
            lookups = [(t, codes[:, i]) for i, t in enumerate(self.sid_tables)]
        else:
            lookups = [(self.raw_table, np.asarray(inputs["raw"]))] * cfg.h
        return _tokens(c, lookups, self.bank.mats if cfg.use_rotation else None,
                       self.proj_w, self.proj_b)

    def forward(self, inputs, plans=None):
        """(click probabilities in (0, 1), routing plans) for one batch.

        The plans are each layer's ``efficient_attention`` plan, None
        where the layer routed nothing; passed back as ``plans`` they
        replay that frozen routing.
        """
        x = self.build_tokens(inputs)
        used = []
        for li, layer in enumerate(self.layers):
            a, plan = efficient_attention(x, layer,
                                          None if plans is None else plans[li])
            used.append(plan)
            g, b = self.norms[li]
            x = T.layer_norm(a, g, b, residual=x)
            if not np.all(np.isfinite(x.values)):
                raise FloatingPointError(f"non-finite output after layer {li}")
        return _readout(x, self.head_w, self.head_b), used


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_loss(probs, labels):
    """Mean binary cross-entropy, probabilities clipped to [1e-7, 1-1e-7]
    (the same guard the logloss metric uses), as one node.

    Bit for bit the graph ``-mean(y log p + (1-y) log(1-p))`` on
    ``p = clip(probs)``: its elementwise steps in its order, and inside
    the clip's bounds the gradient its two paths through p sum to.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != probs.shape:
        raise ValueError(f"labels shape {y.shape} vs probs {probs.shape}")
    if y.size and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    lo, hi = 1e-7, 1.0 - 1e-7
    p = np.clip(probs.values, lo, hi)
    q = 1.0 - p
    inv_n = 1.0 / y.size
    loss = ((y * np.log(p) + (1.0 - y) * np.log(q)).sum() * inv_n) * -1.0

    def bwd(g):
        gm = (g * -1.0) * inv_n
        gp = (gm * y) / p + -((gm * (1.0 - y)) / q)
        probs.accumulate_grad(gp * ((probs.values >= lo) & (probs.values <= hi)))
    return T._result(loss, (probs,), bwd)


def total_loss(model, inputs, labels, plans=None):
    """Task BCE plus the rotation diversity term.

    Returns (graph scalar, component floats); the diversity term is <= 0
    and only touches the rotation matrices.
    """
    probs = model.forward(inputs, plans)[0]
    bce = bce_loss(probs, labels)
    if not model.config.use_rotation:
        return bce, {"bce": float(bce.values), "diversity": 0.0,
                     "total": float(bce.values)}
    div = diversity_penalty(model.bank)
    total = T.add(bce, div)
    return total, {"bce": float(bce.values), "diversity": float(div.values),
                   "total": float(total.values)}


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def prepare_inputs(model, data):
    """Integer index arrays for one encoded partition.

    Static indices must fit the model's tables, which a partition
    encoded from another dataset's vocabularies need not.  SID mode
    looks every raw item id up in the code table and fails loudly on
    misses; raw mode hashes ids into the bucket table.  The result is
    sliced per batch by ``slice_inputs``.
    """
    feats = {}
    for f, table in model.static_tables.items():
        if f not in data.features:
            raise ValueError(f"partition is missing feature {f!r}")
        feats[f] = data.features[f]
        if feats[f].size and feats[f].max() >= table.shape[0]:
            raise ValueError(f"feature {f!r} is encoded with "
                             f"{int(feats[f].max()) + 1} values, but the "
                             f"model's table has {table.shape[0]} rows")
    out = {"static": feats, "labels": data.labels}
    items = data.raw_items
    if model.sid_tables is not None:
        out["sid"] = model.sid_table.codes[sid_rows(model.sid_table, items)]
    else:
        buckets = model.config.hash_buckets
        out["raw"] = np.array([zlib.crc32(str(s).encode()) % buckets
                               for s in items], dtype=np.int64)
    return out


def slice_inputs(inputs, idx):
    out = {"static": {f: v[idx] for f, v in inputs["static"].items()}}
    for key in ("sid", "raw", "labels"):
        if key in inputs:
            out[key] = inputs[key][idx]
    return out


def predict(model, inputs, batch_size=1024):
    """Scores for a whole partition, in file order: ``forward`` on a
    frozen view of the model, so no graph for a gradient is built."""
    view = model.frozen()
    scores = []
    for idx in batch_iter(inputs["labels"].size, batch_size):
        scores.append(view.forward(slice_inputs(inputs, idx))[0].values)
    return np.concatenate(scores) if scores else np.zeros(0)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def model_flops(config, groups, rho=None, batch=1):
    """Analytic forward flops for ``batch`` instances.

    Embedding gathers are free; the fuser MLPs, rotations, token
    projection, attention stack and head are counted as multiply-adds
    times two, matching the attention counter's conventions.
    """
    rho = config.rho if rho is None else rho
    kb = k_blocks_for(config.h, config.block_size, rho)
    macs = 0
    hidden = 2 * groups.d_g
    for grp in groups.groups:
        d_in = len(grp.features) * grp.emb_dim
        macs += d_in * hidden + hidden * groups.d_g
    macs += config.h * groups.d_c * groups.d_c            # rotated views
    macs += config.h * (config.d_s + groups.d_c) * config.d
    macs += config.d                                      # head
    flops = 2 * macs
    flops += config.n_layers * attention_flops(
        config.h, config.d, config.n_heads, config.block_size, kb)
    return batch * flops


def flops_ratio(config, groups):
    """Full-forward cost of the dense (rho = 1) variant over the routed
    one; > 1 exactly when routing drops at least one block."""
    return model_flops(config, groups, rho=1.0) / model_flops(config, groups)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def fit(train, val, config, groups, sid_table=None):
    """Train on one encoded partition, score another after each epoch.

    Returns (model, log); the log holds one dict per epoch with fields
    epoch, train_loss, val_auc, val_gauc, val_logloss, flops_per_batch.
    Identical config and data give an identical log, float for float.
    ``groups`` must partition the group key and static columns of
    ``train``'s schema: a column left out is an error, not a silent drop.
    """
    groups.check_partition([train.schema.group_col] + train.schema.static_cols)
    model = StoreModel(config, groups, train.vocab_sizes, sid_table=sid_table)
    tr = prepare_inputs(model, train)
    va = prepare_inputs(model, val) if val is not None else None
    main = model.params()
    opt = T.Adam(main, lr=config.lr)
    flops = model_flops(config, groups, batch=config.batch_size)
    log = []
    for epoch in range(config.epochs):
        running, seen = 0.0, 0
        for idx in batch_iter(len(train), config.batch_size,
                              shuffle_seed=config.seed, epoch=epoch):
            binp = slice_inputs(tr, idx)
            total, parts = total_loss(model, binp, binp["labels"])
            if not np.isfinite(parts["total"]):
                raise FloatingPointError(f"non-finite loss in epoch {epoch + 1}")
            if config.use_rotation:
                grads = T.grad(total, main + model.bank.mats)
                opt.step(grads[:len(main)])
                rotation_step(model.bank, grads[len(main):], lr=config.rot_lr)
            else:
                opt.step(T.grad(total, main))
            running += parts["bce"] * idx.size
            seen += idx.size
        rec = {"epoch": epoch + 1, "train_loss": running / seen}
        if va is not None:
            scores = predict(model, va, config.batch_size)
            rec["val_auc"] = auc(va["labels"], scores)
            rec["val_gauc"] = gauc(va["labels"], scores, val.groups)
            rec["val_logloss"] = logloss(va["labels"], scores)
        rec["flops_per_batch"] = flops
        log.append(rec)
    return model, log


def evaluate(model, data, batch_size=1024):
    """Ranking metrics of a trained model on one encoded partition."""
    inputs = prepare_inputs(model, data)
    scores = predict(model, inputs, batch_size)
    return {"auc": auc(data.labels, scores),
            "gauc": gauc(data.labels, scores, data.groups),
            "logloss": logloss(data.labels, scores),
            "n": int(data.labels.size)}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

STORE_MAGIC = b"STRM2"


def _store_arrays(model):
    """(name, tensor) pairs in a fixed layout order."""
    out = [(f"static.{f}", t) for f, t in model.static_tables.items()]
    for i, (w1, b1, w2, b2) in enumerate(model.fuser.layers):
        out += [(f"fuser.{i}.w1", w1), (f"fuser.{i}.b1", b1),
                (f"fuser.{i}.w2", w2), (f"fuser.{i}.b2", b2)]
    if model.sid_tables is not None:
        out += [(f"sid.{i}", t) for i, t in enumerate(model.sid_tables)]
    else:
        out.append(("raw", model.raw_table))
    out += [("proj_w", model.proj_w), ("proj_b", model.proj_b)]
    for i, layer in enumerate(model.layers):
        out += [(f"attn.{i}.wq", layer.wq), (f"attn.{i}.wk", layer.wk),
                (f"attn.{i}.wv", layer.wv), (f"attn.{i}.wo", layer.wo)]
    for i, (g, b) in enumerate(model.norms):
        out += [(f"norm.{i}.gamma", g), (f"norm.{i}.beta", b)]
    out += [("head_w", model.head_w), ("head_b", model.head_b)]
    out += [(f"rot.{i}", m) for i, m in enumerate(model.bank.mats)]
    return out


def save_store(path, model):
    """Write the model as an ``artifact`` container: config, groups,
    vocabulary sizes and SID item ids in the header; the SID codes as
    ``<i8`` (when present), then the parameters in layout order."""
    header = {
        "config": asdict(model.config),
        "d_g": model.groups.d_g,
        "groups": [{"name": g.name, "features": list(g.features),
                    "emb_dim": g.emb_dim} for g in model.groups.groups],
        "vocab_sizes": {f: int(t.shape[0])
                        for f, t in model.static_tables.items()},
        "sid_ids": None if model.sid_table is None else model.sid_table.ids,
    }
    arrays = [(name, t.values) for name, t in _store_arrays(model)]
    if model.sid_table is not None:
        arrays.insert(0, ("sid_codes", np.asarray(model.sid_table.codes,
                                                  dtype="<i8")))
    artifact.write(path, STORE_MAGIC, header, arrays)


# a feature group in a model.strm header
_GROUP_FIELDS = {"name": str, "features": [str], "emb_dim": int}


def load_store(path):
    header, arrays = artifact.read(path, STORE_MAGIC)
    config = artifact.config(path, StoreConfig, header.get("config"))
    with artifact.named(path):
        groups = GroupConfig(tuple(
            FeatureGroup(g["name"], tuple(g["features"]), g["emb_dim"])
            for g in artifact.typed(path, header, "groups", [_GROUP_FIELDS])),
            artifact.typed(path, header, "d_g", int))
        sid_table = None
        if header["sid_ids"] is not None:
            sid_table = SidTable(artifact.typed(path, header, "sid_ids", [str]),
                                 artifact.take(path, arrays, "sid_codes", "<i8"),
                                 config.v)
        model = StoreModel(config, groups,
                           artifact.typed(path, header, "vocab_sizes", {str: int}),
                           sid_table=sid_table)
        artifact.restore(path, arrays, _store_arrays(model))
    return model


# ---------------------------------------------------------------------------
# reference baseline
# ---------------------------------------------------------------------------

def _lr_scores(tables, bias, data):
    z = np.full(len(data), float(bias.values[0]))
    for f, tbl in tables.items():
        z = z + tbl.values[data.features[f]]
    return T.sigmoid_values(z)


def train_lr_baseline(train, val, lr=0.05, epochs=2, batch_size=512, seed=0):
    """Logistic regression on the one-hot encoding of every feature column.

    Purely additive, so planted pairwise interactions are invisible to
    it; this is the floor the token model has to clear.  Returns
    (final val scores, epoch log).
    """
    tables = {f: T.zeros((v,)) for f, v in sorted(train.vocab_sizes.items())}
    bias = T.zeros((1,))
    params = list(tables.values()) + [bias]
    opt = T.Adam(params, lr=lr)
    log = []
    for epoch in range(epochs):
        running, seen = 0.0, 0
        for idx in batch_iter(len(train), batch_size,
                              shuffle_seed=seed, epoch=epoch):
            z = T.broadcast_to(bias, (idx.size,))
            for f, tbl in tables.items():
                z = T.add(z, T.embedding(tbl, train.features[f][idx]))
            loss = bce_loss(T.sigmoid(z), train.labels[idx])
            opt.step(T.grad(loss, params))
            running += float(loss.values) * idx.size
            seen += idx.size
        scores = _lr_scores(tables, bias, val)
        log.append({"epoch": epoch + 1, "train_loss": running / seen,
                    "val_auc": auc(val.labels, scores),
                    "val_logloss": logloss(val.labels, scores)})
    return _lr_scores(tables, bias, val), log
