"""Datasets, synthetic CTR generation, splits and deterministic batching.

A dataset is raw string columns plus binary labels, kept on disk in a
``data.strd`` cache.  Categorical encoding is a separate step:
vocabularies come from the training partition only, with index 0
reserved for out-of-vocabulary values, so validation rows can never
leak labels through the encoding.  The split is a seeded random one.

The synthetic generator plants a known structure: items carry
cluster-shaped embeddings, and the click logit mixes linear effects
with two pairwise interactions (user taste x item cluster, item cluster
x first static feature).  A one-hot linear model can fit the marginals
but not the interactions, which is exactly the gap the ranking model is
supposed to close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact
from . import tensor as T
from .options import check_finite
from .tokenizer import EmbeddingTable

ROLES = ("high_cardinality_item", "static", "group_key", "label")
CACHE_MAGIC = b"STRD2"


class DatasetSchema:
    """Ordered columns with roles; exactly one label, at least one item
    and one group-key column."""

    def __init__(self, columns):
        names = [c[0] for c in columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        for name, role in columns:
            if role not in ROLES:
                raise ValueError(f"column {name!r} has unknown role {role!r}")
        roles = [c[1] for c in columns]
        if roles.count("label") != 1:
            raise ValueError("schema needs exactly one label column")
        if roles.count("high_cardinality_item") < 1:
            raise ValueError("schema needs an item column")
        if roles.count("group_key") < 1:
            raise ValueError("schema needs a group-key column")
        self.columns = [(str(n), str(r)) for n, r in columns]

    @property
    def label_col(self):
        return next(n for n, r in self.columns if r == "label")

    @property
    def item_col(self):
        return next(n for n, r in self.columns if r == "high_cardinality_item")

    @property
    def group_col(self):
        return next(n for n, r in self.columns if r == "group_key")

    @property
    def static_cols(self):
        return [n for n, r in self.columns if r == "static"]

    @property
    def feature_cols(self):
        """Everything encodable: item, statics, group key, in schema order."""
        return [n for n, r in self.columns if r != "label"]


class Dataset:
    """Raw string columns plus binary labels, one row per instance."""

    def __init__(self, schema, columns, labels):
        labels = np.asarray(labels, dtype=np.int8)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-d")
        if labels.size and not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be binary")
        self.schema = schema
        self.columns = {}
        for name in schema.feature_cols:
            if name not in columns:
                raise ValueError(f"missing column {name!r}")
            col = np.asarray(columns[name])
            if col.shape != labels.shape:
                raise ValueError(f"column {name!r} length {col.shape} "
                                 f"!= labels {labels.shape}")
            self.columns[name] = col
        self.labels = labels

    def __len__(self):
        return self.labels.size

    def column(self, name):
        return self.columns[name]

    def subset(self, indices):
        indices = np.asarray(indices)
        return Dataset(self.schema,
                       {n: c[indices] for n, c in self.columns.items()},
                       self.labels[indices])


# ---------------------------------------------------------------------------
# encoding and splits
# ---------------------------------------------------------------------------

def build_vocab(values):
    """Sorted distinct values -> indices starting at 1; 0 is reserved OOV."""
    return {v: i + 1 for i, v in enumerate(sorted(set(values)))}


def encode_column(values, vocab):
    return np.fromiter((vocab.get(v, 0) for v in values),
                       count=len(values), dtype=np.int64)


class EncodedData:
    """Integer-coded features ready for model consumption.

    features: column name -> int codes (0 = out of vocabulary);
    vocab_sizes include the OOV slot.  Raw item strings are kept for
    SID lookup, groups alias the group-key codes for GAUC.
    """

    def __init__(self, schema, features, labels, raw_items):
        self.schema = schema
        self.features = features
        self.labels = np.asarray(labels, dtype=np.float64)
        self.raw_items = raw_items
        self.groups = features[schema.group_col]

    def __len__(self):
        return self.labels.size


def encode_features(train, val, schema):
    """Encode both partitions with train-only vocabularies.

    Returns (train_encoded, val_encoded, vocabs).  Validation values
    unseen in training map to 0.
    """
    vocabs = {n: build_vocab(train.column(n)) for n in schema.feature_cols}
    out = []
    for ds in (train, val):
        if ds is None:
            out.append(None)
            continue
        feats = {n: encode_column(ds.column(n), vocabs[n])
                 for n in schema.feature_cols}
        enc = EncodedData(schema, feats, ds.labels, ds.column(schema.item_col))
        out.append(enc)
    vocab_sizes = {n: len(v) + 1 for n, v in vocabs.items()}
    for enc in out:
        if enc is not None:
            enc.vocab_sizes = vocab_sizes
    return out[0], out[1], vocabs


def random_split(dataset, val_fraction=0.1, seed=0):
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if seed < 0:
        raise ValueError(f"split seed must be >= 0, got {seed}")
    n = len(dataset)
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise ValueError(f"validation fraction {val_fraction} leaves no training rows")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


def batch_iter(data, batch_size, shuffle_seed=None, epoch=0):
    """Yield index arrays covering the data exactly once.

    shuffle_seed None keeps original order; otherwise the permutation is
    a pure function of (shuffle_seed, epoch).  The last short batch is
    kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = data if isinstance(data, int) else len(data)
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        order = np.random.default_rng([int(shuffle_seed), int(epoch)]).permutation(n)
    for a in range(0, n, batch_size):
        yield order[a:a + batch_size]


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    n_instances: int = 10000
    n_items: int = 1000
    n_users: int = 200
    d_p: int = 16
    n_clusters: int = 16
    static_cards: tuple = (8, 12)
    n_user_tastes: int = 8
    noise_rate: float = 0.02
    interaction_scale: float = 2.0
    linear_scale: float = 0.6
    bias: float = -0.4
    embed_noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_clusters > self.n_items:
            raise ValueError(f"n_clusters {self.n_clusters} > n_items {self.n_items}")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError(f"noise_rate must be in [0, 0.5), got {self.noise_rate}")
        if min(self.n_instances, self.n_users, self.d_p, self.n_clusters,
               self.n_user_tastes) < 1:
            raise ValueError("n_instances, n_users, d_p, n_clusters and "
                             "n_user_tastes must be positive")
        if not self.static_cards or min(self.static_cards) < 1:
            raise ValueError(f"need at least one static card, each >= 1, "
                             f"got {list(self.static_cards)}")


def synthetic_schema(spec):
    cols = [("click", "label"),
            ("item_id", "high_cardinality_item"),
            ("user_id", "group_key")]
    cols += [(f"f{j}", "static") for j in range(len(spec.static_cards))]
    return DatasetSchema(cols)


def gen_synthetic(spec):
    """(Dataset, EmbeddingTable) with planted, learnable click structure.

    Click logit = bias + linear(cluster, statics, user)
                + taste(user) x cluster + cluster x f0.
    The planted per-instance probabilities are attached to the dataset
    as ``planted_probs`` for calibration checks.
    """
    rng = np.random.default_rng(spec.seed)
    centers = 2.0 * rng.normal(size=(spec.n_clusters, spec.d_p))
    item_cluster = rng.integers(spec.n_clusters, size=spec.n_items)
    vectors = centers[item_cluster] + spec.embed_noise * rng.normal(
        size=(spec.n_items, spec.d_p))
    table = EmbeddingTable(np.arange(spec.n_items).astype(str), vectors)

    user_taste = rng.integers(spec.n_user_tastes, size=spec.n_users)
    w_taste_cluster = spec.interaction_scale * rng.normal(
        size=(spec.n_user_tastes, spec.n_clusters))
    w_cluster_f0 = spec.interaction_scale * rng.normal(
        size=(spec.n_clusters, spec.static_cards[0]))
    w_cluster = spec.linear_scale * rng.normal(size=spec.n_clusters)
    w_user = spec.linear_scale * rng.normal(size=spec.n_users)
    w_static = [spec.linear_scale * rng.normal(size=c) for c in spec.static_cards]

    n = spec.n_instances
    items = rng.integers(spec.n_items, size=n)
    users = rng.integers(spec.n_users, size=n)
    statics = [rng.integers(c, size=n) for c in spec.static_cards]

    cl = item_cluster[items]
    logit = spec.bias + w_cluster[cl] + w_user[users]
    for j, s in enumerate(statics):
        logit = logit + w_static[j][s]
    logit = logit + w_taste_cluster[user_taste[users], cl]
    logit = logit + w_cluster_f0[cl, statics[0]]
    probs = T.sigmoid_values(logit)
    labels = (rng.random(n) < probs).astype(np.int8)
    if spec.noise_rate > 0.0:
        flip = rng.random(n) < spec.noise_rate
        labels = np.where(flip, 1 - labels, labels).astype(np.int8)

    cols = {"item_id": items.astype(str).astype(object),
            "user_id": users.astype(str).astype(object)}
    for j, s in enumerate(statics):
        cols[f"f{j}"] = s.astype(str).astype(object)
    ds = Dataset(synthetic_schema(spec), cols, labels)
    ds.planted_probs = probs
    return ds, table


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

def save_dataset_cache(path, dataset):
    """Write the dataset as an ``artifact`` container: the schema in the
    header, then one newline-joined utf-8 ``uint8`` blob per feature
    column and the ``<i1`` labels, each named by its schema column."""
    arrays = []
    for name in dataset.schema.feature_cols:
        vals = dataset.column(name)
        if any("\n" in str(v) for v in vals):
            raise ValueError(f"column {name!r} contains newline values")
        blob = "\n".join(str(v) for v in vals).encode("utf-8")
        arrays.append((name, np.frombuffer(blob, dtype=np.uint8)))
    arrays.append((dataset.schema.label_col,
                   np.asarray(dataset.labels, dtype="<i1")))
    header = {"schema": [[n, r] for n, r in dataset.schema.columns]}
    artifact.write(path, CACHE_MAGIC, header, arrays)


def load_dataset_cache(path):
    # only the schema is read: an older cache's "chronological" is ignored
    header, arrays = artifact.read(path, CACHE_MAGIC)
    # a column of the wrong length is refused by Dataset, named here
    with artifact.named(path):
        schema = DatasetSchema([(n, r) for n, r in artifact.typed(
            path, header, "schema", [(str, str)])])
        labels = artifact.take(path, arrays, schema.label_col, "<i1")
        cols = {}
        for name in schema.feature_cols:
            blob = artifact.take(path, arrays, name, np.uint8).tobytes().decode("utf-8")
            vals = blob.split("\n") if labels.size else []
            cols[name] = np.asarray(vals, dtype=object)
        return Dataset(schema, cols, labels)
