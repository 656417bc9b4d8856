"""Fused static-feature blocks and their orthogonal rotated views.

Low-cardinality static features are partitioned by hand into semantic
groups.  Each group's embedded features pass through a small MLP (one
``T.mlp``: dense, tanh, dense) and the per-group outputs concatenate
into an instance-wise block C of dimension d_c = K_grp * d_g.  A bank
of K square orthogonal matrices then produces K views O_i = C @ R_i
(row-vector convention), one per downstream attention head.

The bank stays on the orthogonal manifold by polar projection: after a
plain gradient step on R_i, the nearest orthogonal matrix (in Frobenius
norm) replaces it.  A diversity term -lam * sum_{i<j} ||R_i - R_j||_F^2
is added to the task loss so the views do not collapse onto each other;
minimizing it pushes the matrices apart.  Rotations are indexed 0-based
like everything else here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class FeatureGroup:
    """One semantic group: feature columns fused together by one MLP."""
    name: str
    features: tuple
    emb_dim: int = 8

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError(f"group {self.name!r} has no features")
        if self.emb_dim < 1:
            raise ValueError(f"group {self.name!r}: emb_dim must be >= 1")


@dataclass(frozen=True)
class GroupConfig:
    """Partition of the static features into groups, plus the fused width d_g."""
    groups: tuple
    d_g: int = 16

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("need at least one feature group")
        if self.d_g < 1:
            raise ValueError("d_g must be >= 1")
        seen = set()
        for grp in self.groups:
            for f in grp.features:
                if f in seen:
                    raise ValueError(f"feature {f!r} appears in more than one group")
                seen.add(f)

    @property
    def d_c(self):
        return len(self.groups) * self.d_g

    def feature_names(self):
        return [f for grp in self.groups for f in grp.features]

    def check_partition(self, available):
        """Every grouped feature must exist; every available static feature
        must be grouped (the grouping is a partition, not a subset)."""
        available = set(available)
        grouped = set(self.feature_names())
        missing = grouped - available
        if missing:
            raise ValueError(f"grouped features not in data: {sorted(missing)}")
        ungrouped = available - grouped
        if ungrouped:
            raise ValueError(f"static features missing from groups: {sorted(ungrouped)}")


class GroupFuser:
    """Per-group ``T.mlp``s (one tanh hidden layer, width 2*d_g) producing C."""

    def __init__(self, config, rng):
        self.config = config
        self.layers = []
        hidden = 2 * config.d_g
        for grp in config.groups:
            d_in = len(grp.features) * grp.emb_dim
            self.layers.append((
                T.glorot(rng, (d_in, hidden)),
                T.zeros((hidden,)),
                T.glorot(rng, (hidden, config.d_g)),
                T.zeros((config.d_g,)),
            ))

    def fuse_groups(self, features):
        """Concatenate MLP_k(g_k) over groups.

        ``features`` maps feature name -> (n, emb_dim) Tensor of embedded
        values.  Output is (n, d_c).
        """
        outs = []
        for grp, layer in zip(self.config.groups, self.layers):
            cols = []
            for f in grp.features:
                if f not in features:
                    raise ValueError(f"group {grp.name!r}: missing feature {f!r}")
                cols.append(features[f])
            x = cols[0] if len(cols) == 1 else T.concat(cols, axis=1)
            outs.append(T.mlp(x, layer))
        return outs[0] if len(outs) == 1 else T.concat(outs, axis=1)


def random_orthogonal(dim, seed):
    """Deterministic random orthogonal matrix (QR of a gaussian, sign-fixed)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


def project_orthogonal(m):
    """Nearest orthogonal matrix in Frobenius norm (the polar factor U Vt)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    u, s, vt = np.linalg.svd(m)
    if s.min() < 1e-8:
        raise ValueError("matrix is rank-deficient; polar factor is not unique")
    return u @ vt


class RotationBank:
    """K square orthogonal matrices of size d_c, kept orthogonal by projection."""

    def __init__(self, k, dim, seed, lam=0.1):
        if k < 1:
            raise ValueError("need at least one rotation")
        rng = np.random.default_rng(seed)
        self.lam = float(lam)
        self.mats = [T.Tensor(random_orthogonal(dim, rng), requires_grad=True)
                     for _ in range(k)]

    @property
    def k(self):
        return len(self.mats)

    @property
    def dim(self):
        return self.mats[0].shape[0]

    def orthogonality_errors(self):
        """||R^T R - I||_F per matrix; the bank invariant keeps these < 1e-6."""
        eye = np.eye(self.dim)
        return [float(np.linalg.norm(r.values.T @ r.values - eye)) for r in self.mats]

    def pairwise_distance(self):
        """sum_{i<j} ||R_i - R_j||_F^2, as a plain float."""
        total = 0.0
        for i in range(self.k):
            for j in range(i + 1, self.k):
                total += float(((self.mats[i].values - self.mats[j].values) ** 2).sum())
        return total


def rotate(c, bank, i):
    """O_i = C @ R_i for instances in rows of C; preserves row norms."""
    if not 0 <= i < bank.k:
        raise ValueError(f"rotation index {i} out of range [0, {bank.k})")
    return T.matmul(c, bank.mats[i])


def diversity_penalty(bank):
    """-lam * sum_{i<j} ||R_i - R_j||_F^2 as one node over the K
    rotations.  Always <= 0; zero iff all matrices coincide (or K = 1).
    Minimizing it maximizes pairwise separation.

    Bit for bit the per-pair graph (sub, mul and tsum per pair, an add
    chain, the scale by -lam): the squares sum in (i, j) order, and the
    backward takes the pairs in that order, handing R_i a square's two
    equal parts p + p and R_j their negation.
    """
    if bank.k < 2:
        return T.Tensor(0.0)
    neg_lam = -bank.lam
    pairs = [(a, b, a.values - b.values)
             for i, a in enumerate(bank.mats) for b in bank.mats[i + 1:]]
    # from 0, which adds exactly: no square is -0.0
    total = sum((d * d).sum() for _, _, d in pairs)

    def bwd(g):
        for a, b, d in pairs:
            p = g * neg_lam * d
            p += p
            if a.requires_grad:
                a.accumulate_grad(p)
            if b.requires_grad:
                b.accumulate_grad(-p)
    return T._result(total * neg_lam, bank.mats, bwd)


def rotation_step(bank, grads, lr=0.01):
    """Gradient step on each R_i followed by polar re-projection.

    ``grads`` aligns with ``bank.mats``.  An exactly-zero gradient skips
    its matrix entirely, so a no-op step leaves the bank bitwise intact.
    """
    if len(grads) != bank.k:
        raise ValueError("rotation_step: one gradient per rotation required")
    for mat, g in zip(bank.mats, grads):
        if g.shape != mat.values.shape:
            raise ValueError(f"rotation_step: grad shape {g.shape} vs {mat.values.shape}")
        if not np.any(g):
            continue
        mat.values = project_orthogonal(mat.values - lr * g)
    errs = bank.orthogonality_errors()
    if max(errs) >= 1e-6:
        raise FloatingPointError(f"orthogonality lost after projection: {max(errs):.3e}")
    return bank
