"""The cheaper ranker forward against the graphs and the routing it replaced.

``graph_layer_norm`` is the 17-op composite that ``T.layer_norm`` runs
as one node, and ``graph_residual_norm`` that composite after the
residual ``add`` that the node takes as a fourth parent.
``graph_build_tokens`` is the per-op token build (per position a lookup,
a rotation, a concat, an affine and a reshape, then a concat) that
``model._tokens`` runs as one node.  ``graph_readout`` (mean-pool, head
affine, sigmoid) and ``graph_bce_loss`` (clip, two logs, the weighted
mean) are the graphs ``model._readout`` and ``model.bce_loss`` run as
one node each.  ``argsort_route`` is the stable-argsort routing that
``moba_route`` does without sorting under 8 blocks.  The whole-fit
reference also sums every gradient out of place
(``graph_ops.accumulate_out_of_place``) and trains on dense table
gradients with the dense Adam.  All claim the same bits: values, every
gradient, block selections, the scores of ``predict``'s graph-free
forward and whole fits down to the bytes of a saved model and its log.
"""

import json

import numpy as np
import pytest

from storerank import attention as A
from storerank import model as M
from storerank import tensor as T
from storerank.data import (SyntheticSpec, batch_iter, encode_features, gen_synthetic,
                            random_split)
from storerank.rotation import FeatureGroup, GroupConfig, rotate
from storerank.tokenizer import SidTable

import graph_ops as G
from test_fused_attention import (CASES, block_ids, case_inputs,
                                  graph_efficient_attention)
from test_sparse_grad import DenseAdam, dense_lookup_grad


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

def graph_layer_norm(x, gamma, beta, eps=1e-5):
    d = x.shape[-1]
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = T.sub(x, T.broadcast_to(mu, x.shape))
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = G.power(T.add(var, eps), -0.5)
    normed = T.mul(centered, T.broadcast_to(inv_std, x.shape))
    lift = (1,) * (x.ndim - 1) + (d,)
    g = T.broadcast_to(T.reshape(gamma, lift), x.shape)
    b = T.broadcast_to(T.reshape(beta, lift), x.shape)
    return T.add(T.mul(normed, g), b)


def graph_residual_norm(x, gamma, beta, residual=None, eps=1e-5):
    """``T.layer_norm``'s signature, run as ``add`` then the composite."""
    return graph_layer_norm(x if residual is None else T.add(x, residual),
                            gamma, beta, eps)


def graph_build_tokens(model, inputs):
    """``StoreModel.build_tokens`` as the per-op graph."""
    cfg = model.config
    c = model.static_block(inputs)
    n = c.shape[0]
    toks = []
    for i in range(cfg.h):
        if model.sid_tables is not None:
            s = T.embedding(model.sid_tables[i], np.asarray(inputs["sid"])[:, i])
        else:
            s = T.embedding(model.raw_table, np.asarray(inputs["raw"]))
        view = rotate(c, model.bank, i) if cfg.use_rotation else c
        t = T.affine(T.concat([s, view], axis=1), model.proj_w, model.proj_b)
        toks.append(T.reshape(t, (n, 1, cfg.d)))
    return T.concat(toks, axis=1)


def graph_readout(x, head_w, head_b):
    """``model._readout`` as the per-op graph."""
    logits = T.affine(T.tmean(x, axis=1), head_w, head_b)
    return T.sigmoid(T.reshape(logits, (logits.shape[0],)))


def graph_bce_loss(probs, labels):
    """``model.bce_loss`` as the per-op graph."""
    y = np.asarray(labels, dtype=np.float64)
    p = G.clip(probs, 1e-7, 1.0 - 1e-7)
    pos = T.mul(T.Tensor(y), G.log(p))
    neg = T.mul(T.Tensor(1.0 - y), G.log(T.sub(T.Tensor(np.ones_like(y)), p)))
    return T.mul(T.tmean(T.add(pos, neg)), -1.0)


def per_op_references(mp):
    """Route a model through the per-op graphs and the argsort routing,
    summing every gradient out of place, and train it on dense table
    gradients with the dense Adam."""
    mp.setattr(T, "layer_norm", graph_residual_norm)
    mp.setattr(M.StoreModel, "build_tokens", graph_build_tokens)
    mp.setattr(M, "_readout", graph_readout)
    mp.setattr(M, "bce_loss", graph_bce_loss)
    mp.setattr(A, "moba_route", argsort_route)
    mp.setattr(T.Tensor, "accumulate_grad", G.accumulate_out_of_place)
    mp.setattr(T, "lookup_grad", dense_lookup_grad)
    mp.setattr(T, "Adam", DenseAdam)


def argsort_selection(q, k, block_size, k_blocks):
    """(block_ids, gates) as a stable argsort of the forced gates, then a
    sort of the first k_blocks, selected them."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim == 2:
        q, k = q[None], k[None]
    h = q.shape[-2]
    n_blocks = -(-h // block_size)
    if not 1 <= k_blocks <= n_blocks:
        raise ValueError(f"k_blocks {k_blocks} out of range")
    gates = q @ np.swapaxes(A._block_means(k, block_size), -1, -2)
    aug = gates.copy()
    aug[..., np.arange(h), np.arange(h) // block_size] = np.inf
    order = np.argsort(-aug, axis=-1, kind="stable")
    return np.sort(order[..., :k_blocks], axis=-1), gates


def argsort_route(q, k, block_size, k_blocks):
    ids, gates = argsort_selection(q, k, block_size, k_blocks)
    allowed = np.zeros(gates.shape, dtype=bool)
    np.put_along_axis(allowed, ids, True, axis=-1)
    return A.RoutingPlan(allowed, gates, block_size)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_grads(got, want):
    """Same kind of gradient (dense or ``RowSparse``, over the same
    rows), the same bits and, for a dense one, the same layout."""
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(g, T.RowSparse):
            assert np.array_equal(g.rows, w.rows)
        else:
            assert g.strides == w.strides
        assert same_bits(g, w)
    return len(got) == len(want)


HEADS = ["weighted", "pooled", "transposed"]


def head_loss(out, head):
    """A loss that weights ``out``, takes its mean over the sequence as
    the model's pooling does, or weights its transpose, so the gradient
    arrives in three memory layouts: the bits of a row reduction follow
    the layout of what it reduces."""
    if head == "weighted":
        w = np.sin(np.arange(out.values.size)).reshape(out.shape)
        return T.tsum(T.mul(out, T.Tensor(w)))
    if head == "pooled":
        pooled = T.tmean(out, axis=1) if out.ndim == 3 else T.tmean(out, axis=0)
        return T.tsum(T.mul(pooled, pooled))
    t = G.transpose_last(out)
    return T.tsum(T.mul(t, T.Tensor(np.cos(np.arange(t.values.size)).reshape(t.shape))))


# ---------------------------------------------------------------------------
# layer norm: one node, the composite's bits
# ---------------------------------------------------------------------------

def ln_run(norm, x_vals, gamma_vals, beta_vals, head, frozen, x_kind):
    """Output and (x, gamma, beta) gradients of a ``head_loss`` through
    ``norm``.  x enters as a residual ``add`` node, as in a model layer,
    or as a Fortran-ordered leaf."""
    x = T.Tensor(x_vals.copy(), requires_grad=True)
    if x_kind == "residual":
        x_in = T.add(x, T.Tensor(np.full(x_vals.shape, 0.25)))
    else:
        x_in = x = T.Tensor(np.asfortranarray(x_vals), requires_grad=True)
    gamma = T.Tensor(gamma_vals.copy(), requires_grad=not frozen)
    beta = T.Tensor(beta_vals.copy(), requires_grad=not frozen)
    out = norm(x_in, gamma, beta)
    T.backward(head_loss(out, head))
    return out.values, [x_in.grad, gamma.grad, beta.grad, x.grad]


LN_SHAPES = {
    "rank2": (7, 32),
    "rank3": (6, 3, 32),
    "workload": (512, 3, 32),
    "long_rows": (300, 5, 16),
    "one_row_rank2": (1, 32),
    "one_row_rank3": (1, 3, 32),
    "one_token": (5, 1, 32),
    "short_rows": (4, 5, 3),
    "odd_width": (3, 4, 9),
}


@pytest.mark.parametrize("x_kind", ["residual", "fortran_leaf"])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("head", ["weighted", "pooled", "transposed"])
@pytest.mark.parametrize("name", sorted(LN_SHAPES))
def test_layer_norm_is_the_composite_bit_for_bit(name, head, frozen, x_kind):
    shape = LN_SHAPES[name]
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[:-1] + (1,))
    x[(0,) * (len(shape) - 1)] = 2.5        # a constant row: eps carries it
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    got = ln_run(T.layer_norm, x, gamma, beta, head, frozen, x_kind)
    want = ln_run(graph_layer_norm, x, gamma, beta, head, frozen, x_kind)
    assert same_bits(got[0], want[0])
    assert got[0].strides == want[0].strides
    for g, r in zip(got[1], want[1]):
        assert (g is None) == (r is None)
        if g is not None:
            assert same_bits(g, r)
            assert g.strides == r.strides       # downstream products see one layout
    if frozen:
        assert got[1][1] is None and got[1][2] is None
    # with no parent needing a gradient, the in-place forward's bits
    x_in = x + 0.25 if x_kind == "residual" else np.asfortranarray(x)
    out = T.layer_norm(T.Tensor(x_in), T.Tensor(gamma), T.Tensor(beta))
    assert out._backward is None and same_bits(out.values, want[0])


def test_layer_norm_is_one_node_with_three_parents():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(4, 3, 8)), requires_grad=True)
    gamma = T.Tensor(np.ones(8), requires_grad=True)
    beta = T.zeros((8,))
    out = T.layer_norm(x, gamma, beta)
    assert out._parents == (x, gamma, beta)
    assert len(T._toposort(graph_layer_norm(x, gamma, beta))) == 17 + 3


# ---------------------------------------------------------------------------
# residual + layer norm: one node, the add and the composite's bits
# ---------------------------------------------------------------------------

RESIDUAL_SHAPES = {
    "h1_d18": (37, 1, 18),
    "h3_d20": (512, 3, 20),
    "h5_d18": (64, 5, 18),
    "h3_d32": (512, 3, 32),
    "one_row": (1, 3, 20),
    "rank2": (7, 20),
}


def residual_run(norm, a_vals, x_vals, gamma_vals, beta_vals, head, frozen, order):
    """Output and (a, x, gamma, beta) gradients of LN(a + x) through
    ``norm``, with a and x leaves in C or Fortran order; ``frozen``
    leaves gamma and beta without a gradient."""
    a = T.Tensor(np.array(a_vals, order=order), requires_grad=True)
    x = T.Tensor(np.array(x_vals, order=order), requires_grad=True)
    gamma = T.Tensor(gamma_vals.copy(), requires_grad=not frozen)
    beta = T.Tensor(beta_vals.copy(), requires_grad=not frozen)
    out = norm(a, gamma, beta, residual=x)
    T.backward(head_loss(out, head))
    return out, [a.grad, x.grad, gamma.grad, beta.grad]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("name", sorted(RESIDUAL_SHAPES))
def test_residual_norm_is_the_add_and_composite_bit_for_bit(name, head, frozen, order):
    shape = RESIDUAL_SHAPES[name]
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[:-1] + (1,))
    x = rng.normal(size=shape)
    a[(0,) * (len(shape) - 1)] = 2.5 - x[(0,) * (len(shape) - 1)]     # a constant row
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    got = residual_run(T.layer_norm, a, x, gamma, beta, head, frozen, order)
    want = residual_run(graph_residual_norm, a, x, gamma, beta, head, frozen, order)
    assert same_bits(got[0].values, want[0].values)
    assert got[0].values.strides == want[0].values.strides
    for g, r in zip(got[1], want[1]):
        assert (g is None) == (r is None)
        if g is not None:
            assert same_bits(g, r) and g.strides == r.strides
    # the sum's one gradient reaches both summands, as from the add
    assert got[1][0] is got[1][1]
    # and with no parent needing a gradient, the in-place forward's bits
    const = [T.Tensor(np.array(v, order=order)) for v in (a, x)]
    out = T.layer_norm(const[0], T.Tensor(gamma), T.Tensor(beta), residual=const[1])
    assert out._backward is None
    assert same_bits(out.values, want[0].values)
    assert np.array_equal(const[0].values, np.array(a, order=order))


def test_residual_norm_is_one_node_with_four_parents():
    rng = np.random.default_rng(1)
    a, x = (T.Tensor(rng.normal(size=(4, 3, 8)), requires_grad=True) for _ in range(2))
    gamma, beta = T.Tensor(np.ones(8), requires_grad=True), T.zeros((8,))
    assert T.layer_norm(a, gamma, beta, residual=x)._parents == (a, gamma, beta, x)
    assert len(T._toposort(graph_residual_norm(a, gamma, beta, residual=x))) == 18 + 4
    with pytest.raises(ValueError, match="shape mismatch"):
        T.layer_norm(a, gamma, beta, residual=T.Tensor(np.zeros((4, 2, 8))))


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("name", ["workload", "short_last_block", "d18_3_heads",
                                  "d20_4_heads"])
def test_a_layer_is_the_per_op_layer_bit_for_bit(name, head):
    """An attention layer then LN(a + x): x takes the residual part
    first, then the q, k and v parts, as in the per-op graph."""
    params, x_vals, _ = case_inputs(CASES[name])
    d = x_vals.shape[-1]
    rng = np.random.default_rng(d)
    gamma_vals, beta_vals = rng.normal(size=d), rng.normal(size=d)

    def run(norm):
        x = T.Tensor(x_vals.copy(), requires_grad=True)
        gamma = T.Tensor(gamma_vals.copy(), requires_grad=True)
        beta = T.Tensor(beta_vals.copy(), requires_grad=True)
        out = norm(A.efficient_attention(x, params)[0], gamma, beta, residual=x)
        return out.values, T.grad(head_loss(out, head), [x, gamma, beta] + params.params())

    got, want = run(T.layer_norm), run(graph_residual_norm)
    assert same_bits(got[0], want[0])
    assert same_grads(got[1], want[1])


# ---------------------------------------------------------------------------
# the readout and the loss: one node each, the per-op graphs' bits
# ---------------------------------------------------------------------------

def readout_leaves(n, seed, layout):
    """x (n, 3, 8) in a C, F or transposed-view layout, and a head
    large enough that some probabilities fall outside the loss's clip."""
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(n, 3, 8))
    if layout == "F":
        xv = np.asfortranarray(xv)
    elif layout == "transposed":
        xv = np.swapaxes(np.ascontiguousarray(np.swapaxes(xv, 1, 2)), 1, 2)
    return [T.Tensor(xv, requires_grad=True),
            T.Tensor(rng.normal(scale=20.0, size=(8, 1)), requires_grad=True),
            T.Tensor(rng.normal(size=1), requires_grad=True)]


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("n", [1, 31, 512])
def test_readout_node_is_the_per_op_graph_bit_for_bit(n, head, layout):
    def run(readout):
        leaves = readout_leaves(n, n, layout)
        out = readout(*leaves)
        return out.values, T.grad(head_loss(T.reshape(out, (n, 1)), head), leaves)

    got, want = run(M._readout), run(graph_readout)
    assert same_bits(got[0], want[0])
    assert same_grads(got[1], want[1])


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("n", [1, 31, 512])
def test_bce_node_is_the_per_op_graph_bit_for_bit(n, layout):
    labels = np.random.default_rng(n + 1).integers(0, 2, size=n).astype(float)

    def run(readout, loss):
        leaves = readout_leaves(n, n, layout)
        probs = readout(*leaves)
        out = loss(probs, labels)
        return probs.values, out.values, T.grad(out, leaves)

    got = run(M._readout, M.bce_loss)
    want = run(graph_readout, graph_bce_loss)
    if n > 1:       # the clip cuts some rows off, in both tails
        assert (got[0] < 1e-7).any() and (got[0] > 1.0 - 1e-7).any()
    assert same_bits(got[1], want[1])
    assert same_grads(got[2], want[2])


def test_readout_and_loss_are_one_node_each():
    x, w, b = readout_leaves(4, 0, "C")
    probs = M._readout(x, w, b)
    assert probs._parents == (x, w, b)
    assert M.bce_loss(probs, np.ones(4))._parents == (probs,)
    assert len(T._toposort(graph_bce_loss(graph_readout(x, w, b), np.ones(4)))) == 3 + 5 + 13


# ---------------------------------------------------------------------------
# the token node: the per-op build's bits
# ---------------------------------------------------------------------------

TOKEN_GROUPS = GroupConfig((FeatureGroup("audience", ("user_id",), 4),
                            FeatureGroup("context", ("f0", "f1"), 3)), 6)
TOKEN_VOCAB = {"user_id": 40, "f0": 7, "f1": 5}

# batch size and config: H in {1, 3, 5}, token widths 18, 20 and 32,
# code tables or the hashed table (row-sparse or dense gradients), with
# and without rotations
TOKEN_CASES = {
    "h1_d18": (37, dict(h=1, d=18, n_heads=3, d_s=5)),
    "h3_d20": (512, dict(h=3, d=20, n_heads=4)),
    "h5_d32": (64, dict(h=5, d=32, d_s=16)),
    "h3_d18_one_row": (1, dict(h=3, d=18, n_heads=3)),
    "h3_raw_row_sparse": (300, dict(h=3, d=20, use_raw_ids=True, hash_buckets=4096)),
    "h5_raw_dense": (300, dict(h=5, d=18, n_heads=3, use_raw_ids=True, hash_buckets=64)),
    "h5_no_rotation": (31, dict(h=5, d=20, use_rotation=False)),
    "h3_raw_no_rotation": (40, dict(h=3, d=18, n_heads=3, use_raw_ids=True,
                                    hash_buckets=4096, use_rotation=False)),
}


def moved_off_init(model, rng):
    """``model`` with every parameter but the rotations moved off its
    init (an untrained head would score 0.5 everywhere)."""
    for name, t in M._store_arrays(model):
        if not name.startswith("rot."):
            t.values = t.values + 0.3 * rng.normal(size=t.shape)
    return model


def token_model(n, overrides, seed):
    """A model moved off its init, and a batch."""
    rng = np.random.default_rng(seed)
    cfg = M.StoreConfig(**{**dict(v=8, d_s=8, d=16, seed=seed), **overrides})
    sids = None
    if not cfg.use_raw_ids:
        sids = SidTable([str(i) for i in range(50)],
                        rng.integers(cfg.v, size=(50, cfg.h)), cfg.v)
    model = moved_off_init(M.StoreModel(cfg, TOKEN_GROUPS, TOKEN_VOCAB, sid_table=sids),
                           rng)
    inputs = {"static": {f: rng.integers(v, size=n) for f, v in TOKEN_VOCAB.items()},
              "labels": rng.integers(2, size=n).astype(np.float64)}
    if cfg.use_raw_ids:
        inputs["raw"] = rng.integers(cfg.hash_buckets, size=n)
    else:
        inputs["sid"] = rng.integers(cfg.v, size=(n, cfg.h))
    return model, inputs


def reached_params(model, loss):
    reached = {id(t) for t in T._toposort(loss)}
    return [t for _, t in M._store_arrays(model) if id(t) in reached]


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("name", sorted(TOKEN_CASES))
def test_token_node_is_the_per_op_build_bit_for_bit(name, head):
    n, overrides = TOKEN_CASES[name]
    model, inputs = token_model(n, overrides, seed=len(name))

    def run(build):
        out = build(model, inputs)
        loss = head_loss(out, head)
        return out.values, T.grad(loss, reached_params(model, loss))

    got, want = run(M.StoreModel.build_tokens), run(graph_build_tokens)
    assert same_bits(got[0], want[0]) and got[0].strides == want[0].strides
    assert same_grads(got[1], want[1])
    # the frozen view's forward: the same bits, and no backward
    frozen = model.frozen().build_tokens(inputs)
    assert frozen._backward is None and same_bits(frozen.values, want[0])


def test_token_node_has_the_token_parents():
    model, inputs = token_model(8, dict(h=3), seed=0)
    out = model.build_tokens(inputs)
    c = out._parents[0]
    assert out._parents[1:] == tuple(model.sid_tables + model.bank.mats
                                     + [model.proj_w, model.proj_b])
    assert same_bits(c.values, model.static_block(inputs).values)
    raw, inputs = token_model(8, dict(h=3, use_raw_ids=True, use_rotation=False), seed=0)
    assert raw.build_tokens(inputs)._parents[1:] == (raw.raw_table, raw.proj_w, raw.proj_b)
    with pytest.raises(ValueError, match="integers"):
        raw.build_tokens({**inputs, "raw": inputs["raw"].astype(np.float64)})


# ---------------------------------------------------------------------------
# short-row reductions
# ---------------------------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])


@pytest.mark.parametrize("ufunc", [np.add, np.maximum])
@pytest.mark.parametrize("n", range(1, 13))
def test_reduce_keepdims_is_numpys_reduction(ufunc, n):
    rng = np.random.default_rng(n)
    for shape, axis in (((300, n), -1), ((40, 6, n), -1), ((40, 6, n), 2),
                        ((n, 5), 0), ((30, n, 4), 1)):
        for density in (0.0, 0.3, 0.9):
            x = rng.normal(size=shape) * rng.choice([1e-300, 1.0, 1e300], size=shape)
            hit = rng.random(shape) < density
            x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
            # C order, then Fortran order and a transposed view, whose
            # rows numpy may reduce in another order
            for a in (x, np.asfortranarray(x), np.ascontiguousarray(x.T).T):
                with np.errstate(all="ignore"):
                    want = ufunc.reduce(a, axis=axis, keepdims=True)
                    got = T.reduce_keepdims(ufunc, a, axis)
                assert same_bits(got, want), (shape, axis, density, a.flags.c_contiguous)


def test_softmax_refuses_a_masked_row_at_every_length():
    for n in range(1, 12):
        x = np.zeros((2, 3, n))
        x[1, 2] = -np.inf
        with pytest.raises(FloatingPointError, match="masked to -inf"):
            T.softmax_values(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_softmax_names_non_finite_scores_as_such(bad):
    for n in range(1, 12):
        x = np.zeros((2, 3, n))
        x[0, 1, n // 2] = bad
        x[1, 2] = -np.inf       # a masked row too: the non-finite score is named
        with pytest.raises(FloatingPointError, match=r"non-finite scores \(NaN or \+inf\)"):
            T.softmax_values(x)
        x[0, 1] = -np.inf
        x[0, 1, n // 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite scores"):
            T.softmax_values(x)


# ---------------------------------------------------------------------------
# routing: sort-free selection under 8 blocks, the argsort's blocks
# ---------------------------------------------------------------------------

def check_route(q, k, block_size, k_blocks):
    with np.errstate(all="ignore"):
        plan = A.moba_route(q, k, block_size, k_blocks)
        ids, gates = argsort_selection(q, k, block_size, k_blocks)
        ref = argsort_route(q, k, block_size, k_blocks)
    assert same_bits(plan.gates, gates)
    assert np.array_equal(block_ids(plan), ids)
    assert np.array_equal(plan.allowed, ref.allowed)
    h = q.shape[-2]
    assert np.array_equal(A.plan_to_mask(plan, h), A.plan_to_mask(ref, h))


@pytest.mark.parametrize("h, block_size", [(3, 1), (5, 2), (7, 1), (12, 3), (9, 1),
                                           (40, 4), (33, 2)])
def test_tie_heavy_integer_gates_select_the_argsort_blocks(h, block_size):
    rng = np.random.default_rng(h * 10 + block_size)
    n_blocks = -(-h // block_size)
    for k_blocks in range(1, n_blocks + 1):
        q = rng.integers(-2, 3, size=(6, h, 3)).astype(np.float64)
        k = rng.integers(-1, 2, size=(6, h, 3)).astype(np.float64)
        check_route(q, k, block_size, k_blocks)
        check_route(q[0], k[0], block_size, k_blocks)   # one instance


@pytest.mark.parametrize("h, block_size", [(3, 1), (5, 2), (6, 1), (20, 2), (36, 4)])
def test_infinite_and_nan_gates_select_the_argsort_blocks(h, block_size):
    rng = np.random.default_rng(h + block_size)
    n_blocks = -(-h // block_size)
    specials = np.array([np.inf, -np.inf, np.nan, 1e200, -1e200, 0.0])
    for trial in range(4):
        q = rng.integers(-2, 3, size=(8, h, 2)).astype(np.float64)
        k = rng.integers(-1, 2, size=(8, h, 2)).astype(np.float64)
        for a in (q, k):
            hit = rng.random(a.shape) < 0.15
            a[hit] = rng.choice(specials, size=int(hit.sum()))
        if trial == 0:
            q[:4] = np.nan      # whole rows of NaN gates
        for k_blocks in sorted({1, max(1, n_blocks // 2), n_blocks}):
            check_route(q, k, block_size, k_blocks)


def test_selection_rule_on_random_gates_of_every_width():
    # both selection paths (pairwise counts under 8 blocks, the argsort
    # from 8 blocks up or with a NaN gate), straight on gate arrays
    rng = np.random.default_rng(7)
    for n_blocks in range(1, 41):
        aug = rng.integers(-3, 4, size=(64, 3, n_blocks)).astype(np.float64)
        aug[rng.random(aug.shape) < 0.1] = np.inf
        aug[rng.random(aug.shape) < 0.05] = -np.inf
        for k_blocks in range(1, n_blocks + 1):
            for gates in (aug, np.where(rng.random(aug.shape) < 0.1, np.nan, aug)):
                want = np.sort(np.argsort(-gates, axis=-1, kind="stable")
                               [..., :k_blocks], axis=-1)
                plan = A.RoutingPlan(A._select_blocks(gates, k_blocks), gates, 1)
                assert np.array_equal(block_ids(plan), want)


def test_a_replayed_route_scores_its_own_input():
    # gates are reused as scores only for a fresh route over the same q, k:
    # plans replayed on another input mask that input's own scores
    params, x, _ = case_inputs(CASES["workload"])
    _, plan = A.efficient_attention(T.Tensor(x), params)
    other = x[::-1].copy()
    got = A.efficient_attention(T.Tensor(other), params, plan)[0].values
    want = graph_efficient_attention(T.Tensor(other), params, plan)[0].values
    assert same_bits(got, want)


# ---------------------------------------------------------------------------
# whole fits and scoring: the bytes of the per-op graphs and the argsort routing
# ---------------------------------------------------------------------------

def _partitions():
    spec = SyntheticSpec(n_instances=1200, n_items=80, n_users=25,
                         n_clusters=5, seed=4)
    ds, table = gen_synthetic(spec)
    train, val = random_split(ds, val_fraction=0.25, seed=1)
    tr, va, _ = encode_features(train, val, ds.schema)
    return ds, table, tr, va


def _sids(table, cfg):
    if cfg.use_raw_ids:
        return None
    codes = np.random.default_rng(2).integers(0, cfg.v, size=(len(table.ids), cfg.h))
    return SidTable(table.ids, codes, cfg.v)


def _fit_bytes(tmp_path, tag, cfg, mp):
    """The saved model's bytes, the log, and the node count of the first
    training step's loss graph."""
    ds, table, tr, va = _partitions()
    sizes, grad = [], T.grad

    def counted(loss, params):
        sizes.append(len(T._toposort(loss)))
        return grad(loss, params)
    mp.setattr(T, "grad", counted)
    model, log = M.fit(tr, va, cfg, M.default_groups(ds.schema),
                       sid_table=_sids(table, cfg))
    path = tmp_path / f"{tag}.strm"
    M.save_store(path, model)
    return path.read_bytes(), json.dumps(log, sort_keys=True), sizes[0]


FITS = {
    "sid_rho_half": dict(rho=0.5),
    "sid_batch_512": dict(rho=0.5, d=32, batch_size=512),
    "sid_h5_b2": dict(h=5, block_size=2, n_heads=4, rho=0.5),
    "raw_id": dict(use_raw_ids=True, hash_buckets=4096),
    # layers that route nothing
    "sid_rho_one": dict(rho=1.0),
    "sid_block_ge_h": dict(rho=0.5, block_size=4),
}


def fits_config(name):
    return M.StoreConfig(**{**dict(h=3, v=8, d=16, d_s=8, epochs=2, batch_size=31,
                                   lr=3e-3, seed=0), **FITS[name]})


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_writes_the_reference_bytes(name, tmp_path, monkeypatch):
    # 900 training rows in batches of 31: every epoch ends on one row; a
    # batch of 512, as in the workloads, shows a reduction order that
    # follows memory layout, which the small batches hid
    cfg = fits_config(name)
    with monkeypatch.context() as mp:
        got = _fit_bytes(tmp_path, "new", cfg, mp)
    with monkeypatch.context() as mp:
        per_op_references(mp)
        want = _fit_bytes(tmp_path, "ref", cfg, mp)
    assert got[0] == want[0]
    assert got[1] == want[1]
    # the reference really ran the per-op graphs: per position a lookup,
    # rotation, concat, affine and reshape, per layer an add and the
    # 17-op norm, the readout's 5 nodes and the loss's 13 (3 of them
    # constant leaves), where the library runs one node each
    assert want[2] == got[2] + 5 * cfg.h + 17 * cfg.n_layers + 4 + 12


@pytest.fixture(scope="module")
def scoring_data():
    ds, table, tr, _ = _partitions()
    return ds, table, tr


def scoring_model(name, scoring_data):
    """A FITS model moved off its init, and its inputs for 900 rows."""
    ds, table, tr = scoring_data
    cfg = fits_config(name)
    model = moved_off_init(M.StoreModel(cfg, M.default_groups(ds.schema), tr.vocab_sizes,
                                        sid_table=_sids(table, cfg)),
                           np.random.default_rng(len(name)))
    return model, M.prepare_inputs(model, tr)


@pytest.mark.parametrize("batch_size", [31, 512, 1024])
@pytest.mark.parametrize("name", sorted(FITS))
def test_predict_is_the_per_op_forward_bit_for_bit(name, batch_size, scoring_data,
                                                   monkeypatch):
    # 900 rows: the last batch holds 1, 388 or all 900 rows
    model, inputs = scoring_model(name, scoring_data)
    got = M.predict(model, inputs, batch_size)
    per_op_references(monkeypatch)
    want = np.concatenate([model.forward(M.slice_inputs(inputs, idx))[0].values
                           for idx in batch_iter(900, batch_size)])
    assert len(got) == 900 and same_bits(got, want)


@pytest.mark.parametrize("name", sorted(FITS))
def test_predict_builds_no_backward(name, scoring_data, monkeypatch):
    model, inputs = scoring_model(name, scoring_data)
    kept, result = [], T._result

    def counted(values, parents, backward):
        out = result(values, parents, backward)
        kept.append(out._backward is not None)
        return out
    monkeypatch.setattr(T, "_result", counted)
    M.predict(model, inputs, 512)
    assert len(kept) > 20 and not any(kept)
    # the model itself still trains: its forward keeps every node's backward
    kept.clear()
    probs = model.forward(M.slice_inputs(inputs, np.arange(64)))[0]
    nodes = [t for t in T._toposort(probs) if t._parents]
    assert len(kept) == len(nodes) > 15 and all(kept)
    # and the view holds the model's own arrays
    view = model.frozen()
    for (_, t), (_, v) in zip(M._store_arrays(model), M._store_arrays(view)):
        assert v.values is t.values and not v.requires_grad and t.requires_grad
