"""The cheaper transformer layer against the graph and the routing it replaced.

``graph_layer_norm`` is the 17-op composite that ``T.layer_norm`` now
runs as one node, ``argsort_route`` the stable-argsort routing that
``moba_route`` now does without sorting under 8 blocks.  Both claim the
same bits: values, every gradient, block selections and whole fits down
to the bytes of a saved model and its log.
"""

import json

import numpy as np
import pytest

from storerank import attention as A
from storerank import model as M
from storerank import tensor as T
from storerank.data import SyntheticSpec, encode_features, gen_synthetic, random_split
from storerank.tokenizer import SidTable

import graph_ops as G
from test_fused_attention import CASES, case_inputs, graph_efficient_attention


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


# ---------------------------------------------------------------------------
# layer norm: one node, the composite's bits
# ---------------------------------------------------------------------------

def ln_run(norm, x_vals, gamma_vals, beta_vals, head, frozen, x_kind):
    """Output and (x, gamma, beta) gradients of a loss through ``norm``.

    x enters as a residual ``add`` node, as in a model layer, or as a
    Fortran-ordered leaf.  The loss ``head`` weights the output, takes
    its mean over the sequence as the model's pooling does, or weights
    its transpose, so the gradient arrives in three memory layouts: the
    bits of a row reduction follow the layout of what it reduces."""
    x = T.Tensor(x_vals.copy(), requires_grad=True)
    if x_kind == "residual":
        x_in = T.add(x, T.Tensor(np.full(x_vals.shape, 0.25)))
    else:
        x_in = x = T.Tensor(np.asfortranarray(x_vals), requires_grad=True)
    gamma = T.Tensor(gamma_vals.copy(), requires_grad=not frozen)
    beta = T.Tensor(beta_vals.copy(), requires_grad=not frozen)
    out = norm(x_in, gamma, beta)
    if head == "weighted":
        w = np.sin(np.arange(out.values.size)).reshape(out.shape)
        loss = T.tsum(T.mul(out, T.Tensor(w)))
    elif head == "pooled":
        pooled = T.tmean(out, axis=1) if out.ndim == 3 else T.tmean(out, axis=0)
        loss = T.tsum(T.mul(pooled, pooled))
    else:
        t = G.transpose_last(out)
        loss = T.tsum(T.mul(t, T.Tensor(np.cos(np.arange(t.values.size)).reshape(t.shape))))
    T.backward(loss)
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


def test_layer_norm_is_one_node_with_three_parents():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(4, 3, 8)), requires_grad=True)
    gamma = T.Tensor(np.ones(8), requires_grad=True)
    beta = T.zeros((8,))
    out = T.layer_norm(x, gamma, beta)
    assert out._parents == (x, gamma, beta)
    assert len(T._toposort(graph_layer_norm(x, gamma, beta))) == 17 + 3


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


# ---------------------------------------------------------------------------
# routing: sort-free selection under 8 blocks, the argsort's blocks
# ---------------------------------------------------------------------------

def check_route(q, k, block_size, k_blocks):
    with np.errstate(all="ignore"):
        plan = A.moba_route(q, k, block_size, k_blocks)
        ids, gates = argsort_selection(q, k, block_size, k_blocks)
        ref = argsort_route(q, k, block_size, k_blocks)
    assert same_bits(plan.gates, gates)
    assert np.array_equal(plan.block_ids, ids)
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
                assert np.array_equal(plan.block_ids, want)


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
# whole fits: the bytes of the composite layer norm and the argsort routing
# ---------------------------------------------------------------------------

def _fit_bytes(tmp_path, tag, cfg):
    spec = SyntheticSpec(n_instances=1200, n_items=80, n_users=25,
                         n_clusters=5, seed=4)
    ds, table = gen_synthetic(spec)
    train, val = random_split(ds, val_fraction=0.25, seed=1)
    tr, va, _ = encode_features(train, val, ds.schema)
    sids = None
    if not cfg.use_raw_ids:
        codes = np.random.default_rng(2).integers(0, cfg.v, size=(len(table.ids), cfg.h))
        sids = SidTable(table.ids, codes, cfg.v)
    model, log = M.fit(tr, va, cfg, M.default_groups(ds.schema), sid_table=sids)
    path = tmp_path / f"{tag}.strm"
    M.save_store(path, model)
    return path.read_bytes(), json.dumps(log, sort_keys=True)


FITS = {
    "sid_rho_half": dict(rho=0.5),
    "sid_batch_512": dict(rho=0.5, d=32, batch_size=512),
    "sid_h5_b2": dict(h=5, block_size=2, n_heads=4, rho=0.5),
    "raw_id": dict(use_raw_ids=True, hash_buckets=4096),
    # layers that route nothing
    "sid_rho_one": dict(rho=1.0),
    "sid_block_ge_h": dict(rho=0.5, block_size=4),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_writes_the_reference_bytes(name, tmp_path, monkeypatch):
    # 900 training rows in batches of 31: every epoch ends on one row; a
    # batch of 512, as in the workloads, shows a reduction order that
    # follows memory layout, which the small batches hid
    cfg = M.StoreConfig(**{**dict(h=3, v=8, d=16, d_s=8, epochs=2, batch_size=31,
                                  lr=3e-3, seed=0), **FITS[name]})
    got = _fit_bytes(tmp_path, "new", cfg)
    monkeypatch.setattr(T, "layer_norm", graph_layer_norm)
    monkeypatch.setattr(A, "moba_route", argsort_route)
    want = _fit_bytes(tmp_path, "ref", cfg)
    assert got[0] == want[0]
    assert got[1] == want[1]
