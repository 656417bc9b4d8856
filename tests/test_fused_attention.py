"""The fused attention node against the per-head graph it replaced, bit for bit.

``graph_dense_attention`` / ``graph_efficient_attention`` below are the
per-head autodiff graphs (three projections, a ``narrow`` per head, and
per head a transpose, scale, mask add, softmax and two matmuls) that
``attention._attention`` replaces with one node.  The node claims
the same arithmetic, so every case compares outputs and gradients with
exact equality, down to the bytes of a saved model.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from storerank import attention as A
from storerank import model as M
from storerank import tensor as T
from storerank.attention import AttentionParams, RoutingPlan, moba_route
from storerank.data import SyntheticSpec, encode_features, gen_synthetic, random_split
from storerank.tokenizer import SidTable


# ---------------------------------------------------------------------------
# the per-head graph reference
# ---------------------------------------------------------------------------

def _project_heads(x3, params):
    q = T.matmul(x3, params.wq)
    k = T.matmul(x3, params.wk)
    v = T.matmul(x3, params.wv)
    dh = params.d_head
    return [(T.narrow(q, 2, i * dh, dh), T.narrow(k, 2, i * dh, dh),
             T.narrow(v, 2, i * dh, dh)) for i in range(params.n_heads)]


def graph_dense_attention(x, params):
    x3, squeeze = A._lift(x)
    scale = 1.0 / math.sqrt(params.d_head)
    outs = []
    for qh, kh, vh in _project_heads(x3, params):
        scores = T.mul(T.matmul(qh, T.transpose_last(kh)), scale)
        outs.append(T.matmul(T.softmax(scores, axis=-1), vh))
    out = T.matmul(T.concat(outs, axis=2), params.wo)
    return T.reshape(out, out.shape[1:]) if squeeze else out


def graph_efficient_attention(x, params, plans=None, return_plans=False):
    x3, squeeze = A._lift(x)
    n, h, _ = x3.shape
    kb = A.k_blocks_for(h, params.block_size, params.rho)
    scale = 1.0 / math.sqrt(params.d_head)
    outs, used = [], []
    for i, (qh, kh, vh) in enumerate(_project_heads(x3, params)):
        if plans is None:
            plan = moba_route(qh.values, kh.values, params.block_size, kb,
                              force_own=params.force_own)
        else:
            plan = plans[i]
        used.append(plan)
        scores = T.mul(T.matmul(qh, T.transpose_last(kh)), scale)
        scores = T.add(scores, T.Tensor(A.plan_to_mask(plan, h)))
        outs.append(T.matmul(T.softmax(scores, axis=-1), vh))
    out = T.matmul(T.concat(outs, axis=2), params.wo)
    if squeeze:
        out = T.reshape(out, out.shape[1:])
    return (out, used) if return_plans else out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def make_params(d_model, n_heads, block_size, rho, seed=0, **kw):
    return AttentionParams(d_model, n_heads, block_size, rho,
                           np.random.default_rng(seed), **kw)


def run(attend, x_vals, params, residual, weights):
    """Output and gradients of sum(weights * (attend(x) [+ x])) for x and
    the four projections; ``residual`` also feeds x to the output, as a
    model layer does, so the order in which x's gradient parts land shows."""
    x = T.Tensor(x_vals.copy(), requires_grad=True)
    out = attend(x)
    y = T.add(out, x) if residual else out
    loss = T.tsum(T.mul(y, T.Tensor(weights)))
    return out.values, T.grad(loss, [x] + params.params())


CASES = {
    # the sid_public layer: batch 512, H=3, d=32, 2 heads, B=1, k=2
    "workload": dict(n=512, h=3, d=32, heads=2, block=1, rho=0.5),
    "short_last_block": dict(n=6, h=7, d=12, heads=3, block=3, rho=0.5),
    "one_head": dict(n=5, h=9, d=8, heads=1, block=2, rho=0.5),
    "rank2": dict(n=None, h=10, d=8, heads=2, block=3, rho=0.5),
    "rho1": dict(n=4, h=8, d=8, heads=2, block=2, rho=1.0),
    "no_own_block": dict(n=7, h=8, d=8, heads=2, block=2, rho=0.25,
                         force_own=False),
}


def case_inputs(case, seed=1):
    rng = np.random.default_rng(seed)
    kw = {"force_own": case["force_own"]} if "force_own" in case else {}
    params = make_params(case["d"], case["heads"], case["block"], case["rho"],
                         seed=seed + 1, **kw)
    shape = (case["h"], case["d"]) if case["n"] is None else (case["n"], case["h"], case["d"])
    return params, rng.normal(size=shape), rng.normal(size=shape)


# ---------------------------------------------------------------------------
# layer level
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("name", sorted(CASES))
def test_efficient_attention_matches_graph(name, residual):
    params, x, w = case_inputs(CASES[name])
    got_out, got = run(lambda t: A.efficient_attention(t, params), x, params, residual, w)
    want_out, want = run(lambda t: graph_efficient_attention(t, params), x, params,
                         residual, w)
    assert same_bits(got_out, want_out)
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("name", ["workload", "short_last_block", "one_head", "rank2"])
def test_dense_attention_matches_graph(name, residual):
    params, x, w = case_inputs(CASES[name])
    got_out, got = run(lambda t: A.dense_attention(t, params), x, params, residual, w)
    want_out, want = run(lambda t: graph_dense_attention(t, params), x, params,
                         residual, w)
    assert same_bits(got_out, want_out)
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


def test_plans_are_per_head_and_replay_into_the_graph():
    params, x, _ = case_inputs(CASES["short_last_block"])
    _, plans = A.efficient_attention(T.Tensor(x), params, return_plans=True)
    _, want = graph_efficient_attention(T.Tensor(x), params, return_plans=True)
    assert len(plans) == len(want) == params.n_heads
    for p, r in zip(plans, want):
        assert np.array_equal(p.block_ids, r.block_ids)
        assert same_bits(p.gates, r.gates)
        assert p.block_size == r.block_size
    # plans cross over both ways: the node replays the graph's and vice versa
    a = A.efficient_attention(T.Tensor(x), params, plans=want).values
    b = graph_efficient_attention(T.Tensor(x), params, plans=plans).values
    assert same_bits(a, b)


@pytest.mark.parametrize("attend", [A.efficient_attention, A.dense_attention,
                                    graph_efficient_attention, graph_dense_attention])
def test_non_finite_scores_are_refused_as_softmax_refuses_them(attend):
    params, x, _ = case_inputs(CASES["short_last_block"])
    x[2, 4, 0] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="masked to -inf"):
        attend(T.Tensor(x), params)


# ---------------------------------------------------------------------------
# structure: one node per layer, and far fewer nodes per forward
# ---------------------------------------------------------------------------

def test_layer_output_has_exactly_the_layer_parents():
    params, x, _ = case_inputs(CASES["workload"])
    xt = T.Tensor(x, requires_grad=True)
    for out in (A.efficient_attention(xt, params), A.dense_attention(xt, params)):
        assert len(out._parents) == 5
        assert all(a is b for a, b in zip(out._parents, [xt] + params.params()))


def _sid_table(table, cfg, seed=2):
    codes = np.random.default_rng(seed).integers(0, cfg.v, size=(len(table.ids), cfg.h))
    return SidTable(table.ids, codes, cfg.v)


def _sid_model(batch=512):
    spec = SyntheticSpec(n_instances=batch, n_items=60, n_users=20,
                         n_clusters=4, seed=3)
    ds, table = gen_synthetic(spec)
    tr, _, _ = encode_features(ds, ds, ds.schema)
    cfg = M.StoreConfig(h=3, v=16, lr=3e-3, batch_size=batch, epochs=1, seed=0)
    model = M.StoreModel(cfg, M.default_groups(ds.schema), tr.vocab_sizes,
                         sid_table=_sid_table(table, cfg))
    return model, M.prepare_inputs(model, tr)


def _own_nodes(out, x):
    """Graph nodes ``out`` reaches that ``x`` does not: one layer's own."""
    below = {id(n) for n in T._toposort(x)}
    return sum(id(n) not in below for n in T._toposort(out))


@pytest.mark.parametrize("name", ["efficient", "vanilla"])
def test_sid_layer_builds_at_most_half_the_per_head_graph(name):
    # sid_public's shape: batch 512, H=3, d=32, 2 heads, B=1
    model, inputs = _sid_model()
    x = model.build_tokens(inputs)
    layer = model.layers[0]
    fused, graph = ((A.efficient_attention, graph_efficient_attention)
                    if name == "efficient" else
                    (A.dense_attention, graph_dense_attention))
    got = _own_nodes(fused(x, layer), x)
    per_head = _own_nodes(graph(x, layer), x)
    # the node itself plus the four projection leaves
    assert got == 5
    assert got <= per_head // 2, f"{got} nodes vs {per_head} for the per-head graph"


def test_sid_forward_shrinks_by_the_per_head_nodes(monkeypatch):
    model, inputs = _sid_model()
    fused = len(T._toposort(M.total_loss(model, inputs, inputs["labels"])[0]))
    monkeypatch.setattr(M, "efficient_attention", graph_efficient_attention)
    graph = len(T._toposort(M.total_loss(model, inputs, inputs["labels"])[0]))
    x = model.build_tokens(inputs)
    per_layer = _own_nodes(graph_efficient_attention(x, model.layers[0]), x) - 5
    assert fused == graph - model.config.n_layers * per_layer


# ---------------------------------------------------------------------------
# whole fits: identical saved models and logs
# ---------------------------------------------------------------------------

def _fit_bytes(tmp_path, tag, cfg, use_sids):
    spec = SyntheticSpec(n_instances=1500, n_items=80, n_users=25,
                         n_clusters=5, seed=4)
    ds, table = gen_synthetic(spec)
    train, val = random_split(ds, val_fraction=0.2, seed=1)
    tr, va, _ = encode_features(train, val, ds.schema)
    sids = _sid_table(table, cfg) if use_sids else None
    model, log = M.fit(tr, va, cfg, M.default_groups(ds.schema), sid_table=sids)
    path = tmp_path / f"{tag}.strm"
    M.save_store(path, model)
    return path.read_bytes(), json.dumps(log, sort_keys=True)


FITS = {
    "sid": dict(use_raw_ids=False),
    "raw_id": dict(use_raw_ids=True, hash_buckets=4096),
    "vanilla": dict(use_raw_ids=False, rho=1.0),     # runs dense_attention
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_writes_the_graph_path_bytes(name, tmp_path, monkeypatch):
    cfg = replace(M.StoreConfig(h=3, v=8, d=16, d_s=8, epochs=2, batch_size=250,
                                lr=3e-3, seed=0), **FITS[name])
    use_sids = not cfg.use_raw_ids
    got = _fit_bytes(tmp_path, "fused", cfg, use_sids)
    monkeypatch.setattr(M, "efficient_attention", graph_efficient_attention)
    monkeypatch.setattr(M, "dense_attention", graph_dense_attention)
    want = _fit_bytes(tmp_path, "graph", cfg, use_sids)
    assert got[0] == want[0]
    assert got[1] == want[1]
