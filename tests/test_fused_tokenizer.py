"""The fused tokenizer step against the per-op graph it replaced, bit for bit.

``graph_encode_experts`` / ``graph_opmq_forward`` / ``graph_orth_penalty``
below are the graphs of per-op nodes (a ``T.mlp`` per expert, per expert
an embedding lookup, straight-through and squared-error ops, and the
flatten / normalize / Gram ops of the penalty) that the experts,
quantize, reconstruction-loss and penalty nodes replace.  The graph runs
on K separate networks: on ``leaf_copies`` of each expert's slices of
the stacked parameters, whose gradients are compared with the slices of
the stacked gradients, or, in a whole fit, on ``G.unstack`` nodes over
the stacked leaves.  The nodes claim the same arithmetic, so every case
compares values and gradients with exact equality, down to the bytes of
a saved quantizer.
"""

from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from storerank import tensor as T
from storerank import tokenizer as tok
from storerank.tokenizer import (EmbeddingTable, OpmqConfig, OpmqModel,
                                 opmq_forward, orth_penalty, save_opmq,
                                 tokenize_catalog, train_opmq)

import graph_ops as G
from test_sparse_grad import DenseAdam, dense_lookup_grad
from test_tokenizer import explicit_scan


# ---------------------------------------------------------------------------
# the per-op graph reference
# ---------------------------------------------------------------------------

def leaf_copies(model):
    """The model as K separate networks: per expert, a leaf copy of its
    slice of each stacked layer and of its codebook; the decoder is the
    model's own."""
    def leaf(a):
        return T.Tensor(a.copy(), requires_grad=True)
    return SimpleNamespace(
        config=model.config, decoder=model.decoder,
        experts=[tuple(leaf(t.values[i]) for t in model.experts)
                 for i in range(model.config.k)],
        codebooks=[leaf(book) for book in model.books()])


def expert_parts(model):
    """Per expert, its (w1, b1, w2, b2) and its codebook: the leaves of
    ``leaf_copies``, or nodes slicing an ``OpmqModel``'s stacked leaves."""
    if not isinstance(model, OpmqModel):
        return model.experts, model.codebooks
    layers = list(zip(*[G.unstack(t) for t in model.experts]))
    k, v = model.config.k, model.config.v
    return layers, G.unstack(T.reshape(model.codebooks, (k, v, model.d_z)))


def graph_encode_experts(x, layers):
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    return [T.mlp(x, layer) for layer in layers]


def graph_opmq_forward(e, model, sids=None):
    x = T.Tensor(e)
    layers, codebooks = expert_parts(model)
    latents = graph_encode_experts(x, layers)
    n = x.shape[0]
    if sids is None:
        sids = np.stack([tok.nearest_codewords(z.values, cb.values)
                         for z, cb in zip(latents, codebooks)], axis=1)
    else:
        sids = np.asarray(sids, dtype=np.int64).reshape(n, model.config.k)
    quantized, aux_terms = [], []
    for i, z in enumerate(latents):
        s = T.embedding(codebooks[i], sids[:, i])
        quantized.append(T.add(z, G.stop_gradient(T.sub(s, z))))
        code_err = T.sub(G.stop_gradient(z), s)
        commit_err = T.sub(z, G.stop_gradient(s))
        aux_terms.append(T.add(
            T.tsum(T.mul(code_err, code_err)),
            T.mul(T.tsum(T.mul(commit_err, commit_err)), model.config.beta)))
    recon = T.mlp(reduce(T.add, quantized), model.decoder)
    err = T.sub(x, recon)
    loss_recon = T.mul(T.tsum(T.mul(err, err)), 1.0 / n)
    aux = T.mul(reduce(T.add, aux_terms), 1.0 / n)
    return sids, recon, loss_recon, aux, np.stack([z.values for z in latents])


def graph_orth_penalty(model):
    layers, _ = expert_parts(model)
    m = T.concat([T.reshape(w1, (1, w1.values.size))
                  for w1, _, _, _ in layers], axis=0)
    sq = T.tsum(T.mul(m, m), axis=1, keepdims=True)
    if np.any(sq.values <= 0.0):
        bad = int(np.argmin(sq.values))
        raise ValueError(f"expert {bad} has zero-norm weights")
    normed = T.mul(m, T.broadcast_to(G.power(sq, -0.5), m.shape))
    gram = T.matmul(normed, G.transpose_last(normed))
    diff = T.sub(gram, T.Tensor(np.eye(model.config.k)))
    return T.tsum(T.mul(diff, diff))


def per_expert_scan(z, codebooks):
    """``explicit_scan`` expert by expert, for the stacked search."""
    return np.stack([explicit_scan(zi, cb) for zi, cb in zip(z, codebooks)])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_grads(got, want):
    return all(type(g) is type(w) and same_bits(g, w) for g, w in zip(got, want))


def stand_ins(model, copies):
    """{id of a stacked parameter: its stand-ins in ``copies``}: each
    expert's slice of a layer or its codebook, in expert order; a
    decoder layer stands for itself."""
    out = {id(t): [layer[j] for layer in copies.experts]
           for j, t in enumerate(model.experts)}
    out[id(model.codebooks)] = copies.codebooks
    out.update({id(t): [t] for t in model.decoder})
    return out


def expert_slices(g, p, model):
    """The gradient ``g`` of the stacked parameter ``p``, expert by
    expert, in the form a separate network's gradient takes: a
    ``RowSparse`` codebook gradient gives one ``RowSparse`` per expert."""
    k, v = model.config.k, model.config.v
    if p is not model.codebooks:
        return list(g) if any(p is t for t in model.experts) else [g]
    if not isinstance(g, T.RowSparse):
        return [g[i * v:(i + 1) * v] for i in range(k)]
    mine = [(g.rows >= i * v) & (g.rows < (i + 1) * v) for i in range(k)]
    return [T.RowSparse(g.rows[m] - i * v, g.values[m], (v,) + g.shape[1:])
            for i, m in enumerate(mine)]


def grads_match(model, copies, loss, ref_loss):
    """The gradients of ``loss`` with respect to the model's stacked
    parameters it reaches, sliced by expert, against those of
    ``ref_loss`` with respect to their stand-ins in ``copies``: the same
    leaves reached, and the same bits and types."""
    reached = {id(t) for t in T._toposort(loss)}
    params = [p for p in model.params() if id(p) in reached]
    ref_reached = {id(t) for t in T._toposort(ref_loss)}
    ref_params = [c for p in params for c in stand_ins(model, copies)[id(p)]]
    assert params and all(id(c) in ref_reached for c in ref_params)
    assert len(ref_params) == sum(
        id(c) in ref_reached for cs in stand_ins(model, copies).values() for c in cs)
    got = [s for p, g in zip(params, T.grad(loss, params))
           for s in expert_slices(g, p, model)]
    want = T.grad(ref_loss, ref_params)
    assert len(got) == len(want)
    return same_grads(got, want)


def trained_model(d_p, cfg, seed):
    """A model whose codebooks sit on latents of a random batch, so a
    batch spreads over many codes, and whose weights are not at init."""
    rng = np.random.default_rng(seed)
    model = OpmqModel(d_p, cfg, rng)
    for t in model.params():
        t.values[...] += 0.1 * rng.normal(size=t.shape)
    pool = rng.normal(size=(64, d_p))
    for book, z in zip(model.books(), model.encode_values(pool)):
        book[...] = z[rng.choice(64, size=cfg.v, replace=cfg.v > 64)]
    return model


def step(forward, penalty, batch, model, w_orth=0.01):
    sids, recon, loss_recon, aux, latents = forward(batch, model)
    orth = penalty(model)
    total = T.add(T.add(loss_recon, aux), T.mul(orth, w_orth))
    return sids, recon, loss_recon, aux, latents, orth, total


# n, d_p, config: the shapes and options one step must reproduce
CASES = {
    "public": (128, 16, dict(k=3, v=16)),
    "batch_below_v": (5, 16, dict(k=3, v=16)),       # RowSparse codebook grads
    "one_row": (1, 16, dict(k=3, v=16)),
    "one_expert": (64, 16, dict(k=1, v=16)),
    "d_z_below_d_p": (32, 8, dict(k=3, v=8, d_z=5)),
    "d_z_above_d_p": (17, 6, dict(k=2, v=4, d_z=9)),
    "no_commitment": (32, 8, dict(k=2, v=8, beta=0.0)),
    "one_dim": (9, 1, dict(k=2, v=3)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    n, d_p, kw = CASES[request.param]
    cfg = OpmqConfig(**kw)
    model = trained_model(d_p, cfg, seed=len(request.param))
    batch = np.random.default_rng(n).normal(size=(n, d_p))
    return model, batch


# ---------------------------------------------------------------------------
# one step
# ---------------------------------------------------------------------------

class TestStepBitwise:
    def test_values_match_graph(self, case):
        model, batch = case
        got = step(opmq_forward, orth_penalty, batch, model)
        want = step(graph_opmq_forward, graph_orth_penalty, batch,
                    leaf_copies(model))
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:4] + got[5:], want[1:4] + want[5:]):
            assert same_bits(g.values, w.values)
        assert got[4].shape == (model.config.k, len(batch), model.d_z)
        assert same_bits(got[4], want[4])

    @pytest.mark.parametrize("part", ["total", "loss_recon", "aux", "orth"])
    def test_grads_match_graph(self, case, part):
        model, batch = case
        copies = leaf_copies(model)

        def loss(forward, penalty, m):
            _, _, loss_recon, aux, _, orth, total = step(forward, penalty, batch, m)
            return {"total": total, "loss_recon": loss_recon, "aux": aux,
                    "orth": orth}[part]

        assert grads_match(model, copies, loss(opmq_forward, orth_penalty, model),
                           loss(graph_opmq_forward, graph_orth_penalty, copies))

    def test_codebook_grads_are_row_sparse_below_v(self):
        n, d_p, kw = CASES["batch_below_v"]
        model = trained_model(d_p, OpmqConfig(**kw), seed=3)
        batch = np.random.default_rng(0).normal(size=(n, d_p))
        total = step(opmq_forward, orth_penalty, batch, model)[-1]
        (g,) = T.grad(total, [model.codebooks])
        assert isinstance(g, T.RowSparse)
        assert g.shape == (3 * 16, d_p) and 3 <= len(g.rows) <= 3 * n

    def test_frozen_assignment_is_replayed(self, case):
        model, batch = case
        sids = np.random.default_rng(1).integers(0, model.config.v,
                                                  size=(len(batch), model.config.k))
        copies = leaf_copies(model)
        got = opmq_forward(batch, model, sids=sids)
        want = graph_opmq_forward(batch, copies, sids=sids)
        assert grads_match(model, copies, T.add(got[2], got[3]),
                           T.add(want[2], want[3]))

    def test_encode_experts_matches_graph(self, case):
        # the experts node (sliced here by per-expert nodes, to take each
        # latent's gradient) and the graph-free encode_values
        model, batch = case
        copies = leaf_copies(model)
        got = G.unstack(tok._experts(batch, model))
        want = graph_encode_experts(batch, copies.experts)
        head = [np.random.default_rng(i).normal(size=z.shape)
                for i, z in enumerate(want)]
        for h in head:
            # -0.0 gradients: a one-row batch's bias gradient keeps them
            h[:, 0] = -0.0
        head = [T.Tensor(h) for h in head]

        def loss(latents):
            return reduce(T.add, [T.tsum(T.mul(T.tanh(z), h))
                                  for z, h in zip(latents, head)])
        for g, w in zip(got, want):
            assert same_bits(g.values, w.values)
        assert grads_match(model, copies, loss(got), loss(want))
        assert same_bits(model.encode_values(batch),
                         np.stack([z.values for z in want]))


class TestGraphSize:
    def test_step_has_few_backward_nodes(self):
        n, d_p, kw = CASES["public"]
        model = trained_model(d_p, OpmqConfig(**kw), seed=0)
        batch = np.random.default_rng(0).normal(size=(n, d_p))

        def closures(forward, penalty, m):
            total = step(forward, penalty, batch, m)[-1]
            return sum(node._backward is not None for node in T._toposort(total))

        # experts, quantized sum, aux, the decoder's 3, recon loss,
        # penalty and the 3 ops of the total
        assert (closures(graph_opmq_forward, graph_orth_penalty, leaf_copies(model)),
                closures(opmq_forward, orth_penalty, model)) == (71, 11)


# ---------------------------------------------------------------------------
# whole fits
# ---------------------------------------------------------------------------

def cluster_table(n, d, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(8, d)) * 2.0
    return EmbeddingTable(np.arange(n), centers[rng.integers(0, 8, size=n)]
                          + 0.1 * rng.normal(size=(n, d)))


@pytest.mark.parametrize("n, cfg", [
    # every epoch ends on a batch of one item; reseeding every 3 steps
    (129, OpmqConfig(epochs=4, seed=5, reinit_every=3)),
    (90, OpmqConfig(epochs=3, seed=6, d_z=8, batch_size=40)),
    (40, OpmqConfig(k=1, v=24, epochs=3, seed=7, batch_size=16)),
], ids=["public", "d_z", "one_expert_v_above_batch"])
def test_train_opmq_matches_graph(tmp_path, monkeypatch, n, cfg):
    table = cluster_table(n, 12, seed=n)

    def run(path):
        model, log = train_opmq(table, cfg)
        save_opmq(path, model)
        return path.read_bytes(), log, tokenize_catalog(table, model).codes

    got = run(tmp_path / "fused.opmq")
    monkeypatch.setattr(tok, "opmq_forward", graph_opmq_forward)
    monkeypatch.setattr(tok, "orth_penalty", graph_orth_penalty)
    want = run(tmp_path / "graph.opmq")
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("n, cfg", [
    (300, OpmqConfig(epochs=4, seed=2, reinit_every=5, batch_size=64)),
    # a batch below V: row-sparse codebook gradients
    (60, OpmqConfig(k=2, v=24, epochs=3, seed=3, batch_size=8, d_z=5)),
    # and reseeding every 3 steps, which writes codebook rows that
    # Adam steps row by row
    (60, OpmqConfig(k=2, v=24, epochs=3, seed=3, batch_size=8, d_z=5,
                    reinit_every=3)),
], ids=["clustered", "batch_below_v", "batch_below_v_reseeding"])
def test_train_opmq_matches_the_scan_and_per_parameter_adam(
        tmp_path, monkeypatch, n, cfg):
    """A fit with the screened search, the flat Adam and the bincount
    lookup backward saves the same bytes and logs the same floats as one
    with the explicit scan, one Adam update per parameter and
    ``np.add.at``."""
    table = cluster_table(n, 12, seed=n)

    def run(path):
        model, log = train_opmq(table, cfg)
        save_opmq(path, model)
        return path.read_bytes(), log, tokenize_catalog(table, model).codes

    got = run(tmp_path / "shipped.opmq")
    monkeypatch.setattr(tok, "nearest_codewords", per_expert_scan)
    monkeypatch.setattr(T, "Adam", DenseAdam)
    monkeypatch.setattr(T, "lookup_grad", dense_lookup_grad)
    want = run(tmp_path / "reference.opmq")
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])
