"""The fused tokenizer step against the per-op graph it replaced, bit for bit.

``graph_encode_experts`` / ``graph_opmq_forward`` / ``graph_orth_penalty``
below are the graphs of per-op nodes (a ``T.mlp`` per expert, per expert
an embedding lookup, straight-through and squared-error ops, and the
flatten / normalize / Gram ops of the penalty) that the experts,
quantize, reconstruction-loss and penalty nodes replace.  The nodes
claim the same arithmetic, so every case compares values and gradients
with exact equality, down to the bytes of a saved quantizer.
"""

from functools import reduce

import numpy as np
import pytest

from storerank import tensor as T
from storerank import tokenizer as tok
from storerank.tokenizer import (EmbeddingTable, OpmqConfig, OpmqModel,
                                 opmq_forward, orth_penalty, save_opmq,
                                 tokenize_catalog, train_opmq)

import graph_ops as G


# ---------------------------------------------------------------------------
# the per-op graph reference
# ---------------------------------------------------------------------------

def graph_encode_experts(x, model):
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    return [T.mlp(x, layer) for layer in model.experts]


def graph_opmq_forward(e, model, sids=None):
    x = T.Tensor(e)
    latents = graph_encode_experts(x, model)
    n = x.shape[0]
    if sids is None:
        sids = np.stack([tok.nearest_codewords(z.values, cb.values)
                         for z, cb in zip(latents, model.codebooks)], axis=1)
    else:
        sids = np.asarray(sids, dtype=np.int64).reshape(n, model.config.k)
    quantized, aux_terms = [], []
    for i, z in enumerate(latents):
        s = T.embedding(model.codebooks[i], sids[:, i])
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
    m = T.concat([T.reshape(w1, (1, w1.values.size))
                  for w1, _, _, _ in model.experts], axis=0)
    sq = T.tsum(T.mul(m, m), axis=1, keepdims=True)
    if np.any(sq.values <= 0.0):
        bad = int(np.argmin(sq.values))
        raise ValueError(f"expert {bad} has zero-norm weights")
    normed = T.mul(m, T.broadcast_to(G.power(sq, -0.5), m.shape))
    gram = T.matmul(normed, G.transpose_last(normed))
    diff = T.sub(gram, T.Tensor(np.eye(model.config.k)))
    return T.tsum(T.mul(diff, diff))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_grads(got, want):
    return all(type(g) is type(w) and same_bits(g, w) for g, w in zip(got, want))


def trained_model(d_p, cfg, seed):
    """A model whose codebooks sit on latents of a random batch, so a
    batch spreads over many codes, and whose weights are not at init."""
    rng = np.random.default_rng(seed)
    model = OpmqModel(d_p, cfg, rng)
    for t in model.params():
        t.values[...] += 0.1 * rng.normal(size=t.shape)
    pool = rng.normal(size=(64, d_p))
    for cb, z in zip(model.codebooks, model.encode_values(pool)):
        cb.values[...] = z[rng.choice(64, size=cfg.v, replace=cfg.v > 64)]
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
        want = step(graph_opmq_forward, graph_orth_penalty, batch, model)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:4] + got[5:], want[1:4] + want[5:]):
            assert same_bits(g.values, w.values)
        assert got[4].shape == (model.config.k, len(batch), model.d_z)
        assert same_bits(got[4], want[4])

    @pytest.mark.parametrize("part", ["total", "loss_recon", "aux", "orth"])
    def test_grads_match_graph(self, case, part):
        model, batch = case
        params = model.params()

        def grads(forward, penalty):
            _, _, loss_recon, aux, _, orth, total = step(forward, penalty,
                                                         batch, model)
            loss = {"total": total, "loss_recon": loss_recon, "aux": aux,
                    "orth": orth}[part]
            reached = {id(t) for t in T._toposort(loss)}
            return T.grad(loss, [p for p in params if id(p) in reached])

        got = grads(opmq_forward, orth_penalty)
        want = grads(graph_opmq_forward, graph_orth_penalty)
        assert len(got) == len(want) > 0
        assert same_grads(got, want)

    def test_codebook_grads_are_row_sparse_below_v(self):
        n, d_p, kw = CASES["batch_below_v"]
        model = trained_model(d_p, OpmqConfig(**kw), seed=3)
        batch = np.random.default_rng(0).normal(size=(n, d_p))
        total = step(opmq_forward, orth_penalty, batch, model)[-1]
        grads = T.grad(total, model.codebooks)
        assert all(isinstance(g, T.RowSparse) for g in grads)

    def test_frozen_assignment_is_replayed(self, case):
        model, batch = case
        sids = np.random.default_rng(1).integers(0, model.config.v,
                                                  size=(len(batch), model.config.k))
        got = opmq_forward(batch, model, sids=sids)
        want = graph_opmq_forward(batch, model, sids=sids)
        params = model.params()
        assert same_grads(T.grad(T.add(got[2], got[3]), params),
                          T.grad(T.add(want[2], want[3]), params))

    def test_encode_experts_matches_graph(self, case):
        # the experts node (sliced here by per-expert nodes, to take each
        # latent's gradient) and the graph-free encode_values
        model, batch = case
        got = G.unstack(tok._experts(batch, model))
        want = graph_encode_experts(batch, model)
        head = [T.Tensor(np.random.default_rng(i).normal(size=z.shape))
                for i, z in enumerate(want)]
        leaves = [t for layer in model.experts for t in layer]

        def loss(latents):
            return reduce(T.add, [T.tsum(T.mul(T.tanh(z), h))
                                  for z, h in zip(latents, head)])
        for g, w in zip(got, want):
            assert same_bits(g.values, w.values)
        assert same_grads(T.grad(loss(got), leaves), T.grad(loss(want), leaves))
        assert same_bits(model.encode_values(batch),
                         np.stack([z.values for z in want]))


class TestGraphSize:
    def test_step_has_few_backward_nodes(self):
        n, d_p, kw = CASES["public"]
        model = trained_model(d_p, OpmqConfig(**kw), seed=0)
        batch = np.random.default_rng(0).normal(size=(n, d_p))

        def closures(forward, penalty):
            total = step(forward, penalty, batch, model)[-1]
            return sum(node._backward is not None for node in T._toposort(total))

        # experts, quantized sum, aux, the decoder's 3, recon loss,
        # penalty and the 3 ops of the total
        assert (closures(graph_opmq_forward, graph_orth_penalty),
                closures(opmq_forward, orth_penalty)) == (71, 11)


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
