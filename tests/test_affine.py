"""``T.affine`` against the four-op dense layer it replaced.

The reference builds ``x @ w + b`` the old way, as matmul, reshape,
broadcast_to and add.  ``affine`` must give the same bits: its values,
every gradient, whole fits (artifact and log bytes) and the graph, which
shrinks by exactly three nodes per dense layer.
"""

import numpy as np
import pytest

from storerank import tensor as T
from storerank.data import SyntheticSpec, encode_features, gen_synthetic, random_split
from storerank.model import (StoreConfig, StoreModel, default_groups, fit,
                             prepare_inputs, save_store, slice_inputs,
                             total_loss)
from storerank import tokenizer as tok
from storerank.tokenizer import (OpmqConfig, OpmqModel, opmq_forward,
                                 orth_penalty, save_opmq, tokenize_catalog,
                                 train_opmq)

from test_fused_tokenizer import (graph_opmq_forward, graph_orth_penalty,
                                  leaf_copies)


def four_op_affine(x, w, b):
    n, d = x.shape[0], w.shape[1]
    return T.add(T.matmul(x, w), T.broadcast_to(T.reshape(b, (1, d)), (n, d)))


def leaf(rng, shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAffineBitwise:
    @pytest.mark.parametrize("n, d_in, d_out", [(1, 3, 4), (7, 5, 2), (64, 16, 1),
                                                (33, 1, 9)])
    def test_values_and_grads_match_four_ops(self, n, d_in, d_out):
        rng = np.random.default_rng(n * 100 + d_in)
        x, w, b = leaf(rng, (n, d_in)), leaf(rng, (d_in, d_out)), leaf(rng, (d_out,))
        head = T.Tensor(rng.normal(size=(n, d_out)))

        def run(affine):
            y = affine(x, w, b)
            return y.values, T.grad(T.tsum(T.mul(T.tanh(y), head)), [x, w, b])

        want, got = run(four_op_affine), run(T.affine)
        assert same_bits(got[0], want[0])
        for g, h in zip(got[1], want[1]):
            assert same_bits(g, h)

    @pytest.mark.parametrize("n", [1, 6])
    def test_one_layer_shared_by_three_calls(self, n):
        # the token projection: one (w, b) applied at every position
        rng = np.random.default_rng(n)
        w, b = leaf(rng, (4, 3)), leaf(rng, (3,))
        xs = [leaf(rng, (n, 4)) for _ in range(3)]
        head = T.Tensor(rng.normal(size=(n, 3)))

        def run(affine):
            loss = None
            outs = []
            for x in xs:
                outs.append(affine(x, w, b))
                term = T.tsum(T.mul(T.tanh(outs[-1]), head))
                loss = term if loss is None else T.add(loss, term)
            return [y.values for y in outs], T.grad(loss, xs + [w, b])

        want, got = run(four_op_affine), run(T.affine)
        assert same_bits(got[0], want[0])
        for g, h in zip(got[1], want[1]):
            assert same_bits(g, h)

    def test_bias_of_one_row_keeps_its_sign_bits(self):
        x = leaf(np.random.default_rng(0), (1, 2))
        w, b = leaf(np.random.default_rng(1), (2, 2)), leaf(np.random.default_rng(2), (2,))
        for affine in (four_op_affine, T.affine):
            y = affine(x, w, b)
            loss = T.tsum(T.mul(y, T.Tensor([[-0.0, 1.0]])))
            gb = T.grad(loss, [b])[0]
            assert np.signbit(gb[0]) and gb[1] == 1.0

    def test_constant_operands_build_no_backward(self):
        rng = np.random.default_rng(3)
        out = T.affine(T.Tensor(rng.normal(size=(2, 3))),
                       T.Tensor(rng.normal(size=(3, 2))), T.Tensor(np.zeros(2)))
        assert not out.requires_grad and out._backward is None

    @pytest.mark.parametrize("xs, ws, bs", [
        ((2, 3), (4, 2), (2,)),       # inner dims
        ((2, 3), (3, 2), (3,)),       # bias width
        ((2, 3), (3, 2), (1, 2)),     # bias rank
        ((3,), (3, 2), (2,)),         # vector input
        ((2, 2, 3), (3, 2), (2,)),    # batched input
        ((2, 3), (3,), (2,)),         # vector weight
    ])
    def test_bad_shapes_rejected(self, xs, ws, bs):
        with pytest.raises(ValueError, match="affine"):
            T.affine(T.Tensor(np.ones(xs)), T.Tensor(np.ones(ws)),
                     T.Tensor(np.ones(bs)))


@pytest.fixture(scope="module")
def small():
    ds, table = gen_synthetic(SyntheticSpec(n_instances=1200, n_items=150,
                                            n_users=30, n_clusters=6, seed=4))
    train, val = random_split(ds, 0.25, seed=0)
    tr, va, _ = encode_features(train, val, ds.schema)
    qmodel, _ = train_opmq(table, OpmqConfig(epochs=2, seed=1))
    assert len(tr) == 900 and len(table) == 150
    return {"table": table, "tr": tr, "va": va, "schema": ds.schema,
            "sids": tokenize_catalog(table, qmodel)}


def store_run(small, path, **kw):
    # 900 training rows: every epoch ends on a batch of one row
    cfg = StoreConfig(epochs=2, batch_size=31, seed=2, **kw)
    model, log = fit(small["tr"], small["va"], cfg,
                     default_groups(small["schema"]),
                     sid_table=None if cfg.use_raw_ids else small["sids"])
    save_store(path, model)
    return path.read_bytes(), log


class TestWholeFitsMatchFourOps:
    @pytest.mark.parametrize("kw", [
        {}, {"use_raw_ids": True, "hash_buckets": 4096},
        {"rho": 1.0},
    ], ids=["sid", "raw4096", "vanilla"])
    def test_store_fit(self, small, tmp_path, monkeypatch, kw):
        got = store_run(small, tmp_path / "new.strm", **kw)
        monkeypatch.setattr(T, "affine", four_op_affine)
        want = store_run(small, tmp_path / "ref.strm", **kw)
        assert got[0] == want[0]
        assert got[1] == want[1]

    def test_train_opmq(self, small, tmp_path, monkeypatch):
        def run(path):
            # 150 items: every epoch ends on a batch of one item
            model, log = train_opmq(small["table"], OpmqConfig(epochs=6, seed=5,
                                                               batch_size=149))
            save_opmq(path, model)
            return path.read_bytes(), log, tokenize_catalog(small["table"], model).codes

        got = run(tmp_path / "new.opmq")
        # the fused experts run no affine node: the four ops reach the
        # quantizer through the per-op graph reference
        monkeypatch.setattr(tok, "opmq_forward", graph_opmq_forward)
        monkeypatch.setattr(tok, "orth_penalty", graph_orth_penalty)
        monkeypatch.setattr(T, "affine", four_op_affine)
        want = run(tmp_path / "ref.opmq")
        assert got[0] == want[0] and got[1] == want[1]
        assert np.array_equal(got[2], want[2])


def graph_size(loss):
    return len(T._toposort(loss))


class TestGraphShrinks:
    def test_sid_forward_loses_three_nodes_per_dense_layer(self, small, monkeypatch):
        # 2 fuser MLPs (4 layers) and the head; the H = 3 token
        # projections run inside the token node
        model = StoreModel(StoreConfig(), default_groups(small["schema"]),
                           small["tr"].vocab_sizes, sid_table=small["sids"])
        inputs = slice_inputs(prepare_inputs(model, small["tr"]), np.arange(64))
        new = graph_size(total_loss(model, inputs, inputs["labels"])[0])
        monkeypatch.setattr(T, "affine", four_op_affine)
        ref = graph_size(total_loss(model, inputs, inputs["labels"])[0])
        # the tokens are one node, and each residual + layer norm
        assert (ref, new) == (95, 80) and ref - new == 3 * 5

    def test_tokenizer_step_loses_three_nodes_per_dense_layer(self, small, monkeypatch):
        model = OpmqModel(small["table"].dim, OpmqConfig(), np.random.default_rng(0))
        copies = leaf_copies(model)

        def step(forward, penalty, m):
            _, _, recon, aux, _ = forward(small["table"].vectors[:32], m)
            return graph_size(T.add(T.add(recon, aux),
                                    T.mul(penalty(m), 0.01)))

        graph, fused = (step(graph_opmq_forward, graph_orth_penalty, copies),
                        step(opmq_forward, orth_penalty, model))
        monkeypatch.setattr(T, "affine", four_op_affine)
        four_op = step(graph_opmq_forward, graph_orth_penalty, copies)
        # the graph: K = 3 experts + decoder, 8 layers, on 19 leaves; the
        # fused step keeps two of them, the decoder's, as affine nodes,
        # and its stacked experts and codebook table are 9 leaves
        assert (four_op, graph) == (125, 101)
        assert (step(opmq_forward, orth_penalty, model), fused) == (26, 20)
