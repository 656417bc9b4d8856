"""Block-sparse attention: routing, masking, kernels, flop accounting."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from storerank import tensor as T
from storerank.attention import (
    AttentionParams,
    attention_flops,
    bench_attention,
    dense_core,
    efficient_attention,
    k_blocks_for,
    moba_route,
    plan_to_mask,
    sparse_core,
)

from oracles import fd_grad, max_rel_err, naive_attention, naive_topk_blocks
from test_fused_attention import block_ids, full_plan


def make_params(d_model=8, n_heads=2, block_size=2, rho=0.5, seed=0):
    return AttentionParams(d_model, n_heads, block_size, rho,
                           np.random.default_rng(seed))


class TestKBlocksFor:
    def test_full_selection(self):
        assert k_blocks_for(256, 32, 1.0) == 8

    def test_half_selection(self):
        assert k_blocks_for(256, 32, 0.5) == 4

    def test_floor_of_one(self):
        assert k_blocks_for(64, 32, 0.01) == 1

    def test_capped_at_block_count(self):
        # ceil can overshoot when the last block is short
        assert k_blocks_for(33, 32, 1.0) == 2

    def test_ragged_half(self):
        # H=100, B=16: ceil(50/16) = 4 of 7 blocks
        assert k_blocks_for(100, 16, 0.5) == 4

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            k_blocks_for(64, 32, 0.0)
        with pytest.raises(ValueError):
            k_blocks_for(64, 32, 1.5)


class TestAttentionParams:
    def test_head_split_must_divide(self):
        with pytest.raises(ValueError):
            make_params(d_model=10, n_heads=3)

    def test_d_head(self):
        assert make_params(d_model=8, n_heads=2).d_head == 4

    def test_param_list(self):
        p = make_params()
        assert len(p.params()) == 4
        assert all(t.requires_grad for t in p.params())

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            make_params(rho=0.0)


class TestMobaRoute:
    def test_matches_naive_topk(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            h = int(rng.integers(4, 40))
            block = int(rng.integers(1, 6))
            dh = int(rng.integers(2, 8))
            nb = -(-h // block)
            kb = int(rng.integers(1, nb + 1))
            q = rng.normal(size=(h, dh))
            k = rng.normal(size=(h, dh))
            plan = moba_route(q, k, block, kb)
            gates = plan.gates[0]
            for i in range(h):
                want = naive_topk_blocks(gates[i], kb, i // block)
                assert block_ids(plan)[0, i].tolist() == want

    def test_ties_break_toward_lower_index(self):
        # identical key blocks make every gate equal: beside its own block
        # each query takes the lowest other one
        h, block, dh = 8, 2, 3
        k = np.tile(np.arange(dh, dtype=np.float64), (h, 1))
        q = np.random.default_rng(1).normal(size=(h, dh))
        plan = moba_route(q, k, block, 2)
        want = [[0, max(1, i // block)] for i in range(h)]
        assert block_ids(plan)[0].tolist() == want

    def test_tie_oracle_agreement_on_integer_gates(self):
        rng = np.random.default_rng(2)
        h, block, dh = 12, 3, 4
        nb = 4
        # low-resolution keys force frequent exact gate ties
        q = rng.integers(-2, 3, size=(h, dh)).astype(np.float64)
        k = rng.integers(-1, 2, size=(h, dh)).astype(np.float64)
        for kb in (1, 2, 3):
            plan = moba_route(q, k, block, kb)
            for i in range(h):
                want = naive_topk_blocks(plan.gates[0, i], kb, i // block)
                assert block_ids(plan)[0, i].tolist() == want

    def test_own_block_forcing(self):
        # queries sit in block 0 but point straight at block 1's keys
        block = 2
        k = np.array([[-1.0, 0.0], [-1.0, 0.0], [5.0, 0.0], [5.0, 0.0]])
        q = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        plan = moba_route(q, k, block, 1)
        assert np.all(plan.gates[0, :2, 1] > plan.gates[0, :2, 0])
        assert block_ids(plan)[0, 0].tolist() == [0]
        assert block_ids(plan)[0, 1].tolist() == [0]

    def test_rows_sorted_distinct_contain_own(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 20, 4))
        k = rng.normal(size=(2, 20, 4))
        plan = moba_route(q, k, 4, 3)
        ids = block_ids(plan)
        assert ids.shape == (2, 20, 3)
        assert np.all(np.diff(ids, axis=-1) > 0)
        own = np.arange(20) // 4
        assert np.all(np.any(ids == own[None, :, None], axis=-1))

    def test_ragged_block_mean_uses_true_count(self):
        # H=5, B=2: last block holds a single key; its mean is that key
        k = np.arange(10, dtype=np.float64).reshape(5, 2)
        q = np.ones((5, 2))
        plan = moba_route(q, k, 2, 1)
        expect = np.stack([k[0:2].mean(0), k[2:4].mean(0), k[4]])
        got = plan.gates[0][0]
        assert np.allclose(got, q[0] @ expect.T, atol=1e-12)

    def test_single_key_blocks_match_reduceat_means(self):
        # at B=1 the block means are the keys themselves, taken without
        # np.add.reduceat; routing must not notice
        rng = np.random.default_rng(20)
        for n, h, dh, kb in ((512, 3, 16, 2), (4, 9, 5, 3), (3, 6, 2, 6)):
            q = rng.normal(size=(n, h, dh))
            k = rng.normal(size=(n, h, dh))
            sums = np.add.reduceat(k, np.arange(h), axis=1)
            gates = q @ np.swapaxes(sums / np.ones(h)[None, :, None], 1, 2)
            aug = gates.copy()
            aug[:, np.arange(h), np.arange(h)] = np.inf
            want = np.sort(np.argsort(-aug, axis=-1, kind="stable")[..., :kb], axis=-1)
            plan = moba_route(q, k, 1, kb)
            assert np.array_equal(plan.gates, gates)
            assert np.array_equal(block_ids(plan), want)

    def test_k_blocks_bounds(self):
        q = np.zeros((4, 2))
        with pytest.raises(ValueError):
            moba_route(q, q, 2, 3)
        with pytest.raises(ValueError):
            moba_route(q, q, 2, 0)


class TestPlanToMask:
    def test_mask_matches_selection(self):
        rng = np.random.default_rng(4)
        h, block = 10, 3
        q = rng.normal(size=(h, 4))
        k = rng.normal(size=(h, 4))
        plan = moba_route(q, k, block, 2)
        mask = plan_to_mask(plan, h)
        assert mask.shape == (1, h, h)
        for i in range(h):
            sel = set(block_ids(plan)[0, i].tolist())
            for j in range(h):
                want = 0.0 if j // block in sel else -np.inf
                assert mask[0, i, j] == want

    def test_query_count_mismatch(self):
        q = np.zeros((4, 2))
        plan = moba_route(q, q, 2, 1)
        with pytest.raises(ValueError):
            plan_to_mask(plan, 6)


def dense_instance(x, params):
    """The layer's output for one (H, d_model) instance; ``params`` keep
    every block, so nothing is routed."""
    out, plan = efficient_attention(T.Tensor(x[None]), params)
    assert plan is None
    return out.values[0]


class TestDenseAttention:
    def test_matches_naive_per_head(self):
        rng = np.random.default_rng(5)
        p = make_params(d_model=8, n_heads=2, rho=1.0, seed=6)
        x = rng.normal(size=(7, 8))
        out = dense_instance(x, p)
        q, k, v = x @ p.wq.values, x @ p.wk.values, x @ p.wv.values
        heads = [naive_attention(q[:, i * 4:(i + 1) * 4],
                                 k[:, i * 4:(i + 1) * 4],
                                 v[:, i * 4:(i + 1) * 4]) for i in range(2)]
        want = np.concatenate(heads, axis=1) @ p.wo.values
        assert np.max(np.abs(out - want)) < 1e-12

    def test_single_token(self):
        p = make_params(d_model=4, n_heads=1, block_size=1, rho=1.0)
        x = np.random.default_rng(7).normal(size=(1, 4))
        out = dense_instance(x, p)
        # softmax over one key is 1, so attention passes v straight through
        want = (x @ p.wv.values) @ p.wo.values
        assert np.allclose(out, want, atol=1e-12)

    def test_identical_tokens_give_identical_rows(self):
        p = make_params(d_model=8, n_heads=2, rho=1.0)
        x = np.tile(np.random.default_rng(8).normal(size=(1, 8)), (5, 1))
        out = dense_instance(x, p)
        assert np.allclose(out, out[0], atol=1e-12)

    def test_batched_matches_per_instance(self):
        rng = np.random.default_rng(9)
        p = make_params(d_model=8, n_heads=2, rho=1.0)
        xb = rng.normal(size=(3, 6, 8))
        out, _ = efficient_attention(T.Tensor(xb), p)
        for b in range(3):
            single = dense_instance(xb[b], p)
            assert np.allclose(out.values[b], single, atol=1e-13)

    def test_rank_validation(self):
        p = make_params(rho=1.0)
        with pytest.raises(ValueError):
            efficient_attention(T.Tensor(np.zeros(8)), p)


class TestEfficientAttention:
    def test_full_rho_equals_dense(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            h = int(rng.integers(3, 30))
            n_heads = int(rng.choice([1, 2, 4]))
            d_model = n_heads * int(rng.integers(2, 6))
            block = int(rng.integers(1, 6))
            p = make_params(d_model=d_model, n_heads=n_heads,
                            block_size=block, rho=1.0, seed=100 + trial)
            x = T.Tensor(rng.normal(size=(1, h, d_model)))
            dense = efficient_attention(x, p)[0].values
            sparse = efficient_attention(x, p, full_plan(x, p))[0].values
            assert np.max(np.abs(dense - sparse)) < 1e-6

    def test_matches_gathered_softmax(self):
        # independent semantics: softmax over gathered selected keys only
        rng = np.random.default_rng(11)
        p = make_params(d_model=8, n_heads=2, block_size=2, rho=0.5, seed=12)
        h = 9
        x = rng.normal(size=(h, 8))
        out, plan = efficient_attention(T.Tensor(x[None]), p)
        q, k, v = x @ p.wq.values, x @ p.wk.values, x @ p.wv.values
        heads = []
        for hi in range(2):
            qh = q[:, hi * 4:(hi + 1) * 4]
            kh = k[:, hi * 4:(hi + 1) * 4]
            vh = v[:, hi * 4:(hi + 1) * 4]
            rows = np.zeros((h, 4))
            for i in range(h):
                cols = [j for j in range(h)
                        if j // 2 in set(block_ids(plan)[0, hi, i].tolist())]
                s = qh[i] @ kh[cols].T / 2.0
                w = np.exp(s - s.max())
                w /= w.sum()
                rows[i] = w @ vh[cols]
            heads.append(rows)
        want = np.concatenate(heads, axis=1) @ p.wo.values
        assert np.max(np.abs(out.values[0] - want)) < 1e-12

    def test_plan_replay_is_deterministic(self):
        rng = np.random.default_rng(13)
        p = make_params(d_model=8, n_heads=2, block_size=2, rho=0.5)
        x = rng.normal(size=(1, 8, 8))
        out1, plan = efficient_attention(T.Tensor(x), p)
        out2, _ = efficient_attention(T.Tensor(x), p, plan)
        assert np.array_equal(out1.values, out2.values)

    def test_gradients_match_fd_with_frozen_plan(self):
        rng = np.random.default_rng(14)
        p = make_params(d_model=6, n_heads=2, block_size=2, rho=0.5, seed=15)
        x = T.Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        _, plan = efficient_attention(x, p)
        leaves = [x] + p.params()

        def build():
            return T.tsum(efficient_attention(x, p, plan)[0])

        got = T.grad(build(), leaves)
        want = fd_grad(build, leaves)
        for g, w in zip(got, want):
            assert max_rel_err(g, w) < 1e-6

    def test_live_routing_gradients_equal_frozen_replay(self):
        # routing reads .values, so backward through the live path must be
        # bitwise identical to replaying the captured plan
        rng = np.random.default_rng(16)
        p = make_params(d_model=8, n_heads=2, block_size=3, rho=0.5)
        x = T.Tensor(rng.normal(size=(1, 7, 8)), requires_grad=True)
        live = T.tsum(efficient_attention(x, p)[0])
        g_live = T.grad(live, [x] + p.params())
        _, plan = efficient_attention(x, p)
        frozen = T.tsum(efficient_attention(x, p, plan)[0])
        g_frozen = T.grad(frozen, [x] + p.params())
        for a, b in zip(g_live, g_frozen):
            assert np.array_equal(a, b)


class TestAttentionFlops:
    def test_half_rho_is_half_of_dense_attention_term(self):
        h, d_model, heads, block = 256, 64, 4, 32
        dense = attention_flops(h, d_model, heads, block, 8,
                                include_projections=False)
        half = attention_flops(h, d_model, heads, block, 4,
                               include_projections=False)
        assert half * 2 == dense

    def test_full_selection_equals_dense_formula(self):
        # 2 MACs per flop: scores H*H*dh + values H*H*dh, per head
        h, d_model, heads = 100, 32, 4
        got = attention_flops(h, d_model, heads, 16, 7,
                              include_projections=False)
        assert got == 2 * (2 * h * h * (d_model // heads) * heads)

    def test_selected_keys_capped_at_h(self):
        # 7 blocks of 16 cover 100 keys with slack; cost caps at H
        a = attention_flops(100, 32, 4, 16, 7, include_projections=False)
        b = attention_flops(112, 32, 4, 16, 7, include_projections=False)
        assert a == 2 * (2 * 100 * 100 * 8 * 4)
        assert b == 2 * (2 * 112 * 112 * 8 * 4)

    def test_projection_term(self):
        h, d_model = 8, 16
        with_p = attention_flops(h, d_model, 2, 4, 1)
        without = attention_flops(h, d_model, 2, 4, 1,
                                  include_projections=False)
        assert with_p - without == 2 * (4 * h * d_model * d_model)

    def test_monotone_in_k_blocks(self):
        vals = [attention_flops(90, 32, 4, 8, kb) for kb in range(1, 12)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] < vals[-1]

    def test_k_blocks_validation(self):
        with pytest.raises(ValueError):
            attention_flops(64, 32, 4, 32, 3)
        with pytest.raises(ValueError):
            attention_flops(64, 32, 4, 32, 0)


class TestKernels:
    def test_sparse_equals_dense_at_full_selection(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            heads = int(rng.choice([1, 2, 4]))
            h = int(rng.integers(5, 70))
            dh = int(rng.integers(2, 16))
            block = int(rng.integers(1, 9))
            nb = -(-h // block)
            q, k, v = (rng.normal(size=(heads, h, dh)) for _ in range(3))
            d = dense_core(q, k, v)
            s = sparse_core(q, k, v, block, nb)
            assert np.max(np.abs(d - s)) < 1e-12

    @pytest.mark.parametrize("heads,h,dh,block,kb", [
        (2, 13, 4, 3, 2),       # short last block
        (1, 9, 3, 2, 3),        # one head
        (3, 11, 5, 1, 4),       # B = 1
        (2, 17, 4, 4, 1),       # each query only its own block
        (2, 6, 3, 8, 1),        # B >= H: one block
        (4, 24, 2, 6, 2),       # B divides H
    ])
    def test_sparse_matches_masked_graph_path(self, heads, h, dh, block, kb):
        # same routing rule, two very different implementations
        rng = np.random.default_rng(18)
        q, k, v = (rng.normal(size=(heads, h, dh)) for _ in range(3))
        got = sparse_core(q, k, v, block, kb)
        for e in range(heads):
            plan = moba_route(q[e], k[e], block, kb)
            mask = plan_to_mask(plan, h)[0]
            s = q[e] @ k[e].T / math.sqrt(dh) + mask
            s = s - s.max(axis=-1, keepdims=True)
            w = np.exp(s)
            w /= w.sum(axis=-1, keepdims=True)
            assert np.max(np.abs(got[e] - w @ v[e])) < 1e-12

    def test_scratch_reuse_is_deterministic(self):
        rng = np.random.default_rng(19)
        q, k, v = (rng.normal(size=(2, 20, 4)) for _ in range(3))
        a = sparse_core(q, k, v, 4, 2).copy()
        # calls of other shapes in between
        q2, k2, v2 = (rng.normal(size=(3, 33, 8)) for _ in range(3))
        sparse_core(q2, k2, v2, 8, 3)
        dense_core(q2, k2, v2)
        b = sparse_core(q, k, v, 4, 2)
        assert np.array_equal(a, b)

    def test_bench_report_shape(self):
        r = bench_attention(64, d_model=32, n_heads=2, block_size=32,
                            rho=0.5, repeats=2, seed=1)
        assert r["H"] == 64 and r["B"] == 32 and r["k_blocks"] == 1
        assert r["sparse_flops"] < r["dense_flops"]
        assert r["max_abs_diff_at_rho1"] < 1e-6
        assert r["wall_time_dense_ms"] > 0
        assert r["wall_time_sparse_ms"] > 0
        assert r["wall_time_full_ms"] > 0

    def test_bench_releases_its_scratch_buffers(self):
        # the pool lives in the call: none of its buffers outlives it
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bench_attention(256, d_model=32, n_heads=2, block_size=32,
                            rho=0.5, repeats=1, seed=1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 100_000       # the dense scores buffer alone is 1 MiB
