"""Semantic-id tokenizer: quantization, STE gradients, training, io."""

import math

import numpy as np
import pytest

from storerank import tensor as T
from storerank import tokenizer as tok
from storerank.tokenizer import (
    EmbeddingTable,
    OpmqConfig,
    OpmqModel,
    SidTable,
    load_opmq,
    mean_baseline_loss,
    nearest_codewords,
    opmq_forward,
    orth_penalty,
    read_embeddings,
    read_sids,
    save_opmq,
    tokenize_catalog,
    train_opmq,
    train_rq_baseline,
    write_embeddings,
    write_sids,
)

import graph_ops as G
from oracles import fd_grad, max_rel_err, naive_nearest


def cluster_table(n=300, d=8, clusters=8, seed=7, spread=0.1):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, d)) * 2.0
    assign = rng.integers(0, clusters, size=n)
    vecs = centers[assign] + spread * rng.normal(size=(n, d))
    return EmbeddingTable(np.arange(n), vecs)


def make_model(d_p=4, k=2, v=4, seed=0, **kw):
    cfg = OpmqConfig(k=k, v=v, **kw)
    return OpmqModel(d_p, cfg, np.random.default_rng(seed))


def set_identity_expert(model, i):
    w1, b1, w2, b2 = (t.values[i] for t in model.experts)
    w1[...] = np.eye(w1.shape[0])
    b1[...] = 0.0
    w2[...] = np.eye(w2.shape[0], w2.shape[1])
    b2[...] = 0.0


class TestEmbeddingTable:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable([1, 1], np.zeros((2, 3)))

    def test_lookup(self):
        t = EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert t.dim == 2 and len(t) == 2
        assert np.array_equal(t.vectors[t.index["b"]], [3.0, 4.0])
        assert "a" in t and "c" not in t

    def test_integer_ids_become_strings(self):
        t = EmbeddingTable([5], [[1.0]])
        assert t.ids == ["5"] and 5 in t
        assert np.array_equal(t.vectors[t.index["5"]], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable([1], [[np.nan]])

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            EmbeddingTable([1, 2], np.zeros((2, 0)))

    def test_csv_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        t = EmbeddingTable(np.arange(20), rng.normal(size=(20, 5)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_embeddings(p1, t)
        back = read_embeddings(p1)
        assert back.ids == t.ids
        assert np.array_equal(back.vectors, t.vectors)
        write_embeddings(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("item_id,dim=2\n1,0.5\n")
        with pytest.raises(ValueError, match=":2:"):
            read_embeddings(p)
        p.write_text("item_id,dim=2\n1,0.5,oops\n")
        with pytest.raises(ValueError, match=":2:"):
            read_embeddings(p)
        p.write_text("wrong header\n")
        with pytest.raises(ValueError, match=":1:"):
            read_embeddings(p)
        for dim in ("0", "x", "-2", "", "2,3"):
            p.write_text(f"item_id,dim={dim}\n1,0.5,0.5\n")
            with pytest.raises(ValueError, match=":1: bad header"):
                read_embeddings(p)


class TestSidTable:
    def test_code_range_checked(self):
        with pytest.raises(ValueError):
            SidTable([1], [[4]], v=4)
        with pytest.raises(ValueError):
            SidTable([1], [[-1]], v=4)

    def test_lookup(self):
        t = SidTable(["x", "y"], [[0, 3], [2, 1]], v=4)
        assert t.k == 2 and t.v == 4
        assert t.codes[t.index["y"]].tolist() == [2, 1]

    def test_csv_round_trip_byte_identical(self, tmp_path):
        t = SidTable(np.arange(9), np.arange(18).reshape(9, 2) % 7, v=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sids(p1, t)
        back = read_sids(p1)
        assert back.ids == t.ids and back.v == 7
        assert np.array_equal(back.codes, t.codes)
        write_sids(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("item_id,K=2\n")
        with pytest.raises(ValueError, match=":1:"):
            read_sids(p)
        p.write_text("item_id,K=2,V=4\n1,0\n")
        with pytest.raises(ValueError, match=":2:"):
            read_sids(p)
        p.write_text("item_id,K=2,V=4\n1,0,1\n2,0," + "9" * 30 + "\n")
        with pytest.raises(ValueError, match=":3:"):
            read_sids(p)
        for header in ("K=x,V=4", "K=0,V=4", "K=2,V=0", "K=2,V=-4",
                       "V=4,K=2", "K=2,V=4,W=1"):
            p.write_text(f"item_id,{header}\n1,0,1\n")
            with pytest.raises(ValueError, match=":1: bad header"):
                read_sids(p)


class TestEncodeExperts:
    """The experts' forward on plain arrays, ``OpmqModel.encode_values``."""

    def test_identity_expert_is_identity(self):
        # identity weights around the tanh: the latent is tanh of the input
        m = make_model(d_p=2, k=1)
        set_identity_expert(m, 0)
        (z,) = m.encode_values(np.array([1.0, 2.0])[None])
        assert np.array_equal(z, np.tanh([[1.0, 2.0]]))

    def test_output_count_and_dims(self):
        m = make_model(d_p=4, k=3, v=5)
        assert m.encode_values(np.ones(4)[None]).shape == (3, 1, 4)

    def test_matches_matmul_oracle(self):
        m = make_model(d_p=3, k=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3))
        outs = m.encode_values(x)
        for z, (w1, b1, w2, b2) in zip(outs, zip(*(t.values for t in m.experts))):
            want = np.tanh(x @ w1 + b1) @ w2 + b2
            assert np.max(np.abs(z - want)) < 1e-6

    def test_dimension_mismatch(self):
        m = make_model(d_p=4)
        with pytest.raises(ValueError):
            m.encode_values(np.ones(3)[None])
        with pytest.raises(ValueError):
            m.encode_values(np.ones(4))


def explicit_scan(z, codebook):
    """argmin_j ||z - s_j||^2 from explicit differences, first index on
    ties: the search the screen of ``nearest_codewords`` must reproduce."""
    diff = z[:, None, :] - codebook[None, :, :]
    return np.argmin((diff * diff).sum(axis=-1), axis=1)


def close_calls(rng, n, v, d):
    """(latents, codebook) full of ties and near-ties: two equal
    codewords, and a quarter of the latents each on a codeword, halfway
    between two, within a few ulps of one, and drawn at random."""
    book = rng.normal(size=(v, d))
    book[1] = book[0]
    z = rng.normal(size=(n, d))
    q = n // 4
    i, j = rng.integers(0, v, size=(2, q))
    z[:q] = book[i]
    z[q:2 * q] = (book[i] + book[j]) / 2
    z[2 * q:3 * q] = book[i] * (1.0 + 4e-16 * rng.normal(size=(q, d)))
    return z, book


class TestNearestCodeword:
    def test_basic(self):
        book = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx = nearest_codewords(np.array([0.9, 0.1])[None], book)[0]
        assert idx == 0
        assert np.array_equal(book[idx], [1.0, 0.0])

    def test_equidistant_tie_takes_lowest_index(self):
        book = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nearest_codewords(np.array([0.5, 0.5])[None], book)[0] == 0

    def test_matches_scan_oracle_exactly(self):
        rng = np.random.default_rng(8)
        book = rng.normal(size=(40, 6))
        queries = rng.normal(size=(1000, 6))
        got = nearest_codewords(queries, book)
        for q, g in zip(queries, got):
            assert g == naive_nearest(book, q)

    def test_tie_heavy_grid_matches_oracle(self):
        rng = np.random.default_rng(9)
        book = rng.integers(-1, 2, size=(12, 3)).astype(np.float64)
        queries = rng.integers(-1, 2, size=(300, 3)).astype(np.float64)
        got = nearest_codewords(queries, book)
        for q, g in zip(queries, got):
            assert g == naive_nearest(book, q)

    def test_chunking_does_not_change_results(self):
        # force several chunks by using a big V * d_z product
        rng = np.random.default_rng(10)
        book = rng.normal(size=(300, 16))
        queries = rng.normal(size=(3000, 16))
        whole = nearest_codewords(queries, book)
        parts = np.concatenate([nearest_codewords(queries[i:i + 7], book)
                                for i in range(0, 3000, 7)])
        assert np.array_equal(whole, parts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-155, 1.0, 1e150,
                                       1e154, 1e160])
    def test_matches_the_scan_at_every_scale(self, scale):
        # underflowing products, and terms that overflow or nearly do
        z, book = close_calls(np.random.default_rng(12), 400, 12, 6)
        z, book = z * scale, book * scale
        assert np.array_equal(nearest_codewords(z, book), explicit_scan(z, book))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_distances_that_overflow_match_the_scan(self):
        # ||z||^2 is finite, but both distances overflow: the scan takes
        # the first, though the second is nearer
        z = np.array([[1.3407e154], [-1.3407e154], [1e150]])
        book = np.array([[-2e150], [-1e150]])
        assert explicit_scan(z, book).tolist() == [0, 0, 1]
        assert nearest_codewords(z, book).tolist() == [0, 0, 1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_values_match_the_scan(self):
        rng = np.random.default_rng(13)
        z, book = close_calls(rng, 80, 9, 4)
        z[::5, 1] = np.nan
        z[1::5, 2] = np.inf
        z[2::5, 0] = -np.inf
        z[3::5, :2] = [np.inf, -np.inf]
        assert np.array_equal(nearest_codewords(z, book), explicit_scan(z, book))
        for bad in (np.nan, np.inf):
            worse = book.copy()
            worse[4, 3] = bad
            assert np.array_equal(nearest_codewords(z, worse),
                                  explicit_scan(z, worse))

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 300])
    def test_matches_the_scan_at_every_width(self, d):
        # numpy sums a row of 8 or more pairwise, in blocks of 128
        z, book = close_calls(np.random.default_rng(d), 200, 10, d)
        assert np.array_equal(nearest_codewords(z, book), explicit_scan(z, book))

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -30, 3.0 ** 20])
    def test_integer_lattice_ties_match_the_scan(self, scale):
        rng = np.random.default_rng(14)
        book = rng.integers(-2, 3, size=(20, 4)) * scale
        z = rng.integers(-2, 3, size=(500, 4)) * scale
        z[::2] += 0.5 * scale
        assert np.array_equal(nearest_codewords(z, book), explicit_scan(z, book))

    def test_scanned_rows_past_the_first_chunk(self):
        # V * d_z = 4800: chunks of 873 rows, with close calls in each
        z, book = close_calls(np.random.default_rng(15), 3000, 300, 16)
        z = z[np.random.default_rng(16).permutation(3000)]
        assert np.array_equal(nearest_codewords(z, book), explicit_scan(z, book))

    def test_the_screen_settles_clear_rows_and_scans_close_calls(self, monkeypatch):
        scanned, scan = [], tok._scan

        def counting_scan(z, codebook):
            scanned.append(len(z))
            return scan(z, codebook)
        monkeypatch.setattr(tok, "_scan", counting_scan)
        rng = np.random.default_rng(17)
        nearest_codewords(rng.normal(size=(500, 8)), rng.normal(size=(16, 8)))
        assert sum(scanned) == 0
        # ties (latents halfway between two codewords, or at the
        # duplicated one) are scanned; random latents are not
        z, book = close_calls(rng, 200, 16, 8)
        nearest_codewords(z, book)
        assert 0 < sum(scanned) < 100

    def test_errors(self):
        with pytest.raises(ValueError):
            nearest_codewords(np.ones(2)[None], np.zeros((0, 2)))
        with pytest.raises(ValueError):
            nearest_codewords(np.ones(3)[None], np.zeros((4, 2)))
        with pytest.raises(ValueError):
            nearest_codewords(np.ones(2), np.zeros((4, 2)))


def per_expert_search(z, books):
    """The 2-D ``nearest_codewords`` call, expert by expert."""
    return np.stack([nearest_codewords(zi, book) for zi, book in zip(z, books)])


class TestStackedSearch:
    """``nearest_codewords`` on (K, n, d_z) latents and (K, V, d_z)
    codebooks: expert k's latents search expert k's codebook, in one
    call, bit for bit the 2-D call expert by expert."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fallback_rows_of_one_expert_scan_that_experts_codebook(
            self, monkeypatch):
        rng = np.random.default_rng(21)
        books = rng.normal(size=(3, 8, 4))
        z = rng.normal(size=(3, 50, 4))
        books[1, 5] = books[1, 2]
        z[1, 0] = books[1, 2]                    # a tie
        z[1, 1, 2] = np.nan                      # a NaN latent
        z[1, 2] = [2.0 ** 511, 0.3, -0.2, 0.1]   # a norm above 2^1020
        scanned, scan = [], tok._scan

        def counting_scan(rows, codebooks):
            scanned.extend(np.array_equal(cb, books[1]) for cb in codebooks)
            return scan(rows, codebooks)
        monkeypatch.setattr(tok, "_scan", counting_scan)
        got = nearest_codewords(z, books)
        assert got.shape == (3, 50) and len(scanned) >= 3 and all(scanned)
        assert np.array_equal(got, per_expert_search(z, books))
        assert got[1, :3].tolist() == [2, 0, explicit_scan(z[1, 2:3], books[1])[0]]

    def test_rows_across_a_chunk_boundary(self):
        # K V d_z = 14400: chunks of 291 rows, close calls in each
        rng = np.random.default_rng(22)
        z, books = map(np.stack, zip(*[close_calls(rng, 700, 300, 16)
                                       for _ in range(3)]))
        got = nearest_codewords(z, books)
        assert np.array_equal(got, per_expert_search(z, books))
        assert np.array_equal(got, np.stack([explicit_scan(zi, b)
                                             for zi, b in zip(z, books)]))

    @pytest.mark.parametrize("k, v", [(1, 12), (3, 1), (1, 1)])
    def test_one_expert_or_one_codeword(self, k, v):
        rng = np.random.default_rng(23)
        books = rng.normal(size=(k, v, 5))
        z = rng.normal(size=(k, 40, 5))
        z[:, ::4] = books[:, :1]
        got = nearest_codewords(z, books)
        assert np.array_equal(got, per_expert_search(z, books))
        if v == 1:
            assert not got.any()

    def test_errors(self):
        for z, book in [((2, 4, 2), (3, 5, 2)), ((4, 2), (3, 5, 2)),
                        ((3, 4, 2), (3, 0, 2)), ((3, 4, 2), (3, 5, 1)),
                        ((3, 4, 0), (3, 5, 0)), ((4, 0), (5, 0))]:
            with pytest.raises(ValueError, match=fr"latents \({z[0]}, .* do not "
                                                 fr"fit codebook \({book[0]}, "):
                nearest_codewords(np.ones(z), np.zeros(book))

    def test_tokenize_catalog_matches_a_per_expert_search(self):
        table = cluster_table(n=120)
        model, _ = train_opmq(table, OpmqConfig(k=3, v=8, epochs=2, seed=5))
        want = per_expert_search(model.encode_values(table.vectors), model.books())
        codes = tokenize_catalog(table, model).codes
        assert np.array_equal(codes, want.T) and codes.flags.c_contiguous

    def test_one_step_searches_once_over_nine_parameters(self, monkeypatch):
        calls, search = [], tok.nearest_codewords

        def counting(z, codebook):
            calls.append(z.shape)
            return search(z, codebook)
        monkeypatch.setattr(tok, "nearest_codewords", counting)
        m = make_model(d_p=4, k=3, v=5)
        opmq_forward(np.random.default_rng(24).normal(size=(6, 4)), m)
        assert calls == [(3, 6, 4)]
        for k in (1, 3, 8):
            assert len(make_model(k=k).params()) == 9


class TestOpmqForward:
    def test_perfect_reconstruction_gives_zero_loss(self):
        # identity expert, a codebook holding its latent, and a decoder
        # whose hidden layer is zero and whose output bias is the input
        m = make_model(d_p=2, k=1, v=2)
        set_identity_expert(m, 0)
        w1, b1, w2, b2 = m.decoder
        w1.values[...] = 0.0
        b1.values[...] = 0.0
        b2.values[...] = [1.0, 2.0]
        m.books()[0] = np.array([np.tanh([1.0, 2.0]), [9.0, 9.0]])
        sids, recon, loss, aux, _ = opmq_forward(np.array([1.0, 2.0])[None], m)
        assert sids.tolist() == [[0]]
        assert np.array_equal(recon.values, [[1.0, 2.0]])
        assert loss.values == 0.0 and aux.values == 0.0

    def test_codewords_get_no_gradient_from_recon(self):
        m = make_model(d_p=3, k=2, v=4, seed=11)
        x = np.random.default_rng(12).normal(size=(5, 3))
        _, _, loss, _, _ = opmq_forward(x, m)
        grads = T.grad(loss, [m.codebooks])
        for g in grads:
            assert np.all(g == 0.0)

    def test_expert_grads_match_fd_with_frozen_assignment(self):
        # the straight-through forward value is the codeword, so plain fd
        # of the quantized loss is zero; the differentiable surrogate is
        # z + const with the quantization offset frozen at the base point
        m = make_model(d_p=3, k=2, v=4, seed=13)
        x = np.random.default_rng(14).normal(size=(2, 3))
        sids = opmq_forward(x, m)[0]
        latents0 = m.encode_values(x)
        offsets = [m.books()[i][sids[:, i]] - latents0[i]
                   for i in range(m.config.k)]
        leaves = list(m.experts) + list(m.decoder)

        def build_surrogate():
            latents = G.unstack(tok._experts(x, m))
            total = None
            for z, off in zip(latents, offsets):
                q = T.add(z, T.Tensor(off))
                total = q if total is None else T.add(total, q)
            recon = T.mlp(total, m.decoder)
            err = T.sub(T.Tensor(x), recon)
            return T.mul(T.tsum(T.mul(err, err)), 1.0 / x.shape[0])

        got = T.grad(build_surrogate(), leaves)
        want = fd_grad(build_surrogate, leaves)
        for g, w in zip(got, want):
            assert max_rel_err(g, w) < 1e-6
        # and the production STE path computes exactly those gradients
        ste = T.grad(opmq_forward(x, m, sids=sids)[2], leaves)
        for g, s in zip(got, ste):
            assert np.array_equal(g, s)

    def test_assignment_override_is_used(self):
        m = make_model(d_p=2, k=1, v=3, seed=15)
        x = np.ones((1, 2))
        forced = np.array([[2]])
        sids, _, _, _, _ = opmq_forward(x, m, sids=forced)
        assert sids.tolist() == [[2]]

    def test_batch_shapes(self):
        m = make_model(d_p=4, k=3, v=5)
        sids, recon, loss, aux, latents = opmq_forward(np.ones((6, 4)), m)
        assert sids.shape == (6, 3)
        assert recon.shape == (6, 4)
        assert loss.shape == () and aux.shape == ()
        assert latents.shape == (3, 6, 4)


class TestOrthPenalty:
    def test_single_expert_is_zero(self):
        m = make_model(d_p=3, k=1)
        assert abs(orth_penalty(m).values) < 1e-12

    def test_duplicated_experts_give_two(self):
        m = make_model(d_p=3, k=2, seed=16)
        w1 = m.experts[0].values
        w1[1] = w1[0]
        assert abs(orth_penalty(m).values - 2.0) < 1e-12

    def test_orthogonal_weights_give_zero(self):
        m = make_model(d_p=2, k=2)
        m.experts[0].values[...] = [[[1.0, 0.0], [0.0, 0.0]],
                                    [[0.0, 1.0], [0.0, 0.0]]]
        assert abs(orth_penalty(m).values) < 1e-12

    def test_invariant_to_positive_rescaling(self):
        m = make_model(d_p=3, k=3, seed=17)
        before = orth_penalty(m).values
        m.experts[0].values[1] *= 3.7
        assert abs(orth_penalty(m).values - before) < 1e-12

    def test_zero_norm_weights_rejected(self):
        m = make_model(d_p=2, k=2)
        m.experts[0].values[0] = 0.0
        with pytest.raises(ValueError):
            orth_penalty(m)

    def test_gradient_flows_to_experts(self):
        m = make_model(d_p=2, k=2, seed=18)
        w1 = m.experts[0]
        w1.values[1] = w1.values[0]
        g = T.grad(orth_penalty(m), [w1])[0]
        assert np.any(g[0] != 0.0)

    def test_penalty_matches_fd(self):
        m = make_model(d_p=2, k=2, seed=20)
        leaves = [m.experts[0]]
        got = T.grad(orth_penalty(m), leaves)
        want = fd_grad(lambda: orth_penalty(m), leaves)
        for g, w in zip(got, want):
            assert max_rel_err(g, w) < 1e-6


class TestOpmqConfig:
    @pytest.mark.parametrize("kw", [
        dict(k=0), dict(v=0), dict(batch_size=0), dict(epochs=0),
        dict(reinit_every=0), dict(d_z=0), dict(lr=0.0), dict(lr=-1.0),
        dict(beta=-0.1), dict(w_orth=-0.1),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            OpmqConfig(**kw)

    @pytest.mark.parametrize("key", ["w_orth", "beta", "lr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_a_non_finite_float_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            OpmqConfig(**{key: value})

    def test_edges_accepted(self):
        OpmqConfig(k=1, v=1, batch_size=1, epochs=1, reinit_every=1, d_z=1,
                   beta=0.0, w_orth=0.0)


class TestTrainOpmq:
    def test_learns_clustered_embeddings(self):
        table = cluster_table(n=500, d=16, clusters=16)
        cfg = OpmqConfig(k=3, v=16, epochs=60, seed=0)
        init = OpmqModel(table.dim, cfg, np.random.default_rng(cfg.seed))
        model, log = train_opmq(table, cfg)
        assert log[-1]["loss_recon"] < 0.5 * mean_baseline_loss(table)
        assert log[-1]["orth_penalty"] < orth_penalty(init).values

    def test_deterministic(self):
        table = cluster_table(n=80)
        cfg = OpmqConfig(k=2, v=4, epochs=3, seed=1)
        m1, log1 = train_opmq(table, cfg)
        m2, log2 = train_opmq(table, cfg)
        for a, b in zip(m1.params(), m2.params()):
            assert np.array_equal(a.values, b.values)
        assert log1 == log2
        assert np.array_equal(tokenize_catalog(table, m1).codes,
                              tokenize_catalog(table, m2).codes)

    def test_deterministic_with_dead_code_reinit(self):
        # two tight clusters, V=8: most codes die and get reseeded
        table = cluster_table(n=60, clusters=2, spread=0.01)
        cfg = OpmqConfig(k=1, v=8, epochs=4, reinit_every=2, seed=2)
        m1, _ = train_opmq(table, cfg)
        m2, _ = train_opmq(table, cfg)
        for a, b in zip(m1.params(), m2.params()):
            assert np.array_equal(a.values, b.values)
        for cb in m1.books():
            assert np.all(np.isfinite(cb))
            assert np.all(np.any(cb != 0.0, axis=1))

    def test_warns_when_fewer_distinct_than_v(self):
        table = EmbeddingTable([0, 1, 2], np.ones((3, 2)))
        with pytest.warns(UserWarning):
            train_opmq(table, OpmqConfig(k=1, v=4, epochs=1, seed=0))

    def test_warning_counts_every_distinct_row(self):
        # 10 distinct rows, spread over 100, so the head holds fewer than V
        vecs = np.repeat(np.arange(10.0), 10)[:, None] * np.ones((1, 2))
        table = EmbeddingTable(np.arange(100), vecs)
        with pytest.warns(UserWarning, match="only 10 distinct embeddings for V=16"):
            train_opmq(table, OpmqConfig(k=1, v=16, epochs=1, seed=0))

    def test_no_warning_when_distinct_rows_come_late(self, recwarn):
        # the first 4 * V rows are one row; 16 distinct rows follow
        vecs = np.concatenate([np.zeros((64, 2)), np.arange(32.0).reshape(16, 2)])
        train_opmq(EmbeddingTable(np.arange(80), vecs),
                   OpmqConfig(k=1, v=16, epochs=1, seed=0))
        assert not [w for w in recwarn if "distinct" in str(w.message)]

    def test_distinct_count_reads_only_the_head_when_it_suffices(self, monkeypatch):
        seen, unique = [], np.unique

        def spy(rows, **kw):
            seen.append(len(rows))
            return unique(rows, **kw)
        monkeypatch.setattr(np, "unique", spy)
        rows = np.random.default_rng(0).normal(size=(1000, 3))
        assert tok._count_distinct(rows, 16) == 64 and seen == [64]
        rows[:64] = 0.0
        assert tok._count_distinct(rows, 16) == 937 and seen == [64, 64, 1000]

    def test_log_counts_each_epochs_code_usage(self, monkeypatch):
        table = cluster_table(n=20, d=4, clusters=4)
        steps = []

        def recording(e, model, sids=None):
            out = opmq_forward(e, model, sids)
            steps.append(out[0])
            return out
        monkeypatch.setattr(tok, "opmq_forward", recording)
        _, log = train_opmq(table, OpmqConfig(k=2, v=4, epochs=2, batch_size=7,
                                              seed=3))
        assert len(steps) == 6
        for rec, epoch in zip(log, (steps[:3], steps[3:])):
            for i in range(2):
                codes = [int(c) for sids in epoch for c in sids[:, i]]
                counts = {c: codes.count(c) for c in set(codes)}
                entropy = -sum(n / 20 * math.log(n / 20) for n in counts.values())
                assert rec["codes_used"][i] == len(counts)
                assert rec["usage_perplexity"][i] == pytest.approx(
                    math.exp(entropy), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:only 1 distinct")
    def test_one_code_per_position_has_perplexity_one(self):
        table = EmbeddingTable(np.arange(12), np.ones((12, 3)))
        _, log = train_opmq(table, OpmqConfig(k=3, v=4, epochs=2, seed=0))
        for rec in log:
            assert rec["codes_used"] == [1, 1, 1]
            assert rec["usage_perplexity"] == [1.0, 1.0, 1.0]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_loss_aborts(self):
        table = cluster_table(n=40)
        cfg = OpmqConfig(k=1, v=4, epochs=3, lr=1e200, seed=0)
        with pytest.raises(FloatingPointError):
            train_opmq(table, cfg)

    def test_empty_table_rejected(self):
        table = EmbeddingTable([], np.zeros((0, 3)))
        with pytest.raises(ValueError):
            train_opmq(table, OpmqConfig(epochs=1))


class TestTokenizeCatalog:
    def test_codes_in_range_and_stable(self):
        table = cluster_table(n=50)
        model, _ = train_opmq(table, OpmqConfig(k=2, v=4, epochs=2, seed=3))
        s1 = tokenize_catalog(table, model)
        s2 = tokenize_catalog(table, model)
        assert np.array_equal(s1.codes, s2.codes)
        assert s1.codes.min() >= 0 and s1.codes.max() < 4
        assert s1.k == 2 and len(s1) == 50

    def test_matches_forward_assignments(self):
        table = cluster_table(n=30)
        model, _ = train_opmq(table, OpmqConfig(k=2, v=4, epochs=2, seed=4))
        sids = opmq_forward(table.vectors, model)[0]
        assert np.array_equal(tokenize_catalog(table, model).codes, sids)

    def test_single_item(self):
        table = EmbeddingTable(["only"], [[0.1, 0.2]])
        model = make_model(d_p=2, k=3, v=2)
        s = tokenize_catalog(table, model)
        assert len(s) == 1 and s.codes[s.index["only"]].shape == (3,)

    def test_dimension_mismatch(self):
        model = make_model(d_p=4)
        with pytest.raises(ValueError):
            tokenize_catalog(EmbeddingTable([1], [[1.0, 2.0]]), model)


class TestRqBaseline:
    def test_residual_rms_non_increasing(self):
        table = cluster_table(n=200, clusters=6)
        _, stages = train_rq_baseline(table, OpmqConfig(k=3, v=8, seed=5))
        assert all(b <= a + 1e-12 for a, b in zip(stages, stages[1:]))

    def test_single_stage_is_plain_kmeans(self):
        from storerank.tokenizer import _kmeans
        table = cluster_table(n=100, clusters=4)
        sids, _ = train_rq_baseline(table, OpmqConfig(k=1, v=4, seed=6))
        _, assign = _kmeans(table.vectors.copy(), 4, np.random.default_rng(6))
        assert np.array_equal(sids.codes[:, 0], assign)

    def test_deterministic(self):
        table = cluster_table(n=100)
        a, _ = train_rq_baseline(table, OpmqConfig(k=2, v=5, seed=7))
        b, _ = train_rq_baseline(table, OpmqConfig(k=2, v=5, seed=7))
        assert np.array_equal(a.codes, b.codes)

    def test_more_centroids_than_points(self):
        table = cluster_table(n=3)
        sids, _ = train_rq_baseline(table, OpmqConfig(k=2, v=8, seed=8))
        assert sids.codes.shape == (3, 2)


class TestArtifact:
    def test_round_trip_bitwise(self, tmp_path):
        table = cluster_table(n=60)
        model, _ = train_opmq(table, OpmqConfig(k=2, v=4, epochs=2, seed=9))
        p = tmp_path / "tok.opmq"
        save_opmq(p, model)
        back = load_opmq(p)
        assert back.config == model.config and back.d_p == model.d_p
        for a, b in zip(model.params(), back.params()):
            assert np.array_equal(a.values, b.values)

    def test_save_is_byte_stable(self, tmp_path):
        model = make_model(d_p=3, k=2, v=4, seed=10)
        p1, p2 = tmp_path / "a.opmq", tmp_path / "b.opmq"
        save_opmq(p1, model)
        save_opmq(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.opmq"
        p.write_bytes(b"NOPE1\n{}\n")
        with pytest.raises(ValueError, match="magic"):
            load_opmq(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = make_model(d_p=2, k=1, v=2)
        p = tmp_path / "tok.opmq"
        save_opmq(p, model)
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_opmq(p)
