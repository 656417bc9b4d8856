"""Row-sparse embedding gradients and the touched-row Adam, bit for bit.

The references below are the dense embedding backward (a full zero
table filled by ``np.add.at``) and the dense Adam update that the
row-sparse path replaces.  Every case compares the two with exact
equality: the row-sparse path claims to be the same arithmetic, not an
approximation of it.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from storerank import model as M
from storerank import tensor as T
from storerank.data import SyntheticSpec, encode_features, gen_synthetic, random_split


def dense_lookup_grad(table, indices, g):
    """The dense embedding backward: ``np.add.at`` into a full zero table."""
    full = np.zeros_like(table.values)
    np.add.at(full, indices, g)
    table.accumulate_grad(full)


def dense_embedding(table, indices):
    """Embedding lookup whose backward adds into a full zero table."""
    indices = np.asarray(indices)
    out_vals = np.take(table.values, indices, axis=0)

    def bwd(g):
        if table.requires_grad:
            dense_lookup_grad(table, indices, g)
    return T._result(out_vals, (table,), bwd)


def dense_advance(m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam's moment update and parameter decrement, out of place."""
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    return lr * m_hat / (np.sqrt(v_hat) + eps)


class DenseAdam:
    """Adam updating every entry of every parameter on every step."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]
        self.step_count = 0

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            p.values -= dense_advance(m, v, g, t, self.lr, self.beta1,
                                      self.beta2, self.eps)

    def write_rows(self, param, rows, values):
        param.values[rows] = values


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def grads_both_ways(build, values):
    """Gradient of ``build(table, embed)`` through the library's
    ``embedding`` and through the dense reference, on equal tables."""
    out = []
    for embed in (T.embedding, dense_embedding):
        table = T.Tensor(values.copy(), requires_grad=True)
        (g,) = T.grad(build(table, embed), [table])
        out.append(g)
    return out


def weighted(rng, shape):
    return T.Tensor(rng.normal(size=shape))


class TestBackward:
    def test_repeated_indices(self, rng):
        idx = np.array([[4, 0, 4], [7, 4, 0]])
        w = weighted(rng, idx.shape + (3,))
        sparse, dense = grads_both_ways(
            lambda t, emb: T.tsum(T.mul(emb(t, idx), w)), rng.normal(size=(9, 3)))
        assert isinstance(sparse, T.RowSparse)
        assert sparse.rows.tolist() == [0, 4, 7]
        assert same_bits(sparse, dense)

    def test_one_dimensional_table(self, rng):
        idx = rng.integers(0, 40, size=64)
        w = weighted(rng, (64,))
        sparse, dense = grads_both_ways(
            lambda t, emb: T.tsum(T.mul(emb(t, idx), w)), np.zeros(100))
        assert isinstance(sparse, T.RowSparse)
        assert same_bits(sparse, dense)

    @pytest.mark.parametrize("second", [[1, 2, 2, 9], [5, 6, 6]])
    def test_one_table_embedded_twice(self, rng, second):
        # overlapping ([1, 2, 2, 9] shares rows 1, 2 with the first lookup)
        # and disjoint ([5, 6, 6]) index sets
        first, second = np.array([2, 1, 3, 1]), np.array(second)
        w1 = weighted(rng, (first.size, 2))
        w2 = weighted(rng, (second.size, 2))
        sparse, dense = grads_both_ways(
            lambda t, emb: T.add(T.tsum(T.mul(emb(t, first), w1)),
                                 T.tsum(T.mul(emb(t, second), w2))),
            rng.normal(size=(12, 2)))
        assert isinstance(sparse, T.RowSparse)
        assert same_bits(sparse, dense)

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_table_with_a_dense_gradient_too(self, rng, dense_first):
        idx = np.array([3, 3, 0])
        w = weighted(rng, (3, 4))
        w_all = weighted(rng, (6, 4))

        def build(t, emb):
            parts = [T.tsum(T.mul(t, w_all)), T.tsum(T.mul(emb(t, idx), w))]
            return T.add(*(parts if dense_first else parts[::-1]))

        sparse, dense = grads_both_ways(build, rng.normal(size=(6, 4)))
        assert isinstance(sparse, np.ndarray)
        assert same_bits(sparse, dense)

    def test_table_no_larger_than_its_lookups_is_dense(self, rng):
        # four lookups into four rows, one of them never looked up
        idx = np.array([0, 1, 2, 1])
        got, want = grads_both_ways(lambda t, emb: T.tsum(emb(t, idx)),
                                    rng.normal(size=(4, 2)))
        assert isinstance(got, np.ndarray)
        assert same_bits(got, want)

    def test_negative_indices_fold_onto_their_rows(self, rng):
        idx = np.array([-1, 4, 0, -5])
        w = weighted(rng, (4, 2))
        sparse, dense = grads_both_ways(
            lambda t, emb: T.tsum(T.mul(emb(t, idx), w)), rng.normal(size=(6, 2)))
        assert sparse.rows.tolist() == [0, 1, 4, 5]
        assert same_bits(sparse, dense)

    def test_interior_table_gets_a_dense_gradient(self, rng):
        idx = np.array([1, 1])
        w = weighted(rng, (2, 3))
        got = []
        for embed in (T.embedding, dense_embedding):
            leaf = T.Tensor(np.arange(15.0).reshape(5, 3), requires_grad=True)
            loss = T.tsum(T.mul(embed(T.mul(leaf, 2.0), idx), w))
            got.append(T.grad(loss, [leaf])[0])
        assert same_bits(got[0], got[1])


class TestLookupGrad:
    """``lookup_grad`` called directly, against ``np.add.at`` into zeros."""

    @pytest.mark.parametrize("n_rows", [5, 40], ids=["dense", "row_sparse"])
    @pytest.mark.parametrize("lookups", [
        [-1, 3, -5, 0, 3, -1, 4, -2, 0, 1],     # negative indices
        [[2, -3, 2], [0, 0, -1], [4, 1, 2]],    # a 2-d index array
    ], ids=["negative", "two_dim"])
    def test_matches_add_at(self, rng, n_rows, lookups):
        idx = np.asarray(lookups)
        g = rng.normal(size=idx.shape + (3,))
        table = T.Tensor(rng.normal(size=(n_rows, 3)), requires_grad=True)
        T.lookup_grad(table, idx, g)
        want = T.Tensor(table.values, requires_grad=True)
        dense_lookup_grad(want, idx, g)
        assert isinstance(table.grad, T.RowSparse) == (n_rows > idx.size)
        assert same_bits(table.grad, want.grad)

    @pytest.mark.parametrize("n_rows", [4, 64], ids=["dense", "row_sparse"])
    def test_negative_zero_gradients(self, n_rows):
        # a row summing -0.0 lookups, or -0.0 and 0.0, is 0.0 in add.at
        idx = np.array([1, 1, 2, 3, 3])
        g = np.array([[-0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0],
                      [0.0, -0.0], [-0.0, -2.0]])
        table = T.Tensor(np.ones((n_rows, 2)), requires_grad=True)
        T.lookup_grad(table, idx, g)
        want = T.Tensor(table.values, requires_grad=True)
        dense_lookup_grad(want, idx, g)
        assert same_bits(table.grad, want.grad)
        grad = np.asarray(table.grad)
        assert not np.signbit(grad[grad == 0.0]).any()

    @pytest.mark.parametrize("n_rows", [7, 200], ids=["dense", "row_sparse"])
    def test_three_dim_indices_into_a_one_dim_table(self, rng, n_rows):
        idx = rng.integers(-n_rows, n_rows, size=(3, 4, 5))
        g = rng.normal(size=idx.shape)
        table = T.Tensor(rng.normal(size=n_rows), requires_grad=True)
        T.lookup_grad(table, idx, g)
        want = T.Tensor(table.values, requires_grad=True)
        dense_lookup_grad(want, idx, g)
        assert same_bits(table.grad, want.grad)

    def test_an_op_result_table_gets_the_dense_sum(self, rng):
        leaf = T.Tensor(rng.normal(size=(50, 2)), requires_grad=True)
        idx = np.array([[3, -1], [3, 7]])
        g = rng.normal(size=(2, 2, 2))
        got, want = T.mul(leaf, 2.0), T.mul(leaf, 2.0)
        T.lookup_grad(got, idx, g)
        dense_lookup_grad(want, idx, g)
        assert type(got.grad) is np.ndarray
        assert same_bits(got.grad, want.grad)


def sparse_batches():
    """Per-step index sets into an 8-row table: rows {0, 2} at step 1
    only, row 5 at steps 2-5, then the other rows over two sparse steps,
    then eight lookups (a dense gradient), then a few rows again."""
    return ([np.array([0, 2, 2])] + [np.array([5])] * 4
            + [np.array([1, 3, 4]), np.array([6, 7, 7])]
            + [np.arange(8)] + [np.array([1, 6])] * 2)


def run_optimizer(make_opt, embed, steps, seed=3):
    rng = np.random.default_rng(seed)
    table = T.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    other = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
    opt = make_opt([table, other])
    history = []
    for idx in steps:
        w = T.Tensor(rng.normal(size=(idx.size, 3)))
        loss = T.add(T.tsum(T.mul(embed(table, idx), w)), T.tsum(T.mul(other, other)))
        opt.step(T.grad(loss, [table, other]))
        history.append(table.values.copy())
    return table, other, opt, history


ORDER = np.random.default_rng(1).permutation(64)


class TestOptimizers:
    def test_adam_matches_dense_adam(self):
        steps = sparse_batches()
        new = run_optimizer(lambda p: T.Adam(p, lr=0.05), T.embedding, steps)
        ref = run_optimizer(lambda p: DenseAdam(p, lr=0.05), dense_embedding, steps)
        for got, want in zip(new[3], ref[3]):
            assert same_bits(got, want)
        assert same_bits(new[1].values, ref[1].values)
        for i in range(2):
            m, v = new[2].moments(i)
            assert same_bits(m, ref[2].m[i])
            assert same_bits(v, ref[2].v[i])

    def test_absent_rows_keep_moving_and_untouched_rows_stay(self):
        steps = sparse_batches()[:5]
        start = run_optimizer(lambda p: T.Adam(p, lr=0.05), T.embedding, [])[0].values
        table, _, opt, history = run_optimizer(
            lambda p: T.Adam(p, lr=0.05), T.embedding, steps)
        m, v = opt.moments(0)
        # rows 0 and 2 were touched at step 1 only: they still move and
        # their first moment decays by beta1 each later step
        for a, b in zip(history, history[1:]):
            assert np.all(a[[0, 2]] != b[[0, 2]])
        ref_m = run_optimizer(lambda p: DenseAdam(p, lr=0.05), dense_embedding,
                              steps[:1])[2].m[0]
        decayed = ref_m[[0, 2]]
        for _ in range(4):
            decayed = decayed * 0.9
        assert same_bits(m[[0, 2]], decayed)
        # rows never looked up are bit-identical to their initial values
        never = [1, 3, 4, 6, 7]
        assert same_bits(table.values[never], start[never])
        assert not np.any(v[never])

    @pytest.mark.parametrize("t", [1, 50])
    def test_in_place_advance_matches_the_out_of_place_one(self, rng, t):
        m, v, g = rng.normal(size=(3, 300, 16)) * [[[1e-3]], [[1.0]], [[1e2]]]
        v = np.abs(v)
        m[:40] = v[:40] = g[:40] = 0.0
        g[40:60] = 0.0
        want_m, want_v = m.copy(), v.copy()
        want = dense_advance(want_m, want_v, g, t, 3e-3)
        got = T.Adam([], lr=3e-3)._advance(m, v, g, t)
        assert same_bits(got, want)
        assert same_bits(m, want_m) and same_bits(v, want_v)
        assert not np.any(got[:40])

    @pytest.mark.parametrize("shape, steps", [
        # slots in first-touch order 9, 2, 7, 11, 0, 5, 4: not ascending
        ((12, 3), [[9], [2, 7, 7], [11, 0], [5], [7, 2], [4], [9]]),
        # 1, 2, 4, 8, 16, 32 new rows a step, each step outgrowing the slots
        ((64, 2), [ORDER[2 ** k - 1:2 ** (k + 1) - 1] for k in range(6)]
         + [ORDER[:1], ORDER[40:43]]),
        # step 3 touches the last rows: the dense update from then on
        ((6, 2), [[4], [1, 5], [0, 2, 3], [5], [2]]),
        # ten lookups of row 3 give a dense gradient at step 3, while
        # rows 0, 2-6 and 9 are untouched
        ((10, 2), [[7], [1, 8], [3] * 10, [2], [7, 8]]),
        ((20,), [[13], [2, 2, 19], [5], [13, 0]]),
    ], ids=["out_of_order", "slot_growth", "all_rows_touched",
            "dense_after_sparse", "one_dimensional"])
    def test_compact_moments_match_dense_adam(self, shape, steps):
        """A table, and a rank-0 parameter beside it, under Adam and under
        the dense reference: equal bits at every step, equal moments."""
        runs = []
        for make, embed in ((T.Adam, T.embedding), (DenseAdam, dense_embedding)):
            rng = np.random.default_rng(5)
            table = T.Tensor(rng.normal(size=shape), requires_grad=True)
            scalar = T.Tensor(rng.normal(), requires_grad=True)
            opt = make([table, scalar], lr=0.05)
            history = []
            for idx in map(np.asarray, steps):
                w = T.Tensor(rng.normal(size=idx.shape + shape[1:]))
                loss = T.add(T.tsum(T.mul(embed(table, idx), w)),
                             T.mul(T.mul(scalar, scalar), 0.5))
                opt.step(T.grad(loss, [table, scalar]))
                history.append([table.values.copy(), scalar.values.copy()])
            runs.append((opt, history))
        (new, got), (ref, want) = runs
        for a, b in zip(got, want):
            assert same_bits(a[0], b[0]) and same_bits(a[1], b[1])
        for i in range(2):
            m, v = new.moments(i)
            assert same_bits(m, ref.m[i]) and same_bits(v, ref.v[i])

    def test_an_absent_row_takes_the_dense_sign_of_zero(self):
        """Row 5 gets g = -1e-310 once and is absent for 400 steps: its
        first moment decays to -0.0, and the dense update's ``+ 0.0``
        term turns that into +0.0.  At beta1 = 0.9 the moment would not
        reach zero in 400 steps, and ``np.array_equal`` takes -0.0 for
        0.0, so the lower beta1 and ``tobytes``."""
        rng = np.random.default_rng(4)
        start = rng.normal(size=(1000, 4))
        grads = [T.RowSparse(np.array([5, 7]),
                             np.stack([np.full(4, -1e-310), rng.normal(size=4)]),
                             start.shape)]
        grads += [T.RowSparse(np.array([7]), rng.normal(size=(1, 4)), start.shape)
                  for _ in range(400)]
        runs = []
        for make, as_grad in ((T.Adam, lambda g: g), (DenseAdam, np.asarray)):
            table = T.Tensor(start.copy(), requires_grad=True)
            opt = make([table], lr=0.05, beta1=0.3)
            for g in grads:
                opt.step([as_grad(g)])
            runs.append((table.values, opt))
        (got, new), (want, ref) = runs
        assert ref.m[0][5].tobytes() == np.zeros(4).tobytes()
        m, v = new.moments(0)
        assert got.tobytes() == want.tobytes()
        assert m.tobytes() == ref.m[0].tobytes() and v.tobytes() == ref.v[0].tobytes()

    @pytest.mark.parametrize("held", [True, False])
    def test_rows_written_between_steps_are_the_ones_stepped(self, held):
        """``write_rows`` sets rows that steps have touched (held) or not;
        the next steps move them from the written values, as the dense
        reference does."""
        steps = [[1, 4], [4, 6], [2], [1, 6]]
        rows = np.array([4, 6]) if held else np.array([0, 3])
        runs = []
        for make, embed in ((T.Adam, T.embedding), (DenseAdam, dense_embedding)):
            rng = np.random.default_rng(6)
            table = T.Tensor(rng.normal(size=(9, 3)), requires_grad=True)
            opt = make([table], lr=0.05)
            for k, idx in enumerate(map(np.asarray, steps)):
                if k == 2:
                    opt.write_rows(table, rows, rng.normal(size=(2, 3)))
                loss = T.tsum(T.mul(embed(table, idx),
                                    T.Tensor(rng.normal(size=(idx.size, 3)))))
                opt.step(T.grad(loss, [table]))
            runs.append(table.values)
        assert same_bits(runs[0], runs[1])


class TestFlatMoments:
    """Every dense parameter's moments in one flat pair of arrays."""

    SHAPES = [(3, 4), (10, 2), (), (5,), (40, 3), (2, 3, 4)]

    def run(self, make, embed):
        rng = np.random.default_rng(11)
        params = [T.Tensor(rng.normal(size=s), requires_grad=True)
                  for s in self.SHAPES]
        opt = make(params, lr=0.05)
        history = []
        # the 10-row table is looked up on a few rows, then on every row
        # at step 4, when it joins the flat moments; the 40-row one is
        # looked up on a few rows each step
        for step in range(7):
            idx1 = np.arange(10) if step == 3 else rng.integers(0, 10, size=3)
            idx4 = rng.integers(0, 40, size=4)
            loss = T.add(T.tsum(T.mul(embed(params[1], idx1),
                                      T.Tensor(rng.normal(size=(idx1.size, 2))))),
                         T.tsum(T.mul(embed(params[4], idx4),
                                      T.Tensor(rng.normal(size=(4, 3))))))
            for i in (0, 2, 3, 5):
                loss = T.add(loss, T.tsum(T.mul(
                    T.mul(params[i], params[i]),
                    T.Tensor(rng.normal(size=self.SHAPES[i])))))
            opt.step(T.grad(loss, params))
            history.append([p.values.copy() for p in params])
        return opt, history

    def test_matches_dense_adam(self):
        new, got = self.run(T.Adam, T.embedding)
        ref, want = self.run(DenseAdam, dense_embedding)
        assert new._rows[1] is None and new._rows[4] is not None
        for a, b in zip(got, want):
            assert all(same_bits(x, y) for x, y in zip(a, b))
        for i in range(len(self.SHAPES)):
            m, v = new.moments(i)
            assert same_bits(m, ref.m[i]) and same_bits(v, ref.v[i])

    def test_moments_are_copies(self):
        opt, _ = self.run(T.Adam, T.embedding)
        for i in range(len(self.SHAPES)):
            before = [a.copy() for a in opt.moments(i)]
            for a in opt.moments(i):
                a[...] = 7.0
            after = opt.moments(i)
            assert same_bits(after[0], before[0]) and same_bits(after[1], before[1])

    def test_a_refused_step_changes_nothing(self, rng):
        params = [T.Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(3,), (4, 2)]]
        start = [p.values.copy() for p in params]
        opt = T.Adam(params, lr=0.05)
        with pytest.raises(ValueError, match="grad shape"):
            opt.step([np.ones(3), np.ones((2, 4))])
        assert opt.step_count == 0
        assert all(same_bits(p.values, s) for p, s in zip(params, start))


@pytest.fixture(scope="module")
def small_data():
    spec = SyntheticSpec(n_instances=1200, n_items=300, n_users=150, seed=4)
    ds, _ = gen_synthetic(spec)
    train, val = random_split(ds, val_fraction=0.25, seed=1)
    tr, va, _ = encode_features(train, val, ds.schema)
    return tr, va, M.default_groups(ds.schema)


def fits_both_ways(data, path, monkeypatch, hash_buckets):
    """``save_store`` bytes and logs of a raw-id fit (sparse hashed-id and
    user tables) and of the LR baseline, under the library and under the
    dense references."""
    tr, va, groups = data
    cfg = replace(M.StoreConfig(), use_raw_ids=True, hash_buckets=hash_buckets,
                  d=16, batch_size=128, epochs=2, lr=1e-2, seed=0)
    blobs, logs = [], []
    for dense in (False, True):
        with monkeypatch.context() as mp:
            if dense:
                # the token node looks the hashed ids up itself, through
                # T.lookup_grad; the static tables go through T.embedding
                mp.setattr(T, "embedding", dense_embedding)
                mp.setattr(T, "lookup_grad", dense_lookup_grad)
                mp.setattr(T, "Adam", DenseAdam)
            fitted, log = M.fit(tr, va, cfg, groups)
            lr_scores, lr_log = M.train_lr_baseline(tr, va, batch_size=128)
        out = path / f"{dense}.strm"
        M.save_store(out, fitted)
        blobs.append(out.read_bytes())
        logs.append(json.dumps([log, lr_log, lr_scores.tolist()]))
    return blobs, logs


def test_raw_id_fit_matches_the_dense_reference(small_data, tmp_path, monkeypatch):
    """A raw-id fit saves the same bytes and logs the same floats under
    the dense reference."""
    blobs, logs = fits_both_ways(small_data, tmp_path, monkeypatch, 512)
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]


def test_raw_id_fit_on_a_never_filled_table_matches_the_dense_reference(
        small_data, tmp_path, monkeypatch):
    """2^14 buckets for 300 items: the hashed-id table's moments stay
    compact for the whole fit, and it still matches the dense reference."""
    blobs, logs = fits_both_ways(small_data, tmp_path, monkeypatch, 1 << 14)
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]
