"""Gradient and semantics checks for the autodiff core."""

import numpy as np
import pytest

from storerank import tensor as T
from oracles import fd_grad, max_rel_err


def check_grads(build, leaves, tol=1e-6):
    loss = build()
    got = T.grad(loss, leaves)
    want = fd_grad(build, leaves)
    for g, fd in zip(got, want):
        assert max_rel_err(g, fd) < tol


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestElementwise:
    def test_add_sub_mul(self, rng):
        a, b = leaf(rng, (2, 3)), leaf(rng, (2, 3))
        check_grads(lambda: T.tsum(T.mul(T.add(a, b), T.sub(a, b))), [a, b])

    def test_scalar_variants(self, rng):
        a = leaf(rng, (3,))
        check_grads(lambda: T.tsum((a * 2.5 + 1.0 - 0.25) * a), [a])

    def test_shape_mismatch_rejected(self, rng):
        a, b = leaf(rng, (2, 3)), leaf(rng, (3, 2))
        for op in (T.add, T.sub, T.mul):
            with pytest.raises(ValueError):
                op(a, b)

    def test_pow_exp_log(self, rng):
        a = leaf(rng, (4,), lo=0.5, hi=1.5)
        check_grads(lambda: T.tsum(T.log(T.exp(T.power(a, 3.0)))), [a])
        check_grads(lambda: T.tsum(T.power(a, -0.5)), [a])

    def test_tanh_sigmoid(self, rng):
        a = leaf(rng, (2, 4))
        check_grads(lambda: T.tsum(T.tanh(a)), [a])
        check_grads(lambda: T.tsum(T.sigmoid(a)), [a])

    def test_sigmoid_stable_in_tails(self):
        big = T.Tensor([800.0, -800.0])
        out = T.sigmoid(big).values
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0) and out[1] == pytest.approx(0.0)

    def test_clip_masks_gradient(self):
        a = T.Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        loss = T.tsum(T.clip(a, -1.0, 1.0))
        (g,) = T.grad(loss, [a])
        assert np.array_equal(g, [0.0, 1.0, 0.0])


class TestShapes:
    def test_reshape(self, rng):
        a = leaf(rng, (2, 6))
        w = T.Tensor(rng.normal(size=(3, 4)))
        check_grads(lambda: T.tsum(T.mul(T.reshape(a, (3, 4)), w)), [a])

    def test_broadcast_to_sums_backward(self, rng):
        a = leaf(rng, (3,))
        w = T.Tensor(rng.normal(size=(4, 3)))
        check_grads(lambda: T.tsum(T.mul(T.broadcast_to(a, (4, 3)), w)), [a])
        loss = T.tsum(T.broadcast_to(a, (4, 3)))
        (g,) = T.grad(loss, [a])
        assert np.array_equal(g, np.full(3, 4.0))

    def test_transpose_last(self, rng):
        a = leaf(rng, (2, 3, 4))
        w = T.Tensor(rng.normal(size=(2, 4, 3)))
        check_grads(lambda: T.tsum(T.mul(T.transpose_last(a), w)), [a])

    def test_narrow_concat_roundtrip(self, rng):
        a = leaf(rng, (5, 4))
        parts = [T.narrow(a, 0, 0, 2), T.narrow(a, 0, 2, 3)]
        back = T.concat(parts, axis=0)
        assert np.array_equal(back.values, a.values)
        w = T.Tensor(rng.normal(size=(5, 4)))
        check_grads(lambda: T.tsum(T.mul(T.concat(
            [T.narrow(a, 0, 0, 2), T.narrow(a, 0, 2, 3)], axis=0), w)), [a])

    def test_embedding_accumulates_repeats(self, rng):
        table = leaf(rng, (5, 3))
        idx = np.array([0, 2, 0])
        w = T.Tensor(rng.normal(size=(3, 3)))
        check_grads(lambda: T.tsum(T.mul(T.embedding(table, idx), w)), [table])
        (g,) = T.grad(T.tsum(T.embedding(table, idx)), [table])
        assert np.array_equal(np.asarray(g)[0], np.full(3, 2.0))
        assert np.array_equal(np.asarray(g)[1], np.zeros(3))

    def test_embedding_rejects_floats(self, rng):
        with pytest.raises(ValueError):
            T.embedding(leaf(rng, (5, 3)), np.array([0.0, 1.0]))

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            T.Tensor(np.zeros((2, 2, 2, 2)))


class TestMatmul:
    def test_2d_2d(self, rng):
        a, b = leaf(rng, (3, 4)), leaf(rng, (4, 2))
        check_grads(lambda: T.tsum(T.matmul(a, b)), [a, b])

    def test_3d_3d(self, rng):
        a, b = leaf(rng, (2, 3, 4)), leaf(rng, (2, 4, 5))
        w = T.Tensor(rng.normal(size=(2, 3, 5)))
        check_grads(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    def test_3d_2d(self, rng):
        a, b = leaf(rng, (2, 3, 4)), leaf(rng, (4, 5))
        w = T.Tensor(rng.normal(size=(2, 3, 5)))
        check_grads(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    def test_bad_operands_rejected(self, rng):
        with pytest.raises(ValueError):
            T.matmul(leaf(rng, (3,)), leaf(rng, (3, 2)))
        with pytest.raises(ValueError):
            T.matmul(leaf(rng, (3, 4)), leaf(rng, (5, 2)))
        with pytest.raises(ValueError):
            T.matmul(leaf(rng, (2, 3, 4)), leaf(rng, (3, 4, 5)))


class TestReductions:
    def test_sum_axes(self, rng):
        a = leaf(rng, (3, 4))
        check_grads(lambda: T.tsum(a), [a])
        w0 = T.Tensor(rng.normal(size=(4,)))
        check_grads(lambda: T.tsum(T.mul(T.tsum(a, axis=0), w0)), [a])
        w1 = T.Tensor(rng.normal(size=(3, 1)))
        check_grads(lambda: T.tsum(T.mul(T.tsum(a, axis=1, keepdims=True), w1)), [a])

    def test_mean(self, rng):
        a = leaf(rng, (3, 4))
        check_grads(lambda: T.tmean(T.power(a, 2.0)), [a])
        assert T.tmean(a).item() == pytest.approx(a.values.mean())


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = leaf(rng, (5, 7), lo=-3, hi=3)
        p = T.softmax(x).values
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-9

    def test_grad_matches_fd(self, rng):
        x = leaf(rng, (3, 5))
        w = T.Tensor(rng.normal(size=(3, 5)))
        check_grads(lambda: T.tsum(T.mul(T.softmax(x), w)), [x])

    def test_sum_of_softmax_is_constant(self, rng):
        # rows sum to 1 up to rounding, so the gradient is zero up to rounding
        x = leaf(rng, (4, 6), lo=-2, hi=2)
        (g,) = T.grad(T.tsum(T.softmax(x)), [x])
        assert np.max(np.abs(g)) < 1e-12

    def test_additive_mask(self):
        x = T.Tensor([[1.0, 2.0, 3.0]])
        mask = T.Tensor([[0.0, -np.inf, 0.0]])
        p = T.softmax(T.add(x, mask)).values
        assert p[0, 1] == 0.0
        assert p[0, 0] + p[0, 2] == pytest.approx(1.0)

    def test_fully_masked_row_rejected(self):
        x = T.Tensor([[-np.inf, -np.inf]])
        with pytest.raises(FloatingPointError):
            T.softmax(x)


class TestLayerNorm:
    def test_already_normalized_row(self):
        x = T.Tensor([[1.0, -1.0]])
        out = T.layer_norm(x, T.Tensor([1.0, 1.0]), T.Tensor([0.0, 0.0]), eps=1e-12)
        assert np.allclose(out.values, [[1.0, -1.0]], atol=1e-9)

    def test_constant_row_maps_to_beta(self):
        x = T.Tensor([[5.0, 5.0, 5.0]])
        beta = T.Tensor([0.3, -0.1, 0.0])
        out = T.layer_norm(x, T.Tensor(np.ones(3)), beta)
        assert np.allclose(out.values, beta.values, atol=1e-9)

    def test_row_mean_zero(self, rng):
        x = leaf(rng, (4, 8))
        out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)))
        assert np.max(np.abs(out.values.mean(axis=-1))) < 1e-6

    def test_grad_matches_fd(self, rng):
        x = leaf(rng, (4, 8))
        gamma = leaf(rng, (8,), lo=0.5, hi=1.5)
        beta = leaf(rng, (8,))
        w = T.Tensor(rng.normal(size=(4, 8)))
        check_grads(lambda: T.tsum(T.mul(T.layer_norm(x, gamma, beta), w)),
                    [x, gamma, beta])

    def test_bad_affine_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            T.layer_norm(leaf(rng, (4, 8)), leaf(rng, (4,)), leaf(rng, (8,)))


class TestStopGradient:
    def test_identity_forward(self):
        x = T.Tensor([1.5, -2.0], requires_grad=True)
        assert np.array_equal(T.stop_gradient(x).values, [1.5, -2.0])

    def test_straight_through(self, rng):
        z, s = leaf(rng, (4,)), leaf(rng, (4,))
        w = T.Tensor(rng.normal(size=(4,)))
        y = T.add(z, T.stop_gradient(T.sub(s, z)))
        gz, gs = T.grad(T.tsum(T.mul(y, w)), [z, s])
        assert np.array_equal(gz, w.values)
        assert np.array_equal(gs, np.zeros(4))

    def test_matches_constant_branch(self, rng):
        z = leaf(rng, (5,))
        inner = np.tanh(z.values) * 2.0

        def with_sg():
            g = T.mul(T.tanh(z), 2.0)
            return T.tsum(T.power(T.add(z, T.stop_gradient(g)), 2.0))

        def with_const():
            return T.tsum(T.power(T.add(z, T.Tensor(inner)), 2.0))

        (g_sg,) = T.grad(with_sg(), [z])
        (g_const,) = T.grad(with_const(), [z])
        assert np.array_equal(g_sg, g_const)


class TestGradApi:
    def test_nonscalar_loss_rejected(self, rng):
        a = leaf(rng, (3,))
        with pytest.raises(ValueError):
            T.grad(T.mul(a, 2.0), [a])

    def test_param_outside_graph_rejected(self, rng):
        a, b = leaf(rng, (3,)), leaf(rng, (3,))
        with pytest.raises(ValueError):
            T.grad(T.tsum(a), [a, b])

    def test_non_leaf_flag_rejected(self, rng):
        a = leaf(rng, (3,))
        c = T.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            T.grad(T.tsum(T.mul(a, c)), [a, c])

    def test_square_at_three(self):
        x = T.Tensor(3.0, requires_grad=True)
        (g,) = T.grad(T.mul(x, x), [x])
        assert g == pytest.approx(6.0)

    def test_graph_reusable(self, rng):
        a = leaf(rng, (3, 3))
        loss = T.tsum(T.power(a, 2.0))
        first = T.grad(loss, [a])[0].copy()
        second = T.grad(loss, [a])[0]
        assert np.array_equal(first, second)

    def test_one_array_handed_to_two_parameters_is_returned_twice_apart(self, rng):
        # add's backward hands one array to both parents
        a, b = leaf(rng, (3, 2)), leaf(rng, (3, 2))
        w = T.Tensor(rng.normal(size=(3, 2)))
        grads = T.grad(T.tsum(T.mul(T.add(a, b), w)), [a, b])
        assert grads[0] is not grads[1]
        assert np.array_equal(grads[0], w.values)
        grads[0] *= 2.0
        assert np.array_equal(grads[1], w.values)

    def test_a_view_handed_over_is_returned_as_an_array_of_its_own(self, rng):
        # tsum's backward hands over a read-only broadcast of one scalar
        a = leaf(rng, (3, 2))
        (g,) = T.grad(T.tsum(a), [a])
        g[0, 0] = 5.0
        assert g.tolist() == [[5.0, 1.0], [1.0, 1.0], [1.0, 1.0]]


class TestOptimizers:
    def test_sgd_rule(self):
        p = T.Tensor(1.0, requires_grad=True)
        T.SGD([p], lr=0.1).step([np.asarray(2.0)])
        assert p.values == pytest.approx(0.8)

    def test_zero_grad_is_noop(self):
        for make in (lambda ps: T.SGD(ps, lr=0.1), lambda ps: T.Adam(ps, lr=0.1)):
            p = T.Tensor([1.0, -2.0], requires_grad=True)
            before = p.values.copy()
            make([p]).step([np.zeros(2)])
            assert np.array_equal(p.values, before)

    def test_shape_mismatch_rejected(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.SGD([p]).step([np.zeros(3)])
        with pytest.raises(ValueError):
            T.Adam([p]).step([np.zeros(3)])

    def test_adam_matches_reference(self, rng):
        vals = rng.normal(size=(3,))
        p = T.Tensor(vals.copy(), requires_grad=True)
        opt = T.Adam([p], lr=0.01)
        ref = vals.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 4):
            g = rng.normal(size=(3,))
            opt.step([g])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert np.allclose(p.values, ref, atol=1e-15)

    def test_training_is_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            x = T.Tensor(rng.normal(size=(8, 4)))
            opt = T.Adam([w], lr=0.05)
            for _ in range(5):
                loss = T.tmean(T.power(T.matmul(x, w), 2.0))
                opt.step(T.grad(loss, [w]))
            return w.values

        assert np.array_equal(run(), run())


class TestMlpGradcheck:
    def test_two_layer_mlp_matches_fd(self, rng):
        x = T.Tensor(rng.uniform(-1, 1, size=(4, 5)))
        y = T.Tensor(rng.uniform(0, 1, size=(4, 3)))
        w1, b1 = leaf(rng, (5, 8)), leaf(rng, (8,))
        w2, b2 = leaf(rng, (8, 3)), leaf(rng, (3,))

        def build():
            h = T.tanh(T.add(T.matmul(x, w1),
                             T.broadcast_to(T.reshape(b1, (1, 8)), (4, 8))))
            out = T.add(T.matmul(h, w2),
                        T.broadcast_to(T.reshape(b2, (1, 3)), (4, 3)))
            return T.tmean(T.power(T.sub(out, y), 2.0))

        check_grads(build, [w1, b1, w2, b2], tol=1e-6)

    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    def test_mlp_matches_fd(self, rng, activation):
        x = leaf(rng, (4, 5))
        y = T.Tensor(rng.uniform(0, 1, size=(4, 3)))
        layer = (leaf(rng, (5, 8)), leaf(rng, (8,)), leaf(rng, (8, 3)), leaf(rng, (3,)))

        def build():
            return T.tmean(T.power(T.sub(T.mlp(x, layer, activation), y), 2.0))

        check_grads(build, [x, *layer], tol=1e-6)

    def test_mlp_rejects_an_unknown_activation(self, rng):
        layer = (leaf(rng, (2, 2)), leaf(rng, (2,)), leaf(rng, (2, 2)), leaf(rng, (2,)))
        with pytest.raises(ValueError, match="unknown activation"):
            T.mlp(leaf(rng, (1, 2)), layer, "relu")
