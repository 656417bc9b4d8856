"""Feature-group fusion and orthogonal rotation bank checks.

``graph_diversity_penalty`` is the per-pair graph (per pair a sub, a mul
and a tsum, an add chain, then the scale by -lam) that
``diversity_penalty`` runs as one node.  The node claims the same
arithmetic, so its value, every gradient and whole fits down to the
bytes of a saved model and its log are compared with exact equality.
"""

import numpy as np
import pytest
from scipy.stats import ortho_group

from storerank import model as M
from storerank import rotation as R
from storerank import tensor as T
from oracles import fd_grad, max_rel_err
from test_exact_layer import _fit_bytes, _partitions, _sids, same_bits


def graph_diversity_penalty(bank):
    """``R.diversity_penalty`` as the per-pair graph."""
    if bank.k < 2:
        return T.Tensor(0.0)
    total = None
    for i in range(bank.k):
        for j in range(i + 1, bank.k):
            d = T.sub(bank.mats[i], bank.mats[j])
            sq = T.tsum(T.mul(d, d))
            total = sq if total is None else T.add(total, sq)
    return T.mul(total, -bank.lam)


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def one_group_config(d_g=2, emb_dim=2):
    return R.GroupConfig(groups=(R.FeatureGroup("a", ("f1",), emb_dim=emb_dim),), d_g=d_g)


class TestGroupConfig:
    def test_duplicate_feature_rejected(self):
        with pytest.raises(ValueError):
            R.GroupConfig(groups=(R.FeatureGroup("a", ("f1", "f2")),
                                  R.FeatureGroup("b", ("f2",))), d_g=4)

    def test_partition_check(self):
        cfg = R.GroupConfig(groups=(R.FeatureGroup("a", ("f1",)),), d_g=4)
        with pytest.raises(ValueError):
            cfg.check_partition(["f1", "f2"])
        with pytest.raises(ValueError):
            cfg.check_partition([])
        cfg.check_partition(["f1"])

    def test_d_c(self):
        cfg = R.GroupConfig(groups=(R.FeatureGroup("a", ("f1",)),
                                    R.FeatureGroup("b", ("f2", "f3"))), d_g=5)
        assert cfg.d_c == 10


class TestGroupFuser:
    def test_identity_mlp(self, rng):
        cfg = one_group_config()
        fuser = R.GroupFuser(cfg, rng)
        w1, b1, w2, b2 = fuser.layers[0]
        w1.values = np.hstack([np.eye(2), np.zeros((2, 2))])
        b1.values = np.zeros(4)
        w2.values = np.vstack([np.eye(2), np.zeros((2, 2))])
        b2.values = np.zeros(2)
        c = fuser.fuse_groups({"f1": T.Tensor([[0.5, -0.5]])})
        assert np.allclose(c.values, np.tanh([[0.5, -0.5]]), atol=1e-12)

    def test_two_groups_concatenate(self, rng):
        cfg = R.GroupConfig(groups=(R.FeatureGroup("a", ("f1",), emb_dim=3),
                                    R.FeatureGroup("b", ("f2", "f3"), emb_dim=3)),
                            d_g=2)
        fuser = R.GroupFuser(cfg, rng)
        feats = {f: T.Tensor(rng.normal(size=(4, 3))) for f in ("f1", "f2", "f3")}
        c = fuser.fuse_groups(feats)
        assert c.shape == (4, 4)

    def test_group_locality(self, rng):
        cfg = R.GroupConfig(groups=(R.FeatureGroup("a", ("f1",), emb_dim=3),
                                    R.FeatureGroup("b", ("f2",), emb_dim=3)),
                            d_g=2)
        fuser = R.GroupFuser(cfg, rng)
        feats = {f: T.Tensor(rng.normal(size=(4, 3))) for f in ("f1", "f2")}
        base = fuser.fuse_groups(feats).values
        feats["f2"] = T.Tensor(feats["f2"].values + rng.normal(size=(4, 3)))
        bumped = fuser.fuse_groups(feats).values
        assert np.array_equal(base[:, :2], bumped[:, :2])
        assert not np.array_equal(base[:, 2:], bumped[:, 2:])

    def test_missing_feature_rejected(self, rng):
        fuser = R.GroupFuser(one_group_config(), rng)
        with pytest.raises(ValueError):
            fuser.fuse_groups({"wrong": T.Tensor(np.zeros((1, 2)))})

    def test_grad_matches_fd(self, rng):
        cfg = R.GroupConfig(groups=(R.FeatureGroup("a", ("f1",), emb_dim=2),
                                    R.FeatureGroup("b", ("f2",), emb_dim=2)),
                            d_g=2)
        fuser = R.GroupFuser(cfg, rng)
        feats = {f: T.Tensor(rng.uniform(-1, 1, size=(3, 2))) for f in ("f1", "f2")}
        w = T.Tensor(rng.normal(size=(3, 4)))

        def build():
            return T.tsum(T.mul(fuser.fuse_groups(feats), w))

        params = [p for layer in fuser.layers for p in layer]
        got = T.grad(build(), params)
        want = fd_grad(build, params)
        for g, fd in zip(got, want):
            assert max_rel_err(g, fd) < 1e-6


class TestRandomOrthogonal:
    def test_dim_one(self):
        m = R.random_orthogonal(1, seed=0)
        assert m.shape == (1, 1) and abs(abs(m[0, 0]) - 1.0) < 1e-12

    def test_orthogonal_dim_32(self):
        m = R.random_orthogonal(32, seed=5)
        assert np.linalg.norm(m.T @ m - np.eye(32)) < 1e-6

    def test_deterministic(self):
        assert np.array_equal(R.random_orthogonal(8, seed=3), R.random_orthogonal(8, seed=3))


class TestProjectOrthogonal:
    def test_fixed_point(self):
        q = R.random_orthogonal(6, seed=1)
        assert np.linalg.norm(R.project_orthogonal(q) - q) < 1e-6

    def test_strips_scale(self):
        assert np.allclose(R.project_orthogonal(2.0 * np.eye(4)), np.eye(4), atol=1e-12)

    def test_polar_factor_is_nearest(self, rng):
        m = rng.normal(size=(8, 8)) + 3.0 * np.eye(8)
        r = R.project_orthogonal(m)
        assert np.linalg.norm(r.T @ r - np.eye(8)) < 1e-6
        best = np.linalg.norm(m - r)
        for _ in range(1000):
            q = ortho_group.rvs(8, random_state=rng)
            assert best <= np.linalg.norm(m - q) + 1e-12

    def test_rank_deficient_rejected(self):
        m = np.ones((3, 3))
        with pytest.raises(ValueError):
            R.project_orthogonal(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            R.project_orthogonal(np.zeros((2, 3)))


class TestRotate:
    def test_identity_rotation(self, rng):
        bank = R.RotationBank(k=1, dim=3, seed=0)
        bank.mats[0].values = np.eye(3)
        c = T.Tensor(rng.normal(size=(5, 3)))
        assert np.array_equal(R.rotate(c, bank, 0).values, c.values)

    def test_quarter_turn(self):
        bank = R.RotationBank(k=1, dim=2, seed=0)
        bank.mats[0].values = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = R.rotate(T.Tensor([[1.0, 0.0]]), bank, 0)
        assert np.allclose(out.values, [[0.0, 1.0]], atol=1e-12)

    def test_norm_preserved(self, rng):
        bank = R.RotationBank(k=4, dim=16, seed=2)
        c = T.Tensor(rng.normal(size=(50, 16)))
        norms = np.linalg.norm(c.values, axis=1)
        for i in range(bank.k):
            out = R.rotate(c, bank, i).values
            assert np.max(np.abs(np.linalg.norm(out, axis=1) - norms)) < 1e-5

    def test_index_bounds(self, rng):
        bank = R.RotationBank(k=2, dim=4, seed=0)
        c = T.Tensor(rng.normal(size=(1, 4)))
        for bad in (-1, 2):
            with pytest.raises(ValueError):
                R.rotate(c, bank, bad)


class TestDiversityPenalty:
    def test_single_rotation_is_zero(self):
        assert R.diversity_penalty(R.RotationBank(k=1, dim=4, seed=0)).item() == 0.0

    def test_collapse_is_zero(self):
        bank = R.RotationBank(k=2, dim=4, seed=0)
        bank.mats[1].values = bank.mats[0].values.copy()
        assert R.diversity_penalty(bank).item() == 0.0

    def test_known_value(self):
        bank = R.RotationBank(k=2, dim=2, seed=0, lam=0.1)
        bank.mats[0].values = np.eye(2)
        bank.mats[1].values = np.diag([1.0, -1.0])
        assert R.diversity_penalty(bank).item() == pytest.approx(-0.4, abs=1e-12)

    def test_never_positive(self, rng):
        for seed in range(5):
            bank = R.RotationBank(k=3, dim=5, seed=seed)
            assert R.diversity_penalty(bank).item() <= 0.0

    def test_grad_matches_fd(self):
        bank = R.RotationBank(k=3, dim=3, seed=4)
        got = T.grad(R.diversity_penalty(bank), bank.mats)
        want = fd_grad(lambda: R.diversity_penalty(bank), bank.mats)
        for g, fd in zip(got, want):
            assert max_rel_err(g, fd) < 1e-6


def penalty_run(penalty, bank, first_part):
    """The penalty's value and, when there is a graph to differentiate,
    every rotation's gradient.  With ``first_part`` each rotation first
    takes a gradient from a rotated block, as the token node gives it in
    a fit: ``add(task, penalty)`` runs the task's backward first."""
    div = penalty(bank)
    if not first_part:
        return div.values, (T.grad(div, bank.mats) if bank.k > 1 else [])
    c = np.cos(np.arange(5 * bank.dim)).reshape(5, bank.dim)
    task = None
    for i in range(bank.k):
        part = T.tsum(T.mul(R.rotate(T.Tensor(c), bank, i), T.Tensor(c[::-1] * (i + 1))))
        task = part if task is None else T.add(task, part)
    return div.values, T.grad(T.add(task, div), bank.mats)


class TestDiversityNode:
    @pytest.mark.parametrize("first_part", [False, True], ids=["alone", "after_part"])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 2.5])
    @pytest.mark.parametrize("k, dim", [(1, 3), (2, 8), (3, 32), (5, 3), (8, 8), (32, 32)])
    def test_node_is_the_per_pair_graph_bit_for_bit(self, k, dim, lam, first_part):
        bank = R.RotationBank(k=k, dim=dim, seed=k + dim, lam=lam)
        # off the manifold too, so no pair difference is special
        for i, m in enumerate(bank.mats):
            m.values = m.values + np.sin(np.arange(dim * dim) + i).reshape(dim, dim)
        got = penalty_run(R.diversity_penalty, bank, first_part)
        want = penalty_run(graph_diversity_penalty, bank, first_part)
        assert same_bits(got[0], want[0])
        assert len(got[1]) == len(want[1]) == (k if first_part or k > 1 else 0)
        for g, w in zip(got[1], want[1]):
            assert g.strides == w.strides and same_bits(g, w)

    def test_node_has_the_rotations_as_parents(self):
        bank = R.RotationBank(k=4, dim=3, seed=0)
        div = R.diversity_penalty(bank)
        assert list(div._parents) == bank.mats
        assert len(T._toposort(div)) == bank.k + 1
        assert len(T._toposort(graph_diversity_penalty(bank))) == bank.k + 4 * 6


STEP_CONFIGS = {
    # the sid_public workload's model
    "sid_public": dict(h=3, v=16, lr=3e-3, batch_size=512, epochs=2, seed=0),
    "h8": dict(h=8, v=8, d=16, d_s=8, lr=3e-3, batch_size=128, epochs=2, seed=0),
}


@pytest.mark.parametrize("name", sorted(STEP_CONFIGS))
def test_fit_with_the_node_writes_the_per_pair_bytes(name, tmp_path, monkeypatch):
    cfg = M.StoreConfig(**STEP_CONFIGS[name])
    with monkeypatch.context() as mp:
        got = _fit_bytes(tmp_path, "new", cfg, mp)
    with monkeypatch.context() as mp:
        mp.setattr(M, "diversity_penalty", graph_diversity_penalty)
        want = _fit_bytes(tmp_path, "ref", cfg, mp)
    assert got[0] == want[0]
    assert got[1] == want[1]
    # the reference really ran the per-pair graph: 4 nodes per pair
    # where the library runs one node
    pairs = cfg.h * (cfg.h - 1) // 2
    assert want[2] == got[2] + 4 * pairs - 1


@pytest.mark.parametrize("h", [3, 8])
def test_a_step_graph_does_not_grow_with_k(h):
    ds, table, tr, _ = _partitions()
    cfg = M.StoreConfig(h=h)
    model = M.StoreModel(cfg, M.default_groups(ds.schema), tr.vocab_sizes,
                         sid_table=_sids(table, cfg))
    inputs = M.slice_inputs(M.prepare_inputs(model, tr), np.arange(64))
    loss = M.total_loss(model, inputs, inputs["labels"])[0]
    # fuser MLPs, tokens, per layer attention and residual norm, the
    # readout, the loss, the penalty and the total
    assert sum(1 for t in T._toposort(loss) if t._parents) == 20


class TestRotationStep:
    def test_zero_gradient_is_noop(self):
        bank = R.RotationBank(k=2, dim=4, seed=1)
        before = [m.values.copy() for m in bank.mats]
        R.rotation_step(bank, [np.zeros((4, 4)), np.zeros((4, 4))])
        for b, m in zip(before, bank.mats):
            assert np.array_equal(b, m.values)

    def test_orthogonality_restored(self, rng):
        bank = R.RotationBank(k=3, dim=8, seed=1)
        grads = [rng.normal(size=(8, 8)) for _ in range(3)]
        R.rotation_step(bank, grads, lr=0.5)
        assert max(bank.orthogonality_errors()) < 1e-6

    def test_diversity_only_training_spreads_bank(self):
        bank = R.RotationBank(k=3, dim=3, seed=7)
        prev = bank.pairwise_distance()
        for _ in range(20):
            grads = T.grad(R.diversity_penalty(bank), bank.mats)
            R.rotation_step(bank, grads, lr=0.05)
            cur = bank.pairwise_distance()
            assert cur >= prev - 1e-12
            prev = cur

    def test_grad_count_mismatch_rejected(self):
        bank = R.RotationBank(k=2, dim=4, seed=0)
        with pytest.raises(ValueError):
            R.rotation_step(bank, [np.zeros((4, 4))])
