"""Feature-group fusion and orthogonal rotation bank checks."""

import numpy as np
import pytest
from scipy.stats import ortho_group

from storerank import rotation as R
from storerank import tensor as T
from oracles import fd_grad, max_rel_err


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
