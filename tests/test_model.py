"""Token assembly, the attention stack, losses, training loop, baseline."""

import numpy as np
import pytest

from oracles import fd_grad, max_rel_err

from storerank import attention as A
from storerank import model as M
from storerank import tensor as T
from storerank.data import (
    Dataset,
    DatasetSchema,
    SyntheticSpec,
    encode_features,
    gen_synthetic,
    random_split,
)
from storerank.model import (
    StoreConfig,
    StoreModel,
    bce_loss,
    default_groups,
    evaluate,
    fit,
    flops_ratio,
    load_store,
    model_flops,
    predict,
    prepare_inputs,
    save_store,
    slice_inputs,
    total_loss,
    train_lr_baseline,
)
from storerank.rotation import FeatureGroup, GroupConfig
from storerank.tokenizer import SidTable


def tiny_groups(names=("user_id",), emb_dim=2, d_g=2):
    return GroupConfig((FeatureGroup("g0", tuple(names), emb_dim),), d_g)


def tiny_inputs(rng, n, vocab_sizes, h, v, groups):
    """Random integer index arrays shaped like prepare_inputs output."""
    return {
        "static": {f: rng.integers(vocab_sizes[f], size=n)
                   for grp in groups.groups for f in grp.features},
        "sid": rng.integers(v, size=(n, h)),
        "labels": rng.integers(2, size=n).astype(np.float64),
    }


def tiny_model(h=2, v=4, d_s=2, d=4, n_layers=1, n_heads=2, rho=0.5, seed=0,
               groups=None, vocab=None, **kw):
    groups = groups or tiny_groups()
    vocab = vocab or {"user_id": 3}
    cfg = StoreConfig(h=h, v=v, d_s=d_s, d=d, n_layers=n_layers,
                      n_heads=n_heads, block_size=1, rho=rho, seed=seed, **kw)
    ids = [str(i) for i in range(6)]
    codes = np.random.default_rng(seed + 1).integers(v, size=(6, h))
    return StoreModel(cfg, groups, vocab, sid_table=SidTable(ids, codes, v)), cfg


class TestStoreConfig:
    def test_defaults_valid(self):
        cfg = StoreConfig()
        assert cfg.h == 3 and cfg.v == 16 and cfg.n_layers == 2

    @pytest.mark.parametrize("kw", [
        dict(h=0), dict(n_layers=0), dict(d=6, n_heads=4), dict(rho=0.0),
        dict(rho=1.5), dict(lr=0.0), dict(rot_lr=-1.0), dict(lam=-0.1),
        dict(batch_size=0), dict(epochs=0), dict(block_size=0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            StoreConfig(**kw)


class TestConstruction:
    def test_requires_sid_table_or_raw_flag(self):
        with pytest.raises(ValueError, match="no SID table"):
            StoreModel(StoreConfig(), tiny_groups(), {"user_id": 3})

    def test_raw_flag_and_table_conflict(self):
        table = SidTable(["0"], np.zeros((1, 3), dtype=np.int64), 16)
        with pytest.raises(ValueError, match="mutually exclusive"):
            StoreModel(StoreConfig(use_raw_ids=True), tiny_groups(),
                       {"user_id": 3}, sid_table=table)

    def test_sid_count_must_match_h(self):
        table = SidTable(["0"], np.zeros((1, 2), dtype=np.int64), 16)
        with pytest.raises(ValueError, match="K=2"):
            StoreModel(StoreConfig(h=3), tiny_groups(), {"user_id": 3},
                       sid_table=table)

    def test_sid_vocab_must_match_v(self):
        table = SidTable(["0"], np.zeros((1, 3), dtype=np.int64), 8)
        with pytest.raises(ValueError, match="V=8"):
            StoreModel(StoreConfig(h=3, v=16), tiny_groups(), {"user_id": 3},
                       sid_table=table)

    def test_missing_vocab_size(self):
        with pytest.raises(ValueError, match="user_id"):
            StoreModel(StoreConfig(use_raw_ids=True), tiny_groups(), {})

    def test_default_groups_partition(self):
        schema = DatasetSchema([
            ("click", "label"), ("item_id", "high_cardinality_item"),
            ("user_id", "group_key"), ("f0", "static"), ("f1", "static"),
        ])
        groups = default_groups(schema)
        assert groups.feature_names() == ["user_id", "f0", "f1"]
        groups.check_partition(["user_id", "f0", "f1"])

    def test_raw_and_sid_variants_share_everything_else(self):
        groups = tiny_groups()
        cfg = StoreConfig(h=2, v=4, d_s=2, d=4, n_heads=2, seed=0)
        table = SidTable(["0"], np.zeros((1, 2), dtype=np.int64), 4)
        m_sid = StoreModel(cfg, groups, {"user_id": 3}, sid_table=table)
        m_raw = StoreModel(StoreConfig(h=2, v=4, d_s=2, d=4, n_heads=2,
                                       seed=0, use_raw_ids=True),
                           groups, {"user_id": 3})
        assert np.array_equal(m_sid.proj_w.values, m_raw.proj_w.values)
        assert np.array_equal(m_sid.layers[0].wq.values, m_raw.layers[0].wq.values)


class TestBuildTokens:
    def test_identity_projection_single_token(self):
        # with d = d_s + d_c and an identity projection the token is
        # literally [s_1 ; C R_1]
        groups = GroupConfig((FeatureGroup("g0", ("user_id",), 2),), 5)
        cfg = StoreConfig(h=1, v=4, d_s=3, d=8, n_heads=1, n_layers=1, seed=2)
        table = SidTable([str(i) for i in range(4)],
                         np.arange(4, dtype=np.int64).reshape(4, 1), 4)
        m = StoreModel(cfg, groups, {"user_id": 5}, sid_table=table)
        m.proj_w.values = np.eye(8)
        rng = np.random.default_rng(0)
        inputs = {"static": {"user_id": rng.integers(5, size=6)},
                  "sid": rng.integers(4, size=(6, 1))}
        toks = m.build_tokens(inputs).values
        s = m.sid_tables[0].values[inputs["sid"][:, 0]]
        c = m.static_block(inputs).values
        want = np.hstack([s, c @ m.bank.mats[0].values])
        assert toks.shape == (6, 1, 8)
        assert np.allclose(toks[:, 0, :], want, atol=1e-12)

    def test_changing_one_code_touches_one_token(self):
        m, cfg = tiny_model(h=3, v=4, n_heads=1)
        rng = np.random.default_rng(3)
        inputs = tiny_inputs(rng, 4, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        base = m.build_tokens(inputs).values
        for pos in range(cfg.h):
            bumped = {**inputs, "sid": inputs["sid"].copy()}
            bumped["sid"][0, pos] = (bumped["sid"][0, pos] + 1) % cfg.v
            toks = m.build_tokens(bumped).values
            changed = ~np.isclose(toks, base, atol=0).all(axis=2)
            assert changed[0, pos]
            changed[0, pos] = False
            assert not changed.any()

    def test_shapes_across_random_configs(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = int(rng.integers(1, 6))
            n_heads = int(rng.integers(1, 4))
            d = n_heads * int(rng.integers(1, 5))
            d_s = int(rng.integers(1, 7))
            v = int(rng.integers(2, 9))
            emb = int(rng.integers(1, 4))
            d_g = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            groups = tiny_groups(emb_dim=emb, d_g=d_g)
            cfg = StoreConfig(h=h, v=v, d_s=d_s, d=d, n_heads=n_heads,
                              n_layers=int(rng.integers(1, 3)),
                              block_size=int(rng.integers(1, h + 1)),
                              rho=float(rng.uniform(0.2, 1.0)),
                              use_raw_ids=True, hash_buckets=32,
                              seed=int(rng.integers(100)))
            m = StoreModel(cfg, groups, {"user_id": 4})
            inputs = {"static": {"user_id": rng.integers(4, size=n)},
                      "raw": rng.integers(32, size=n)}
            assert m.build_tokens(inputs).shape == (n, h, d)
            assert m.forward(inputs).shape == (n,)

    def test_wrong_code_width_rejected(self):
        m, cfg = tiny_model(h=2)
        rng = np.random.default_rng(0)
        inputs = tiny_inputs(rng, 3, {"user_id": 3}, 3, cfg.v, m.groups)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            m.build_tokens(inputs)


class TestForward:
    def test_zero_head_predicts_half(self):
        m, cfg = tiny_model(h=3, v=4, d=6, n_heads=2, n_layers=2)
        rng = np.random.default_rng(5)
        inputs = tiny_inputs(rng, 8, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        assert np.array_equal(m.forward(inputs).values, np.full(8, 0.5))

    def test_probabilities_in_open_interval(self):
        m, cfg = tiny_model(h=2, n_layers=2)
        rng = np.random.default_rng(6)
        m.head_w.values = rng.normal(size=m.head_w.shape)
        m.head_b.values = rng.normal(size=m.head_b.shape)
        inputs = tiny_inputs(rng, 16, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        p = m.forward(inputs).values
        assert np.all((p > 0.0) & (p < 1.0))

    def test_nonfinite_activation_names_layer(self):
        m, cfg = tiny_model(h=2, n_layers=2)
        m.layers[1].wo.values[:] = np.nan
        rng = np.random.default_rng(7)
        inputs = tiny_inputs(rng, 4, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        with pytest.raises(FloatingPointError, match="layer 1"):
            m.forward(inputs)

    def test_plan_replay_reproduces_forward(self):
        m, cfg = tiny_model(h=4, v=4, n_layers=2)
        rng = np.random.default_rng(8)
        m.head_w.values = rng.normal(size=m.head_w.shape)
        inputs = tiny_inputs(rng, 5, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        p1, plans = m.forward(inputs, return_plans=True)
        p2 = m.forward(inputs, plans=plans)
        assert np.array_equal(p1.values, p2.values)
        assert len(plans) == cfg.n_layers and len(plans[0]) == cfg.n_heads

    def test_full_model_gradcheck_frozen_routing(self):
        m, cfg = tiny_model(h=2, v=4, d_s=2, d=4, n_heads=2, seed=4)
        rng = np.random.default_rng(11)
        m.head_w.values = 0.5 * rng.normal(size=m.head_w.shape)
        m.head_b.values = 0.5 * rng.normal(size=m.head_b.shape)
        inputs = tiny_inputs(rng, 3, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        _, plans = m.forward(inputs, return_plans=True)
        leaves = m.params() + m.bank.mats

        def build():
            return total_loss(m, inputs, inputs["labels"], plans=plans)[0]

        analytic = T.grad(build(), leaves)
        numeric = fd_grad(build, leaves, h=1e-5)
        worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
        assert worst < 1e-6


# settings whose routing keeps every block: vanilla attention
FULL_DENSITY = (dict(rho=1.0),                               # H=3, B=1
                dict(block_size=3),                          # one block
                dict(block_size=8, h=5, n_heads=4, use_raw_ids=True,
                     hash_buckets=256))


def ablation_fit(tmp_path, **kw):
    """(model.strm bytes, epoch log) of a small two-epoch fit."""
    ds, table = gen_synthetic(SyntheticSpec(n_instances=800, n_items=40,
                                            n_users=12, n_clusters=4, seed=3))
    train, val = random_split(ds, val_fraction=0.25, seed=0)
    tr, va, _ = encode_features(train, val, ds.schema)
    cfg = StoreConfig(**{**dict(h=3, v=4, d_s=4, d=8, n_heads=2, epochs=2,
                                batch_size=150, lr=5e-3, seed=4), **kw})
    sids = None
    if not cfg.use_raw_ids:
        codes = np.random.default_rng(2).integers(cfg.v, size=(len(table), cfg.h))
        sids = SidTable(table.ids, codes, cfg.v)
    model, log = fit(tr, va, cfg, default_groups(ds.schema, emb_dim=4, d_g=6),
                     sid_table=sids)
    save_store(tmp_path / "ablation.strm", model)
    return (tmp_path / "ablation.strm").read_bytes(), log


@pytest.fixture
def route_calls(monkeypatch):
    """A list that grows by one at every ``moba_route`` call."""
    calls, route = [], A.moba_route

    def counted(*args, **kw):
        calls.append(1)
        return route(*args, **kw)
    monkeypatch.setattr(A, "moba_route", counted)
    return calls


class TestAblations:
    def test_full_density_fits_never_route(self, tmp_path, route_calls):
        for kw in FULL_DENSITY:
            ablation_fit(tmp_path, **kw)
        assert route_calls == []
        ablation_fit(tmp_path)              # rho = 0.5 routes 2 of 3 blocks
        assert route_calls

    def test_vanilla_equals_efficient_at_full_density(self, tmp_path,
                                                      monkeypatch, route_calls):
        """A fit that keeps every block writes the bytes and log of the
        same fit forced through the routed node."""
        for kw in FULL_DENSITY:
            got = ablation_fit(tmp_path, **kw)
            with monkeypatch.context() as mp:
                mp.setattr(M, "dense_attention", A.efficient_attention)
                want = ablation_fit(tmp_path, **kw)
            assert route_calls, "the forced fit did not route"
            route_calls.clear()
            assert got[0] == want[0]
            assert got[1] == want[1]

    def test_vanilla_flops_ignore_rho(self):
        groups = tiny_groups()
        dense = StoreConfig(h=4, rho=1.0, use_raw_ids=True)
        assert flops_ratio(dense, groups) == 1.0
        one_block = StoreConfig(h=4, rho=0.5, block_size=4, use_raw_ids=True)
        assert model_flops(one_block, groups) == model_flops(dense, groups)
        routed = StoreConfig(h=4, rho=0.5, use_raw_ids=True)
        assert flops_ratio(routed, groups) > 1.0

    def test_rotation_off_uses_raw_block(self):
        groups = GroupConfig((FeatureGroup("g0", ("user_id",), 2),), 5)
        cfg = StoreConfig(h=2, v=4, d_s=3, d=8, n_heads=1, use_rotation=False,
                          use_raw_ids=True, hash_buckets=8, seed=2)
        m = StoreModel(cfg, groups, {"user_id": 5})
        m.proj_w.values = np.eye(8)
        rng = np.random.default_rng(0)
        inputs = {"static": {"user_id": rng.integers(5, size=6)},
                  "raw": rng.integers(8, size=6)}
        toks = m.build_tokens(inputs).values
        c = m.static_block(inputs).values
        assert np.allclose(toks[:, 0, 3:], c, atol=1e-12)
        assert np.allclose(toks[:, 1, 3:], c, atol=1e-12)

    def test_rotation_off_freezes_bank_and_zeroes_diversity(self):
        m, cfg = tiny_model(h=2, use_rotation=False)
        rng = np.random.default_rng(4)
        inputs = tiny_inputs(rng, 6, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        _, parts = total_loss(m, inputs, inputs["labels"])
        assert parts["diversity"] == 0.0


class TestPersistence:
    def trained(self, tmp_path, **kw):
        spec = SyntheticSpec(n_instances=400, n_items=30, n_users=10,
                             n_clusters=4, seed=41)
        ds, table = gen_synthetic(spec)
        train, val = random_split(ds, val_fraction=0.25, seed=0)
        tr, va, _ = encode_features(train, val, ds.schema)
        groups = default_groups(ds.schema, emb_dim=3, d_g=4)
        cfg = StoreConfig(h=2, v=4, d_s=4, d=8, n_heads=2, n_layers=1,
                          epochs=1, batch_size=100, seed=6, **kw)
        sids = None
        if not kw.get("use_raw_ids"):
            codes = np.random.default_rng(2).integers(4, size=(30, 2))
            sids = SidTable(table.ids, codes, 4)
        model, _ = fit(tr, va, cfg, groups, sid_table=sids)
        return model, va, tmp_path / "model.strm"

    def test_roundtrip_reproduces_predictions(self, tmp_path):
        model, va, path = self.trained(tmp_path)
        save_store(path, model)
        loaded = load_store(path)
        inputs = prepare_inputs(model, va)
        assert np.array_equal(predict(model, inputs), predict(loaded, inputs))
        assert loaded.sid_table.ids == model.sid_table.ids
        assert np.array_equal(loaded.sid_table.codes, model.sid_table.codes)

    def test_roundtrip_raw_variant(self, tmp_path):
        model, va, path = self.trained(tmp_path, use_raw_ids=True,
                                       hash_buckets=64)
        save_store(path, model)
        loaded = load_store(path)
        inputs = prepare_inputs(model, va)
        assert np.array_equal(predict(model, inputs), predict(loaded, inputs))
        assert loaded.sid_table is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        model, _, path = self.trained(tmp_path)
        save_store(path, model)
        first = path.read_bytes()
        save_store(path, load_store(path))
        assert path.read_bytes() == first

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.strm"
        p.write_bytes(b"NOPE1\n{}\n")
        with pytest.raises(ValueError, match="bad magic"):
            load_store(p)

    def test_truncated_arrays_rejected(self, tmp_path):
        model, _, path = self.trained(tmp_path)
        save_store(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob + b"x")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_store(path)


class TestLosses:
    def test_perfect_predictions_near_zero(self):
        y = np.array([1.0, 0.0, 1.0])
        probs = T.Tensor(np.array([1.0, 0.0, 1.0]), requires_grad=True)
        assert float(bce_loss(probs, y).values) < 1e-6

    def test_uniform_half_gives_ln2(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        probs = T.Tensor(np.full(4, 0.5), requires_grad=True)
        assert abs(float(bce_loss(probs, y).values) - np.log(2.0)) < 1e-15

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        y = rng.integers(2, size=50).astype(np.float64)
        p = rng.uniform(0.01, 0.99, size=50)
        want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        got = float(bce_loss(T.Tensor(p, requires_grad=True), y).values)
        assert abs(got - want) < 1e-9

    def test_rejects_nonbinary_labels(self):
        probs = T.Tensor(np.full(2, 0.5), requires_grad=True)
        with pytest.raises(ValueError, match="0 or 1"):
            bce_loss(probs, np.array([0.0, 0.3]))

    def test_rejects_shape_mismatch(self):
        probs = T.Tensor(np.full(3, 0.5), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            bce_loss(probs, np.zeros(2))

    def test_total_loss_components(self):
        m, cfg = tiny_model(h=3, v=4)
        rng = np.random.default_rng(14)
        inputs = tiny_inputs(rng, 6, {"user_id": 3}, cfg.h, cfg.v, m.groups)
        total, parts = total_loss(m, inputs, inputs["labels"])
        assert parts["diversity"] <= 0.0
        assert abs(parts["total"] - (parts["bce"] + parts["diversity"])) < 1e-12
        assert abs(float(total.values) - parts["total"]) == 0.0


class TestBatchPlumbing:
    def setup_method(self):
        spec = SyntheticSpec(n_instances=600, n_items=40, n_users=12,
                             n_clusters=4, seed=21)
        ds, self.table = gen_synthetic(spec)
        train, val = random_split(ds, val_fraction=0.25, seed=0)
        self.tr, self.va, _ = encode_features(train, val, ds.schema)
        self.schema = ds.schema

    def sid_table(self, h=2, v=4, seed=0):
        codes = np.random.default_rng(seed).integers(v, size=(len(self.table.ids), h))
        return SidTable(self.table.ids, codes, v)

    def model(self, **kw):
        cfg = StoreConfig(h=2, v=4, d_s=4, d=8, n_heads=2, n_layers=1,
                          seed=3, **kw)
        groups = default_groups(self.schema, emb_dim=3, d_g=4)
        if kw.get("use_raw_ids"):
            return StoreModel(cfg, groups, self.tr.vocab_sizes), cfg
        return StoreModel(cfg, groups, self.tr.vocab_sizes,
                          sid_table=self.sid_table()), cfg

    def test_sid_lookup_matches_table(self):
        m, _ = self.model()
        inputs = prepare_inputs(m, self.tr)
        row = 17
        assert np.array_equal(inputs["sid"][row],
                              m.sid_table.sids(self.tr.raw_items[row]))

    def test_missing_item_fails_loudly(self):
        m, _ = self.model()
        short = SidTable(self.table.ids[:5], m.sid_table.codes[:5], 4)
        m.sid_table = short
        with pytest.raises(ValueError, match="lack SID codes"):
            prepare_inputs(m, self.tr)

    def test_raw_hashing_deterministic_and_bounded(self):
        m, cfg = self.model(use_raw_ids=True, hash_buckets=64)
        a = prepare_inputs(m, self.tr)["raw"]
        b = prepare_inputs(m, self.tr)["raw"]
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 64
        same = self.tr.raw_items == self.tr.raw_items[0]
        assert len(set(a[same].tolist())) == 1

    def test_slice_inputs_aligns_all_arrays(self):
        m, _ = self.model()
        inputs = prepare_inputs(m, self.tr)
        idx = np.array([3, 0, 7])
        got = slice_inputs(inputs, idx)
        assert np.array_equal(got["labels"], inputs["labels"][idx])
        assert np.array_equal(got["sid"], inputs["sid"][idx])
        assert np.array_equal(got["static"]["user_id"],
                              inputs["static"]["user_id"][idx])

    def test_predict_is_batch_invariant(self):
        m, _ = self.model()
        rng = np.random.default_rng(2)
        m.head_w.values = rng.normal(size=m.head_w.shape)
        inputs = prepare_inputs(m, self.va)
        small = predict(m, inputs, batch_size=7)
        big = predict(m, inputs, batch_size=10_000)
        assert np.allclose(small, big, atol=1e-12)
        assert small.shape == (len(self.va),)


class TestFlops:
    def groups(self):
        return GroupConfig((FeatureGroup("g0", ("user_id",), 2),), 3)

    def test_tiny_config_by_hand(self):
        cfg = StoreConfig(h=1, v=4, d_s=2, d=4, n_heads=1, n_layers=1,
                          block_size=1, rho=1.0, use_raw_ids=True)
        # fuser 2*6 + 6*3, rotation 9, projection 5*4, head 4, then one
        # attention layer: (2*1*1*4*1 + 4*1*16) * 2
        want = 2 * (30 + 9 + 20 + 4) + 144
        assert model_flops(cfg, self.groups()) == want

    def test_batch_scales_linearly(self):
        cfg = StoreConfig(use_raw_ids=True)
        groups = self.groups()
        assert model_flops(cfg, groups, batch=5) == 5 * model_flops(cfg, groups)

    def test_ratio_unity_at_full_density(self):
        cfg = StoreConfig(h=4, rho=1.0, use_raw_ids=True)
        assert flops_ratio(cfg, self.groups()) == 1.0

    def test_ratio_above_one_when_blocks_dropped(self):
        cfg = StoreConfig(h=4, block_size=1, rho=0.5, use_raw_ids=True)
        assert flops_ratio(cfg, self.groups()) > 1.0

    def test_sparse_saving_is_all_attention(self):
        from storerank.attention import attention_flops
        cfg = StoreConfig(h=8, block_size=2, rho=0.5, n_layers=3,
                          use_raw_ids=True)
        groups = self.groups()
        dense = model_flops(cfg, groups, rho=1.0)
        sparse = model_flops(cfg, groups)
        per_layer = (attention_flops(8, cfg.d, cfg.n_heads, 2, 4)
                     - attention_flops(8, cfg.d, cfg.n_heads, 2, 2))
        assert dense - sparse == cfg.n_layers * per_layer

    def test_ffn_adds_cost(self):
        groups = self.groups()
        plain = model_flops(StoreConfig(use_raw_ids=True), groups)
        ffn = model_flops(StoreConfig(use_raw_ids=True, use_ffn=True), groups)
        assert ffn > plain


class TestFit:
    def setup_method(self):
        spec = SyntheticSpec(n_instances=2500, n_items=60, n_users=20,
                             n_clusters=6, seed=31)
        ds, table = gen_synthetic(spec)
        train, val = random_split(ds, val_fraction=0.2, seed=0)
        self.tr, self.va, _ = encode_features(train, val, ds.schema)
        self.groups = default_groups(ds.schema, emb_dim=4, d_g=6)
        codes = np.random.default_rng(1).integers(4, size=(len(table.ids), 2))
        self.sids = SidTable(table.ids, codes, 4)

    def config(self, **kw):
        base = dict(h=2, v=4, d_s=4, d=8, n_heads=2, n_layers=1,
                    epochs=2, batch_size=250, lr=5e-3, seed=5)
        base.update(kw)
        return StoreConfig(**base)

    def test_loss_decreases_and_log_fields(self):
        _, log = fit(self.tr, self.va, self.config(), self.groups,
                     sid_table=self.sids)
        assert len(log) == 2
        assert log[1]["train_loss"] < log[0]["train_loss"]
        assert set(log[0]) == {"epoch", "train_loss", "val_auc", "val_gauc",
                               "val_logloss", "flops_per_batch"}
        assert log[0]["epoch"] == 1 and log[1]["epoch"] == 2

    def test_same_seed_identical_logs(self):
        _, a = fit(self.tr, self.va, self.config(), self.groups,
                   sid_table=self.sids)
        _, b = fit(self.tr, self.va, self.config(), self.groups,
                   sid_table=self.sids)
        assert a == b

    def test_orthogonality_and_norms_survive_training(self):
        m, _ = fit(self.tr, self.va, self.config(), self.groups,
                   sid_table=self.sids)
        assert max(m.bank.orthogonality_errors()) < 1e-6
        inputs = slice_inputs(prepare_inputs(m, self.va), np.arange(64))
        c = m.static_block(inputs).values
        norms = np.linalg.norm(c, axis=1)
        for i in range(m.bank.k):
            rotated = c @ m.bank.mats[i].values
            assert np.allclose(np.linalg.norm(rotated, axis=1), norms,
                               atol=1e-5)

    def test_rotations_move_apart(self):
        before = StoreModel(self.config(), self.groups, self.tr.vocab_sizes,
                            sid_table=self.sids).bank.pairwise_distance()
        m, _ = fit(self.tr, self.va, self.config(), self.groups,
                   sid_table=self.sids)
        assert m.bank.pairwise_distance() > before

    def test_no_validation_partition(self):
        _, log = fit(self.tr, None, self.config(epochs=1), self.groups,
                     sid_table=self.sids)
        assert set(log[0]) == {"epoch", "train_loss", "flops_per_batch"}

    def test_evaluate_matches_predict(self):
        m, _ = fit(self.tr, self.va, self.config(), self.groups,
                   sid_table=self.sids)
        from storerank.metrics import auc
        report = evaluate(m, self.va)
        scores = predict(m, prepare_inputs(m, self.va))
        assert report["auc"] == auc(self.va.labels, scores)
        assert report["n"] == len(self.va)
        assert set(report) == {"auc", "gauc", "logloss", "n"}

    def test_raw_id_variant_trains(self):
        cfg = self.config(use_raw_ids=True, hash_buckets=128, epochs=1)
        _, log = fit(self.tr, self.va, cfg, self.groups)
        assert np.isfinite(log[0]["train_loss"])

    def test_a_grouping_that_drops_a_static_column_is_refused(self):
        # the synthetic schema has statics f0 and f1; f1 is left out
        groups = GroupConfig((FeatureGroup("audience", ("user_id",), 4),
                              FeatureGroup("context", ("f0",), 4)), 6)
        with pytest.raises(ValueError, match=r"missing from groups: \['f1'\]"):
            fit(self.tr, self.va, self.config(epochs=1), groups,
                sid_table=self.sids)


class TestLrBaseline:
    def one_feature_dataset(self, labels_from, n=8000, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.integers(2, size=n)
        b = rng.integers(2, size=n)
        schema = DatasetSchema([
            ("click", "label"), ("item_id", "high_cardinality_item"),
            ("user_id", "group_key"), ("f0", "static"), ("f1", "static"),
        ])
        cols = {"item_id": np.full(n, "0", dtype=object),
                "user_id": np.full(n, "0", dtype=object),
                "f0": a.astype(str).astype(object),
                "f1": b.astype(str).astype(object)}
        ds = Dataset(schema, cols, labels_from(a, b), chronological=False)
        train, val = random_split(ds, val_fraction=0.25, seed=1)
        tr, va, _ = encode_features(train, val, schema)
        return tr, va

    def test_learns_additive_signal(self):
        tr, va = self.one_feature_dataset(
            lambda a, b: ((a + b) >= 1).astype(np.int8))
        scores, log = train_lr_baseline(tr, va, epochs=3)
        assert log[-1]["val_auc"] > 0.9
        assert scores.shape == (len(va),)

    def test_blind_to_pure_interaction(self):
        tr, va = self.one_feature_dataset(
            lambda a, b: (a ^ b).astype(np.int8))
        _, log = train_lr_baseline(tr, va, epochs=3)
        assert abs(log[-1]["val_auc"] - 0.5) < 0.06

    def test_log_is_deterministic(self):
        tr, va = self.one_feature_dataset(
            lambda a, b: ((a + b) >= 1).astype(np.int8))
        _, a_log = train_lr_baseline(tr, va, epochs=2)
        _, b_log = train_lr_baseline(tr, va, epochs=2)
        assert a_log == b_log
