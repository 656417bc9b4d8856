"""End-to-end acceptance gate.

Each numbered test pins one headline guarantee of the package at a fixed
tolerance and asserts a wall-clock budget, so the verbose report reads
as a checklist.  Everything here overlaps the unit suites on purpose:
this file exercises the assembled system, seeds and all, in one place.

test_08c races the routed kernel at rho = 1/2 against the same routed
kernel with every block selected, as block-sparse attention papers state
their gain against the dense run of their own kernel.  It does not race
dense_core: at rho = 1/2 the gather/scatter traffic of the routed kernel
costs more than the two full BLAS GEMMs dense_core runs, so dense_core
wins on a CPU (README, "A note on the attention benchmark").  That race
is still printed in the assertion message.
"""

import os
import time
from dataclasses import replace

import numpy as np

import graph_ops as G
from oracles import (fd_grad, grouped_gauc, max_rel_err, naive_logloss,
                     pairwise_auc)

from storerank import tensor as T
from storerank.attention import (AttentionParams, attention_flops,
                                 bench_attention, efficient_attention,
                                 k_blocks_for)
from storerank.cli import main as cli_main
from storerank.data import (SyntheticSpec, encode_features, gen_synthetic,
                            random_split)
from storerank.metrics import auc, gauc, logloss
from storerank.model import (StoreConfig, StoreModel, default_groups, fit,
                             flops_ratio, prepare_inputs, slice_inputs,
                             total_loss, train_lr_baseline)
from storerank.rotation import FeatureGroup, GroupConfig
from storerank.tokenizer import (OpmqConfig, OpmqModel, SidTable,
                                 mean_baseline_loss, nearest_codewords,
                                 orth_penalty, tokenize_catalog, train_opmq)
from test_fused_attention import full_plan


def elapsed_under(t0, budget_s):
    dt = time.monotonic() - t0
    assert dt < budget_s, f"runtime {dt:.1f}s exceeds budget {budget_s}s"


# ---------------------------------------------------------------------------
# 1. gradients: every differentiable op, then the assembled model
# ---------------------------------------------------------------------------

def _op_cases():
    rng = np.random.default_rng(0)

    def leaf(shape, lo=-1.0, hi=1.0):
        return T.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)

    a, b = leaf((3, 4)), leaf((3, 4))
    pos = leaf((3, 4), 0.5, 2.0)
    m1, m2 = leaf((3, 4)), leaf((4, 2))
    b1, b2 = leaf((2, 3, 4)), leaf((2, 4, 2))
    table = leaf((5, 3))
    idx = np.array([0, 4, 2, 2])
    g, beta = leaf((6,)), leaf((6,))
    x_ln = leaf((4, 6))
    clipped = T.Tensor(rng.choice([-0.5, 0.5], size=(3, 4))
                       + rng.uniform(-0.2, 0.2, size=(3, 4)),
                       requires_grad=True)

    def case(name, leaves, fn, out_shape):
        # fixed projection weight so repeated builds evaluate one function
        w = T.Tensor(rng.normal(size=out_shape))
        return name, (lambda: T.tsum(T.mul(fn(), w))), leaves

    return [
        case("add", [a, b], lambda: T.add(a, b), (3, 4)),
        case("sub", [a, b], lambda: T.sub(a, b), (3, 4)),
        case("mul", [a, b], lambda: T.mul(a, b), (3, 4)),
        case("power", [pos], lambda: G.power(pos, 1.7), (3, 4)),
        case("exp", [a], lambda: G.exp(a), (3, 4)),
        case("log", [pos], lambda: G.log(pos), (3, 4)),
        case("tanh", [a], lambda: T.tanh(a), (3, 4)),
        case("sigmoid", [a], lambda: T.sigmoid(a), (3, 4)),
        case("clip", [clipped], lambda: G.clip(clipped, -0.4, 0.4), (3, 4)),
        case("reshape", [a], lambda: T.reshape(a, (2, 6)), (2, 6)),
        case("broadcast_to", [m2],
             lambda: T.broadcast_to(m2, (3, 4, 2)), (3, 4, 2)),
        case("transpose_last", [b1], lambda: G.transpose_last(b1), (2, 4, 3)),
        case("narrow", [a], lambda: G.narrow(a, 1, 1, 2), (3, 2)),
        case("concat", [a, pos], lambda: T.concat([a, pos], axis=1), (3, 8)),
        case("embedding", [table], lambda: T.embedding(table, idx), (4, 3)),
        case("matmul2d", [m1, m2], lambda: T.matmul(m1, m2), (3, 2)),
        case("matmul3d", [b1, b2], lambda: T.matmul(b1, b2), (2, 3, 2)),
        case("matmul3d2d", [b1, m2], lambda: T.matmul(b1, m2), (2, 3, 2)),
        case("tsum", [a], lambda: T.tsum(a, axis=0), (4,)),
        case("tsum_keep", [a],
             lambda: T.tsum(a, axis=1, keepdims=True), (3, 1)),
        case("tmean", [a], lambda: T.tmean(a, axis=1), (3,)),
        case("softmax", [a], lambda: G.softmax(a, axis=-1), (3, 4)),
        case("layer_norm", [x_ln, g, beta],
             lambda: T.layer_norm(x_ln, g, beta), (4, 6)),
    ]


def _assembled_model(batch=4):
    groups = GroupConfig((FeatureGroup("audience", ("user_id",), 2),
                          FeatureGroup("context", ("f0", "f1"), 2)), 2)
    cfg = StoreConfig(h=3, v=4, d_s=4, d=8, n_layers=2, n_heads=2,
                      block_size=1, rho=0.5, seed=12)
    ids = [str(i) for i in range(8)]
    codes = np.random.default_rng(1).integers(4, size=(8, 3))
    model = StoreModel(cfg, groups, {"user_id": 4, "f0": 3, "f1": 3},
                       sid_table=SidTable(ids, codes, 4))
    rng = np.random.default_rng(2)
    model.head_w.values = 0.5 * rng.normal(size=model.head_w.shape)
    model.head_b.values = 0.5 * rng.normal(size=model.head_b.shape)
    inputs = {"static": {"user_id": rng.integers(4, size=batch),
                         "f0": rng.integers(3, size=batch),
                         "f1": rng.integers(3, size=batch)},
              "sid": rng.integers(4, size=(batch, 3)),
              "labels": rng.integers(2, size=batch).astype(np.float64)}
    return model, inputs


def test_01_gradients_elementary_ops_and_full_model():
    t0 = time.monotonic()
    for name, build, leaves in _op_cases():
        analytic = T.grad(build(), leaves)
        numeric = fd_grad(build, leaves, h=1e-5)
        worst = max(max_rel_err(x, y) for x, y in zip(analytic, numeric))
        assert worst < 1e-4, f"{name}: rel err {worst:.2e} >= 1e-4"

    model, inputs = _assembled_model(batch=4)
    _, plans = model.forward(inputs)
    leaves = model.params() + model.bank.mats

    def build():
        return total_loss(model, inputs, inputs["labels"], plans=plans)[0]

    analytic = T.grad(build(), leaves)
    numeric = fd_grad(build, leaves, h=1e-5)
    worst = max(max_rel_err(x, y) for x, y in zip(analytic, numeric))
    assert worst < 1e-3, f"full model: rel err {worst:.2e} >= 1e-3"
    elapsed_under(t0, 60)


# ---------------------------------------------------------------------------
# 2. routed attention at full density equals dense attention
# ---------------------------------------------------------------------------

def test_02_full_density_matches_dense_on_100_configs():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 41))
        block = int(rng.integers(1, h + 5))
        n_heads = int(rng.choice([1, 2, 4]))
        d_model = n_heads * int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        params = AttentionParams(d_model, n_heads, block, rho=1.0, rng=rng)
        x = T.Tensor(rng.normal(size=(n, h, d_model)))
        routed, _ = efficient_attention(x, params, full_plan(x, params))
        diff = np.max(np.abs(routed.values - efficient_attention(x, params)[0].values))
        worst = max(worst, float(diff))
    assert worst < 1e-6, f"max abs deviation {worst:.2e} >= 1e-6"
    elapsed_under(t0, 60)


# ---------------------------------------------------------------------------
# 3. rotations survive 500 training steps
# ---------------------------------------------------------------------------

def test_03_rotations_stay_orthogonal_over_500_steps():
    t0 = time.monotonic()
    spec = SyntheticSpec(n_instances=5000, n_items=100, n_users=30,
                         n_clusters=8, seed=33)
    ds, table = gen_synthetic(spec)
    train, val = random_split(ds, val_fraction=0.2, seed=0)
    tr, va, _ = encode_features(train, val, ds.schema)
    codes = np.random.default_rng(3).integers(4, size=(100, 3))
    sids = SidTable(table.ids, codes, 4)
    groups = default_groups(ds.schema, emb_dim=4, d_g=4)
    cfg = StoreConfig(h=3, v=4, d_s=4, d=8, n_heads=2, n_layers=1,
                      epochs=1, batch_size=8, seed=1)      # 4000/8 = 500 steps
    model, _ = fit(tr, va, cfg, groups, sid_table=sids)

    errs = model.bank.orthogonality_errors()
    assert max(errs) < 1e-6, f"orthogonality drift {max(errs):.2e} >= 1e-6"

    inputs = prepare_inputs(model, tr)
    for start in range(0, len(tr), 512):
        binp = slice_inputs(inputs, np.arange(start, min(start + 512, len(tr))))
        c = model.static_block(binp).values
        norms = np.linalg.norm(c, axis=1)
        for i in range(model.bank.k):
            rotated = np.linalg.norm(c @ model.bank.mats[i].values, axis=1)
            gap = np.max(np.abs(rotated - norms))
            assert gap < 1e-5, f"norm drift {gap:.2e} >= 1e-5 (rotation {i})"
    elapsed_under(t0, 60)


# ---------------------------------------------------------------------------
# 4. quantizer assignment and penalty oracles
# ---------------------------------------------------------------------------

def test_04_nearest_codeword_exact_and_penalty_values():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    codebook = rng.normal(size=(16, 16))
    queries = rng.normal(size=(100_000, 16))
    queries[::97] = codebook[rng.integers(16, size=len(queries[::97]))]
    got = nearest_codewords(queries, codebook)
    want = np.empty(len(queries), dtype=np.int64)
    for s in range(0, len(queries), 10_000):
        block = queries[s:s + 10_000]
        d2 = ((block[:, None, :] - codebook[None]) ** 2).sum(axis=2)
        want[s:s + 10_000] = np.argmin(d2, axis=1)
    assert np.array_equal(got, want), "nearest-codeword mismatch vs full scan"

    cfg = OpmqConfig(k=2, v=4)
    ortho = OpmqModel(4, cfg, np.random.default_rng(0))
    w1 = ortho.experts[0].values
    w1[:] = 0.0
    for i in range(cfg.k):
        w1[i, i, i] = 1.0
    assert float(orth_penalty(ortho).values) < 1e-12

    dup = OpmqModel(4, cfg, np.random.default_rng(0))
    dup.experts[0].values[1] = dup.experts[0].values[0]
    assert abs(float(orth_penalty(dup).values) - 2.0) < 1e-12
    elapsed_under(t0, 60)


# ---------------------------------------------------------------------------
# 5. quantizer learns a clustered catalog
# ---------------------------------------------------------------------------

def test_05_quantizer_beats_half_of_mean_baseline():
    t0 = time.monotonic()
    spec = SyntheticSpec(n_instances=10, n_items=1000, n_users=2, d_p=16,
                         n_clusters=16, seed=55)
    _, table = gen_synthetic(spec)
    cfg = OpmqConfig(k=3, v=16, epochs=120, seed=0)
    init = OpmqModel(table.dim, cfg, np.random.default_rng(cfg.seed))
    model, log = train_opmq(table, cfg)
    baseline = mean_baseline_loss(table)
    ratio = log[-1]["loss_recon"] / baseline
    assert ratio < 0.5, f"reconstruction at {ratio:.1%} of mean baseline"
    init_orth = float(orth_penalty(init).values)
    assert log[-1]["orth_penalty"] < init_orth, (
        f"orth penalty {log[-1]['orth_penalty']:.2e} did not improve on "
        f"init {init_orth:.2e}")
    elapsed_under(t0, 120)


# ---------------------------------------------------------------------------
# 6. end-to-end lift over a one-hot logistic baseline
# ---------------------------------------------------------------------------

def test_06_token_model_beats_onehot_lr_by_two_points():
    t0 = time.monotonic()
    spec = SyntheticSpec(n_instances=120_000, n_items=1000, n_users=200,
                         n_clusters=16, seed=7)
    ds, table = gen_synthetic(spec)
    train, val = random_split(ds, val_fraction=1 / 6, seed=1)
    tr, va, _ = encode_features(train, val, ds.schema)
    assert len(tr) == 100_000 and len(va) == 20_000

    qmodel, _ = train_opmq(table, OpmqConfig(k=3, v=16, epochs=30, seed=0))
    sids = tokenize_catalog(table, qmodel)
    groups = default_groups(ds.schema)
    cfg = StoreConfig(h=3, v=16, n_layers=2, rho=0.5, epochs=3,
                      batch_size=512, lr=3e-3, seed=0)
    _, log = fit(tr, va, cfg, groups, sid_table=sids)
    _, lr_log = train_lr_baseline(tr, va, epochs=3)

    store_auc = log[-1]["val_auc"]
    lr_auc = max(rec["val_auc"] for rec in lr_log)
    assert store_auc - lr_auc >= 0.02, (
        f"lift {store_auc - lr_auc:.4f} < 0.02 "
        f"(token model {store_auc:.4f}, one-hot LR {lr_auc:.4f})")
    elapsed_under(t0, 300)


# ---------------------------------------------------------------------------
# 7. multi-epoch training: hashed raw ids degrade, SID tokens do not
# ---------------------------------------------------------------------------

def test_07_raw_id_degrades_over_epochs_sids_hold():
    t0 = time.monotonic()
    spec = SyntheticSpec(n_instances=125_000, n_items=60_000, n_users=400,
                         n_clusters=16, seed=11)
    ds, table = gen_synthetic(spec)
    assert len(set(ds.column("item_id").tolist())) >= 50_000
    train, val = random_split(ds, val_fraction=0.2, seed=1)
    tr, va, _ = encode_features(train, val, ds.schema)

    qmodel, _ = train_opmq(table, OpmqConfig(k=3, v=16, epochs=8, seed=0))
    sids = tokenize_catalog(table, qmodel)
    groups = default_groups(ds.schema)
    base = StoreConfig(h=3, v=16, n_layers=2, rho=0.5, epochs=4,
                       batch_size=512, lr=3e-3, seed=0)

    _, sid_log = fit(tr, va, base, groups, sid_table=sids)
    _, raw_log = fit(tr, va, replace(base, use_raw_ids=True), groups)

    sid_drop = sid_log[0]["val_auc"] - sid_log[3]["val_auc"]
    raw_drop = raw_log[0]["val_auc"] - raw_log[3]["val_auc"]
    assert raw_drop > sid_drop, (
        f"raw-id drop {raw_drop:.4f} not worse than SID drop {sid_drop:.4f} "
        f"(raw {[round(r['val_auc'], 4) for r in raw_log]}, "
        f"sid {[round(r['val_auc'], 4) for r in sid_log]})")
    elapsed_under(t0, 600)


# ---------------------------------------------------------------------------
# 8. cost accounting and the kernel race
# ---------------------------------------------------------------------------

def test_08a_attention_flops_at_half_density():
    d_model, n_heads = 256, 4
    for h in (64, 256, 333, 1024, 2048):
        for block in (8, 32, 64):
            n_blocks = -(-h // block)
            kb = k_blocks_for(h, block, 0.5)
            sparse = attention_flops(h, d_model, n_heads, block, kb,
                                     include_projections=False)
            dense = attention_flops(h, d_model, n_heads, block, n_blocks,
                                    include_projections=False)
            one_block = 2 * 2 * h * block * (d_model // n_heads) * n_heads
            assert abs(sparse - dense / 2) <= one_block, (
                f"H={h} B={block}: {sparse} vs half of {dense}")


def test_08b_full_model_ratio_above_one():
    public = StoreConfig(h=3, v=16, block_size=1, rho=0.5)
    industrial = StoreConfig(h=32, v=300, d_s=24, d=64, n_heads=4,
                             block_size=4, rho=0.5)
    schema_groups = GroupConfig((FeatureGroup("audience", ("user_id",), 8),
                                 FeatureGroup("context", ("f0", "f1"), 8)), 16)
    for cfg in (public, industrial):
        ratio = flops_ratio(cfg, schema_groups)
        assert ratio > 1.0, f"vanilla/efficient ratio {ratio} not > 1"


def test_08c_wallclock_sparse_beats_dense_at_half_density():
    # "dense" is the routed kernel with every block selected (see the
    # module docstring).  rho = 1/2 halves its flops; the 0.75 bound
    # leaves a quarter of the full-selection time for routing and the
    # per-call work that does not shrink with rho.
    t0 = time.monotonic()
    rows = [bench_attention(h, d_model=256, n_heads=4, block_size=32,
                            rho=0.5, repeats=5, seed=0)
            for h in (256, 512, 1024)]
    table = ", ".join(
        f"H={r['H']}: half {r['wall_time_sparse_ms']:.2f}ms vs "
        f"full {r['wall_time_full_ms']:.2f}ms "
        f"({r['wall_time_sparse_ms'] / r['wall_time_full_ms']:.2f}); "
        f"dense_core {r['wall_time_dense_ms']:.2f}ms" for r in rows)
    elapsed_under(t0, 60)
    for r in rows:
        assert r["max_abs_diff_at_rho1"] < 1e-12, (
            f"H={r['H']}: full selection is not dense attention, max abs "
            f"diff {r['max_abs_diff_at_rho1']:.2e} ({table})")
    losers = [r for r in rows
              if r["wall_time_sparse_ms"] > 0.75 * r["wall_time_full_ms"]]
    assert not losers, (
        f"routed kernel at rho=1/2 above 0.75x its full-selection time "
        f"({table})")


# ---------------------------------------------------------------------------
# 9. ranking metrics against brute force
# ---------------------------------------------------------------------------

def test_09_metrics_match_brute_force_on_1000_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    for trial in range(1000):
        n = int(rng.integers(8, 25))
        labels = rng.integers(2, size=n)
        labels[0], labels[1] = 1, 0          # both classes present
        if trial % 2:
            scores = rng.integers(4, size=n).astype(np.float64) / 3.0
        else:
            scores = rng.random(n)
        assert auc(labels, scores) == pairwise_auc(labels, scores)
        groups = rng.integers(3, size=n)
        groups[0] = groups[1] = 0            # at least one scorable group
        assert gauc(labels, scores, groups) == grouped_gauc(labels, scores,
                                                            groups)
        probs = np.where(rng.random(n) < 0.1, rng.integers(2, size=n),
                         rng.random(n))
        diff = abs(logloss(labels, probs) - naive_logloss(labels, probs,
                                                          eps=1e-7))
        assert diff < 1e-12
    elapsed_under(t0, 60)


# ---------------------------------------------------------------------------
# 10. command-line runs replay byte for byte
# ---------------------------------------------------------------------------

def _run_cli(*argv):
    assert cli_main(list(argv)) == 0, f"command failed: {argv}"


def _tree_bytes(root, skip=()):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            rel = os.path.relpath(p, root)
            if rel in skip:
                continue
            with open(p, "rb") as f:
                out[rel] = f.read()
    return out


def test_10_cli_reruns_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    gen = ["gen-synthetic", "--n-instances", "2000", "--n-items", "100",
           "--n-users", "30", "--n-clusters", "6", "--seed", "9"]
    tok = ["train-tokenizer", "--epochs", "10", "--seed", "0"]
    trn = ["train", "--epochs", "1", "--batch-size", "500", "--d", "16",
           "--d-s", "8", "--d-g", "8", "--emb-dim", "4", "--seed", "0"]
    sweep = ["sweep", "--rho-grid", "1,0.5", "--epochs", "1", "--batch-size",
             "500", "--d", "16", "--d-s", "8", "--d-g", "8", "--emb-dim",
             "4", "--seed", "0"]
    bench = ["bench-attention", "--h-values", "64", "--repeats", "1"]

    def one_round(root):
        _run_cli(*gen, "--out", str(root / "data"))
        _run_cli(*tok, "--embeddings", str(root / "data" / "embeddings.stre"),
                 "--out", str(root / "tok"))
        _run_cli("tokenize", "--embeddings",
                 str(root / "data" / "embeddings.stre"),
                 "--tokenizer", str(root / "tok" / "tokenizer.opmq"),
                 "--out", str(root / "sids"))
        _run_cli(*trn, "--data", str(root / "data" / "data.strd"),
                 "--sids", str(root / "sids" / "sids.strs"),
                 "--out", str(root / "run"))
        _run_cli("eval", "--model", str(root / "run" / "model.strm"),
                 "--data", str(root / "data" / "data.strd"),
                 "--out", str(root / "ev"))
        _run_cli(*sweep, "--data", str(root / "data" / "data.strd"),
                 "--sids", str(root / "sids" / "sids.strs"),
                 "--out", str(root / "sw"))
        _run_cli(*bench, "--out", str(root / "bench"))

    root = tmp_path / "runs"
    snaps, benches = [], []
    for _ in range(2):           # identical commands, identical paths
        one_round(root)
        # bench wall times measure the machine, not the config; every
        # other output must replay bit for bit
        snaps.append(_tree_bytes(root, skip=("bench/bench.csv",)))
        lines = (root / "bench" / "bench.csv").read_text().splitlines()
        assert lines[0].split(",")[:5] == ["H", "B", "k_blocks",
                                           "dense_flops", "sparse_flops"]
        benches.append([r.split(",")[:5] + r.split(",")[7:]
                        for r in lines[1:]])
    assert set(snaps[0]) == set(snaps[1])
    for rel in sorted(snaps[0]):
        assert snaps[0][rel] == snaps[1][rel], (
            f"{rel} differs between identical reruns")
    assert benches[0] == benches[1]
    elapsed_under(t0, 120)
