"""The full pipeline: synthetic click log to trained CTR ranker.

Generates a log whose labels depend on user-taste x item-cluster
interactions, tokenizes the catalog, trains the token model, and
compares it against a one-hot logistic baseline that by construction
cannot see those interactions.  The same pipeline is available from the
command line:

    store-rank gen-synthetic --n-instances 40000 --out runs/data
    store-rank train-tokenizer --embeddings runs/data/embeddings.csv --out runs/tok
    store-rank tokenize --embeddings runs/data/embeddings.csv \
        --tokenizer runs/tok/tokenizer.opmq --out runs/sids
    store-rank train --data runs/data/data.strd --sids runs/sids/sids.csv \
        --epochs 2 --out runs/model
    store-rank eval --model runs/model/model.strm --data runs/data/data.strd \
        --out runs/eval
"""

import numpy as np

from storerank.data import SyntheticSpec, encode_features, gen_synthetic, random_split
from storerank.metrics import auc, gauc, logloss
from storerank.model import (StoreConfig, default_groups, fit, flops_ratio,
                             train_lr_baseline)
from storerank.tokenizer import OpmqConfig, tokenize_catalog, train_opmq

spec = SyntheticSpec(n_instances=40_000, n_items=600, n_users=150,
                     n_clusters=12, seed=5)
ds, table = gen_synthetic(spec)
train, val = random_split(ds, val_fraction=0.2, seed=1)
tr, va, vocab = encode_features(train, val, ds.schema)
print(f"log: {len(tr)} train / {len(va)} val instances, "
      f"{len(table)} items, ctr {ds.labels.mean():.3f}")

qmodel, _ = train_opmq(table, OpmqConfig(k=3, v=16, epochs=25, seed=0))
sids = tokenize_catalog(table, qmodel)

groups = default_groups(ds.schema)
cfg = StoreConfig(h=3, v=16, n_layers=2, rho=0.5, epochs=2,
                  batch_size=512, lr=3e-3, seed=0)
print(f"vanilla (rho=1) / routed attention cost ratio: "
      f"{flops_ratio(cfg, groups):.3f}")

model, log = fit(tr, va, cfg, groups, sid_table=sids)
for rec in log:
    print(f"  epoch {rec['epoch']}  loss {rec['train_loss']:.4f}  "
          f"val auc {rec['val_auc']:.4f}  val gauc {rec['val_gauc']:.4f}")

lr_scores, _ = train_lr_baseline(tr, va, epochs=2)
keys = va.features[ds.schema.group_col]
lr_auc = auc(va.labels, lr_scores)

print(f"\n{'model':<22}{'val auc':>9}{'val gauc':>10}{'val logloss':>13}")
print(f"{'one-hot logistic':<22}{lr_auc:>9.4f}"
      f"{gauc(va.labels, lr_scores, keys):>10.4f}"
      f"{logloss(va.labels, lr_scores):>13.4f}")
print(f"{'token model':<22}{log[-1]['val_auc']:>9.4f}"
      f"{log[-1]['val_gauc']:>10.4f}{log[-1]['val_logloss']:>13.4f}")
print(f"\nauc lift: {log[-1]['val_auc'] - lr_auc:+.4f} "
      f"(interactions the one-hot model cannot represent)")
