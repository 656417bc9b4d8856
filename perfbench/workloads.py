"""The two seeded workloads, written against storerank's public API.

Every library call goes through its module attribute (``model.fit``,
not a name imported at load time), so the traced pass sees the
wrappers that ``tracing`` installs.  Set-up and the timed pass use only
the stable entry points: ``gen_synthetic``, ``random_split``,
``encode_features``, ``train_opmq``, ``tokenize_catalog``, ``fit``,
``evaluate``, ``save_store`` and ``load_store``, plus the config
classes and ``default_groups`` they take.

A set-up generates, splits and encodes the data.  Every pass runs the
same pipeline: fit the tokenizer, tokenize the catalog, fit the model,
save and reload it, and score the held-out rows with the reloaded
model.  The workloads differ in data shape and configs.  A pass fills
a record of what it did: the ``evaluate`` result, row and item counts
for the rate metrics, and the fitted model for the orthogonality check.
"""

from dataclasses import dataclass
from typing import Callable

from storerank import data, model, tokenizer


def new_record():
    return {"models": []}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    auc_floor: float        # val_auc must exceed this on any seed
    setup: Callable         # (seed, workdir) -> state
    opmq: tokenizer.OpmqConfig
    store: model.StoreConfig
    eval_repeats: int       # back-to-back evaluate calls, so scoring lasts ~1 s

    def run(self, st, clock, record):
        with clock.phase("opmq"):
            qmodel, _ = tokenizer.train_opmq(st["table"], self.opmq)
        record["tok_items"] = len(st["table"]) * self.opmq.epochs
        with clock.phase("tok"):
            sids = tokenizer.tokenize_catalog(st["table"], qmodel)
        record["catalog_items"] = len(st["table"])
        with clock.phase("fit"):
            fitted, _ = model.fit(st["train"], None, self.store, st["groups"],
                                  sid_table=None if self.store.use_raw_ids else sids)
        record["train_rows"] = len(st["train"]) * self.store.epochs
        record["models"].append(fitted)
        path = st["workdir"] / "model.strm"
        with clock.phase("save"):
            model.save_store(path, fitted)
        with clock.phase("load"):
            loaded = model.load_store(path)
        with clock.phase("eval"):
            results = [model.evaluate(loaded, st["val"])
                       for _ in range(self.eval_repeats)]
        record["eval"] = results[0]
        record["eval_repeats_match"] = all(r == results[0] for r in results)
        record["eval_rows"] = len(st["val"]) * self.eval_repeats


def _encoded(ds, table, train, val, workdir):
    tr, va, _ = data.encode_features(train, val, ds.schema)
    return {"train": tr, "val": va, "table": table, "workdir": workdir,
            "groups": model.default_groups(ds.schema)}


def _random_split_setup(**spec):
    def setup(seed, workdir):
        ds, table = data.gen_synthetic(data.SyntheticSpec(seed=seed, **spec))
        train, val = data.random_split(ds, val_fraction=0.2, seed=seed)
        return _encoded(ds, table, train, val, workdir)
    return setup


WORKLOADS = {w.name: w for w in [
    # the paper's public setting (H=3): attention and backward dominate fit
    Workload("sid_public", 5, 0.65, _random_split_setup(n_instances=40_000),
             tokenizer.OpmqConfig(k=3, v=16, epochs=40, seed=0),
             model.StoreConfig(h=3, v=16, lr=3e-3, batch_size=512, epochs=2, seed=0),
             eval_repeats=5),
    # the raw-id ablation on a 60k-item long tail: dense embedding
    # gradients and Adam dominate fit.  The tokenizer is the SID arm's,
    # which the ablation needs; the raw-id model ignores its codes.
    Workload("rawid_longtail", 11, 0.53,
             _random_split_setup(n_instances=40_000, n_items=60_000, n_users=400),
             tokenizer.OpmqConfig(k=3, v=16, epochs=1, seed=0),
             model.StoreConfig(h=3, v=16, lr=3e-3, batch_size=512, epochs=1,
                               use_raw_ids=True, hash_buckets=1 << 17, seed=0),
             eval_repeats=5),
]}
