"""Command-line front end.

Seven subcommands cover the full workflow: ``gen-synthetic`` writes a
click log plus item embeddings, ``train-tokenizer`` fits a quantizer
(multi-expert or the residual baseline), ``tokenize`` maps a catalog to
SID codes, ``train`` / ``eval`` handle the ranking model, ``sweep`` runs
a grid over epochs, SID count, depth and sparsity, and
``bench-attention`` times the standalone kernels.

Configuration precedence, lowest to highest: built-in defaults, then a
``--preset`` (K and V), then a JSON config file (``--config``), then
explicit command-line flags, then the STORE_SEED environment variable
for the seed field.  Every command writes the fully resolved
configuration next to its outputs as ``resolved_config.json`` so a run
can be replayed exactly; identical resolved configs produce
byte-identical logs and artifacts (benchmark wall times excepted, they
measure the machine, not the config).

Errors print a single ``error: <reason>`` line on stderr and exit
nonzero.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller set a count: the model's products are
# small enough that threads cost more than they save.  Set before numpy
# loads BLAS, so it holds for the script and ``python -m storerank.cli``.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse
import json
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .attention import bench_attention
from .data import (SyntheticSpec, chrono_split, encode_features, gen_synthetic,
                   load_dataset_cache, random_split, save_dataset_cache)
from .model import (StoreConfig, default_groups, evaluate, fit, load_store,
                    model_flops, save_store)
from .tokenizer import (OpmqConfig, load_opmq, read_embeddings, read_sids,
                        save_opmq, tokenize_catalog, train_opmq,
                        train_rq_baseline, write_embeddings, write_sids)

# mirrors the quantizer settings (K, V) reported for the two deployment scales
PRESETS = {"public": (3, 16), "industrial": (32, 300)}

BENCH_COLUMNS = ["H", "B", "k_blocks", "dense_flops", "sparse_flops",
                 "wall_time_dense_ms", "wall_time_sparse_ms",
                 "max_abs_diff_at_rho1"]


class CliError(Exception):
    """User-facing failure; rendered as one line on stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise CliError(f"config file: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"config file {path}: {e}")
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path}: expected a JSON object")
    return cfg


def _fits(value, like):
    """Whether a config-file value has the type of ``like``: a bool is
    not a number, an int is a valid float, and a list holds one or more
    values of the type of ``like``'s first."""
    if isinstance(like, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_fits(x, like[0]) for x in value))
    if isinstance(value, bool) != isinstance(like, bool):
        return False
    return isinstance(value, (int, float) if isinstance(like, float) else type(like))


def resolve(defaults, args, extra_keys=(), preset_keys=None):
    """Merge defaults <- preset <- config file <- explicit flags <- STORE_SEED.

    ``defaults`` maps every legal key to its default; unknown config-file
    keys are an error so typos do not silently vanish.  A config-file
    value must have its default's type; a key whose default is None
    takes its flag's type, or stays None.  ``preset_keys`` names the
    (K, V) keys that a ``preset`` (from a flag or the file) sets.
    """
    merged = dict(defaults)
    for k in extra_keys:
        merged.setdefault(k, None)
    from_file = _load_config_file(getattr(args, "config", None))
    unknown = set(from_file) - set(merged)
    if unknown:
        raise CliError(f"config file: unknown keys {sorted(unknown)}")
    for k, v in from_file.items():
        like = args.flag_types[k]() if merged[k] is None else merged[k]
        if not (v is None and merged[k] is None or _fits(v, like)):
            raise CliError(f"config file: {k} must be of type "
                           f"{type(like).__name__}, got {v!r}")
    flags = {k: getattr(args, k) for k in merged
             if getattr(args, k, None) is not None}
    preset = flags.get("preset", from_file.get("preset"))
    if preset_keys is not None and preset is not None:
        if preset not in PRESETS:
            raise CliError(f"unknown preset {preset!r} (choose from "
                           f"{sorted(PRESETS)})")
        merged.update(zip(preset_keys, PRESETS[preset]))
    merged.update(from_file)
    merged.update(flags)
    if "seed" in merged and os.environ.get("STORE_SEED"):
        try:
            merged["seed"] = int(os.environ["STORE_SEED"])
        except ValueError:
            raise CliError(f"STORE_SEED must be an integer, got "
                           f"{os.environ['STORE_SEED']!r}")
    return merged


def _out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_resolved(out_dir, command, resolved):
    body = {"command": command, **{k: resolved[k] for k in sorted(resolved)}}
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
        json.dump(body, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_csv(path, columns, rows):
    """A header line, then one line per row dict; floats in repr form."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(repr(row[c]) if isinstance(row[c], float)
                             else str(row[c]) for c in columns) + "\n")


def _require(path, what):
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    return path


def _numbers(text, cast=int):
    """Comma-separated numbers, each parsed by ``cast``; at least one."""
    try:
        values = [cast(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise CliError(f"expected comma-separated {cast.__name__}s, got {text!r}")
    if not values:
        raise ValueError(f"expected at least one number, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synthetic(args):
    defaults = {f.name: f.default for f in fields(SyntheticSpec)}
    defaults["static_cards"] = list(SyntheticSpec.static_cards)
    resolved = resolve(defaults, args)
    if getattr(args, "static_cards", None) is not None:
        resolved["static_cards"] = _numbers(args.static_cards)
    out = _out_dir(args.out)
    spec = SyntheticSpec(**{**resolved,
                            "static_cards": tuple(resolved["static_cards"])})
    ds, table = gen_synthetic(spec)
    save_dataset_cache(os.path.join(out, "data.strd"), ds)
    write_embeddings(os.path.join(out, "embeddings.csv"), table)
    _write_resolved(out, "gen-synthetic", resolved)
    print(f"wrote {len(ds)} instances, {len(table.ids)} item embeddings to {out}")
    return 0


def cmd_train_tokenizer(args):
    defaults = {f.name: f.default for f in fields(OpmqConfig)}
    defaults.update(backend="opmq", preset=None)
    resolved = resolve(defaults, args, preset_keys=("k", "v"))
    backend = resolved["backend"]
    if backend not in ("opmq", "rq"):
        raise CliError(f"unknown backend {backend!r}")
    cfg = _config(OpmqConfig, resolved)
    table = read_embeddings(_require(args.embeddings, "embeddings file"))
    out = _out_dir(args.out)
    if backend == "opmq":
        model, log = train_opmq(table, cfg)
        save_opmq(os.path.join(out, "tokenizer.opmq"), model)
        _write_jsonl(os.path.join(out, "tokenizer_log.jsonl"), log)
    else:
        sids, stage_rms = train_rq_baseline(table, cfg)
        write_sids(os.path.join(out, "sids.csv"), sids)
        _write_jsonl(os.path.join(out, "tokenizer_log.jsonl"),
                     [{"stage": i + 1, "rms": r}
                      for i, r in enumerate(stage_rms)])
    _write_resolved(out, "train-tokenizer", resolved)
    print(f"trained {backend} tokenizer on {len(table.ids)} items -> {out}")
    return 0


def cmd_tokenize(args):
    resolved = resolve({}, args, extra_keys=("embeddings", "tokenizer"))
    table = read_embeddings(_require(args.embeddings, "embeddings file"))
    model = load_opmq(_require(args.tokenizer, "tokenizer artifact"))
    out = _out_dir(args.out)
    sids = tokenize_catalog(table, model)
    write_sids(os.path.join(out, "sids.csv"), sids)
    _write_resolved(out, "tokenize", resolved)
    print(f"tokenized {len(sids)} items -> {out}")
    return 0


def _train_defaults():
    defaults = {f.name: f.default for f in fields(StoreConfig)}
    defaults.update(val_fraction=0.2, split="random", split_seed=0,
                    emb_dim=8, d_g=16, preset=None)
    return defaults


def _split_encode(data_path, resolved):
    ds = load_dataset_cache(_require(data_path, "dataset cache"))
    if resolved["split"] == "chrono":
        train, val = chrono_split(ds, resolved["val_fraction"])
    elif resolved["split"] == "random":
        train, val = random_split(ds, resolved["val_fraction"],
                                  seed=resolved["split_seed"])
    else:
        raise CliError(f"unknown split {resolved['split']!r}")
    tr, va, _ = encode_features(train, val, ds.schema)
    return ds, tr, va


def _resolve_train(args, defaults):
    """Resolve the flags ``train`` and ``sweep`` share: the preset,
    ``--raw-id`` and ``--no-rotation``."""
    resolved = resolve(defaults, args, extra_keys=("data", "sids"),
                       preset_keys=("h", "v"))
    if args.raw_id:
        resolved["use_raw_ids"] = True
    if args.no_rotation:
        resolved["use_rotation"] = False
    # the flag contract: the raw-id ablation and a tokenizer artifact are
    # mutually exclusive, and this must fail before any data is touched
    if resolved["use_raw_ids"] and resolved["sids"]:
        raise CliError("--raw-id forbids --sids; pick one item pathway")
    return resolved


def _config(cls, resolved):
    """The ``cls`` dataclass from the resolved keys that are its fields."""
    return cls(**{f.name: resolved[f.name] for f in fields(cls)})


def cmd_train(args):
    resolved = _resolve_train(args, _train_defaults())
    if not resolved["use_raw_ids"] and not resolved["sids"]:
        raise CliError("need --sids <file> (or --raw-id for the ablation)")
    config = _config(StoreConfig, resolved)
    sid_table = None
    if resolved["sids"]:
        sid_table = read_sids(_require(resolved["sids"], "SID file"))
    ds, tr, va = _split_encode(resolved["data"], resolved)
    groups = default_groups(ds.schema, emb_dim=resolved["emb_dim"],
                            d_g=resolved["d_g"])
    out = _out_dir(args.out)
    model, log = fit(tr, va, config, groups, sid_table=sid_table)
    save_store(os.path.join(out, "model.strm"), model)
    _write_jsonl(os.path.join(out, "epoch_log.jsonl"), log)
    _write_resolved(out, "train", resolved)
    last = log[-1]
    print(f"epoch {last['epoch']}: val_auc={last['val_auc']:.4f} "
          f"val_logloss={last['val_logloss']:.4f} -> {out}")
    return 0


def cmd_eval(args):
    resolved = resolve({"split": "val", "batch_size": 1024}, args,
                       extra_keys=("model", "data"))
    if resolved["split"] not in ("train", "val"):
        raise CliError(f"unknown split {resolved['split']!r}")
    model = load_store(_require(resolved["model"], "model artifact"))
    with open(os.path.join(os.path.dirname(resolved["model"]),
                           "resolved_config.json")) as f:
        train_cfg = json.load(f)
    ds, tr, va = _split_encode(resolved["data"], train_cfg)
    part = tr if resolved["split"] == "train" else va
    report = evaluate(model, part, batch_size=resolved["batch_size"])
    out = _out_dir(args.out)
    with open(os.path.join(out, "metrics.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_resolved(out, "eval", resolved)
    print(f"{resolved['split']}: auc={report['auc']:.4f} "
          f"gauc={report['gauc']:.4f} logloss={report['logloss']:.4f}")
    return 0


def cmd_bench_attention(args):
    defaults = {"h_values": [256, 512, 1024], "d_model": 256, "n_heads": 4,
                "block_size": 32, "rho": 0.5, "repeats": 7, "seed": 0}
    resolved = resolve(defaults, args)
    if getattr(args, "h_values", None) is not None:
        resolved["h_values"] = _numbers(args.h_values)
    out = _out_dir(args.out)
    rows = []
    for h in resolved["h_values"]:
        rows.append(bench_attention(h, d_model=resolved["d_model"],
                                    n_heads=resolved["n_heads"],
                                    block_size=resolved["block_size"],
                                    rho=resolved["rho"],
                                    repeats=resolved["repeats"],
                                    seed=resolved["seed"]))
    _write_csv(os.path.join(out, "bench.csv"), BENCH_COLUMNS, rows)
    _write_resolved(out, "bench-attention", resolved)
    for row in rows:
        sparse = row["wall_time_sparse_ms"]
        print(f"H={row['H']:5d} dense {row['wall_time_dense_ms']:8.3f} ms  "
              f"sparse {sparse:8.3f} ms  "
              f"full {row['wall_time_full_ms']:8.3f} ms  "
              f"sparse/full {sparse / row['wall_time_full_ms']:.2f}  "
              f"sparse/dense {sparse / row['wall_time_dense_ms']:.2f}")
    return 0


def cmd_sweep(args):
    defaults = _train_defaults()
    defaults.update(epochs_grid=[1], k_grid=None, layers_grid=None,
                    rho_grid=None, embeddings=None, tok_epochs=30)
    resolved = _resolve_train(args, defaults)
    for key, cast in (("epochs_grid", int), ("k_grid", int),
                      ("layers_grid", int), ("rho_grid", float)):
        if isinstance(resolved[key], str):      # a flag, or the file's text
            resolved[key] = _numbers(resolved[key], cast)
    k_grid = resolved["k_grid"] or [resolved["h"]]
    layers_grid = resolved["layers_grid"] or [resolved["n_layers"]]
    rho_grid = resolved["rho_grid"] or [resolved["rho"]]
    if (len(k_grid) > 1 and not resolved["use_raw_ids"]
            and not resolved["embeddings"]):
        raise CliError("sweeping k_sid needs --embeddings to retrain the "
                       "tokenizer per K")
    if not resolved["use_raw_ids"] and not (resolved["sids"] or
                                            resolved["embeddings"]):
        raise CliError("need --sids or --embeddings (or --raw-id)")

    ds, tr, va = _split_encode(resolved["data"], resolved)
    out = _out_dir(args.out)
    logs_dir = _out_dir(os.path.join(out, "logs"))
    groups = default_groups(ds.schema, emb_dim=resolved["emb_dim"],
                            d_g=resolved["d_g"])

    tables = {}

    def sid_table_for(k):
        if resolved["use_raw_ids"]:
            return None
        if k not in tables:
            if resolved["sids"] and k == resolved["h"]:
                tables[k] = read_sids(_require(resolved["sids"], "SID file"))
            else:
                emb = read_embeddings(_require(resolved["embeddings"],
                                               "embeddings file"))
                cfg = OpmqConfig(k=k, v=resolved["v"],
                                 epochs=resolved["tok_epochs"],
                                 seed=resolved["seed"])
                model, _ = train_opmq(emb, cfg)
                tables[k] = tokenize_catalog(emb, model)
        return tables[k]

    summary = []
    for epochs in resolved["epochs_grid"]:
        for k in k_grid:
            for n_layers in layers_grid:
                for rho in rho_grid:
                    setting = dict(resolved)
                    setting.update(epochs=epochs, h=k, n_layers=n_layers,
                                   rho=rho)
                    config = _config(StoreConfig, setting)
                    _, log = fit(tr, va, config, groups,
                                 sid_table=sid_table_for(k))
                    tag = f"epochs{epochs}_k{k}_L{n_layers}_rho{rho:g}"
                    _write_jsonl(os.path.join(logs_dir, tag + ".jsonl"), log)
                    last = log[-1]
                    summary.append({
                        "epochs": epochs, "k_sid": k, "layers": n_layers,
                        "rho": rho, "val_auc": last["val_auc"],
                        "val_gauc": last["val_gauc"],
                        "val_logloss": last["val_logloss"],
                        "train_loss": last["train_loss"],
                        "flops_per_batch": last["flops_per_batch"],
                    })
                    print(f"{tag}: val_auc={last['val_auc']:.4f} "
                          f"flops/batch={last['flops_per_batch']}")
    _write_csv(os.path.join(out, "sweep.csv"),
               ["epochs", "k_sid", "layers", "rho", "val_auc", "val_gauc",
                "val_logloss", "train_loss", "flops_per_batch"], summary)
    _write_resolved(out, "sweep", resolved)
    return 0


# ---------------------------------------------------------------------------
# argument grammar
# ---------------------------------------------------------------------------

def _add_config_out(p):
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = _Parser(prog="store-rank",
                     description="semantic-id ranking workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a synthetic click log")
    _add_config_out(p)
    for name in ("n_instances", "n_items", "n_users", "d_p", "n_clusters",
                 "n_user_tastes", "seed"):
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    for name in ("noise_rate", "interaction_scale", "linear_scale", "bias",
                 "embed_noise"):
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float)
    p.add_argument("--static-cards", dest="static_cards",
                   help="comma-separated cardinalities, e.g. 8,12")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train-tokenizer", help="fit a quantizer to embeddings")
    _add_config_out(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--backend", choices=["opmq", "rq"])
    p.add_argument("--preset", choices=sorted(PRESETS))
    for name in ("k", "v", "d_z", "batch_size", "epochs", "reinit_every",
                 "seed"):
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    for name in ("w_orth", "beta", "lr"):
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float)
    p.add_argument("--activation", choices=["tanh", "linear"])
    p.add_argument("--orth-weights", dest="orth_weights",
                   choices=["hidden", "all"])
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("tokenize", help="map a catalog to SID codes")
    _add_config_out(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--tokenizer", required=True)
    p.set_defaults(func=cmd_tokenize)

    def add_train_flags(p, required_data=True):
        _add_config_out(p)
        p.add_argument("--data", required=required_data)
        p.add_argument("--sids")
        p.add_argument("--raw-id", dest="raw_id", action="store_true",
                       help="hashed-id ablation instead of SID tokens")
        p.add_argument("--no-rotation", dest="no_rotation",
                       action="store_true")
        p.add_argument("--preset", choices=sorted(PRESETS))
        for name in ("h", "v", "d_s", "d", "n_layers", "n_heads",
                     "block_size", "hash_buckets", "epochs", "batch_size",
                     "seed", "split_seed", "emb_dim", "d_g"):
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
        for name in ("rho", "lam", "lr", "rot_lr", "val_fraction"):
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=float)
        p.add_argument("--split", choices=["random", "chrono"])

    p = sub.add_parser("train", help="train the ranking model")
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained model")
    _add_config_out(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val"])
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench-attention", help="time the attention kernels")
    _add_config_out(p)
    p.add_argument("--h-values", dest="h_values",
                   help="comma-separated sequence lengths")
    for name in ("d_model", "n_heads", "block_size", "repeats", "seed"):
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    p.add_argument("--rho", type=float)
    p.set_defaults(func=cmd_bench_attention)

    p = sub.add_parser("sweep", help="grid over epochs / k_sid / layers / rho")
    add_train_flags(p)
    p.add_argument("--embeddings", help="needed when sweeping k_sid")
    p.add_argument("--epochs-grid", dest="epochs_grid")
    p.add_argument("--k-grid", dest="k_grid")
    p.add_argument("--layers-grid", dest="layers_grid")
    p.add_argument("--rho-grid", dest="rho_grid")
    p.add_argument("--tok-epochs", dest="tok_epochs", type=int)
    p.set_defaults(func=cmd_sweep)

    # argparse parses an untyped flag as text
    for p in sub.choices.values():
        p.set_defaults(flag_types={a.dest: a.type or str for a in p._actions})
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
