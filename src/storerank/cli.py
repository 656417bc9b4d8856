"""Command-line front end.

Seven subcommands cover the full workflow: ``gen-synthetic`` writes a
click log plus item embeddings, ``train-tokenizer`` fits a quantizer
(multi-expert or the residual baseline), ``tokenize`` maps a catalog to
SID codes, ``train`` / ``eval`` handle the ranking model, ``sweep`` runs
a grid over epochs, SID count, depth and sparsity, and
``bench-attention`` times the standalone kernels.

Each subcommand declares its options once, in ``COMMANDS``: the fields
of its config dataclass plus a short table of its own keys (input paths,
backend, preset, grids).  Its flags, its config-file checks and
the keys of its ``resolved_config.json`` all derive from that.

Configuration precedence, lowest to highest: built-in defaults, then a
``--preset`` (K and V), then a JSON config file (``--config``), then
explicit command-line flags, then the STORE_SEED environment variable
for the seed field.  A config file may set any option, input paths
included; each value must have its option's type and choices.  A number
list is comma text ("1,2,4") or a JSON list, from a flag or a file.
Every command writes the fully resolved configuration next to its
outputs as ``resolved_config.json``, and ``store-rank <cmd> --config
<run>/resolved_config.json --out <dir>`` replays the run byte for byte
(benchmark wall times excepted, they measure the machine, not the
config).

Errors print a single ``error: <reason>`` line on stderr and exit
nonzero; warnings print one ``warning: <message>`` line each.
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
import inspect
import json
import sys
import warnings
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from . import artifact
from .attention import bench_attention
from .data import (SyntheticSpec, encode_features, gen_synthetic,
                   load_dataset_cache, random_split, save_dataset_cache)
from .metrics import gauc
from .model import (StoreConfig, check_sid_table, default_groups, evaluate,
                    fit, load_store, save_store, sid_rows)
from .options import Opt, dataclass_options, mismatch
from .tokenizer import (OpmqConfig, load_opmq, read_embeddings, read_sids,
                        save_opmq, tokenize_catalog, train_opmq,
                        train_rq_baseline, write_embeddings, write_sids)

# mirrors the quantizer settings (K, V) reported for the two deployment scales
PRESETS = {"public": (3, 16), "industrial": (32, 300)}

BENCH_COLUMNS = ["H", "B", "k_blocks", "dense_flops", "sparse_flops",
                 "wall_time_dense_ms", "wall_time_sparse_ms",
                 "max_abs_diff_at_rho1"]
# a sweep setting, then the last epoch's log fields
SWEEP_COLUMNS = ["epochs", "k_sid", "layers", "rho", "val_auc", "val_gauc",
                 "val_logloss", "train_loss", "flops_per_batch"]


class CliError(Exception):
    """User-facing failure; rendered as one line on stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# option declarations
# ---------------------------------------------------------------------------

def _keywords(func):
    """An option per keyword parameter of ``func``, typed by its default."""
    return {name: Opt(p.default, type(p.default))
            for name, p in inspect.signature(func).parameters.items()
            if p.default is not p.empty}


def _flag(key):
    return "--" + key.replace("_", "-")


INPUT = Opt(required=True, help="required, as a flag or a config-file key")
PRESET = Opt(choices=tuple(sorted(PRESETS)))

TRAIN_OPTIONS = {
    **dataclass_options(StoreConfig,
                        use_raw_ids={"flag": "--raw-id", "help": "hashed-id "
                                     "ablation instead of SID tokens"},
                        use_rotation={"flag": "--no-rotation"}),
    "data": INPUT, "sids": Opt(), "preset": PRESET,
    "val_fraction": Opt(0.2, float), "split_seed": Opt(0, int),
    "emb_dim": Opt(8, int), "d_g": Opt(16, int),
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read_config(path, command, options):
    """The JSON object at ``path``, checked against ``options``: no
    unknown key, every value fits its option, and a ``command`` key, if
    any, names ``command``.  Errors start with the path."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise CliError(f"config file: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: {e}")
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: expected a JSON object")
    named = cfg.pop("command", command)
    if named != command:
        raise CliError(f"{path}: written by {named!r}, not {command!r}")
    unknown = set(cfg) - set(options)
    if unknown:
        raise CliError(f"{path}: unknown keys {sorted(unknown)}")
    for k, v in cfg.items():
        reason = mismatch(k, v, options[k])
        if reason:
            raise CliError(f"{path}: {reason}")
    return cfg


def resolve(command, args):
    """Merge defaults <- preset <- config file <- explicit flags <- STORE_SEED
    over ``command``'s options, then parse its number lists and require
    its inputs.  A ``preset`` (from a flag or the file) sets the
    command's (K, V) keys."""
    cmd = COMMANDS[command]
    merged = {k: opt.default for k, opt in cmd.options.items()}
    from_file = (_read_config(args.config, command, cmd.options)
                 if args.config is not None else {})
    flags = {k: getattr(args, k) for k in merged
             if getattr(args, k, None) is not None}
    preset = flags.get("preset", from_file.get("preset"))
    if preset is not None:
        merged.update(zip(cmd.preset_keys, PRESETS[preset]))
    merged.update(from_file)
    merged.update(flags)
    if "seed" in merged and os.environ.get("STORE_SEED"):
        try:
            merged["seed"] = int(os.environ["STORE_SEED"])
        except ValueError:
            raise CliError(f"STORE_SEED must be an integer, got "
                           f"{os.environ['STORE_SEED']!r}")
    for k, opt in cmd.options.items():
        if opt.many and merged[k] is not None:
            merged[k] = _numbers(merged[k], opt.kind)
        if opt.required and merged[k] is None:
            raise CliError(f"need {_flag(k)} (a flag or a config-file key)")
    return merged


def _numbers(text, cast=int):
    """Comma-separated numbers (or a list of them), each parsed by
    ``cast``; at least one."""
    if isinstance(text, list):
        text = ",".join(map(str, text))
    try:
        values = [cast(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        raise CliError(f"expected comma-separated {cast.__name__}s, got {text!r}")
    return values


def _config(cls, cfg):
    """The ``cls`` dataclass from the resolved keys that are its fields."""
    return cls(**{f.name: tuple(cfg[f.name]) if isinstance(cfg[f.name], list)
                  else cfg[f.name] for f in fields(cls)})


def _out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, obj):
    artifact.write_text(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _write_jsonl(path, records):
    artifact.write_text(path, [json.dumps(r, sort_keys=True) + "\n" for r in records])


def _write_csv(path, columns, rows):
    """A header line, then one line per row dict; floats in repr form."""
    lines = [columns, *([repr(r[c]) if isinstance(r[c], float) else str(r[c])
                         for c in columns] for r in rows)]
    artifact.write_text(path, [",".join(line) + "\n" for line in lines])


def _require(path, what):
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    return path


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config and the output directory
# ---------------------------------------------------------------------------

def cmd_gen_synthetic(cfg, out):
    ds, table = gen_synthetic(_config(SyntheticSpec, cfg))
    out = _out_dir(out)
    save_dataset_cache(os.path.join(out, "data.strd"), ds)
    write_embeddings(os.path.join(out, "embeddings.stre"), table)
    print(f"wrote {len(ds)} instances, {len(table.ids)} item embeddings to {out}")


def cmd_train_tokenizer(cfg, out):
    config = _config(OpmqConfig, cfg)
    table = read_embeddings(_require(cfg["embeddings"], "embeddings file"))
    if cfg["backend"] == "opmq":
        model, log = train_opmq(table, config)
    else:
        sids, stage_rms = train_rq_baseline(table, config)
        log = [{"stage": i + 1, "rms": r} for i, r in enumerate(stage_rms)]
    out = _out_dir(out)
    if cfg["backend"] == "opmq":
        save_opmq(os.path.join(out, "tokenizer.opmq"), model)
    else:
        write_sids(os.path.join(out, "sids.strs"), sids)
    _write_jsonl(os.path.join(out, "tokenizer_log.jsonl"), log)
    print(f"trained {cfg['backend']} tokenizer on {len(table.ids)} items -> {out}")


def cmd_tokenize(cfg, out):
    table = read_embeddings(_require(cfg["embeddings"], "embeddings file"))
    model = load_opmq(_require(cfg["tokenizer"], "tokenizer artifact"))
    sids = tokenize_catalog(table, model)
    write_sids(os.path.join(_out_dir(out), "sids.strs"), sids)
    print(f"tokenized {len(sids)} items -> {out}")


def _split_encode(data_path, cfg):
    ds = load_dataset_cache(_require(data_path, "dataset cache"))
    train, val = random_split(ds, cfg["val_fraction"], seed=cfg["split_seed"])
    tr, va, _ = encode_features(train, val, ds.schema)
    return ds, tr, va


def _check_coverage(table, train, val):
    # fit would refuse an item without codes only once --out exists; a
    # SID table made from an embedding table has the same items
    for part in (train, val):
        sid_rows(table, part.raw_items)


def _check_val(val):
    # fit would find AUC or GAUC undefined only after its first epoch;
    # gauc on constant scores raises exactly when either is undefined
    try:
        gauc(val.labels, np.zeros(len(val)), val.groups)
    except ValueError as e:
        raise ValueError(f"validation split ({len(val)} rows): {e}")


def _check_raw_id(cfg):
    # the flag contract: the raw-id ablation and a tokenizer artifact are
    # mutually exclusive, and this must fail before any data is touched
    if cfg["use_raw_ids"] and cfg["sids"]:
        raise CliError("--raw-id forbids --sids; pick one item pathway")


def cmd_train(cfg, out):
    _check_raw_id(cfg)
    if not cfg["use_raw_ids"] and not cfg["sids"]:
        raise CliError("need --sids <file> (or --raw-id for the ablation)")
    config = _config(StoreConfig, cfg)
    sid_table = None
    if cfg["sids"]:
        sid_table = read_sids(_require(cfg["sids"], "SID file"))
        check_sid_table(sid_table, config)
    ds, tr, va = _split_encode(cfg["data"], cfg)
    _check_val(va)
    if sid_table is not None:
        _check_coverage(sid_table, tr, va)
    groups = default_groups(ds.schema, emb_dim=cfg["emb_dim"], d_g=cfg["d_g"])
    out = _out_dir(out)
    model, log = fit(tr, va, config, groups, sid_table=sid_table)
    save_store(os.path.join(out, "model.strm"), model)
    _write_jsonl(os.path.join(out, "epoch_log.jsonl"), log)
    last = log[-1]
    print(f"epoch {last['epoch']}: val_auc={last['val_auc']:.4f} "
          f"val_logloss={last['val_logloss']:.4f} -> {out}")


def cmd_eval(cfg, out):
    model = load_store(_require(cfg["model"], "model artifact"))
    # the training run's split, read as that run's own config file
    path = os.path.join(os.path.dirname(cfg["model"]), "resolved_config.json")
    train_cfg = _read_config(path, "train", TRAIN_OPTIONS)
    missing = sorted({"val_fraction", "split_seed"} - set(train_cfg))
    if missing:
        raise CliError(f"{path}: missing keys {missing}")
    ds, tr, va = _split_encode(cfg["data"], train_cfg)
    part = tr if cfg["split"] == "train" else va
    report = evaluate(model, part, batch_size=cfg["batch_size"])
    _write_json(os.path.join(_out_dir(out), "metrics.json"), report)
    print(f"{cfg['split']}: auc={report['auc']:.4f} "
          f"gauc={report['gauc']:.4f} logloss={report['logloss']:.4f}")


def cmd_bench_attention(cfg, out):
    kwargs = {k: cfg[k] for k in _keywords(bench_attention)}
    rows = [bench_attention(h, **kwargs) for h in cfg["h_values"]]
    out = _out_dir(out)
    _write_csv(os.path.join(out, "bench.csv"), BENCH_COLUMNS, rows)
    for row in rows:
        sparse = row["wall_time_sparse_ms"]
        print(f"H={row['H']:5d} dense {row['wall_time_dense_ms']:8.3f} ms  "
              f"sparse {sparse:8.3f} ms  "
              f"full {row['wall_time_full_ms']:8.3f} ms  "
              f"sparse/full {sparse / row['wall_time_full_ms']:.2f}  "
              f"sparse/dense {sparse / row['wall_time_dense_ms']:.2f}")


def cmd_sweep(cfg, out):
    _check_raw_id(cfg)
    epochs_grid = cfg["epochs_grid"] or [cfg["epochs"]]
    k_grid = cfg["k_grid"] or [cfg["h"]]
    layers_grid = cfg["layers_grid"] or [cfg["n_layers"]]
    rho_grid = cfg["rho_grid"] or [cfg["rho"]]
    other_k = [k for k in k_grid if k != cfg["h"]]
    if other_k and not cfg["use_raw_ids"] and not cfg["embeddings"]:
        raise CliError(f"sweeping k_sid to {other_k[0]} (not --h {cfg['h']}) "
                       "needs --embeddings to retrain the tokenizer per K")
    if not cfg["use_raw_ids"] and not (cfg["sids"] or cfg["embeddings"]):
        raise CliError("need --sids or --embeddings (or --raw-id)")
    # every setting, and the tokenizer of every K the --sids file does
    # not serve, is built, so refused, before any is fitted
    settings = [_config(StoreConfig, {**cfg, "epochs": epochs, "h": k,
                                      "n_layers": n_layers, "rho": rho})
                for epochs in epochs_grid for k in k_grid
                for n_layers in layers_grid for rho in rho_grid]
    tok_configs = {} if cfg["use_raw_ids"] else {
        k: OpmqConfig(k=k, v=cfg["v"], epochs=cfg["tok_epochs"], seed=cfg["seed"])
        for k in k_grid if not (cfg["sids"] and k == cfg["h"])}
    tags = [f"epochs{c.epochs}_k{c.h}_L{c.n_layers}_rho{c.rho:g}" for c in settings]
    for tag in tags:
        if tags.count(tag) > 1:
            raise CliError(f"two sweep settings share the log tag {tag}")
    tables = {}     # K -> SID table; the --sids file serves K = --h
    if cfg["sids"] and cfg["h"] in k_grid:
        tables[cfg["h"]] = read_sids(_require(cfg["sids"], "SID file"))
        check_sid_table(tables[cfg["h"]], _config(StoreConfig, cfg))
    emb = None      # the catalog that every other K's SID table comes from
    if tok_configs:
        emb = read_embeddings(_require(cfg["embeddings"], "embeddings file"))

    ds, tr, va = _split_encode(cfg["data"], cfg)
    _check_val(va)
    for table in (*tables.values(), emb):
        if table is not None:
            _check_coverage(table, tr, va)
    out = _out_dir(out)
    logs_dir = _out_dir(os.path.join(out, "logs"))
    groups = default_groups(ds.schema, emb_dim=cfg["emb_dim"], d_g=cfg["d_g"])

    def sid_table_for(k):
        if k in tok_configs and k not in tables:
            model, _ = train_opmq(emb, tok_configs[k])
            tables[k] = tokenize_catalog(emb, model)
        return tables.get(k)

    summary = []
    for config, tag in zip(settings, tags):
        _, log = fit(tr, va, config, groups, sid_table=sid_table_for(config.h))
        _write_jsonl(os.path.join(logs_dir, tag + ".jsonl"), log)
        last = log[-1]
        summary.append({"epochs": config.epochs, "k_sid": config.h,
                        "layers": config.n_layers, "rho": config.rho,
                        **{c: last[c] for c in SWEEP_COLUMNS[4:]}})
        print(f"{tag}: val_auc={last['val_auc']:.4f} "
              f"flops/batch={last['flops_per_batch']}")
    _write_csv(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS, summary)


# ---------------------------------------------------------------------------
# the one declaration of every subcommand, and the flags derived from it
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    run: Callable
    help: str
    options: dict
    preset_keys: tuple = ()


COMMANDS = {
    "gen-synthetic": Command(
        cmd_gen_synthetic, "write a synthetic click log",
        dataclass_options(SyntheticSpec, static_cards={
            "help": "comma-separated cardinalities, e.g. 8,12"})),
    "train-tokenizer": Command(
        cmd_train_tokenizer, "fit a quantizer to embeddings",
        {**dataclass_options(OpmqConfig),
         "embeddings": INPUT, "preset": PRESET,
         "backend": Opt("opmq", choices=("opmq", "rq"))},
        preset_keys=("k", "v")),
    "tokenize": Command(
        cmd_tokenize, "map a catalog to SID codes",
        {"embeddings": INPUT, "tokenizer": INPUT}),
    "train": Command(cmd_train, "train the ranking model", TRAIN_OPTIONS,
                     preset_keys=("h", "v")),
    "eval": Command(
        cmd_eval, "score a trained model",
        {"model": INPUT, "data": INPUT, "batch_size": Opt(1024, int),
         "split": Opt("val", choices=("train", "val"))}),
    "bench-attention": Command(
        cmd_bench_attention, "time the attention kernels",
        {"h_values": Opt([256, 512, 1024], int, many=True,
                         help="comma-separated sequence lengths"),
         **_keywords(bench_attention)}),
    "sweep": Command(
        cmd_sweep, "grid over epochs / k_sid / layers / rho",
        {**TRAIN_OPTIONS, "embeddings": Opt(help="needed when sweeping k_sid"),
         "epochs_grid": Opt(None, int, many=True),
         "k_grid": Opt(None, int, many=True),
         "layers_grid": Opt(None, int, many=True),
         "rho_grid": Opt(None, float, many=True),
         "tok_epochs": Opt(30, int)},
        preset_keys=("h", "v")),
}


def build_parser():
    parser = _Parser(prog="store-rank",
                     description="semantic-id ranking workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", required=True, help="output directory")
        for key, opt in cmd.options.items():
            if opt.kind is not bool:
                p.add_argument(_flag(key), dest=key, help=opt.help,
                               type=str if opt.many else opt.kind,
                               choices=opt.choices)
            elif opt.flag:
                p.add_argument(opt.flag, dest=key, help=opt.help,
                               action="store_const", const=not opt.default)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            args = build_parser().parse_args(argv)
            cfg = resolve(args.command, args)
            COMMANDS[args.command].run(cfg, args.out)
            _write_json(os.path.join(args.out, "resolved_config.json"),
                        {"command": args.command, **cfg})
            return 0
        except CliError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except (ValueError, OSError, FloatingPointError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
