"""Subcommand wiring: config precedence, flag contracts, artifacts, reruns."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import storerank
from storerank import artifact
from storerank.cli import BENCH_COLUMNS, build_parser, main
from storerank.data import load_dataset_cache
from storerank.tokenizer import (EmbeddingTable, SidTable, read_embeddings,
                                 read_sids, write_embeddings, write_sids)


def run(*argv):
    return main(list(argv))


def read_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset + tokenizer + SID file shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("gen-synthetic", "--out", str(data), "--n-instances", "3000",
               "--n-items", "120", "--n-users", "40", "--n-clusters", "6",
               "--seed", "5") == 0
    tok = root / "tok"
    assert run("train-tokenizer", "--embeddings", str(data / "embeddings.csv"),
               "--out", str(tok), "--epochs", "15", "--seed", "0") == 0
    sids = root / "sids"
    assert run("tokenize", "--embeddings", str(data / "embeddings.csv"),
               "--tokenizer", str(tok / "tokenizer.opmq"),
               "--out", str(sids)) == 0
    return root


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_raw_id_with_sids_rejected_before_compute(self, tmp_path, capsys):
        # the data path does not even exist; validation must fire first
        code = run("train", "--data", str(tmp_path / "absent.strd"),
                   "--sids", str(tmp_path / "absent.csv"), "--raw-id",
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert "forbids" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_item_pathway(self, tmp_path, capsys):
        code = run("train", "--data", str(tmp_path / "absent.strd"),
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert "--sids" in capsys.readouterr().err

    def test_missing_artifact_is_one_line(self, tmp_path, capsys):
        code = run("tokenize", "--embeddings", str(tmp_path / "nope.csv"),
                   "--tokenizer", str(tmp_path / "nope.opmq"),
                   "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_instnaces": 10}\n')
        code = run("gen-synthetic", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_bad_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STORE_SEED", "not-a-number")
        code = run("gen-synthetic", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "STORE_SEED" in capsys.readouterr().err


def subcommand(name):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_bad_numbers_and_config_types_end_in_one_error_line(tmp_path, capsys):
    """Every integer flag at 0 and at -1, and every config key set to a
    string, either runs or prints one ``error:`` line; main never raises."""
    data, tok, sids = tmp_path / "data", tmp_path / "tok", tmp_path / "sids"
    # subcommand: (required flags, a tiny configuration, the output)
    commands = {
        "gen-synthetic": ([], {"n_instances": 300, "n_items": 40, "n_users": 12,
                               "n_clusters": 4, "seed": 1}, data),
        "train-tokenizer": (["--embeddings", str(data / "embeddings.csv")],
                            {"epochs": 2, "v": 4}, tok),
        "train": (["--data", str(data / "data.strd"),
                   "--sids", str(sids / "sids.csv")],
                  {"v": 4, "d": 8, "d_s": 4, "d_g": 4, "emb_dim": 2},
                  tmp_path / "model"),
        "sweep": (["--data", str(data / "data.strd"),
                   "--sids", str(sids / "sids.csv")],
                  {"v": 4, "d": 8, "d_s": 4, "d_g": 4, "emb_dim": 2},
                  tmp_path / "sweep"),
        "bench-attention": ([], {"h_values": [16], "d_model": 8, "n_heads": 2,
                                 "block_size": 4, "repeats": 1},
                            tmp_path / "bench"),
    }
    runs = 0
    for name, (flags, cfg, out) in commands.items():
        base = tmp_path / f"{name}.json"
        base.write_text(json.dumps(cfg))
        assert run(name, *flags, "--config", str(base), "--out", str(out)) == 0
        if name == "train-tokenizer":
            assert run("tokenize", "--embeddings", str(data / "embeddings.csv"),
                       "--tokenizer", str(tok / "tokenizer.opmq"),
                       "--out", str(sids)) == 0
        variants = [["--config", str(base), a.option_strings[0], value]
                    for a in subcommand(name)._actions if a.type is int
                    for value in ("0", "-1")]
        for key in json.loads((out / "resolved_config.json").read_text()):
            if key != "command":
                bad = tmp_path / f"{name}-{key}.json"
                bad.write_text(json.dumps({**cfg, key: "text"}))
                variants.append(["--config", str(bad)])
        for extra in variants:
            runs += 1
            capsys.readouterr()
            try:
                code = run(name, *flags, *extra,
                           "--out", str(tmp_path / f"run{runs}"))
            except Exception as e:  # noqa: BLE001 - the contract under test
                pytest.fail(f"{name} {' '.join(extra)} raised {e!r}")
            err = capsys.readouterr().err
            assert code == 0 or (err.startswith("error: ")
                                 and err.count("\n") == 1), (name, extra, err)
    assert runs > 180


@pytest.mark.parametrize("command, flags, body", [
    ("bench-attention", ["--h-values", ","], {}),
    ("bench-attention", [], {"h_values": []}),
    ("sweep", ["--epochs-grid", ","], {}),
    ("sweep", ["--rho-grid", ""], {}),
    ("sweep", [], {"epochs_grid": []}),
    ("gen-synthetic", [], {"static_cards": []}),
    ("bench-attention", [], {"h_values": ""}),
])
def test_an_empty_number_list_is_one_error_line(workspace, tmp_path, capsys,
                                                command, flags, body):
    # a bad flag or config value, as a number list that is not one, exits 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    data = ["--data", str(workspace / "data" / "data.strd"), "--sids",
            str(workspace / "sids" / "sids.csv")] if command == "sweep" else []
    out = tmp_path / "out"
    assert run(command, *data, *flags, "--config", str(cfg),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


class TestConfigTypes:
    @pytest.mark.parametrize("command, body", [
        ("train-tokenizer", {"k": None}), ("train-tokenizer", {"epochs": 1.5}),
        ("train-tokenizer", {"k": True}), ("train-tokenizer", {"d_z": "3"}),
        ("train", {"h": "3"}), ("train", {"use_rotation": 1}),
    ])
    def test_a_value_of_another_type_is_one_error_line(
            self, workspace, tmp_path, capsys, command, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        flags = {"train-tokenizer": ["--embeddings", str(workspace / "data" /
                                                         "embeddings.csv")],
                 "train": ["--data", str(workspace / "data" / "data.strd"),
                           "--raw-id"]}[command]
        assert run(command, *flags, "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {next(iter(body))} must be")
        assert err.count("\n") == 1

    def test_an_int_is_a_float_and_none_takes_the_flag_type(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lr": 1, "beta": 0, "d_z": 4, "preset": null, '
                       '"epochs": 1}\n')
        out = tmp_path / "out"
        assert run("train-tokenizer", "--embeddings",
                   str(workspace / "data" / "embeddings.csv"),
                   "--config", str(cfg), "--out", str(out)) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert (resolved["lr"], resolved["d_z"], resolved["preset"]) == (1, 4, None)

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("command, key", [
        ("gen-synthetic", "interaction_scale"), ("train-tokenizer", "beta"),
        ("train", "lr"),
    ])
    def test_a_non_finite_float_is_one_error_line_naming_it(
            self, workspace, tmp_path, capsys, command, key, from_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float("nan")}))
        source = (["--config", str(cfg)] if from_file
                  else ["--" + key.replace("_", "-"), "nan"])
        inputs = {"gen-synthetic": [],
                  "train-tokenizer": ["--embeddings", str(workspace / "data" /
                                                          "embeddings.csv")],
                  "train": ["--data", str(workspace / "data" / "data.strd"),
                            "--raw-id"]}[command]
        out = tmp_path / "out"
        assert run(command, *inputs, *source, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {key} must be finite, got nan\n"
        assert not out.exists()

    def test_static_cards_need_one_positive_card(self, tmp_path, capsys):
        # no card is a bad flag (exit 2); a zero card is a bad spec (exit 1)
        for cards, code in (("", 2), ("8,0", 1)):
            assert run("gen-synthetic", "--out", str(tmp_path / "out"),
                       "--static-cards", cards) == code
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


class TestConfigResolution:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_instances": 500, "n_items": 50, "n_users": 10, '
                       '"n_clusters": 5, "seed": 1}\n')
        out = tmp_path / "out"
        assert run("gen-synthetic", "--config", str(cfg), "--out", str(out),
                   "--n-items", "64") == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["n_instances"] == 500      # from file
        assert resolved["n_items"] == 64           # flag wins
        assert resolved["seed"] == 1
        assert resolved["command"] == "gen-synthetic"

    def test_env_seed_beats_flags(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STORE_SEED", "77")
        out = tmp_path / "out"
        assert run("gen-synthetic", "--out", str(out), "--n-instances", "200",
                   "--n-items", "20", "--n-users", "5", "--n-clusters", "4",
                   "--seed", "3") == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 77

    def test_presets_set_quantizer_scale(self, tmp_path, workspace):
        out = tmp_path / "out"
        assert run("train-tokenizer",
                   "--embeddings", str(workspace / "data" / "embeddings.csv"),
                   "--out", str(out), "--preset", "public",
                   "--epochs", "2") == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["k"] == 3 and resolved["v"] == 16

    def test_presets_never_override_explicit_values(self, tmp_path, workspace):
        data = workspace / "data"
        out = tmp_path / "tok"
        assert run("train-tokenizer", "--embeddings",
                   str(data / "embeddings.csv"), "--out", str(out),
                   "--preset", "public", "--k", "2", "--v", "4",
                   "--epochs", "1") == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert (resolved["k"], resolved["v"]) == (2, 4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"v": 8, "preset": "industrial"}\n')
        out = tmp_path / "model"
        assert run("train", "--data", str(data / "data.strd"), "--raw-id",
                   "--config", str(cfg), "--preset", "public", "--h", "2",
                   "--epochs", "1", "--batch-size", "500", "--d", "8",
                   "--d-s", "4", "--hash-buckets", "64",
                   "--out", str(out)) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert (resolved["preset"], resolved["h"], resolved["v"]) == \
            ("public", 2, 8)


class TestGenSynthetic:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["--n-instances", "400", "--n-items", "30", "--n-users", "8",
                "--n-clusters", "4", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-synthetic", "--out", str(a), *args) == 0
        assert run("gen-synthetic", "--out", str(b), *args) == 0
        for name in ("data.strd", "embeddings.csv", "resolved_config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_cache_loads_back(self, workspace):
        ds = load_dataset_cache(str(workspace / "data" / "data.strd"))
        assert len(ds) == 3000


class TestTokenizerCommands:
    def test_opmq_artifacts_present(self, workspace):
        assert (workspace / "tok" / "tokenizer.opmq").exists()
        log = read_lines(workspace / "tok" / "tokenizer_log.jsonl")
        assert log[0]["epoch"] == 1 and "loss_recon" in log[0]

    def test_sids_cover_catalog(self, workspace):
        table = read_sids(str(workspace / "sids" / "sids.csv"))
        assert len(table) == 120 and table.k == 3 and table.v == 16

    def test_rq_backend_writes_sids_directly(self, workspace, tmp_path):
        out = tmp_path / "rq"
        assert run("train-tokenizer",
                   "--embeddings", str(workspace / "data" / "embeddings.csv"),
                   "--out", str(out), "--backend", "rq") == 0
        table = read_sids(str(out / "sids.csv"))
        assert len(table) == 120
        log = read_lines(out / "tokenizer_log.jsonl")
        rms = [rec["rms"] for rec in log]
        assert rms == sorted(rms, reverse=True)

    def test_a_warning_is_one_line(self, tmp_path, capsys):
        # 60 distinct items for 61 codewords: the quantizer warns, and the
        # run goes on
        emb = tmp_path / "emb.csv"
        rows = np.random.default_rng(0).normal(size=(60, 4))
        write_embeddings(emb, EmbeddingTable(np.arange(60), rows))
        assert run("train-tokenizer", "--embeddings", str(emb), "--v", "61",
                   "--epochs", "1", "--out", str(tmp_path / "tok")) == 0
        assert capsys.readouterr().err == (
            "warning: only 60 distinct embeddings for V=61 codewords\n")
        assert (tmp_path / "tok" / "tokenizer.opmq").exists()

    def test_a_bad_embeddings_header_is_one_error_line(self, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        for dim in ("0", "x", "-2"):
            emb.write_text(f"item_id,dim={dim}\n1,0.5\n")
            assert run("train-tokenizer", "--embeddings", str(emb),
                       "--out", str(tmp_path / "tok"), "--epochs", "1") == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {emb}:1: bad header ")
            assert err.count("\n") == 1

    def test_a_tokenizer_config_that_does_not_fit_is_named(
            self, workspace, tmp_path, capsys):
        header, arrays = artifact.read(workspace / "tok" / "tokenizer.opmq",
                                       b"OPMQ2")
        config = header["config"]
        old_layout = {"d_p": header["d_p"], "d_z": header["d_p"],
                      "activation": "tanh", "orth_weights": "hidden",
                      **{k: config[k] for k in ("k", "v", "beta")}}
        variants = {
            "missing": dict(header, config={k: v for k, v in config.items()
                                            if k != "beta"}),
            "unknown": dict(header, config=dict(config, activation="relu")),
            "text": dict(header, config=dict(config, k="2")),
            "old": old_layout,
        }
        for name, bad in variants.items():
            path = tmp_path / f"{name}.opmq"
            artifact.write(path, b"OPMQ2", bad, list(arrays.items()))
            capsys.readouterr()
            assert run("tokenize",
                       "--embeddings", str(workspace / "data" / "embeddings.csv"),
                       "--tokenizer", str(path), "--out", str(tmp_path / name)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: "), err
            assert err.count("\n") == 1


class TestTableErrorsNameTheFile:
    def test_a_code_outside_v(self, workspace, tmp_path, capsys):
        sids = tmp_path / "sids.csv"
        sids.write_text("item_id,K=2,V=4\n1,0,1\n2,7,3\n")
        assert run("train", "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(sids), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {sids}: codes outside [0, 4)\n"

    @pytest.mark.parametrize("rows, reason", [
        ("1,0.5,nan\n2,0.5,0.5\n", "non-finite embedding values"),
        ("1,0.5,0.5\n1,0.25,0.5\n", "duplicate item ids in embedding table"),
    ], ids=["nan", "duplicate_id"])
    def test_a_bad_embedding_table(self, tmp_path, capsys, rows, reason):
        emb = tmp_path / "emb.csv"
        emb.write_text("item_id,dim=2\n" + rows)
        assert run("train-tokenizer", "--embeddings", str(emb),
                   "--out", str(tmp_path / "tok"), "--epochs", "1") == 1
        assert capsys.readouterr().err == f"error: {emb}: {reason}\n"


class TestTrainEval:
    def train_args(self, workspace, out, *extra):
        return ["train", "--data", str(workspace / "data" / "data.strd"),
                "--sids", str(workspace / "sids" / "sids.csv"),
                "--out", str(out), "--epochs", "1", "--batch-size", "500",
                "--d", "16", "--d-s", "8", "--d-g", "8", "--emb-dim", "4",
                "--seed", "0", *extra]

    def test_train_writes_model_log_and_config(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        log = read_lines(out / "epoch_log.jsonl")
        assert set(log[0]) == {"epoch", "train_loss", "val_auc", "val_gauc",
                               "val_logloss", "flops_per_batch"}
        assert (out / "model.strm").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*self.train_args(workspace, a)) == 0
        assert run(*self.train_args(workspace, b)) == 0
        assert (a / "epoch_log.jsonl").read_bytes() == \
            (b / "epoch_log.jsonl").read_bytes()
        assert (a / "model.strm").read_bytes() == (b / "model.strm").read_bytes()

    def test_eval_matches_final_epoch(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        ev = tmp_path / "ev"
        assert run("eval", "--model", str(out / "model.strm"),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(ev)) == 0
        metrics = json.loads((ev / "metrics.json").read_text())
        last = read_lines(out / "epoch_log.jsonl")[-1]
        assert metrics["auc"] == last["val_auc"]
        assert metrics["logloss"] == last["val_logloss"]

    def test_eval_names_a_damaged_model(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        model = out / "model.strm"
        blob = model.read_bytes()
        mid = len(blob) // 2
        flipped = blob[:mid] + bytes([blob[mid] ^ 4]) + blob[mid + 1:]
        for damaged, case in ((blob[:-9], "truncated"), (flipped, "corrupt")):
            model.write_bytes(damaged)
            capsys.readouterr()
            assert run("eval", "--model", str(model),
                       "--data", str(workspace / "data" / "data.strd"),
                       "--out", str(tmp_path / "ev")) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {model}: {case} ")
            assert err.count("\n") == 1

    def test_eval_rejects_a_foreign_dataset(self, workspace, tmp_path, capsys):
        # same items, wider static vocabularies than the model was built for
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        foreign = tmp_path / "foreign"
        assert run("gen-synthetic", "--out", str(foreign), "--n-instances",
                   "3000", "--n-items", "120", "--n-users", "40",
                   "--n-clusters", "6", "--seed", "6",
                   "--static-cards", "30,40") == 0
        capsys.readouterr()
        assert run("eval", "--model", str(out / "model.strm"),
                   "--data", str(foreign / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: feature 'f0' ") and "rows" in err
        assert err.count("\n") == 1

    def test_ablation_flags_reach_the_model(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert run(*self.train_args(workspace, out, "--no-rotation",
                                    "--rho", "1")) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["use_rotation"] is False
        assert resolved["rho"] == 1.0 and "attention" not in resolved
        capsys.readouterr()
        # vanilla attention is rho = 1; the old switch is gone
        assert run(*self.train_args(workspace, tmp_path / "old",
                                    "--attention", "vanilla")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eval_names_config_keys_the_model_does_not_fit(
            self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        model = out / "model.strm"
        header, arrays = artifact.read(model, b"STRM2")
        config = {k: v for k, v in header["config"].items() if k != "lam"}
        header["config"] = dict(config, attention="vanilla")
        artifact.write(model, b"STRM2", header, list(arrays.items()))
        capsys.readouterr()
        assert run("eval", "--model", str(model),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ")
        assert "['attention']" in err and "['lam']" in err
        assert err.count("\n") == 1

    def test_eval_names_a_non_finite_config_value_in_the_model(
            self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        model = out / "model.strm"
        header, arrays = artifact.read(model, b"STRM2")
        header["config"]["lam"] = float("inf")
        artifact.write(model, b"STRM2", header, list(arrays.items()))
        capsys.readouterr()
        assert run("eval", "--model", str(model),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: bad StoreConfig in header: lam must be finite, "
            "got inf\n")

    @pytest.mark.parametrize("name, index, value, message", [
        ("proj_w", (0, 0), np.nan, "softmax: non-finite scores (NaN or +inf)"),
        ("head_w", (3, 0), np.nan, "scores must be finite"),
        ("norm.1.gamma", (5,), np.inf, "non-finite output after layer 1"),
    ])
    def test_eval_names_non_finite_weights(self, workspace, tmp_path, capsys,
                                           name, index, value, message):
        # a CRC-valid model.strm whose weights score nothing finite
        out = tmp_path / "run"
        assert run(*self.train_args(workspace, out)) == 0
        model = out / "model.strm"
        header, arrays = artifact.read(model, b"STRM2")
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
        artifact.write(model, b"STRM2", header, list(arrays.items()))
        capsys.readouterr()
        assert run("eval", "--model", str(model),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ev").exists()

    def raw_id_args(self, workspace, out, buckets=256):
        return ["train", "--data", str(workspace / "data" / "data.strd"),
                "--raw-id", "--out", str(out), "--epochs", "1",
                "--batch-size", "500", "--d", "16", "--d-s", "8",
                "--d-g", "8", "--emb-dim", "4", "--hash-buckets", str(buckets),
                "--seed", "0"]

    def test_raw_id_path_trains(self, workspace, tmp_path):
        out = tmp_path / "raw"
        assert run(*self.raw_id_args(workspace, out)) == 0
        assert np.isfinite(read_lines(out / "epoch_log.jsonl")[0]["train_loss"])

    def test_raw_id_rerun_is_byte_identical(self, workspace, tmp_path):
        # more buckets than a batch has rows: the row-sparse gradient path
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*self.raw_id_args(workspace, a, buckets=4096)) == 0
        assert run(*self.raw_id_args(workspace, b, buckets=4096)) == 0
        assert (a / "epoch_log.jsonl").read_bytes() == \
            (b / "epoch_log.jsonl").read_bytes()
        assert (a / "model.strm").read_bytes() == (b / "model.strm").read_bytes()


class TestSweep:
    def test_one_log_and_flops_record_per_setting(self, workspace, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(workspace / "sids" / "sids.csv"),
                   "--out", str(out), "--rho-grid", "1,0.5,0.25",
                   "--epochs", "1", "--batch-size", "500", "--d", "16",
                   "--d-s", "8", "--d-g", "8", "--emb-dim", "4",
                   "--seed", "0") == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4                     # header + one per rho
        assert lines[0].split(",")[:4] == ["epochs", "k_sid", "layers", "rho"]
        logs = sorted(os.listdir(out / "logs"))
        assert len(logs) == 3
        flops = [int(line.split(",")[-1]) for line in lines[1:]]
        assert flops[0] > flops[1] > flops[2]      # denser rho costs more

    @pytest.mark.parametrize("from_file", [False, True])
    def test_raw_id_k_grid_trains_no_tokenizer(self, workspace, tmp_path, from_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k_grid": "2,3"}\n')
        grid = ["--config", str(cfg)] if from_file else ["--k-grid", "2,3"]
        out = tmp_path / "sw"
        assert run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--raw-id", *grid, "--out", str(out),
                   "--epochs", "1", "--batch-size", "500", "--d", "16",
                   "--d-s", "8", "--d-g", "8", "--emb-dim", "4",
                   "--hash-buckets", "1024") == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[1] for line in lines] == ["k_sid", "2", "3"]

    @pytest.mark.parametrize("as_list", [True, False])
    @pytest.mark.parametrize("key, column, grid", [
        ("epochs_grid", 0, ["1", "2"]), ("k_grid", 1, ["2", "3"]),
        ("layers_grid", 2, ["1", "2"]), ("rho_grid", 3, ["1.0", "0.5"]),
    ])
    def test_a_config_file_grid_is_a_list_or_the_flag_text(
            self, workspace, tmp_path, key, column, grid, as_list):
        cfg = tmp_path / "cfg.json"
        value = [json.loads(x) for x in grid] if as_list else ",".join(grid)
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "sw"
        assert run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--raw-id", "--config", str(cfg), "--out", str(out),
                   "--epochs", "1", "--batch-size", "500", "--d", "8",
                   "--d-s", "4", "--d-g", "4", "--emb-dim", "4", "--n-heads", "1",
                   "--hash-buckets", "256") == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[column] for line in lines[1:]] == grid
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved[key] == [json.loads(x) for x in grid]

    def test_epochs_without_a_grid_sets_every_setting(self, workspace, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--raw-id", "--out", str(out), "--epochs", "2",
                   "--batch-size", "500", "--d", "8", "--d-s", "4", "--d-g", "4",
                   "--emb-dim", "4", "--n-heads", "1", "--hash-buckets", "256") == 0
        assert os.listdir(out / "logs") == ["epochs2_k3_L2_rho0.5.jsonl"]
        assert len(read_lines(out / "logs" / "epochs2_k3_L2_rho0.5.jsonl")) == 2
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["epochs"] == 2 and resolved["epochs_grid"] is None

    def test_k_grid_requires_embeddings(self, workspace, tmp_path, capsys):
        code = run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(workspace / "sids" / "sids.csv"),
                   "--out", str(tmp_path / "sw"), "--k-grid", "1,3")
        assert code == 2
        assert "embeddings" in capsys.readouterr().err

    def test_one_k_other_than_h_requires_embeddings(self, workspace, tmp_path,
                                                    capsys):
        out = tmp_path / "sw"
        code = run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(workspace / "sids" / "sids.csv"),
                   "--out", str(out), "--k-grid", "2")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--embeddings" in err and not out.exists()


class TestBench:
    def test_csv_columns_and_rho1_tie_down(self, tmp_path):
        out = tmp_path / "bench"
        assert run("bench-attention", "--out", str(out), "--h-values",
                   "64,96", "--repeats", "1", "--block-size", "32") == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["H", "B", "k_blocks", "dense_flops", "sparse_flops",
                          "wall_time_dense_ms", "wall_time_sparse_ms",
                          "max_abs_diff_at_rho1"]
        assert len(lines) == 3
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["max_abs_diff_at_rho1"]) < 1e-6
            assert int(row["sparse_flops"]) < int(row["dense_flops"])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_entry_point_pins_blas_to_one_thread_unless_set(preset):
    """Importing the CLI sets each BLAS thread count to 1 before numpy
    loads, and keeps a value the caller set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, preset))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(storerank.__file__))
    code = ("import os, sys, storerank; assert 'numpy' not in sys.modules; "
            "import storerank.cli; "
            f"print(*(os.environ[k] for k in {BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == [preset or "1"] * len(BLAS_THREAD_VARS)


class TestReplay:
    """A run's ``resolved_config.json``, given back as ``--config``,
    replays it byte for byte."""

    @staticmethod
    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    @staticmethod
    def replay(out):
        cfg = json.loads((out / "resolved_config.json").read_text())
        again = out.with_name(out.name + "-replay")
        assert run(cfg["command"], "--config", str(out / "resolved_config.json"),
                   "--out", str(again)) == 0
        return again

    def test_every_subcommand_replays_byte_for_byte(self, tmp_path):
        data, tok, rq, sids = (tmp_path / n for n in ("data", "tok", "rq", "sids"))
        small = ["--epochs", "1", "--batch-size", "500", "--d", "8", "--d-s", "4",
                 "--d-g", "4", "--emb-dim", "2", "--seed", "3"]
        runs = {
            data: ["gen-synthetic", "--n-instances", "1500", "--n-items", "60",
                   "--n-users", "20", "--n-clusters", "4", "--seed", "2"],
            tok: ["train-tokenizer", "--embeddings", str(data / "embeddings.csv"),
                  "--epochs", "3", "--v", "8"],
            rq: ["train-tokenizer", "--embeddings", str(data / "embeddings.csv"),
                 "--backend", "rq", "--preset", "public"],
            sids: ["tokenize", "--embeddings", str(data / "embeddings.csv"),
                   "--tokenizer", str(tok / "tokenizer.opmq")],
            tmp_path / "sid": ["train", "--data", str(data / "data.strd"),
                               "--sids", str(sids / "sids.csv"), "--v", "8",
                               "--val-fraction", "0.3", *small],
            tmp_path / "raw": ["train", "--data", str(data / "data.strd"),
                               "--raw-id", "--no-rotation", "--hash-buckets",
                               "256", *small],
            tmp_path / "ev": ["eval", "--model", str(tmp_path / "sid" / "model.strm"),
                              "--data", str(data / "data.strd"), "--split", "train"],
            tmp_path / "sw": ["sweep", "--data", str(data / "data.strd"),
                              "--sids", str(sids / "sids.csv"), "--v", "8",
                              "--embeddings", str(data / "embeddings.csv"),
                              "--k-grid", "2,3", "--rho-grid", "1,0.5",
                              "--tok-epochs", "2", *small],
            tmp_path / "bench": ["bench-attention", "--h-values", "32,64",
                                 "--repeats", "1", "--d-model", "16",
                                 "--block-size", "8"],
        }
        for out, argv in runs.items():
            assert run(*argv, "--out", str(out)) == 0, argv
        for out in runs:
            want, got = self.files(out), self.files(self.replay(out))
            if out.name == "bench":
                # wall times measure the machine, not the config
                wall = [i for i, c in enumerate(BENCH_COLUMNS) if "wall" in c]
                for files in (want, got):
                    lines = files.pop(Path("bench.csv")).decode().splitlines()
                    files["rows"] = [[x for i, x in enumerate(line.split(","))
                                      if i not in wall] for line in lines]
            assert want == got, out.name
        tok_cfg = json.loads((tok / "resolved_config.json").read_text())
        assert tok_cfg["embeddings"] == str(data / "embeddings.csv")

    def test_a_config_from_another_command_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("gen-synthetic", "--out", str(data), "--n-instances", "200",
                   "--n-items", "20", "--n-users", "5", "--n-clusters", "4") == 0
        capsys.readouterr()
        out = tmp_path / "bench"
        assert run("bench-attention", "--config", str(data / "resolved_config.json"),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'gen-synthetic'" in err and not out.exists()

    def test_number_lists_in_a_config_file_take_comma_text(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"static_cards": "5,7", "n_instances": 200,
                                   "n_items": 20, "n_users": 5, "n_clusters": 4}))
        out = tmp_path / "data"
        assert run("gen-synthetic", "--config", str(cfg), "--out", str(out)) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["static_cards"] == [5, 7]
        assert load_dataset_cache(str(out / "data.strd")).schema.static_cols == \
            ["f0", "f1"]
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"h_values": "16,24", "d_model": 8,
                                   "n_heads": 2, "block_size": 4, "repeats": 1}))
        out = tmp_path / "bench"
        assert run("bench-attention", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["16", "24"]

    def test_inputs_come_from_the_config_file_alone(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "embeddings": str(workspace / "data" / "embeddings.csv"),
            "tokenizer": str(workspace / "tok" / "tokenizer.opmq")}))
        out = tmp_path / "sids"
        assert run("tokenize", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "sids.csv").read_bytes() == \
            (workspace / "sids" / "sids.csv").read_bytes()

    def test_eval_names_a_training_config_without_its_split(
            self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(*TestTrainEval().raw_id_args(workspace, run_dir)) == 0
        path = run_dir / "resolved_config.json"
        cfg = json.loads(path.read_text())
        for key in ("split_seed", "val_fraction"):
            del cfg[key]
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("eval", "--model", str(run_dir / "model.strm"),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: missing keys ['split_seed', 'val_fraction']\n"

    def test_a_training_config_that_names_split_is_refused(
            self, workspace, tmp_path, capsys):
        # the split is always random: a config from before names a key
        # that no longer exists
        run_dir = tmp_path / "run"
        assert run(*TestTrainEval().raw_id_args(workspace, run_dir)) == 0
        path = run_dir / "resolved_config.json"
        cfg = json.loads(path.read_text())
        path.write_text(json.dumps(dict(cfg, split="random")))
        capsys.readouterr()
        again = tmp_path / "again"
        assert run("train", "--config", str(path), "--out", str(again)) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: unknown keys ['split']\n"
        assert not again.exists()
        assert run("eval", "--model", str(run_dir / "model.strm"),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown keys ['split']\n"


class TestRefusedRunsLeaveNoOutput:
    """A SID table whose K or V is not the model's, one that lacks codes
    for some of the dataset's items, embeddings that would make such a
    table or that the tokenizer cannot read, and a sweep setting the
    model refuses are all refused before the output directory is made."""

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--h", "2"]),
        ("train", ["--v", "8"]),
        ("sweep", ["--h", "2"]),
    ], ids=["train_h", "train_v", "sweep_h"])
    def test_a_sid_table_of_another_shape(self, workspace, tmp_path, capsys,
                                          command, flags):
        out = tmp_path / "out"
        assert run(command, "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(workspace / "sids" / "sids.csv"),
                   "--out", str(out), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SID table carries K=3 codes of V=16")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_a_sid_table_that_misses_items(self, workspace, tmp_path, capsys,
                                           command):
        full = read_sids(workspace / "sids" / "sids.csv")
        cut = tmp_path / "sids.csv"
        write_sids(cut, SidTable(full.ids[:49], full.codes[:49], full.v))
        out = tmp_path / "out"
        assert run(command, "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(cut), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "item ids lack SID codes" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--rho-grid", "0.5,0"], "rho must be in (0, 1], got 0.0"),
        (["--layers-grid", "1,0"], "all counts and widths must be >= 1"),
    ], ids=["rho", "layers"])
    def test_a_sweep_setting_the_model_refuses(self, workspace, tmp_path, capsys,
                                               flags, reason):
        out = tmp_path / "out"
        assert run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--sids", str(workspace / "sids" / "sids.csv"),
                   "--out", str(out), *flags) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--k-grid", "3,2"]], ids=["h", "k_grid"])
    def test_sweep_embeddings_that_miss_items(self, workspace, tmp_path, capsys,
                                              flags):
        full = read_embeddings(workspace / "data" / "embeddings.csv")
        cut = tmp_path / "embeddings.csv"
        write_embeddings(cut, EmbeddingTable(full.ids[:49], full.vectors[:49]))
        out = tmp_path / "out"
        assert run("sweep", "--data", str(workspace / "data" / "data.strd"),
                   "--embeddings", str(cut), "--out", str(out), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "item ids lack SID codes" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_embeddings_narrower_than_the_tokenizer(self, workspace, tmp_path,
                                                   capsys):
        emb = tmp_path / "embeddings.csv"
        write_embeddings(emb, EmbeddingTable(["a", "b"], np.ones((2, 8))))
        out = tmp_path / "out"
        assert run("tokenize", "--embeddings", str(emb),
                   "--tokenizer", str(workspace / "tok" / "tokenizer.opmq"),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == ("error: expected (n, 16) embeddings, "
                                           "got (2, 8)\n")
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["opmq", "rq"])
    def test_an_empty_embedding_table(self, tmp_path, capsys, backend):
        emb = tmp_path / "embeddings.csv"
        emb.write_text("item_id,dim=4\n")
        out = tmp_path / "out"
        assert run("train-tokenizer", "--embeddings", str(emb),
                   "--backend", backend, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {emb}: no items\n"
        assert not out.exists()


class TestOlderRuns:
    """Files written while the model still had its FFN sublayer, linear
    experts and "all" orthogonality weights name a key the program no
    longer has: one error line, with the file and the key."""

    def rewrite(self, path, magic, **config):
        header, arrays = artifact.read(path, magic)
        header["config"].update(config)
        artifact.write(path, magic, header, list(arrays.items()))

    def test_a_model_with_use_ffn(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(*TestTrainEval().raw_id_args(workspace, run_dir)) == 0
        model = run_dir / "model.strm"
        self.rewrite(model, b"STRM2", use_ffn=False)
        capsys.readouterr()
        assert run("eval", "--model", str(model),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ")
        assert "unknown keys ['use_ffn']" in err and err.count("\n") == 1

    def test_a_tokenizer_with_activation_and_orth_weights(
            self, workspace, tmp_path, capsys):
        tok = tmp_path / "tokenizer.opmq"
        tok.write_bytes((workspace / "tok" / "tokenizer.opmq").read_bytes())
        self.rewrite(tok, b"OPMQ2", activation="tanh", orth_weights="hidden")
        capsys.readouterr()
        assert run("tokenize", "--embeddings",
                   str(workspace / "data" / "embeddings.csv"),
                   "--tokenizer", str(tok), "--out", str(tmp_path / "s")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tok}: ")
        assert "unknown keys ['activation', 'orth_weights']" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, key", [
        ("train", "use_ffn"), ("train-tokenizer", "activation"),
        ("train-tokenizer", "orth_weights"),
    ])
    def test_a_resolved_config_passed_to_config(self, workspace, tmp_path,
                                                capsys, command, key):
        old = tmp_path / "resolved_config.json"
        old.write_text(json.dumps({"command": command, key: False}))
        out = tmp_path / "again"
        assert run(command, "--config", str(old), "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: {old}: unknown keys ['{key}']\n"
        assert not out.exists()

    def test_a_resolved_config_read_by_eval(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run(*TestTrainEval().raw_id_args(workspace, run_dir)) == 0
        path = run_dir / "resolved_config.json"
        cfg = json.loads(path.read_text())
        path.write_text(json.dumps(dict(cfg, use_ffn=False)))
        capsys.readouterr()
        assert run("eval", "--model", str(run_dir / "model.strm"),
                   "--data", str(workspace / "data" / "data.strd"),
                   "--out", str(tmp_path / "ev")) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: unknown keys ['use_ffn']\n"
