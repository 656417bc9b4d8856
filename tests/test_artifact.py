"""Damage checks for the one container behind model.strm, tokenizer.opmq
and data.strd: every cut and every flipped bit must be named, with the
path, as a ValueError, and a failed write must leave the old file."""

import errno
import os
import zlib

import numpy as np
import pytest

from storerank import artifact
from storerank.data import (SyntheticSpec, gen_synthetic, load_dataset_cache,
                            save_dataset_cache)
from storerank.model import StoreConfig, StoreModel, default_groups, load_store, \
    save_store
from storerank.tokenizer import OpmqConfig, OpmqModel, SidTable, load_opmq, \
    save_opmq


def small_dataset():
    ds, _ = gen_synthetic(SyntheticSpec(n_instances=60, n_items=10, n_users=5,
                                        n_clusters=4, seed=6))
    return ds


def small_store():
    ds = small_dataset()
    groups = default_groups(ds.schema, emb_dim=2, d_g=2)
    vocab = {f: 3 for g in groups.groups for f in g.features}
    codes = np.random.default_rng(2).integers(4, size=(10, 2))
    cfg = StoreConfig(h=2, v=4, d_s=2, d=4, n_heads=1, n_layers=1)
    return StoreModel(cfg, groups, vocab,
                      sid_table=SidTable(np.arange(10), codes, 4))


def small_opmq():
    return OpmqModel(3, OpmqConfig(k=2, v=4), np.random.default_rng(0))


FORMATS = {
    "model.strm": (small_store, save_store, load_store),
    "tokenizer.opmq": (small_opmq, save_opmq, load_opmq),
    "data.strd": (small_dataset, save_dataset_cache, load_dataset_cache),
}


@pytest.fixture(params=sorted(FORMATS))
def saved(request, tmp_path):
    """(path, good bytes, loader) for one freshly written artifact."""
    make, save, load = FORMATS[request.param]
    path = tmp_path / request.param
    save(path, make())
    return path, path.read_bytes(), load


def escapes(path, load, variants, case=""):
    """Variants that load, or fail other than as a ValueError that starts
    with the path and then ``case``."""
    out = []
    for label, data in variants:
        path.write_bytes(data)
        try:
            load(path)
        except ValueError as e:
            if not str(e).startswith(f"{path}: {case}"):
                out.append((label, repr(e)))
        except Exception as e:          # any other type is an escape too
            out.append((label, repr(e)))
        else:
            out.append((label, "loaded"))
    return out


def flipped(blob, i):
    data = bytearray(blob)
    data[i] ^= 1 << (i % 8)
    return bytes(data)


def header_end(blob):
    return blob.index(b"\n", blob.index(b"\n") + 1) + 1


def test_good_file_loads(saved):
    path, _, load = saved
    load(path)
    assert os.listdir(path.parent) == [path.name]


def test_every_strict_prefix_is_named(saved):
    path, blob, load = saved
    bad = escapes(path, load, ((n, blob[:n]) for n in range(len(blob))),
                  case="truncated")
    assert not bad, f"{len(bad)} of {len(blob)} prefixes escaped: {bad[:5]}"


def test_every_header_byte_flip_is_named(saved):
    path, blob, load = saved
    end = header_end(blob)
    bad = escapes(path, load, ((i, flipped(blob, i)) for i in range(end)))
    assert not bad, f"{len(bad)} of {end} header flips escaped: {bad[:5]}"


def test_payload_bit_flips_are_named(saved):
    path, blob, load = saved
    spots = np.unique(np.linspace(header_end(blob), len(blob) - 1, 128)
                      .astype(int))
    assert spots.size >= 100
    bad = escapes(path, load, ((int(i), flipped(blob, int(i))) for i in spots))
    assert not bad, f"{len(bad)} of {spots.size} payload flips escaped: {bad[:5]}"


def test_failed_write_keeps_previous_file(saved, monkeypatch):
    path, blob, _ = saved
    make, save, _ = FORMATS[path.name]

    class FullDisk:
        """Takes the magic line, then fails as a full disk would."""

        def __init__(self, name, mode):
            self.f = open(name, mode)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            if self.writes:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.writes += 1
            return self.f.write(data)

    monkeypatch.setattr(artifact, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space"):
        save(path, make())
    assert path.read_bytes() == blob
    assert os.listdir(path.parent) == [path.name]


@pytest.mark.parametrize("name, key, value", [
    ("tokenizer.opmq", "k", 2.5),
    ("tokenizer.opmq", "lr", "0.002"),
    ("tokenizer.opmq", "epochs", True),
    ("tokenizer.opmq", "k", "3"),
    ("model.strm", "h", 2.5),
    ("model.strm", "use_rotation", 0),
    ("model.strm", "rho", None),
])
def test_a_header_value_of_the_wrong_type_is_named(tmp_path, name, key, value):
    make, save, load = FORMATS[name]
    path = tmp_path / name
    save(path, make())
    magic = open(path, "rb").readline().rstrip(b"\n")
    header, arrays = artifact.read(path, magic)
    header["config"][key] = value
    artifact.write(path, magic, header, list(arrays.items()))
    cls = "OpmqConfig" if name == "tokenizer.opmq" else "StoreConfig"
    with pytest.raises(ValueError) as e:
        load(path)
    assert str(e.value).startswith(f"{path}: bad {cls} in header: {key} must be ")
    assert str(e.value).endswith(f"got {value!r}")


def test_header_values_of_their_field_types_load(tmp_path):
    path = tmp_path / "tokenizer.opmq"
    save_opmq(path, small_opmq())
    header, arrays = artifact.read(path, b"OPMQ2")
    # an int is a valid float, and d_z may be null, as its default is
    header["config"].update(lr=1, d_z=None)
    artifact.write(path, b"OPMQ2", header, list(arrays.items()))
    assert load_opmq(path).config.lr == 1



def set_first(d, value):
    d[next(iter(d))] = value


def set_group(h, **fields):
    h["groups"][0].update(fields)


# per case, a header field outside ``config`` (or an array) made wrong,
# and what the message says after the path: a value of the wrong type
# is named by its field
BAD_FIELDS = {
    "model.strm-groups": (lambda h, a: h.update(groups=[1]),
                          "groups[0] must be an object, got 1"),
    "model.strm-group_features": (lambda h, a: set_group(h, features="f0"),
                                  "groups[0].features must be a list"),
    "model.strm-group_emb_dim": (lambda h, a: set_group(h, emb_dim=None),
                                 "groups[0].emb_dim must be of type int"),
    "model.strm-d_g": (lambda h, a: h.update(d_g="x"),
                       "d_g must be of type int, got 'x'"),
    "model.strm-sid_ids": (lambda h, a: h.update(sid_ids=5),
                           "sid_ids must be a list, got 5"),
    "model.strm-sid_id": (lambda h, a: h["sid_ids"].__setitem__(1, 1),
                          "sid_ids[1] must be of type str, got 1"),
    "model.strm-vocab_sizes": (lambda h, a: set_first(h["vocab_sizes"], "x"),
                               "vocab_sizes['"),
    "model.strm-no_groups": (lambda h, a: h.pop("groups"), "missing 'groups'"),
    "model.strm-no_sid_codes": (lambda h, a: a.pop("sid_codes"),
                                "missing 'sid_codes'"),
    "tokenizer.opmq-d_p": (lambda h, a: h.update(d_p="x"),
                           "d_p must be of type int, got 'x'"),
    "tokenizer.opmq-no_d_p": (lambda h, a: h.pop("d_p"), "missing 'd_p'"),
    "data.strd-schema": (lambda h, a: h.update(schema=5),
                         "schema must be a list, got 5"),
    "data.strd-schema_column": (lambda h, a: h["schema"].__setitem__(0, ["f0"]),
                                "schema[0] must be a list of 2 values"),
    "data.strd-no_schema": (lambda h, a: h.pop("schema"), "missing 'schema'"),
    "data.strd-no_column": (lambda h, a: a.pop("f0"), "missing 'f0'"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_a_bad_header_field_outside_the_config_is_named(tmp_path, case):
    name = case.split("-")[0]
    make, save, load = FORMATS[name]
    path = tmp_path / name
    save(path, make())
    magic = open(path, "rb").readline().rstrip(b"\n")
    header, arrays = artifact.read(path, magic)
    arrays = dict(arrays)
    edit, says = BAD_FIELDS[case]
    edit(header, arrays)
    artifact.write(path, magic, header, list(arrays.items()))
    with pytest.raises(ValueError) as e:
        load(path)
    assert str(e.value).startswith(f"{path}: {says}")


def test_a_column_of_the_wrong_length_is_named(tmp_path):
    path = tmp_path / "data.strd"
    save_dataset_cache(path, small_dataset())
    header, arrays = artifact.read(path, b"STRD2")
    arrays = dict(arrays, f0=np.frombuffer(b"a\nb", dtype=np.uint8))
    artifact.write(path, b"STRD2", header, list(arrays.items()))
    with pytest.raises(ValueError, match="column 'f0'") as e:
        load_dataset_cache(path)
    assert str(e.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text", [b"{x", b"[]", b"{}", b'{"arrays": [1]}'],
                         ids=["not_json", "a_list", "no_arrays", "bad_array_entry"])
def test_a_checksummed_header_that_is_not_a_container_header_is_named(
        tmp_path, text):
    path = tmp_path / "tokenizer.opmq"
    path.write_bytes(b"OPMQ2\n" + b"%08x " % zlib.crc32(text) + text + b"\n")
    with pytest.raises(ValueError) as e:
        load_opmq(path)
    assert str(e.value).startswith(f"{path}: ")
