"""Damage checks for the one container behind model.strm, tokenizer.opmq
and data.strd: every cut and every flipped bit must be named, with the
path, as a ValueError, and a failed write must leave the old file."""

import errno
import os

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
