"""The one binary container behind every storerank artifact.

A magic line; a header line, the CRC32 of the JSON header as 8 hex
digits, a space, then the JSON; then each array's raw bytes.  The header
holds the caller's fields plus ``arrays``: ``[name, dtype, shape, byte
length, CRC32]`` per array.  Writes are atomic (``<path>.tmp``, then a
rename).  A read fails with a ``ValueError`` that starts with the path
and names the case: bad magic, truncated, corrupt or trailing bytes.
A config dataclass stored in a header is rebuilt by ``config``, and
``typed`` checks another header field's type; any other failure to
rebuild an object from a file is named by ``named``.
"""

import contextlib
import itertools
import json
import os
import zlib

import numpy as np

from .options import Opt, dataclass_options, mismatch


def write(path, magic, header, arrays):
    """Write ``(name, ndarray)`` pairs, each from its own buffer, and the
    JSON-able ``header`` dict under ``magic``."""
    arrays = [(name, np.ascontiguousarray(a)) for name, a in arrays]
    meta = dict(header, arrays=[[name, a.dtype.str, list(a.shape), a.nbytes,
                                 zlib.crc32(a)] for name, a in arrays])
    text = json.dumps(meta, sort_keys=True).encode()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(magic + b"\n")
            f.write(b"%08x " % zlib.crc32(text) + text + b"\n")
            for _, a in arrays:
                f.write(a)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read(path, magic):
    """``(header, arrays)`` of a file ``write`` made under ``magic``;
    ``arrays`` maps names to read-only arrays, in file order."""
    with open(path, "rb") as f, named(path):
        want = magic + b"\n"
        head = f.read(len(want))
        if head != want:
            if want.startswith(head):
                raise ValueError(f"{path}: truncated magic line")
            raise ValueError(f"{path}: bad magic {head!r}, expected {magic!r}")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: truncated header")
        crc, _, text = line[:-1].partition(b" ")
        if crc != b"%08x" % zlib.crc32(text):
            raise ValueError(f"{path}: corrupt header (CRC mismatch)")
        header = json.loads(text)
        arrays = {}
        for name, dtype, shape, nbytes, crc in header.pop("arrays"):
            raw = f.read(nbytes)
            if len(raw) < nbytes:
                raise ValueError(f"{path}: truncated in array {name!r} "
                                 f"({len(raw)} of {nbytes} bytes)")
            if zlib.crc32(raw) != crc:
                raise ValueError(f"{path}: corrupt array {name!r} (CRC mismatch)")
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after arrays")
    return header, arrays


@contextlib.contextmanager
def named(path):
    """Make a failure to rebuild an object from the file at ``path`` (a
    missing key or array, a value of the wrong type or one a constructor
    refuses) a ``ValueError`` that starts with the path."""
    try:
        yield
    except KeyError as e:
        raise ValueError(f"{path}: missing {e}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as e:
        if str(e).startswith(f"{path}: "):
            raise
        kind = "" if isinstance(e, ValueError) else "wrong type: "
        raise ValueError(f"{path}: {kind}{e}") from None


def restore(path, arrays, tensors):
    """Copy ``arrays`` into a rebuilt model's ``(name, Tensor)`` pairs,
    which must have the same names and shapes in the same order."""
    got = [(name, a.shape) for name, a in arrays.items()]
    want = [(name, t.values.shape) for name, t in tensors]
    for g, w in itertools.zip_longest(got, want):
        if g != w:
            raise ValueError(f"{path}: file holds array {g} where the model "
                             f"layout has {w}")
    for name, t in tensors:
        t.values[...] = arrays[name]


def typed(path, header, key, kind):
    """``header[key]`` if it has the type ``kind``: a type, by the rule
    of ``options.mismatch``; ``[kind]``, a list of such values; a tuple
    of kinds, a list of one value of each; ``{str: kind}``, an object of
    such values; any other dict, an object with its keys, each of its
    kind.  Else a ``ValueError`` that starts with the path and names the
    field, or the part of it, that is wrong."""
    reason = _mistyped(key, header[key], kind)
    if reason:
        raise ValueError(f"{path}: {reason}")
    return header[key]


def _mistyped(key, value, kind):
    if isinstance(kind, type):
        return mismatch(key, value, Opt(kind(), kind))
    if isinstance(kind, (list, tuple)):
        many = isinstance(kind, list)
        if not isinstance(value, list) or not (many or len(value) == len(kind)):
            want = "a list" if many else f"a list of {len(kind)} values"
            return f"{key} must be {want}, got {value!r}"
        parts = [(f"{key}[{i}]", x, kind[0] if many else kind[i])
                 for i, x in enumerate(value)]
    elif not isinstance(value, dict):
        return f"{key} must be an object, got {value!r}"
    elif str in kind:
        parts = [(f"{key}[{k!r}]", x, kind[str]) for k, x in value.items()]
    else:
        parts = [(f"{key}.{k}", value.get(k), t) for k, t in kind.items()]
    return next(filter(None, (_mistyped(*part) for part in parts)), None)


def config(path, cls, fields):
    """The ``cls`` dataclass that a header's ``fields`` dict describes.
    Missing or unknown keys, a value not of its field's annotated type
    (the rule of ``options.mismatch``) and values ``cls`` refuses are a
    ``ValueError`` that starts with the path."""
    if not isinstance(fields, dict):
        raise ValueError(f"{path}: header holds no {cls.__name__}")
    opts = dataclass_options(cls)
    keys, got = set(opts), set(fields)
    if got != keys:
        raise ValueError(f"{path}: config does not fit {cls.__name__} "
                         f"(unknown keys {sorted(got - keys)}, "
                         f"missing keys {sorted(keys - got)})")
    for key, value in fields.items():
        reason = mismatch(key, value, opts[key])
        if reason:
            raise ValueError(f"{path}: bad {cls.__name__} in header: {reason}")
    try:
        return cls(**fields)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad {cls.__name__} in header: {e}") from None
