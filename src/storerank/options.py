"""Typed options: the one rule a configured value must fit.

An ``Opt`` declares one value: its default, type and choices.
``dataclass_options`` gives an ``Opt`` per field of a config dataclass,
from the field's default and annotated type.  ``mismatch`` is the check
every value read from a file passes, whether a CLI config file or the
config an artifact header carries.  ``check_config`` is the refusal of
a bad float or seed field that each config dataclass makes.
"""

from __future__ import annotations

import math
import typing
from dataclasses import fields
from typing import NamedTuple


class Opt(NamedTuple):
    """One option: its default and its type (int, float, str or bool).
    ``many`` makes it a number list of that type.  A ``required`` input
    must come from a flag or the config file.  A bool takes a flag only
    where ``flag`` names its switch, which flips the default."""
    default: object = None
    kind: type = str
    choices: tuple | None = None
    many: bool = False
    required: bool = False
    flag: str | None = None
    help: str | None = None


def dataclass_options(cls, **extra):
    """An option per field of the dataclass ``cls``, with the field's
    default and annotated type; a tuple field is a number list.
    ``extra`` maps a field to the option attributes it adds."""
    hints = typing.get_type_hints(cls)
    opts = {}
    for f in fields(cls):
        kind = next((t for t in typing.get_args(hints[f.name])
                     if t is not type(None)), hints[f.name])
        opt = (Opt(list(f.default), type(f.default[0]), many=True)
               if kind is tuple else Opt(f.default, kind))
        opts[f.name] = opt._replace(**extra.get(f.name, {}))
    return opts


def _fits(value, opt):
    """Whether ``value`` suits ``opt``: null only where the default is
    null, a choice among the choices, a number list as text or as a
    nonempty list of numbers, else a value of the option's type (a bool
    is not a number, an int is a valid float)."""
    if value is None:
        return opt.default is None
    if opt.choices:
        return value in opt.choices
    if opt.many:
        return isinstance(value, str) or (
            isinstance(value, list) and len(value) > 0 and
            all(_fits(x, Opt(0.0, float)) for x in value))
    if isinstance(value, bool) != (opt.kind is bool):
        return False
    return isinstance(value, (int, float) if opt.kind is float else opt.kind)


def mismatch(key, value, opt):
    """None if ``value`` fits ``opt``, else why not, naming ``key``."""
    if _fits(value, opt):
        return None
    want = (f"one of {list(opt.choices)}" if opt.choices else
            "a number list" if opt.many else f"of type {opt.kind.__name__}")
    return f"{key} must be {want}, got {value!r}"


def check_config(config):
    """Refuse a NaN or infinite float field by name, then a negative seed."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
