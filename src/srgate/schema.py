"""One codec between frozen dataclasses and JSON values.

`encode` and `decode` follow `dataclasses.fields` and each class's type
hints. The JSON rules, checked on decode, are:

- ``bool`` is true or false; ``int`` an integer, not a bool; ``float`` a
  finite number, not a bool, with an integer kept as given; ``str`` a string.
- ``tuple[X, ...]`` is an array, a fixed-length tuple one of exactly that
  length; ``Mapping[K, V]`` an object, an ``int`` key written in digits; a
  bare ``dict`` passes as it is.
- ``X | None`` accepts null. A union of dataclasses is tagged by ``"type"``,
  the class name in snake_case less any ``_spec`` suffix.
- A dataclass is an object holding exactly its fields' keys.

Every error is a ValueError naming the key path, such as
``scenario.sr_effect.inflation_range``. A range check in ``__post_init__``
keeps its exception class and gains its section's path. Field metadata
``{"key": name}`` writes a field under another key; ``{"keyed_by": (labels,
...)}`` writes a tuple, or a mapping keyed by index tuples, as objects
nested by those labels. Imports nothing from srgate, so any module may use it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import re
import reprlib
import sys
import types
import typing
from collections.abc import Mapping

_UNIONS = (typing.Union, types.UnionType)
_FLOAT_MAX = sys.float_info.max

# the JSON types a number may have; testing type() keeps bool out
NUMBER_TYPES = frozenset({int, float})


@functools.cache
def _fields(cls: type) -> tuple:
    """(name, JSON key, type hint, keyed_by labels) for each field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", f.name), hints[f.name], f.metadata.get("keyed_by"))
        for f in dataclasses.fields(cls)
    )


def _tag(cls: type) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower().removesuffix("_spec")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fail(path: str, want: str, value) -> ValueError:
    return ValueError(f"{path or 'config'} must be {want}, got {reprlib.repr(value)}")


def _keyed(hint, labels):
    """A keyed field's leaf type and its (index tuple, label path) pairs."""
    args = typing.get_args(hint)
    leaf = args[0] if typing.get_origin(hint) is tuple else args[1]
    indices = itertools.product(*(range(len(names)) for names in labels))
    return leaf, zip(indices, itertools.product(*labels))


def encode(obj) -> dict:
    """The JSON object of a dataclass instance."""
    return _encode(type(obj), obj)


def _encode(hint, value, labels=None):
    if value is None:
        return None
    if labels is not None:
        leaf, leaves = _keyed(hint, labels)
        get = value.__getitem__ if isinstance(value, Mapping) else lambda index: value[index[0]]
        out: dict = {}
        for index, names in leaves:
            node = out
            for name in names[:-1]:
                node = node.setdefault(name, {})
            node[names[-1]] = _encode(leaf, get(index))
        return out
    if dataclasses.is_dataclass(hint):
        return {
            key: _encode(h, getattr(value, name), keyed) for name, key, h, keyed in _fields(hint)
        }
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        members = [m for m in args if m is not type(None)]
        if len(members) == 1:
            return _encode(members[0], value)
        return {"type": _tag(type(value)), **_encode(type(value), value)}
    if origin is tuple:
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        return [_encode(h, v) for h, v in zip(hints, value)]
    if origin is Mapping:
        return {str(k): _encode(args[1], v) for k, v in value.items()}
    return value


def decode(cls, data, path: str):
    """The value of type `cls` that the JSON value `data` spells; a
    ValueError names `path`."""
    if dataclasses.is_dataclass(cls):
        return _decode_object(cls, data, path)
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin in _UNIONS:
        members = [m for m in args if m is not type(None)]
        if data is None and len(members) < len(args):
            return None
        if len(members) == 1:
            return decode(members[0], data, path)
        obj = _object(data, path)
        by_tag = {_tag(m): m for m in members}
        tag = obj.get("type")
        if type(tag) is not str or tag not in by_tag:
            raise _fail(_join(path, "type"), f"one of {sorted(by_tag)}", tag)
        return _decode_object(by_tag[tag], {k: v for k, v in obj.items() if k != "type"}, path)
    if origin is tuple:
        if type(data) is not list:
            raise _fail(path, "an array", data)
        if args[-1] is Ellipsis:
            args = args[:1] * len(data)
        elif len(data) != len(args):
            raise _fail(path, f"an array of {len(args)} entries", data)
        return tuple(decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, data)))
    if origin is Mapping:
        out = {}
        for k, v in _object(data, path).items():
            if args[0] is int and not k.isdecimal():
                raise ValueError(f"{_join(path, k)}: key must be an integer")
            out[args[0](k)] = decode(args[1], v, _join(path, k))
        return out
    if cls is dict:
        return _object(data, path)
    return _scalar(cls, data, path)


def _scalar(cls, value, path: str):
    kind = type(value)
    if cls is float:
        # an int compares exactly with a float, so one past the float range
        # fails here and not later in arithmetic
        finite = kind is float and math.isfinite(value) or kind is int and abs(value) <= _FLOAT_MAX
        if not finite:
            raise _fail(path, "a finite number", value)
    elif cls not in (bool, int, str):
        raise TypeError(f"no JSON rule for {cls!r}")
    elif kind is not cls:
        want = {bool: "true or false", int: "an integer", str: "a string"}[cls]
        raise _fail(path, want, value)
    return value


def _object(data, path: str, keys=None) -> dict:
    """`data` as a JSON object; given `keys`, it must hold exactly them."""
    if type(data) is not dict:
        raise _fail(path, "an object", data)
    if keys is not None:
        unknown = sorted(data.keys() - set(keys))
        if unknown:
            raise ValueError(f"{_join(path, unknown[0])}: unknown key")
        missing = [k for k in keys if k not in data]
        if missing:
            raise ValueError(f"{path or 'config'} lacks keys {missing}")
    return data


def _decode_object(cls, data, path: str):
    specs = _fields(cls)
    obj = _object(data, path, [key for _, key, _, _ in specs])
    values = {}
    for name, key, hint, labels in specs:
        at = _join(path, key)
        if labels is None:
            values[name] = decode(hint, obj[key], at)
        else:
            values[name] = _decode_keyed(hint, labels, obj[key], at)
    try:
        return cls(**values)
    except Exception as exc:
        # a range check in __post_init__: the same class keeps its exit code
        if path:
            exc.args = (f"{path}: {exc}",)
        raise


def _decode_keyed(hint, labels, data, path: str):
    leaf, leaves = _keyed(hint, labels)
    out = {}
    for index, names in leaves:
        node, at = data, path
        for depth, name in enumerate(names):
            node, at = _object(node, at, labels[depth])[name], _join(at, name)
        out[index] = decode(leaf, node, at)
    if typing.get_origin(hint) is tuple:
        return tuple(out.values())
    key_types = typing.get_args(typing.get_args(hint)[0])
    return {tuple(t(i) for t, i in zip(key_types, index)): v for index, v in out.items()}
