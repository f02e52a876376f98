"""The artifact formats: result records serialize from their own fields,
JSON is strict (non-finite floats as null), indented and key-sorted, and
CSV columns carry 17 significant digits, which round-trip a float64.  One
reader turns a kernel or reaction spec back into its object."""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import fields

from .errors import ValidationError


def plain(value, strict: bool = False):
    """JSON-native copy of ``value``: numpy arrays and scalars become lists
    and Python numbers, tuples become lists, dicts are copied; ``strict``
    also turns NaN and +-inf into None."""
    if hasattr(value, "tolist"):                # numpy array or scalar
        value = value.tolist()
    if isinstance(value, dict):
        return {k: plain(v, strict) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v, strict) for v in value]
    if strict and isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Record:
    """Dataclass mixin: ``to_json()`` holds every field but ``_json_skip``
    (the arrays that go to CSV, or nested solutions)."""

    _json_skip = ()

    def to_json(self) -> dict:
        return {f.name: plain(getattr(self, f.name))
                for f in fields(self) if f.name not in self._json_skip}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(plain(payload, strict=True), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, names, columns):
    """A header of ``names``, then row i of ``columns`` at 17 significant digits."""
    row = ",".join(["{:.17g}"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row.format(*values) for values in zip(*columns))


def finite(value, key: str, count: bool = False):
    """``value`` as a finite float, or an int when ``count``; anything else
    (text, a bool, a list, null, NaN, +-inf, a fractional count) names ``key``."""
    try:
        x = math.nan if isinstance(value, (str, bool)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (count and x != int(x)):
        raise ValidationError(f"{key} must be {'an integer' if count else 'a finite number'}"
                              f", not {value!r}")
    return int(x) if count else x


def spec_from_json(obj, registry: dict, tag: str, key: str, noun: str):
    """``registry[obj[tag]]`` called with the other entries of ``obj`` by name; its
    signature states the keys it takes and needs.  ``base`` is a nested spec, ``name``
    text and every other entry a finite number; an error names the dotted ``key``."""
    if not isinstance(obj, dict) or tag not in obj:
        raise ValidationError(f"{key} must be an object with a {tag!r} key")
    for k in (tag, "name"):
        if k in obj and not isinstance(obj[k], str):
            raise ValidationError(f"{key}.{k} must be text, not {obj[k]!r}")
    what = obj[tag]
    if what not in registry:
        raise ValidationError(f"unknown {noun} {tag} {what!r} in {key}")
    params = inspect.signature(registry[what]).parameters
    extra = sorted(set(obj) - {tag, *params})
    if extra:
        raise ValidationError(f"unknown {noun} keys {extra} for {tag} {what!r} in {key}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in obj]
    if missing:
        raise ValidationError(f"{noun} {tag} {what!r} needs the keys {missing} in {key}")

    def read(k, v):
        at = f"{key}.{k}"
        return (spec_from_json(v, registry, tag, at, noun) if k == "base"
                else v if k == "name" else finite(v, at))
    return registry[what](**{k: read(k, v) for k, v in obj.items() if k != tag})
