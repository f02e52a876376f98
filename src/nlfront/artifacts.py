"""The artifact formats: result records serialize from their own fields,
JSON is strict (non-finite floats as null), indented and key-sorted, and
CSV columns carry 17 significant digits, which round-trip a float64."""

from __future__ import annotations

import json
import math
from dataclasses import fields


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
