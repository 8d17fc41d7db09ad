"""Study results as flat fingerprints, compared against pinned references.

Every study returns frozen dataclasses of plain values.  ``fingerprint``
flattens one into ``{path: value}``.  Short sequences keep one entry per
element.  A long one (job outcomes, solver timelines, storm samples) is
split into columns, one per leaf path inside its items: a column holding
any float is kept whole, element by element, as ``path[*]leaf#values``;
any other column (ints, strings, ``None``) becomes ``path[*]leaf#crc``,
an order-sensitive CRC over its exact values.  ``compare`` then checks
integers, strings, ``None`` and CRCs exactly and every float within the
flow solver's 1e-9 relative slack (DESIGN.md §9).

This module imports nothing from ``repro``, so the parent benchmark
process can compare fingerprints without loading the simulator.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os
import zlib

#: relative tolerance on floats (the solver's documented slack)
FLOAT_RTOL = 1e-9

#: sequences longer than this are split into columns instead of listed
LIST_LIMIT = 8

#: a column's entry for an item that lacks the column's leaf
ABSENT = "<absent>"

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _leaf(value):
    """``value`` as a JSON-safe scalar; anything else raises."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return _leaf(value.value)
    # numpy scalars expose item(); arrays of size > 1 fall through
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "ndim", None) == 0:
        return item()
    raise TypeError(f"no fingerprint for {type(value).__name__}")


def _flatten(obj, path: str, out: dict) -> dict:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            _flatten(getattr(obj, field.name), f"{path}.{field.name}", out)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            _flatten(obj[key], f"{path}[{key}]", out)
    elif isinstance(obj, (tuple, list)):
        if len(obj) <= LIST_LIMIT:
            for i, item in enumerate(obj):
                _flatten(item, f"{path}[{i}]", out)
        else:
            _summarise(obj, path, out)
    else:
        out[path] = _leaf(obj)
    return out


def _summarise(seq, path: str, out: dict) -> None:
    out[f"{path}#len"] = len(seq)
    items = [_flatten(item, "", {}) for item in seq]
    for key in sorted(set().union(*items)):
        column = [item.get(key, ABSENT) for item in items]
        base = f"{path}[*]{key}"
        if any(isinstance(v, (float, list)) for v in column):
            out[f"{base}#values"] = column
        else:
            out[f"{base}#crc"] = zlib.crc32(json.dumps(column).encode())


def fingerprint(result) -> dict:
    """Flatten a study result into ``{path: value}`` (see module doc)."""
    return _flatten(result, "", {})


def _equal(a, b) -> bool:
    """Exact, except floats within ``FLOAT_RTOL``; lists element-wise."""
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b) and all(map(_equal, a, b)))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (bool, str)) or isinstance(b, (bool, str)) \
                or a is None or b is None:
            return False
        a, b = float(a), float(b)
        if a == b or (math.isnan(a) and math.isnan(b)):
            return True
        return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def _first_difference(a, b) -> str:
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if not _equal(x, y))
        return f"[{i}] got {a[i]!r}, pinned {b[i]!r}"
    return f"got {a!r}, pinned {b!r}"


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between two fingerprints; empty when they agree."""
    problems = [f"missing {k}" for k in sorted(set(want) - set(got))]
    problems += [f"unexpected {k}" for k in sorted(set(got) - set(want))]
    problems += [f"{key}: {_first_difference(got[key], want[key])}"
                 for key in sorted(set(got) & set(want))
                 if not _equal(got[key], want[key])]
    return problems


def load_references(path: str = REFERENCE_PATH) -> dict:
    """``{workload: {seed: {"size": ..., "fingerprint": ...}}}``."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def check_reference(references: dict, workload: str, seed: int, size: dict,
                    got: dict) -> list[str] | None:
    """Mismatches against the pinned reference, or ``None`` when no
    reference is pinned for this workload, seed and input size."""
    pinned = references.get(workload, {}).get(str(seed))
    if pinned is None or pinned["size"] != size:
        return None
    return compare(got, pinned["fingerprint"])
