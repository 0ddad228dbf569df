"""JSON codecs for instances and reports: complex matrices as [re, im]
pairs, check records, canonical dumps, hashes."""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .errors import SchemaError


def decode_matrix(doc, location: str = "") -> np.ndarray:
    """A matrix of real entries (rows, cols) or of [re, im] pairs
    (rows, cols, 2); anything else, or a non-finite entry, is refused."""
    try:
        arr = np.asarray(doc)
    except ValueError:      # ragged nesting
        arr = None
    if (
        arr is None
        or arr.dtype.kind not in "iuf"
        or not (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 2))
    ):
        raise SchemaError(
            "expected a matrix of real entries or [re, im] pairs", location
        )
    if not np.isfinite(arr).all():
        raise SchemaError("matrix has a non-finite entry", location)
    if arr.ndim == 2:
        return arr.astype(np.complex128)
    return arr[..., 0] + 1j * arr[..., 1]


def decode_checks(doc, location: str) -> list[dict]:
    """A list of check records: objects with a string ``name``, a boolean
    ``passed``, numbers or nulls ``value`` and ``threshold`` and a string
    ``detail``, the last three optional; anything else is refused."""
    if not isinstance(doc, list):
        raise SchemaError("expected a list of check records", location)
    for i, check in enumerate(doc):
        where = f"{location}/{i}"
        if not isinstance(check, dict):
            raise SchemaError("a check record must be an object", where)
        if not isinstance(check.get("name"), str):
            raise SchemaError("a check needs a string name", f"{where}/name")
        if not isinstance(check.get("passed"), bool):
            raise SchemaError("a check needs a boolean passed", f"{where}/passed")
        for key in ("value", "threshold"):
            v = check.get(key)
            if v is not None and (isinstance(v, bool)
                                  or not isinstance(v, (int, float))):
                raise SchemaError(f"{key} must be a number or null",
                                  f"{where}/{key}")
        if not isinstance(check.get("detail", ""), str):
            raise SchemaError("detail must be a string", f"{where}/detail")
    return doc


def canonical_json(obj: Any) -> str:
    """Deterministic textual form: sorted keys, no whitespace jitter."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_of(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if k not in ("wall_ms", "wall_time", "report_hash")
        }
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def report_hash(report_doc: dict) -> str:
    """Hash of a report with timing fields excluded."""
    return sha256_of(_strip_timing(report_doc))


def _pointer_to(doc, target: dict, pointer: str = ""):
    """The JSON pointer of the object ``target`` inside ``doc``, or None."""
    if doc is target:
        return pointer
    members = (doc.items() if isinstance(doc, dict)
               else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in members:
        step = str(k).replace("~", "~0").replace("/", "~1")
        found = _pointer_to(v, target, f"{pointer}/{step}")
        if found is not None:
            return found
    return None


def load_json(path: str) -> Any:
    """The JSON document in a UTF-8 file.  A missing or unreadable file,
    bytes that are not UTF-8, invalid JSON and an object that repeats a key
    are refused with SchemaError."""
    repeats = []       # (object, its first repeated key), innermost first

    def pairs_hook(pairs: list) -> dict:
        out = dict(pairs)
        if len(out) < len(pairs):
            seen: set = set()
            repeats.append((out, next(k for k, _ in pairs if k in seen or seen.add(k))))
        return out

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=pairs_hook)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except OSError as exc:      # a directory, say
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: byte {exc.start} does not decode",
                          path) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", f"{path}:{exc.lineno}")
    if repeats:
        obj, key = repeats[0]
        raise SchemaError(f"duplicate key {key!r}", _pointer_to(doc, obj) or "/")
    return doc
