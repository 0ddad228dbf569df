"""Persistence of dilation results and re-verification without reconstruction.

A persisted result (format v2) is one uncompressed ``.npz`` archive.  Its
matrices are complex128 arrays of the shapes their roles fix:

* ``embedding``: rank x h;
* ``isometry_<g>``: rank x rank, one per generator g = 1..n (none at
  degree 0);
* ``interior_<k>``: rank rows, one basis per level k = 1..degree (level 0
  is the whole space, with the identity as basis);
* ``pi``: labels x rank x rank, pi on the algebra basis at
  ``stored_pi_depth``.

One JSON string member, ``meta`` (UTF-8 bytes), holds the format tag, the
hash of the instance that produced the result, the degree, the rank, the
tolerances the residual table was computed with, the pi labels and the
residual table.
``verify_result`` runs the identity suite of ``dilation`` on those stored
matrices; it rebuilds the (cheap) system and pair from the instance but never
re-assembles or re-diagonalizes the Gram operator.
"""

from __future__ import annotations

import json
import lzma
import zipfile
import zlib

import numpy as np

from .cpmaps import ContractionFamily, LevelledOperatorMap
from .dilation import DilationResult, Tolerances, identity_suite, stored_pi_depth
from .errors import SchemaError
from .semigroup import Element
from .serialize import decode_checks, load_json
from .systems import LcmSystem, ValidationReport

RESULT_FORMAT = "lcm-dilate-result-v2"
V1_FORMAT = "lcm-dilate-result-v1"
ZIP_MAGIC = b"PK\x03\x04"


def _pi_labels(sys: LcmSystem, depth: int) -> list[str]:
    return [f"d{depth}:{lbl}" for lbl in sys.basis_labels(depth)]


def result_payload(result: DilationResult, instance_hash: str) -> dict:
    """The members of the persisted result, by name."""
    sys_ = result.sys
    depth = stored_pi_depth(sys_, result.degree)
    meta = {
        "format": RESULT_FORMAT,
        "instance_hash": instance_hash,
        "degree": result.degree,
        "rank": result.rank,
        "tolerances": result.tolerances.as_dict(),
        "pi_labels": _pi_labels(sys_, depth),
        "residuals": [c.as_dict() for c in result.report.checks],
    }
    out = {
        "embedding": result.embedding,
        "pi": np.array([result.pi(elem) for elem in sys_.algebra_basis(depth)]),
    }
    if result.degree >= 1:
        for g, gen in enumerate(sys_.semigroup.generators, start=1):
            out[f"isometry_{g}"] = result.v_word(gen)
    for level in range(1, result.degree + 1):
        out[f"interior_{level}"] = result.interiors[level].basis
    out = {name: np.ascontiguousarray(a) for name, a in out.items()}
    out["meta"] = np.array(json.dumps(meta, sort_keys=True).encode())
    return out


def write_result(path: str, payload: dict) -> None:
    """Write the members to exactly ``path`` (``np.savez`` given a name
    would append ``.npz``)."""
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def is_result_file(path: str) -> bool:
    """Whether ``path`` holds a zip archive, which a v2 result is and a JSON
    report never is."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(ZIP_MAGIC)) == ZIP_MAGIC
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:      # a directory, say
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None


def refuse_v1(doc) -> None:
    """Refuse a format v1 (JSON) result by name; there is no v1 reader."""
    if isinstance(doc, dict) and doc.get("format") == V1_FORMAT:
        raise SchemaError("format v1 JSON result; re-run dilate", "/format")


def load_result(path: str) -> tuple[dict, dict]:
    """(metadata, arrays by member name) of the result at ``path``.  A file
    that is not a zip archive, a member that cannot be read without
    unpickling, or metadata that is not a JSON object of the v2 format is
    refused at its location."""
    if not is_result_file(path):
        try:
            doc = load_json(path)
        except SchemaError:
            doc = None
        refuse_v1(doc)
        raise SchemaError("not a persisted dilation result (a result is a "
                          ".npz archive)")
    arrays, name = {}, ""       # the member being read, "" for the archive
    # a corrupted header may claim encryption or an unknown compression
    # method (RuntimeError), or send a stream through zlib or lzma
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            for name in npz.files:
                arrays[name] = npz[name]
    except (ValueError, OSError, EOFError, RuntimeError, zipfile.BadZipFile,
            zlib.error, lzma.LZMAError) as exc:
        raise SchemaError(f"unreadable .npz archive: {exc}", name) from None
    text = arrays.pop("meta", None)
    if text is None:
        raise SchemaError("missing member", "meta")
    if not (isinstance(text, np.ndarray) and text.dtype.kind == "S"
            and text.ndim == 0):
        raise SchemaError("metadata must be one byte string", "meta")
    try:
        meta = json.loads(text[()].decode())
    except ValueError as exc:       # JSON or UTF-8 decoding
        raise SchemaError(f"metadata is not JSON: {exc}", "meta") from None
    if not isinstance(meta, dict):
        raise SchemaError("metadata must be a JSON object", "meta")
    if meta.get("format") != RESULT_FORMAT:
        raise SchemaError(f"not a persisted dilation result (format "
                          f"{meta.get('format')!r})", "meta/format")
    return meta, arrays


def stored_degree(meta: dict) -> int:
    """The truncation degree a persisted result was built at."""
    return _natural(meta, "degree")


def stored_residuals(meta: dict) -> list[dict]:
    return decode_checks(meta.get("residuals"), "meta/residuals")


def _natural(meta: dict, key: str) -> int:
    value = meta.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{key} must be a natural number", f"meta/{key}")
    return value


def _array(arrays: dict, name: str, shape: tuple) -> np.ndarray:
    """The member ``name``: complex128, finite, of ``shape`` (None leaves
    that axis free)."""
    if name not in arrays:
        raise SchemaError("missing member", name)
    a = arrays[name]
    if not isinstance(a, np.ndarray) or a.dtype != np.complex128:
        got = a.dtype if isinstance(a, np.ndarray) else "raw bytes"
        raise SchemaError(f"expected complex128 entries, got {got}", name)
    if a.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(a.shape, shape)):
        want = "x".join("*" if n is None else str(n) for n in shape)
        raise SchemaError(f"expected shape {want}, got {a.shape}", name)
    if not np.isfinite(a).all():
        raise SchemaError("non-finite entry", name)
    return a


class StoredDilation:
    """A persisted dilation as an operator source for the identity suite.

    pi is the linear extension of the stored matrices of the basis at
    ``stored_pi_depth``, so it covers elements of depth at most ``pi_depth``;
    v_word(p) is the product of the stored generator isometries along p,
    exact on the interior of level gen_count(p).  Every member is checked on
    construction, each matrix for the shape its role fixes, and refused
    with a ``SchemaError`` at its location; so is a member the suite does
    not read.
    """

    def __init__(self, meta: dict, arrays: dict, sys: LcmSystem,
                 phi: LevelledOperatorMap, T: ContractionFamily,
                 tolerances: Tolerances):
        self.sys, self.phi, self.T, self.tolerances = sys, phi, T, tolerances
        self.degree = stored_degree(meta)
        self.rank = rank = _natural(meta, "rank")
        self.pi_depth = stored_pi_depth(sys, self.degree)
        labels = _pi_labels(sys, self.pi_depth)
        if meta.get("pi_labels") != labels:
            raise SchemaError(f"expected the pi labels {labels}", "meta/pi_labels")
        gens = range(1, sys.semigroup.rank + 1) if self.degree >= 1 else ()
        levels = range(1, self.degree + 1)
        expected = {"embedding", "pi", *(f"isometry_{g}" for g in gens),
                    *(f"interior_{k}" for k in levels)}
        unexpected = sorted(set(arrays) - expected)
        if unexpected:
            raise SchemaError("unexpected member", unexpected[0])
        self.embedding = _array(arrays, "embedding", (rank, T.h))
        self.isometries = [_array(arrays, f"isometry_{g}", (rank, rank))
                           for g in gens]
        self.interiors = {0: np.eye(rank, dtype=np.complex128)}
        for k in levels:
            self.interiors[k] = _array(arrays, f"interior_{k}", (rank, None))
        self._pi = LevelledOperatorMap(
            sys, self.pi_depth, _array(arrays, "pi", (len(labels), rank, rank)))
        self._products = {(): np.eye(rank, dtype=np.complex128)}
        self.residuals = stored_residuals(meta)

    def interior_basis(self, level: int) -> np.ndarray:
        return self.interiors[level]

    def pi(self, x) -> np.ndarray:
        return self._pi.value(x)

    def word_level(self, p: Element) -> int:
        """A product of k generator shifts is exact on the interior of level k."""
        return self.sys.semigroup.gen_count(p)

    def v_word(self, p: Element) -> np.ndarray:
        """The product along the word of p, left to right, memoised on the
        prefixes of the word."""
        word = self.sys.semigroup.as_word(p)
        k = len(word)
        while word[:k] not in self._products:
            k -= 1
        out = self._products[word[:k]]
        for i in range(k, len(word)):
            out = out @ self.isometries[word[i] - 1]
            self._products[word[:i + 1]] = out
        return out


def verify_result(
    meta: dict,
    arrays: dict,
    sys: LcmSystem,
    phi: LevelledOperatorMap,
    T: ContractionFamily,
    tolerances: Tolerances,
) -> ValidationReport:
    """Run the identity suite on a persisted result.  The identities that
    need the Gram operator or the kernel are vouched for by the stored
    residual table, which must itself be green."""
    stored = StoredDilation(meta, arrays, sys, phi, T, tolerances)
    report = identity_suite(stored)
    stored_bad = [r["name"] for r in stored.residuals if not r["passed"]]
    report.at_most("verify.stored_residuals", [(float(len(stored_bad)), "")], 0.0,
                   detail=", ".join(stored_bad))
    return report
