"""Persistence of dilation results and re-verification without reconstruction.

A persisted result (format v4) is one uncompressed ``.npz`` archive of six
members, whatever the degree and the generator count.  Five are arrays of
the shapes their roles fix, complex128 but for ``pi_spans``:

* ``embedding``: rank x h;
* ``isometries``: n x rank x rank, the generator isometries V(g) for
  g = 1..n (n = 0 at degree 0);
* ``interiors``: the orthonormal bases of the levels k = 1..degree side by
  side, rank x the sum of their widths (level 0 is the whole space, with
  the identity as basis);
* ``pi_spans`` (int64): atoms x dim x 2, the [start, stop) in the dilation
  space of the group (atom at the catalog depth, base column), empty where
  there is none;
* ``pi_values``: the values of pi's table, laid out by
  ``dilation.pi_layout`` from the spans.

The sixth, ``meta``, is a JSON string (UTF-8 bytes): the format tag, the
hash of the instance that produced the result, the degree, the rank, the
widths of the interiors and the residual table.  ``verify_result`` runs the
identity suite of ``dilation`` on those stored arrays; it rebuilds the
(cheap) system and pair from the instance but never re-assembles or
re-diagonalizes the Gram operator.
"""

from __future__ import annotations

import json
import lzma
import zipfile
import zlib

import numpy as np

from .algebras import LevelledElement
from .cpmaps import ContractionFamily
from .dilation import (DilationResult, Tolerances, identity_suite, pi_layout,
                       scatter_pi, stored_pi_depth)
from .errors import SchemaError
from .serialize import decode_checks, load_json
from .systems import LcmSystem, ValidationReport

RESULT_FORMAT = "lcm-dilate-result-v4"
V1_FORMAT = "lcm-dilate-result-v1"
RETIRED_FORMATS = ("lcm-dilate-result-v2", "lcm-dilate-result-v3")
ZIP_MAGIC = b"PK\x03\x04"
ARRAYS = ("embedding", "isometries", "interiors", "pi_spans", "pi_values")


def result_payload(result: DilationResult, instance_hash: str) -> dict:
    """The members of the persisted result, by name."""
    rank = result.rank
    gens = result.sys.semigroup.generators if result.degree >= 1 else ()
    bases = [result.interiors[k].basis for k in range(1, result.degree + 1)]
    meta = {
        "format": RESULT_FORMAT,
        "instance_hash": instance_hash,
        "degree": result.degree,
        "rank": rank,
        "interior_widths": [b.shape[1] for b in bases],
        "residuals": [c.as_dict() for c in result.report.checks],
    }
    out = {
        "embedding": result.embedding,
        "isometries": result.v_word(list(gens)),
        "interiors": np.hstack([np.zeros((rank, 0), dtype=np.complex128), *bases]),
        "pi_spans": result.pi_spans,
        "pi_values": result.pi_table[2],
    }
    out = {name: np.ascontiguousarray(a) for name, a in out.items()}
    out["meta"] = np.array(json.dumps(meta, sort_keys=True).encode())
    return out


def write_result(path: str, payload: dict) -> None:
    """Write the members to exactly ``path`` (``np.savez`` given a name
    would append ``.npz``); a path that cannot be written is refused."""
    try:
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
    except OSError as exc:      # a missing directory, or a directory
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from None


def is_result_file(path: str) -> bool:
    """Whether ``path`` holds a zip archive, which a result is and a JSON
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
    unpickling, or metadata that is not a JSON object of the v4 format is
    refused at its location; a v2 or v3 result by name."""
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
    if meta.get("format") in RETIRED_FORMATS:
        raise SchemaError(f"format {meta['format'][-2:]} result; re-run dilate",
                          "meta/format")
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


def _array(arrays: dict, name: str, shape: tuple,
           dtype=np.complex128) -> np.ndarray:
    """The member ``name``: of ``dtype``, finite, of ``shape``."""
    if name not in arrays:
        raise SchemaError("missing member", name)
    a = arrays[name]
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        got = a.dtype if isinstance(a, np.ndarray) else "raw bytes"
        raise SchemaError(f"expected {np.dtype(dtype)} entries, got {got}", name)
    if a.shape != shape:
        raise SchemaError(f"expected shape {'x'.join(map(str, shape))}, "
                          f"got {a.shape}", name)
    if not np.isfinite(a).all():
        raise SchemaError("non-finite entry", name)
    return a


def _widths(meta: dict, degree: int) -> list[int]:
    """The widths of the interiors of levels 1..degree."""
    widths = meta.get("interior_widths")
    if not (isinstance(widths, list) and len(widths) == degree and all(
            type(w) is int and w >= 0 for w in widths)):
        raise SchemaError(f"interior_widths must be {degree} natural numbers",
                          "meta/interior_widths")
    return widths


def _pi_table(arrays: dict, sys: LcmSystem, depth, rank: int) -> tuple:
    """The table of pi that ``pi_layout`` lays out from the stored group
    spans, as the live result builds it.  The spans must be disjoint
    intervals of [0, rank], which bounds the layout by rank^2, and the
    values as many as its positions."""
    spans = _array(arrays, "pi_spans", (len(sys.model.atoms(depth)), sys.base.dim, 2),
                   np.int64)
    start, stop = spans[..., 0], spans[..., 1]
    if not ((0 <= start) & (start <= stop) & (stop <= rank)).all():
        raise SchemaError(f"spans must have 0 <= start <= stop <= {rank}", "pi_spans")
    full = spans[start < stop]
    full = full[np.argsort(full[:, 0])]
    if (full[:-1, 1] > full[1:, 0]).any():
        raise SchemaError("the spans of pi overlap", "pi_spans")
    _, pos, coef = pi_layout(spans, sys.base, rank)
    return pos, coef, _array(arrays, "pi_values", pos.shape)


class StoredDilation:
    """A persisted dilation as an operator source for the identity suite.

    pi scatters the stored table as the live result does, for an element
    or a stack of coefficient rows; the suite reads it up to ``pi_depth``.
    v_word(p) is the product of the stored generator isometries along p,
    exact on the interior of level gen_count(p), and of a list of words the
    stack of their products.  Every member is checked on construction, each
    array for the dtype and shape its role fixes, and refused with a
    ``SchemaError`` at its location; so is any other member.
    """

    def __init__(self, meta: dict, arrays: dict, sys: LcmSystem, phi,
                 T: ContractionFamily, tolerances: Tolerances):
        self.sys, self.phi, self.T, self.tolerances = sys, phi, T, tolerances
        self.degree = stored_degree(meta)
        self.rank = rank = _natural(meta, "rank")
        widths = _widths(meta, self.degree)
        unexpected = sorted(set(arrays) - set(ARRAYS))
        if unexpected:
            raise SchemaError("unexpected member", unexpected[0])
        self.pi_depth = stored_pi_depth(sys, self.degree)
        # a product of k generator shifts is exact on the interior of level k
        self.word_level = sys.semigroup.gen_count
        n = sys.semigroup.rank if self.degree >= 1 else 0
        self.embedding = _array(arrays, "embedding", (rank, T.h))
        self.isometries = _array(arrays, "isometries", (n, rank, rank))
        bases = _array(arrays, "interiors", (rank, sum(widths)))
        edges = np.cumsum([0, *widths]).tolist()
        self.interiors = {k: bases[:, edges[k - 1]:edges[k]]
                          for k in range(1, self.degree + 1)}
        self.interiors[0] = np.eye(rank, dtype=np.complex128)
        self._depth = sys.model.normalize_depth(self.degree)
        self.pi_table = _pi_table(arrays, sys, self._depth, rank)
        self._products = {(): np.eye(rank, dtype=np.complex128)}
        self.residuals = stored_residuals(meta)

    def interior_basis(self, level: int) -> np.ndarray:
        return self.interiors[level]

    def pi(self, x) -> np.ndarray:
        vec = x.vec(self._depth) if isinstance(x, LevelledElement) else x
        return scatter_pi(self.pi_table, self.rank, vec)

    def v_word(self, p) -> np.ndarray:
        """The product along the word of p, left to right, memoised on the
        prefixes of the word; of a list of words, the stack of products."""
        if isinstance(p, list):
            return np.array([self.v_word(w) for w in p], np.complex128).reshape(
                len(p), self.rank, self.rank)
        word, out = tuple(self.sys.semigroup.as_word(p)), self._products
        for k in range(len(word)):
            if word[:k + 1] not in out:
                out[word[:k + 1]] = out[word[:k]] @ self.isometries[word[k] - 1]
        return out[word]


def verify_result(meta: dict, arrays: dict, sys: LcmSystem, phi,
                  T: ContractionFamily, tolerances: Tolerances) -> ValidationReport:
    """Run the identity suite on a persisted result.  The identities that
    need the Gram operator or the kernel are vouched for by the stored
    residual table, which must itself be green."""
    stored = StoredDilation(meta, arrays, sys, phi, T, tolerances)
    report = identity_suite(stored)
    stored_bad = [r["name"] for r in stored.residuals if not r["passed"]]
    report.at_most("verify.stored_residuals", [(float(len(stored_bad)), "")], 0.0,
                   detail=", ".join(stored_bad))
    return report
