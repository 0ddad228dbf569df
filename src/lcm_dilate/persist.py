"""Persistence of dilation results and re-verification without reconstruction.

A persisted result (format v3) is one uncompressed ``.npz`` archive of
complex128 arrays, but for two int64 ones, of the shapes their roles fix:

* ``embedding``: rank x h;
* ``isometry_<g>``: rank x rank, one per generator g = 1..n (none at
  degree 0);
* ``interior_<k>``: rank rows, one basis per level k = 1..degree (level 0
  is the whole space, with the identity as basis);
* ``pi_positions`` and ``pi_coefficients`` (int64) and ``pi_values``, of
  one length: the table of pi that ``dilation.scatter_pi`` reads.

One JSON string member, ``meta`` (UTF-8 bytes), holds the format tag, the
hash of the instance that produced the result, the degree, the rank, the
tolerances the residual table was computed with and the residual table.
``verify_result`` runs the identity suite of ``dilation`` on those stored
arrays; it rebuilds the (cheap) system and pair from the instance but never
re-assembles or re-diagonalizes the Gram operator.
"""

from __future__ import annotations

import json
import lzma
import re
import zipfile
import zlib

import numpy as np

from .cpmaps import ContractionFamily
from .dilation import (DilationResult, Tolerances, identity_suite, pi_layout,
                       scatter_pi, stored_pi_depth)
from .errors import SchemaError
from .semigroup import Element
from .serialize import decode_checks, load_json
from .systems import LcmSystem, ValidationReport

RESULT_FORMAT = "lcm-dilate-result-v3"
V1_FORMAT = "lcm-dilate-result-v1"
V2_FORMAT = "lcm-dilate-result-v2"
ZIP_MAGIC = b"PK\x03\x04"
PI_MEMBERS = ("pi_positions", "pi_coefficients", "pi_values")


def result_payload(result: DilationResult, instance_hash: str) -> dict:
    """The members of the persisted result, by name."""
    meta = {
        "format": RESULT_FORMAT,
        "instance_hash": instance_hash,
        "degree": result.degree,
        "rank": result.rank,
        "tolerances": result.tolerances.as_dict(),
        "residuals": [c.as_dict() for c in result.report.checks],
    }
    out = {"embedding": result.embedding, **dict(zip(PI_MEMBERS, result.pi_table))}
    if result.degree >= 1:
        for g, gen in enumerate(result.sys.semigroup.generators, start=1):
            out[f"isometry_{g}"] = result.v_word(gen)
    for level in range(1, result.degree + 1):
        out[f"interior_{level}"] = result.interiors[level].basis
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
    unpickling, or metadata that is not a JSON object of the v3 format is
    refused at its location; a v2 result by name."""
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
    if meta.get("format") == V2_FORMAT:
        raise SchemaError("format v2 result; re-run dilate", "meta/format")
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


def _array(arrays: dict, name: str, shape: tuple, dtype=np.complex128,
           bound: int = 0) -> np.ndarray:
    """The member ``name``: of ``dtype``, finite, of ``shape`` (None leaves
    that axis free), and with a ``bound`` its entries in [0, bound)."""
    if name not in arrays:
        raise SchemaError("missing member", name)
    a = arrays[name]
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        got = a.dtype if isinstance(a, np.ndarray) else "raw bytes"
        raise SchemaError(f"expected {np.dtype(dtype)} entries, got {got}", name)
    if a.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(a.shape, shape)):
        want = "x".join("*" if n is None else str(n) for n in shape)
        raise SchemaError(f"expected shape {want}, got {a.shape}", name)
    if not np.isfinite(a).all():
        raise SchemaError("non-finite entry", name)
    if bound and a.size and not (a.min() >= 0 and a.max() < bound):
        raise SchemaError(f"entries must lie in [0, {bound})", name)
    return a


def _pi_table(arrays: dict, sys: LcmSystem, depth, rank: int) -> tuple:
    """The stored table of pi, refused unless it is ``pi_layout``'s for the
    disjoint group spans that its identity blocks, of a[atom][c, c], cover."""
    dim, atoms = sys.base.dim, len(sys.model.atoms(depth))
    vals = _array(arrays, "pi_values", (None,))
    pos = _array(arrays, "pi_positions", vals.shape, np.int64, rank * rank)
    coef = _array(arrays, "pi_coefficients", vals.shape, np.int64, atoms * dim * dim)
    k, i, c = coef // (dim * dim), coef // dim % dim, coef % dim
    start, stop = np.full((atoms, dim), rank), np.zeros((atoms, dim), dtype=np.intp)
    np.minimum.at(start, (k[i == c], c[i == c]), pos[i == c] // rank)
    np.maximum.at(stop, (k[i == c], c[i == c]), pos[i == c] // rank + 1)
    spans = np.stack([np.minimum(start, stop), stop], -1)
    if np.ptp(spans, axis=-1).sum() > rank:
        raise SchemaError("the blocks of pi overlap", "pi_positions")
    _, want_pos, want_coef = pi_layout(spans, sys.base, rank)
    for name, got, want in (("pi_coefficients", coef, want_coef),
                            ("pi_positions", pos, want_pos)):
        if not np.array_equal(got, want):
            raise SchemaError("not the block layout of pi", name)
    return pos, coef, vals


class StoredDilation:
    """A persisted dilation as an operator source for the identity suite.

    pi scatters the stored table as the live result does; the suite reads
    it up to ``pi_depth``.  v_word(p) is the product of the stored
    generator isometries along p, exact on the interior of level
    gen_count(p).  Every member is checked on construction, each array for
    the dtype and shape its role fixes, and refused with a ``SchemaError``
    at its location; so is a member the suite does not read.
    """

    def __init__(self, meta: dict, arrays: dict, sys: LcmSystem, phi,
                 T: ContractionFamily, tolerances: Tolerances):
        self.sys, self.phi, self.T, self.tolerances = sys, phi, T, tolerances
        self.degree = stored_degree(meta)
        self.rank = rank = _natural(meta, "rank")
        self.pi_depth = stored_pi_depth(sys, self.degree)
        gens = range(1, sys.semigroup.rank + 1) if self.degree >= 1 else ()
        expected = {"embedding", *PI_MEMBERS, *(f"isometry_{g}" for g in gens)}
        for name in sorted(arrays):     # the degree may be far above the levels
            level = re.fullmatch("interior_([1-9][0-9]*)", name)
            if name not in expected and not (level and int(level[1]) <= self.degree):
                raise SchemaError("unexpected member", name)
        self.embedding = _array(arrays, "embedding", (rank, T.h))
        self.isometries = [_array(arrays, f"isometry_{g}", (rank, rank))
                           for g in gens]
        self.interiors = {0: np.eye(rank, dtype=np.complex128)}
        for k in range(1, self.degree + 1):
            self.interiors[k] = _array(arrays, f"interior_{k}", (rank, None))
        self._depth = sys.model.normalize_depth(self.degree)
        self.pi_table = _pi_table(arrays, sys, self._depth, rank)
        self._products = {(): np.eye(rank, dtype=np.complex128)}
        self.residuals = stored_residuals(meta)

    def interior_basis(self, level: int) -> np.ndarray:
        return self.interiors[level]

    def pi(self, x) -> np.ndarray:
        return scatter_pi(self.pi_table, self.rank, x.vec(self._depth))

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
