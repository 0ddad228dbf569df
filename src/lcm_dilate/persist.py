"""Persistence of dilation results and re-verification without reconstruction.

A persisted result stores the dilation matrices (embedding, generator shifts,
representation on the algebra basis at ``stored_pi_depth``), the interior
bases, the Gram spectrum, and the residual table, keyed by the hash of the
instance that produced it.  ``verify_result`` runs the identity suite of ``dilation`` on
those stored matrices; it rebuilds the (cheap) system and pair from the
instance but never re-assembles or re-diagonalizes the Gram operator.
"""

from __future__ import annotations

import numpy as np

from .cpmaps import ContractionFamily, OperatorMap
from .dilation import DilationResult, Tolerances, identity_suite, stored_pi_depth
from .errors import SchemaError
from .semigroup import Element
from .serialize import decode_checks, decode_matrix, encode_matrix
from .systems import LcmSystem, ValidationReport

RESULT_FORMAT = "lcm-dilate-result-v1"


def _pi_labels(sys: LcmSystem, depth: int) -> list[str]:
    return [f"d{depth}:{lbl}" for lbl in sys.basis_labels(depth)]


def result_payload(result: DilationResult, instance_hash: str) -> dict:
    depth = stored_pi_depth(result.sys, result.degree)
    pi_entries = {
        lbl: encode_matrix(result.pi(elem))
        for lbl, elem in zip(_pi_labels(result.sys, depth),
                             result.sys.algebra_basis(depth))
    }
    return {
        "format": RESULT_FORMAT,
        "instance_hash": instance_hash,
        "degree": result.degree,
        "h": result.h,
        "rank": result.rank,
        "space_size": result.assembly.size,
        "gram_spectrum": [float(x) for x in result.eigenvalues],
        "catalog": [
            {"q": list(idx.q), "pos": idx.pos} for idx in result.assembly.catalog
        ],
        "embedding": encode_matrix(result.embedding),
        "isometries": [
            encode_matrix(result.v_word(g))
            for g in result.sys.semigroup.generators
        ] if result.degree >= 1 else [],
        "pi": pi_entries,
        "interiors": {
            str(level): encode_matrix(interior.basis)
            for level, interior in result.interiors.items()
        },
        "residuals": [c.as_dict() for c in result.report.checks],
        "tolerances": result.tolerances.as_dict(),
    }


def check_format(doc: dict) -> None:
    if doc.get("format") != RESULT_FORMAT:
        raise SchemaError(
            f"not a persisted dilation result (format {doc.get('format')!r})",
            "/format",
        )


def stored_degree(doc: dict) -> int:
    """The truncation degree a persisted result was built at."""
    return _natural(doc, "degree")


def _natural(doc: dict, key: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{key} must be a natural number", f"/{key}")
    return value


def _member(doc: dict, key: str, kind: type):
    value = doc.get(key)
    if not isinstance(value, kind):
        raise SchemaError(f"{key} must be a JSON {kind.__name__}", f"/{key}")
    return value


def _matrix(doc, location: str, rows: int, cols=None) -> np.ndarray:
    """A stored matrix with ``rows`` rows and, when given, ``cols`` columns."""
    m = decode_matrix(doc, location)
    if m.shape[0] != rows or cols is not None and m.shape[1] != cols:
        want = f"{rows}x{cols}" if cols is not None else f"{rows}-row"
        raise SchemaError(f"expected a {want} matrix, got {m.shape[0]}x"
                          f"{m.shape[1]}", location)
    return m


class StoredDilation:
    """A persisted dilation as an operator source for the identity suite.

    pi is the linear extension of the stored matrices of the basis at
    ``stored_pi_depth``, so it covers elements of depth at most ``pi_depth``;
    v_word(p) is the product of the stored generator isometries along p,
    exact on the interior of level gen_count(p).  Every member the suite
    reads is checked on construction, each matrix for the shape its role
    fixes, and refused with a ``SchemaError`` at its location.
    """

    def __init__(self, doc: dict, sys: LcmSystem, phi: OperatorMap,
                 T: ContractionFamily, tolerances: Tolerances):
        check_format(doc)
        self.sys, self.phi, self.T, self.tolerances = sys, phi, T, tolerances
        self.degree = stored_degree(doc)
        self.rank = rank = _natural(doc, "rank")
        self.embedding = _matrix(doc.get("embedding"), "/embedding", rank, T.h)
        isometries = _member(doc, "isometries", list)
        if len(isometries) != (sys.semigroup.rank if self.degree >= 1 else 0):
            raise SchemaError("need one isometry per generator at degree >= 1",
                              "/isometries")
        self.isometries = [_matrix(m, f"/isometries/{g}", rank, rank)
                           for g, m in enumerate(isometries)]
        self.interiors = {}
        for k, v in _member(doc, "interiors", dict).items():
            if not str(k).isdecimal():
                raise SchemaError("interior key is not a level", f"/interiors/{k}")
            self.interiors[int(k)] = _matrix(v, f"/interiors/{k}", rank)
        if any(level not in self.interiors for level in range(self.degree + 1)):
            raise SchemaError(f"need interiors of levels 0..{self.degree}",
                              "/interiors")
        self.pi_depth = stored_pi_depth(sys, self.degree)
        pi = _member(doc, "pi", dict)
        table = []
        for lbl in _pi_labels(sys, self.pi_depth):
            if lbl not in pi:
                raise SchemaError(f"pi lacks {lbl!r}", "/pi")
            table.append(_matrix(pi[lbl], f"/pi/{lbl}", rank, rank))
        self._pi = np.array(table)
        self.residuals = decode_checks(doc.get("residuals"), "/residuals")

    def interior_basis(self, level: int) -> np.ndarray:
        return self.interiors[level]

    def pi(self, x) -> np.ndarray:
        depth = self.sys.model.normalize_depth(self.pi_depth)
        y = x.refine_to(depth)
        coeffs = np.concatenate([
            self.sys.base.coefficients(y.coefficient(atom))
            for atom in self.sys.model.atoms(depth)
        ])
        return np.tensordot(coeffs, self._pi, axes=1)

    def word_level(self, p: Element) -> int:
        """A product of k generator shifts is exact on the interior of level k."""
        return self.sys.semigroup.gen_count(p)

    def v_word(self, p: Element) -> np.ndarray:
        out = np.eye(self.rank, dtype=np.complex128)
        for letter in self.sys.semigroup.as_word(p):
            out = out @ self.isometries[letter - 1]
        return out


def verify_result(
    doc: dict,
    sys: LcmSystem,
    phi: OperatorMap,
    T: ContractionFamily,
    tolerances: Tolerances,
) -> ValidationReport:
    """Run the identity suite on a persisted result.  The identities that
    need the Gram operator or the kernel are vouched for by the stored
    residual table, which must itself be green."""
    stored = StoredDilation(doc, sys, phi, T, tolerances)
    report = identity_suite(stored)
    stored_bad = [r["name"] for r in stored.residuals if not r["passed"]]
    report.add(
        "verify.stored_residuals", not stored_bad, float(len(stored_bad)), 0.0,
        detail=", ".join(stored_bad),
    )
    return report
