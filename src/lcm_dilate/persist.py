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
from .dilation import DilationResult, Tolerances, identity_suite
from .errors import SchemaError
from .semigroup import Element
from .serialize import decode_matrix, encode_matrix
from .systems import LcmSystem, ValidationReport

RESULT_FORMAT = "lcm-dilate-result-v1"


def stored_pi_depth(sys: LcmSystem, degree: int) -> int:
    """Depth of the algebra basis pi is stored on: 1 on levelled models at
    degree >= 1, since the depth-1 basis spans every depth-0 element, else 0."""
    return 1 if sys.is_levelled and degree >= 1 else 0


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


class StoredDilation:
    """A persisted dilation as an operator source for the identity suite.

    pi is the linear extension of the stored matrices of the basis at
    ``stored_pi_depth``, so it covers elements of depth at most ``pi_depth``;
    v_word(p) is the product of the stored generator isometries along p,
    exact on the interior of level gen_count(p).
    """

    def __init__(self, doc: dict, sys: LcmSystem, phi: OperatorMap,
                 T: ContractionFamily, tolerances: Tolerances):
        check_format(doc)
        self.sys, self.phi, self.T, self.tolerances = sys, phi, T, tolerances
        try:
            self.degree = int(doc["degree"])
            self.rank = int(doc["rank"])
            self.embedding = decode_matrix(doc["embedding"], "/embedding")
            self.isometries = [decode_matrix(m, f"/isometries/{g}")
                               for g, m in enumerate(doc["isometries"])]
            self.interiors = {int(k): decode_matrix(v, f"/interiors/{k}")
                              for k, v in doc["interiors"].items()}
            self.pi_depth = stored_pi_depth(sys, self.degree)
            self._pi = np.array([
                decode_matrix(doc["pi"][lbl], f"/pi/{lbl}")
                for lbl in _pi_labels(sys, self.pi_depth)
            ])
        except KeyError as exc:
            raise SchemaError(f"persisted result lacks {exc}") from None

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
    report = identity_suite(StoredDilation(doc, sys, phi, T, tolerances))
    stored_bad = [r["name"] for r in doc["residuals"] if not r["passed"]]
    report.add(
        "verify.stored_residuals", not stored_bad, float(len(stored_bad)), 0.0,
        detail=", ".join(stored_bad),
    )
    return report
