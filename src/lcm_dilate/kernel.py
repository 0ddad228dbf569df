"""Kernel systems: corner-indexed operator kernels and their Gram operators.

A kernel system attached to a pair (phi, T) over a validated system evaluates

    K(p, a, q) = T(p\\r) phi(inv_r(a)) T(q\\r)*        r = lcm(p, q),

and 0 when pP and qP are disjoint, where p\\r is the left quotient and inv_r
the left inverse of the endomorphism at r.  The block matrix of values
K(q_i, b_i* b_j, q_j) over a truncated index catalog is the Gram operator
whose positivity is equivalent to complete positivity of phi and drives the
dilation construction.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .algebras import LevelledElement, PointModel, operator_norm
from .cpmaps import BaseOperatorMap, ContractionFamily, OperatorMap
from .errors import (
    CornerMembershipError,
    CovarianceError,
    ResourceCapError,
    SpecMismatchError,
)
from .semigroup import Element
from .systems import LcmSystem, ValidationReport

COVARIANCE_TOL = 1e-9
CORNER_RTOL = 1e-8
CHECK_TOL = 1e-8
DEFAULT_MAX_GRAM_DIM = 4096


class KernelSystem:
    """The kernel attached to a contractive covariant pair.

    Covariance of the pair (T(g) phi(a) T(g)* = phi(alpha_g(a)) on an algebra
    basis, per generator) is a construction precondition; pass
    ``validate=False`` only for negative-control fixtures.
    """

    def __init__(
        self,
        sys: LcmSystem,
        phi: OperatorMap,
        T: ContractionFamily,
        validate: bool = True,
        tol: float = COVARIANCE_TOL,
    ):
        if T.semigroup.kind != sys.semigroup.kind or T.semigroup.rank != sys.semigroup.rank:
            raise SpecMismatchError("contraction family indexed by the wrong semigroup")
        if phi.h != T.h:
            raise SpecMismatchError("phi and T act on different Hilbert spaces")
        self.sys = sys
        self.phi = phi
        self.T = T
        self.h = T.h
        if validate:
            self.validate_covariance(tol)

    # -- construction checks ---------------------------------------------------

    def validate_covariance(self, tol: float = COVARIANCE_TOL) -> float:
        # written as `not (x <= tol)` so that NaN and inf fail
        ud = self.phi.unital_defect()
        if not ud <= tol:
            raise CovarianceError(ud, tol, "phi is not unital")
        sd = self.phi.selfadjoint_defect()
        if not sd <= tol:
            raise CovarianceError(sd, tol, "phi is not *-preserving")
        worst = 0.0
        for g, gen in enumerate(self.sys.semigroup.generators, start=1):
            for b in self._covariance_basis(g):
                lhs = self.T(gen) @ self.phi.value(b) @ self.T(gen).conj().T
                rhs = self.phi.value(self.sys.apply_endo(gen, b))
                worst = max(worst, operator_norm(lhs - rhs))
        if not worst <= tol:
            raise CovarianceError(worst, tol, "covariance on the algebra basis")
        return worst

    def _covariance_basis(self, g: int) -> list[LevelledElement]:
        model = self.sys.model
        if isinstance(self.phi, BaseOperatorMap) or isinstance(model, PointModel):
            return self.sys.algebra_basis()
        depth = self.phi.depth
        if model.kind == "toeplitz_abelian":
            d = list(depth)
            if d[g - 1] == 0:
                return []
            d[g - 1] -= 1
            return self.sys.algebra_basis(tuple(d))
        if depth == 0:
            return []
        return self.sys.algebra_basis(depth - 1)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        p: Element,
        a: LevelledElement,
        q: Element,
        check_corner: bool = True,
        corner_rtol: float = CORNER_RTOL,
    ) -> np.ndarray:
        """K(p, a, q); requires a in the corner E_p . A . E_q."""
        sg = self.sys.semigroup
        p, q = tuple(p), tuple(q)
        sg.validate_element(p)
        sg.validate_element(q)
        r = sg.lcm(p, q)
        if r is None:
            if check_corner and a.norm() > corner_rtol:
                raise CornerMembershipError(a.norm(), corner_rtol)
            return np.zeros((self.h, self.h), dtype=np.complex128)
        if check_corner:
            depth = self.sys.model.join_depth(
                a.depth,
                self.sys.model.join_depth(
                    self.sys.depth_of(p), self.sys.depth_of(q)
                ),
            )
            corner = self.sys.corner_basis(p, q, depth)
            if len(corner) == 0:
                if a.norm() > corner_rtol:
                    raise CornerMembershipError(a.norm(), corner_rtol)
                return np.zeros((self.h, self.h), dtype=np.complex128)
            _, resid = corner.coefficients(a)
            if not resid <= corner_rtol:
                raise CornerMembershipError(resid, corner_rtol)
        stripped = self.sys.alpha_inverse(r, a)
        d1 = sg.left_divide(p, r)
        d2 = sg.left_divide(q, r)
        return self.T(d1) @ self.phi.value(stripped) @ self.T(d2).conj().T


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


@dataclass
class GramIndex:
    q: Element
    pos: int
    element: LevelledElement
    key: tuple            # (atom, i, j): the element is atom (x) e_ij

    @property
    def label(self) -> str:
        return f"{self.q}#{self.pos}"


@dataclass
class GramAssembly:
    """The Gram operator of the truncated index catalog.

    ``catalog[i]`` describes block i; entry (i, j) of the block matrix is
    K(q_i, a_i* a_j, q_j).  ``corners[q]`` is the matrix-unit corner basis of
    A . E_q at the truncation depth, shared by every index at q.
    """

    kernel: KernelSystem
    degree: int
    catalog: list[GramIndex]
    corners: dict
    gram: np.ndarray
    hermiticity_defect: float

    @property
    def h(self) -> int:
        return self.kernel.h

    @property
    def size(self) -> int:
        return len(self.catalog) * self.h

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gram)


def assemble_gram(
    kernel: KernelSystem,
    degree: int,
    max_dim: int = DEFAULT_MAX_GRAM_DIM,
) -> GramAssembly:
    """Assemble the Gram operator at truncation degree ``degree``.

    The index set runs over semigroup elements of length at most the degree,
    each carrying the matrix-unit corner basis of A . E_q computed at the
    uniform truncation depth, so every entry stays inside the depth catalog.
    For a_i = atom (x) e_ab and a_j = atom' (x) e_cd the product a_i* a_j
    vanishes unless atom = atom' and a = c, so only blocks inside one
    (atom, row) group are evaluated; the others are exactly zero.
    """
    sys_ = kernel.sys
    sg = sys_.semigroup
    catalog: list[GramIndex] = []
    corners: dict = {}
    for q in sg.enumerate_up_to(degree):
        corner = sys_.corner_basis(sg.identity, q, degree)
        corners[q] = corner
        for j, (key, elem) in enumerate(zip(corner.keys, corner.elements)):
            catalog.append(GramIndex(q, j, elem, key))
    n = len(catalog)
    h = kernel.h
    if n * h > max_dim:
        raise ResourceCapError(
            f"Gram operator of size {n * h} exceeds cap {max_dim}"
        )
    groups: dict = defaultdict(list)
    for i, idx in enumerate(catalog):
        groups[idx.key[:2]].append(i)
    gram = np.zeros((n * h, n * h), dtype=np.complex128)
    herm_defect = 0.0
    for members in groups.values():
        for s, i in enumerate(members):
            ai = catalog[i].element.star()
            for j in members[s:]:
                val = kernel.evaluate(
                    catalog[i].q, ai * catalog[j].element, catalog[j].q,
                    check_corner=False,
                )
                if not np.isfinite(val).all():
                    raise SpecMismatchError(
                        f"non-finite Gram block ({catalog[i].label}, "
                        f"{catalog[j].label}) at (q_i, q_j) = "
                        f"({catalog[i].q}, {catalog[j].q})"
                    )
                if i == j:
                    herm_defect = max(herm_defect, operator_norm(val - val.conj().T))
                    val = (val + val.conj().T) / 2.0
                gram[i * h: (i + 1) * h, j * h: (j + 1) * h] = val
                if j > i:
                    gram[j * h: (j + 1) * h, i * h: (i + 1) * h] = val.conj().T
    return GramAssembly(kernel, degree, catalog, corners, gram, herm_defect)


# ---------------------------------------------------------------------------
# property verification
# ---------------------------------------------------------------------------


def _corner_samples(sys_: LcmSystem, p, q, depth, rng, n_combos: int = 2):
    """Corner basis elements plus a few random combinations."""
    corner = sys_.corner_basis(p, q, depth)
    base = list(corner.elements)
    out = list(base)
    for _ in range(n_combos if base else 0):
        coeff = rng.standard_normal(len(base)) + 1j * rng.standard_normal(len(base))
        acc = None
        for c, e in zip(coeff, base):
            term = e * complex(c)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def check_kernel_properties(
    kernel,
    depth: int = 2,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> ValidationReport:
    """Verify the defining kernel properties on indices up to ``depth``.

    Anything exposing ``evaluate(p, a, q)`` together with ``sys``/``T``/``h``
    can be checked, so corrupted fixtures are testable; verdicts quantify
    over the sampled index range only.
    """
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    sys_ = kernel.sys
    sg = sys_.semigroup
    elements = sg.enumerate_up_to(depth)

    # unital
    one = sys_.unit()
    err = operator_norm(
        kernel.evaluate(sg.identity, one, sg.identity) - np.eye(kernel.h)
    )
    report.add("kernel.unital", err <= tol, err, tol)

    # Hermitian + norm bound + linearity over index pairs
    worst_h = worst_n = worst_l = 0.0
    wit_h = wit_n = ""
    for p, q in itertools.combinations_with_replacement(elements, 2):
        samples = _corner_samples(sys_, p, q, depth, rng)
        for k, a in enumerate(samples):
            kpq = kernel.evaluate(p, a, q, check_corner=False)
            kqp = kernel.evaluate(q, a.star(), p, check_corner=False)
            err = operator_norm(kpq.conj().T - kqp)
            if err > worst_h:
                worst_h, wit_h = err, f"(p={p}, q={q}, a#{k})"
            err = operator_norm(kpq) - a.norm()
            if err > worst_n:
                worst_n, wit_n = err, f"(p={p}, q={q}, a#{k})"
        if len(samples) >= 2:
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            a, b = samples[0], samples[1]
            lhs = kernel.evaluate(p, a + b * lam, q, check_corner=False)
            rhs = kernel.evaluate(p, a, q, check_corner=False) + lam * kernel.evaluate(
                p, b, q, check_corner=False
            )
            worst_l = max(worst_l, operator_norm(lhs - rhs))
    report.add("kernel.hermitian", worst_h <= tol, worst_h, tol, detail=wit_h)
    report.add("kernel.norm_bound", worst_n <= tol, worst_n, tol, detail=wit_n)
    report.add("kernel.linear", worst_l <= tol, worst_l, tol)

    # Toeplitz: K(p, a, q) = K(rp, alpha_r(a), rq) for shifts r that stay
    # inside the enumerated range.
    worst_t = 0.0
    wit_t = ""
    shifts = [g for g in sg.generators]
    if len(sg.generators) >= 2:
        shifts.append(sg.multiply(sg.generators[0], sg.generators[1]))
    else:
        shifts.append(sg.multiply(sg.generators[0], sg.generators[0]))
    short = [p for p in elements if sg.length(p) <= max(0, depth - 1)]
    for r in shifts:
        for p, q in itertools.product(short, repeat=2):
            for k, a in enumerate(_corner_samples(sys_, p, q, depth - 1, rng, 1)):
                lhs = kernel.evaluate(p, a, q, check_corner=False)
                rhs = kernel.evaluate(
                    sg.multiply(r, p),
                    sys_.apply_endo(r, a),
                    sg.multiply(r, q),
                    check_corner=False,
                )
                err = operator_norm(lhs - rhs)
                if err > worst_t:
                    worst_t, wit_t = err, f"(r={r}, p={p}, q={q}, a#{k})"
    report.add("kernel.toeplitz", worst_t <= tol, worst_t, tol, detail=wit_t)

    # boundedness on a sampled family: ||a||^2 [K(.., b_i* b_j, ..)] dominates
    # [K(.., b_i* a* a b_j, ..)]
    ps = elements[: min(3, len(elements))]
    bs = [sys_.corner_basis(sg.identity, p, depth).elements[0] for p in ps]
    amb = sys_.algebra_basis(
        sys_.model.normalize_depth(0 if isinstance(sys_.model, PointModel) else depth)
    )
    a = amb[min(1, len(amb) - 1)] + amb[0] * 0.5
    n = len(ps)
    m_plain = np.zeros((n * kernel.h, n * kernel.h), dtype=np.complex128)
    m_squeezed = np.zeros_like(m_plain)
    hh = kernel.h
    for i in range(n):
        for j in range(n):
            bi = bs[i].star()
            m_plain[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                ps[i], bi * bs[j], ps[j], check_corner=False
            )
            m_squeezed[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                ps[i], bi * (a.star() * (a * bs[j])), ps[j], check_corner=False
            )
    gap = a.norm() ** 2 * m_plain - m_squeezed
    gap = (gap + gap.conj().T) / 2.0
    min_gap = float(np.linalg.eigvalsh(gap)[0])
    report.add("kernel.bounded", min_gap >= -tol, min_gap, -tol)

    # positivity of blocks over indices with a common multiple
    r = sg.lcm_of(ps)
    if r is not None:
        cs = [sys_.corner_basis(sg.identity, r, depth).elements[0]] * n
        m = np.zeros((n * hh, n * hh), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                m[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                    ps[i], cs[i].star() * cs[j], ps[j], check_corner=False
                )
        m = (m + m.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(m)[0])
        report.add("kernel.common_multiple_psd", min_eig >= -tol, min_eig, -tol)

    return report
