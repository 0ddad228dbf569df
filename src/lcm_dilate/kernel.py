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

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .algebras import LevelledElement, operator_norm
from .cpmaps import BaseOperatorMap, ContractionFamily, OperatorMap
from .errors import (
    CornerMembershipError,
    CovarianceError,
    ResourceCapError,
    SpecMismatchError,
)
from .semigroup import Element
from .systems import LcmSystem

COVARIANCE_TOL = 1e-9
CORNER_RTOL = 1e-8
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
        if T.semigroup != sys.semigroup:
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
        """The basis covariance at g is checked on: for a levelled phi, the
        depth alpha_g maps onto phi's, or none when E_g lies deeper."""
        sys_ = self.sys
        if isinstance(self.phi, BaseOperatorMap):
            return sys_.algebra_basis()
        model, depth = sys_.model, self.phi.depth
        if not model.depth_leq(model.shift_depth(model.zero_depth(), g), depth):
            return []
        return sys_.algebra_basis(model.unshift_depth(depth, g))

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        p: Element,
        a: LevelledElement,
        q: Element,
        check_corner: bool = True,
    ) -> np.ndarray:
        """K(p, a, q); requires a in the corner E_p . A . E_q."""
        sg = self.sys.semigroup
        p, q = tuple(p), tuple(q)
        sg.validate_element(p)
        sg.validate_element(q)
        r = sg.lcm(p, q)
        if r is None:
            if check_corner and a.norm() > CORNER_RTOL:
                raise CornerMembershipError(a.norm(), CORNER_RTOL)
            return np.zeros((self.h, self.h), dtype=np.complex128)
        if check_corner:
            # E_p E_q = E_r, so the depth of E_r holds both projections
            depth = self.sys.model.join_depth(a.depth, self.sys.depth_of(r))
            corner = self.sys.corner_basis(p, q, depth)
            if len(corner) == 0:
                if a.norm() > CORNER_RTOL:
                    raise CornerMembershipError(a.norm(), CORNER_RTOL)
                return np.zeros((self.h, self.h), dtype=np.complex128)
            _, resid = corner.coefficients(a)
            if not resid <= CORNER_RTOL:
                raise CornerMembershipError(resid, CORNER_RTOL)
        d1 = sg.left_divide(p, r)
        d2 = sg.left_divide(q, r)
        return _sandwich(self.T(d1), self.inner(r, a), self.T(d2))

    def inner(self, r: Element, a: LevelledElement) -> np.ndarray:
        """phi(inv_r(a)), the middle factor of K(p, a, q) at r = lcm(p, q)."""
        return self.phi.value(self.sys.alpha_inverse(r, a))


def _sandwich(left: np.ndarray, middle: np.ndarray, right: np.ndarray) -> np.ndarray:
    """T(p\\r) phi(inv_r(a)) T(q\\r)* from its three factors; each argument
    is one h x h matrix or a stack of them, multiplied slice by slice."""
    return left @ middle @ np.swapaxes(right.conj(), -1, -2)


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
class GramBlock:
    """The Gram operator restricted to one (atom, row) group of the catalog.

    ``rows`` are the catalog rows of the group's members in catalog order;
    entry (s, t) of ``matrix`` (an h x h block) is K(q_s, a_s* a_t, q_t).
    """

    key: tuple            # (atom, row) shared by every member
    rows: np.ndarray
    matrix: np.ndarray    # Hermitian, len(rows) * h square


@dataclass
class GramAssembly:
    """The Gram operator of the truncated index catalog, block by block.

    ``catalog[i]`` describes index i; for a_i = atom (x) e_ab the product
    a_i* a_j vanishes unless a_j = atom (x) e_ad, so the Gram operator is
    block-diagonal by (atom, row) group and only the blocks are stored, in
    order of their first catalog row.  The blocks (atom, i) and (atom, c)
    of rows i and c of one base block list their members (q, atom, i, d)
    and (q, atom, c, d) in one (q, d) order, since the catalog lists each
    corner atom by atom with every matrix unit of a base block.
    """

    kernel: KernelSystem
    degree: int
    catalog: list[GramIndex]
    blocks: list[GramBlock]
    hermiticity_defect: float

    @property
    def h(self) -> int:
        return self.kernel.h

    @property
    def size(self) -> int:
        return len(self.catalog) * self.h

    def expanded_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows of the n*h Gram operator held by the given catalog rows."""
        return (rows[:, None] * self.h + np.arange(self.h)).reshape(-1)

    @property
    def gram(self) -> np.ndarray:
        """The dense n*h Gram operator, built anew on every access for
        tests and tools; the library itself works on the blocks."""
        out = np.zeros((self.size, self.size), dtype=np.complex128)
        for block in self.blocks:
            e = self.expanded_rows(block.rows)
            out[np.ix_(e, e)] = block.matrix
        return out

    def eigenvalues(self) -> np.ndarray:
        """The spectrum: every block's eigenvalues, sorted."""
        return np.sort(np.concatenate(
            [np.linalg.eigvalsh(b.matrix) for b in self.blocks]
        ))


def assemble_gram(
    kernel: KernelSystem,
    degree: int,
    max_dim: int = DEFAULT_MAX_GRAM_DIM,
) -> GramAssembly:
    """Assemble the Gram operator at truncation degree ``degree``.

    The index set runs over semigroup elements of length at most the degree,
    each carrying the matrix-unit corner basis of A . E_q computed at the
    uniform truncation depth, so every entry stays inside the depth catalog.
    Only blocks inside one (atom, row) group are nonzero.  Within a group,
    a_i* a_j = atom (x) e_bd and the entry is T(q_i\\r) Y T(q_j\\r)* with
    r = lcm(q_i, q_j) and Y = phi(inv_r(atom (x) e_bd)); Y is evaluated once
    per (r, atom, b, d) and each group's entries in one stacked product.
    """
    sys_ = kernel.sys
    sg = sys_.semigroup
    catalog: list[GramIndex] = []
    for q in sg.enumerate_up_to(degree):
        corner = sys_.corner_basis(sg.identity, q, degree)
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
    quotients: dict = {}     # (q_i, q_j) -> (r, q_i\r, q_j\r), None if disjoint
    inner: dict = {}         # (r, atom, b, d) -> Y
    blocks: list[GramBlock] = []
    herm_defect = 0.0
    for key, members in groups.items():
        k = len(members)
        pairs, lefts, middles, rights = [], [], [], []
        for s, i in enumerate(members):
            qi, ai = catalog[i].q, catalog[i].element.star()
            for t in range(s, k):
                j = members[t]
                qj = catalog[j].q
                if (qi, qj) not in quotients:
                    r = sg.lcm(qi, qj)
                    quotients[qi, qj] = None if r is None else (
                        r, sg.left_divide(qi, r), sg.left_divide(qj, r))
                quo = quotients[qi, qj]
                if quo is None:
                    continue
                r, d1, d2 = quo
                ykey = (r, key[0], catalog[i].key[2], catalog[j].key[2])
                y = inner.get(ykey)
                if y is None:
                    y = inner[ykey] = kernel.inner(r, ai * catalog[j].element)
                pairs.append((s, t))
                lefts.append(kernel.T(d1))
                middles.append(y)
                rights.append(kernel.T(d2))
        block = np.zeros((k, h, k, h), dtype=np.complex128)
        if pairs:
            vals = _sandwich(np.array(lefts), np.array(middles), np.array(rights))
            finite = np.isfinite(vals).all(axis=(1, 2))
            if not finite.all():
                s, t = pairs[int(np.argmin(finite))]
                a, b = catalog[members[s]], catalog[members[t]]
                raise SpecMismatchError(
                    f"non-finite Gram block ({a.label}, {b.label}) at "
                    f"(q_i, q_j) = ({a.q}, {b.q})"
                )
            st = np.array(pairs)
            ss, tt = st[:, 0], st[:, 1]
            adj = np.swapaxes(vals.conj(), 1, 2)
            diag = ss == tt
            if diag.any():
                herm_defect = max(herm_defect, float(np.linalg.norm(
                    vals[diag] - adj[diag], 2, axis=(1, 2)).max()))
                vals[diag] = (vals[diag] + adj[diag]) / 2.0
            block[ss, :, tt, :] = vals
            off = ~diag
            block[tt[off], :, ss[off], :] = adj[off]
        blocks.append(GramBlock(key, np.array(members, dtype=np.intp),
                                block.reshape(k * h, k * h)))
    return GramAssembly(kernel, degree, catalog, blocks, herm_defect)
