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
from .cpmaps import ContractionFamily, LevelledOperatorMap
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
        phi: LevelledOperatorMap,
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
        self._inner: dict = {}
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
        """The basis covariance at g is checked on: the depth alpha_g maps
        onto phi's, or none when E_g lies deeper (on the point model, the
        one depth)."""
        sys_ = self.sys
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
        """phi(inv_r(a)), the middle factor of K(p, a, q) at r = lcm(p, q),
        once per (r, element object): the Gram assembly and the corners
        pass the model's shared unit elements, so ``evaluate`` on a corner
        element reads what the assembly computed."""
        key = (r, a)
        hit = self._inner.get(key)
        if hit is None:
            hit = self._inner[key] = self.phi.value(self.sys.alpha_inverse(r, a))
            hit.flags.writeable = False
        return hit


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


@dataclass
class GramPlan:
    """What the Gram operator at one degree takes from the monoid, the
    model and the base algebra alone, built once per (semigroup, base,
    degree) in the model's table and shared by every kernel over them.

    ``catalog`` and the (atom, row) ``groups`` are the assembly's; the
    entries of a group are ``pairs`` (members s <= t with a common multiple
    r of q_s and q_t), with the indices into ``words`` of q_s\\r and q_t\\r
    and into ``keys`` of (r, atom, b, d), whose ``products`` a_s* a_t =
    atom (x) e_bd (the model's one element of that key, which the corners
    hold too) the kernel's middle factor is evaluated on once each.  The
    arrays are read-only.
    """

    catalog: list[GramIndex]
    groups: list[tuple]       # ((atom, row), members, pairs, left, middle, right)
    words: list[Element]
    keys: list[tuple]
    products: list[LevelledElement]


def _frozen(values, *shape) -> np.ndarray:
    out = np.array(values, dtype=np.intp).reshape(-1, *shape)
    out.flags.writeable = False
    return out


def check_gram_size(sys_: LcmSystem, h: int, degree: int, max_dim: int) -> None:
    """Refuse a Gram operator of more than ``max_dim`` rows at ``degree``,
    counted from the number of atoms under each E_q before any corner or
    kernel value is built."""
    sg, model = sys_.semigroup, sys_.model
    n = sys_.base.linear_dim * sum(
        model.under_count(q, degree) for q in sg.enumerate_up_to(degree))
    if n * h > max_dim:
        raise ResourceCapError(
            f"Gram operator of size {n * h} exceeds cap {max_dim}"
        )


def gram_plan(sys_: LcmSystem, degree: int) -> GramPlan:
    """The shared plan of the Gram operator at ``degree`` (see GramPlan)."""
    sg = sys_.semigroup

    def make():
        catalog: list[GramIndex] = []
        for q in sg.enumerate_up_to(degree):
            corner = sys_.corner_basis(sg.identity, q, degree)
            for j, (key, elem) in enumerate(zip(corner.keys, corner.elements)):
                catalog.append(GramIndex(q, j, elem, key))
        members_of: dict = defaultdict(list)
        for i, idx in enumerate(catalog):
            members_of[idx.key[:2]].append(i)
        quotients: dict = {}     # (q_i, q_j) -> (r, q_i\r, q_j\r), None if disjoint
        word_at: dict = {}
        key_at: dict = {}
        groups = []
        for key, members in members_of.items():
            pairs, left, middle, right = [], [], [], []
            for s, i in enumerate(members):
                qi = catalog[i].q
                for t in range(s, len(members)):
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
                    pairs.append((s, t))
                    left.append(word_at.setdefault(d1, len(word_at)))
                    middle.append(key_at.setdefault(ykey, len(key_at)))
                    right.append(word_at.setdefault(d2, len(word_at)))
            groups.append((key, _frozen(members), _frozen(pairs, 2),
                           _frozen(left), _frozen(middle), _frozen(right)))
        products = [sys_.model.unit_element(sys_.base, degree, *k[1:]) for k in key_at]
        return GramPlan(catalog, groups, list(word_at), list(key_at), products)
    return sys_.model.cached(("gram", sg, sys_.base, degree), make)


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
    r = lcm(q_i, q_j) and Y = phi(inv_r(atom (x) e_bd)).  The shared plan
    (``gram_plan``) lists the entries; this kernel's part is Y once per
    (r, atom, b, d), T once per quotient and each group's entries in one
    stacked product.  The size is checked against ``max_dim`` first.
    """
    sys_ = kernel.sys
    h = kernel.h
    check_gram_size(sys_, h, degree, max_dim)
    plan = gram_plan(sys_, degree)
    catalog = plan.catalog
    ts = np.array([kernel.T(w) for w in plan.words])
    ys = np.array([kernel.inner(key[0], a) for key, a in zip(plan.keys, plan.products)])
    blocks: list[GramBlock] = []
    herm_defect = 0.0
    for key, members, pairs, left, middle, right in plan.groups:
        k = len(members)
        block = np.zeros((k, h, k, h), dtype=np.complex128)
        # every member pairs with itself (lcm(q, q) = q): no group lacks
        # pairs, nor diagonal ones
        vals = _sandwich(ts[left], ys[middle], ts[right])
        finite = np.isfinite(vals).all(axis=(1, 2))
        if not finite.all():
            s, t = pairs[int(np.argmin(finite))]
            a, b = catalog[members[s]], catalog[members[t]]
            raise SpecMismatchError(
                f"non-finite Gram block ({a.label}, {b.label}) at "
                f"(q_i, q_j) = ({a.q}, {b.q})"
            )
        ss, tt = pairs[:, 0], pairs[:, 1]
        adj = np.swapaxes(vals.conj(), 1, 2)
        diag = ss == tt
        herm_defect = max(herm_defect, float(np.linalg.norm(
            vals[diag] - adj[diag], 2, axis=(1, 2)).max()))
        vals[diag] = (vals[diag] + adj[diag]) / 2.0
        block[ss, :, tt, :] = vals
        off = ~diag
        block[tt[off], :, ss[off], :] = adj[off]
        blocks.append(GramBlock(key, members, block.reshape(k * h, k * h)))
    return GramAssembly(kernel, degree, catalog, blocks, herm_defect)
