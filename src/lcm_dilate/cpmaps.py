"""Linear maps into operators on a finite Hilbert space.

Provides the linear maps out of the algebra: a map on a levelled algebra at
fixed depth (the point model's map is its one-atom case), given by one stack
of values on the atom (x) matrix-unit basis and evaluated by one product,
and the map on a base algebra it is lifted from.  Beside them: the blockwise
Choi test for complete positivity, contraction families indexed by
semigroup generators, the inclusion-exclusion defect operators attached to
finite subsets of the semigroup, and the extension machinery that turns a
contraction family into a map on a diagonal (or diagonal-tensor) algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .algebras import (
    BaseAlgebra,
    Complex,
    LevelledElement,
    PointModel,
    operator_norm,
    operator_norms,
)
from .errors import CovarianceError, ResourceCapError, SpecMismatchError
from .semigroup import Element, Semigroup

if TYPE_CHECKING:   # systems imports this module for its maps
    from .systems import LcmSystem

PSD_RTOL = 1e-8
CONTRACTION_SLACK = 1e-12
MAX_SUBSET_SIZE = 16
CONSISTENCY_RTOL = 1e-9  # stage consistency of the boundary lift
COMMUTE_TOL = 1e-10      # the two factorizations of an lcm of generators


# ---------------------------------------------------------------------------
# operator maps
# ---------------------------------------------------------------------------


def _value_stack(values, n: int) -> np.ndarray:
    """``values`` as one (n, h, h) stack, refused unless it holds n square
    values of one shape with finite entries."""
    vals = [np.asarray(v, dtype=Complex) for v in values]
    if len(vals) != n:
        raise SpecMismatchError(f"need {n} basis values, got {len(vals)}")
    shape = vals[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(v.shape != shape for v in vals):
        raise SpecMismatchError("operator values must share one shape")
    stack = np.array(vals)
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise SpecMismatchError(f"the value at basis #{bad[0]} has a non-finite entry")
    return stack


def _combine(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] values[k] over a value stack: one (1, N) x (N, h*h)
    product, the one ``np.tensordot`` forms, so the sum is the same bits."""
    n = len(values)
    return np.dot(coeffs.reshape(1, n), values.reshape(n, -1)).reshape(values.shape[1:])


class BaseOperatorMap:
    """A linear map from a base algebra to h x h matrices, given by its
    values on the matrix-unit basis, one (linear dim, h, h) stack."""

    def __init__(self, base: BaseAlgebra, values: Sequence[np.ndarray]):
        self.base = base
        self.values = _value_stack(values, base.linear_dim)
        self.h = self.values.shape[-1]

    def value(self, mat: np.ndarray) -> np.ndarray:
        return _combine(self.base.coefficients(np.asarray(mat, dtype=Complex)),
                        self.values)


class LevelledOperatorMap:
    """A linear map from a levelled algebra at fixed depth to h x h matrices.

    ``values`` is one stack, a value per atom (x) matrix unit, atom-major in
    the order of ``atoms``: shape (atoms x base linear dim, h, h).  The point
    model's map is the one-atom case.  Evaluation refines the argument up to
    the map's depth, so the map represents a function on the whole inductive
    stage tower below it (and on anything above when the values are
    stage-consistent, which the builders below guarantee).
    """

    def __init__(self, sys: LcmSystem, depth, values):
        self.model = sys.model
        self.base = sys.base
        self.depth = self.model.normalize_depth(depth)
        self.atoms = self.model.atoms(self.depth)
        self.values = _value_stack(values, len(self.atoms) * self.base.linear_dim)
        self.h = self.values.shape[-1]
        self._row = {atom: k for k, atom in enumerate(self.atoms)}

    def value(self, x: LevelledElement) -> np.ndarray:
        """The stack combined with the coefficients of x at the map's depth:
        each atom of x gives its row by one gather of its block entries."""
        if not self.model.depth_leq(x.depth, self.depth):
            raise SpecMismatchError(
                f"element at depth {x.depth} exceeds map depth {self.depth}"
            )
        y = x.refine_to(self.depth)
        coeffs = np.zeros((len(self.atoms), self.base.linear_dim), dtype=Complex)
        if y.coeffs:
            coeffs[[self._row[atom] for atom in y.coeffs]] = self.base.coefficients(
                np.array(list(y.coeffs.values())))
        return _combine(coeffs, self.values)

    def unital_defect(self) -> float:
        one = LevelledElement.unit(self.model, self.base, self.depth)
        return operator_norm(self.value(one) - np.eye(self.h))

    def selfadjoint_defect(self) -> float:
        """The largest ||phi(u*) - phi(u)*|| over the basis: the adjoint of
        atom (x) e_ij is atom (x) e_ji."""
        positions = self.base.unit_positions()
        at = {ij: k for k, ij in enumerate(positions)}
        star = [at[j, i] for i, j in positions]
        vals = self.values.reshape(len(self.atoms), len(positions), self.h, self.h)
        defects = vals[:, star] - vals.conj().swapaxes(-1, -2)
        return float(operator_norms(defects.reshape(-1, self.h, self.h)).max())

    def choi_blocks(self) -> list[tuple[str, np.ndarray]]:
        """One Choi matrix per atom per base-algebra summand: at fixed depth
        the domain is the direct sum of one base-algebra copy per atom.  The
        label names the atom, but for the point model's one atom."""
        h, out, k = self.h, [], 0
        point = isinstance(self.model, PointModel)
        for atom in self.atoms:
            for b, n in enumerate(self.base.blocks):
                choi = self.values[k:k + n * n].reshape(n, n, h, h)
                out.append((f"block{b}" if point else f"{atom}|block{b}",
                            choi.transpose(0, 2, 1, 3).reshape(n * h, n * h)))
                k += n * n
        return out


# -- convenience constructors -------------------------------------------------


def transpose_map(base: BaseAlgebra) -> BaseOperatorMap:
    """The transpose map; positive but not completely positive on blocks
    of size >= 2.  Used as a negative-control fixture."""
    return BaseOperatorMap(base, [u.T for u in base.basis()])


def state_map(base: BaseAlgebra, rho: np.ndarray, h: int) -> BaseOperatorMap:
    """a -> Tr(rho a) I_h for a density matrix rho; unital completely
    positive and nowhere multiplicative."""
    rho = np.asarray(rho, dtype=Complex)
    eye = np.eye(h, dtype=Complex)
    return BaseOperatorMap(
        base, [np.trace(rho @ u) * eye for u in base.basis()]
    )


def diagonal_compression_map(base: BaseAlgebra) -> BaseOperatorMap:
    """a -> diag(a); unital completely positive, not multiplicative."""
    return BaseOperatorMap(base, [np.diag(np.diag(u)) for u in base.basis()])


@dataclass
class CPReport:
    is_cp: bool
    min_eigenvalue: float
    scale: float
    cases: list       # (least eigenvalue, label), one per Choi block
    violations: list  # (position in choi_blocks(), least eigenvalue)


def is_completely_positive(phi: LevelledOperatorMap, rtol: float = PSD_RTOL) -> CPReport:
    """Blockwise Choi-matrix test.

    The verdict is relative: the smallest eigenvalue must stay above
    -rtol * scale with scale the largest eigenvalue magnitude seen (floored
    at one), since the Gram machinery downstream produces exactly singular
    positive matrices.  Every Choi block whose least eigenvalue is not above
    that threshold is a violation, so the map is CP exactly when there is
    none.  The per-block least eigenvalues are the cases of the
    ``phi.completely_positive`` record.
    """
    scale = 1.0
    cases = []
    for label, choi in phi.choi_blocks():
        # halve first: the sum of two entries near the float maximum overflows
        w, _ = np.linalg.eigh(choi / 2 + choi.conj().T / 2)
        scale = max(scale, float(np.abs(w).max()))
        cases.append((float(w[0]), label))
    min_eig = float(np.min([m for m, _ in cases])) if cases else 0.0
    violations = [(k, m) for k, (m, _) in enumerate(cases)
                  if not m >= -rtol * scale]
    return CPReport(not violations, min_eig, scale, cases, violations)


# ---------------------------------------------------------------------------
# contraction families
# ---------------------------------------------------------------------------


def _word_product(semigroup: Semigroup, mats, p: Element) -> np.ndarray:
    """The product of the generator matrices ``mats`` along the word of p,
    left to right."""
    out = np.eye(len(mats[0]), dtype=Complex)
    for letter in semigroup.as_word(tuple(p)):
        out = out @ mats[letter - 1]
    return out


class ContractionFamily:
    """Generator contractions T_i together with word evaluation T(p).

    For T to be a homomorphism, the two factorizations of the lcm r of two
    generators must agree: T(g_i) T(g_i\\r) = T(g_j) T(g_j\\r), which is
    checked at construction.  Generators without a common multiple impose
    nothing, and on the free abelian monoid this says the T_i commute.
    """

    def __init__(self, semigroup: Semigroup, mats: Sequence[np.ndarray]):
        self.semigroup = semigroup
        self.mats = [np.asarray(m, dtype=Complex) for m in mats]
        if len(self.mats) != semigroup.rank:
            raise SpecMismatchError("need one contraction per generator")
        self.h = self.mats[0].shape[0]
        for i, m in enumerate(self.mats):
            if m.shape != (self.h, self.h):
                raise SpecMismatchError("generator contractions must share one shape")
            if not np.isfinite(m).all():
                raise SpecMismatchError(f"generator T{i+1} has a non-finite entry")
            if operator_norm(m) > 1.0 + CONTRACTION_SLACK:
                raise SpecMismatchError(
                    f"generator norm {operator_norm(m):.12f} exceeds 1"
                )
        self._words: dict[Element, np.ndarray] = {}
        self._ranges: dict[Element, np.ndarray] = {}
        # nica_defect's memo and the sort keys of the elements it validated
        self._defects: dict = {}
        self._keys: dict = {}
        gens = semigroup.generators
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens[i + 1:], start=i + 1):
                r = semigroup.lcm(gi, gj)
                if r is None:
                    continue
                a, b = (self.mats[k] @ _word_product(semigroup, self.mats,
                                                    semigroup.left_divide(g, r))
                        for k, g in ((i, gi), (j, gj)))
                err = operator_norm(a - b)
                if not err <= COMMUTE_TOL:
                    raise SpecMismatchError(
                        f"T{i+1} and T{j+1} must agree on their common multiple "
                        f"{r}; the two factorizations differ by {err:.3e}"
                    )

    def __call__(self, p: Element) -> np.ndarray:
        """T(p), evaluated once per word; the stored array is read-only, so
        a caller that mutates it in place raises instead of corrupting it."""
        p = tuple(p)
        out = self._words.get(p)
        if out is None:
            self.semigroup.validate_element(p)
            out = _word_product(self.semigroup, self.mats, p)
            out.flags.writeable = False
            self._words[p] = out
        return out

    def range_operator(self, p: Element) -> np.ndarray:
        """T(p)T(p)*, evaluated once per word and read-only like T(p)."""
        p = tuple(p)
        out = self._ranges.get(p)
        if out is None:
            tp = self(p)
            out = tp @ tp.conj().T
            out.flags.writeable = False
            self._ranges[p] = out
        return out


# ---------------------------------------------------------------------------
# inclusion-exclusion defects and partitions of unity
# ---------------------------------------------------------------------------


def _sorted_elements(sg: Semigroup, elements, keys=None) -> tuple[Element, ...]:
    """The distinct elements in (length, element) order, each validated.

    ``keys`` maps elements already validated to their sort keys; elements
    seen for the first time are validated and added to it.
    """
    keys = {} if keys is None else keys
    es = set(map(tuple, elements))
    for e in es:
        if e not in keys:
            sg.validate_element(e)
            keys[e] = (sg.length(e), e)
    return tuple(sorted(es, key=keys.__getitem__))


def _check_subset_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceCapError(
            f"inclusion-exclusion over {n} elements needs 2^{n} terms (cap {cap})"
        )


def inclusion_exclusion(sg: Semigroup, term, head: Element, F: tuple,
                        memo: dict) -> np.ndarray:
    """D(head, F) = sum over subsets U of F of (-1)^|U| term(lcm(head, vU)),
    subsets without a common multiple left out.

    This is the one inclusion-exclusion sum here: the range projection
    E_head prod_{f in F} (1 - E_f) is the signed sum of the E at these lcms.
    It is evaluated by the recurrence (Moebius inversion on the lcm lattice)

        D(head, ()) = term(head)
        D(head, F + (f,)) = D(head, F) - D(lcm(head, f), F),

    the second term dropped when lcm(head, f) does not exist (and lcm(e, f)
    = f taken without a call).  Every D is
    memoised on (head, F) in ``memo``, so sets sharing a prefix share the
    work; the stored arrays are read-only, so an in-place write raises
    instead of corrupting the memo.
    """
    key = (head, F)
    out = memo.get(key)
    if out is None:
        if not F:
            out = term(head)
        else:
            rest, f = F[:-1], F[-1]
            out = inclusion_exclusion(sg, term, head, rest, memo)
            top = f if head == sg.identity else sg.lcm(head, f)
            if top is not None:
                out = out - inclusion_exclusion(sg, term, top, rest, memo)
        out.flags.writeable = False
        memo[key] = out
    return out


def nica_defect(T: ContractionFamily, F, cap: int = MAX_SUBSET_SIZE) -> np.ndarray:
    """sum over U of (-1)^|U| T(vU) T(vU)* with vU the least common multiple
    of U; subsets without a common multiple contribute nothing.

    Hermitian by construction.  Nonnegativity of these operators over all
    finite F is the dilation obstruction tested by `check-nica`.  The sum
    runs over ``T``'s memo and its cache of T(s)T(s)*, so defects of sets
    sharing a prefix share their work; the returned array is read-only.
    """
    sg = T.semigroup
    fs = _sorted_elements(sg, F, T._keys)
    _check_subset_cap(len(fs), cap)
    return inclusion_exclusion(sg, T.range_operator, sg.identity, fs, T._defects)


# ---------------------------------------------------------------------------
# maps induced by a contraction family
# ---------------------------------------------------------------------------


def _compressed(phi: BaseOperatorMap, betas, T: ContractionFamily,
                p: Element, units) -> np.ndarray:
    """T(p) phi(beta_p^{-1}(u)) T(p)* for every u in ``units``, stacked."""
    tp = T(p)
    bu = _word_product(T.semigroup, betas, p)   # beta_p's unitary
    return np.array([tp @ phi.value(bu.conj().T @ u @ bu) @ tp.conj().T
                     for u in units])


def build_phi_tilde(
    sys: LcmSystem,
    phi: BaseOperatorMap,
    T: ContractionFamily,
    depth,
):
    """Lift a base-algebra map to the levelled algebra along T.

    On a cylinder (or range projection) at p tensored with a, the lifted map
    is T(p) phi(beta_p^{-1}(a)) T(p)*; the value at the atom
    E_p prod_{f in F} (1 - E_f) follows by inclusion-exclusion over the
    subsets of F.  For the boundary model this is stage-consistent only when
    phi(a) = sum_i T_i phi(beta_i^{-1}(a)) T_i*, which is verified here.

    On a point model the lift is the base map as the one-atom map.
    """
    if phi.base != sys.base:
        raise SpecMismatchError("base map domain does not match the system")
    if isinstance(sys.model, PointModel):
        return LevelledOperatorMap(sys, 0, phi.values)
    if T.semigroup != sys.semigroup:
        raise SpecMismatchError("contraction family indexed by the wrong semigroup")
    d = sys.model.normalize_depth(depth)
    units = sys.base.basis()
    betas = sys.betas

    if sys.model.boundary:
        total = sum(
            _compressed(phi, betas, T, g, units) for g in sys.semigroup.generators
        )
        for ui, u in enumerate(units):
            resid = operator_norm(phi.value(u) - total[ui])
            if resid > CONSISTENCY_RTOL * max(1.0, operator_norm(phi.value(u))):
                raise CovarianceError(
                    resid, CONSISTENCY_RTOL,
                    f"stage consistency of the boundary lift at basis #{ui}",
                )

    def term(s: Element) -> np.ndarray:
        return _compressed(phi, betas, T, s, units)

    memo: dict = {}   # shared by the atoms, whose cylinders overlap
    values = []
    for atom in sys.model.atoms(d):
        p, F = sys.model.cylinder(atom, d)
        values.extend(inclusion_exclusion(sys.semigroup, term, p, tuple(F), memo))
    return LevelledOperatorMap(sys, d, values)


@dataclass
class PhiTExtension:
    """The contraction extension and the verdict of its Choi test."""

    map: LevelledOperatorMap   # the linear extension, even if rejected
    accepted: bool
    min_eigenvalue: float
    scale: float
    violations: list  # (atom, least eigenvalue)


def extend_phi_T(
    sys: LcmSystem, T: ContractionFamily, depth, rtol: float = PSD_RTOL
) -> PhiTExtension:
    """Extend p -> T(p)T(p)* to the truncated diagonal algebra.

    Requires a diagonal model (base C).  Atom values are computed by
    inclusion-exclusion; the extension is positive on the truncation exactly
    when it is completely positive, so ``is_completely_positive`` at ``rtol``
    is the acceptance test.  Over C each atom has one Choi block, its value,
    so rejections name the violating atoms.
    """
    if isinstance(sys.model, PointModel) or sys.base.dim != 1:
        raise SpecMismatchError(
            "the contraction extension needs a diagonal model over scalars"
        )
    phi0 = BaseOperatorMap(sys.base, [np.eye(T.h, dtype=Complex)])
    lifted = build_phi_tilde(sys, phi0, T, depth)
    cp = is_completely_positive(lifted, rtol)
    return PhiTExtension(lifted, cp.is_cp, cp.min_eigenvalue, cp.scale,
                         [(lifted.atoms[k], m) for k, m in cp.violations])
