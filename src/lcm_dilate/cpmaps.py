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

import collections
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .algebras import (
    BaseAlgebra,
    Complex,
    LevelledElement,
    Memo,
    PointModel,
    frozen,
    operator_norms,
)
from .errors import CovarianceError, ResourceCapError, SpecMismatchError
from .semigroup import Element, Semigroup, lcm_levels

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
    """sum_k coeffs[..., k] values[k] over a value stack, for one coefficient row
    or a stack: a (1, N) x (N, h*h) product per row, the same bits either way."""
    n = len(values)
    return np.matmul(coeffs.reshape(-1, 1, n), values.reshape(n, -1)).reshape(
        coeffs.shape[:-1] + values.shape[1:])


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


class LevelledOperatorMap(Memo):
    """A linear map from a levelled algebra at fixed depth to h x h matrices.

    ``values`` is one stack, a value per atom (x) matrix unit, atom-major in
    the order of ``atoms``: shape (atoms x base linear dim, h, h).  The point
    model's map is the one-atom case.  Evaluation refines the argument up to
    the map's depth, so the map represents a function on the whole inductive
    stage tower below it (and on anything above when the values are
    stage-consistent, which the builders below guarantee).  Its memo holds
    the Choi test's report per rtol.
    """

    def __init__(self, sys: LcmSystem, depth, values):
        self.model = sys.model
        self.base = sys.base
        self.depth = self.model.normalize_depth(depth)
        self.atoms = self.model.atoms(self.depth)
        self.values = _value_stack(values, len(self.atoms) * self.base.linear_dim)
        self.h = self.values.shape[-1]
        self._memo: dict = {}

    def value(self, x: LevelledElement) -> np.ndarray:
        """The stack combined with the coordinates of x at the map's depth."""
        if not self.model.depth_leq(x.depth, self.depth):
            raise SpecMismatchError(
                f"element at depth {x.depth} exceeds map depth {self.depth}"
            )
        return _combine(x.coordinates(self.depth), self.values)

    def unital_defect(self) -> float:
        one = LevelledElement.unit(self.model, self.base, self.depth)
        return float(operator_norms([self.value(one) - np.eye(self.h)])[0])

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


@dataclass(frozen=True)
class CPReport:
    is_cp: bool
    min_eigenvalue: float
    scale: float
    cases: list       # (least eigenvalue, label), one per Choi block
    violations: list  # (position in choi_blocks(), least eigenvalue)


def is_completely_positive(phi: LevelledOperatorMap, rtol: float = PSD_RTOL) -> CPReport:
    """Blockwise Choi-matrix test, run once per map and rtol (the report is
    kept in the map's memo).

    The verdict is relative: the smallest eigenvalue must stay above
    -rtol * scale with scale the largest eigenvalue magnitude seen (floored
    at one), since the Gram machinery downstream produces exactly singular
    positive matrices.  Every Choi block whose least eigenvalue is not above
    that threshold is a violation, so the map is CP exactly when there is
    none.  The per-block least eigenvalues are the cases of the
    ``phi.completely_positive`` record.
    """
    def make() -> CPReport:
        blocks = phi.choi_blocks()
        least, top = np.empty(len(blocks)), np.empty(len(blocks))
        by_shape = collections.defaultdict(list)
        for k, (_, choi) in enumerate(blocks):
            by_shape[choi.shape].append(k)
        for ks in by_shape.values():    # one eigh per stack of one shape
            stack = np.array([blocks[k][1] for k in ks])
            # halve first: the sum of two entries near the float maximum overflows
            w, _ = np.linalg.eigh(stack / 2 + stack.conj().swapaxes(1, 2) / 2)
            least[ks], top[ks] = w[:, 0], np.abs(w).max(axis=1)
        scale = float(np.fmax.reduce(top, initial=1.0))     # a NaN is skipped
        cases = [(float(m), label) for m, (label, _) in zip(least, blocks)]
        min_eig = float(np.min([m for m, _ in cases])) if cases else 0.0
        violations = [(k, m) for k, (m, _) in enumerate(cases)
                      if not m >= -rtol * scale]
        return CPReport(not violations, min_eig, scale, cases, violations)
    return phi.cached(("cp", rtol), make)


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
        self._words: dict[Element, np.ndarray] = {}
        gens = semigroup.generators
        pairs = [(i, j, r) for i, j in itertools.combinations(range(len(gens)), 2)
                 if (r := semigroup.lcm(gens[i], gens[j])) is not None]

        def factored(k, r):     # T(g_k) T(g_k\r)
            return self.mats[k] @ _word_product(semigroup, self.mats,
                                                semigroup.left_divide(gens[k], r))

        # a product of generators that the norms below refuse may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = [factored(i, r) - factored(j, r) for i, j, r in pairs]
        norms = operator_norms(self.mats + diffs).tolist()
        for norm in norms[:len(self.mats)]:
            if norm > 1.0 + CONTRACTION_SLACK:
                raise SpecMismatchError(f"generator norm {norm:.12f} exceeds 1")
        for (i, j, r), err in zip(pairs, norms[len(self.mats):]):
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
            out = self._words[p] = frozen(_word_product(self.semigroup, self.mats, p))
        return out

    def range_operator(self, p: Element) -> np.ndarray:
        """T(p)T(p)*, read-only like T(p)."""
        tp = self(p)
        return frozen(tp @ tp.conj().T)


# ---------------------------------------------------------------------------
# inclusion-exclusion by integer lcm coefficients
# ---------------------------------------------------------------------------


def _signed_sums(rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_s rows[:, s] terms[s]: one real product over the terms' float view."""
    out = rows.astype(np.float64) @ terms.reshape(len(terms), -1).view(np.float64)
    return out.view(Complex).reshape((len(rows),) + terms.shape[1:])


def nica_defect(T: ContractionFamily, F, cap: int = MAX_SUBSET_SIZE) -> np.ndarray:
    """sum over U of (-1)^|U| T(vU) T(vU)* with vU the least common multiple
    of U; subsets without a common multiple contribute nothing.

    Hermitian by construction.  Nonnegativity of these operators over all
    finite F is the dilation obstruction; `check-nica` tests it on the sets
    of generators, which decide it.  One ``lcm_levels`` row over the
    lcm-closure of the identity and F; the returned array is read-only."""
    sg = T.semigroup
    fs = list(dict.fromkeys(map(tuple, F)))
    for f in fs:
        sg.validate_element(f)
    if len(fs) > cap:
        raise ResourceCapError(f"inclusion-exclusion over {len(fs)} elements "
                               f"needs 2^{len(fs)} terms (cap {cap})")
    closure = {sg.identity}
    for f in fs:
        closure |= {r for s in closure if (r := sg.lcm(s, f)) is not None}
    universe = sorted(closure, key=lambda e: (sg.length(e), e))
    levels = lcm_levels(sg, universe, sg.identity, fs, len(fs))
    return frozen(_signed_sums(collections.deque(levels, maxlen=1)[0],
                              np.array([T.range_operator(s) for s in universe]))[0])


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
    E_p prod_{f in F} (1 - E_f) is the combination ``lcm_levels`` gives of
    those at the depth's elements, all atoms in one product.  For the
    boundary model this is stage-consistent only when
    phi(a) = sum_i T_i phi(beta_i^{-1}(a)) T_i*, which is verified here.

    On a point model the lift is the base map as the one-atom map.
    """
    if phi.base != sys.base:
        raise SpecMismatchError("base map domain does not match the system")
    if isinstance(sys.model, PointModel):
        return LevelledOperatorMap(sys, 0, phi.values)
    if T.semigroup != sys.semigroup:
        raise SpecMismatchError("contraction family indexed by the wrong semigroup")
    sg, model = sys.semigroup, sys.model
    d = model.normalize_depth(depth)
    units = sys.base.basis()
    betas = sys.betas

    if model.boundary:
        total = sum(
            _compressed(phi, betas, T, g, units) for g in sys.semigroup.generators
        )
        values = [phi.value(u) for u in units]
        norms = operator_norms([v - t for v, t in zip(values, total)] + values)
        resid, scale = norms[:len(units)], np.maximum(1.0, norms[len(units):])
        bad = np.flatnonzero(resid > CONSISTENCY_RTOL * scale)
        if bad.size:
            raise CovarianceError(
                float(resid[bad[0]]), CONSISTENCY_RTOL,
                f"stage consistency of the boundary lift at basis #{bad[0]}",
            )

    def coefficients():
        # fixed by the model and the depth: a cut is p G for generators G and
        # lcm(px, py) = p lcm(x, y), so an atom's row is its G's moved by p
        own = sg.enumerate_up_to(max(map(sg.length, sg.generators)))
        levels = lcm_levels(sg, own, sg.identity, sg.generators, sg.rank)
        of = {G: row for size, rows in enumerate(levels)
              for G, row in zip(itertools.combinations(sg.generators, size), rows)}
        universe = sorted(d, key=lambda e: (sg.length(e), e))
        at = {s: k for k, s in enumerate(universe)}
        rows = np.zeros((len(model.atoms(d)), len(universe)), dtype=np.intp)
        for r, (p, F) in enumerate(model.cylinder(atom, d) for atom in model.atoms(d)):
            row = of[tuple(sg.left_divide(p, f) for f in F)]
            for s in np.flatnonzero(row):
                rows[r, at[sg.multiply(p, own[s])]] = row[s]
        used = np.flatnonzero(rows.any(axis=0))
        return [universe[k] for k in used], frozen(rows[:, used])

    elements, rows = model.cached(("lift", d), coefficients)
    terms = np.array([_compressed(phi, betas, T, s, units) for s in elements])
    return LevelledOperatorMap(sys, d, _signed_sums(rows, terms).reshape(-1, T.h, T.h))


def extend_phi_T(sys: LcmSystem, T: ContractionFamily, depth) -> LevelledOperatorMap:
    """Extend p -> T(p)T(p)* to the truncated diagonal algebra.

    Requires a diagonal model (base C).  Atom values are computed by
    inclusion-exclusion; the extension is positive on the truncation exactly
    when it is completely positive, so ``is_completely_positive`` of the
    returned map is the acceptance test.  Over C each atom has one Choi
    block, its value, so violation k names the atom ``atoms[k]``.
    """
    if isinstance(sys.model, PointModel) or sys.base.dim != 1:
        raise SpecMismatchError(
            "the contraction extension needs a diagonal model over scalars"
        )
    phi0 = BaseOperatorMap(sys.base, [np.eye(T.h, dtype=Complex)])
    return build_phi_tilde(sys, phi0, T, depth)
