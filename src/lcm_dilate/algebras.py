"""Finite-dimensional C*-algebras and their levelled (inductive-stage) models.

A ``BaseAlgebra`` is a direct sum of full matrix blocks; its elements are
dense block-diagonal complex matrices.  A levelled model describes a
commutative diagonal algebra at finite stage, tensored with a base algebra:
elements are coefficient dictionaries keyed by the atoms (minimal projections
of the diagonal part) of a depth-tagged catalog, with values in the base
algebra.  Refining an element to a deeper catalog is a unital injective
*-homomorphism; all arithmetic is performed after refining both operands to a
common depth, so products and sums are exact.

Atom rules
----------
A model states its catalog ``atoms(depth)`` and rules on one atom, and
refinement and the generator action are written once over them.
``children(atom, depth, target)`` are the atoms at ``target`` under it; the
children of distinct atoms are disjoint and make up ``atoms(target)``, so
refinement hands each value down and never adds two.  ``shift(atom, letter)``
is where alpha_letter moves it and ``unshift`` the left inverse, ``None`` off
the range projection of the letter; ``shift_depth``/``unshift_depth`` move
depths alike.

* ``ToeplitzModel(semigroup, boundary=False)``: the diagonal of the Toeplitz
  algebra of a right LCM monoid, or of its boundary quotient.  Range
  projections multiply by E_p E_q = E_lcm(p,q), so every rule is derived
  from the monoid's primitives, once for all monoids.  A depth is a finite
  set D of elements closed under left divisors and lcm; the atom of p in D
  is E_p prod_{f in F} (1 - E_f) with F the elements pg of D for g a
  generator, labelled p; the boundary quotient drops the atoms whose cut,
  divided by p, is a foundation set.  A letter g moves the atom p to gp and
  D to the left divisors of gD.
* ``PointModel``: one trivial atom at the single depth 0.  A letter leaves
  the atom and the depth where they are, so alpha_letter is its value map
  alone, an automorphism, and ``unshift`` is never ``None``.

Shared tables
-------------
A model memoizes what its structure fixes: the depth rules (keyed on the
depths), ``atoms_under`` (on p and the depth), the corner bases E_p . A . E_q
(on the base algebra, p, q and the depth) and the kernel's Gram plans (on
the monoid, the base algebra and the degree).  None depends on a system's
maps, phi or T, so ``systems.build_system`` hands out one Toeplitz model per
(monoid, boundary) for the life of the process and every system over it
reads the same tables; the same table holds the one system of each (base
algebra, betas).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import SpecMismatchError
from .semigroup import Semigroup

Complex = np.complex128


# ---------------------------------------------------------------------------
# Base algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseAlgebra:
    """Direct sum of full matrix algebras, one dense block per summand."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(
            not isinstance(n, int) or n < 1 for n in self.blocks
        ):
            raise SpecMismatchError(f"invalid block dimensions {self.blocks!r}")

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def linear_dim(self) -> int:
        return sum(n * n for n in self.blocks)

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for n in self.blocks:
            out.append(slice(start, start + n))
            start += n
        return out

    def unit(self) -> np.ndarray:
        return np.eye(self.dim, dtype=Complex)

    def zero(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim), dtype=Complex)

    def unit_positions(self) -> list[tuple[int, int]]:
        """(row, column) of every matrix unit, block-major then row-major."""
        return [
            (i, j)
            for sl in self.block_slices()
            for i in range(sl.start, sl.stop)
            for j in range(sl.start, sl.stop)
        ]

    def basis(self) -> list[np.ndarray]:
        """Matrix units of every block, in the order of ``unit_positions``."""
        out = []
        for i, j in self.unit_positions():
            e = self.zero()
            e[i, j] = 1.0
            out.append(e)
        return out

    def basis_labels(self) -> list[str]:
        out = []
        for b, sl in enumerate(self.block_slices()):
            n = sl.stop - sl.start
            for i in range(n):
                for j in range(n):
                    out.append(f"b{b}e{i + 1}{j + 1}" if n > 1 else f"b{b}e11")
        return out

    @cached_property
    def _unit_flat(self) -> np.ndarray:
        """The flat position of every matrix unit in a dim x dim matrix."""
        return np.array([i * self.dim + j for i, j in self.unit_positions()],
                        dtype=np.intp)

    def coefficients(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates in the matrix-unit basis (just the block entries) of
        ``mat``, or of each matrix of a stack, by one gather."""
        mat = np.asarray(mat)
        return mat.reshape(*mat.shape[:-2], -1)[..., self._unit_flat]


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm; infinite when an entry is not finite, so that every
    ``norm <= tol`` test fails on it instead of LAPACK raising.  The
    largest singular value, as ``np.linalg.norm(mat, 2)`` returns it bit
    for bit, without its wrapper; a zero matrix skips the SVD."""
    if not mat.size:
        return 0.0
    if not np.isfinite(mat).all():
        return float("inf")
    if not mat.any():
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def operator_norms(mats: Sequence[np.ndarray]) -> np.ndarray:
    """``operator_norm`` of each matrix, bit for bit, by one batched SVD
    per shape and dtype: empty and all-zero matrices are 0.0 and a matrix
    with an entry that is not finite is inf, without an SVD."""
    out = np.zeros(len(mats))
    groups = defaultdict(list)
    for k, m in enumerate(mats):
        if m.size:
            groups[m.shape, m.dtype].append(k)
    for idx in groups.values():
        idx = np.array(idx)
        stack = np.array([mats[k] for k in idx])
        finite = np.isfinite(stack).all(axis=(-2, -1))
        live = finite & stack.any(axis=(-2, -1))
        out[idx[~finite]] = np.inf
        if live.any():
            out[idx[live]] = np.linalg.svd(stack[live], compute_uv=False)[:, 0]
    return out


# ---------------------------------------------------------------------------
# Atom models
# ---------------------------------------------------------------------------

Atom = tuple
Depth = Union[int, frozenset]


class Memo:
    """A memo table ``_memo``: ``cached(key, make)`` calls ``make()`` once
    per key and hands out what it returned."""

    def cached(self, key, make):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = make()
        return hit


class _Tables(Memo):
    """The memo table of a model: everything fixed by the model, a base
    algebra and a depth, built once per key and shared by every system over
    the model.  A model states ``atoms_under``; the corners follow."""

    def unit_element(self, base: BaseAlgebra, depth, atom: Atom, i: int,
                     j: int) -> "LevelledElement":
        """atom (x) e_ij at ``depth``, one object per key, so that every
        corner holding it holds the same element."""
        d = self.normalize_depth(depth)

        def make():
            e = base.zero()
            e[i, j] = 1.0
            return LevelledElement.from_atom(self, base, d, atom, e)
        return self.cached(("unit", base, d, atom, i, j), make)

    def corner(self, base: BaseAlgebra, p, q, depth) -> "CornerBasis":
        """Matrix-unit basis of E_p . A(depth) . E_q over ``base``: the
        atoms under both range projections, in atom order, each tensored
        with the matrix units of every base block."""
        d = self.normalize_depth(depth)

        def make():
            under = set(self.atoms_under(q, d))
            keys = [(a, i, j) for a in self.atoms_under(p, d) if a in under
                    for i, j in base.unit_positions()]
            return CornerBasis(d, keys, [self.unit_element(base, d, *k) for k in keys])
        return self.cached(("corner", base, tuple(p), tuple(q), d), make)


@dataclass(frozen=True)
class ToeplitzModel(_Tables):
    """The diagonal of the Toeplitz algebra of a right LCM monoid at finite
    depth, or of its boundary quotient, stated by the monoid's primitives.

    A depth is a finite set D of elements closed under left divisors and
    lcm; the int d stands for every element of length at most d.  The atom
    of p in D is E_p prod_{f in F} (1 - E_f), its cut F the elements pg of D
    for g a generator, and ``cylinder`` returns (p, F).  The boundary
    quotient drops each atom whose nonempty cut, divided on the left by p,
    is a foundation set (the product vanishes there).  Joins and shifts
    stay closed under lcm on monoids where three elements with pairwise
    common multiples have one, as both built-in families do.  The rules,
    the corners and the Gram plans are cached on the model, keyed on the
    depth (with the base algebra, and the degree for a plan).
    """

    semigroup: Semigroup
    boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_gens", self.semigroup.generators)
        object.__setattr__(self, "_memo", {})

    # -- depths ------------------------------------------------------------------

    def _grow(self, keep, start=None) -> set:
        """The closure of ``start`` (the identity by default) under
        generator steps onto elements ``keep`` accepts."""
        sg = self.semigroup
        start = sg.identity if start is None else start
        seen = {start}
        frontier = [start]
        while frontier:
            grown = []
            for q in frontier:
                for g in self._gens:
                    r = sg.multiply(q, g)
                    if r not in seen and keep(r):
                        seen.add(r)
                        grown.append(r)
            frontier = grown
        return seen

    def _interned(self, depth: frozenset) -> frozenset:
        return self._memo.setdefault(("depth", depth), depth)

    def normalize_depth(self, depth) -> frozenset:
        """A depth as it is, or the int d as every element of length at
        most d (closed under lcm by the grading's contract)."""
        if isinstance(depth, frozenset):
            return depth
        if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
            raise SpecMismatchError(f"bad depth {depth!r}")
        return self.cached(("int", depth), lambda: self._interned(
            frozenset(self.semigroup.enumerate_up_to(depth))))

    def zero_depth(self) -> frozenset:
        return self.normalize_depth(0)

    def join_depth(self, d1: frozenset, d2: frozenset) -> frozenset:
        """The union with the left divisors of the lcms across the two."""
        def make():
            sg = self.semigroup
            tops = {r for p in d1 - d2 for q in d2 - d1
                    if (r := sg.lcm(p, q)) is not None}
            return self._interned(d1 | d2 | self._grow(lambda r: any(
                sg.left_divide(r, x) is not None for x in tops)))
        return d1 if d1 is d2 else self.cached(("join", d1, d2), make)

    def depth_leq(self, d1: frozenset, d2: frozenset) -> bool:
        return d1 is d2 or d1 <= d2

    def depth_max(self, depth: frozenset) -> int:
        return self.cached(("max", depth), lambda: max(
            self.semigroup.length(p) for p in depth))

    def shift_depth(self, depth: frozenset, letter: int) -> frozenset:
        """The left divisors of g D: r divides some g p with p in D exactly
        when lcm(r, g) = g s with s in D."""
        def make():
            g, sg = self._gens[letter - 1], self.semigroup
            return self._interned(frozenset(self._grow(
                lambda r: (m := sg.lcm(r, g)) is not None
                and sg.left_divide(g, m) in depth)))
        return self.cached(("shift", depth, letter), make)

    def unshift_depth(self, depth: frozenset, letter: int) -> frozenset:
        """{q : g q in D}."""
        def make():
            g, sg = self._gens[letter - 1], self.semigroup
            return self._interned(frozenset(
                q for p in depth if (q := sg.left_divide(g, p)) is not None))
        return self.cached(("unshift", depth, letter), make)

    # -- atoms -------------------------------------------------------------------

    def _cuts(self, depth: frozenset) -> dict:
        """Element of the depth -> its cut, in sorted order."""
        def make():
            sg = self.semigroup
            return {p: [q for g in self._gens if (q := sg.multiply(p, g)) in depth]
                    for p in sorted(depth)}
        return self.cached(("cuts", depth), make)

    def atoms(self, depth) -> list[Atom]:
        def make():
            sg = self.semigroup
            return [p for p, cut in self._cuts(depth).items()
                    if not (self.boundary and cut and sg.is_foundation_set(
                        sg.left_divide(p, f) for f in cut))]
        depth = self.normalize_depth(depth)
        return self.cached(("atoms", depth), make)

    def cylinder(self, atom: Atom, depth) -> tuple[Atom, list[Atom]]:
        """(p, F) with atom = E_p prod_{f in F} (1 - E_f)."""
        return atom, self._cuts(self.normalize_depth(depth))[atom]

    def children(self, atom: Atom, depth: frozenset, target: frozenset) -> list[Atom]:
        """The atoms at ``target`` in atom.S above no cut of the atom.  The
        target holds the left divisors of its elements, and every step from
        a multiple of a cut element stays one, so they grow from the atom
        by generator steps within the target that keep off the cut."""
        def make():
            sg, cut = self.semigroup, self._cuts(depth)[atom]
            under = self._grow(lambda r: r in target and all(
                sg.left_divide(f, r) is None for f in cut), atom)
            atoms = frozenset(self.atoms(target))
            return sorted(q for q in under if q in atoms)
        return self.cached(("children", atom, depth, target), make)

    def atoms_under(self, p, depth) -> list[Atom]:
        """The atoms at ``depth`` under E_p: those p divides on the left.
        The depth holds p, and with an atom a it holds every common
        multiple of p and a, which lies over a cut element of a unless p
        divides a; so E_p misses every other atom."""
        depth = self.normalize_depth(depth)
        p = tuple(p)
        if p not in depth:
            raise SpecMismatchError(
                f"depth {sorted(depth)} cannot host the range projection of {p}")
        sg = self.semigroup
        return self.cached(("under", p, depth), lambda: [
            a for a in self.atoms(depth) if sg.left_divide(p, a) is not None])

    def under_count(self, p, depth) -> int:
        """``len(atoms_under(p, depth))``, without testing each atom.  The
        elements of D in pS are p and those of D in the union of the pgS,
        and the pgS of a set F of generators meet in p lcm(F) S; so by
        inclusion-exclusion the counts of all of D follow from those of
        longer multiples, each once.  An element outside D counts 0, as D
        holds the left divisors of its elements."""
        depth = self.normalize_depth(depth)
        return self.cached(("counts", depth), lambda: self._counts(depth))[tuple(p)]

    def _counts(self, depth: frozenset) -> dict:
        sg = self.semigroup
        terms = []          # (lcm(F), (-1)^(|F| + 1)) for each F with an lcm
        for size in range(1, len(self._gens) + 1):
            for fs in itertools.combinations(self._gens, size):
                m = fs[0]
                for f in fs[1:]:
                    m = m if m is None else sg.lcm(m, f)
                if m is not None:
                    terms.append((m, 1 if size % 2 else -1))
        atoms = set(self.atoms(depth))
        counts: dict = {}
        for root in depth:
            stack = [root]
            while stack:
                q = stack[-1]
                if q in counts:
                    stack.pop()
                    continue
                above = [r for m, _ in terms
                         if (r := sg.multiply(q, m)) in depth and r not in counts]
                if above:
                    stack.extend(above)
                    continue
                stack.pop()
                counts[q] = (q in atoms) + sum(
                    sign * counts.get(sg.multiply(q, m), 0) for m, sign in terms)
        return counts

    def shift(self, atom: Atom, letter: int) -> Atom:
        return self.semigroup.multiply(self._gens[letter - 1], atom)

    def unshift(self, atom: Atom, letter: int) -> Optional[Atom]:
        return self.semigroup.left_divide(self._gens[letter - 1], atom)


class PointModel(_Tables):
    """Trivial diagonal: the element is a single base-algebra matrix."""

    kind = "matrix"

    def __init__(self, rank: int):
        self.rank = rank
        self._memo = {}

    def zero_depth(self) -> Depth:
        return 0

    def normalize_depth(self, depth) -> Depth:
        return 0

    def join_depth(self, d1, d2) -> int:
        return 0

    def depth_leq(self, d1, d2) -> bool:
        return True

    def depth_max(self, depth) -> int:
        return 0

    def atoms(self, depth) -> list[Atom]:
        return [()]

    def atoms_under(self, p, depth) -> list[Atom]:
        """The one atom: a unital map fixes the unit, so every E_p is 1."""
        return [()]

    def under_count(self, p, depth) -> int:
        return 1

    def shift(self, atom: Atom, letter: int) -> Atom:
        return atom

    def shift_depth(self, depth, letter: int) -> int:
        return 0

    # a letter moves nothing, so its left inverse is the same rule
    unshift, unshift_depth = shift, shift_depth


Model = Union[ToeplitzModel, PointModel]


# ---------------------------------------------------------------------------
# Levelled elements
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LevelledElement:
    """Depth-tagged coefficient vector over the atoms of a levelled algebra.

    Treated as immutable: operations return fresh elements and never mutate
    coefficient arrays in place.
    """

    model: Model
    base: BaseAlgebra
    depth: Depth
    coeffs: dict

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, model: Model, base: BaseAlgebra, depth=None) -> "LevelledElement":
        d = model.zero_depth() if depth is None else model.normalize_depth(depth)
        eye = base.unit()
        return cls(model, base, d, {atom: eye for atom in model.atoms(d)})

    @classmethod
    def zero(cls, model: Model, base: BaseAlgebra, depth=None) -> "LevelledElement":
        d = model.zero_depth() if depth is None else model.normalize_depth(depth)
        return cls(model, base, d, {})

    @classmethod
    def from_atom(
        cls, model: Model, base: BaseAlgebra, depth, atom: Atom, value: np.ndarray
    ) -> "LevelledElement":
        d = model.normalize_depth(depth)
        return cls(model, base, d, {atom: np.asarray(value, dtype=Complex)})

    @classmethod
    def from_matrix(cls, model: Model, base: BaseAlgebra, mat) -> "LevelledElement":
        """Embed a base-algebra matrix at depth zero (i.e. 1 (x) mat)."""
        mat = np.asarray(mat, dtype=Complex)
        d = model.zero_depth()
        return cls(model, base, d, {atom: mat for atom in model.atoms(d)})

    # -- structural helpers ---------------------------------------------------

    def _compat(self, other: "LevelledElement") -> None:
        if self.model != other.model:
            raise SpecMismatchError("elements live over different models")
        if self.base != other.base:
            raise SpecMismatchError("elements live over different base algebras")

    def refine_to(self, target) -> "LevelledElement":
        """The same element over the atoms at ``target``: every atom passes
        its value to its children there."""
        model = self.model
        target = model.normalize_depth(target)
        if target == self.depth:
            return self
        if not model.depth_leq(self.depth, target):
            raise SpecMismatchError(f"cannot refine depth {self.depth} to {target}")
        coeffs = {c: v for atom, v in self.coeffs.items()
                  for c in model.children(atom, self.depth, target)}
        return LevelledElement(model, self.base, target, coeffs)

    def common_depth(self, other: "LevelledElement"):
        return self.model.join_depth(self.depth, other.depth)

    def coefficient(self, atom: Atom) -> np.ndarray:
        return self.coeffs.get(atom, self.base.zero())

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "LevelledElement") -> "LevelledElement":
        self._compat(other)
        d = self.common_depth(other)
        a, b = self.refine_to(d), other.refine_to(d)
        out = dict(a.coeffs)
        for atom, v in b.coeffs.items():
            out[atom] = out[atom] + v if atom in out else v
        return LevelledElement(self.model, self.base, d, out)

    def __sub__(self, other: "LevelledElement") -> "LevelledElement":
        return self + (other * (-1.0))

    def __mul__(self, other) -> "LevelledElement":
        if np.isscalar(other):
            return LevelledElement(
                self.model, self.base, self.depth,
                {atom: other * v for atom, v in self.coeffs.items()},
            )
        self._compat(other)
        d = self.common_depth(other)
        a, b = self.refine_to(d), other.refine_to(d)
        # Atoms are orthogonal projections of the diagonal part, so the
        # product is atomwise in the base algebra.
        out = {}
        for atom, v in a.coeffs.items():
            w = b.coeffs.get(atom)
            if w is not None:
                out[atom] = v @ w
        return LevelledElement(self.model, self.base, d, out)

    def __rmul__(self, scalar) -> "LevelledElement":
        if np.isscalar(scalar):
            return self * scalar
        return NotImplemented

    def star(self) -> "LevelledElement":
        return LevelledElement(
            self.model, self.base, self.depth,
            {atom: v.conj().T for atom, v in self.coeffs.items()},
        )

    def norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(operator_norm(v) for v in self.coeffs.values())

    # -- vectorization -----------------------------------------------------------

    def vec(self, depth=None) -> np.ndarray:
        """Flatten to a complex vector in the fixed catalog order at ``depth``."""
        x = self if depth is None else self.refine_to(depth)
        atoms = x.model.atoms(x.depth)
        n = self.base.dim
        out = np.zeros(len(atoms) * n * n, dtype=Complex)
        for k, atom in enumerate(atoms):
            v = x.coeffs.get(atom)
            if v is not None:
                out[k * n * n: (k + 1) * n * n] = np.asarray(v).reshape(-1)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LevelledElement(depth={self.depth}, atoms={len(self.coeffs)}, "
            f"norm={self.norm():.4g})"
        )


@dataclass
class CornerBasis:
    """Matrix-unit basis of a compressed subspace E_p . A . E_q.

    Element k is the single-atom element atom (x) e_ij named by
    ``keys[k] = (atom, i, j)``, at ``depth``.  The elements are orthonormal in
    the fixed vectorization, so coordinates are entries looked up by key.
    """

    depth: object
    keys: list[tuple]
    elements: list[LevelledElement]

    def __post_init__(self):
        self.index = {key: k for k, key in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def coefficients(self, x: LevelledElement):
        """Coordinates of x in this basis plus the relative residual: the
        norm of the entries outside the corner over max(1, ||x||)."""
        c = np.zeros(len(self.keys), dtype=Complex)
        total = outside = 0.0
        for atom, v in x.refine_to(self.depth).coeffs.items():
            for i, row in enumerate(np.asarray(v).tolist()):
                for j, z in enumerate(row):
                    if z == 0:
                        continue
                    w = abs(z) ** 2
                    total += w
                    k = self.index.get((atom, i, j))
                    if k is None:
                        outside += w
                    else:
                        c[k] = z
        return c, outside ** 0.5 / max(1.0, total ** 0.5)
