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

* abelian Toeplitz, rank m: m-tuples with coordinate i in ``0..d_i``, the
  value ``d_i`` the tail of the half-line, smaller values point masses.  A
  tail coordinate's children run up to its target; letter i adds 1 to
  coordinate i-1.  Depth is a per-coordinate tuple.
* free Toeplitz, rank k: defect atoms ``("d", w)`` at words shorter than the
  depth and leaf cylinders ``("c", w)`` at words of the depth's length.  A
  cylinder's children are the defect atoms at its extensions shorter than
  the target and the cylinders at the target; a letter is prepended to w.
* free boundary: cylinders only; a cylinder's children are the cylinders
  at the target extending it.
* point model: one trivial atom at the single depth 0.  A letter leaves
  the atom and the depth where they are, so alpha_letter is its value map
  alone, an automorphism, and ``unshift`` is never ``None``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import SpecMismatchError

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

    def coefficients(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of ``mat`` in the matrix-unit basis (just its entries)."""
        coeffs = []
        for sl in self.block_slices():
            coeffs.append(np.asarray(mat)[sl, sl].reshape(-1))
        return np.concatenate(coeffs)


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm; infinite when an entry is not finite, so that every
    ``norm <= tol`` test fails on it instead of LAPACK raising."""
    if not mat.size:
        return 0.0
    if not np.isfinite(mat).all():
        return float("inf")
    return float(np.linalg.norm(mat, 2))


# ---------------------------------------------------------------------------
# Atom models
# ---------------------------------------------------------------------------

Atom = tuple
Depth = Union[int, tuple[int, ...]]


def _bump(t: tuple, coord: int, step: int) -> tuple:
    return t[:coord] + (t[coord] + step,) + t[coord + 1:]


class AbelianToeplitzModel:
    """Diagonal model for the free abelian monoid: stage algebras of the
    one-point-compactified half-line, tensored coordinatewise."""

    kind = "toeplitz_abelian"

    def __init__(self, rank: int):
        if rank < 1:
            raise SpecMismatchError("rank must be >= 1")
        self.rank = rank

    def zero_depth(self) -> Depth:
        return (0,) * self.rank

    def normalize_depth(self, depth) -> Depth:
        if isinstance(depth, int):
            return (depth,) * self.rank
        depth = tuple(int(d) for d in depth)
        if len(depth) != self.rank or any(d < 0 for d in depth):
            raise SpecMismatchError(f"bad depth {depth!r}")
        return depth

    def join_depth(self, d1: Depth, d2: Depth) -> Depth:
        return tuple(max(a, b) for a, b in zip(d1, d2))

    def depth_leq(self, d1: Depth, d2: Depth) -> bool:
        return all(a <= b for a, b in zip(d1, d2))

    def depth_max(self, depth: Depth) -> int:
        return max(depth)

    def atoms(self, depth: Depth) -> list[Atom]:
        depth = self.normalize_depth(depth)
        return list(itertools.product(*(range(d + 1) for d in depth)))

    def cylinder(self, atom: Atom, depth: Depth) -> tuple[Atom, list[Atom]]:
        """(p, F) with atom = E_p prod_{f in F} (1 - E_f): a point coordinate
        is cut off one step above, a tail coordinate is not."""
        depth = self.normalize_depth(depth)
        return atom, [
            _bump(atom, i, 1) for i in range(self.rank) if atom[i] < depth[i]
        ]

    def children(self, atom: Atom, depth: Depth, target: Depth) -> list[Atom]:
        return list(itertools.product(*(
            range(d, t + 1) if a == d else (a,)
            for a, d, t in zip(atom, depth, target)
        )))

    def shift(self, atom: Atom, letter: int) -> Atom:
        return _bump(atom, letter - 1, 1)

    def unshift(self, atom: Atom, letter: int) -> Optional[Atom]:
        return _bump(atom, letter - 1, -1) if atom[letter - 1] else None

    def shift_depth(self, depth: Depth, letter: int) -> Depth:
        return _bump(depth, letter - 1, 1)

    def unshift_depth(self, depth: Depth, letter: int) -> Depth:
        return _bump(depth, letter - 1, -1)


def _words(rank: int, length: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(1, rank + 1), repeat=length))


class FreeToeplitzModel:
    """Diagonal model for the free monoid: defect atoms at interior words
    plus leaf cylinders at the truncation depth."""

    kind = "toeplitz_free"

    def __init__(self, rank: int):
        if rank < 1:
            raise SpecMismatchError("rank must be >= 1")
        self.rank = rank

    def zero_depth(self) -> Depth:
        return 0

    def normalize_depth(self, depth) -> Depth:
        d = int(depth)
        if d < 0:
            raise SpecMismatchError(f"bad depth {depth!r}")
        return d

    def join_depth(self, d1: int, d2: int) -> int:
        return max(d1, d2)

    def depth_leq(self, d1: int, d2: int) -> bool:
        return d1 <= d2

    def depth_max(self, depth: int) -> int:
        return depth

    def atoms(self, depth: int) -> list[Atom]:
        out: list[Atom] = []
        for n in range(depth):
            out.extend(("d", w) for w in _words(self.rank, n))
        out.extend(("c", w) for w in _words(self.rank, depth))
        return out

    def cylinder(self, atom: Atom, depth: int) -> tuple[Atom, list[Atom]]:
        """(p, F) with atom = E_p prod_{f in F} (1 - E_f): a defect atom cuts
        off every child of its word, a leaf cylinder nothing."""
        tag, w = atom
        return w, [w + (i,) for i in range(1, self.rank + 1)] if tag == "d" else []

    def children(self, atom: Atom, depth: int, target: int) -> list[Atom]:
        tag, w = atom
        if tag == "d" or depth == target:
            return [atom]
        out = [("d", w)]
        for i in range(1, self.rank + 1):
            out += self.children(("c", w + (i,)), depth + 1, target)
        return out

    def shift(self, atom: Atom, letter: int) -> Atom:
        tag, w = atom
        return tag, (letter,) + w

    def unshift(self, atom: Atom, letter: int) -> Optional[Atom]:
        tag, w = atom
        return (tag, w[1:]) if w[:1] == (letter,) else None

    def shift_depth(self, depth: int, letter: int) -> int:
        return depth + 1

    def unshift_depth(self, depth: int, letter: int) -> int:
        return depth - 1


class FreeBoundaryModel(FreeToeplitzModel):
    """Boundary quotient of the free Toeplitz model: cylinders only, and a
    cylinder refines to the sum of its children."""

    kind = "boundary_free"

    def atoms(self, depth: int) -> list[Atom]:
        return [("c", w) for w in _words(self.rank, depth)]

    def children(self, atom: Atom, depth: int, target: int) -> list[Atom]:
        _, w = atom
        return [("c", w + u) for u in _words(self.rank, target - depth)]


class PointModel:
    """Trivial diagonal: the element is a single base-algebra matrix."""

    kind = "matrix"

    def __init__(self, rank: int):
        self.rank = rank

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

    def shift(self, atom: Atom, letter: int) -> Atom:
        return atom

    def shift_depth(self, depth, letter: int) -> int:
        return 0

    # a letter moves nothing, so its left inverse is the same rule
    unshift, unshift_depth = shift, shift_depth


Model = Union[AbelianToeplitzModel, FreeToeplitzModel, FreeBoundaryModel, PointModel]

_MODEL_KINDS = {
    "toeplitz_abelian": AbelianToeplitzModel,
    "toeplitz_free": FreeToeplitzModel,
    "boundary_free": FreeBoundaryModel,
    "matrix": PointModel,
}


def model_from_kind(kind: str, rank: int) -> Model:
    try:
        cls = _MODEL_KINDS[kind]
    except KeyError:
        raise SpecMismatchError(f"unknown model kind {kind!r}") from None
    return cls(rank)


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
        if self.model is not other.model and (
            type(self.model) is not type(other.model)
            or self.model.rank != other.model.rank
        ):
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

