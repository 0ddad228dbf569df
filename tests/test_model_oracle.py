"""The three per-family Toeplitz models the library once stated, kept
verbatim as the oracle for ``ToeplitzModel``.

``ToeplitzModel`` derives atoms, cuts, children and shifts from the monoid's
primitives.  On the free abelian monoid of rank 1 and 2 it must reproduce
``AbelianToeplitzModel`` exactly: the atom order, the cut sets, the children,
shift, unshift and the shifted depths, with an int-tuple box depth read as
the set of elements under it.  On the free monoid of rank 1 and 2 it must
reproduce ``FreeToeplitzModel`` and ``FreeBoundaryModel`` once its atoms are
tagged: an atom with a nonempty cut reads as the defect atom ``("d", w)``,
one with an empty cut as the cylinder ``("c", w)``.  There the depth after a
letter is the set of prefixes of g D rather than every word one longer, so
its deepest length is what must agree.
"""

import itertools
from typing import Optional, Union

import pytest

from lcm_dilate.algebras import ToeplitzModel
from lcm_dilate.errors import SpecMismatchError
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid

Atom = tuple
Depth = Union[int, tuple[int, ...]]


# ---------------------------------------------------------------------------
# the oracle: the former library classes, unchanged
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# translation between the two
# ---------------------------------------------------------------------------


def box(bounds) -> frozenset:
    """The abelian depth of an old per-coordinate depth."""
    return frozenset(itertools.product(*(range(b + 1) for b in bounds)))


def tagged(model: ToeplitzModel, atom, depth):
    """A free-family atom as the old models named it."""
    return ("d" if model.cylinder(atom, depth)[1] else "c", atom)


def abelian_pairs(rank: int):
    """Old depths up to 3 per coordinate with targets up to 2 deeper."""
    for depth in itertools.product(range(4), repeat=rank):
        for step in itertools.product(range(3), repeat=rank):
            yield depth, tuple(d + s for d, s in zip(depth, step))


ABELIAN = [1, 2]
FREE = [(rank, cls) for rank in (1, 2)
        for cls in (FreeToeplitzModel, FreeBoundaryModel)]


# ---------------------------------------------------------------------------
# abelian: everything equal as it stands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rank", ABELIAN)
def test_abelian_atoms_and_cuts_match(rank):
    old, new = AbelianToeplitzModel(rank), ToeplitzModel(FreeAbelian(rank))
    for depth in itertools.product(range(4), repeat=rank):
        d = box(depth)
        assert new.atoms(d) == old.atoms(depth)
        for atom in old.atoms(depth):
            assert new.cylinder(atom, d) == old.cylinder(atom, depth)


@pytest.mark.parametrize("rank", ABELIAN)
def test_abelian_children_match(rank):
    old, new = AbelianToeplitzModel(rank), ToeplitzModel(FreeAbelian(rank))
    for depth, target in abelian_pairs(rank):
        for atom in old.atoms(depth):
            assert (new.children(atom, box(depth), box(target))
                    == old.children(atom, depth, target))


@pytest.mark.parametrize("rank", ABELIAN)
def test_abelian_shifts_and_depths_match(rank):
    old, new = AbelianToeplitzModel(rank), ToeplitzModel(FreeAbelian(rank))
    for depth in itertools.product(range(4), repeat=rank):
        for letter in range(1, rank + 1):
            assert new.shift_depth(box(depth), letter) == box(
                old.shift_depth(depth, letter))
            if depth[letter - 1] >= 1:
                assert new.unshift_depth(box(depth), letter) == box(
                    old.unshift_depth(depth, letter))
            for atom in old.atoms(depth):
                assert new.shift(atom, letter) == old.shift(atom, letter)
                assert new.unshift(atom, letter) == old.unshift(atom, letter)


@pytest.mark.parametrize("rank", ABELIAN)
def test_abelian_join_is_the_box_of_the_maxima(rank):
    old, new = AbelianToeplitzModel(rank), ToeplitzModel(FreeAbelian(rank))
    for d1 in itertools.product(range(3), repeat=rank):
        for d2 in itertools.product(range(3), repeat=rank):
            assert new.join_depth(box(d1), box(d2)) == box(old.join_depth(d1, d2))
            assert (new.depth_leq(box(d1), box(d2))
                    == old.depth_leq(d1, d2))


# ---------------------------------------------------------------------------
# free and boundary: equal once the atoms are tagged
# ---------------------------------------------------------------------------


def free_pair(rank, cls):
    return cls(rank), ToeplitzModel(FreeMonoid(rank),
                                    boundary=cls is FreeBoundaryModel)


@pytest.mark.parametrize("rank,cls", FREE)
def test_free_atoms_and_cuts_match(rank, cls):
    old, new = free_pair(rank, cls)
    for depth in range(5):
        d = new.normalize_depth(depth)
        assert [tagged(new, a, d) for a in new.atoms(d)] == sorted(
            old.atoms(depth), key=lambda atom: atom[1])
        for atom in new.atoms(d):
            assert new.cylinder(atom, d) == old.cylinder(tagged(new, atom, d), depth)


@pytest.mark.parametrize("rank,cls", FREE)
def test_free_children_match(rank, cls):
    old, new = free_pair(rank, cls)
    for depth in range(5):
        for target in range(depth, depth + 3):
            d, t = new.normalize_depth(depth), new.normalize_depth(target)
            for atom in new.atoms(d):
                assert [tagged(new, c, t) for c in new.children(atom, d, t)] == \
                    old.children(tagged(new, atom, d), depth, target)


@pytest.mark.parametrize("rank,cls", FREE)
def test_free_shifts_and_depths_match(rank, cls):
    old, new = free_pair(rank, cls)
    for depth in range(5):
        d = new.normalize_depth(depth)
        for letter in range(1, rank + 1):
            up = new.shift_depth(d, letter)
            assert up == frozenset([()]) | {(letter,) + w for w in d}
            assert new.depth_max(up) == old.shift_depth(depth, letter)
            assert new.unshift_depth(up, letter) == d
            if depth >= 1:
                assert new.unshift_depth(d, letter) == new.normalize_depth(
                    old.unshift_depth(depth, letter))
            for atom in new.atoms(d):
                moved = new.shift(atom, letter)
                assert tagged(new, moved, up) == old.shift(tagged(new, atom, d), letter)
                assert new.unshift(moved, letter) == atom
                back = new.unshift(atom, letter)
                want = old.unshift(tagged(new, atom, d), letter)
                assert (back is None) == (want is None)
                if back is not None:
                    assert back == want[1]


def test_free_toeplitz_atoms_come_in_prefix_order():
    """The one reordering: at rank 2 and depth 2 a defect atom is followed
    by the atoms under it rather than by the rest of its length."""
    new = ToeplitzModel(FreeMonoid(2))
    assert new.atoms(2) == [(), (1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2)]
    assert [w for _, w in FreeToeplitzModel(2).atoms(2)] == [
        (), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_bad_depths_are_refused():
    model = ToeplitzModel(FreeMonoid(2))
    for bad in (-1, True, 1.5, (1, 1)):
        with pytest.raises(SpecMismatchError):
            model.normalize_depth(bad)
