"""Exact combinatorics of the two built-in right LCM monoid families, and
the integer inclusion-exclusion coefficients of any right LCM monoid.

Elements are plain tuples of ints interpreted by the monoid object: a word
over letters ``1..k`` for the free monoid, a vector of naturals for the free
abelian monoid.  Both families are left cancellative with trivial unit group,
so least common multiples (when they exist) are unique and the ``lcm``
operation below is well defined without any unit-orbit bookkeeping.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import ResourceCapError, SpecMismatchError

Element = tuple[int, ...]

# Guard for enumerate_up_to / foundation-set decisions.
DEFAULT_ENUMERATION_CAP = 200_000
BLOCK_ROWS = 4096   # coefficient rows an lcm step or a product takes at once


class Semigroup(ABC):
    """Interface for a right LCM monoid with trivial units.

    A subclass states only its primitives: ``identity``, ``generators``,
    ``validate_element``, ``multiply``, ``lcm``, ``left_divide``, ``length``
    and ``as_word``.  Enumeration and the foundation-set test are derived
    from them here, once.

    User-supplied instances must guarantee left cancellation and that
    ``lcm(p, q)`` returns the unique generator of the intersection of the
    principal right ideals pP and qP (or None when that intersection is
    empty); correctness of ``lcm`` is the instance's contract and is not
    re-derived here.  The grading ``length`` must not decrease under right
    multiplication, must leave finitely many elements at each length, and
    must not make lcm(p, q) longer than the longer of p and q, so that the
    elements up to a length are closed under lcm.
    """

    rank: int
    kind: str

    @property
    @abstractmethod
    def identity(self) -> Element: ...

    @property
    @abstractmethod
    def generators(self) -> tuple[Element, ...]: ...

    @abstractmethod
    def validate_element(self, p: Element) -> None: ...

    @abstractmethod
    def multiply(self, p: Element, q: Element) -> Element: ...

    @abstractmethod
    def lcm(self, p: Element, q: Element) -> Optional[Element]: ...

    @abstractmethod
    def left_divide(self, p: Element, r: Element) -> Optional[Element]:
        """The unique q with p*q = r, or None when r is not in pP."""

    @abstractmethod
    def length(self, p: Element) -> int:
        """Grading used for truncation (word length / max coordinate)."""

    @abstractmethod
    def as_word(self, p: Element) -> tuple[int, ...]:
        """A factorization of p into generator letters (1-based)."""

    def closure(self, keep, start: Optional[Element] = None,
                cap: Optional[int] = None) -> set[Element]:
        """The closure of ``start`` (the identity by default) under right
        multiplication by generators onto the elements ``keep`` accepts,
        grown breadth first; more than ``cap`` elements raise
        ``ResourceCapError``."""
        start = self.identity if start is None else start
        gens = self.generators      # read once: a subclass may build it anew
        seen, frontier = {start}, [start]
        while frontier:
            grown = []
            for p in frontier:
                for g in gens:
                    q = self.multiply(p, g)
                    if q in seen or not keep(q):
                        continue
                    seen.add(q)
                    grown.append(q)
                    if cap is not None and len(seen) > cap:
                        raise ResourceCapError(f"closure exceeds cap {cap}")
            frontier = grown
        return seen

    @cached_property
    def _enumerations(self) -> dict:
        """(depth, cap) -> the list ``enumerate_up_to`` hands out."""
        return {}

    def enumerate_up_to(
        self, depth: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> list[Element]:
        """Every element of length at most ``depth``, in (length, element)
        order: the closure of the identity, pruned above ``depth``.  Built
        once per (depth, cap), so callers share the list and must not
        mutate it; a cap refusal is not remembered."""
        if depth < 0:
            raise SpecMismatchError("depth must be >= 0")
        hit = self._enumerations.get((depth, cap))
        if hit is None:
            try:
                seen = self.closure(lambda q: self.length(q) <= depth, cap=cap)
            except ResourceCapError:
                raise ResourceCapError(
                    f"enumeration up to length {depth} exceeds cap {cap}") from None
            hit = self._enumerations[depth, cap] = sorted(
                seen, key=lambda p: (self.length(p), p))
        return hit

    def is_foundation_set(
        self, elements: Iterable[Element], cap: int = DEFAULT_ENUMERATION_CAP
    ) -> bool:
        """Whether every element has a common multiple with some f in F.

        Only the elements of length m = max |f| are tested.  A shorter
        element inherits the verdict of any multiple of length m; a longer
        one that of its prefix of length m, since in both built-in families
        an element meets f as soon as a prefix at least as long as f does.
        """
        fs = [tuple(f) for f in elements]
        if not fs:
            raise SpecMismatchError("a foundation set must be nonempty")
        for f in fs:
            self.validate_element(f)
        m = max(self.length(f) for f in fs)
        return all(
            any(self.lcm(p, f) is not None for f in fs)
            for p in self.enumerate_up_to(m, cap) if self.length(p) == m
        )

    def gen_count(self, p: Element) -> int:
        return len(self.as_word(p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.rank})"


def _check_rank(rank: int) -> None:
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise SpecMismatchError(f"rank must be a positive integer, got {rank!r}")


@dataclass(frozen=True, repr=False)
class FreeMonoid(Semigroup):
    """Words over letters 1..rank under concatenation."""

    rank: int
    kind = "free_monoid"

    def __post_init__(self):
        _check_rank(self.rank)

    @property
    def identity(self) -> Element:
        return ()

    @property
    def generators(self) -> tuple[Element, ...]:
        return tuple((i,) for i in range(1, self.rank + 1))

    def validate_element(self, p: Element) -> None:
        if not all(isinstance(x, int) and 1 <= x <= self.rank for x in p):
            raise SpecMismatchError(f"{p!r} is not a word over 1..{self.rank}")

    def multiply(self, p: Element, q: Element) -> Element:
        return tuple(p) + tuple(q)

    def lcm(self, p: Element, q: Element) -> Optional[Element]:
        # pP and qP intersect precisely when one word is a prefix of the
        # other, in which case the longer word generates the intersection.
        short, long_ = (p, q) if len(p) <= len(q) else (q, p)
        return tuple(long_) if tuple(long_[: len(short)]) == tuple(short) else None

    def left_divide(self, p: Element, r: Element) -> Optional[Element]:
        if len(r) >= len(p) and tuple(r[: len(p)]) == tuple(p):
            return tuple(r[len(p):])
        return None

    def length(self, p: Element) -> int:
        return len(p)

    def as_word(self, p: Element) -> tuple[int, ...]:
        return tuple(p)


@dataclass(frozen=True, repr=False)
class FreeAbelian(Semigroup):
    """Vectors of naturals of fixed length under addition.

    The grading is the max coordinate, so lcm (coordinatewise max) never
    increases length; truncation bookkeeping downstream relies on this.
    """

    rank: int
    kind = "free_abelian"

    def __post_init__(self):
        _check_rank(self.rank)

    @cached_property
    def identity(self) -> Element:
        return (0,) * self.rank

    @property
    def generators(self) -> tuple[Element, ...]:
        eye = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            eye.append(tuple(v))
        return tuple(eye)

    def validate_element(self, p: Element) -> None:
        if len(p) != self.rank or not all(isinstance(x, int) and x >= 0 for x in p):
            raise SpecMismatchError(
                f"{p!r} is not a vector of {self.rank} naturals"
            )

    def multiply(self, p: Element, q: Element) -> Element:
        return tuple(a + b for a, b in zip(p, q, strict=True))

    def lcm(self, p: Element, q: Element) -> Optional[Element]:
        return tuple(max(a, b) for a, b in zip(p, q, strict=True))

    def left_divide(self, p: Element, r: Element) -> Optional[Element]:
        if all(b >= a for a, b in zip(p, r, strict=True)):
            return tuple(b - a for a, b in zip(p, r, strict=True))
        return None

    def length(self, p: Element) -> int:
        return max(p)

    def as_word(self, p: Element) -> tuple[int, ...]:
        letters: list[int] = []
        for i, n in enumerate(p):
            letters.extend([i + 1] * n)
        return tuple(letters)


def lcm_levels(sg: Semigroup, universe, head: Element, F, max_size: int):
    """Integer inclusion-exclusion coefficients over ``universe``: for each
    set G of at most ``max_size`` elements of F, E_head prod_{f in G}
    (1 - E_f) = sum_s c(s) E_s with c = prod_{f in G} (I - P_f) e_head,
    where P_f moves a coefficient at s to lcm(f, s).  The P_f commute, so
    c depends on the set alone.  Yields one (sets, universe) array per size
    from the empty set up, the sets in ``itertools.combinations`` order
    over F, each row grown from its prefix row by a gather and a bincount,
    in the narrowest integer type that holds it (|c| <= 2^size).  A column
    past the universe collects "no common multiple" (E = 0); an lcm outside
    the universe is refused, never read as that."""
    at = {e: k for k, e in enumerate(universe)}
    m = len(at)
    table = np.full((len(F), m + 1), m, dtype=np.intp)
    for (i, f), (k, s) in itertools.product(enumerate(F), enumerate(at)):
        if (r := sg.lcm(f, s)) is not None and r not in at:
            raise SpecMismatchError(f"lcm({f}, {s}) = {r} lies outside the {m} elements "
                                    "the inclusion-exclusion sums run over")
        table[i, k] = at.get(r, m)
    rows = np.zeros((1, m + 1), dtype=np.int8)
    rows[0, at[head]] = 1               # the empty set
    last = np.array([-1])               # the position in F of each set's last
    yield rows[:, :m]
    for size in range(1, max_size + 1):
        count = len(F) - 1 - last       # a set grows by every later element
        prefix = np.repeat(np.arange(len(last)), count)
        start = np.cumsum(count) - count - last - 1   # first new set, less its last
        last = np.arange(len(prefix)) - np.repeat(start, count)
        grown = np.empty((len(prefix), m + 1), np.min_scalar_type(-(2 ** size) - 1))
        for lo in range(0, len(prefix), BLOCK_ROWS):
            prev, hi = rows[prefix[lo:lo + BLOCK_ROWS]], lo + BLOCK_ROWS
            dest = table[last[lo:hi]] + (m + 1) * np.arange(len(prev))[:, None]
            pushed = np.bincount(dest.ravel(), prev.ravel(), prev.size)
            grown[lo:hi] = prev - pushed.reshape(prev.shape)
        rows = grown
        yield rows[:, :m]


def semigroup_from_json(doc: dict) -> Semigroup:
    kind = doc.get("kind")
    rank = doc.get("rank")
    if kind == "free_monoid":
        return FreeMonoid(rank)
    if kind == "free_abelian":
        return FreeAbelian(rank)
    raise SpecMismatchError(f"unknown semigroup kind {kind!r}")

