"""The atom rules of every model against whole-dictionary transforms.

The oracle below refines, shifts and masked-unshifts a coefficient
dictionary as one transform per monoid family, one stage at a time; the
library applies the model's per-atom rules (``children``, ``shift``,
``unshift``), derived once from the monoid's primitives.  Both must give
the same atoms in the same order and bit-equal values, since later sums
run in dictionary order.  On the point
model the oracle maps every atom's value by the generator's explicit map
and leaves the depth alone.
"""

import functools
import itertools

import numpy as np
import pytest

from conftest import (
    apply_generator_inverse,
    box,
    random_matrix,
    random_unitary,
    zero_element,
)
from lcm_dilate.algebras import (
    BaseAlgebra,
    LevelledElement,
    PointModel,
    ToeplitzModel,
)
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))


# ---------------------------------------------------------------------------
# the oracle: one dictionary transform per family and stage
# ---------------------------------------------------------------------------
#
# The oracle keeps its own depths: a per-coordinate tuple on the abelian
# family, a word length on the free ones; ``lib`` turns one into the
# library's depth, the set of elements it holds.


def lib(family, depth):
    if family == "abelian":
        return box(depth)
    return frozenset(w for n in range(depth + 1)
                     for w in itertools.product((1, 2), repeat=n))


def _abelian_refine_once(coeffs, depth, coord):
    d = depth[coord]
    new = {}
    for atom, val in coeffs.items():
        if atom[coord] == d:
            new[atom] = val
            new[atom[:coord] + (d + 1,) + atom[coord + 1:]] = val
        else:
            new[atom] = val
    return new, depth[:coord] + (d + 1,) + depth[coord + 1:]


def _free_refine_once(coeffs, depth, rank):
    """A leaf cylinder (a word of the full length) becomes the defect atom
    of its word followed by the cylinders one letter longer."""
    new = {}

    def acc(key, val):
        new[key] = new[key] + val if key in new else val

    for w, val in coeffs.items():
        acc(w, val)
        if len(w) == depth:
            for i in range(1, rank + 1):
                acc(w + (i,), val)
    return new, depth + 1


def _boundary_refine_once(coeffs, depth, rank):
    new = {}
    for w, val in coeffs.items():
        for i in range(1, rank + 1):
            key = w + (i,)
            new[key] = new[key] + val if key in new else val
    return new, depth + 1


def oracle_refine(family, coeffs, depth, target, rank=2):
    if family == "matrix":
        return coeffs
    if family == "abelian":
        for coord in range(len(depth)):
            while depth[coord] < target[coord]:
                coeffs, depth = _abelian_refine_once(coeffs, depth, coord)
        return coeffs
    once = _free_refine_once if family == "free" else _boundary_refine_once
    while depth < target:
        coeffs, depth = once(coeffs, depth, rank)
    return coeffs


def oracle_shift(family, coeffs, depth, letter):
    """The shifted coefficients and the library depth they live at: the
    box one step longer in the letter's coordinate, or the prefixes of the
    letter times the words up to the length."""
    if family == "abelian":
        c = letter - 1
        new = {a[:c] + (a[c] + 1,) + a[c + 1:]: v for a, v in coeffs.items()}
        return new, box(depth[:c] + (depth[c] + 1,) + depth[c + 1:])
    return ({(letter,) + w: v for w, v in coeffs.items()},
            frozenset([()]) | {(letter,) + w for w in lib(family, depth)})


def oracle_unshift(family, coeffs, depth, letter):
    if family == "abelian":
        c = letter - 1
        if depth[c] < 1:
            target = depth[:c] + (1,) + depth[c + 1:]
            coeffs, depth = oracle_refine(family, coeffs, depth, target), target
        new = {a[:c] + (a[c] - 1,) + a[c + 1:]: v
               for a, v in coeffs.items() if a[c] >= 1}
        return new, box(depth[:c] + (depth[c] - 1,) + depth[c + 1:])
    if depth < 1:
        coeffs, depth = oracle_refine(family, coeffs, depth, 1), 1
    new = {w[1:]: v for w, v in coeffs.items() if w and w[0] == letter}
    return new, lib(family, depth - 1)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

MODELS = {
    "abelian1": (ToeplitzModel(FreeAbelian(1)), FreeAbelian(1), "abelian"),
    "abelian2": (ToeplitzModel(FreeAbelian(2)), FreeAbelian(2), "abelian"),
    "free2": (ToeplitzModel(FreeMonoid(2)), FreeMonoid(2), "free"),
    "boundary2": (ToeplitzModel(FreeMonoid(2), boundary=True), FreeMonoid(2),
                  "boundary"),
}
CASES = [(name, base) for name in MODELS for base in ("C", "M2")]


def depths(name, top=3):
    """(oracle depth, library depth) pairs."""
    _, sg, family = MODELS[name]
    old = (list(itertools.product(range(top + 1), repeat=sg.rank))
           if family == "abelian" else list(range(top + 1)))
    return [(d, lib(family, d)) for d in old]


def random_element(rng, model, base, depth):
    """Random values on a random nonempty subset of the atoms at depth."""
    atoms = model.atoms(depth)
    keep = rng.random(len(atoms)) < 0.7
    keep[rng.integers(len(atoms))] = True
    return LevelledElement(model, base, depth, {
        a: random_matrix(rng, base.dim) for a, k in zip(atoms, keep) if k
    })


def system(rng, name, base):
    model, sg, _ = MODELS[name]
    betas = [random_unitary(rng, base.dim) for _ in range(sg.rank)]
    return LcmSystem(sg, model, base, betas=betas)


def assert_same(coeffs, want):
    assert list(coeffs) == list(want)
    for atom, v in want.items():
        assert np.array_equal(coeffs[atom], v), atom


def conjugate(coeffs, u):
    return {a: u @ v @ u.conj().T for a, v in coeffs.items()}


@pytest.mark.parametrize("name,base", CASES)
def test_refinement_matches_the_oracle(name, base):
    rng = np.random.default_rng(11)
    model, _, family = MODELS[name]
    base = {"C": C, "M2": M2}[base]
    for old, depth in depths(name):
        for old_target, target in depths(name):
            if not model.depth_leq(depth, target):
                continue
            x = random_element(rng, model, base, depth)
            y = x.refine_to(target)
            assert y.depth == target
            assert_same(y.coeffs,
                        oracle_refine(family, x.coeffs, old, old_target))


def test_point_model_refinement_is_the_identity():
    model = PointModel(2)
    x = LevelledElement(model, M2, 0, {(): random_matrix(np.random.default_rng(0), 2)})
    assert_same(x.refine_to(3).coeffs, oracle_refine("matrix", x.coeffs, 0, 0))


@pytest.mark.parametrize("name,base", CASES)
def test_generator_action_and_inverse_match_the_oracle(name, base):
    rng = np.random.default_rng(12)
    sys_ = system(rng, name, {"C": C, "M2": M2}[base])
    model, _, family = MODELS[name]
    for old, depth in depths(name):
        for letter in range(1, sys_.semigroup.rank + 1):
            u = sys_.betas[letter - 1]
            x = random_element(rng, model, sys_.base, depth)

            y = sys_.apply_generator(letter, x)
            coeffs, d = oracle_shift(family, x.coeffs, old, letter)
            assert y.depth == d
            assert_same(y.coeffs, conjugate(coeffs, u))

            z = apply_generator_inverse(sys_, letter, x)
            coeffs, d = oracle_unshift(family, x.coeffs, old, letter)
            assert z.depth == d
            assert_same(z.coeffs, conjugate(coeffs, u.conj().T))


@pytest.mark.parametrize("name", MODELS)
def test_children_partition_the_deeper_catalog(name):
    model, sg, _ = MODELS[name]
    # the depths after a letter too, which are not all of one length
    every = [d for _, depth in depths(name) for d in (depth, *(
        model.shift_depth(depth, letter) for letter in range(1, sg.rank + 1)))]
    for depth in every:
        for target in every:
            if not model.depth_leq(depth, target):
                continue
            kids = [c for a in model.atoms(depth)
                    for c in model.children(a, depth, target)]
            assert len(kids) == len(set(kids))
            assert set(kids) == set(model.atoms(target))


@pytest.mark.parametrize("name", MODELS)
def test_unshift_inverts_shift_and_is_none_off_the_range(name):
    model, sg, _ = MODELS[name]
    sys_ = LcmSystem(sg, model, C)
    for letter, g in enumerate(sg.generators, start=1):
        e_letter = sys_.unit_projection(g)
        for _, depth in depths(name):
            shifted = model.shift_depth(depth, letter)
            assert model.unshift_depth(shifted, letter) == depth
            catalog = set(model.atoms(shifted))
            for atom in model.atoms(depth):
                assert model.shift(atom, letter) in catalog
                assert model.unshift(model.shift(atom, letter), letter) == atom
            if not model.depth_leq(e_letter.depth, depth):
                continue
            under = e_letter.refine_to(depth).coeffs
            for atom in model.atoms(depth):
                assert (model.unshift(atom, letter) is None) == (atom not in under)


def point_oracle(alphas, letter, x, inverse=False):
    """The point-model generator action and its inverse as explicit maps:
    every atom keeps its place and the depth stays."""
    gm = alphas[letter - 1]
    apply = gm.apply_inverse if inverse else gm.apply
    return {a: apply(v) for a, v in x.coeffs.items()}, x.depth


@pytest.mark.parametrize("blocks", [(2,), (2, 1)])
@pytest.mark.parametrize("kind", ["unitary", "linear"])
def test_point_model_action_matches_its_explicit_maps(blocks, kind):
    rng = np.random.default_rng(13)
    base, sg = BaseAlgebra(blocks), FreeAbelian(2)
    n = base.dim
    alphas = [GeneratorMap(unitary=random_unitary(rng, n)) if kind == "unitary"
              else GeneratorMap(linear=random_matrix(rng, n * n)) for _ in range(2)]
    sys_ = LcmSystem(sg, PointModel(2), base, alphas=alphas)
    for x in (LevelledElement(sys_.model, base, 0, {(): random_matrix(rng, n)}),
              zero_element(sys_)):
        for letter in (1, 2):
            for inverse in (False, True):
                act = (functools.partial(apply_generator_inverse, sys_) if inverse
                       else sys_.apply_generator)
                y = act(letter, x)
                coeffs, depth = point_oracle(alphas, letter, x, inverse)
                assert y.depth == depth
                assert_same(y.coeffs, coeffs)


def test_point_model_letters_are_automorphisms_of_the_atom():
    model = PointModel(2)
    for letter in (1, 2):
        for atom in model.atoms(0):
            assert model.unshift(atom, letter) is not None
            assert model.unshift(model.shift(atom, letter), letter) == atom
        assert model.shift_depth(0, letter) == model.unshift_depth(0, letter) == 0
