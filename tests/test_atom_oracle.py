"""The atom rules of every model against whole-dictionary transforms.

The oracle below refines, shifts and masked-unshifts a coefficient
dictionary as one transform per model, one stage at a time; the library
applies each model's per-atom rules (``children``, ``shift``, ``unshift``)
once for all models.  Both must give the same atoms in the same order and
bit-equal values, since later sums run in dictionary order.  On the point
model the oracle maps every atom's value by the generator's explicit map
and leaves the depth alone.
"""

import itertools

import numpy as np
import pytest

from conftest import random_matrix, random_unitary
from lcm_dilate.algebras import (
    AbelianToeplitzModel,
    BaseAlgebra,
    FreeBoundaryModel,
    FreeToeplitzModel,
    LevelledElement,
    PointModel,
)
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))


# ---------------------------------------------------------------------------
# the oracle: one dictionary transform per model and stage
# ---------------------------------------------------------------------------


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
    new = {}

    def acc(key, val):
        new[key] = new[key] + val if key in new else val

    for (tag, w), val in coeffs.items():
        acc(("d", w), val)
        if tag == "c":
            for i in range(1, rank + 1):
                acc(("c", w + (i,)), val)
    return new, depth + 1


def _boundary_refine_once(coeffs, depth, rank):
    new = {}
    for (_, w), val in coeffs.items():
        for i in range(1, rank + 1):
            key = ("c", w + (i,))
            new[key] = new[key] + val if key in new else val
    return new, depth + 1


def oracle_refine(model, coeffs, depth, target):
    if model.kind == "matrix":
        return coeffs
    if model.kind == "toeplitz_abelian":
        for coord in range(model.rank):
            while depth[coord] < target[coord]:
                coeffs, depth = _abelian_refine_once(coeffs, depth, coord)
        return coeffs
    once = (_free_refine_once if model.kind == "toeplitz_free"
            else _boundary_refine_once)
    while depth < target:
        coeffs, depth = once(coeffs, depth, model.rank)
    return coeffs


def oracle_shift(model, coeffs, depth, letter):
    if model.kind == "toeplitz_abelian":
        c = letter - 1
        new = {a[:c] + (a[c] + 1,) + a[c + 1:]: v for a, v in coeffs.items()}
        return new, depth[:c] + (depth[c] + 1,) + depth[c + 1:]
    return {(tag, (letter,) + w): v for (tag, w), v in coeffs.items()}, depth + 1


def oracle_unshift(model, coeffs, depth, letter):
    if model.kind == "toeplitz_abelian":
        c = letter - 1
        if depth[c] < 1:
            target = depth[:c] + (1,) + depth[c + 1:]
            coeffs, depth = oracle_refine(model, coeffs, depth, target), target
        new = {a[:c] + (a[c] - 1,) + a[c + 1:]: v
               for a, v in coeffs.items() if a[c] >= 1}
        return new, depth[:c] + (depth[c] - 1,) + depth[c + 1:]
    if depth < 1:
        coeffs, depth = oracle_refine(model, coeffs, depth, 1), 1
    new = {(tag, w[1:]): v for (tag, w), v in coeffs.items()
           if w and w[0] == letter}
    return new, depth - 1


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

MODELS = {
    "abelian1": (AbelianToeplitzModel(1), FreeAbelian(1)),
    "abelian2": (AbelianToeplitzModel(2), FreeAbelian(2)),
    "free2": (FreeToeplitzModel(2), FreeMonoid(2)),
    "boundary2": (FreeBoundaryModel(2), FreeMonoid(2)),
}
CASES = [(name, base) for name in MODELS for base in ("C", "M2")]


def depths(model, top=3):
    if isinstance(model, AbelianToeplitzModel):
        return list(itertools.product(range(top + 1), repeat=model.rank))
    return list(range(top + 1))


def random_element(rng, model, base, depth):
    """Random values on a random nonempty subset of the atoms at depth."""
    atoms = model.atoms(depth)
    keep = rng.random(len(atoms)) < 0.7
    keep[rng.integers(len(atoms))] = True
    return LevelledElement(model, base, depth, {
        a: random_matrix(rng, base.dim) for a, k in zip(atoms, keep) if k
    })


def system(rng, name, base):
    model, sg = MODELS[name]
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
    model, _ = MODELS[name]
    base = {"C": C, "M2": M2}[base]
    for depth in depths(model):
        for target in depths(model):
            if not model.depth_leq(depth, target):
                continue
            x = random_element(rng, model, base, depth)
            y = x.refine_to(target)
            assert y.depth == target
            assert_same(y.coeffs, oracle_refine(model, x.coeffs, depth, target))


def test_point_model_refinement_is_the_identity():
    model = PointModel(2)
    x = LevelledElement(model, M2, 0, {(): random_matrix(np.random.default_rng(0), 2)})
    assert_same(x.refine_to(3).coeffs, oracle_refine(model, x.coeffs, 0, 0))


@pytest.mark.parametrize("name,base", CASES)
def test_generator_action_and_inverse_match_the_oracle(name, base):
    rng = np.random.default_rng(12)
    sys_ = system(rng, name, {"C": C, "M2": M2}[base])
    model = sys_.model
    for depth in depths(model):
        for letter in range(1, sys_.semigroup.rank + 1):
            u = sys_.betas[letter - 1]
            x = random_element(rng, model, sys_.base, depth)

            y = sys_.apply_generator(letter, x)
            coeffs, d = oracle_shift(model, x.coeffs, depth, letter)
            assert y.depth == d
            assert_same(y.coeffs, conjugate(coeffs, u))

            z = sys_.apply_generator_inverse(letter, x)
            coeffs, d = oracle_unshift(model, x.coeffs, depth, letter)
            assert z.depth == d
            assert_same(z.coeffs, conjugate(coeffs, u.conj().T))


@pytest.mark.parametrize("name", MODELS)
def test_children_partition_the_deeper_catalog(name):
    model, _ = MODELS[name]
    for depth in depths(model):
        for target in depths(model):
            if not model.depth_leq(depth, target):
                continue
            kids = [c for a in model.atoms(depth)
                    for c in model.children(a, depth, target)]
            assert len(kids) == len(set(kids))
            assert set(kids) == set(model.atoms(target))


@pytest.mark.parametrize("name", MODELS)
def test_unshift_inverts_shift_and_is_none_off_the_range(name):
    model, sg = MODELS[name]
    sys_ = LcmSystem(sg, model, C)
    for letter, g in enumerate(sg.generators, start=1):
        e_letter = sys_.unit_projection(g)
        for depth in depths(model):
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
              sys_.zero()):
        for letter in (1, 2):
            for inverse in (False, True):
                act = sys_.apply_generator_inverse if inverse else sys_.apply_generator
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
