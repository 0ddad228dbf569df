"""The single signed-lcm sum against the per-model lifts it replaces.

The oracle keeps, inside this module only, the lift written once per model
kind: on abelian atoms an inclusion-exclusion over the point coordinates, on
free atoms L(w) - sum_g L(wg) at a defect atom and L(w) at a leaf cylinder,
with L(p) = T(p) phi(beta_p^{-1}(u)) T(p)*.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    commuting_contraction_pair,
    random_coisometry_pair,
    random_contraction,
    random_ucp_map,
    random_unitary,
)
from lcm_dilate.algebras import (
    AbelianToeplitzModel,
    BaseAlgebra,
    FreeBoundaryModel,
    FreeToeplitzModel,
    LevelledElement,
)
from lcm_dilate.cpmaps import (
    BaseOperatorMap,
    ContractionFamily,
    build_phi_tilde,
    ewf_projection,
    nica_defect,
    phi_F,
    signed_lcms,
    state_map,
)
from lcm_dilate.errors import ResourceCapError
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def oracle_lift(sys_, phi, T, depth) -> dict:
    d = sys_.model.normalize_depth(depth)
    units = sys_.base.basis()

    def lifted(p, u):
        bu = sys_.base.unit()
        for letter in sys_.semigroup.as_word(p):
            bu = bu @ sys_.betas[letter - 1]
        tp = T(p)
        return tp @ phi.value(bu.conj().T @ u @ bu) @ tp.conj().T

    def abelian_atom_value(atom, u):
        points = [i for i in range(len(atom)) if atom[i] < d[i]]
        out = np.zeros((T.h, T.h), dtype=complex)
        for k in range(len(points) + 1):
            for combo in itertools.combinations(points, k):
                v = list(atom)
                for i in combo:
                    v[i] += 1
                out = out + (-1) ** k * lifted(tuple(v), u)
        return out

    def free_atom_value(atom, u):
        tag, w = atom
        v = lifted(w, u)
        if tag == "d":
            for g in sys_.semigroup.generators:
                v = v - lifted(w + g, u)
        return v

    value = (abelian_atom_value if sys_.model.kind == "toeplitz_abelian"
             else free_atom_value)
    return {atom: np.array([value(atom, u) for u in units])
            for atom in sys_.model.atoms(d)}


# ---------------------------------------------------------------------------
# the cases: (system, phi, T, depth)
# ---------------------------------------------------------------------------


def _diagonal_unitary(rng):
    return np.diag(np.exp(2j * np.pi * rng.random(2)))


def abelian_rank1():
    rng = np.random.default_rng(11)
    sg = FreeAbelian(1)
    sys_ = LcmSystem(sg, AbelianToeplitzModel(1), M2, betas=[random_unitary(rng, 2)])
    T = ContractionFamily(sg, [random_contraction(rng, 2)])
    return sys_, random_ucp_map(rng, M2, 2), T, 3


def abelian_rank2():
    rng = np.random.default_rng(12)
    sg = FreeAbelian(2)
    betas = [_diagonal_unitary(rng), _diagonal_unitary(rng)]
    sys_ = LcmSystem(sg, AbelianToeplitzModel(2), M2, betas=betas)
    T = ContractionFamily(sg, commuting_contraction_pair(rng))
    return sys_, random_ucp_map(rng, M2, 2), T, (2, 1)


def toeplitz_free_rank2():
    rng = np.random.default_rng(13)
    sg = FreeMonoid(2)
    betas = [random_unitary(rng, 2), random_unitary(rng, 2)]
    sys_ = LcmSystem(sg, FreeToeplitzModel(2), M2, betas=betas)
    T = ContractionFamily(sg, [0.8 * t for t in random_coisometry_pair(rng, 2)])
    return sys_, random_ucp_map(rng, M2, 2), T, 2


def boundary_free_m2():
    rng = np.random.default_rng(14)
    sg = FreeMonoid(2)
    betas = [random_unitary(rng, 2), random_unitary(rng, 2)]
    sys_ = LcmSystem(sg, FreeBoundaryModel(2), M2, betas=betas)
    T = ContractionFamily(sg, random_coisometry_pair(rng, 2))
    return sys_, state_map(M2, np.eye(2) / 2.0, 2), T, 2


CASES = [abelian_rank1, abelian_rank2, toeplitz_free_rank2, boundary_free_m2]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_lift_equals_the_per_model_oracle_bit_for_bit(case):
    sys_, phi, T, depth = case()
    lifted = build_phi_tilde(sys_, phi, T, depth)
    expected = oracle_lift(sys_, phi, T, depth)
    assert list(lifted.values) == list(expected)
    for atom, vals in expected.items():
        assert np.array_equal(lifted.values[atom], vals), atom


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_every_atom_is_the_projection_of_its_cylinder(case):
    sys_ = case()[0]
    model, base = sys_.model, sys_.base
    for depth in range(4):
        d = model.normalize_depth(depth)
        for atom in model.atoms(d):
            p, F = model.cylinder(atom, d)
            e = ewf_projection(sys_, [p], [p, *F]).refine_to(d)
            one = LevelledElement.from_atom(model, base, d, atom, base.unit())
            # beta_p conjugates the unit to itself up to rounding
            assert (e - one).norm() <= 1e-12, (depth, atom)


@pytest.mark.parametrize("sg,T_mats,F", [
    (FreeAbelian(2), commuting_contraction_pair(np.random.default_rng(15)),
     [(1, 0), (0, 1)]),
    (FreeAbelian(2), commuting_contraction_pair(np.random.default_rng(16)),
     [(0, 2), (1, 1), (2, 0), (1, 0)]),
    (FreeMonoid(2), [0.9 * t for t in random_coisometry_pair(
        np.random.default_rng(17), 2)], [(1,), (2,), (1, 2), (1, 2, 1)]),
])
def test_phi_F_of_the_unit_map_is_the_nica_defect(sg, T_mats, F):
    T = ContractionFamily(sg, T_mats)
    unit_map = BaseOperatorMap(C, [np.eye(T.h)])
    out = phi_F(unit_map, [np.eye(1)] * sg.rank, T, F)
    assert np.array_equal(out.values[0], nica_defect(T, F))


def test_signed_lcms_order_skips_and_cap():
    sg = FreeMonoid(2)
    assert signed_lcms(sg, [(1,), (2,), (1, 2)]) == [
        (1, ()), (-1, (1,)), (-1, (2,)), (-1, (1, 2)), (1, (1, 2)),
    ]
    assert signed_lcms(sg, [(1, 1), (1, 2)], (1,)) == [
        (1, (1,)), (-1, (1, 1)), (-1, (1, 2)),
    ]
    assert signed_lcms(FreeAbelian(2), [(1, 0), (0, 1)], (0, 0)) == [
        (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)), (1, (1, 1)),
    ]
    with pytest.raises(ResourceCapError):
        signed_lcms(sg, [(1,)] * 3, cap=2)
