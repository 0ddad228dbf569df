"""The kernel's middle factors against the left inverse on elements.

``LcmSystem.inverse_matrix`` is alpha_r^-1 from the atom (x) matrix-unit
basis at one depth to that at another, read off the atom rules, and the
kernel keeps per (r, depth) the stack of phi(alpha_r^-1(b)) over the basis
elements b, each one product of a matrix row with phi's value stack.  The
oracle (``conftest.alpha_inverse``) unshifts an element letter by letter,
refining it and mapping each atom's value.  Every stack row must equal
``phi.value`` of the oracle's image bit for bit (``tobytes``), and
``evaluate`` on corner elements that are not basis elements (sums, scalar
multiples, products) must match the oracle's sandwich
T(p\\r) phi(alpha_r^-1(a)) T(q\\r)* to 1e-14 relative.

The cases: free abelian rank 1 and 2 and the free monoid, the boundary
quotient over M2 with non-identity betas, a (2, 1) base, and point models
with unitary and with linear maps; phi has random values and T random
contractions, since neither covariance nor positivity enters the identity.
"""

import numpy as np
import pytest

from conftest import alpha_inverse, random_contraction, random_matrix, random_unitary
from lcm_dilate.algebras import BaseAlgebra, PointModel, ToeplitzModel
from lcm_dilate.cpmaps import ContractionFamily, LevelledOperatorMap
from lcm_dilate.kernel import KernelSystem, _sandwich
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem

C, M2, M2pC = BaseAlgebra((1,)), BaseAlgebra((2,)), BaseAlgebra((2, 1))
H = 2


def commuting(rng, rank):
    """Diagonal contractions, which commute."""
    return [np.diag(rng.uniform(0.2, 0.9, H) * np.exp(2j * np.pi * rng.random(H)))
            for _ in range(rank)]


def toeplitz(sg, base, boundary=False, betas=None):
    return LcmSystem(sg, ToeplitzModel(sg, boundary), base, betas=betas)


def unital_linear(rng, n):
    """A random invertible map on row-major vectors of n x n matrices that
    fixes the unit, so the range projections stay the unit."""
    one = np.eye(n).reshape(-1, 1)
    r = 0.3 * random_matrix(rng, n * n)
    return np.eye(n * n) + r - (r @ one) @ one.T / n


def point(rng, base, kind):
    n = base.dim
    maps = [GeneratorMap(unitary=random_unitary(rng, n)) if kind == "unitary"
            else GeneratorMap(linear=unital_linear(rng, n)) for _ in range(2)]
    return LcmSystem(FreeAbelian(2), PointModel(2), base, alphas=maps)


def case(name):
    """(system, contractions, degree) of one case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "abelian1":
        return toeplitz(FreeAbelian(1), C), commuting(rng, 1), 3
    if name == "abelian2":
        return toeplitz(FreeAbelian(2), C), commuting(rng, 2), 2
    if name == "free":
        return toeplitz(FreeMonoid(2), C), [random_contraction(rng, H)
                                            for _ in range(2)], 2
    if name == "boundary_m2":
        betas = [random_unitary(rng, 2) for _ in range(2)]
        return (toeplitz(FreeMonoid(2), M2, True, betas),
                [random_contraction(rng, H) for _ in range(2)], 2)
    if name == "abelian2_base21":
        betas = []
        for _ in range(2):
            u = np.zeros((3, 3), dtype=complex)
            u[:2, :2], u[2, 2] = random_unitary(rng, 2), np.exp(2j * np.pi * rng.random())
            betas.append(u)
        return toeplitz(FreeAbelian(2), M2pC, betas=betas), commuting(rng, 2), 2
    kind = name.split("_")[1]
    return point(rng, M2pC if kind == "linear" else M2, kind), commuting(rng, 2), 2


CASES = ["abelian1", "abelian2", "free", "boundary_m2", "abelian2_base21",
         "point_unitary", "point_linear"]


def kernel(name):
    sys_, mats, degree = case(name)
    rng = np.random.default_rng(7)
    depth = sys_.model.normalize_depth(degree)
    n = len(sys_.model.atoms(depth)) * sys_.base.linear_dim
    values = [random_matrix(rng, H) for _ in range(n)]
    phi = LevelledOperatorMap(sys_, depth, values)
    T = ContractionFamily(sys_.semigroup, mats)
    return KernelSystem(sys_, phi, T, validate=False), degree


@pytest.mark.parametrize("name", CASES)
def test_every_stack_row_is_phi_of_the_oracle(name):
    K, degree = kernel(name)
    sys_ = K.sys
    depth = sys_.model.normalize_depth(degree)
    basis = sys_.algebra_basis(depth)
    for r in sys_.semigroup.enumerate_up_to(degree):
        stack = K.inner_stack(r, depth)
        assert stack.shape == (len(basis), H, H) and not stack.flags.writeable
        for k, b in enumerate(basis):
            want = K.phi.value(alpha_inverse(sys_, r, b))
            assert stack[k].tobytes() == want.tobytes(), (r, k)


def corner_elements(sys_, rng, p, q, depth):
    """Sums, scalar multiples and products inside E_p . A . E_q."""
    def combination(corner):
        acc = None
        for e in corner.elements:
            term = e * complex(rng.standard_normal(), rng.standard_normal())
            acc = term if acc is None else acc + term
        return acc

    here, left = sys_.corner_basis(p, q, depth), sys_.corner_basis(p, p, depth)
    if not len(here):
        return []
    x, y = combination(here), combination(left)
    return [x, here.elements[-1] * (0.5 - 2j), y * x, x + here.elements[0]]


@pytest.mark.parametrize("name", CASES)
def test_evaluate_matches_the_oracle_sandwich(name):
    K, degree = kernel(name)
    sys_, sg = K.sys, K.sys.semigroup
    rng = np.random.default_rng(8)
    words = sg.enumerate_up_to(degree)
    checked = 0
    for p in words:
        for q in words:
            r = sg.lcm(p, q)
            if r is None or sg.length(r) > degree:
                continue
            for a in corner_elements(sys_, rng, p, q, degree):
                got = K.evaluate(p, a, q)
                want = _sandwich(K.T(sg.left_divide(p, r)),
                                 K.phi.value(alpha_inverse(sys_, r, a)),
                                 K.T(sg.left_divide(q, r)))
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (p, q)
                checked += 1
    assert checked
