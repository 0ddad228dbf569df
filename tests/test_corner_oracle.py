"""Equivalence of the combinatorial corners and the blocked Gram assembly
and factorization with the numerical construction they replace.

The oracle keeps, inside this module only, the generic routines: a corner
obtained as the row space (SVD with a relative cut) of the compressed algebra
basis E_p . b . E_q, a Gram operator assembled over all pairs of catalog
indices, and, for catalogs too large for all pairs, a dense Gram assembled
entry by entry inside each (atom, row) group.  The dense spectrum of either
gives the verdict, the rank and the witness group the blocked
factorization must reproduce.
"""

import numpy as np
import pytest

from conftest import (
    element_from_vec,
    load_perfbench,
    random_coisometry_pair,
    random_ucp_map,
    random_unitary,
)
from lcm_dilate.algebras import (
    BaseAlgebra,
    PointModel,
    ToeplitzModel,
)
from lcm_dilate.cpmaps import (
    ContractionFamily,
    build_phi_tilde,
    extend_phi_T,
    is_completely_positive,
    state_map,
)
from lcm_dilate.cli import build_pair, parse_instance
from lcm_dilate.dilation import Tolerances, naimark_dilate
from lcm_dilate.errors import GramNotPositiveError, SpecMismatchError
from lcm_dilate.kernel import KernelSystem, assemble_gram
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))
RANK_CUT = 1e-10


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def svd_corner(sys_, p, q, depth):
    """Orthonormal rows spanning E_p . A(depth) . E_q, and their elements."""
    d = sys_.model.normalize_depth(depth)
    ep, eq = sys_.unit_projection(p), sys_.unit_projection(q)
    mat = np.array([(ep * b * eq).vec(d) for b in sys_.algebra_basis(d)])
    if np.abs(mat).max() == 0.0:
        return np.zeros((0, mat.shape[1]), dtype=complex), []
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    vectors = vh[: int(np.sum(s > RANK_CUT * s[0]))]
    elements = [element_from_vec(sys_.model, sys_.base, d, v) for v in vectors]
    return vectors, elements


def dense_gram(kernel, indices):
    """K(q_i, a_i* a_j, q_j) over every pair of (q, a) indices."""
    n, h = len(indices), kernel.h
    gram = np.zeros((n * h, n * h), dtype=complex)
    for i, (qi, ai) in enumerate(indices):
        ai_star = ai.star()
        for j in range(i, n):
            qj, aj = indices[j]
            val = kernel.evaluate(qi, ai_star * aj, qj)
            if i == j:
                val = (val + val.conj().T) / 2.0
            gram[i * h:(i + 1) * h, j * h:(j + 1) * h] = val
            gram[j * h:(j + 1) * h, i * h:(i + 1) * h] = val.conj().T
    return gram


def svd_indices(kernel, degree):
    sys_ = kernel.sys
    sg = sys_.semigroup
    return [
        (q, elem)
        for q in sg.enumerate_up_to(degree)
        for elem in svd_corner(sys_, sg.identity, q, degree)[1]
    ]


def grouped_dense_gram(kernel, catalog):
    """K(q_i, a_i* a_j, q_j) entry by entry, only for pairs inside one
    (atom, row) group; every other block stays zero."""
    n, h = len(catalog), kernel.h
    gram = np.zeros((n * h, n * h), dtype=complex)
    groups: dict = {}
    for i, idx in enumerate(catalog):
        groups.setdefault(idx.key[:2], []).append(i)
    for members in groups.values():
        for s, i in enumerate(members):
            ai = catalog[i].element.star()
            for j in members[s:]:
                val = kernel.evaluate(catalog[i].q, ai * catalog[j].element,
                                      catalog[j].q)
                if i == j:
                    val = (val + val.conj().T) / 2.0
                gram[i * h:(i + 1) * h, j * h:(j + 1) * h] = val
                gram[j * h:(j + 1) * h, i * h:(i + 1) * h] = val.conj().T
    return gram


def numerical_rank(w):
    return int(np.sum(w > RANK_CUT * max(float(w[-1]), 1e-300)))


def dense_outcome(gram, catalog, tols=Tolerances()):
    """(verdict, rank, witness group, spectrum) from one dense eigvalsh.

    The witness group is the first group, in catalog order, whose
    restriction has its least eigenvalue within the rank tolerance of the
    least eigenvalue of the whole operator.
    """
    w = np.linalg.eigvalsh(gram)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] >= -tols.psd * scale:
        return True, numerical_rank(w), None, w
    h = gram.shape[0] // len(catalog)
    groups: dict = {}
    for i, idx in enumerate(catalog):
        groups.setdefault(idx.key[:2], []).extend(range(i * h, (i + 1) * h))
    for key, rows in groups.items():
        least = np.linalg.eigvalsh(gram[np.ix_(rows, rows)])[0]
        if least <= w[0] + tols.rank * scale:
            return False, None, key, w
    raise AssertionError("no group attains the least eigenvalue")


def blocked_outcome(kernel, degree, assembly):
    """The same four from the library's per-block factorization."""
    try:
        res = naimark_dilate(kernel, degree, assembly=assembly)
    except GramNotPositiveError as exc:
        return False, None, exc.group, assembly.eigenvalues()
    return True, res.rank, None, res.eigenvalues


def assert_same_outcome(expected, got):
    verdict, rank, group, w = expected
    assert got[:3] == (verdict, rank, group)
    assert got[3].shape == w.shape
    assert np.abs(got[3] - w).max() <= 1e-12 * np.abs(w).max()


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------


def abelian_rank2():
    rng = np.random.default_rng(3)
    sg = FreeAbelian(2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), C)
    u = random_unitary(rng, 2)
    t_mats = [
        u @ np.diag(rng.uniform(0.2, 0.9, 2) * np.exp(2j * np.pi * rng.random(2)))
        @ u.conj().T
        for _ in range(2)
    ]
    T = ContractionFamily(sg, t_mats)
    ext = extend_phi_T(sys_, T, 3)
    assert is_completely_positive(ext).is_cp
    return KernelSystem(sys_, ext, T), 3


def toeplitz_free_rank2():
    rng = np.random.default_rng(4)
    sg = FreeMonoid(2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), C)
    T = ContractionFamily(sg, [0.8 * t for t in random_coisometry_pair(rng, 2)])
    ext = extend_phi_T(sys_, T, 3)
    assert is_completely_positive(ext).is_cp
    return KernelSystem(sys_, ext, T), 3


def boundary_free_m2():
    rng = np.random.default_rng(5)
    sg = FreeMonoid(2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg, boundary=True), M2)
    T = ContractionFamily(sg, random_coisometry_pair(rng, 2))
    phi = build_phi_tilde(sys_, state_map(M2, np.eye(2) / 2.0, 2), T, 2)
    return KernelSystem(sys_, phi, T), 2


def point_diagonal_alphas():
    rng = np.random.default_rng(6)
    sg = FreeAbelian(2)
    alphas = [
        GeneratorMap(unitary=np.diag(np.exp(2j * np.pi * rng.random(2))))
        for _ in range(2)
    ]
    sys_ = LcmSystem(sg, PointModel(2), M2, alphas=alphas)
    w = random_unitary(rng, 3)
    t_mats = [
        w @ np.diag(np.exp(2j * np.pi * rng.random(3))) @ w.conj().T
        for _ in range(2)
    ]
    T = ContractionFamily(sg, t_mats)
    phi = build_phi_tilde(sys_, state_map(M2, np.diag([0.3, 0.7]), 3), T, 0)
    return KernelSystem(sys_, phi, T), 2


def blocks_2_1():
    rng = np.random.default_rng(7)
    base = BaseAlgebra((2, 1))
    sg = FreeAbelian(1)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), base)
    T = ContractionFamily(sg, [0.5 * np.eye(2)])
    phi = build_phi_tilde(sys_, random_ucp_map(rng, base, 2), T, 3)
    return KernelSystem(sys_, phi, T), 3


CASES = [abelian_rank2, toeplitz_free_rank2, boundary_free_m2,
         point_diagonal_alphas, blocks_2_1]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", CASES, ids=lambda f: f.__name__)
def test_block_assembly_matches_dense_and_svd_oracles(make):
    kernel, degree = make()
    g = assemble_gram(kernel, degree)
    h = kernel.h

    # same catalog: every entry equals the all-pairs assembly, and the
    # blocks outside the (atom, row) groups are exactly zero
    dense = dense_gram(kernel, [(idx.q, idx.element) for idx in g.catalog])
    assert np.array_equal(g.gram, dense)
    ids: dict = {}
    groups = np.array([ids.setdefault(idx.key[:2], len(ids)) for idx in g.catalog])
    outside = np.repeat(np.repeat(groups[:, None] != groups[None, :], h, 0), h, 1)
    assert outside.any()
    assert np.all(g.gram[outside] == 0)

    # the SVD corners span the same index space: same catalog size,
    # spectrum and rank
    svd = dense_gram(kernel, svd_indices(kernel, degree))
    assert svd.shape == g.gram.shape
    w_new = np.linalg.eigvalsh(g.gram)
    w_svd = np.linalg.eigvalsh(svd)
    scale = np.abs(w_svd).max()
    assert np.abs(w_new - w_svd).max() <= 1e-12 * scale
    assert numerical_rank(w_new) == numerical_rank(w_svd)

    # the per-block factorization agrees with the dense spectrum
    assert_same_outcome(dense_outcome(dense, g.catalog),
                        blocked_outcome(kernel, degree, g))


def abelian_rank2_depth5():
    kernel, _ = abelian_rank2()
    ext = extend_phi_T(kernel.sys, kernel.T, 5)
    assert is_completely_positive(ext).is_cp
    return KernelSystem(kernel.sys, ext, kernel.T), 5


def matrix_dense(position, tmp_path):
    """Instance ``position`` of the matrix_dense workload at seed 1: 0 is a
    state instance, 1 the transpose instance refused at gram.psd."""
    workloads = load_perfbench("workloads")
    instances = workloads.generate("matrix_dense", 1, str(tmp_path), 2)
    inst = parse_instance(instances[position].path)
    sys_, phi, T = build_pair(inst)
    return KernelSystem(sys_, phi, T), inst.degree


@pytest.mark.parametrize(
    "case", ["abelian_rank2_depth5", "matrix_dense_state", "matrix_dense_transpose"]
)
def test_blocked_factorization_matches_grouped_dense_oracle(case, tmp_path):
    if case == "abelian_rank2_depth5":
        kernel, degree = abelian_rank2_depth5()
    else:
        kernel, degree = matrix_dense(int(case.endswith("transpose")), tmp_path)
    g = assemble_gram(kernel, degree)
    dense = grouped_dense_gram(kernel, g.catalog)
    assert np.array_equal(g.gram, dense)
    expected = dense_outcome(dense, g.catalog)
    assert_same_outcome(expected, blocked_outcome(kernel, degree, g))
    # the transpose instance exercises the witness group
    assert expected[0] == (case != "matrix_dense_transpose")
    if degree == 5:
        assert expected[1] == 2 * (5 + 1) ** 2
    else:
        assert g.size == 1000 and len(g.blocks) == 2


@pytest.mark.parametrize("make", CASES, ids=lambda f: f.__name__)
def test_combinatorial_corners_match_svd_projectors(make):
    kernel, degree = make()
    sys_ = kernel.sys
    d = sys_.model.normalize_depth(degree)
    words = sys_.semigroup.enumerate_up_to(degree)
    for p in words:
        for q in words:
            corner = sys_.corner_basis(p, q, d)
            vectors, _ = svd_corner(sys_, p, q, d)
            assert len(corner) == vectors.shape[0], (p, q)
            if not len(corner):
                continue
            rows = np.array([e.vec(d) for e in corner.elements])
            assert np.allclose(rows @ rows.conj().T, np.eye(len(corner)))
            assert np.allclose(
                rows.conj().T @ rows, vectors.conj().T @ vectors, atol=1e-12
            ), (p, q)


def test_corner_refuses_projection_values_other_than_zero_and_unit():
    # a non-unital point-model map: alpha(1) = e11 is neither 0 nor the unit
    e11 = np.zeros((4, 4))
    e11[0, 0] = 1.0
    sys_ = LcmSystem(FreeAbelian(1), PointModel(1), M2,
                     alphas=[GeneratorMap(linear=e11)])
    assert len(sys_.corner_basis((0,), (0,), 0)) == len(M2.basis())
    with pytest.raises(SpecMismatchError, match="neither 0 nor the unit"):
        sys_.corner_basis((1,), (1,), 0)
