import itertools

import numpy as np
import pytest

from conftest import (
    check_kernel_properties,
    commuting_contraction_pair,
    lcm_of,
    random_coisometry_pair,
    random_contraction,
    random_state,
)
from lcm_dilate.algebras import (
    BaseAlgebra,
    PointModel,
    ToeplitzModel,
)
from lcm_dilate.cpmaps import (
    BaseOperatorMap,
    ContractionFamily,
    build_phi_tilde,
    extend_phi_T,
    state_map,
    transpose_map,
)
from lcm_dilate.errors import (
    CornerMembershipError,
    CovarianceError,
    SpecMismatchError,
)
from lcm_dilate.kernel import KernelSystem, assemble_gram
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))
FA1, FA2, FM2 = FreeAbelian(1), FreeAbelian(2), FreeMonoid(2)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def sznagy_kernel(t=0.5, depth=4):
    sys_ = LcmSystem(FA1, ToeplitzModel(FA1), C)
    T = ContractionFamily(FA1, [np.array([[t]], dtype=complex)])
    ext = extend_phi_T(sys_, T, depth)
    return KernelSystem(sys_, ext.map, T)


def cuntz_kernel(depth=3):
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    T = ContractionFamily(FM2, [E11, E21])
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    phi = build_phi_tilde(sys_, state_map(M2, rho, 2), T, depth)
    return KernelSystem(sys_, phi, T)


def matrix_kernel(phi_map, h=2):
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [np.eye(h)])
    return KernelSystem(sys_, build_phi_tilde(sys_, phi_map, T, 0), T)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_unital_value():
    K = sznagy_kernel()
    sg = K.sys.semigroup
    val = K.evaluate(sg.identity, K.sys.unit(), sg.identity)
    assert np.allclose(val, np.eye(1))


def test_scalar_formula_value():
    K = sznagy_kernel(0.5)
    e2 = K.sys.unit_projection((2,))
    assert abs(K.evaluate((0,), e2, (2,))[0, 0] - 0.25) < 1e-14
    # Toeplitz shift by one generator gives the same value
    shifted = K.sys.apply_endo((1,), e2)
    assert abs(K.evaluate((1,), shifted, (3,))[0, 0] - 0.25) < 1e-14


def test_disjoint_ideals_give_zero():
    K = cuntz_kernel()
    a = K.sys.zero(1)
    assert np.abs(K.evaluate((1,), a, (2,))).max() == 0.0


def test_corner_membership_enforced():
    K = cuntz_kernel()
    outside = K.sys.apply_endo((1,), K.sys.unit())   # branch-1 unit
    with pytest.raises(CornerMembershipError):
        K.evaluate((2,), outside, (2,))
    with pytest.raises(CornerMembershipError):
        # nonzero element against disjoint ideals
        K.evaluate((1,), outside, (2,))


def test_covariance_validated_at_construction():
    # a strict contraction with the trivial action is not covariant
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [0.5 * np.eye(2)])
    phi = build_phi_tilde(sys_, BaseOperatorMap(M2, M2.basis()), T, 0)
    with pytest.raises(CovarianceError):
        KernelSystem(sys_, phi, T)
    KernelSystem(sys_, phi, T, validate=False)  # negative controls may opt out


def nan_identity_kernel(validate):
    """The identity map over M2 with one non-finite entry in its values,
    written after construction (the constructor refuses it), so the guards
    behind it are still exercised."""
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [np.eye(2)])
    phi = build_phi_tilde(sys_, BaseOperatorMap(M2, M2.basis()), T, 0)
    phi.values[1, 0, 1] = np.nan
    return KernelSystem(sys_, phi, T, validate=validate)


def test_nan_in_phi_fails_covariance_validation():
    # NaN makes every `x > tol` false; the defects are tested as
    # `not (x <= tol)` and the norm of a non-finite matrix is infinite
    with pytest.raises(CovarianceError) as exc:
        nan_identity_kernel(validate=True)
    assert exc.value.residual == np.inf


def test_nan_in_phi_stops_gram_assembly_at_its_block():
    K = nan_identity_kernel(validate=False)
    with pytest.raises(
        SpecMismatchError,
        match=r"non-finite Gram block \(\(0,\)#0, \(0,\)#0\) "
              r"at \(q_i, q_j\) = \(\(0,\), \(0,\)\)",
    ):
        assemble_gram(K, 1)


def test_scaling_is_exact():
    K = sznagy_kernel()
    e1 = K.sys.unit_projection((1,))
    lam = 2.25 - 1.5j
    assert np.allclose(
        K.evaluate((0,), e1 * lam, (1,)),
        lam * K.evaluate((0,), e1, (1,)),
    )


def test_pullout_identity():
    """K(p, a, q) = K(p, a, r) T(q\\r)* for r in qP when a lives in the
    deeper corner."""
    for K in (sznagy_kernel(0.7, depth=4), cuntz_kernel(3)):
        sg = K.sys.semigroup
        gens = sg.generators
        p = gens[0]
        q = sg.identity
        r = gens[-1]                       # r in qP
        corner = K.sys.corner_basis(p, r, K.sys.model.normalize_depth(2))
        tq = K.T(sg.left_divide(q, r)).conj().T
        for a in corner.elements:
            lhs = K.evaluate(p, a, q, check_corner=False)
            rhs = K.evaluate(p, a, r, check_corner=False) @ tq
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_common_multiple_blocks_are_psd():
    K = cuntz_kernel()
    sg = K.sys.semigroup
    ps = [(1,), (1, 2)]
    r = lcm_of(sg, ps)
    corner = K.sys.corner_basis(sg.identity, r, 3)
    cs = corner.elements[:3]
    h = K.h
    m = np.zeros((len(ps) * h, len(ps) * h), dtype=complex)
    for i, j in itertools.product(range(len(ps)), repeat=2):
        m[i * h:(i + 1) * h, j * h:(j + 1) * h] = K.evaluate(
            ps[i], cs[i % len(cs)].star() * cs[j % len(cs)], ps[j],
            check_corner=False,
        )
    assert np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -1e-10


# ---------------------------------------------------------------------------
# the property suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: sznagy_kernel(0.5),
    lambda: cuntz_kernel(),
])
def test_property_suite_passes(make):
    report = check_kernel_properties(make(), depth=2)
    assert report.passed, [(c.name, c.value) for c in report.checks if not c.passed]


class _Corrupted:
    """Wrap a kernel and break the Hermitian symmetry."""

    def __init__(self, inner):
        self.inner = inner
        self.sys = inner.sys
        self.T = inner.T
        self.h = inner.h

    def evaluate(self, p, a, q, **kw):
        val = self.inner.evaluate(p, a, q, **kw)
        if tuple(p) < tuple(q):
            val = val + 0.05 * np.eye(self.h)
        return val


def test_corrupted_kernel_fails_hermitian_with_witness():
    report = check_kernel_properties(_Corrupted(sznagy_kernel()), depth=2)
    failed = {c.name: c for c in report.checks if not c.passed}
    assert "kernel.hermitian" in failed
    assert failed["kernel.hermitian"].detail   # carries the witness indices


# ---------------------------------------------------------------------------
# Gram assembly and positivity transfer
# ---------------------------------------------------------------------------


def test_gram_degree_zero_is_stinespring_gram():
    phi = transpose_map(M2)
    K = matrix_kernel(phi)
    g = assemble_gram(K, 0)
    basis = M2.basis()
    n, h = len(basis), K.h
    expected = np.zeros((n * h, n * h), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        expected[i * h:(i + 1) * h, j * h:(j + 1) * h] = phi.value(
            basis[i].conj().T @ basis[j]
        )
    # same span: compare spectra after matching the orthonormal corner basis
    assert g.size == n * h
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(g.gram)),
        np.sort(np.linalg.eigvalsh((expected + expected.conj().T) / 2)),
        atol=1e-10,
    )


def test_gram_hermitian_and_catalog_deterministic():
    K = cuntz_kernel()
    g1 = assemble_gram(K, 2)
    g2 = assemble_gram(K, 2)
    assert np.allclose(g1.gram, g1.gram.conj().T)
    assert np.array_equal(g1.gram, g2.gram)
    assert [i.label for i in g1.catalog] == [i.label for i in g2.catalog]


def test_positivity_transfer_forward():
    """Completely positive inputs produce positive Gram operators across
    all three semigroup families."""
    rng = np.random.default_rng(31)

    # half-line, scalar diagonal
    for seed in range(3):
        t = random_contraction(np.random.default_rng(seed), 2, scale=0.9)
        sys_ = LcmSystem(FA1, ToeplitzModel(FA1), C)
        T = ContractionFamily(FA1, [t])
        ext = extend_phi_T(sys_, T, 3)
        assert ext.accepted
        g = assemble_gram(KernelSystem(sys_, ext.map, T), 3)
        w = np.linalg.eigvalsh(g.gram)
        assert w[0] >= -1e-8 * max(1, w[-1])

    # quarter-plane
    sys2 = LcmSystem(FA2, ToeplitzModel(FA2), C)
    accepted = 0
    for seed in range(6):
        T = ContractionFamily(
            FA2, commuting_contraction_pair(np.random.default_rng(seed))
        )
        ext = extend_phi_T(sys2, T, 2)
        if not ext.accepted:
            continue
        accepted += 1
        g = assemble_gram(KernelSystem(sys2, ext.map, T), 2)
        w = np.linalg.eigvalsh(g.gram)
        assert w[0] >= -1e-8 * max(1, w[-1])
    assert accepted >= 1

    # free monoid boundary with matrix coefficients
    sysb = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    for seed in range(2):
        rng = np.random.default_rng(100 + seed)
        T = ContractionFamily(FM2, random_coisometry_pair(rng, 2))
        phi = build_phi_tilde(sysb, state_map(M2, random_state(rng, 2), 2), T, 2)
        g = assemble_gram(KernelSystem(sysb, phi, T), 2)
        w = np.linalg.eigvalsh(g.gram)
        assert w[0] >= -1e-8 * max(1, w[-1])


def test_positivity_transfer_converse():
    """Failures of complete positivity surface as genuinely negative Gram
    eigenvalues (the refusal direction)."""
    rng = np.random.default_rng(32)
    # transpose over the fixed matrix algebra
    for phi in (transpose_map(M2),):
        g = assemble_gram(matrix_kernel(phi), 1)
        w = np.linalg.eigvalsh(g.gram)
        assert w[0] <= -1e-3 * np.abs(w).max()

    # non-positive functional over the boundary model: unital, *-preserving,
    # stage-consistent, but the state matrix is not PSD
    r = np.array([[1.0, 0.75], [0.75, 0.0]], dtype=complex)
    phi0 = BaseOperatorMap(M2, [np.trace(r @ u) * np.eye(2) for u in M2.basis()])
    sysb = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    T = ContractionFamily(FM2, [E11, E21])
    phi = build_phi_tilde(sysb, phi0, T, 2)
    g = assemble_gram(KernelSystem(sysb, phi, T), 2)
    w = np.linalg.eigvalsh(g.gram)
    assert w[0] <= -1e-3 * np.abs(w).max()

    # rejected quarter-plane extension: the Gram inherits the violation
    sys2 = LcmSystem(FA2, ToeplitzModel(FA2), C)
    n1 = np.array([[0, 0.9], [0, 0]], dtype=complex)
    n2 = np.array([[0, 0.9j], [0, 0]], dtype=complex)
    T2 = ContractionFamily(FA2, [n1, n2])
    ext = extend_phi_T(sys2, T2, 2)
    assert not ext.accepted
    g = assemble_gram(KernelSystem(sys2, ext.map, T2), 2)
    w = np.linalg.eigvalsh(g.gram)
    assert w[0] <= -1e-3 * np.abs(w).max()
