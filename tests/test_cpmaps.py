import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    atom_values,
    box,
    commuting_contraction_pair,
    ewf_projection,
    from_matrix,
    on_point,
    phi_F,
    random_coisometry_pair,
    random_matrix,
    random_ucp_map,
    random_unitary,
)
from lcm_dilate.algebras import BaseAlgebra, ToeplitzModel
from lcm_dilate.cpmaps import (
    BaseOperatorMap,
    ContractionFamily,
    build_phi_tilde,
    diagonal_compression_map,
    extend_phi_T,
    is_completely_positive,
    nica_defect,
    state_map,
    transpose_map,
)
from lcm_dilate.errors import CovarianceError, ResourceCapError, SpecMismatchError
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))
M3 = BaseAlgebra((3,))
FA1, FA2, FM2 = FreeAbelian(1), FreeAbelian(2), FreeMonoid(2)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# complete positivity
# ---------------------------------------------------------------------------


def test_cp_examples():
    assert is_completely_positive(on_point(diagonal_compression_map(M3))).is_cp
    assert is_completely_positive(on_point(BaseOperatorMap(M2, M2.basis()))).is_cp
    rep = is_completely_positive(on_point(transpose_map(M2)))
    assert not rep.is_cp
    # the Choi matrix of the transpose is the swap, with eigenvalue -1
    assert rep.min_eigenvalue <= -0.999
    assert rep.cases == [(rep.min_eigenvalue, "block0")]
    assert rep.violations == [(0, rep.min_eigenvalue)]


def test_cp_blockwise_domain():
    alg = BaseAlgebra((2, 1))
    values = [u.conj().T.T for u in alg.basis()]  # identity representation
    assert is_completely_positive(on_point(BaseOperatorMap(alg, values))).is_cp
    # transpose on the 2-block only: the violation names that block alone
    values = [u.T for u in alg.basis()]
    rep = is_completely_positive(on_point(BaseOperatorMap(alg, values)))
    assert rep.violations == [(0, rep.min_eigenvalue)]
    assert [label for _, label in rep.cases] == ["block0", "block1"]


def _per_block_choi_test(phi, rtol):
    """(cases, scale, violations) of the Choi test one block at a time."""
    scale, cases = 1.0, []
    for label, choi in phi.choi_blocks():
        w, _ = np.linalg.eigh(choi / 2 + choi.conj().T / 2)
        scale = max(scale, float(np.abs(w).max()))
        cases.append((float(w[0]), label))
    violations = [(k, m) for k, (m, _) in enumerate(cases)
                  if not m >= -rtol * scale]
    return cases, scale, violations


def test_stacked_choi_test_is_the_per_block_loop_bit_for_bit():
    # base blocks (2, 1): Choi blocks of two shapes, interleaved atom by atom
    rng = np.random.default_rng(24)
    alg = BaseAlgebra((2, 1))
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), alg)
    T = ContractionFamily(FA2, commuting_contraction_pair(rng, h=3))
    maps = [on_point(random_ucp_map(rng, alg, 3)),
            build_phi_tilde(sys_, random_ucp_map(rng, alg, 3), T, 2),
            # not CP, with eigenvalues above one so the scale counts
            build_phi_tilde(sys_, BaseOperatorMap(alg, [7 * u.T for u in alg.basis()]),
                            T, 2)]
    for phi in maps:
        rep = is_completely_positive(phi, rtol=1e-8)
        cases, scale, violations = _per_block_choi_test(phi, 1e-8)
        assert (rep.cases, rep.scale, rep.violations) == (cases, scale, violations)
        assert rep.is_cp == (not violations)
    bad = is_completely_positive(maps[2], rtol=1e-8)
    assert bad.violations and bad.scale > 1


def test_cp_matches_bruteforce_positivity_oracle():
    """phi is CP iff (phi (x) id_2) keeps random PSD matrices PSD; the Choi
    verdict must agree with that oracle on CP and non-CP samples."""
    rng = np.random.default_rng(21)

    def oracle(phi, samples=40):
        d, h = phi.base.dim, phi.h
        basis = phi.base.basis()
        for _ in range(samples):
            m = random_matrix(rng, 2 * d)
            psd = m @ m.conj().T
            out = np.zeros((2 * h, 2 * h), dtype=complex)
            for bi in range(2):
                for bj in range(2):
                    block = psd[bi * d:(bi + 1) * d, bj * d:(bj + 1) * d]
                    out[bi * h:(bi + 1) * h, bj * h:(bj + 1) * h] = phi.value(block)
            if np.linalg.eigvalsh((out + out.conj().T) / 2)[0] < -1e-8:
                return False
        return True

    for seed in range(4):
        phi = random_ucp_map(np.random.default_rng(seed), M2, h=2)
        assert is_completely_positive(on_point(phi)).is_cp
        assert oracle(phi)
    bad = transpose_map(M2)
    assert not is_completely_positive(on_point(bad)).is_cp
    assert not oracle(bad)


def test_unital_selfadjoint_defects():
    phi = on_point(state_map(M2, np.diag([0.5, 0.5]).astype(complex), 3))
    assert phi.unital_defect() <= 1e-14
    assert phi.selfadjoint_defect() <= 1e-14


def test_operator_map_refuses_non_finite_values():
    values = M2.basis()
    values[2] = values[2] * np.nan
    with pytest.raises(SpecMismatchError,
                       match="value at basis #2 has a non-finite entry"):
        BaseOperatorMap(M2, values)


# ---------------------------------------------------------------------------
# contraction families
# ---------------------------------------------------------------------------


def test_contraction_family_guards():
    with pytest.raises(SpecMismatchError):
        ContractionFamily(FA1, [np.array([[1.5]])])
    up = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(SpecMismatchError):
        # non-commuting generators over the free abelian monoid
        ContractionFamily(FA2, [up, up.T])
    # the same pair indexes a free monoid family without complaint
    ContractionFamily(FM2, [up, up.T])
    # the lcm products of generators far above norm 1 overflow, and the
    # norm refusal reads first, with no overflow warning
    huge = 1e200 * np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(SpecMismatchError, match="generator norm .* exceeds 1"):
        ContractionFamily(FA2, [huge, huge.T])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_contraction_family_refuses_non_finite_generators(bad):
    # the norm of a NaN matrix is inf, which read as "norm inf exceeds 1"
    t2 = np.array([[0.5, bad], [0.0, 0.5]], dtype=complex)
    with pytest.raises(SpecMismatchError,
                       match="generator T2 has a non-finite entry"):
        ContractionFamily(FM2, [0.5 * np.eye(2), t2])


def test_contraction_family_is_homomorphism():
    rng = np.random.default_rng(22)
    t1 = 0.9 * random_unitary(rng, 2)
    T = ContractionFamily(FA2, [t1, 0.5 * t1 @ t1])
    for p, q in itertools.product(FA2.enumerate_up_to(2), repeat=2):
        assert np.allclose(T(FA2.multiply(p, q)), T(p) @ T(q))
    assert np.allclose(T(FA2.identity), np.eye(2))


def test_word_evaluation_is_cached_and_read_only():
    T = ContractionFamily(FM2, [E11, E21])
    t = T((1, 2))
    assert np.array_equal(t, E11 @ E21)
    assert T([1, 2]) is t
    with pytest.raises(ValueError):
        t[0, 0] = 1.0
    with pytest.raises(SpecMismatchError):
        T((3,))


# ---------------------------------------------------------------------------
# defect operators
# ---------------------------------------------------------------------------


def test_defect_examples():
    zero = ContractionFamily(FA1, [np.zeros((2, 2))])
    assert np.allclose(nica_defect(zero, [(1,)]), np.eye(2))

    half = 1 / np.sqrt(2)
    T = ContractionFamily(FA2, [np.array([[half]]), np.array([[half]])])
    d = nica_defect(T, [(1, 0), (0, 1)])
    assert abs(d[0, 0] - 0.25) < 1e-14

    Tm = ContractionFamily(FM2, [E11, E21])
    assert np.abs(nica_defect(Tm, [(1,), (2,)])).max() < 1e-14


def test_defect_permutation_invariant_and_hermitian():
    rng = np.random.default_rng(23)
    T = ContractionFamily(FA2, commuting_contraction_pair(rng))
    F = [(1, 0), (0, 1), (1, 1)]
    d1 = nica_defect(T, F)
    d2 = nica_defect(T, list(reversed(F)))
    assert np.allclose(d1, d2)
    assert np.allclose(d1, d1.conj().T)


def test_defect_vanishes_with_identity_adjoined():
    rng = np.random.default_rng(24)
    T = ContractionFamily(FA2, commuting_contraction_pair(rng))
    F = [(1, 0), (0, 1)]
    d = nica_defect(T, F + [FA2.identity])
    assert np.abs(d).max() <= 1e-12


def test_defects_are_order_invariant_and_read_only():
    rng = np.random.default_rng(25)
    T = ContractionFamily(FA2, commuting_contraction_pair(rng))
    F = [(1, 0), (0, 1), (1, 1)]
    d = nica_defect(T, F)
    # the coefficients are integers of the set, so neither the order of F
    # nor a repeated element moves a bit
    assert np.array_equal(nica_defect(T, list(reversed(F))), d)
    assert np.array_equal(nica_defect(T, F + F[:1]), d)
    with pytest.raises(ValueError):
        d[0, 0] = 1.0
    with pytest.raises(ValueError):
        T.range_operator((1, 0))[0, 0] = 1.0
    # a family that has evaluated words before gives a fresh one's bits
    fresh = ContractionFamily(FA2, T.mats)
    assert np.array_equal(nica_defect(T, F + [(2, 0)]),
                          nica_defect(fresh, F + [(2, 0)]))


def test_defect_subset_cap():
    T = ContractionFamily(FA1, [np.array([[0.5]])])
    with pytest.raises(ResourceCapError):
        nica_defect(T, [(k,) for k in range(1, 20)])


@given(
    ts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    mask=st.lists(st.booleans(), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_scalar_abelian_defects_are_never_negative(ts, mask):
    """For scalar commuting contractions the defect factors through the
    one-variable case coordinatewise and stays nonnegative; any subset of
    the depth-2 grid must therefore pass."""
    T = ContractionFamily(FA2, [np.array([[ts[0]]]), np.array([[ts[1]]])])
    pool = [p for p in FA2.enumerate_up_to(2) if max(p) >= 1]
    F = [p for p, keep in zip(pool, mask) if keep]
    if not F:
        return
    d = nica_defect(T, F)
    assert d[0, 0].real >= -1e-12
    assert abs(d[0, 0].imag) <= 1e-12


@given(perm=st.permutations(list(range(3))))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
def test_defect_invariant_under_input_order(perm):
    rng = np.random.default_rng(77)
    T = ContractionFamily(FA2, commuting_contraction_pair(rng))
    base = [(1, 0), (0, 1), (2, 1)]
    F = [base[i] for i in perm]
    assert np.allclose(nica_defect(T, F), nica_defect(T, base))


# ---------------------------------------------------------------------------
# partitions of unity
# ---------------------------------------------------------------------------


def test_ewf_trivial_cases():
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    one = ewf_projection(sys_, [], [])
    assert (one - sys_.unit()).norm() <= 1e-10
    with pytest.raises(SpecMismatchError):
        ewf_projection(sys_, [(1, 0)], [(0, 1)])


@pytest.mark.parametrize("make", [
    lambda: (LcmSystem(FA2, ToeplitzModel(FA2), C), [(1, 0), (0, 1), (1, 1)]),
    lambda: (LcmSystem(FM2, ToeplitzModel(FM2), C), [(1,), (2,), (1, 2)]),
])
def test_ewf_partition_of_unity(make):
    sys_, F = make()
    projs = []
    total = None
    for k in range(len(F) + 1):
        for W in itertools.combinations(F, k):
            e = ewf_projection(sys_, W, F)
            assert (e * e - e).norm() <= 1e-12
            assert (e.star() - e).norm() <= 1e-12
            projs.append(e)
            total = e if total is None else total + e
    assert (total - sys_.unit(total.depth)).norm() <= 1e-12
    for a, b in itertools.combinations(projs, 2):
        assert (a * b).norm() <= 1e-12


def test_ewf_annihilates_corner_of_excluded_elements():
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2), C)
    F = [(1,), (2,)]
    e = ewf_projection(sys_, [(1,)], F)   # keeps branch 1, kills branch 2
    a = sys_.apply_endo((2,), sys_.unit(1))
    assert (a * e).norm() <= 1e-12
    assert (e * a).norm() <= 1e-12


# ---------------------------------------------------------------------------
# the contraction extension on diagonal models
# ---------------------------------------------------------------------------


def test_extension_isometry_accepted_with_zero_defect():
    sys_ = LcmSystem(FA1, ToeplitzModel(FA1), C)
    u = random_unitary(np.random.default_rng(25), 2)
    ext = extend_phi_T(sys_, ContractionFamily(FA1, [u]), 3)
    assert is_completely_positive(ext).is_cp
    # point-mass values are the step defects, zero for an isometry
    assert np.abs(atom_values(ext)[(0,)]).max() <= 1e-12


def test_extension_row_coisometry_accepted():
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2), C)
    ext = extend_phi_T(sys_, ContractionFamily(FM2, [E11, E21]), 2)
    assert is_completely_positive(ext).is_cp
    assert np.abs(atom_values(ext)[()]).max() <= 1e-12


def test_extension_rejects_excess_row_norm():
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2), C)
    t = 0.9 * np.eye(2)
    ext = extend_phi_T(sys_, ContractionFamily(FM2, [t, t]), 2)
    cp = is_completely_positive(ext)
    assert not cp.is_cp
    atoms = [ext.atoms[k] for k, _ in cp.violations]
    assert () in atoms
    assert cp.min_eigenvalue < -0.5


def test_extension_rejects_nilpotent_commuting_pair():
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    n1 = np.array([[0, 0.9], [0, 0]], dtype=complex)
    n2 = np.array([[0, 0.9j], [0, 0]], dtype=complex)
    ext = extend_phi_T(sys_, ContractionFamily(FA2, [n1, n2]), 2)
    assert not is_completely_positive(ext).is_cp and ext is not None


def test_extension_verdict_is_the_choi_test_of_the_lift():
    # the extension's verdict is is_completely_positive of the lift, run
    # once per rtol and kept on the map, and rtol moves it; over C the
    # Choi block k is the atom k
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    s = np.sqrt((1 + 1e-6) / 2)
    n1 = np.array([[0, s], [0, 0]], dtype=complex)
    T = ContractionFamily(FA2, [n1, 1j * n1])
    ext = extend_phi_T(sys_, T, 2)
    for rtol, accepted in ((1e-8, False), (1e-4, True)):
        cp = is_completely_positive(ext, rtol=rtol)
        assert cp.is_cp == accepted
        assert is_completely_positive(ext, rtol=rtol) is cp
    cp = is_completely_positive(ext)
    assert [ext.atoms[k] for k, _ in cp.violations] == [(0, 0)]
    assert abs(cp.min_eigenvalue + 1e-6) <= 1e-12


def test_extension_requires_diagonal_model():
    sys_ = LcmSystem(FA1, ToeplitzModel(FA1), M2)
    with pytest.raises(SpecMismatchError):
        extend_phi_T(sys_, ContractionFamily(FA1, [0.5 * np.eye(2)]), 2)


def test_extension_agrees_with_defect_condition():
    """Acceptance of the extension at depth (2,2) coincides with positivity
    of every defect over subsets of the depth-2 grid, and with positivity of
    the extension on every partition projection (both directions, seeded
    instances)."""
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    pool = [p for p in FA2.enumerate_up_to(2) if max(p) >= 1]
    small = pool[:4]
    seen = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        T = ContractionFamily(FA2, commuting_contraction_pair(rng))
        ext = extend_phi_T(sys_, T, 2)
        cp = is_completely_positive(ext)
        worst = 0.0
        for size in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                w = np.linalg.eigvalsh(nica_defect(T, combo))
                worst = min(worst, float(w[0] / max(1.0, np.abs(w).max())))
        defects_ok = worst >= -1e-8
        assert defects_ok == cp.is_cp, (seed, worst, cp.min_eigenvalue)
        # partition-projection form over the full grid as one family
        worst_wf = 0.0
        for k in range(len(small) + 1):
            for W in itertools.combinations(small, k):
                val = ext.value(ewf_projection(sys_, W, small))
                w = np.linalg.eigvalsh((val + val.conj().T) / 2)
                worst_wf = min(worst_wf, float(w[0] / max(1.0, np.abs(w).max())))
        # the W-form over a subfamily is implied by acceptance; rejection of
        # the extension must be visible in the W-form over the full grid
        if cp.is_cp:
            assert worst_wf >= -1e-8, (seed, worst_wf)
        seen.add(cp.is_cp)
    assert seen == {True, False}, "seeded family must exercise both verdicts"

    # converse witness: for a rejected pair the extension is negative on the
    # complement projection of the generators
    n1 = np.array([[0, 0.9], [0, 0]], dtype=complex)
    n2 = np.array([[0, 0.9j], [0, 0]], dtype=complex)
    Tn = ContractionFamily(FA2, [n1, n2])
    extn = extend_phi_T(sys_, Tn, 2)
    assert not is_completely_positive(extn).is_cp
    gens = [(1, 0), (0, 1)]
    val = extn.value(ewf_projection(sys_, [], gens))
    assert np.linalg.eigvalsh((val + val.conj().T) / 2)[0] <= -0.5


# ---------------------------------------------------------------------------
# inclusion-exclusion compressions of a base map
# ---------------------------------------------------------------------------


def test_phi_F_empty_is_identity():
    phi = diagonal_compression_map(M2)
    out = phi_F(phi, [np.eye(2)] * 2, ContractionFamily(FM2, [E11, E21]), [])
    for a, b in zip(out.values, phi.values):
        assert np.allclose(a, b)


def test_phi_F_vanishing_families():
    # corner state with the matrix-unit family
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    out = phi_F(
        state_map(M2, rho, 2), [np.eye(2)] * 2,
        ContractionFamily(FM2, [E11, E21]), [(1,), (2,)],
    )
    assert max(np.abs(v).max() for v in out.values) <= 1e-14

    # diagonal compression with the diagonal matrix units
    Td = ContractionFamily(FM2, [np.diag([1.0, 0]).astype(complex),
                                 np.diag([0, 1.0]).astype(complex)])
    out = phi_F(diagonal_compression_map(M2), [np.eye(2)] * 2, Td, [(1,), (2,)])
    assert max(np.abs(v).max() for v in out.values) <= 1e-14

    # scalar row contraction with unit row norm
    t = np.sqrt([0.3, 0.7])
    Ts = ContractionFamily(FM2, [np.array([[t[0]]]), np.array([[t[1]]])])
    out = phi_F(BaseOperatorMap(C, C.basis()), [np.eye(1)] * 2, Ts, [(1,), (2,)])
    assert np.abs(out.values[0]).max() <= 1e-14


def test_phi_F_is_cp_checkable():
    rng = np.random.default_rng(26)
    phi = random_ucp_map(rng, M2, h=2)
    T = ContractionFamily(FM2, [0.5 * E11, 0.5 * E21])
    out = phi_F(phi, [np.eye(2)] * 2, T, [(1,), (2,)])
    rep = is_completely_positive(on_point(out))
    assert rep.min_eigenvalue is not None


# ---------------------------------------------------------------------------
# lifting a base map to the levelled algebra
# ---------------------------------------------------------------------------


def test_lift_values_on_cylinders():
    # the normalized trace is invariant under every unitary conjugation, so
    # it satisfies the stage-consistency premise for any coisometry family
    rng = np.random.default_rng(27)
    u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2, betas=[u1, u2])
    tr = BaseOperatorMap(M2, [np.trace(u) / 2 * np.eye(2) for u in M2.basis()])
    Tc = ContractionFamily(FM2, random_coisometry_pair(rng, 2))
    lifted = build_phi_tilde(sys_, tr, Tc, 2)
    assert lifted.unital_defect() <= 1e-10
    # pushing a forward along w and evaluating the lift is the covariance
    # compression T(w) phi(a) T(w)*
    for w in [(1,), (2,), (1, 2)]:
        a = random_matrix(rng, 2)
        elem = sys_.apply_endo(w, from_matrix(sys_, a))
        expected = Tc(w) @ tr.value(a) @ Tc(w).conj().T
        assert np.allclose(lifted.value(elem), expected, atol=1e-12)


def test_lift_rejects_inconsistent_boundary_pair():
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    with pytest.raises(CovarianceError):
        build_phi_tilde(sys_, BaseOperatorMap(M2, M2.basis()),
                        ContractionFamily(FM2, [E11, E21]), 2)


def test_lift_toeplitz_free_matches_extension():
    # with the trivial base map the lift reduces to the contraction extension
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2), C)
    T = ContractionFamily(FM2, [0.6 * np.eye(2), 0.4 * np.eye(2)])
    phi0 = BaseOperatorMap(C, [np.eye(2)])
    lifted = build_phi_tilde(sys_, phi0, T, 2)
    ext = extend_phi_T(sys_, T, 2)
    for atom in sys_.model.atoms(2):
        assert np.allclose(atom_values(lifted)[atom], atom_values(ext)[atom])


def test_lift_stage_consistency_under_refinement():
    rng = np.random.default_rng(28)
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    T = ContractionFamily(FA2, commuting_contraction_pair(rng))
    ext = extend_phi_T(sys_, T, 3)
    shallow = sys_.unit(box((1, 2)))
    assert np.allclose(ext.value(shallow), np.eye(2), atol=1e-12)
    e10 = sys_.unit_projection((1, 0))
    direct = T((1, 0)) @ T((1, 0)).conj().T
    assert np.allclose(ext.value(e10), direct, atol=1e-12)
