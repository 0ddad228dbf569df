import numpy as np
import pytest

from conftest import (
    _permuted_assembly,
    load_perfbench,
    random_coisometry_pair,
    random_contraction,
    random_unitary,
    uniqueness_probe,
)
from lcm_dilate.algebras import (
    BaseAlgebra,
    PointModel,
    ToeplitzModel,
    operator_norm,
)
from lcm_dilate.cli import build_pair, parse_instance
from lcm_dilate.cpmaps import (
    BaseOperatorMap,
    ContractionFamily,
    build_phi_tilde,
    extend_phi_T,
    nica_defect,
    state_map,
    transpose_map,
)
from lcm_dilate.dilation import (
    Tolerances,
    _adjoint_formula_residual,
    _check_word_product,
    covariant_dilate,
    identity_suite,
    naimark_dilate,
)
from lcm_dilate.errors import GramNotPositiveError, SpecMismatchError
from lcm_dilate.kernel import GramAssembly, GramBlock, KernelSystem, assemble_gram
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem, ValidationReport

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))
FA1, FA2, FM2 = FreeAbelian(1), FreeAbelian(2), FreeMonoid(2)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def halfline_dilation(t_mat, degree):
    sys_ = LcmSystem(FA1, ToeplitzModel(FA1), C)
    T = ContractionFamily(FA1, [t_mat])
    ext = extend_phi_T(sys_, T, degree)
    assert ext.accepted
    return covariant_dilate(sys_, ext.map, T, degree)


def cuntz_dilation(degree=3, rho=None):
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    T = ContractionFamily(FM2, [E11, E21])
    rho = np.array([[1, 0], [0, 0]], dtype=complex) if rho is None else rho
    phi = build_phi_tilde(sys_, state_map(M2, rho, 2), T, degree)
    return covariant_dilate(sys_, phi, T, degree)


def check_boundary_relation(result, F, tol: float = 1e-8) -> ValidationReport:
    """Evaluate the boundary defect prod_{f in F} (I - V_f V_f*) on the
    interior with matching headroom.

    F must be a foundation set.  The hypothesis that the input family has a
    vanishing defect over F is verified first; when it fails, that is
    reported (not raised) and the product is still evaluated for reference.
    """
    sg = result.sys.semigroup
    fs = sorted({tuple(f) for f in F}, key=lambda e: (sg.length(e), e))
    if not sg.is_foundation_set(fs):
        raise SpecMismatchError(f"{fs} is not a foundation set")
    report = ValidationReport()

    defect = nica_defect(result.T, fs)
    dnorm = operator_norm(defect)
    report.add("boundary.premise", dnorm <= tol, dnorm, tol,
               detail="input defect over F")

    level = sum(sg.length(f) for f in fs)
    if level > result.degree:
        report.add(
            "boundary.relation", False, None, tol,
            detail=f"needs headroom {level} > degree {result.degree}",
        )
        return report
    prod = np.eye(result.rank, dtype=np.complex128)
    for f in fs:
        vf = result.v_word(f)
        prod = prod @ (np.eye(result.rank) - vf @ vf.conj().T)
    qb = result.interior_basis(level)
    resid = operator_norm(prod @ qb)
    report.add("boundary.relation", resid <= tol and dnorm <= tol, resid, tol)
    return report


# ---------------------------------------------------------------------------
# the independent one-variable oracle
# ---------------------------------------------------------------------------


def schaffer_truncated(t: np.ndarray, degree: int) -> np.ndarray:
    """Explicit isometric dilation of a single contraction, truncated: the
    space is h (+) h*degree, the first slot feeds the defect chain, and the
    last slot is dropped (so powers up to ``degree`` are exact)."""
    h = t.shape[0]
    dt = np.eye(h) - t.conj().T @ t
    w, u = np.linalg.eigh((dt + dt.conj().T) / 2)
    defect = u @ np.diag(np.sqrt(np.clip(w, 0, None))) @ u.conj().T
    n = h * (degree + 1)
    v = np.zeros((n, n), dtype=complex)
    v[:h, :h] = t
    v[h:2 * h, :h] = defect
    for k in range(1, degree):
        v[(k + 1) * h:(k + 2) * h, k * h:(k + 1) * h] = np.eye(h)
    return v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_schaffer_oracle(seed):
    rng = np.random.default_rng(seed)
    t = random_contraction(rng, 2, scale=0.9)
    degree = 4
    res = halfline_dilation(t, degree)
    v = schaffer_truncated(t, degree)
    h = 2

    # compressions agree with powers
    for n in range(degree + 1):
        ours = res.compress_v((n,))
        oracle = np.linalg.matrix_power(v, n)[:h, :h]
        assert np.linalg.norm(ours - oracle, 2) <= 1e-10
        assert np.linalg.norm(ours - np.linalg.matrix_power(t, n), 2) <= 1e-10

    # the Gram of the spanning family matches the oracle's
    emb = np.zeros((v.shape[0], h)); emb[:h, :h] = np.eye(h)
    for n in range(degree + 1):
        for m in range(degree + 1):
            ours_block = (
                (res.v_word((n,)) @ res.embedding).conj().T
                @ (res.v_word((m,)) @ res.embedding)
            )
            oracle_block = (
                (np.linalg.matrix_power(v, n) @ emb).conj().T
                @ (np.linalg.matrix_power(v, m) @ emb)
            )
            assert np.linalg.norm(ours_block - oracle_block, 2) <= 1e-8, (n, m)


def test_unitary_inputs_are_fixed_points():
    res = halfline_dilation(np.array([[1.0]], dtype=complex), 3)
    assert res.rank == 1 and res.passed

    u = random_unitary(np.random.default_rng(3), 2)
    res = halfline_dilation(u, 3)
    assert res.rank == 2
    for n in range(4):
        assert np.linalg.norm(
            res.compress_v((n,)) - np.linalg.matrix_power(u, n), 2
        ) <= 1e-10

    # commuting unitaries over the quarter-plane: residuals vanish and the
    # dilation space is the original space
    u1 = np.diag(np.exp(1j * np.array([0.3, 1.1])))
    u2 = np.diag(np.exp(1j * np.array([-0.7, 0.4])))
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    T = ContractionFamily(FA2, [u1, u2])
    ext = extend_phi_T(sys_, T, 2)
    res = covariant_dilate(sys_, ext.map, T, 2)
    assert res.rank == 2 and res.passed
    for p in FA2.enumerate_up_to(2):
        assert np.linalg.norm(res.compress_v(p) - T(p), 2) <= 1e-10


def test_refusal_carries_negative_eigenvalue_witness():
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [np.eye(2)])
    K = KernelSystem(sys_, build_phi_tilde(sys_, transpose_map(M2), T, 0), T)
    with pytest.raises(GramNotPositiveError) as exc:
        naimark_dilate(K, 2)
    assert exc.value.min_eigenvalue < -0.5
    assert exc.value.witness is not None
    g = assemble_gram(K, 2)
    x = exc.value.witness
    rayleigh = (x.conj() @ g.gram @ x).real
    assert abs(rayleigh - exc.value.min_eigenvalue) <= 1e-8
    # the witness lives on one (atom, row) group, named with its labels
    block = next(b for b in g.blocks if b.key == exc.value.group)
    assert exc.value.labels == [g.catalog[r].label for r in block.rows]
    outside = np.ones(g.size, dtype=bool)
    outside[g.expanded_rows(block.rows)] = False
    assert np.all(x[outside] == 0)


@pytest.mark.parametrize("where", [(1, 1), (0, 1)], ids=["diagonal", "pair"])
def test_nan_gram_is_refused_before_eigh(where):
    # eigh returns NaN eigenvalues on such a Gram, and for a NaN off-diagonal
    # pair LAPACK may instead fail to converge with an untyped LinAlgError
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [np.eye(2)])
    phi = build_phi_tilde(sys_, BaseOperatorMap(M2, M2.basis()), T, 0)
    K = KernelSystem(sys_, phi, T)
    good = assemble_gram(K, 1)
    blocks = [GramBlock(b.key, b.rows, np.eye(len(b.matrix), dtype=complex))
              for b in good.blocks]
    # the first block holds the first catalog rows, so its local entry
    # (i, j) is the entry (i, j) of the whole Gram operator
    assert good.blocks[0].rows[0] == 0 and len(good.blocks[0].rows) >= 2
    blocks[0].matrix[where] = blocks[0].matrix[where[::-1]] = np.nan
    bad = GramAssembly(K, 1, good.catalog, blocks, 0.0)
    with pytest.raises(
        SpecMismatchError,
        match=rf"the {good.size}-row Gram operator has a non-finite entry "
              rf"at \({where[0]}, {where[1]}\)",
    ):
        naimark_dilate(K, 1, assembly=bad)


def test_hermitian_assembly_measures_the_factored_blocks():
    # eigh reads one triangle, so 0.5 added above the diagonal of a block
    # leaves the factorization unchanged; the assembler's own measurement
    # (0 here) cannot see a block edited after assembly
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [np.eye(2)])
    phi = build_phi_tilde(sys_, BaseOperatorMap(M2, M2.basis()), T, 0)
    K = KernelSystem(sys_, phi, T)
    good = assemble_gram(K, 1)
    blocks = [GramBlock(b.key, b.rows, b.matrix.copy()) for b in good.blocks]
    blocks[0].matrix[0, 1] += 0.5
    bad = GramAssembly(K, 1, good.catalog, blocks, good.hermiticity_defect)
    checks = {c.name: c for c in naimark_dilate(K, 1, assembly=bad).report.checks}
    assert checks["gram.psd"].passed
    assert not checks["gram.hermitian_assembly"].passed
    assert checks["gram.hermitian_assembly"].value == 0.5
    assert naimark_dilate(K, 1, assembly=good).report.passed


def test_abelian_rank2_depth4_rank_invariant():
    # diagonal commuting pair with h = 2: each eigenline is a scalar pair of
    # rank (d+1)^2, so the dilation has rank 2(d+1)^2 = 50 on a Gram of 450
    t1 = np.diag([0.5, -0.3 + 0.2j])
    t2 = np.diag([0.6j, 0.4])
    sys_ = LcmSystem(FA2, ToeplitzModel(FA2), C)
    T = ContractionFamily(FA2, [t1, t2])
    ext = extend_phi_T(sys_, T, 4)
    assert ext.accepted
    res = covariant_dilate(sys_, ext.map, T, 4)
    assert res.passed, [c.name for c in res.report.checks if not c.passed]
    assert res.assembly.size == 450
    assert res.rank == 2 * (4 + 1) ** 2 == 50


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_free_rank2_scalar_pair_rank_invariant(depth):
    # pi(A)V(P)H spans the dilation.  Over C at h = 1, pi(E_w)V(q)1 is V(q)1
    # when w is a prefix of q, V(w)T(u)*1 when w = qu, and 0 when w and q
    # have no common multiple; so the span is that of the V(w)1, one per
    # word w of length <= d: 1 + 2 + ... + 2^d = 2^(d+1) - 1 of them, and
    # the rank says no combination of them vanishes
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2), C)
    T = ContractionFamily(FM2, [np.array([[0.5]]), np.array([[0.5]])])
    ext = extend_phi_T(sys_, T, depth)
    assert ext.accepted
    res = covariant_dilate(sys_, ext.map, T, depth)
    assert res.passed, [c.name for c in res.report.checks if not c.passed]
    assert res.rank == 2 ** (depth + 1) - 1


@pytest.mark.parametrize("workload, depth, rank", [
    ("abelian_gram", 3, 2 * (3 + 1) ** 2),
    ("abelian_gram", 5, 2 * (5 + 1) ** 2),
    ("matrix_dense", 4, 4 * 10),
    ("free_boundary", 3, 64),
])
def test_rank_invariants_on_the_block_factor(workload, depth, rank, tmp_path):
    workloads = load_perfbench("workloads")
    if workload == "abelian_gram":
        inst = workloads.gen_abelian_gram(np.random.default_rng(1), str(tmp_path),
                                          1, depth=depth)[0]
    else:
        inst = workloads.generate(workload, 1, str(tmp_path), 1)[0]
    instance = parse_instance(inst.path)
    assert instance.degree == depth
    sys_, phi, T, _ = build_pair(instance)
    res = covariant_dilate(sys_, phi, T, depth)
    assert res.passed, [c.name for c in res.report.checks if not c.passed]
    assert res.rank == rank
    # the dilation space is the direct sum of the blocks' factor ranges
    assert [f.span.start for f in res.factors] == list(
        np.cumsum([0] + [f.factor.shape[0] for f in res.factors[:-1]]))


def test_permuted_assembly_matches_dense_selection_product():
    res = cuntz_dilation(2)
    base = res.assembly
    n, h = len(base.catalog), base.h
    for seed in (0, 1):
        permuted = _permuted_assembly(base, seed)
        perm = np.random.default_rng(seed).permutation(n)
        sel = np.zeros((n, n))
        sel[np.arange(n), perm] = 1.0
        lift = np.kron(sel, np.eye(h))
        assert np.array_equal(permuted.gram, lift @ base.gram @ lift.T)
        assert [i.label for i in permuted.catalog] == [
            base.catalog[k].label for k in perm
        ]


def test_cuntz_dilation_identities():
    res = cuntz_dilation(3)
    assert res.passed
    v1, v2 = res.generator_isometries()
    eye = np.eye(res.rank)
    q1 = res.interior_basis(1)
    assert np.linalg.norm(
        (v1 @ v1.conj().T + v2 @ v2.conj().T - eye) @ q1, 2
    ) <= 1e-8
    for a in M2.basis():
        pa = res.pi_of_matrix(a)
        rhs = v1 @ pa @ v1.conj().T + v2 @ pa @ v2.conj().T
        assert np.linalg.norm((pa - rhs) @ q1, 2) <= 1e-8
    rep = check_boundary_relation(res, [(1,), (2,)])
    assert rep.passed


def test_reconstruction_with_nontrivial_base_automorphisms():
    rng = np.random.default_rng(7)
    u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
    sys_ = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2, betas=[u1, u2])
    T = ContractionFamily(FM2, random_coisometry_pair(rng, 2))
    tr = BaseOperatorMap(M2, [np.trace(u) / 2 * np.eye(2) for u in M2.basis()])
    phi = build_phi_tilde(sys_, tr, T, 2)
    res = covariant_dilate(sys_, phi, T, 2)
    assert res.passed
    v = res.generator_isometries()
    q1 = res.interior_basis(1)
    for a in M2.basis():
        lhs = res.pi_of_matrix(a)
        rhs = sum(
            v[i] @ res.pi_of_matrix([u1, u2][i].conj().T @ a @ [u1, u2][i])
            @ v[i].conj().T
            for i in range(2)
        )
        assert np.linalg.norm((lhs - rhs) @ q1, 2) <= 1e-8


def test_boundary_premise_violation_is_reported_not_raised():
    res = halfline_dilation(np.array([[0.5]], dtype=complex), 3)
    rep = check_boundary_relation(res, [(1,)])
    names = {c.name: c for c in rep.checks}
    assert not names["boundary.premise"].passed
    assert abs(names["boundary.premise"].value - 0.75) <= 1e-12
    assert not rep.passed


def test_boundary_requires_foundation_set():
    res = cuntz_dilation(3)
    with pytest.raises(SpecMismatchError):
        check_boundary_relation(res, [(1,)])


def test_compressions_stable_under_deeper_truncation():
    t = random_contraction(np.random.default_rng(11), 2, scale=0.8)
    res3 = halfline_dilation(t, 3)
    res4 = halfline_dilation(t, 4)
    for n in range(4):
        assert np.linalg.norm(
            res3.compress_v((n,)) - res4.compress_v((n,)), 2
        ) <= 1e-9
    res_c2 = cuntz_dilation(2)
    res_c3 = cuntz_dilation(3)
    for p in FM2.enumerate_up_to(2):
        assert np.linalg.norm(
            res_c2.compress_v(p) - res_c3.compress_v(p), 2
        ) <= 1e-9


def test_interiors_are_nested_and_full_at_zero():
    res = cuntz_dilation(3)
    dims = [res.interior_basis(l).shape[1] for l in range(4)]
    assert dims[0] == res.rank
    assert all(dims[i] >= dims[i + 1] for i in range(3))


def test_uniqueness_probe_quick():
    res = halfline_dilation(np.array([[0.5]], dtype=complex), 3)
    K = KernelSystem(res.sys, res.phi, res.T)
    rep = uniqueness_probe(K, 3, seeds=[0, 1, 2])
    assert rep.passed, [(c.name, c.value) for c in rep.checks if not c.passed]


def test_tolerances_are_threaded_through():
    tight = Tolerances(identity=1e-12, rank=1e-12)
    res = halfline_dilation(np.array([[0.5]], dtype=complex), 2)
    # rebuild with explicit tolerances
    sys_ = res.sys
    T = res.T
    ext_map = res.phi
    res2 = covariant_dilate(sys_, ext_map, T, 2, tolerances=tight)
    assert res2.tolerances.identity == 1e-12
    for c in res2.report.checks:
        if c.threshold is not None and c.name.startswith("compression"):
            assert c.threshold == 1e-12


# ---------------------------------------------------------------------------
# witnesses and planted defects
# ---------------------------------------------------------------------------


def _details(report):
    return [(c.name, c.detail) for c in report.checks]


@pytest.mark.parametrize("make", [
    lambda: cuntz_dilation(3),
    lambda: halfline_dilation(np.array([[0.5, 0.2], [0.0, -0.4]], dtype=complex), 3),
], ids=["cuntz", "halfline"])
def test_witnesses_do_not_depend_on_the_catalog_order(make):
    # permuting the catalog only reorders floating-point sums, so every
    # residual moves in its last bits; the named witnesses must not move
    res = make()
    base = naimark_dilate(res.kernel, res.degree, assembly=res.assembly)
    want = _details(base.report) + _details(identity_suite(base))
    word = ValidationReport()
    _check_word_product(base, word)
    for seed in (0, 1, 2):
        other = naimark_dilate(res.kernel, res.degree,
                               assembly=_permuted_assembly(res.assembly, seed))
        assert _details(other.report) + _details(identity_suite(other)) == want
        moved = ValidationReport()
        _check_word_product(other, moved)
        assert _details(moved) == _details(word)


def test_word_product_fails_on_a_perturbed_composite_shift():
    res = cuntz_dilation(2)
    w = (2, 1)
    q2 = res.interior_basis(2)
    res._v_cache[w] = res.v_word(w) + 1e-6 * q2 @ q2.conj().T
    report = ValidationReport()
    _check_word_product(res, report)
    (check,) = report.checks
    assert check.name == "covariance.word_product" and not check.passed
    assert check.value >= 1e-6 * (1 - 1e-9) and check.detail == f"w={w}"


@pytest.mark.parametrize("make", [
    lambda: cuntz_dilation(2),
    lambda: halfline_dilation(np.array([[0.5]], dtype=complex), 3),
], ids=["cuntz", "halfline"])
def test_adjoint_formula_fails_when_the_contractions_are_scaled(make):
    res = make()
    tol = res.tolerances.identity
    assert max(r for r, _ in _adjoint_formula_residual(res)) <= tol
    res.T = ContractionFamily(res.sys.semigroup, [0.9 * m for m in res.T.mats])
    assert max(r for r, _ in _adjoint_formula_residual(res)) > 1e3 * tol
