"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run).  Tolerances are fixed here and must not be
loosened: PSD verdicts at -1e-8 relative, identity residuals at 1e-8,
isometry on the first interior at 1e-10, partitions of unity at 1e-12,
negative controls must be refused with margin -1e-3 relative.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    check_kernel_properties,
    commuting_contraction_pair,
    compress_v,
    ewf_projection,
    generator_isometries,
    pi_of_matrix,
    random_coisometry_pair,
    random_contraction,
    random_state,
    random_unitary,
    uniqueness_probe,
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
    is_completely_positive,
    nica_defect,
    state_map,
    transpose_map,
)
from lcm_dilate.dilation import covariant_dilate, naimark_dilate
from lcm_dilate.errors import GramNotPositiveError
from lcm_dilate.kernel import KernelSystem, assemble_gram
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))
FA1, FA2, FM2 = FreeAbelian(1), FreeAbelian(2), FreeMonoid(2)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def announce(num: int, name: str, detail: str = ""):
    print(f"[criterion {num}] PASS  {name}" + (f"  ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# 1. single-contraction reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_single_contraction_reproduction():
    degree = 5
    sys_ = LcmSystem(FA1, ToeplitzModel(FA1), C)
    worst_comp = worst_iso = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = random_contraction(rng, 2, scale=0.95)
        T = ContractionFamily(FA1, [t])
        ext = extend_phi_T(sys_, T, degree)
        assert is_completely_positive(ext).is_cp
        res = covariant_dilate(sys_, ext, T, degree)
        for n in range(degree + 1):
            resid = np.linalg.norm(
                compress_v(res, (n,)) - np.linalg.matrix_power(t, n), 2
            )
            worst_comp = max(worst_comp, resid)
        iso = next(c for c in res.report.checks if c.name == "isometry.V[1]")
        worst_iso = max(worst_iso, iso.value)
    assert worst_comp <= 1e-8, worst_comp
    assert worst_iso <= 1e-10, worst_iso
    announce(1, "compressions reproduce all powers of 20 seeded contractions",
             f"max residual {worst_comp:.2e}, isometry defect {worst_iso:.2e}")


# ---------------------------------------------------------------------------
# 2. forward direction: completely positive inputs dilate
# ---------------------------------------------------------------------------


def _criterion2_pairs():
    sysb = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        T = ContractionFamily(FM2, random_coisometry_pair(rng, 2))
        phi = build_phi_tilde(sysb, state_map(M2, random_state(rng, 2), 2), T, 3)
        yield sysb, phi, T
    tr = BaseOperatorMap(M2, [np.trace(u) / 2 * np.eye(2) for u in M2.basis()])
    for seed in (2, 3):
        rng = np.random.default_rng(seed)
        betas = [random_unitary(rng, 2), random_unitary(rng, 2)]
        sysb2 = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2, betas=betas)
        T = ContractionFamily(FM2, random_coisometry_pair(rng, 2))
        phi = build_phi_tilde(sysb2, tr, T, 3)
        yield sysb2, phi, T


def test_criterion_2_cp_pairs_dilate():
    worst_gram = 0.0
    worst_resid = 0.0
    n_pairs = 0
    for sysb, phi, T in _criterion2_pairs():
        n_pairs += 1
        assert is_completely_positive(phi).is_cp
        res = covariant_dilate(sysb, phi, T, 3)
        scale = max(1.0, float(np.abs(res.eigenvalues).max()))
        assert res.eigenvalues[0] >= -1e-8 * scale
        worst_gram = min(worst_gram, res.eigenvalues[0] / scale)
        for c in res.report.checks:
            if c.name.startswith(("covariance.", "compression.")) or \
                    c.name == "dilation.reproduces_kernel":
                assert c.value <= 1e-8, (c.name, c.value)
                worst_resid = max(worst_resid, c.value)
    announce(2, f"{n_pairs} seeded completely positive pairs dilate at depth 3",
             f"Gram min {worst_gram:.2e} rel, worst residual {worst_resid:.2e}")


# ---------------------------------------------------------------------------
# 3. converse: non-CP inputs are refused
# ---------------------------------------------------------------------------


def test_criterion_3_non_cp_inputs_refused():
    rng = np.random.default_rng(42)
    u = random_unitary(rng, 2)
    fixtures = [
        transpose_map(M2),
        BaseOperatorMap(M2, [u @ v.T @ u.conj().T for v in M2.basis()]),
    ]
    sys_ = LcmSystem(FA1, PointModel(1), M2,
                     alphas=[GeneratorMap(unitary=np.eye(2))])
    T = ContractionFamily(FA1, [np.eye(2)])
    worst_choi = 0.0
    worst_rel = 0.0
    for phi in fixtures:
        phi = build_phi_tilde(sys_, phi, T, 0)
        cp = is_completely_positive(phi)
        assert not cp.is_cp and cp.min_eigenvalue <= -0.1
        worst_choi = min(worst_choi, cp.min_eigenvalue)
        K = KernelSystem(sys_, phi, T)
        for degree in (1, 2):
            g = assemble_gram(K, degree)
            w = np.linalg.eigvalsh(g.gram)
            rel = w[0] / np.abs(w).max()
            assert rel <= -1e-3, rel
            worst_rel = min(worst_rel, rel)
        with pytest.raises(GramNotPositiveError):
            naimark_dilate(K, 2)
    announce(3, "transpose-based fixtures refused with negative witness",
             f"Choi min {worst_choi:.2f}, Gram min {worst_rel:.3f} rel")


# ---------------------------------------------------------------------------
# 4. three-way equivalence on the quarter-plane
# ---------------------------------------------------------------------------


def _exhaustive_defect_verdict(T: ContractionFamily, pool, tol=1e-8):
    """Independent oracle: inclusion-exclusion over every nonempty subset of
    the pool, with the range projections cached on the lcm-closed grid."""
    grid = T.semigroup.enumerate_up_to(2)
    proj = {p: T(p) @ T(p).conj().T for p in grid}
    worst, scale = 0.0, 1.0
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            acc = np.eye(T.h, dtype=complex)
            for k in range(1, size + 1):
                for sub in itertools.combinations(combo, k):
                    r = tuple(max(xs) for xs in zip(*sub))
                    acc = acc + (-1) ** k * proj[r]
            w = np.linalg.eigvalsh(acc)
            scale = max(scale, float(np.abs(w).max()))
            worst = min(worst, float(w[0]))
    return worst >= -tol * scale, worst


def test_criterion_4_defect_extension_gram_equivalence():
    sys2 = LcmSystem(FA2, ToeplitzModel(FA2), C)
    pool = [p for p in FA2.enumerate_up_to(2) if max(p) >= 1]

    def seeded_family():
        # two engineered endpoints guarantee both verdicts appear
        yield [np.array([[0, 0.9], [0, 0]], dtype=complex),
               np.array([[0, 0.9j], [0, 0]], dtype=complex)]
        yield [np.diag(np.exp(1j * np.array([0.3, 1.1]))),
               np.diag(np.exp(1j * np.array([-0.7, 0.4])))]
        for seed in range(48):
            yield commuting_contraction_pair(np.random.default_rng(seed))

    verdicts = []
    for mats in seeded_family():
        T = ContractionFamily(FA2, mats)
        v_defect, _ = _exhaustive_defect_verdict(T, pool)
        ext = extend_phi_T(sys2, T, 2)
        K = KernelSystem(sys2, ext, T, validate=False)
        g = assemble_gram(K, 2)
        w = np.linalg.eigvalsh(g.gram)
        v_gram = w[0] >= -1e-8 * max(1.0, float(np.abs(w).max()))
        assert v_defect == is_completely_positive(ext).is_cp == v_gram, (
            mats, v_defect, is_completely_positive(ext).is_cp, v_gram
        )
        verdicts.append(v_defect)
    # cross-check the oracle against the library defect on one instance
    T = ContractionFamily(FA2, [np.array([[0.5]]), np.array([[0.5]])])
    _, worst = _exhaustive_defect_verdict(T, pool)
    lib_worst = min(
        float(np.linalg.eigvalsh(nica_defect(T, combo))[0])
        for size in (1, 2)
        for combo in itertools.combinations(pool, size)
    )
    assert worst <= lib_worst + 1e-12
    n_acc = sum(verdicts)
    assert 0 < n_acc < len(verdicts)
    announce(4, "defect / extension / Gram verdicts agree on 50 seeds",
             f"{n_acc} accepted, {len(verdicts) - n_acc} rejected")


# ---------------------------------------------------------------------------
# 5. boundary relations for the matrix-unit family
# ---------------------------------------------------------------------------


def test_criterion_5_cuntz_relations():
    sysb = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    T = ContractionFamily(FM2, [E11, E21])
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    phi = build_phi_tilde(sysb, state_map(M2, rho, 2), T, 3)
    res = covariant_dilate(sysb, phi, T, 3)
    assert res.passed
    v1, v2 = generator_isometries(res)
    q1 = res.interior_basis(1)
    cuntz = np.linalg.norm(
        (v1 @ v1.conj().T + v2 @ v2.conj().T - np.eye(res.rank)) @ q1, 2
    )
    assert cuntz <= 1e-8, cuntz
    worst = 0.0
    for a in M2.basis():
        pa = pi_of_matrix(res, a)
        rhs = v1 @ pa @ v1.conj().T + v2 @ pa @ v2.conj().T
        worst = max(worst, np.linalg.norm((pa - rhs) @ q1, 2))
    assert worst <= 1e-8, worst
    announce(5, "matrix-unit family dilates to a full boundary representation",
             f"range sum defect {cuntz:.2e}, reconstruction {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. partitions of unity
# ---------------------------------------------------------------------------


def test_criterion_6_partition_of_unity():
    cases = [
        (LcmSystem(FA2, ToeplitzModel(FA2), C),
         [p for p in FA2.enumerate_up_to(2) if max(p) >= 1]),
        (LcmSystem(FM2, ToeplitzModel(FM2), C),
         [p for p in FM2.enumerate_up_to(2) if len(p) >= 1]),
    ]
    n_families = 0
    worst_sum = worst_cross = 0.0
    for sys_, pool in cases:
        for size in range(1, 5):
            for F in itertools.combinations(pool, size):
                n_families += 1
                projs = []
                total = None
                for k in range(len(F) + 1):
                    for W in itertools.combinations(F, k):
                        e = ewf_projection(sys_, W, F)
                        projs.append(e)
                        total = e if total is None else total + e
                gap = (total - sys_.unit(total.depth)).norm()
                worst_sum = max(worst_sum, gap)
                assert gap <= 1e-12, (F, gap)
                for a, b in itertools.combinations(projs, 2):
                    cross = (a * b).norm()
                    worst_cross = max(worst_cross, cross)
                    assert cross <= 1e-12, (F, cross)
    announce(6, f"partition of unity over {n_families} families in both models",
             f"sum defect {worst_sum:.1e}, cross terms {worst_cross:.1e}")


# ---------------------------------------------------------------------------
# 7. kernel property suite on the bundled instances
# ---------------------------------------------------------------------------


def _bundled_kernels(fixtures_dir):
    from lcm_dilate.cli import build_pair, parse_instance

    for name in ("sznagy_half.json", "cuntz_m2.json", "commuting_unitaries.json",
                 "transpose_m2.json", "nica_nilpotent.json"):
        inst = parse_instance(str(fixtures_dir / name))
        sys_, phi, T = build_pair(inst)
        positive = is_completely_positive(phi).is_cp
        yield name, KernelSystem(sys_, phi, T, validate=False), positive


def test_criterion_7_kernel_property_suite(fixtures_dir):
    structural = ("kernel.unital", "kernel.hermitian", "kernel.linear",
                  "kernel.toeplitz")
    n_checked = 0
    for name, K, positive in _bundled_kernels(fixtures_dir):
        report = check_kernel_properties(K, depth=2)
        records = {c.name: c for c in report.checks}
        for cname in structural:
            assert records[cname].passed, (name, cname, records[cname].value)
        # the norm bound presupposes a positive kernel; it must hold on
        # every instance whose Gram is positive
        if positive:
            assert records["kernel.norm_bound"].passed, name
            assert records["kernel.bounded"].passed, name
        _assert_pullout(K)
        n_checked += 1

    # a corrupted kernel must fail the Hermitian check with a witness
    inst_sys = next(_bundled_kernels(fixtures_dir))[1]

    class Corrupted:
        sys = inst_sys.sys
        T = inst_sys.T
        h = inst_sys.h

        def evaluate(self, p, a, q, **kw):
            val = inst_sys.evaluate(p, a, q, **kw)
            if tuple(p) < tuple(q):
                val = val + 0.03 * np.eye(self.h)
            return val

    report = check_kernel_properties(Corrupted(), depth=2)
    failed = {c.name: c for c in report.checks if not c.passed}
    assert "kernel.hermitian" in failed and failed["kernel.hermitian"].detail
    announce(7, f"kernel property suite on {n_checked} bundled instances",
             "corrupted fixture fails Hermitian with witness "
             + failed["kernel.hermitian"].detail)


def _assert_pullout(K, tol=1e-8):
    sg = K.sys.semigroup
    p, q = sg.generators[0], sg.identity
    r = sg.generators[-1]
    depth = K.sys.model.normalize_depth(
        0 if isinstance(K.sys.model, PointModel) else 2
    )
    corner = K.sys.corner_basis(p, r, depth)
    tq = K.T(sg.left_divide(q, r)).conj().T
    for a in corner.elements[:4]:
        lhs = K.evaluate(p, a, q)
        rhs = K.evaluate(p, a, r) @ tq
        assert np.linalg.norm(lhs - rhs, 2) <= tol


# ---------------------------------------------------------------------------
# 8. uniqueness probes
# ---------------------------------------------------------------------------


def test_criterion_8_uniqueness_up_to_unitary_equivalence():
    seeds = [11, 22, 33, 44, 55]

    sys1 = LcmSystem(FA1, ToeplitzModel(FA1), C)
    T1 = ContractionFamily(FA1, [np.array([[0.5]], dtype=complex)])
    ext = extend_phi_T(sys1, T1, 4)
    K1 = KernelSystem(sys1, ext, T1)

    sysb = LcmSystem(FM2, ToeplitzModel(FM2, boundary=True), M2)
    T2 = ContractionFamily(FM2, [E11, E21])
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    K2 = KernelSystem(sysb, build_phi_tilde(sysb, state_map(M2, rho, 2), T2, 3), T2)

    details = []
    for label, K, degree in (("half-line", K1, 4), ("boundary", K2, 3)):
        rep = uniqueness_probe(K, degree, seeds=seeds)
        records = {c.name: c for c in rep.checks}
        assert records["uniqueness.dimension"].passed, label
        assert records["uniqueness.spanning_gram"].passed, (
            label, records["uniqueness.spanning_gram"].value
        )
        assert records["uniqueness.spanning_gram"].value <= 1e-8
        details.append(
            f"{label} dev {records['uniqueness.spanning_gram'].value:.2e}"
        )
    announce(8, "permuted reconstructions agree over 5 seeds", "; ".join(details))
