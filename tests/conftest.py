"""Shared fixtures and seeded generators for the test suite."""

import importlib.util
import itertools
import pathlib
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from lcm_dilate.algebras import (
    BaseAlgebra,
    CornerBasis,
    LevelledElement,
    PointModel,
    operator_norms,
)
from lcm_dilate.cpmaps import (
    MAX_SUBSET_SIZE,
    BaseOperatorMap,
    ContractionFamily,
    LevelledOperatorMap,
    _compressed,
    _signed_sums,
    build_phi_tilde,
    is_completely_positive,
)
from lcm_dilate.dilation import DilationResult, Tolerances, _pi_basis, naimark_dilate
from lcm_dilate.errors import ResourceCapError, SpecMismatchError
from lcm_dilate.kernel import GramAssembly, GramBlock, KernelSystem, assemble_gram
from lcm_dilate.semigroup import Element, FreeAbelian, lcm_levels
from lcm_dilate.systems import GeneratorMap, LcmSystem, ValidationReport

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH = FIXTURES.parent / "perfbench"

# hypothesis caches literals of the source under its home directory whatever
# a test's database setting is; the suite keeps that out of the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` (not a package, and ``trace`` would
    shadow the standard module) as ``perfbench_<name>``."""
    full = f"perfbench_{name}"
    if full not in sys.modules:
        spec = importlib.util.spec_from_file_location(full, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def encode_matrix(m) -> list:
    """A complex matrix as the [re, im] pairs instance files hold."""
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return np.stack([m.real, m.imag], -1).tolist()


def operator_norm(mat: np.ndarray) -> float:
    """The spectral norm one matrix at a time, the oracle of
    ``operator_norms``: ``np.linalg.norm(mat, 2)``, inf when an entry is
    not finite and 0 on an empty matrix."""
    if not mat.size:
        return 0.0
    if not np.isfinite(mat).all():
        return float("inf")
    return float(np.linalg.norm(mat, 2))


def random_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_contraction(rng, n: int, scale: float = 0.95) -> np.ndarray:
    a = random_matrix(rng, n)
    return scale * a / np.linalg.norm(a, 2)


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n: int) -> np.ndarray:
    a = random_matrix(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_coisometry_pair(rng, h: int) -> list[np.ndarray]:
    """T_1, T_2 with T_1 T_1* + T_2 T_2* = I (columns of a random isometry)."""
    a = rng.standard_normal((2 * h, h)) + 1j * rng.standard_normal((2 * h, h))
    q, _ = np.linalg.qr(a)
    s = q.conj().T  # h x 2h coisometry
    return [s[:, :h], s[:, h:]]


def random_ucp_map(rng, base: BaseAlgebra, h: int, env: int = 2):
    """Unital completely positive map built from a random isometry into
    dim * env dimensions."""
    d = base.dim
    a = rng.standard_normal((d * env, h)) + 1j * rng.standard_normal((d * env, h))
    q, _ = np.linalg.qr(a)  # isometry C^h -> C^(d*env)
    values = []
    for u in base.basis():
        values.append(q.conj().T @ np.kron(u, np.eye(env)) @ q)
    return BaseOperatorMap(base, values)


def on_point(phi: BaseOperatorMap) -> LevelledOperatorMap:
    """A base map lifted to the one-atom map of a point model whose
    generator fixes everything, as a matrix system's commands lift it."""
    sys_ = LcmSystem(FreeAbelian(1), PointModel(1), phi.base,
                     alphas=[GeneratorMap(unitary=phi.base.unit())])
    return build_phi_tilde(sys_, phi, None, 0)


def atom_values(phi: LevelledOperatorMap) -> dict:
    """Atom -> the (base linear dim, h, h) values of a map at that atom."""
    return dict(zip(phi.atoms, phi.values.reshape(len(phi.atoms), -1, phi.h, phi.h)))


def commuting_contraction_pair(rng, h: int = 2) -> list[np.ndarray]:
    """A seeded pair of commuting contractions: the second is a polynomial
    in the first, with norms pushed toward one so that defect violations
    actually occur across seeds."""
    s1 = rng.uniform(0.55, 1.0)
    t1 = random_contraction(rng, h, scale=s1)
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    t2 = coeffs[0] * np.eye(h) + coeffs[1] * t1 + coeffs[2] * (t1 @ t1)
    norm = np.linalg.norm(t2, 2)
    t2 = t2 * (rng.uniform(0.7, 1.0) / max(norm, 1e-12))
    return [t1, t2]


def box(bounds) -> frozenset:
    """The free abelian depth of every vector with coordinate i at most
    ``bounds[i]``."""
    return frozenset(itertools.product(*(range(b + 1) for b in bounds)))


def lcm_of(sg, elements):
    """Iterated lcm; the empty family has lcm e."""
    acc = sg.identity
    for p in elements:
        if acc is None:
            return None
        acc = sg.lcm(acc, p)
    return acc


def corner_coefficients(corner: CornerBasis, x: LevelledElement):
    """Coordinates of x in a corner's matrix-unit basis plus the relative
    residual: the norm of the entries outside the corner over max(1, ||x||)."""
    v = x.vec(corner.depth)
    w = np.abs(v) ** 2
    total = w.sum()
    w[corner.positions] = 0.0
    return v[corner.positions], float(w.sum() ** 0.5 / max(1.0, total ** 0.5))


def zero_element(sys_: LcmSystem, depth=None) -> LevelledElement:
    """The element with no atoms, at ``depth`` (depth 0 by default)."""
    model = sys_.model
    d = model.zero_depth() if depth is None else model.normalize_depth(depth)
    return LevelledElement(model, sys_.base, d, {})


def from_matrix(sys_: LcmSystem, mat) -> LevelledElement:
    """1 (x) mat: a base-algebra matrix on every atom at depth zero."""
    d = sys_.model.zero_depth()
    mat = np.asarray(mat, dtype=complex)
    return LevelledElement(sys_.model, sys_.base, d,
                           {atom: mat for atom in sys_.model.atoms(d)})


def pi_of_matrix(result: DilationResult, mat) -> np.ndarray:
    """pi(1 (x) mat) of a dilation."""
    return result.pi(from_matrix(result.sys, mat))


def generator_isometries(result: DilationResult) -> list[np.ndarray]:
    """V(g) for the generators g, in order."""
    return [result.v_word(g) for g in result.sys.semigroup.generators]


def compress_v(result: DilationResult, p) -> np.ndarray:
    """iota* V(p) iota: the compression of the shift of p to the base space."""
    return result.embedding.conj().T @ result.v_word(p) @ result.embedding


def element_from_vec(model, base: BaseAlgebra, depth, v) -> LevelledElement:
    """The inverse of ``LevelledElement.vec`` at ``depth``."""
    depth = model.normalize_depth(depth)
    atoms = model.atoms(depth)
    n = base.dim
    v = np.asarray(v, dtype=complex).reshape(len(atoms), n, n)
    return LevelledElement(model, base, depth,
                           {atom: v[k] for k, atom in enumerate(atoms)})


# ---------------------------------------------------------------------------
# reference implementations the tests compare the library against
# ---------------------------------------------------------------------------


def sorted_elements(sg, elements) -> list:
    """The distinct elements in (length, element) order, each validated."""
    es = set(map(tuple, elements))
    for e in es:
        sg.validate_element(e)
    return sorted(es, key=lambda e: (sg.length(e), e))


def ewf_projection(sys: LcmSystem, W, F) -> LevelledElement:
    """Product of range projections over W and their complements over F - W.

    The family over all subsets of F is a partition of unity into pairwise
    orthogonal projections.
    """
    sg = sys.semigroup
    ws = sorted_elements(sg, W)
    fs = sorted_elements(sg, F)
    if not set(ws) <= set(fs):
        raise SpecMismatchError("W must be a subset of F")
    out = sys.unit()
    for p in ws:
        out = out * sys.unit_projection(p)
    for p in fs:
        if p not in ws:
            out = out * (sys.unit(sys.depth_of(p)) - sys.unit_projection(p))
    return out


def phi_F(
    phi: BaseOperatorMap,
    betas: Sequence[np.ndarray],
    T: ContractionFamily,
    F,
    cap: int = MAX_SUBSET_SIZE,
) -> BaseOperatorMap:
    """The inclusion-exclusion compression of phi along F.

    phi_F(a) = sum over U of (-1)^|U| T(sU) phi(beta_{sU}^{-1}(a)) T(sU)*,
    with sU the least common multiple of U and unbounded subsets dropped.
    Complete positivity of every phi_F is the lifting criterion for the
    tensor construction.
    """
    sg = T.semigroup
    fs = sorted_elements(sg, F)
    if len(fs) > cap:
        raise ResourceCapError(f"inclusion-exclusion over {len(fs)} elements "
                               f"needs 2^{len(fs)} terms (cap {cap})")
    betas = [np.asarray(b, dtype=complex) for b in betas]
    units = phi.base.basis()
    universe = lcm_closure(sg, sg.identity, fs)
    terms = np.array([_compressed(phi, betas, T, s, units) for s in universe])
    (values,) = _signed_sums(last_level(sg, universe, sg.identity, fs), terms)
    return BaseOperatorMap(phi.base, list(values))


def lcm_closure(sg, head, F) -> list:
    """lcm(head, vU) over the subsets U of F with a common multiple, in
    (length, element) order."""
    out = {tuple(head)}
    for f in F:
        out |= {r for s in out if (r := sg.lcm(s, tuple(f))) is not None}
    return sorted(out, key=lambda e: (sg.length(e), e))


def last_level(sg, universe, head, F) -> np.ndarray:
    """The coefficient row of E_head prod_{f in F} (1 - E_f), one row."""
    *_, rows = lcm_levels(sg, universe, head, F, len(F))
    return rows


CHECK_TOL = 1e-8


def _corner_samples(sys_: LcmSystem, p, q, depth, rng, n_combos: int = 2):
    """Corner basis elements plus a few random combinations."""
    corner = sys_.corner_basis(p, q, depth)
    base = list(corner.elements)
    out = list(base)
    for _ in range(n_combos if base else 0):
        coeff = rng.standard_normal(len(base)) + 1j * rng.standard_normal(len(base))
        acc = None
        for c, e in zip(coeff, base):
            term = e * complex(c)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def check_kernel_properties(
    kernel,
    depth: int = 2,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> ValidationReport:
    """Verify the defining kernel properties on indices up to ``depth``.

    Anything exposing ``evaluate(p, a, q)`` together with ``sys``/``T``/``h``
    can be checked, so corrupted fixtures are testable; verdicts quantify
    over the sampled index range only.
    """
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    sys_ = kernel.sys
    sg = sys_.semigroup
    elements = sg.enumerate_up_to(depth)

    # unital
    one = sys_.unit()
    err = operator_norm(
        kernel.evaluate(sg.identity, one, sg.identity) - np.eye(kernel.h)
    )
    report.add("kernel.unital", err <= tol, err, tol)

    # Hermitian + norm bound + linearity over index pairs
    worst_h = worst_n = worst_l = 0.0
    wit_h = wit_n = ""
    for p, q in itertools.combinations_with_replacement(elements, 2):
        samples = _corner_samples(sys_, p, q, depth, rng)
        for k, a in enumerate(samples):
            kpq = kernel.evaluate(p, a, q)
            kqp = kernel.evaluate(q, a.star(), p)
            err = operator_norm(kpq.conj().T - kqp)
            if err > worst_h:
                worst_h, wit_h = err, f"(p={p}, q={q}, a#{k})"
            err = operator_norm(kpq) - a.norm()
            if err > worst_n:
                worst_n, wit_n = err, f"(p={p}, q={q}, a#{k})"
        if len(samples) >= 2:
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            a, b = samples[0], samples[1]
            lhs = kernel.evaluate(p, a + b * lam, q)
            rhs = kernel.evaluate(p, a, q) + lam * kernel.evaluate(p, b, q)
            worst_l = max(worst_l, operator_norm(lhs - rhs))
    report.add("kernel.hermitian", worst_h <= tol, worst_h, tol, detail=wit_h)
    report.add("kernel.norm_bound", worst_n <= tol, worst_n, tol, detail=wit_n)
    report.add("kernel.linear", worst_l <= tol, worst_l, tol)

    # Toeplitz: K(p, a, q) = K(rp, alpha_r(a), rq) for shifts r that stay
    # inside the enumerated range.
    worst_t = 0.0
    wit_t = ""
    shifts = [g for g in sg.generators]
    if len(sg.generators) >= 2:
        shifts.append(sg.multiply(sg.generators[0], sg.generators[1]))
    else:
        shifts.append(sg.multiply(sg.generators[0], sg.generators[0]))
    short = [p for p in elements if sg.length(p) <= max(0, depth - 1)]
    for r in shifts:
        for p, q in itertools.product(short, repeat=2):
            for k, a in enumerate(_corner_samples(sys_, p, q, depth - 1, rng, 1)):
                lhs = kernel.evaluate(p, a, q)
                rhs = kernel.evaluate(
                    sg.multiply(r, p),
                    sys_.apply_endo(r, a),
                    sg.multiply(r, q),
                )
                err = operator_norm(lhs - rhs)
                if err > worst_t:
                    worst_t, wit_t = err, f"(r={r}, p={p}, q={q}, a#{k})"
    report.add("kernel.toeplitz", worst_t <= tol, worst_t, tol, detail=wit_t)

    # boundedness on a sampled family: ||a||^2 [K(.., b_i* b_j, ..)] dominates
    # [K(.., b_i* a* a b_j, ..)]
    ps = elements[: min(3, len(elements))]
    bs = [sys_.corner_basis(sg.identity, p, depth).elements[0] for p in ps]
    amb = sys_.algebra_basis(depth)
    a = amb[min(1, len(amb) - 1)] + amb[0] * 0.5
    n = len(ps)
    m_plain = np.zeros((n * kernel.h, n * kernel.h), dtype=np.complex128)
    m_squeezed = np.zeros_like(m_plain)
    hh = kernel.h
    for i in range(n):
        for j in range(n):
            bi = bs[i].star()
            m_plain[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                ps[i], bi * bs[j], ps[j])
            m_squeezed[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                ps[i], bi * (a.star() * (a * bs[j])), ps[j])
    gap = a.norm() ** 2 * m_plain - m_squeezed
    gap = (gap + gap.conj().T) / 2.0
    min_gap = float(np.linalg.eigvalsh(gap)[0])
    report.add("kernel.bounded", min_gap >= -tol, min_gap, -tol)

    # positivity of blocks over indices with a common multiple
    r = lcm_of(sg, ps)
    if r is not None:
        cs = [sys_.corner_basis(sg.identity, r, depth).elements[0]] * n
        m = np.zeros((n * hh, n * hh), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                m[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                    ps[i], cs[i].star() * cs[j], ps[j]
                )
        m = (m + m.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(m)[0])
        report.add("kernel.common_multiple_psd", min_eig >= -tol, min_eig, -tol)

    return report


def uniqueness_probe(
    kernel: KernelSystem,
    degree: int,
    seeds: Sequence[int],
    tolerances: Optional[Tolerances] = None,
    tol: float = 1e-8,
) -> ValidationReport:
    """Rebuild the dilation over permuted index catalogs and compare the
    Gram of the spanning vectors pi(a) V(p) (embedded basis) across runs.

    Unitary equivalence of minimal dilations predicts identical inner
    products and identical dimension; the probe asserts both numerically.
    """
    tols = tolerances or Tolerances()
    base_assembly = assemble_gram(kernel, degree)
    report = ValidationReport()

    grams, dims = [], []
    for seed in seeds:
        assembly = _permuted_assembly(base_assembly, seed)
        result = naimark_dilate(kernel, degree, tolerances=tols, assembly=assembly)
        dims.append(result.rank)
        grams.append(_spanning_gram(result))
    dim_ok = len(set(dims)) == 1
    report.add("uniqueness.dimension", dim_ok, float(max(dims) - min(dims)), 0.0,
               detail=f"dims {dims}")
    worst = 0.0
    for g in grams[1:]:
        worst = max(worst, float(np.abs(g - grams[0]).max()))
    report.add("uniqueness.spanning_gram", worst <= tol, worst, tol,
               detail=f"{len(seeds)} permuted runs")
    return report


def _permuted_assembly(assembly: GramAssembly, seed: int) -> GramAssembly:
    """The same Gram operator over a shuffled catalog.  Each block keeps its
    group; its members (q, atom, i, j) are reordered by the new catalog row
    of (q, atom, first row of the base block of i, j), so the blocks of one
    atom and base block keep one (q, j) order, as ``GramAssembly`` states."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(assembly.catalog))
    catalog = [assembly.catalog[i] for i in perm]
    moved_to = np.empty_like(perm)
    moved_to[perm] = np.arange(perm.size)
    first = {i: sl.start for sl in assembly.kernel.sys.base.block_slices()
             for i in range(sl.start, sl.stop)}
    lead = {(idx.q, idx.key[0], idx.key[2]): moved_to[r]
            for r, idx in enumerate(assembly.catalog)
            if idx.key[1] == first[idx.key[1]]}
    blocks = []
    for block in assembly.blocks:
        rows = moved_to[block.rows]
        members = [assembly.catalog[r] for r in block.rows]
        order = np.argsort([lead[c.q, c.key[0], c.key[2]] for c in members])
        e = assembly.expanded_rows(order)
        blocks.append(GramBlock(block.key, rows[order], block.matrix[np.ix_(e, e)]))
    blocks.sort(key=lambda b: int(b.rows[0]))
    return GramAssembly(
        assembly.kernel, assembly.degree, catalog, blocks,
        assembly.hermiticity_defect,
    )


def _spanning_gram(result: DilationResult) -> np.ndarray:
    sg = result.sys.semigroup
    vecs = []
    for p in sg.enumerate_up_to(min(result.degree, 2)):
        corner = result.sys.corner_basis(sg.identity, p, result.degree)
        vp_e = result.v_word(p) @ result.embedding
        for elem in corner.elements[:3]:
            block = result.pi(elem) @ vp_e
            for k in range(result.h):
                vecs.append(block[:, k])
    m = np.array(vecs)
    return m.conj() @ m.T


# ---------------------------------------------------------------------------
# the left inverse on elements: the reference ``LcmSystem.inverse_matrix``
# and the kernel's middle factors are checked against
# ---------------------------------------------------------------------------


def apply_generator_inverse(sys_: LcmSystem, letter: int,
                            x: LevelledElement) -> LevelledElement:
    """Left inverse of one generator: keep the atoms under its range
    projection and shift them back.  Defined on the whole algebra."""
    model, m = sys_.model, sys_.maps[letter - 1]
    e_depth = model.shift_depth(model.zero_depth(), letter)  # of E_letter
    y = x.refine_to(model.join_depth(x.depth, e_depth))
    coeffs = {}
    for a, v in y.coeffs.items():
        b = model.unshift(a, letter)
        if b is not None:
            coeffs[b] = m.apply_inverse(v)
    return LevelledElement(x.model, x.base, model.unshift_depth(y.depth, letter),
                           coeffs)


def alpha_inverse(sys_: LcmSystem, p, x: LevelledElement) -> LevelledElement:
    """Left inverse of the endomorphism at p (mask by the range projection
    of p, then invert); composes generator inverses."""
    sys_.semigroup.validate_element(p)
    for letter in sys_.semigroup.as_word(p):
        x = apply_generator_inverse(sys_, letter, x)
    return x


# ---------------------------------------------------------------------------
# the identity suite case by case: the oracle of the planned suite
# ---------------------------------------------------------------------------
#
# The per-case suite as ``dilation`` ran it before its case plan: one loop
# per record, pi and V(p) one element and one word at a time, each residual
# built on its own.  ``oracle_run`` runs checks as ``dilation._run_checks``
# does; ``ORACLE_SUITE`` are those of ``identity_suite``.


def oracle_sample_words(sg, degree: int, max_len: int = 2) -> list[Element]:
    return [p for p in sg.enumerate_up_to(min(degree, max_len)) if sg.length(p) >= 1]


def oracle_depth(src, x: LevelledElement) -> int:
    return src.sys.model.depth_max(x.depth)


def oracle_normed(cases) -> list:
    """(operator norm, label) of each (residual matrix, label) case, the
    norms batched by ``operator_norms``."""
    cases = list(cases)
    norms = operator_norms([mat for mat, _ in cases])
    return [(v, label) for v, (_, label) in zip(norms.tolist(), cases)]


def oracle_check_embedding(src, report: ValidationReport) -> None:
    emb = src.embedding
    report.at_most("embedding.isometric",
                   oracle_normed([(emb.conj().T @ emb - np.eye(emb.shape[1]), "")]),
                   src.tolerances.identity)


def oracle_check_representation(src, report: ValidationReport) -> None:
    """pi is a unital *-homomorphism, the generator shifts are isometric on
    the first interior, and they intertwine pi with the action."""
    tol = src.tolerances.identity
    sg = src.sys.semigroup

    basis = _pi_basis(src)
    pis = {lbl: src.pi(b) for lbl, b in basis}

    report.at_most("pi.unital",
                   oracle_normed([(src.pi(src.sys.unit()) - np.eye(src.rank), "")]), tol)

    report.at_most("pi.star", oracle_normed((src.pi(b.star()) - pis[lbl].conj().T, lbl)
                                      for lbl, b in basis), tol)

    small = basis[: min(len(basis), 8)]
    report.at_most("pi.multiplicative",
                   oracle_normed((pis[l1] @ pis[l2] - src.pi(b1 * b2), f"({l1}, {l2})")
                           for (l1, b1), (l2, b2) in itertools.product(small, repeat=2)),
                   tol)

    if src.degree >= 1:
        oracle_check_isometries(src, report)

    # intertwining V(p) pi(a) = pi(alpha_p(a)) V(p); the interior level must
    # absorb both the word and the depth of a
    def intertwine():
        for p in oracle_sample_words(sg, src.degree):
            level = src.word_level(p)
            vp = src.v_word(p)
            for lbl, a in basis:
                lvl = level + oracle_depth(src, a)
                if lvl > src.degree:
                    continue
                shifted = src.sys.apply_endo(p, a)
                if oracle_depth(src, shifted) > src.pi_depth:
                    continue
                qb = src.interior_basis(lvl)
                yield ((vp @ pis[lbl] - src.pi(shifted) @ vp) @ qb, f"(p={p}, a={lbl})")
    report.at_most("covariance.intertwine", oracle_normed(intertwine()), tol)


def oracle_check_isometries(src, report: ValidationReport) -> None:
    """The interior bases are orthonormal; V(p) is isometric on the interior
    of level gen_count(p) for every p of 1..degree generator letters (one
    record per generator, one for the longer words); and each generator
    shift vanishes off the first interior, as it is built to."""
    tol = src.tolerances.identity
    sg = src.sys.semigroup

    def orthonormality(k):
        qb = src.interior_basis(k)
        return qb.conj().T @ qb - np.eye(qb.shape[1])

    report.at_most("interior.orthonormal",
                   oracle_normed((orthonormality(k), f"level {k}")
                           for k in range(1, src.degree + 1)), tol)

    def isometry_defect(p) -> np.ndarray:
        v, qb = src.v_word(p), src.interior_basis(sg.gen_count(p))
        return qb.conj().T @ (v.conj().T @ v) @ qb - np.eye(qb.shape[1])

    for g, gen in enumerate(sg.generators, start=1):
        report.at_most(f"isometry.V[{g}]", oracle_normed([(isometry_defect(gen), "")]), tol)
    if src.degree >= 2:
        report.at_most("isometry.V[w]", oracle_normed((isometry_defect(p), f"w={p}")
                                                for p in sg.enumerate_up_to(src.degree)
                                                if 2 <= sg.gen_count(p) <= src.degree),
                       tol)

    q1 = src.interior_basis(1)
    off = np.eye(src.rank) - q1 @ q1.conj().T
    report.at_most("isometry.zero_off_interior",
                   oracle_normed((src.v_word(gen) @ off, f"V[{g}]")
                           for g, gen in enumerate(sg.generators, start=1)), tol)


def oracle_check_covariance(src, report: ValidationReport) -> None:
    """phi is completely positive, and the dilated range projections are the
    represented unit projections and multiply by the Nica rule."""
    tols = src.tolerances
    tol = tols.identity
    sg = src.sys.semigroup
    degree = src.degree

    cp = is_completely_positive(src.phi, rtol=tols.psd)
    report.at_least("phi.completely_positive", cp.cases, -tols.psd * cp.scale)

    # range projections: V(p)V(p)* = pi(E_p) on the matching interior
    def range_projections():
        for p in oracle_sample_words(sg, degree):
            level = src.word_level(p)
            e_p = src.sys.unit_projection(p)
            if level > degree or oracle_depth(src, e_p) > src.pi_depth:
                continue
            vp = src.v_word(p)
            qb = src.interior_basis(level)
            yield (vp @ vp.conj().T - src.pi(e_p)) @ qb, f"p={p}"
    report.at_most("covariance.range_projection", oracle_normed(range_projections()), tol)

    # Nica rule for the dilated range projections
    def nica():
        for p, q_el in itertools.product(sg.generators, repeat=2):
            lp, lq = src.word_level(p), src.word_level(q_el)
            if lp + lq > degree:
                continue
            vp, vq = src.v_word(p), src.v_word(q_el)
            r = sg.lcm(p, q_el)
            lhs = vp @ vp.conj().T @ vq @ vq.conj().T
            if r is None:
                rhs = np.zeros_like(lhs)
            else:
                vr = src.v_word(r)
                rhs = vr @ vr.conj().T
            qb = src.interior_basis(lp + lq)
            yield (lhs - rhs) @ qb, f"(p={p}, q={q_el})"
    report.at_most("covariance.nica", oracle_normed(nica()), tol)


def oracle_check_compressions(src, report: ValidationReport) -> None:
    """Compressing to the embedded space gives back (phi, T), and that space
    is co-invariant."""
    tol = src.tolerances.identity
    sg = src.sys.semigroup
    emb = src.embedding

    report.at_most("compression.phi",
                   oracle_normed((emb.conj().T @ src.pi(a) @ emb - src.phi.value(a), lbl)
                           for lbl, a in _pi_basis(src)), tol)
    report.at_most("compression.T",
                   oracle_normed((emb.conj().T @ src.v_word(p) @ emb - src.T(p), f"p={p}")
                           for p in sg.enumerate_up_to(src.degree)
                           if src.word_level(p) <= src.degree), tol)

    # co-invariance: P_H V(p) vanishes on the complement of H inside interiors
    ph = emb @ emb.conj().T

    def coinvariance():
        for p in oracle_sample_words(sg, src.degree):
            level = src.word_level(p)
            if level > src.degree:
                continue
            qb = src.interior_basis(level)
            yield (emb.conj().T @ src.v_word(p) @ (np.eye(src.rank) - ph) @ qb,
                   f"p={p}")
    report.at_most("covariance.coinvariant", oracle_normed(coinvariance()), tol)


def oracle_check_reproduces_kernel(result: DilationResult,
                             report: ValidationReport) -> None:
    """Compressing V(p)* pi(a) V(q) to the embedded space reproduces the
    kernel (needs the kernel, so a live result only)."""
    sg = result.sys.semigroup
    words = oracle_sample_words(sg, result.degree, 1) + [sg.identity]
    lifts = {p: result.v_word(p) @ result.embedding for p in words}

    def residuals():
        for p, q in itertools.product(words, repeat=2):
            corner = result.sys.corner_basis(p, q, result.degree)
            for k, a in enumerate(corner.elements[:4]):
                lhs = result.kernel.evaluate(p, a, q)
                rhs = lifts[p].conj().T @ result.pi(a) @ lifts[q]
                yield lhs - rhs, f"(p={p}, q={q}, a#{k})"
    report.at_most("dilation.reproduces_kernel", oracle_normed(residuals()),
                   result.tolerances.identity)


def oracle_check_word_product(result: DilationResult, report: ValidationReport) -> None:
    """Composite shifts: the per-word construction agrees with products of
    generator matrices wherever the generator chain stays inside interiors."""
    sg = result.sys.semigroup

    def residuals():
        if result.degree < 2:
            return
        q2 = result.interior_basis(2)
        for g1, g2 in itertools.product(sg.generators, repeat=2):
            w = sg.multiply(g1, g2)
            chained = result.v_word(g1) @ result.v_word(g2)
            yield (result.v_word(w) - chained) @ q2, f"w={w}"
    report.at_most("covariance.word_product", oracle_normed(residuals()),
                   result.tolerances.identity)


ORACLE_SUITE = (oracle_check_embedding, oracle_check_representation,
                oracle_check_covariance, oracle_check_compressions)


def oracle_run(src, report: ValidationReport, checks) -> ValidationReport:
    with np.errstate(over="ignore", invalid="ignore"):
        for check in checks:
            check(src, report)
    return report
