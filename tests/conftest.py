"""Shared fixtures and seeded generators for the test suite."""

import importlib.util
import itertools
import pathlib
import sys
from typing import Optional, Sequence

import numpy as np
import pytest

from lcm_dilate.algebras import BaseAlgebra, LevelledElement, PointModel, operator_norm
from lcm_dilate.cpmaps import (
    MAX_SUBSET_SIZE,
    BaseOperatorMap,
    ContractionFamily,
    LevelledOperatorMap,
    _check_subset_cap,
    _compressed,
    _sorted_elements,
    build_phi_tilde,
    inclusion_exclusion,
)
from lcm_dilate.dilation import DilationResult, Tolerances, naimark_dilate
from lcm_dilate.errors import SpecMismatchError
from lcm_dilate.kernel import GramAssembly, GramBlock, KernelSystem, assemble_gram
from lcm_dilate.semigroup import FreeAbelian
from lcm_dilate.systems import GeneratorMap, LcmSystem, ValidationReport

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH = FIXTURES.parent / "perfbench"


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


def ewf_projection(sys: LcmSystem, W, F) -> LevelledElement:
    """Product of range projections over W and their complements over F - W.

    The family over all subsets of F is a partition of unity into pairwise
    orthogonal projections.
    """
    sg = sys.semigroup
    ws = _sorted_elements(sg, W)
    fs = _sorted_elements(sg, F)
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
    fs = _sorted_elements(sg, F)
    _check_subset_cap(len(fs), cap)
    betas = [np.asarray(b, dtype=complex) for b in betas]
    units = phi.base.basis()
    values = inclusion_exclusion(
        sg, lambda s: _compressed(phi, betas, T, s, units), sg.identity, fs, {}
    )
    return BaseOperatorMap(phi.base, list(values))


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
            kpq = kernel.evaluate(p, a, q, check_corner=False)
            kqp = kernel.evaluate(q, a.star(), p, check_corner=False)
            err = operator_norm(kpq.conj().T - kqp)
            if err > worst_h:
                worst_h, wit_h = err, f"(p={p}, q={q}, a#{k})"
            err = operator_norm(kpq) - a.norm()
            if err > worst_n:
                worst_n, wit_n = err, f"(p={p}, q={q}, a#{k})"
        if len(samples) >= 2:
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            a, b = samples[0], samples[1]
            lhs = kernel.evaluate(p, a + b * lam, q, check_corner=False)
            rhs = kernel.evaluate(p, a, q, check_corner=False) + lam * kernel.evaluate(
                p, b, q, check_corner=False
            )
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
                lhs = kernel.evaluate(p, a, q, check_corner=False)
                rhs = kernel.evaluate(
                    sg.multiply(r, p),
                    sys_.apply_endo(r, a),
                    sg.multiply(r, q),
                    check_corner=False,
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
                ps[i], bi * bs[j], ps[j], check_corner=False
            )
            m_squeezed[i * hh:(i + 1) * hh, j * hh:(j + 1) * hh] = kernel.evaluate(
                ps[i], bi * (a.star() * (a * bs[j])), ps[j], check_corner=False
            )
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
                    ps[i], cs[i].star() * cs[j], ps[j], check_corner=False
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
