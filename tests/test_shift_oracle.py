"""The shift isometries and the interiors against slower constructions.

The element oracle builds every catalog column element by element: a
corner basis element expanded by ``corner_coefficients``, its image
under a word p by ``LcmSystem.apply_endo``, and V(p) through a
pseudoinverse of the interior's image, here applied with a dense factor.
The column oracle does the library's index arithmetic one column at a
time: one (q, atom, depth, value) tuple per column, shifted letter by
letter by the atom rules and the generator maps, expanded child by child
and entry by entry through a (q, atom, i, j) -> row dictionary.  The library gathers the
same columns from integer tables and factors each interior's image group
by group.  Expansions must be bit-equal to both oracles, before and after
the shift, and V(p) Q_k must agree to 1e-12 for every word p up to the
degree.  The adjoint formula's residual on the dense factor and the
oracle's columns must agree with the library's to 1e-12 per generator.

The interiors are checked against a dense SVD of the same image under the
same cut, for their support (each basis column inside the Gram blocks of
one (atom, row) group), and for their widths: interior k of a degree-d
dilation is spanned by the degree-(d - k) catalog, so its width is the rank
of the degree-(d - k) dilation.
"""

import json

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    alpha_inverse,
    corner_coefficients,
    encode_matrix,
    zero_element,
)
from lcm_dilate.algebras import PointModel
from lcm_dilate.cli import build_pair, parse_instance
from lcm_dilate.dilation import (
    ADJOINT_PAIRS,
    CatalogColumns,
    _adjoint_formula_residual,
    covariant_dilate,
    naimark_dilate,
)
from lcm_dilate.errors import SpecMismatchError

# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def catalog_rows(assembly) -> dict:
    """Catalog row of every corner element, as one index array per word q."""
    sys_, degree = assembly.kernel.sys, assembly.degree
    rows = {q: np.empty(len(sys_.corner_basis(sys_.semigroup.identity, q, degree)),
                        dtype=np.intp)
            for q in sys_.semigroup.enumerate_up_to(degree)}
    for i, idx in enumerate(assembly.catalog):
        rows[idx.q][idx.pos] = i
    return rows


def oracle_expansion(res, indices) -> np.ndarray:
    """The dense n x width catalog matrix of indices (q, element)."""
    rows = catalog_rows(res.assembly)
    indices = list(indices)
    out = np.zeros((len(res.assembly.catalog), len(indices)), dtype=complex)
    for c, (q, elem) in enumerate(indices):
        corner = res.sys.corner_basis(res.sys.semigroup.identity, q, res.degree)
        coeff, resid = corner_coefficients(corner, elem)
        assert resid <= res.tolerances.corner
        nz = np.flatnonzero(coeff)
        out[rows[tuple(q)][nz], c] = coeff[nz]
    return out


def dense(x: CatalogColumns, n: int) -> np.ndarray:
    assert len(set(zip(x.rows.tolist(), x.cols.tolist()))) == x.rows.size
    out = np.zeros((n, x.width), dtype=complex)
    out[x.rows, x.cols] = x.vals
    return out


def columns_of(mat: np.ndarray) -> CatalogColumns:
    rows, cols = np.nonzero(mat)
    return CatalogColumns(rows, cols, mat[rows, cols], mat.shape[1])


def dense_factor(res) -> np.ndarray:
    """B as one rank x n*h matrix, assembled from the block factors."""
    b = np.zeros((res.rank, res.assembly.size), dtype=complex)
    for f in res.factors:
        b[f.span, res.assembly.expanded_rows(f.rows)] = f.factor
    return b


def column_rows(res) -> dict:
    """(q, atom, i, j) -> catalog row."""
    return {(idx.q, *idx.key): r for r, idx in enumerate(res.assembly.catalog)}


def column_interior(res, level: int) -> list:
    """The interior's columns as (q, atom, depth, value) tuples."""
    sys_ = res.sys
    sg = sys_.semigroup
    d = res.degree - level
    units = dict(zip(sys_.base.unit_positions(), sys_.base.basis()))
    return [(q, atom, corner.depth, units[i, j])
            for q in sg.enumerate_up_to(d)
            for corner in [sys_.corner_basis(sg.identity, q, d)]
            for atom, i, j in corner.keys]


def column_shifted(res, p, column: tuple) -> tuple:
    """(pq, alpha_p(atom (x) value)) of (q, atom, depth, value), letter by
    letter."""
    model, maps = res.sys.model, res.sys.maps
    q, atom, depth, value = column
    for letter in reversed(res.sys.semigroup.as_word(p)):
        atom, depth = model.shift(atom, letter), model.shift_depth(depth, letter)
        value = maps[letter - 1].apply(value)
    return res.sys.semigroup.multiply(p, q), atom, depth, value


def column_expansion(res, columns) -> np.ndarray:
    """The dense n x width catalog matrix of (q, atom, depth, value) columns:
    the atom refined to the catalog depth, each nonzero entry of the value
    looked up in the row dictionary; off the catalog only within the corner
    tolerance."""
    model, top, row_of = res.sys.model, res._depth, column_rows(res)
    columns = list(columns)
    out = np.zeros((len(res.assembly.catalog), len(columns)), dtype=complex)
    for c, (q, atom, depth, value) in enumerate(columns):
        if not model.depth_leq(depth, top):
            raise SpecMismatchError(f"cannot refine depth {depth} to {top}")
        kids = [atom] if depth == top else model.children(atom, depth, top)
        i, j = np.nonzero(value)
        found = np.array([row_of.get((q, kid, a, b), -1) for kid in kids
                          for a, b in zip(i.tolist(), j.tolist())], dtype=np.intp)
        entries = np.tile(value[i, j], len(kids))
        inside = found >= 0
        if not inside.all():
            w = np.abs(entries) ** 2
            resid = (w[~inside].sum() / max(1.0, w.sum())) ** 0.5
            if not resid <= res.tolerances.corner:
                raise SpecMismatchError(f"index ({q}, .) leaves the truncation catalog")
        out[found[inside], c] = entries[inside]
    return out


def oracle_interior(res, level: int) -> list:
    sys_ = res.sys
    sg = sys_.semigroup
    d = res.degree - level
    return [(q, elem) for q in sg.enumerate_up_to(d)
            for elem in sys_.corner_basis(sg.identity, q, d).elements]


def oracle_adjoint_residual(res) -> list:
    """The norm of the adjoint formula residual Q_1* (V(g)* B U - B W T*)
    of each generator g: B the dense factor, U and W the oracle's catalog
    and formula columns, T(q\\r)* applied to each formula column's h slot."""
    sg, sys_, h = res.sys.semigroup, res.sys, res.h
    catalog = res.assembly.catalog[:ADJOINT_PAIRS]
    b = dense_factor(res)

    def image(mat):
        return b @ np.kron(mat, np.eye(h))

    bu = image(oracle_expansion(res, [(i.q, i.element) for i in catalog]))
    out = []
    for gen in sg.generators:
        if sg.length(gen) > res.degree:
            continue
        formula, t_adj = [], []
        for idx in catalog:
            r = sg.lcm(gen, idx.q)
            if r is None:
                formula.append((sg.identity, zero_element(sys_, res.degree)))
                t_adj.append(np.zeros((h, h)))
            else:
                formula.append((sg.left_divide(gen, r),
                                alpha_inverse(sys_, gen, idx.element)))
                t_adj.append(res.T(sg.left_divide(idx.q, r)).conj().T)
        bw = image(oracle_expansion(res, formula))
        bwt = np.hstack([bw[:, c * h:(c + 1) * h] @ t for c, t in enumerate(t_adj)])
        q1 = res.interior_basis(sg.length(gen))
        out.append(np.linalg.norm(q1.conj().T @ (res.v_word(gen).conj().T @ bu - bwt), 2))
    return out


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _cjson(m):
    return encode_matrix(np.asarray(m, dtype=complex))


def _fixture(name, **changes):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    for key, value in changes.items():
        doc["system"][key] = value
    return doc


def _point_doc(linear: bool):
    """A point-model pair over M2: diagonal phase automorphisms, a commuting
    unitary pair on C^3 and a diagonal state, with each automorphism given
    as the unitary or as the matrix of a = D a D* on row-major vectors."""
    rng = np.random.default_rng(5)
    ds = [np.diag(np.exp(2j * np.pi * rng.random(2))) for _ in range(2)]
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w, _ = np.linalg.qr(z)
    ts = [w @ np.diag(np.exp(2j * np.pi * rng.random(3))) @ w.conj().T
          for _ in range(2)]
    alphas = [{"linear": _cjson(np.kron(d, d.conj()))} if linear
              else {"unitary": _cjson(d)} for d in ds]
    return {
        "system": {"semigroup": {"kind": "free_abelian", "rank": 2},
                   "model": {"kind": "matrix"}, "base": {"blocks": [2]},
                   "alphas": alphas},
        "T": [_cjson(t) for t in ts],
        "phi": {"kind": "state", "rho": _cjson(np.diag([0.3, 0.7]))},
        "depth": 3,
    }


def _abelian_pair_doc():
    """A commuting non-unitary pair on C^2 over the quarter-plane."""
    u, _ = np.linalg.qr(np.array([[1.0, 2.0], [0.5, -1.0]]))
    ts = [u @ np.diag(d) @ u.conj().T
          for d in ([0.6, -0.3 + 0.4j], [0.5j, 0.7])]
    return {
        "system": {"semigroup": {"kind": "free_abelian", "rank": 2},
                   "model": {"kind": "toeplitz_abelian"}, "base": {"blocks": [1]}},
        "T": [_cjson(t) for t in ts],
        "phi": {"kind": "from_contractions"},
        "depth": 3,
    }


CASES = {
    "abelian1": lambda: _fixture("sznagy_half"),
    "abelian2_unitary": lambda: _fixture("commuting_unitaries"),
    "abelian2": _abelian_pair_doc,
    "toeplitz_free2": lambda: _fixture("cuntz_m2", model={"kind": "toeplitz_free"}),
    "boundary_free2": lambda: _fixture("cuntz_m2"),
    "point_unitary": lambda: _point_doc(linear=False),
    "point_linear": lambda: _point_doc(linear=True),
}


def _edge_pair_doc(depth: int):
    """T1 = [[0, 3/5], [0, 0]] and T2 = [[0, 4i/5], [0, 0]] over the
    quarter-plane: their Nica defect is E22, exactly singular."""
    ts = [[[0, 0.6], [0, 0]], [[0, 0.8j], [0, 0]]]
    return {
        "system": {"semigroup": {"kind": "free_abelian", "rank": 2},
                   "model": {"kind": "toeplitz_abelian"}, "base": {"blocks": [1]}},
        "T": [_cjson(t) for t in ts],
        "phi": {"kind": "from_contractions"},
        "depth": depth,
    }


EDGE_RANKS = {0: 2, 1: 7, 2: 14, 3: 23, 4: 34}    # the edge pair's ranks by degree


def _dilate(doc, directory):
    path = directory / "instance.json"
    path.write_text(json.dumps(doc))
    instance = parse_instance(str(path))
    sys_, phi, T = build_pair(instance)
    res = covariant_dilate(sys_, phi, T, instance.degree)
    assert res.passed, [c.name for c in res.report.checks if not c.passed]
    return res


@pytest.fixture(scope="module", params=list(CASES))
def dilation(request, tmp_path_factory):
    res = _dilate(CASES[request.param](), tmp_path_factory.mktemp(request.param))
    assert res.degree >= 2
    return res


def test_interior_and_shifted_expansions_are_bit_equal(dilation):
    res = dilation
    sg, n = res.sys.semigroup, len(res.assembly.catalog)
    for level in range(1, res.degree + 1):
        interior = res.interiors[level]
        indices = oracle_interior(res, level)
        columns = column_interior(res, level)
        gathered = dense(res._expansion(interior.columns), n)
        assert np.array_equal(gathered, oracle_expansion(res, indices))
        assert np.array_equal(gathered, column_expansion(res, columns))
        for p in sg.enumerate_up_to(level):
            if sg.length(p) != level:
                continue
            shifted = dense(res._expansion(res._shifted(p, interior.columns)), n)
            want = oracle_expansion(res, [(sg.multiply(p, q), res.sys.apply_endo(p, e))
                                          for q, e in indices])
            assert np.array_equal(shifted, want), p
            assert np.array_equal(
                shifted, column_expansion(res, [column_shifted(res, p, c)
                                                for c in columns])), p


def test_embedding_is_bit_equal(dilation):
    res = dilation
    unit = oracle_expansion(res, [(res.sys.semigroup.identity, res.sys.unit())])
    assert np.array_equal(res.embedding, res._apply(columns_of(unit)))


def test_shift_matches_the_pseudoinverse_construction(dilation):
    res = dilation
    sg, h = res.sys.semigroup, res.h
    b = dense_factor(res)

    def image(mat):
        return b @ np.kron(mat, np.eye(h))

    for p in sg.enumerate_up_to(res.degree):
        level = sg.length(p)
        if level == 0:
            continue
        indices = oracle_interior(res, level)
        domain = image(oracle_expansion(res, indices))
        shifted = image(oracle_expansion(
            res, [(sg.multiply(p, q), res.sys.apply_endo(p, e)) for q, e in indices]))
        v = shifted @ np.linalg.pinv(domain, rcond=res.tolerances.rank)
        qk = res.interior_basis(level)
        assert np.linalg.norm((res.v_word(p) - v) @ qk, 2) <= 1e-12, p
        # zero off the interior
        off = np.eye(res.rank) - qk @ qk.conj().T
        assert np.linalg.norm(res.v_word(p) @ off, 2) <= 1e-12, p


def test_adjoint_formula_matches_the_dense_oracle(dilation):
    cases = _adjoint_formula_residual(dilation)
    want = oracle_adjoint_residual(dilation)
    assert len(cases) == len(want)
    gaps = [abs(r - w) for (r, _), w in zip(cases, want)]
    assert max(gaps) <= 1e-12


def test_a_shift_beyond_the_headroom_is_refused(dilation):
    # interior(1) has headroom for one letter: two letters take its columns
    # deeper than the catalog depth, or, on the point model, whose depth
    # never moves, off the catalog's words
    res = dilation
    sg = res.sys.semigroup
    g = sg.generators[0]
    match = ("leaves the truncation catalog" if isinstance(res.sys.model, PointModel)
             else "cannot refine depth")
    with pytest.raises(SpecMismatchError, match=match):
        res._expansion(res._shifted(sg.multiply(g, g), res.interiors[1].columns))
    with pytest.raises(SpecMismatchError, match=match):
        column_expansion(res, [column_shifted(res, sg.multiply(g, g), c)
                               for c in column_interior(res, 1)])


def test_interiors_match_the_dense_svd(dilation):
    # the oracle cuts the singular values of the same image at
    # sigma^2 > tol_rank * sigma_max^2, the eigenvalue cut of its Gram
    res = dilation
    for level in range(1, res.degree + 1):
        interior = res.interiors[level]
        image = res._apply(res._expansion(interior.columns))
        u, s, _ = np.linalg.svd(image, full_matrices=False)
        keep = int(np.sum(s ** 2 > res.tolerances.rank * s.max(initial=0.0) ** 2))
        basis = interior.basis
        assert basis.shape[1] == keep, level
        gap = u[:, :keep] @ u[:, :keep].conj().T - basis @ basis.conj().T
        assert np.linalg.norm(gap, 2) <= 1e-12, level


def test_interior_columns_stay_in_one_group(dilation):
    # interior k's columns at depth d - k of an (atom, i) group expand into
    # the Gram blocks (child, i) of the atom's children alone, and so does
    # each basis column: exactly, not to rounding
    res = dilation
    model, top = res.sys.model, res._depth
    span_of = {blk.key: f.span for blk, f in zip(res.assembly.blocks, res.factors)}
    for level in range(1, res.degree + 1):
        depth = model.normalize_depth(res.degree - level)
        inside = []
        for atom in model.atoms(depth):
            kids = [atom] if depth == top else model.children(atom, depth, top)
            for i in range(res.sys.base.dim):
                mask = np.zeros(res.rank, dtype=bool)
                for kid in kids:
                    if (kid, i) in span_of:
                        mask[span_of[kid, i]] = True
                inside.append(mask)
        for c, column in enumerate(res.interiors[level].basis.T):
            support = column != 0
            assert any(not (support & ~mask).any() for mask in inside), (level, c)


def test_interior_widths_are_the_shallower_ranks(dilation):
    res = dilation
    widths = [res.interiors[k].basis.shape[1] for k in range(1, res.degree + 1)]
    assert widths == [naimark_dilate(res.kernel, res.degree - k).rank
                      for k in range(1, res.degree + 1)]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_edge_pair_interior_widths_are_the_shallower_ranks(degree, tmp_path):
    res = _dilate(_edge_pair_doc(degree), tmp_path)
    assert res.rank == EDGE_RANKS[degree]
    widths = [res.interiors[k].basis.shape[1] for k in range(1, degree + 1)]
    assert widths == [EDGE_RANKS[degree - k] for k in range(1, degree + 1)]
    assert widths == [naimark_dilate(res.kernel, degree - k).rank
                      for k in range(1, degree + 1)]
