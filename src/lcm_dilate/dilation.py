"""Truncated minimal isometric dilation of positive kernel systems.

The construction mirrors the abstract one: the free module over the index
catalog carries the sesquilinear form given by the Gram operator; the
eigenvalue decomposition above a relative rank cut realizes the quotient by
the null space; the representation acts by left multiplication on the algebra
slot and the isometries act by index shift.  Everything is finite, so shift
images can leave the catalog: operators are therefore constructed from, and
identities asserted on, explicit interior subspaces with enough depth
headroom, and that bookkeeping is part of the result object.

The Gram operator is block-diagonal by (atom, row) group of the catalog, so
the factorization is one eigh per block and the dilation space is the direct
sum of the blocks' ranges, block after block.  Catalog vectors enter as
scalar catalog matrices X standing for X (x) I_h, applied block by block.

Catalog columns come from the atom rules by array gathers over integer
tables built once per result: each letter's word map q -> gq and atom map
``shift``, the children of each (atom, depth) at the catalog depth, and a
(word, atom, i, j) -> row table.  Columns are index arrays over one stack of
values; the shift by p composes the letter maps along p, applies the
generator maps to the value stack, and gathers the rows in one step.  An
interior's image, B X_k = U S W*, is block diagonal by (atom, row) group and
factored as the Gram operator is; U is its basis and V(p) = B (S_p X_k) W
S^-1 U* is zero off it.  Both cut at ``Tolerances.rank`` times their largest
eigenvalue, so a job is deterministic: catalog order, eigh, one relative cut.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .algebras import BaseAlgebra, LevelledElement, operator_norms
from .cpmaps import (
    PSD_RTOL,
    ContractionFamily,
    LevelledOperatorMap,
    is_completely_positive,
    nica_defect,  # unused here: perfbench's tracer patches dilation.nica_defect
)
from .errors import GramNotPositiveError, SpecMismatchError
from .kernel import (
    CORNER_RTOL,
    COVARIANCE_TOL,
    DEFAULT_MAX_GRAM_DIM,
    GramAssembly,
    KernelSystem,
    assemble_gram,
    check_gram_size,
)
from .semigroup import Element
from .systems import CHECK_TOL, RANK_CUT, LcmSystem, ValidationReport


@dataclass(frozen=True)
class Tolerances:
    psd: float = PSD_RTOL                  # relative PSD verdicts
    rank: float = RANK_CUT                 # relative eigenvalue cut of factor_hermitian
    identity: float = CHECK_TOL            # residuals of verified operator identities
    covariance: float = COVARIANCE_TOL     # pair covariance at kernel construction
    corner: float = CORNER_RTOL            # corner membership residual

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CatalogColumns:
    """A scalar n x width catalog matrix X by its nonzero entries; column c
    is the expansion of one index over the catalog.  It stands for X (x) I_h
    on the n*h space."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    width: int


@dataclass
class IndexColumns:
    """Single-atom indices (q, atom (x) value) as index arrays: column c is
    the catalog word ``word[c]`` (-1 past the degree), the atom
    ``atoms[atom[c]]`` of the result's atom list, at ``depth``, and the
    value ``values[value[c]]``.  A shift moves the words, the few atoms and
    the value stack; the slots ``atom`` and ``value`` stay."""

    word: np.ndarray
    atom: np.ndarray
    value: np.ndarray
    atoms: np.ndarray
    values: np.ndarray        # (m, dim, dim) stack
    depth: object

    def __len__(self) -> int:
        return self.word.size


@dataclass
class BlockFactor:
    """G_b = B_b* B_b for one Hermitian block, above ``factor_hermitian``'s cut."""

    rows: np.ndarray          # catalog rows of a Gram block, image columns of a group
    span: slice               # its coordinates in the dilation space, or interior basis
    factor: np.ndarray        # B_b, (rank_b, size of the block)
    cofactor: np.ndarray      # right inverse of B_b, (size of the block, rank_b)


@dataclass
class Interior:
    """Span of index vectors with ``level`` steps of shift headroom.

    Columns are the indices (q, atom, depth, e_ij) with both the length of q
    and the depth bounded by degree - level, so any word of length <= level
    maps the span into the catalog.  Their image factors as B X = U S W*, one
    eigh per (atom, i) group: ``basis`` is U and ``pullback`` is W S^-1, block
    diagonal by group.  Level 0 is the whole space, the identity as basis.
    """

    columns: Optional[IndexColumns]
    basis: np.ndarray         # (rank, dim): orthonormal basis in the dilation space
    pullback: Optional[np.ndarray]   # (width * h, dim)


class DilationResult:
    """Matrices of the truncated minimal dilation plus its verification data."""

    def __init__(
        self,
        assembly: GramAssembly,
        tolerances: Tolerances,
        eigenvalues: np.ndarray,
        factors: list[BlockFactor],
        report: ValidationReport,
    ):
        self.assembly = assembly
        self.kernel = assembly.kernel
        self.sys = assembly.kernel.sys
        self.T = assembly.kernel.T
        self.phi = assembly.kernel.phi
        self.degree = assembly.degree
        self.pi_depth = self.degree     # pi is built for the whole truncation
        self.h = assembly.h
        self.tolerances = tolerances
        self.eigenvalues = eigenvalues
        self.factors = factors
        self.rank = sum(f.factor.shape[0] for f in factors)
        self.report = report
        catalog = assembly.catalog
        n = len(catalog)
        self._block_of = np.empty(n, dtype=np.intp)
        self._pos = np.empty(n, dtype=np.intp)
        for b, f in enumerate(factors):
            self._block_of[f.rows] = b
            self._pos[f.rows] = np.arange(len(f.rows))
        self._block_len = np.array([len(f.rows) for f in factors], dtype=np.intp)
        self._block_at = {blk.key: b for b, blk in enumerate(assembly.blocks)}
        self._v_cache: dict[Element, np.ndarray] = {}
        self._pi_cache: dict[bytes, np.ndarray] = {}

        # The gather tables.  Words are the catalog's; atoms are every atom
        # up to the catalog depth, those at the catalog depth first.  A
        # letter's word and atom maps send an index outside to -1, and -1
        # to itself (the appended last entry); the row table's appended
        # last word has no rows.
        sg, model = self.sys.semigroup, self.sys.model
        self._depth = model.normalize_depth(self.degree)
        self._words = sg.enumerate_up_to(self.degree)
        self._word_at = {q: k for k, q in enumerate(self._words)}
        top = model.atoms(self._depth)
        self._atoms = list(dict.fromkeys(itertools.chain(
            top, *(model.atoms(model.normalize_depth(d)) for d in range(self.degree)))))
        self._atom_at = {a: k for k, a in enumerate(self._atoms)}
        self._word_step, self._atom_step = {}, {}
        for letter, g in enumerate(sg.generators, start=1):
            self._word_step[letter] = np.array(
                [self._word_at.get(sg.multiply(g, q), -1) for q in self._words] + [-1])
            self._atom_step[letter] = np.array(
                [self._atom_at.get(model.shift(a, letter), -1) for a in self._atoms] + [-1])
        dim = self.sys.base.dim
        self._rows = np.full((len(self._words) + 1, len(top), dim, dim), -1, dtype=np.intp)
        self._rows[[self._word_at[idx.q] for idx in catalog],
                   [self._atom_at[idx.key[0]] for idx in catalog],
                   [idx.key[1] for idx in catalog],
                   [idx.key[2] for idx in catalog]] = np.arange(n)
        self._kids: dict[tuple, np.ndarray] = {}
        self._unit_stack = np.array(self.sys.base.basis())
        blocks = self.sys.base.blocks
        block_id = np.repeat(np.arange(len(blocks)), blocks)
        self._off_block = block_id[:, None] != block_id    # (i, c) across blocks
        # the block of group (atom, c) at each (atom, column c), or -1
        self._col_block = np.array([[self._block_at.get((a, c), -1) for c in range(dim)]
                                    for a in top], dtype=np.intp)
        # the span of group (atom, c) at each (atom, column c), empty without one
        self.pi_spans = np.array([(f.span.start, f.span.stop) for f in factors]
                                 + [(0, 0)], dtype=np.int64)[self._col_block]
        self.pi_table = self._pi_entries()

        self.interiors = _interiors_for(self)
        zero = model.zero_depth()
        (atom,) = model.atoms(zero)    # the unit is one atom at depth 0
        first = np.zeros(1, dtype=np.intp)
        self.embedding = self._apply(self._expansion(IndexColumns(
            np.array([self._word_at[sg.identity]]), first, first,
            np.array([self._atom_at[atom]]), self.sys.base.unit()[None], zero)))

    # -- geometry ---------------------------------------------------------------

    def word_level(self, p: Element) -> int:
        """Interior level on which v_word(p) is exact: the length of p."""
        return self.sys.semigroup.length(p)

    @property
    def passed(self) -> bool:
        return self.report.passed

    def interior_basis(self, level: int) -> np.ndarray:
        return self.interiors[level].basis

    def _check_corner(self, q, resid: float) -> None:
        if not resid <= self.tolerances.corner:
            raise SpecMismatchError(
                f"index ({q}, .) leaves the truncation catalog (residual {resid:.2e})"
            )

    def _children(self, atom: int, depth) -> np.ndarray:
        """The atoms at the catalog depth under an atom at ``depth``, once
        per (atom, depth)."""
        kids = self._kids.get((atom, depth))
        if kids is None:
            a = self._atoms[atom]
            found = ([a] if depth == self._depth
                     else self.sys.model.children(a, depth, self._depth))
            kids = np.array([self._atom_at[k] for k in found], dtype=np.intp)
            self._kids[atom, depth] = kids
        return kids

    def _expansion(self, x: IndexColumns) -> CatalogColumns:
        """The catalog expansions of index columns, in one gather: column c
        has an entry for each child of its atom at the catalog depth and
        each nonzero entry of its value, its row read off the row table.
        Entries off the catalog may carry at most the corner tolerance of
        their column's weight."""
        top = self._depth
        if not self.sys.model.depth_leq(x.depth, top):
            raise SpecMismatchError(f"cannot refine depth {x.depth} to {top}")
        kids = [self._children(a, x.depth) for a in x.atoms.tolist()]
        n_kids = np.array([k.size for k in kids], dtype=np.intp)
        kids = np.concatenate([np.zeros(0, dtype=np.intp), *kids])
        v, i, j = np.nonzero(x.values)          # value-major, then row-major
        n_ent = np.bincount(v, minlength=len(x.values))
        # column c: each child of its atom, major, times each entry of its value
        kid0, nk = (np.cumsum(n_kids) - n_kids)[x.atom], n_kids[x.atom]
        ent0, ne = (np.cumsum(n_ent) - n_ent)[x.value], n_ent[x.value]
        count = nk * ne
        col = np.repeat(np.arange(len(x)), count)
        local = np.arange(col.size) - np.repeat(np.cumsum(count) - count, count)
        kid = kids[kid0[col] + local // ne[col]]
        ent = ent0[col] + local % ne[col]
        rows = self._rows[x.word[col], kid, i[ent], j[ent]]
        vals = x.values[v[ent], i[ent], j[ent]]
        inside = rows >= 0
        if not inside.all():
            w = np.abs(vals) ** 2
            total = np.bincount(col, w, minlength=len(x))
            outside = np.bincount(col, np.where(inside, 0.0, w), minlength=len(x))
            resid = (outside / np.maximum(1.0, total)) ** 0.5
            bad = np.flatnonzero(~(resid <= self.tolerances.corner))
            if bad.size:
                q = x.word[bad[0]]
                self._check_corner(self._words[q] if q >= 0 else
                                   f"a word past degree {self.degree}", resid[bad[0]])
        return CatalogColumns(rows[inside], col[inside], vals[inside], len(x))

    def _shifted(self, p: Element, x: IndexColumns) -> IndexColumns:
        """The columns (pq, alpha_p(atom (x) value)) of x: each letter of p,
        last first, maps the words and atoms through its tables, the depth
        by ``shift_depth`` and the value stack by its generator map."""
        model, maps = self.sys.model, self.sys.maps
        word, atoms, values, depth = x.word, x.atoms, x.values, x.depth
        for letter in reversed(self.sys.semigroup.as_word(p)):
            word = self._word_step[letter][word]
            atoms = self._atom_step[letter][atoms]
            values = maps[letter - 1].apply(values)
            depth = model.shift_depth(depth, letter)
        return IndexColumns(word, x.atom, x.value, atoms, values, depth)

    def _apply(self, x: CatalogColumns) -> np.ndarray:
        """B (X (x) I_h): the dilation-space images of the columns of x,
        shape (rank, width * h).  The (block, column) pairs of the entries
        are sorted once and every entry scattered into one buffer, which
        the blocks split into the dense rows of the columns touching them."""
        h = self.h
        blocks = self._block_of[x.rows]
        pairs, slot = np.unique(blocks * x.width + x.cols, return_inverse=True)
        pair_block, cols = np.divmod(pairs, x.width)    # by block, then column
        width = np.bincount(pair_block, minlength=len(self.factors))
        size = self._block_len * width
        start, offset = np.cumsum(width) - width, np.cumsum(size) - size
        flat = np.zeros(int(size.sum()), dtype=np.complex128)
        flat[offset[blocks] + self._pos[x.rows] * width[blocks]
             + slot - start[blocks]] = x.vals
        out = np.zeros((self.rank, x.width, h), dtype=np.complex128)
        for b in np.flatnonzero(width).tolist():
            f = self.factors[b]
            r = f.factor.shape[0]
            if r:
                s, w, o = start[b], width[b], offset[b]
                xb = flat[o:o + w * self._block_len[b]].reshape(-1, w)
                b3 = f.factor.reshape(r, -1, h).transpose(0, 2, 1)
                out[f.span][:, cols[s:s + w], :] = (b3 @ xb).transpose(0, 2, 1)
        return out.reshape(self.rank, x.width * h)

    def _pi_entries(self) -> tuple:
        """pi as the linear table ``scatter_pi`` reads, over the coefficients
        of an element at the catalog depth in ``vec`` order.  The positions
        are ``pi_layout``'s; the block a coefficient a[atom][i, c] places,
        from the group (atom, c) to (atom, i), is B_t C_s: the groups list
        their members in one (q, d) order (see ``GramAssembly``), so the
        member map between them is the identity, and a group to itself is
        the identity."""
        spans = self.pi_spans
        keys, pos, coef = pi_layout(spans, self.sys.base, self.rank)
        blocks, factors = self._col_block, self.factors
        return pos, coef, np.concatenate([np.zeros(0, dtype=np.complex128)] + [
            (np.eye(np.ptp(spans[k, c]), dtype=np.complex128) if i == c else
             factors[blocks[k, i]].factor @ factors[blocks[k, c]].cofactor).ravel()
            for k, i, c in keys])

    def _check_blocks(self, vec: np.ndarray) -> None:
        """A coefficient's column at (atom, c) may carry at most the corner
        tolerance outside the base block of c: one weight per (atom, column)
        of ``vec`` at the catalog depth."""
        dim = self.sys.base.dim
        w = np.abs(vec.reshape(-1, dim, dim)) ** 2
        outside = np.where(self._off_block, w, 0.0).sum(axis=1)
        resid = (outside / np.maximum(1.0, w.sum(axis=1))) ** 0.5
        bad = np.argwhere((self._col_block >= 0) & (outside != 0)
                          & ~(resid <= self.tolerances.corner))
        if bad.size:
            k, c = bad[0]
            s = self._col_block[k, c]
            self._check_corner(self.assembly.catalog[self.factors[s].rows[0]].q,
                               resid[k, c])

    # -- operators ---------------------------------------------------------------

    def pi(self, a: LevelledElement) -> np.ndarray:
        """The representation matrix of an algebra element (exact on the
        whole truncated space as long as products stay inside the catalog),
        one ``scatter_pi`` of the table ``_pi_entries`` builds with the
        result; over a scalar base pi(atom (x) z) is z times the projection
        onto the block of atom."""
        vec = a.vec(self._depth)
        key = vec.tobytes()
        hit = self._pi_cache.get(key)
        if hit is not None:
            return hit
        dim = self.sys.base.dim
        if vec.reshape(-1, dim, dim)[:, self._off_block].any():
            self._check_blocks(vec)
        out = self._pi_cache[key] = scatter_pi(self.pi_table, self.rank, vec)
        return out

    def v_word(self, p: Element) -> np.ndarray:
        """The shift matrix of a word, built from the interior with matching
        headroom; correct on that interior and zero on its complement."""
        p = tuple(p)
        hit = self._v_cache.get(p)
        if hit is not None:
            return hit
        sg = self.sys.semigroup
        level = sg.length(p)
        if level > self.degree:
            raise SpecMismatchError(
                f"word of length {level} exceeds truncation degree {self.degree}"
            )
        if level == 0:
            out = np.eye(self.rank, dtype=np.complex128)
        else:
            sg.validate_element(p)
            interior = self.interiors[level]
            shifted = self._expansion(self._shifted(p, interior.columns))
            # V(p) B X = B S_p X on the interior, and B X W S^-1 = U
            out = (self._apply(shifted) @ interior.pullback) @ interior.basis.conj().T
        self._v_cache[p] = out
        return out


def pi_layout(spans: np.ndarray, base: BaseAlgebra, rank: int) -> tuple:
    """Where pi's table puts a[atom k][i, c], i and c in one base block:
    at the rows of the span of the group (atom k, i) and the columns of
    that of (atom k, c), ``spans[k, x]`` the (start, stop) of the group
    (atom k, x), empty without one.  Returns the (k, i, c) of the nonempty
    blocks in table order and their flat positions and coefficient numbers."""
    atoms, dim = spans.shape[:2]
    # atom-major, then (c, i) in the order of the base's unit positions
    c, i = np.tile(np.array(base.unit_positions(), dtype=np.intp), (atoms, 1)).T
    k = np.repeat(np.arange(atoms), base.linear_dim)
    start, size = spans[..., 0], spans[..., 1] - spans[..., 0]
    count = size[k, i] * size[k, c]
    block = np.repeat(np.arange(k.size), count)     # row-major in each block
    local = np.arange(block.size) - np.repeat(np.cumsum(count) - count, count)
    row, col = np.divmod(local, size[k, c][block])
    pos = (start[k, i][block] + row) * rank + start[k, c][block] + col
    return (np.stack([k, i, c], -1)[count > 0].tolist(), pos,
            ((k * dim + i) * dim + c)[block])


def scatter_pi(table: tuple, rank: int, vec: np.ndarray) -> np.ndarray:
    """pi(a) off a table (positions, coefficient, values) and the ``vec``
    of a at the catalog depth: zero but at the flat positions, where it is
    a's coefficient number ``coefficient`` times ``values``."""
    pos, coef, vals = table
    z = vec[coef]
    live = z != 0
    out = np.zeros(rank * rank, dtype=np.complex128)
    out[pos[live]] = z[live] * vals[live]
    return out.reshape(rank, rank)


def _interiors_for(result: DilationResult) -> dict[int, Interior]:
    """Interior k: the indices (q, atom (x) e_ij) with q of length at most
    d = degree - k and the atom one at depth d under E_q (when its first
    child at the catalog depth is, as the row table tells), in catalog
    order.  An (atom, i) group of them expands into the Gram groups
    (child, i) alone, so ``factor_hermitian`` factors the image group by
    group, by Y* Y, and the basis is the image times the cofactors."""
    model, units, h = result.sys.model, len(result._unit_stack), result.h
    positions = np.array(result.sys.base.unit_positions())
    i, j = positions[0]
    lengths = np.array([result.sys.semigroup.length(q) for q in result._words])
    out = {0: Interior(None, np.eye(result.rank, dtype=np.complex128), None)}
    for level in range(1, result.degree + 1):
        d = result.degree - level
        depth = model.normalize_depth(d)
        atoms = np.array([result._atom_at[a] for a in model.atoms(depth)])
        first = [result._children(a, depth)[0] for a in atoms.tolist()]
        # the catalog lists its words by length, so the short ones lead
        word, atom = np.nonzero(result._rows[:np.sum(lengths <= d)][:, first, i, j] >= 0)
        columns = IndexColumns(np.repeat(word, units), np.repeat(atom, units),
                               np.tile(np.arange(units), word.size), atoms,
                               result._unit_stack, depth)
        image = result._apply(result._expansion(columns))
        group = columns.atom * units + positions[columns.value, 0]
        slots = [(np.flatnonzero(group == g)[:, None] * h + np.arange(h)).ravel()
                 for g in sorted(set(group.tolist()))]
        _, groups = factor_hermitian([image[:, s].conj().T @ image[:, s] for s in slots],
                                     slots, result.tolerances.rank)
        pullback = np.zeros((image.shape[1], groups[-1].span.stop), dtype=np.complex128)
        for f in groups:
            pullback[f.rows, f.span] = f.cofactor
        out[level] = Interior(columns, image @ pullback, pullback)
    return out


def factor_hermitian(blocks: list, rows: list, rtol: float) -> tuple[list, list]:
    """Each Hermitian block M = U diag(w) U* by its eigh, and, from the
    eigenvalues above ``rtol`` times the largest over all blocks, its factor
    F = w^1/2 U*, F* F = M but for the cut, and F's right inverse U w^-1/2,
    with spans block after block.  Returns the spectra (w, U), the factors."""
    spectra = [np.linalg.eigh(m) for m in blocks]
    cut = rtol * max([1e-300] + [float(w[-1]) for w, _ in spectra if w.size])
    factors, start = [], 0
    for r, (w, u) in zip(rows, spectra):
        root, uk = np.sqrt(w[w > cut]), u[:, w > cut]
        factors.append(BlockFactor(r, slice(start, start + root.size),
                                   root[:, None] * uk.conj().T, uk * (1.0 / root)))
        start += root.size
    return spectra, factors


# ---------------------------------------------------------------------------
# the core construction
# ---------------------------------------------------------------------------


def naimark_dilate(
    kernel: KernelSystem,
    degree: int,
    tolerances: Optional[Tolerances] = None,
    assembly: Optional[GramAssembly] = None,
    max_dim: int = DEFAULT_MAX_GRAM_DIM,
) -> DilationResult:
    """Quotient-and-complete the index catalog of a positive kernel.

    Raises GramNotPositiveError when the Gram operator has an eigenvalue
    below the relative tolerance; otherwise returns the dilation with its
    core verification report (isometry of the shifts, the intertwining
    relation, and reproduction of the kernel by compression).  Each Gram
    block is diagonalized on its own; the PSD scale and the rank cut use
    the largest eigenvalue over all blocks.  A given ``assembly`` must list
    block members in the order ``GramAssembly`` states, as
    ``assemble_gram``'s does.
    """
    tols = tolerances or Tolerances()
    if assembly is None:
        assembly = assemble_gram(kernel, degree, max_dim=max_dim)
    report = ValidationReport()

    # a non-finite Gram can make LAPACK return NaNs or fail to converge
    for block in assembly.blocks:
        bad = np.argwhere(~np.isfinite(block.matrix))
        if bad.size:
            e = assembly.expanded_rows(block.rows)
            raise SpecMismatchError(
                f"the {assembly.size}-row Gram operator has a non-finite "
                f"entry at {tuple(int(e[k]) for k in bad[0])}"
            )
    spectra, factors = factor_hermitian([b.matrix for b in assembly.blocks],
                                        [b.rows for b in assembly.blocks], tols.rank)
    w = np.sort(np.concatenate([wb for wb, _ in spectra]))
    scale = max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    # The Gram records' cases are the blocks in catalog order, which would
    # pick a named block; only a refusal names its block, with the labels.
    psd = report.at_least("gram.psd",
                          [(wb[0], b) for b, (wb, _) in enumerate(spectra)],
                          -tols.psd * scale, detail="")
    if not psd.passed:    # the least eigenvector, zero-padded to the catalog
        block = assembly.blocks[psd.witness]
        witness = np.zeros(assembly.size, dtype=np.complex128)
        witness[assembly.expanded_rows(block.rows)] = spectra[psd.witness][1][:, 0]
        raise GramNotPositiveError(
            psd.value, scale, witness=witness, group=block.key,
            labels=[assembly.catalog[r].label for r in block.rows.tolist()])
    # eigh reads one triangle, so the blocks it factors are measured too
    report.at_most("gram.hermitian_assembly",
                   [(assembly.hermiticity_defect, "")]
                   + _normed((b.matrix - b.matrix.conj().T, "") for b in assembly.blocks),
                   tols.identity)

    # the residual is Hermitian, so its norm is its largest |eigenvalue|
    resid = [np.abs(np.linalg.eigvalsh(b.matrix - f.factor.conj().T @ f.factor)).max()
             for b, f in zip(assembly.blocks, factors)]
    report.at_most("gram.factorization", [(float(r), "") for r in resid],
                   tols.psd * scale)

    result = DilationResult(assembly, tols, w, factors, report)
    _run_checks(result, report, (
        _check_embedding, _check_representation, _check_reproduces_kernel))
    return result


def _sample_words(sg, degree: int, max_len: int = 2) -> list[Element]:
    return [p for p in sg.enumerate_up_to(min(degree, max_len)) if sg.length(p) >= 1]


def stored_pi_depth(sys: LcmSystem, degree: int) -> int:
    """Depth of the algebra basis the suite reads pi on, and a persisted
    result's pi up to: 1 at degree >= 1, since the depth-1 basis spans every
    depth-0 element, else 0, in the model's own depths (0 on point models)."""
    return sys.model.depth_max(sys.model.normalize_depth(min(degree, 1)))


def _pi_basis(src) -> list[tuple[str, LevelledElement]]:
    sys_, top = src.sys, stored_pi_depth(src.sys, src.degree)
    return [(f"d{d}:{lbl}", b) for d in range(top + 1)
            for lbl, b in zip(sys_.basis_labels(d), sys_.algebra_basis(d))]


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------
#
# Every identity is checked by one function, over an operator source: a live
# DilationResult or a persisted persist.StoredDilation.  A source provides
# pi(a) for elements of depth at most ``pi_depth``, v_word(p), which is exact
# on the interior of level word_level(p), ``embedding`` and
# interior_basis(level), plus sys, T, phi, degree, rank and tolerances.  A
# case whose pi argument is deeper than ``pi_depth``, or whose word needs more
# headroom than the degree, is skipped.  Both sources scatter one pi table,
# but only a stored one skips any: it builds V(p) as a product of generator
# shifts, and keeps ``pi_depth`` at ``stored_pi_depth``, since its residual
# table vouches for the deeper cases and running them made ``verify`` 16 % and
# 45 % slower on the perfbench ``abelian_gram`` and ``free_boundary`` results.


def _depth(src, x: LevelledElement) -> int:
    return src.sys.model.depth_max(x.depth)


def identity_suite(src) -> ValidationReport:
    """Every identity that needs only the operators of ``src``, in the order
    ``covariant_dilate`` reports them."""
    return _run_checks(src, ValidationReport(), (
        _check_embedding, _check_representation, _check_covariance,
        _check_compressions))


def _run_checks(src, report: ValidationReport, checks) -> ValidationReport:
    """Run the checks in order.  A residual that overflows is inf or NaN
    and fails its record, so numpy's overflow and invalid-value warnings
    say nothing more and are off."""
    with np.errstate(over="ignore", invalid="ignore"):
        for check in checks:
            check(src, report)
    return report


def _normed(cases) -> list:
    """(operator norm, label) of each (residual matrix, label) case, the
    norms batched by ``operator_norms``."""
    cases = list(cases)
    norms = operator_norms([mat for mat, _ in cases])
    return [(v, label) for v, (_, label) in zip(norms.tolist(), cases)]


def _check_embedding(src, report: ValidationReport) -> None:
    emb = src.embedding
    report.at_most("embedding.isometric",
                   _normed([(emb.conj().T @ emb - np.eye(emb.shape[1]), "")]),
                   src.tolerances.identity)


def _check_representation(src, report: ValidationReport) -> None:
    """pi is a unital *-homomorphism, the generator shifts are isometric on
    the first interior, and they intertwine pi with the action."""
    tol = src.tolerances.identity
    sg = src.sys.semigroup

    basis = _pi_basis(src)
    pis = {lbl: src.pi(b) for lbl, b in basis}

    report.at_most("pi.unital",
                   _normed([(src.pi(src.sys.unit()) - np.eye(src.rank), "")]), tol)

    report.at_most("pi.star", _normed((src.pi(b.star()) - pis[lbl].conj().T, lbl)
                                      for lbl, b in basis), tol)

    small = basis[: min(len(basis), 8)]
    report.at_most("pi.multiplicative",
                   _normed((pis[l1] @ pis[l2] - src.pi(b1 * b2), f"({l1}, {l2})")
                           for (l1, b1), (l2, b2) in itertools.product(small, repeat=2)),
                   tol)

    if src.degree >= 1:
        _check_isometries(src, report)

    # intertwining V(p) pi(a) = pi(alpha_p(a)) V(p); the interior level must
    # absorb both the word and the depth of a
    def intertwine():
        for p in _sample_words(sg, src.degree):
            level = src.word_level(p)
            vp = src.v_word(p)
            for lbl, a in basis:
                lvl = level + _depth(src, a)
                if lvl > src.degree:
                    continue
                shifted = src.sys.apply_endo(p, a)
                if _depth(src, shifted) > src.pi_depth:
                    continue
                qb = src.interior_basis(lvl)
                yield ((vp @ pis[lbl] - src.pi(shifted) @ vp) @ qb, f"(p={p}, a={lbl})")
    report.at_most("covariance.intertwine", _normed(intertwine()), tol)


def _check_isometries(src, report: ValidationReport) -> None:
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
                   _normed((orthonormality(k), f"level {k}")
                           for k in range(1, src.degree + 1)), tol)

    def isometry_defect(p) -> np.ndarray:
        v, qb = src.v_word(p), src.interior_basis(sg.gen_count(p))
        return qb.conj().T @ (v.conj().T @ v) @ qb - np.eye(qb.shape[1])

    for g, gen in enumerate(sg.generators, start=1):
        report.at_most(f"isometry.V[{g}]", _normed([(isometry_defect(gen), "")]), tol)
    if src.degree >= 2:
        report.at_most("isometry.V[w]", _normed((isometry_defect(p), f"w={p}")
                                                for p in sg.enumerate_up_to(src.degree)
                                                if 2 <= sg.gen_count(p) <= src.degree),
                       tol)

    q1 = src.interior_basis(1)
    off = np.eye(src.rank) - q1 @ q1.conj().T
    report.at_most("isometry.zero_off_interior",
                   _normed((src.v_word(gen) @ off, f"V[{g}]")
                           for g, gen in enumerate(sg.generators, start=1)), tol)


def _check_covariance(src, report: ValidationReport) -> None:
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
        for p in _sample_words(sg, degree):
            level = src.word_level(p)
            e_p = src.sys.unit_projection(p)
            if level > degree or _depth(src, e_p) > src.pi_depth:
                continue
            vp = src.v_word(p)
            qb = src.interior_basis(level)
            yield (vp @ vp.conj().T - src.pi(e_p)) @ qb, f"p={p}"
    report.at_most("covariance.range_projection", _normed(range_projections()), tol)

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
    report.at_most("covariance.nica", _normed(nica()), tol)


def _check_compressions(src, report: ValidationReport) -> None:
    """Compressing to the embedded space gives back (phi, T), and that space
    is co-invariant."""
    tol = src.tolerances.identity
    sg = src.sys.semigroup
    emb = src.embedding

    report.at_most("compression.phi",
                   _normed((emb.conj().T @ src.pi(a) @ emb - src.phi.value(a), lbl)
                           for lbl, a in _pi_basis(src)), tol)
    report.at_most("compression.T",
                   _normed((emb.conj().T @ src.v_word(p) @ emb - src.T(p), f"p={p}")
                           for p in sg.enumerate_up_to(src.degree)
                           if src.word_level(p) <= src.degree), tol)

    # co-invariance: P_H V(p) vanishes on the complement of H inside interiors
    ph = emb @ emb.conj().T

    def coinvariance():
        for p in _sample_words(sg, src.degree):
            level = src.word_level(p)
            if level > src.degree:
                continue
            qb = src.interior_basis(level)
            yield (emb.conj().T @ src.v_word(p) @ (np.eye(src.rank) - ph) @ qb,
                   f"p={p}")
    report.at_most("covariance.coinvariant", _normed(coinvariance()), tol)


def _check_reproduces_kernel(result: DilationResult,
                             report: ValidationReport) -> None:
    """Compressing V(p)* pi(a) V(q) to the embedded space reproduces the
    kernel (needs the kernel, so a live result only)."""
    sg = result.sys.semigroup
    words = _sample_words(sg, result.degree, 1) + [sg.identity]
    lifts = {p: result.v_word(p) @ result.embedding for p in words}

    def residuals():
        for p, q in itertools.product(words, repeat=2):
            corner = result.sys.corner_basis(p, q, result.degree)
            for k, a in enumerate(corner.elements[:4]):
                lhs = result.kernel.evaluate(p, a, q)
                rhs = lifts[p].conj().T @ result.pi(a) @ lifts[q]
                yield lhs - rhs, f"(p={p}, q={q}, a#{k})"
    report.at_most("dilation.reproduces_kernel", _normed(residuals()),
                   result.tolerances.identity)


# ---------------------------------------------------------------------------
# covariant dilation and its additional identities
# ---------------------------------------------------------------------------


def covariant_dilate(
    sys: LcmSystem,
    phi: LevelledOperatorMap,
    T: ContractionFamily,
    degree: int,
    tolerances: Optional[Tolerances] = None,
    max_dim: int = DEFAULT_MAX_GRAM_DIM,
) -> DilationResult:
    """Dilate a contractive covariant pair to an isometric covariant one.

    Refuses a Gram operator above ``max_dim`` first, then builds the kernel
    from the pair (validating covariance), runs the core construction, and
    verifies the covariant identities: range projections match the
    represented unit projections, the adjoint of the shift acts by the lcm
    formula, the compressions reproduce (phi, T), the original space is
    co-invariant, and the range projections satisfy the Nica rule.
    """
    tols = tolerances or Tolerances()
    check_gram_size(sys, T.h, degree, max_dim)
    kernel = KernelSystem(sys, phi, T, validate=True, tol=tols.covariance)
    result = naimark_dilate(kernel, degree, tolerances=tols, max_dim=max_dim)
    _run_checks(result, result.report, (
        _check_covariance, _check_adjoint_formula, _check_word_product,
        _check_compressions))
    return result


def _check_word_product(result: DilationResult, report: ValidationReport) -> None:
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
    report.at_most("covariance.word_product", _normed(residuals()),
                   result.tolerances.identity)


def _check_adjoint_formula(result: DilationResult, report: ValidationReport) -> None:
    report.at_most("covariance.adjoint_formula", _adjoint_formula_residual(result),
                   result.tolerances.identity)


ADJOINT_PAIRS = 24   # catalog rows the adjoint formula is checked on


def _adjoint_formula_residual(result: DilationResult) -> list:
    """Check V(g)* delta_(q,b) against the lcm formula on the first
    ``ADJOINT_PAIRS`` catalog rows: one (norm, "p=generator") case per
    generator g.

    With r = lcm(g, q), V(g)* delta_(q,b) is delta_(g\\r, alpha_g^-1(b)) (x)
    T(q\\r)*, and 0 without an lcm or off E_g.  V(g) is built on the first
    interior Q_1 and vanishes off it, so the case is Q_1* (V(g)* B U - B W T*):
    U the catalog rows as unit columns, W the formula indices, and T(q\\r)*
    acting on the h slot of each column of B W.
    """
    sg = result.sys.semigroup
    model = result.sys.model
    h = result.h
    catalog = result.assembly.catalog[:ADJOINT_PAIRS]
    m = len(catalog)
    bu = result._apply(CatalogColumns(np.arange(m), np.arange(m),
                                      np.ones(m, dtype=np.complex128), m))
    unit_at = {pos: k for k, pos in enumerate(result.sys.base.unit_positions())}
    cases = []
    for letter, gen in enumerate(sg.generators, start=1):
        level = sg.length(gen)
        if level > result.degree:
            continue
        # alpha_gen^-1 of a catalog index: the catalog depth holds E_gen, so
        # the atom unshifts as it is; off E_gen, or without an lcm, V* u = 0
        # and its column of W is empty
        cols, index = [], []
        t_adj = np.zeros((m, h, h), dtype=np.complex128)
        for c, idx in enumerate(catalog):
            r = sg.lcm(gen, idx.q)
            atom, i, j = idx.key
            b = None if r is None else model.unshift(atom, letter)
            if b is not None:
                cols.append(c)
                index.append((result._word_at[sg.left_divide(gen, r)],
                              result._atom_at[b], unit_at[i, j]))
                t_adj[c] = result.T(sg.left_divide(idx.q, r)).conj().T
        word, atom, value = np.array(index, dtype=np.intp).reshape(-1, 3).T
        w = result._expansion(IndexColumns(
            word, np.arange(word.size), value, atom,
            result.sys.maps[letter - 1].apply_inverse(result._unit_stack),
            model.unshift_depth(result._depth, letter)))
        w = CatalogColumns(w.rows, np.array(cols, dtype=np.intp)[w.cols], w.vals, m)
        bw = result._apply(w).reshape(result.rank, m, h).transpose(1, 0, 2)
        bwt = (bw @ t_adj).transpose(1, 0, 2).reshape(result.rank, m * h)
        q1 = result.interior_basis(level)
        cases.append((q1.conj().T @ (result.v_word(gen).conj().T @ bu - bwt),
                      f"p={gen}"))
    return _normed(cases)
