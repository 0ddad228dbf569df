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
tables built once per catalog: each letter's word map q -> gq and atom map
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

from .algebras import BaseAlgebra, LevelledElement, Memo, frozen, operator_norms
from .cpmaps import (
    PSD_RTOL,
    _combine,
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
    gram_plan,
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


class DilationResult(Memo):
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
        self.word_level = self.sys.semigroup.length     # v_word(p) is exact there
        self.h = assembly.h
        self.tolerances = tolerances
        self.eigenvalues = eigenvalues
        self.factors = factors
        self.rank = sum(f.factor.shape[0] for f in factors)
        self.report = report
        self._block_of = np.empty(len(assembly.catalog), dtype=np.intp)
        self._pos = np.empty(len(assembly.catalog), dtype=np.intp)
        for b, f in enumerate(factors):
            self._block_of[f.rows] = b
            self._pos[f.rows] = np.arange(len(f.rows))
        self._block_len = np.array([len(f.rows) for f in factors], dtype=np.intp)
        self._block_at = {blk.key: b for b, blk in enumerate(assembly.blocks)}
        self._v_cache = {self.sys.semigroup.identity: np.eye(self.rank, dtype=np.complex128)}
        # The gather tables and the memo of the index expansions off them
        # depend on the catalog alone: results over the system's own catalog
        # (``gram_plan``'s) share them per degree and corner tolerance.
        own = assembly.catalog is gram_plan(self.sys, self.degree).catalog
        vars(self).update(self.sys.cached(("catalog", self.degree, tolerances.corner),
                                          lambda: _catalog_tables(self))
                          if own else _catalog_tables(self))
        top, dim = self.sys.model.atoms(self._depth), self.sys.base.dim
        # the block of group (atom, c) at each (atom, column c), or -1
        self._col_block = np.array([[self._block_at.get((a, c), -1) for c in range(dim)]
                                    for a in top], dtype=np.intp)
        # the span of group (atom, c) at each (atom, column c), empty without one
        self.pi_spans = np.array([(f.span.start, f.span.stop) for f in factors]
                                 + [(0, 0)], dtype=np.int64)[self._col_block]
        self.pi_table = self._pi_entries()

        self.interiors = _interiors_for(self)
        zero, first = self.sys.model.zero_depth(), np.zeros(1, dtype=np.intp)
        (atom,) = self.sys.model.atoms(zero)    # the unit is one atom at depth 0
        self.embedding = self._apply(self._expansion(IndexColumns(
            np.array([self._word_at[self.sys.semigroup.identity]]), first, first,
            np.array([self._atom_at[atom]]), self.sys.base.unit()[None], zero)))

    # -- geometry ---------------------------------------------------------------

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
        """The atoms at the catalog depth under an atom at ``depth``."""
        a = self._atoms[atom]
        found = [a] if depth == self._depth else self.sys.model.children(a, depth, self._depth)
        return np.array([self._atom_at[k] for k in found], dtype=np.intp)

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
        of ``vec`` at the catalog depth, or of each row of a stack."""
        w = np.abs(vec.reshape(-1, *self._col_block.shape, self.sys.base.dim)) ** 2
        outside = np.where(self._off_block, w, 0.0).sum(axis=-2)
        resid = (outside / np.maximum(1.0, w.sum(axis=-2))) ** 0.5
        bad = np.argwhere((self._col_block >= 0) & (outside != 0)
                          & ~(resid <= self.tolerances.corner))
        if bad.size:
            s = self._col_block[tuple(bad[0][1:])]
            self._check_corner(self.assembly.catalog[self.factors[s].rows[0]].q,
                               resid[tuple(bad[0])])

    # -- operators ---------------------------------------------------------------

    def pi(self, a) -> np.ndarray:
        """The representation matrix of an algebra element, or their stack over
        ``vec`` rows at the catalog depth (exact while products stay inside the
        catalog): one ``scatter_pi`` of the table ``_pi_entries`` builds; over a
        scalar base pi(atom (x) z) is z times the projection onto atom's block."""
        vec = a.vec(self._depth) if isinstance(a, LevelledElement) else a
        dim = self.sys.base.dim
        if vec.reshape(-1, dim, dim)[:, self._off_block].any():
            self._check_blocks(vec)
        return scatter_pi(self.pi_table, self.rank, vec)

    def v_word(self, p) -> np.ndarray:
        """The shift matrix of a word, built from the interior with matching
        headroom; correct on that interior and zero on its complement.  Of
        a list of words, the stack of their matrices: the words of a length
        not built yet go through one ``_apply`` per chunk of at most
        ``CHUNK_BYTES`` of images."""
        if not isinstance(p, list):
            return self.v_word([p])[0]
        words, sg, todo = [tuple(w) for w in p], self.sys.semigroup, {}
        for w in [w for w in dict.fromkeys(words) if w not in self._v_cache]:
            level = sg.length(w)
            if level > self.degree:
                raise SpecMismatchError(f"word of length {level} exceeds truncation "
                                        f"degree {self.degree}")
            sg.validate_element(w)
            todo.setdefault(level, []).append(w)
        for level, level_words in todo.items():
            interior = self.interiors[level]
            width = len(interior.columns)
            step = max(1, CHUNK_BYTES // (16 * max(1, self.rank * width * self.h)))
            for k in range(0, len(level_words), step):
                chunk = level_words[k:k + step]
                cols = [self.cached(("word", w), lambda: self._expansion(
                    self._shifted(w, interior.columns))) for w in chunk]
                # the chunk's shifted columns side by side, word j's at j * width
                x = CatalogColumns(*(np.concatenate(a) for a in zip(*(
                    (c.rows, c.cols + j * width, c.vals) for j, c in enumerate(cols)))),
                    width * len(chunk))
                image = self._apply(x).reshape(self.rank, len(chunk), -1).transpose(1, 0, 2)
                # V(p) B X = B S_p X on the interior, and B X W S^-1 = U
                out = (image @ interior.pullback) @ interior.basis.conj().T
                self._v_cache.update(zip(chunk, out))
        return np.array([self._v_cache[w] for w in words], np.complex128).reshape(
            len(words), self.rank, self.rank)


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
    of a at the catalog depth, or the stack of pi over a stack of ``vec``
    rows: zero but at the flat positions, where it is a's coefficient
    number ``coefficient`` times ``values`` (and +0 where that is 0)."""
    pos, coef, vals = table
    z = vec[..., coef]
    out = np.zeros(vec.shape[:-1] + (rank * rank,), dtype=np.complex128)
    out[..., pos] = np.where(z != 0, z * vals, 0)
    return out.reshape(vec.shape[:-1] + (rank, rank))


def _catalog_tables(result: DilationResult) -> dict:
    """The gather tables, as the result's attributes.  Words are the
    catalog's; atoms are every atom up to the catalog depth, those at the
    catalog depth first.  A letter's word and atom maps send an index
    outside to -1, and -1 to itself (the appended last entry); the row
    table's appended last word has no rows.  ``_memo`` starts empty."""
    sg, model, catalog = result.sys.semigroup, result.sys.model, result.assembly.catalog
    depth = model.normalize_depth(result.degree)
    words = sg.enumerate_up_to(result.degree)
    word_at = {q: k for k, q in enumerate(words)}
    top = model.atoms(depth)
    atoms = list(dict.fromkeys(itertools.chain(
        top, *(model.atoms(model.normalize_depth(d)) for d in range(result.degree)))))
    atom_at = {a: k for k, a in enumerate(atoms)}
    word_step = {letter: frozen([word_at.get(sg.multiply(g, q), -1) for q in words] + [-1])
                 for letter, g in enumerate(sg.generators, start=1)}
    atom_step = {letter: frozen([atom_at.get(model.shift(a, letter), -1) for a in atoms] + [-1])
                 for letter in word_step}
    rows = np.full((len(words) + 1, len(top)) + (result.sys.base.dim,) * 2, -1, dtype=np.intp)
    keys = [(word_at[idx.q], atom_at[idx.key[0]], *idx.key[1:]) for idx in catalog]
    rows[tuple(np.array(keys, dtype=np.intp).reshape(-1, 4).T)] = np.arange(len(catalog))
    block_id = np.repeat(np.arange(len(result.sys.base.blocks)), result.sys.base.blocks)
    return dict(_depth=depth, _words=words, _word_at=word_at, _atoms=atoms, _atom_at=atom_at,
                _word_step=word_step, _atom_step=atom_step, _rows=frozen(rows),
                _unit_stack=frozen(result.sys.base.basis()),
                _off_block=frozen(block_id[:, None] != block_id), _memo={})


def _interiors_for(result: DilationResult) -> dict[int, Interior]:
    """Interior k: the indices (q, atom (x) e_ij) with q of length at most
    d = degree - k and the atom one at depth d under E_q (when its first
    child at the catalog depth is, as the row table tells), in catalog
    order.  An (atom, i) group of them expands into the Gram groups
    (child, i) alone, so ``factor_hermitian`` factors the image group by
    group, by Y* Y, and the basis is the image times the cofactors.  The
    columns, their expansion and each group's members are memoised."""
    model, units = result.sys.model, len(result._unit_stack)
    positions = np.array(result.sys.base.unit_positions())
    i, j = positions[0]
    lengths = np.array([result.sys.semigroup.length(q) for q in result._words])

    def columns_at(d: int) -> tuple:
        depth = model.normalize_depth(d)
        atoms = np.array([result._atom_at[a] for a in model.atoms(depth)])
        first = [result._children(a, depth)[0] for a in atoms.tolist()]
        # the catalog lists its words by length, so the short ones lead
        word, atom = np.nonzero(result._rows[:np.sum(lengths <= d)][:, first, i, j] >= 0)
        columns = IndexColumns(np.repeat(word, units), np.repeat(atom, units),
                               np.tile(np.arange(units), word.size), atoms,
                               result._unit_stack, depth)
        group = columns.atom * units + positions[columns.value, 0]
        return columns, result._expansion(columns), [
            np.flatnonzero(group == g) for g in sorted(set(group.tolist()))]
    out = {0: Interior(None, np.eye(result.rank, dtype=np.complex128), None)}
    for level in range(1, result.degree + 1):
        columns, expansion, groups = result.cached(
            ("interior", level), lambda: columns_at(result.degree - level))
        image, h = result._apply(expansion), result.h
        slots = [(g[:, None] * h + np.arange(h)).ravel() for g in groups]
        _, factors = factor_hermitian([image[:, s].conj().T @ image[:, s] for s in slots],
                                      slots, result.tolerances.rank)
        pullback = np.zeros((image.shape[1], factors[-1].span.stop), dtype=np.complex128)
        for f in factors:
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
                   [(assembly.hermiticity_defect, "")] + [(v, "") for v in operator_norms(
                       [b.matrix - b.matrix.conj().T for b in assembly.blocks]).tolist()],
                   tols.identity)

    # the residual is Hermitian, so its norm is its largest |eigenvalue|
    resid = [np.abs(np.linalg.eigvalsh(b.matrix - f.factor.conj().T @ f.factor)).max()
             for b, f in zip(assembly.blocks, factors)]
    report.at_most("gram.factorization", [(float(r), "") for r in resid],
                   tols.psd * scale)

    result = DilationResult(assembly, tols, w, factors, report)
    _run_checks(result, report, (_check_representation, _check_reproduces_kernel))
    return result


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
# DilationResult or a persisted persist.StoredDilation.  A source provides pi
# of an element or of a stack of ``vec`` rows at the catalog depth, v_word of
# a word or of a list of words (a stack), exact on the interior of level
# word_level(p), ``embedding`` and interior_basis(level), plus sys, T, phi,
# degree, pi_depth, rank and tolerances.  A stored source builds V(p) as a
# product of generator shifts and leaves out the cases whose pi argument is
# deeper than its ``pi_depth``, ``stored_pi_depth``: its residual table
# vouches for them, and running them made ``verify`` 16 % and 45 % slower on
# the perfbench ``abelian_gram`` and ``free_boundary`` results.
#
# The case plan (``SuitePlan``) is what the system and the degree fix: built
# once in the system's memo, keyed on the degree, ``pi_depth`` and the
# ``word_level`` rule, and read-only; a live result's index expansions are
# memoised once per catalog with its gather tables.  A solve does numeric
# work alone: pi of each record's rows as one stack, V of a list of words as
# one stack, a corner's kernel values by one ``KernelSystem.evaluate`` of its
# coordinate rows, and each record's residuals as stacked products.

CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class SuitePlan:
    """``cases`` maps a record's name to its case labels, each case's interior
    level (0: the whole space), index columns (a word column indexes ``words``,
    an element column the rows) and the pi arguments' ``vec`` rows, each once."""

    words: list
    cases: dict
    kernel: list              # (p, q, depth, coordinates) per corner of reproduces_kernel


def _plan(src) -> SuitePlan:
    return src.sys.cached(("suite", src.degree, src.pi_depth, src.word_level.__name__),
                          lambda: _make_plan(src))


def _make_plan(src) -> SuitePlan:
    """Every record's cases, as (label, level, column...) rows: a column is
    a word, an element (its coefficient row) or an int."""
    sys_, sg, degree, model = src.sys, src.sys.semigroup, src.degree, src.sys.model
    top, level, n = model.normalize_depth(degree), src.word_level, sg.gen_count
    size, words, depth = len(model.atoms(top)) * sys_.base.dim ** 2, {}, model.depth_max

    def cases(rows) -> tuple:
        vecs: dict = {}

        def column(e) -> int:
            if isinstance(e, (tuple, int)):
                return e if isinstance(e, int) else words.setdefault(e, len(words))
            return vecs.setdefault((v := e.vec(top)).tobytes(), (len(vecs), v))[0]
        cols = [[column(e) for e in entries] for _, _, *entries in rows]
        return ([r[0] for r in rows], frozen([r[1] for r in rows], np.intp),
                frozen(np.array(cols, np.intp).reshape(len(rows), -1 if rows else 0)),
                frozen(np.array([v for _, v in vecs.values()],
                                np.complex128).reshape(len(vecs), size)))

    basis, gens, samples = _pi_basis(src), sg.generators, sg.enumerate_up_to(min(degree, 2))[1:]
    pairs, kernel, kcases = list(itertools.product(gens, repeat=2)), [], []
    for p, q in itertools.product(sg.enumerate_up_to(min(degree, 1))[1:] + [sg.identity],
                                  repeat=2):
        corner = sys_.corner_basis(p, q, degree)
        if len(corner):
            r = sg.lcm(p, q)
            d = corner.depth if r is None else model.join_depth(corner.depth, sys_.depth_of(r))
            kernel.append((p, q, d, frozen([a.coordinates(d) for a in corner.elements[:4]])))
            kcases += [(f"(p={p}, q={q}, a#{k})", 0, p, q, a, len(kcases) + k)
                       for k, a in enumerate(corner.elements[:4])]
    plan = {
        "embedding.isometric": [("", 0)],
        "pi.unital": [("", 0, sys_.unit())],
        "pi.star": [(lbl, 0, b, b.star()) for lbl, b in basis],
        "pi.multiplicative": [(f"({l1}, {l2})", 0, b1, b2, b1 * b2)
                              for (l1, b1), (l2, b2) in itertools.product(basis[:8], repeat=2)],
        "interior.orthonormal": [(f"level {k}", k) for k in range(1, degree + 1)],
        **{f"isometry.V[{g}]": [("", n(gen), gen)] for g, gen in enumerate(gens, 1)},
        "isometry.V[w]": [(f"w={p}", n(p), p) for p in sg.enumerate_up_to(degree)
                          if 2 <= n(p) <= degree],
        "isometry.zero_off_interior": [(f"V[{g}]", 1, gen) for g, gen in enumerate(gens, 1)],
        # V(p) pi(a) = pi(alpha_p(a)) V(p): the level absorbs p and a's depth
        "covariance.intertwine": [
            (f"(p={p}, a={lbl})", level(p) + depth(a.depth), p, a, shifted)
            for p in samples for lbl, a in basis if level(p) + depth(a.depth) <= degree
            and depth((shifted := sys_.apply_endo(p, a)).depth) <= src.pi_depth],
        "covariance.range_projection": [
            (f"p={p}", level(p), p, e) for p in samples if level(p) <= degree
            and depth((e := sys_.unit_projection(p)).depth) <= src.pi_depth],
        "covariance.nica": [(f"(p={p}, q={q})", level(p) + level(q), p, q,
                             -1 if (r := sg.lcm(p, q)) is None else r)
                            for p, q in pairs if level(p) + level(q) <= degree],
        "compression.phi": [(lbl, 0, a, k) for k, (lbl, a) in enumerate(basis)],
        "compression.T": [(f"p={p}", 0, p) for p in sg.enumerate_up_to(degree)
                          if level(p) <= degree],
        "covariance.coinvariant": [(f"p={p}", level(p), p) for p in samples
                                   if level(p) <= degree],
        "dilation.reproduces_kernel": kcases,
        "covariance.word_product": [(f"w={sg.multiply(g1, g2)}", 2, sg.multiply(g1, g2),
                                     g1, g2) for g1, g2 in pairs if degree >= 2],
    }
    plan = {name: cases(rows) for name, rows in plan.items()}    # fills the words
    return SuitePlan(list(words), plan, kernel)


def identity_suite(src) -> ValidationReport:
    """Every identity that needs only the operators of ``src``, in the order
    ``covariant_dilate`` reports them."""
    return _run_checks(src, ValidationReport(), (
        _check_representation, _check_covariance, _check_compressions))


def _run_checks(src, report: ValidationReport, checks) -> ValidationReport:
    """Run the checks in order.  A residual that overflows is inf or NaN
    and fails its record, so numpy's overflow and invalid-value warnings
    say nothing more and are off."""
    with np.errstate(over="ignore", invalid="ignore"):
        for check in checks:
            check(src, report)
    return report


def _adj(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _record(src, report: ValidationReport, name: str, residual) -> None:
    """The record ``name``: ``residual(cols, pi, q, v)`` stacks the residuals of the
    cases with index columns ``cols`` from pi on the record's rows, their interior
    basis q and v(word column), a V stack; per level and chunk of CHUNK_BYTES."""
    plan = _plan(src)
    labels, levels, cols, rows = plan.cases[name]
    pi, norms = src.pi(rows), np.zeros(len(labels))
    step = max(1, CHUNK_BYTES // (16 * max(1, src.rank) ** 2))
    for level in sorted(set(levels.tolist())):
        at, q = np.flatnonzero(levels == level), src.interior_basis(level)
        for k in range(0, at.size, step):
            norms[at[k:k + step]] = operator_norms(residual(
                cols[at[k:k + step]], pi, q,
                lambda col: src.v_word([plan.words[w] for w in col.tolist()])))
    report.at_most(name, list(zip(norms.tolist(), labels)), src.tolerances.identity)


def _check_representation(src, report: ValidationReport) -> None:
    """The embedding is isometric; pi is a unital *-homomorphism; the
    interior bases are orthonormal, V(p) is isometric on the interior of
    level gen_count(p) for every p of 1..degree generator letters (one
    record per generator, one for the longer words) and each generator
    shift vanishes off the first interior, as it is built to; and the
    shifts intertwine pi with the action."""
    eye, emb = np.eye(src.rank), src.embedding
    _record(src, report, "embedding.isometric",
            lambda c, pi, q, v: (_adj(emb) @ emb - np.eye(emb.shape[1]))[None])
    _record(src, report, "pi.unital", lambda c, pi, q, v: pi[c[:, 0]] - eye)
    _record(src, report, "pi.star", lambda c, pi, q, v: pi[c[:, 1]] - _adj(pi[c[:, 0]]))
    _record(src, report, "pi.multiplicative",
            lambda c, pi, q, v: pi[c[:, 0]] @ pi[c[:, 1]] - pi[c[:, 2]])
    if src.degree >= 1:
        _record(src, report, "interior.orthonormal",
                lambda c, pi, q, v: (_adj(q) @ q - np.eye(q.shape[1]))[None])

        def isometry(c, pi, q, v):
            vq = v(c[:, 0]) @ q
            return _adj(vq) @ vq - np.eye(q.shape[1])
        for name in [f"isometry.V[{g}]" for g in range(1, src.sys.semigroup.rank + 1)
                     ] + ["isometry.V[w]"] * (src.degree >= 2):
            _record(src, report, name, isometry)
        _record(src, report, "isometry.zero_off_interior",
                lambda c, pi, q, v: (vp := v(c[:, 0])) - (vp @ q) @ _adj(q))

    def intertwine(c, pi, q, v):
        vp = v(c[:, 0])
        return vp @ (pi[c[:, 1]] @ q) - pi[c[:, 2]] @ (vp @ q)
    _record(src, report, "covariance.intertwine", intertwine)


def _check_covariance(src, report: ValidationReport) -> None:
    """phi is completely positive, and the dilated range projections are the
    represented unit projections and multiply by the Nica rule."""
    cp = is_completely_positive(src.phi, rtol=src.tolerances.psd)
    report.at_least("phi.completely_positive", cp.cases, -src.tolerances.psd * cp.scale)

    def range_projection(c, pi, q, v):
        vp = v(c[:, 0])
        return vp @ (_adj(vp) @ q) - pi[c[:, 1]] @ q
    _record(src, report, "covariance.range_projection", range_projection)

    def nica(c, pi, q, v):
        vp, vq, has = v(c[:, 0]), v(c[:, 1]), c[:, 2] >= 0
        out, vr = vp @ (_adj(vp) @ (vq @ (_adj(vq) @ q))), v(c[has, 2])
        out[has] -= vr @ (_adj(vr) @ q)
        return out
    _record(src, report, "covariance.nica", nica)


def _check_compressions(src, report: ValidationReport) -> None:
    """Compressing to the embedded space gives back (phi, T), and that space
    is co-invariant."""
    words, emb, phi = _plan(src).words, src.embedding, src.phi
    values = _combine(src.sys.cached(("coordinates", src.degree, phi.depth), lambda: frozen(
        [b.coordinates(phi.depth) for _, b in _pi_basis(src)])), phi.values)
    _record(src, report, "compression.phi",
            lambda c, pi, q, v: _adj(emb) @ pi[c[:, 0]] @ emb - values[c[:, 1]])
    _record(src, report, "compression.T", lambda c, pi, q, v: _adj(emb) @ v(c[:, 0]) @ emb
            - np.array([src.T(words[k]) for k in c[:, 0].tolist()]))
    # co-invariance: P_H V(p) vanishes on the complement of H inside interiors
    off = np.eye(src.rank) - emb @ _adj(emb)
    _record(src, report, "covariance.coinvariant",
            lambda c, pi, q, v: _adj(emb) @ v(c[:, 0]) @ off @ q)


def _check_reproduces_kernel(result: DilationResult, report: ValidationReport) -> None:
    """Compressing V(p)* pi(a) V(q) to the embedded space reproduces the
    kernel (needs the kernel, so a live result only), one kernel stack per
    corner."""
    lhs = np.concatenate([result.kernel.evaluate(p, (d, x), q)
                          for p, q, d, x in _plan(result).kernel])

    def residual(c, pi, q, v):
        words, at = np.unique(c[:, :2], return_inverse=True)
        lift, at = v(words) @ result.embedding, at.reshape(-1, 2)
        # lift(p)* pi(a) once per word and row, then per case times lift(q)
        return lhs[c[:, 3]] - (_adj(lift)[:, None] @ pi)[at[:, 0], c[:, 2]] @ lift[at[:, 1]]
    _record(result, report, "dilation.reproduces_kernel", residual)


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
    _record(result, report, "covariance.word_product",
            lambda c, pi, q, v: v(c[:, 0]) @ q - v(c[:, 1]) @ (v(c[:, 2]) @ q))


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
    sg, h = result.sys.semigroup, result.h
    m = min(len(result.assembly.catalog), ADJOINT_PAIRS)
    bu = result._apply(CatalogColumns(np.arange(m), np.arange(m),
                                      np.ones(m, dtype=np.complex128), m))
    mats, labels = [], []
    for letter, gen in enumerate(sg.generators, start=1):
        level = sg.length(gen)
        if level > result.degree:
            continue
        w, cols, quotients = result.cached(("adjoint", letter),
                                           lambda: _adjoint_columns(result, letter, gen, m))
        t_adj = np.zeros((m, h, h), dtype=np.complex128)
        t_adj[cols] = _adj(np.array([result.T(q) for q in quotients]).reshape(-1, h, h))
        bw = result._apply(w).reshape(result.rank, m, h).transpose(1, 0, 2)
        bwt = (bw @ t_adj).transpose(1, 0, 2).reshape(result.rank, m * h)
        q1 = result.interior_basis(level)
        mats.append(q1.conj().T @ (result.v_word(gen).conj().T @ bu - bwt))
        labels.append(f"p={gen}")
    return list(zip(operator_norms(mats).tolist(), labels))


def _adjoint_columns(result: DilationResult, letter: int, gen, m: int) -> tuple:
    """W of the first m catalog rows for one generator, the rows with a
    column and their quotients q\\r.  alpha_gen^-1 of a catalog index: the
    catalog depth holds E_gen, so the atom unshifts as it is; off E_gen, or
    without an lcm, V* u = 0 and its column of W is empty."""
    sg, model = result.sys.semigroup, result.sys.model
    unit_at = {pos: k for k, pos in enumerate(result.sys.base.unit_positions())}
    cols, index, quotients = [], [], []
    for c, idx in enumerate(result.assembly.catalog[:m]):
        r = sg.lcm(gen, idx.q)
        atom, i, j = idx.key
        b = None if r is None else model.unshift(atom, letter)
        if b is not None:
            cols.append(c)
            index.append((result._word_at[sg.left_divide(gen, r)],
                          result._atom_at[b], unit_at[i, j]))
            quotients.append(sg.left_divide(idx.q, r))
    word, atom, value = np.array(index, dtype=np.intp).reshape(-1, 3).T
    w = result._expansion(IndexColumns(
        word, np.arange(word.size), value, atom,
        result.sys.maps[letter - 1].apply_inverse(result._unit_stack),
        model.unshift_depth(result._depth, letter)))
    cols = frozen(cols, np.intp)
    return CatalogColumns(w.rows, cols[w.cols], w.vals, m), cols, quotients
