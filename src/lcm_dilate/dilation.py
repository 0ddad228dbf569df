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
generator maps to the value stack, and gathers the rows in one step.  One
SVD of each interior's image, B X_k = U S W*, gives its basis U and the
shift V(p) = B (S_p X_k) W S^-1 U*, zero off the interior.

A dilation job is deterministic end to end: fixed catalog order, eigh, and
one SVD per interior with a fixed relative cut.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .algebras import LevelledElement, operator_norms
from .cpmaps import (
    ContractionFamily,
    LevelledOperatorMap,
    is_completely_positive,
    nica_defect,  # unused here: perfbench's tracer patches dilation.nica_defect
)
from .errors import GramNotPositiveError, SpecMismatchError
from .kernel import (
    DEFAULT_MAX_GRAM_DIM,
    GramAssembly,
    KernelSystem,
    assemble_gram,
    check_gram_size,
)
from .semigroup import Element
from .systems import LcmSystem, ValidationReport


@dataclass(frozen=True)
class Tolerances:
    psd: float = 1e-8          # relative PSD verdicts
    rank: float = 1e-10        # relative eigenvalue / singular value cut
    identity: float = 1e-8     # residuals of verified operator identities
    covariance: float = 1e-9   # pair covariance at kernel construction
    corner: float = 1e-8       # corner membership residual

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

    def head(self, m: int) -> "IndexColumns":
        return IndexColumns(self.word[:m], self.atom[:m], self.value[:m],
                            self.atoms, self.values, self.depth)


@dataclass
class BlockFactor:
    """G_b = B_b* B_b for one Gram block, above the global rank cut."""

    rows: np.ndarray          # catalog rows of the block
    span: slice               # the block's coordinates in the dilation space
    factor: np.ndarray        # B_b, (rank_b, len(rows) * h)
    cofactor: np.ndarray      # right inverse of B_b, (len(rows) * h, rank_b)


@dataclass
class Interior:
    """Span of index vectors with ``level`` steps of shift headroom.

    Columns are the indices (q, atom, depth, e_ij) with both the length of q
    and the depth bounded by degree - level, so any word of length <= level
    maps the span into the catalog.  One SVD factors their image, B X =
    U S W*: ``basis`` is U and ``pullback`` is W S^-1.  Level 0 is the whole
    space, with the identity as basis and no columns.
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
        self._pi_table = self._pi_entries()

        self.interiors = _interiors_for(self)
        zero = model.zero_depth()
        (atom,) = model.atoms(zero)    # the unit is one atom at depth 0
        first = np.zeros(1, dtype=np.intp)
        self.embedding = self._apply(self._expansion(IndexColumns(
            np.array([self._word_at[sg.identity]]), first, first,
            np.array([self._atom_at[atom]]), self.sys.base.unit()[None], zero)))

    # -- geometry ---------------------------------------------------------------

    @property
    def pi_depth(self) -> int:
        """Deepest element depth pi is built for: the whole truncation."""
        return self.degree

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

    def _pieces(self, x: CatalogColumns) -> dict:
        """Block b -> (columns of x touching it, their dense rows there):
        the (block, column) pairs of the entries sorted once, and every
        entry scattered into one buffer that the blocks split."""
        blocks = self._block_of[x.rows]
        pairs, slot = np.unique(blocks * x.width + x.cols, return_inverse=True)
        pair_block, cols = np.divmod(pairs, x.width)    # by block, then column
        width = np.bincount(pair_block, minlength=len(self.factors))
        size = self._block_len * width
        start, offset = np.cumsum(width) - width, np.cumsum(size) - size
        flat = np.zeros(int(size.sum()), dtype=np.complex128)
        flat[offset[blocks] + self._pos[x.rows] * width[blocks]
             + slot - start[blocks]] = x.vals
        touched = np.flatnonzero(width)
        return {b: (cols[s:s + w], flat[o:o + w * n].reshape(n, w))
                for b, s, w, o, n in zip(touched.tolist(), start[touched].tolist(),
                                         width[touched].tolist(),
                                         offset[touched].tolist(),
                                         self._block_len[touched].tolist())}

    def _apply(self, x: CatalogColumns) -> np.ndarray:
        """B (X (x) I_h): the dilation-space images of the columns of x,
        shape (rank, width * h)."""
        h = self.h
        out = np.zeros((self.rank, x.width, h), dtype=np.complex128)
        for b, (cols, xb) in self._pieces(x).items():
            f = self.factors[b]
            r = f.factor.shape[0]
            if r:
                b3 = f.factor.reshape(r, -1, h).transpose(0, 2, 1)
                out[f.span][:, cols, :] = (b3 @ xb).transpose(0, 2, 1)
        return out.reshape(self.rank, x.width * h)

    def _gram_form(self, x: CatalogColumns, y: CatalogColumns) -> np.ndarray:
        """(X (x) I_h)* G (Y (x) I_h), summed block by block."""
        h = self.h
        out = np.zeros((x.width, y.width, h, h), dtype=np.complex128)
        ys = self._pieces(y)
        for b, (cx, xb) in self._pieces(x).items():
            if b not in ys:
                continue
            cy, yb = ys[b]
            nb = xb.shape[0]
            g = self.assembly.blocks[b].matrix.reshape(nb, h, nb, h)
            form = xb.conj().T @ g.transpose(1, 3, 0, 2) @ yb   # (h, h, cx, cy)
            out[cx[:, None], cy] += form.transpose(2, 3, 0, 1)
        return out.transpose(0, 2, 1, 3).reshape(x.width * h, y.width * h)

    def _pi_entries(self) -> tuple:
        """pi as a linear table over the coefficients of an element at the
        catalog depth, in ``vec`` order: (positions, coefficient, values),
        so that pi(a) is zero but at the flat positions of the rank x rank
        matrix, where it is a's coefficient number ``coefficient`` times
        ``values``.  Left multiplication takes atom (x) e_cd to atom (x)
        (a[atom] e_cd), so the coefficient a[atom][i, c] of rows i and c of
        one base block carries the block of group (atom, c) to that of
        (atom, i) by B_t C_s: the groups list their members in one (q, d)
        order (see ``GramAssembly``), so the member map between them is the
        identity, and a group to itself is the identity."""
        rank, dim = self.rank, self.sys.base.dim
        spans = [np.arange(f.span.start, f.span.stop) for f in self.factors]
        pos, coef, vals = [], [], []    # every atom at the catalog depth has groups
        for k, atom in enumerate(self.sys.model.atoms(self._depth)):
            for sl in self.sys.base.block_slices():
                for c in range(sl.start, sl.stop):
                    s = self._block_at.get((atom, c))
                    if s is None:
                        continue
                    for i in range(sl.start, sl.stop):
                        t = self._block_at[(atom, i)]
                        block = (np.eye(spans[s].size, dtype=np.complex128) if t == s
                                 else self.factors[t].factor @ self.factors[s].cofactor)
                        pos.append((spans[t][:, None] * rank + spans[s]).ravel())
                        coef.append(np.full(block.size, (k * dim + i) * dim + c))
                        vals.append(block.ravel())
        return tuple(np.concatenate(x) for x in (pos, coef, vals))

    def _check_blocks(self, ar: LevelledElement) -> None:
        """A coefficient's column at (atom, c) may carry at most the corner
        tolerance outside the base block of c."""
        for atom, v in ar.coeffs.items():
            for sl in self.sys.base.block_slices():
                for c in range(sl.start, sl.stop):
                    s = self._block_at.get((atom, c))
                    if s is None:
                        continue
                    col = v[:, c]
                    outside = float(np.sum(np.abs(col[:sl.start]) ** 2)
                                    + np.sum(np.abs(col[sl.stop:]) ** 2))
                    if outside:
                        total = float(np.linalg.norm(col)) ** 2
                        self._check_corner(
                            self.assembly.catalog[self.factors[s].rows[0]].q,
                            (outside / max(1.0, total)) ** 0.5,
                        )

    # -- operators ---------------------------------------------------------------

    def pi(self, a: LevelledElement) -> np.ndarray:
        """The representation matrix of an algebra element (exact on the
        whole truncated space as long as products stay inside the catalog),
        one scatter of the table ``_pi_entries`` builds with the result; over
        a scalar base pi(atom (x) z) is z times the projection onto the block
        of atom."""
        ar = a.refine_to(self._depth)
        vec = ar.vec()
        key = vec.tobytes()
        hit = self._pi_cache.get(key)
        if hit is not None:
            return hit
        dim = self.sys.base.dim
        if vec.reshape(-1, dim, dim)[:, self._off_block].any():
            self._check_blocks(ar)
        pos, coef, vals = self._pi_table
        z = vec[coef]
        live = z != 0
        out = np.zeros(self.rank * self.rank, dtype=np.complex128)
        out[pos[live]] = z[live] * vals[live]
        out = out.reshape(self.rank, self.rank)
        self._pi_cache[key] = out
        return out

    def pi_of_matrix(self, mat: np.ndarray) -> np.ndarray:
        return self.pi(self.sys.from_matrix(mat))

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

    def generator_isometries(self) -> list[np.ndarray]:
        return [self.v_word(g) for g in self.sys.semigroup.generators]

    def compress_v(self, p: Element) -> np.ndarray:
        return self.embedding.conj().T @ self.v_word(p) @ self.embedding


def _interiors_for(result: DilationResult) -> dict[int, Interior]:
    """Interior k: the indices (q, atom (x) e_ij) with q of length at most
    d = degree - k and the atom one at depth d under E_q, in catalog order,
    and the SVD of their image.  An atom lies under E_q when its first child
    at the catalog depth does, which the row table tells."""
    model, units = result.sys.model, len(result._unit_stack)
    i, j = result.sys.base.unit_positions()[0]
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
        u, s, wh = np.linalg.svd(image, full_matrices=False)
        keep = int(np.sum(s > result.tolerances.rank * s.max(initial=0.0)))
        out[level] = Interior(columns, u[:, :keep], wh[:keep].conj().T / s[:keep])
    return out


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
    spectra = [np.linalg.eigh(block.matrix) for block in assembly.blocks]
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
                   + [(float(np.abs(b.matrix - b.matrix.conj().T).max(initial=0.0)), "")
                      for b in assembly.blocks],
                   tols.identity)

    lam_max = float(w[-1]) if w.size else 0.0
    cut = tols.rank * max(lam_max, 1e-300)
    factors, start, fdefs = [], 0, []
    for block, (wb, ub) in zip(assembly.blocks, spectra):
        keep = wb > cut
        wk, uk = wb[keep], ub[:, keep]
        factor = np.sqrt(wk)[:, None] * uk.conj().T
        cofactor = uk * (1.0 / np.sqrt(wk))[None, :]
        factors.append(BlockFactor(block.rows, slice(start, start + wk.size),
                                   factor, cofactor))
        start += wk.size
        # the residual is Hermitian, so its norm is its largest |eigenvalue|
        resid = np.linalg.eigvalsh(block.matrix - factor.conj().T @ factor)
        fdefs.append((float(np.abs(resid).max()), ""))
    report.at_most("gram.factorization", fdefs, tols.psd * scale)

    result = DilationResult(assembly, tols, w, factors, report)
    _run_checks(result, report, (
        _check_embedding, _check_representation, _check_reproduces_kernel))
    return result


def _sample_words(sg, degree: int, max_len: int = 2) -> list[Element]:
    return [p for p in sg.enumerate_up_to(min(degree, max_len)) if sg.length(p) >= 1]


def stored_pi_depth(sys: LcmSystem, degree: int) -> int:
    """Depth of the algebra basis a persisted pi is stored on: 1 at degree
    >= 1, since the depth-1 basis spans every depth-0 element, else 0, in
    the model's own depths (so 0 on the point model)."""
    return sys.model.depth_max(sys.model.normalize_depth(min(degree, 1)))


def _pi_basis(src) -> list[tuple[str, LevelledElement]]:
    sys_ = src.sys
    return [
        (f"d{depth}:{lbl}", b)
        for depth in range(stored_pi_depth(sys_, src.degree) + 1)
        for lbl, b in zip(sys_.basis_labels(depth), sys_.algebra_basis(depth))
    ]


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
# headroom than the degree, is skipped; only a stored source, which keeps pi
# on the depth-1 basis (depth 0 on point models or at degree 0) and builds
# V(p) as a product of generator shifts, skips any.


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

    def residuals():
        for p, q in itertools.product(words, repeat=2):
            corner = result.sys.corner_basis(p, q, result.degree)
            for k, a in enumerate(corner.elements[:4]):
                lhs = result.kernel.evaluate(p, a, q, check_corner=False)
                rhs = (
                    (result.v_word(p) @ result.embedding).conj().T
                    @ result.pi(a)
                    @ (result.v_word(q) @ result.embedding)
                )
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


ADJOINT_PAIRS = 24   # catalog rows and interior columns the adjoint formula pairs


def _adjoint_formula_residual(result: DilationResult) -> list:
    """Check V(p)* delta_(q,b) against the lcm formula by pairing both sides
    with interior catalog vectors through the Gram form: one (largest
    entry of the difference, "p=generator") case per generator.

    Batched: with Z the interior columns and VZ their shift images,
    <V z, u> over all pairs is U* G (VZ) and <z, V* u> is W* G Z, where the
    columns of W carry the formula index and the contraction factor acting on
    the original-space slot: the block of W for u = (q, b) is w (x) T(q\\r)*,
    so its rows of W* G Z are T(q\\r) times those of (w (x) I_h)* G Z.
    """
    sg = result.sys.semigroup
    model = result.sys.model
    h = result.h
    cases = []
    catalog = result.assembly.catalog[:ADJOINT_PAIRS]
    m = len(catalog)      # u runs over these catalog indices: unit columns
    u = CatalogColumns(np.arange(m), np.arange(m), np.ones(m, dtype=np.complex128), m)
    unit_at = {pos: k for k, pos in enumerate(result.sys.base.unit_positions())}
    for letter, gen in enumerate(sg.generators, start=1):
        if sg.length(gen) > result.degree:
            continue
        first = result.interiors[sg.length(gen)].columns.head(ADJOINT_PAIRS)
        n_t = len(first)
        z = result._expansion(first)
        vz = result._expansion(result._shifted(gen, first))
        # alpha_gen^-1 of a catalog index: the catalog depth holds E_gen, so
        # the atom unshifts as it is; off E_gen, or without an lcm, V* u = 0
        # and its column of W is empty
        cols, index, t_facs = [], [], []
        for c, idx in enumerate(catalog):
            r = sg.lcm(gen, idx.q)
            atom, i, j = idx.key
            b = None if r is None else model.unshift(atom, letter)
            if b is None:
                t_facs.append(np.zeros((h, h)))
            else:
                cols.append(c)
                index.append((result._word_at[sg.left_divide(gen, r)],
                              result._atom_at[b], unit_at[i, j]))
                t_facs.append(result.T(sg.left_divide(idx.q, r)))
        word, atom, value = np.array(index, dtype=np.intp).reshape(-1, 3).T
        w = result._expansion(IndexColumns(
            word, np.arange(word.size), value, atom,
            result.sys.maps[letter - 1].apply_inverse(result._unit_stack),
            model.unshift_depth(result._depth, letter)))
        w = CatalogColumns(w.rows, np.array(cols, dtype=np.intp)[w.cols], w.vals, m)
        lhs = result._gram_form(u, vz)                      # <V z, u>
        core = result._gram_form(w, z).reshape(m, h, n_t * h)
        rhs = (np.array(t_facs) @ core).reshape(m * h, n_t * h)
        cases.append((float(np.abs(lhs - rhs).max()), f"p={gen}"))
    return cases
