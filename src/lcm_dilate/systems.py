"""Semigroup actions by injective *-endomorphisms and their validation.

A system couples a semigroup with an algebra model and one endomorphism per
generator, written once for every model: alpha_g moves each atom by the
model's rule and maps its base-algebra value by the generator's
``GeneratorMap``.  A levelled model shifts its atoms and conjugates by a
unitary beta_g; the point model keeps its one atom where it is, so its map
(a unitary conjugation or a linear map on vectorized elements) is the whole
action.

``validate`` checks the properties that make the range-projection calculus
work: every generator image is an ideal, each generator map is an injective
*-endomorphism, range projections multiply by the lcm rule (E_p E_q =
E_lcm(p,q), or 0 when p and q have no common multiple), and the two
factorizations g_i (g_i\\r) = g_j (g_j\\r) of the lcm r of two generators act
alike.  Every rule is stated through ``lcm``, so no check asks which monoid
it runs on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .algebras import (
    BaseAlgebra,
    Complex,
    CornerBasis,
    LevelledElement,
    Memo,
    Model,
    PointModel,
    ToeplitzModel,
    operator_norm,
)
from .cpmaps import BaseOperatorMap
from .errors import SpecMismatchError
from .semigroup import Element, Semigroup, semigroup_from_json

IDEAL_RTOL = 1e-9     # residual after projection onto the image subspace
RANK_CUT = 1e-10      # relative singular-value cut for rank decisions
CHECK_TOL = 1e-8
PROJECTION_TOL = 1e-10  # atom values of range projections: 0 or the unit


# ---------------------------------------------------------------------------
# generator maps
# ---------------------------------------------------------------------------


class GeneratorMap:
    """One generator's action on the base-algebra value of an atom."""

    def __init__(self, unitary=None, linear=None):
        if (unitary is None) == (linear is None):
            raise SpecMismatchError("give exactly one of unitary / linear")
        self.unitary = None if unitary is None else np.asarray(unitary, dtype=Complex)
        self.linear = None if linear is None else np.asarray(linear, dtype=Complex)
        self._linear_inv = None

    def apply(self, a: np.ndarray) -> np.ndarray:
        """The map on a value, or on each of a stack of values (the last
        two axes); a linear map acts on row-major vectors."""
        if self.unitary is not None:
            return self.unitary @ a @ self.unitary.conj().T
        return (self.linear @ a.reshape(*a.shape[:-2], -1, 1)).reshape(a.shape)

    def apply_inverse(self, a: np.ndarray) -> np.ndarray:
        if self.unitary is not None:
            return self.unitary.conj().T @ a @ self.unitary
        if self._linear_inv is None:
            self._linear_inv = np.linalg.inv(self.linear)
        return (self._linear_inv @ a.reshape(*a.shape[:-2], -1, 1)).reshape(a.shape)


# ---------------------------------------------------------------------------
# validation report plumbing
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    passed: bool
    value: Optional[float] = None
    threshold: Optional[float] = None
    detail: str = ""
    witness: object = field(default="", compare=False, repr=False)  # not persisted

    def as_dict(self) -> dict:
        """The record as JSON: a value or threshold that is not finite
        (an overflowed residual) is null, and named in the detail."""
        out = {"name": self.name, "passed": bool(self.passed),
               "value": self.value, "threshold": self.threshold}
        notes = [self.detail] if self.detail else []
        for key in ("value", "threshold"):
            if out[key] is not None:
                out[key] = float(out[key])
                if not np.isfinite(out[key]):
                    notes.append(f"{key} {out[key]}")
                    out[key] = None
        out["detail"] = "; ".join(notes)
        return out


WITNESS_SLACK = 1e-3   # cases within this fraction of |bound| of the worst tie


@dataclass
class ValidationReport:
    """The checks of one run.  ``at_most`` and ``at_least`` turn a check's
    (value, witness) cases into its record by one rule: the value is the
    worst case, by ``np.max``, so a NaN propagates and fails (0.0 without
    cases); the check passes when the value is within the bound; the witness
    is the first case within ``WITNESS_SLACK * |bound|`` of the worst, since
    many cases tie up to rounding and rounding must not pick the one named
    ("" without cases).  ``detail`` is the witness unless the caller gives
    a text."""

    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, value=None, threshold=None, detail="", witness=""):
        self.checks.append(
            CheckRecord(name, bool(passed), value, threshold, detail, witness))
        return self.checks[-1]

    def at_most(self, name, cases, bound, detail=None) -> CheckRecord:
        """Record that every case's value is at most ``bound``."""
        return self._record(name, cases, bound, 1.0, detail)

    def at_least(self, name, cases, bound, detail=None) -> CheckRecord:
        """Record that every case's value is at least ``bound``."""
        return self._record(name, cases, bound, -1.0, detail)

    def _record(self, name, cases, bound, sign, detail) -> CheckRecord:
        cases = list(cases)
        value, witness = 0.0, ""
        if cases:
            signed = sign * np.array([v for v, _ in cases], dtype=float)
            worst = np.max(signed)
            near = (np.isnan(signed) if np.isnan(worst)
                    else signed >= worst - WITNESS_SLACK * abs(bound))
            value, witness = float(sign * worst), cases[int(np.argmax(near))][1]
        return self.add(name, sign * value <= sign * bound, value, bound,
                        str(witness) if detail is None else detail, witness)


# ---------------------------------------------------------------------------
# the system object
# ---------------------------------------------------------------------------


class GeneratorAction:
    """The structural checks shared by every system.

    A subclass provides ``semigroup``, ``algebra_basis(depth)``,
    ``apply_generator(letter, x)`` and ``unit_projection(p)`` over
    ``LevelledElement``s, and lists the pairs the lcm rule is checked on;
    the checks below see nothing else, so each one is written once for
    levelled, point-model and stage systems.
    """

    def _image_span(self, letter: int, basis, out_depth):
        rows = np.array(
            [self.apply_generator(letter, b).vec(out_depth) for b in basis]
        )
        u, s, vh = np.linalg.svd(rows, full_matrices=False)
        rank = int(np.sum(s > RANK_CUT * s[0])) if s.size and s[0] > 0 else 0
        return vh[:rank], rank

    def _validate_common(self, report, basis, tol, out_depth_of):
        for g in range(1, self.semigroup.rank + 1):
            # *-endomorphism on a basis sample
            mult, star = [], []
            for xi, x in enumerate(basis):
                ax = self.apply_generator(g, x)
                star.append(((self.apply_generator(g, x.star()) - ax.star()).norm(),
                             f"b#{xi}"))
                for yi, y in enumerate(basis):
                    lhs = self.apply_generator(g, x * y)
                    rhs = ax * self.apply_generator(g, y)
                    mult.append(((lhs - rhs).norm(), f"(b#{xi}, b#{yi})"))
            report.at_most(f"endomorphism[g{g}].multiplicative", mult, tol)
            report.at_most(f"endomorphism[g{g}].star", star, tol)

            # injectivity via numerical rank of the image
            span, rank = self._image_span(g, basis, out_depth_of(g))
            report.at_least(f"endomorphism[g{g}].injective", [(float(rank), "")],
                            float(len(basis)), detail=f"rank {rank} of {len(basis)}")

            # ideal: a * alpha_g(b) stays in the image span
            cases = []
            out_basis = self.algebra_basis(out_depth_of(g))
            for bi, b in enumerate(basis):
                ab = self.apply_generator(g, b)
                for ai, a in enumerate(out_basis):
                    for prod in (a * ab, ab * a):
                        v = prod.vec(out_depth_of(g))
                        nv = np.linalg.norm(v)
                        if nv == 0:
                            continue
                        resid = np.linalg.norm(v - span.T @ (span.conj() @ v)) / max(
                            1.0, nv
                        )
                        cases.append((resid, f"a#{ai} alpha(b#{bi})"))
            report.at_most(f"ideal[g{g}]", cases, IDEAL_RTOL)

    def _validate_units(self, report, pairs, tol):
        """E_p E_q = E_lcm(p,q), or 0 without a common multiple, on each
        listed pair; no pair, no record."""
        sg = self.semigroup
        cases = []
        for p, q in pairs:
            r = sg.lcm(p, q)
            lhs = self.unit_projection(p) * self.unit_projection(q)
            cases.append(((lhs if r is None else lhs - self.unit_projection(r)).norm(),
                          f"E{p}E{q}"))
        if pairs:
            report.at_most("units.lcm_rule", cases, tol)


class LcmSystem(GeneratorAction, Memo):
    """A semigroup acting on a levelled or fixed finite-dimensional algebra
    through ``maps``, one ``GeneratorMap`` per generator.

    betas: one unitary per generator (levelled models; identity when omitted).
    alphas: one GeneratorMap per generator (point model only).
    """

    def __init__(
        self,
        semigroup: Semigroup,
        model: Model,
        base: BaseAlgebra,
        betas: Optional[Sequence[np.ndarray]] = None,
        alphas: Optional[Sequence[GeneratorMap]] = None,
    ):
        self.semigroup = semigroup
        self.model = model
        self.base = base
        if isinstance(model, PointModel):
            if alphas is None:
                raise SpecMismatchError("point-model systems need explicit maps")
            if len(alphas) != semigroup.rank:
                raise SpecMismatchError("need one generator map per generator")
            self.maps = list(alphas)
        else:
            if model.semigroup != semigroup:
                raise SpecMismatchError(f"the model runs over {model.semigroup!r}, "
                                        f"not over {semigroup!r}")
            if alphas is not None:
                raise SpecMismatchError("explicit maps only apply to the point model")
            if betas is None:
                betas = [base.unit() for _ in range(semigroup.rank)]
            betas = [np.asarray(b, dtype=Complex) for b in betas]
            if len(betas) != semigroup.rank:
                raise SpecMismatchError("need one base automorphism per generator")
            for b in betas:
                if b.shape != (base.dim, base.dim):
                    raise SpecMismatchError("base automorphism has wrong shape")
                if operator_norm(b @ b.conj().T - base.unit()) > 1e-10:
                    raise SpecMismatchError("base automorphisms must be unitary")
            self.maps = [GeneratorMap(unitary=b) for b in betas]
        self._memo: dict = {}

    def _per_element(self, key, x: LevelledElement, make) -> LevelledElement:
        """``make()`` once per (key, element object), held while x is."""
        memo = self.cached(key, weakref.WeakKeyDictionary)
        hit = memo.get(x)
        if hit is None:
            hit = memo[x] = make()
        return hit

    @property
    def betas(self) -> list[np.ndarray]:
        """The unitaries beta_g of a levelled model's maps."""
        return [m.unitary for m in self.maps]

    # -- elements -------------------------------------------------------------

    def unit(self, depth=None) -> LevelledElement:
        d = self.model.zero_depth() if depth is None else self.model.normalize_depth(depth)
        return self.cached(("unit", d),
                           lambda: LevelledElement.unit(self.model, self.base, d))

    def zero(self, depth=None) -> LevelledElement:
        return LevelledElement.zero(self.model, self.base, depth)

    def from_matrix(self, mat) -> LevelledElement:
        return LevelledElement.from_matrix(self.model, self.base, mat)

    def algebra_basis(self, depth=None) -> list[LevelledElement]:
        d = self.model.normalize_depth(
            self.model.zero_depth() if depth is None else depth
        )
        return self.cached(("basis", d), lambda: [
            LevelledElement.from_atom(self.model, self.base, d, atom, u)
            for atom in self.model.atoms(d) for u in self.base.basis()])

    def basis_labels(self, depth=None) -> list[str]:
        d = self.model.normalize_depth(
            self.model.zero_depth() if depth is None else depth
        )
        out = []
        for atom in self.model.atoms(d):
            for lbl in self.base.basis_labels():
                out.append(f"{atom}|{lbl}" if atom != () else lbl)
        return out

    # -- the action -------------------------------------------------------------

    def apply_generator(self, letter: int, x: LevelledElement) -> LevelledElement:
        if not 1 <= letter <= self.semigroup.rank:
            raise SpecMismatchError(f"no generator {letter}")
        model, m = self.model, self.maps[letter - 1]
        coeffs = {model.shift(a, letter): m.apply(v) for a, v in x.coeffs.items()}
        return LevelledElement(x.model, x.base, model.shift_depth(x.depth, letter),
                               coeffs)

    def apply_generator_inverse(self, letter: int, x: LevelledElement) -> LevelledElement:
        """Left inverse of one generator: keep the atoms under its range
        projection and shift them back.  Defined on the whole algebra."""
        model, m = self.model, self.maps[letter - 1]
        e_depth = model.shift_depth(model.zero_depth(), letter)  # of E_letter
        y = x.refine_to(model.join_depth(x.depth, e_depth))
        coeffs = {}
        for a, v in y.coeffs.items():
            b = model.unshift(a, letter)
            if b is not None:
                coeffs[b] = m.apply_inverse(v)
        return LevelledElement(x.model, x.base, model.unshift_depth(y.depth, letter),
                               coeffs)

    def apply_endo(self, p: Element, x: LevelledElement) -> LevelledElement:
        """The endomorphism at p, composed from generator steps."""
        self.semigroup.validate_element(p)

        def make():
            out = x
            for letter in reversed(self.semigroup.as_word(p)):
                out = self.apply_generator(letter, out)
            return out
        return self._per_element(("endo", tuple(p)), x, make)

    def alpha_inverse(self, p: Element, x: LevelledElement) -> LevelledElement:
        """Left inverse of the endomorphism at p (mask by the range
        projection of p, then invert); composes generator inverses."""
        self.semigroup.validate_element(p)

        def make():
            out = x
            for letter in self.semigroup.as_word(p):
                out = self.apply_generator_inverse(letter, out)
            return out
        return self._per_element(("inverse", tuple(p)), x, make)

    def unit_projection(self, p: Element) -> LevelledElement:
        return self.apply_endo(p, self.unit())

    def depth_of(self, p: Element):
        """Depth occupied by the range projection of p."""
        return self.unit_projection(p).depth

    # -- corners -----------------------------------------------------------------

    def corner_basis(self, p: Element, q: Element, depth) -> CornerBasis:
        """Matrix-unit basis of E_p . A(depth) . E_q, from the model's table.

        Range projections take the value 0 or the unit on every atom, so the
        corner is spanned by the atoms under both projections tensored with
        the matrix units of every base block, in atom-major order.  Empty
        when pP and qP do not intersect.  A levelled model's unitary betas
        fix the unit, so its atoms alone say which lie under E_p; the maps
        of a point model need not, so its one atom is read off E_p E_q.
        """
        if isinstance(self.model, PointModel):
            v = (self.unit_projection(p) * self.unit_projection(q)).coefficient(())
            if np.abs(v).max() <= PROJECTION_TOL:
                return CornerBasis(0, [], [])
            if not np.abs(v - self.base.unit()).max() <= PROJECTION_TOL:
                raise SpecMismatchError(
                    f"E{tuple(p)} E{tuple(q)} is neither 0 nor the unit at atom "
                    f"(): the range projections are not sums of atoms"
                )
        return self.model.corner(self.base, p, q, depth)

    # -- validation ---------------------------------------------------------------

    def validate(self, depth: int = 1) -> ValidationReport:
        """The structural checks at ``depth``, run once per depth; each call
        returns fresh copies of the records."""
        checks = self.cached(("validate", depth), lambda: self._validate(depth).checks)
        return ValidationReport([replace(c) for c in checks])

    def _validate(self, depth: int) -> ValidationReport:
        report, tol = ValidationReport(), CHECK_TOL
        name = "alpha" if isinstance(self.model, PointModel) else "beta"
        for i, m in enumerate(self.maps, start=1):
            if m.unitary is not None:
                err = operator_norm(m.unitary @ m.unitary.conj().T - self.base.unit())
                report.at_most(f"{name}[{i}].unitary", [(err, "")], tol)
        if name == "alpha":
            # an injective endomorphism of a fixed-dimension algebra is an
            # automorphism, so it must fix the unit
            for g in range(1, self.semigroup.rank + 1):
                err = (self.apply_generator(g, self.unit()) - self.unit()).norm()
                report.at_most(f"alpha[{g}].unital", [(err, "")], tol)

        d0 = self.model.normalize_depth(depth)
        self._validate_common(report, self.algebra_basis(d0), tol,
                              lambda g: self.model.shift_depth(d0, g))
        elems = self.semigroup.enumerate_up_to(min(depth, 2))
        self._validate_units(report, [(p, q) for p in elems for q in elems], tol)
        self._validate_factorizations(report, tol)
        return report

    def _validate_factorizations(self, report, tol):
        """For each pair of generators with an lcm r, the factorizations
        g_i (g_i\\r) and g_j (g_j\\r) of r act alike on a basis element;
        0.0 when no pair has a common multiple."""
        sg = self.semigroup
        basis = self.algebra_basis()
        x = basis[min(1, len(basis) - 1)]
        gens = sg.generators
        cases = []
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens[i + 1:], start=i + 1):
                r = sg.lcm(gi, gj)
                if r is None:
                    continue
                a, b = (self.apply_endo(g, self.apply_endo(sg.left_divide(g, r), x))
                        for g in (gi, gj))
                cases.append(((a - b).norm(), f"(g{i + 1}, g{j + 1})"))
        report.at_most("action.factorization", cases, tol)


# ---------------------------------------------------------------------------
# stage maps (validation-only fixtures)
# ---------------------------------------------------------------------------


class StageSystem(GeneratorAction):
    """One inductive step of a dynamical system: generator maps from a domain
    algebra into a larger codomain algebra, given by their basis images.

    The domain is presented as depth 0 and the codomain as depth 1, both as
    point-model elements, so the shared checks of ``GeneratorAction`` run on
    it unchanged.  Only validation is supported; this is how non-examples
    (images that fail to be ideals) are represented at finite dimension.
    """

    def __init__(
        self,
        semigroup: Semigroup,
        domain: BaseAlgebra,
        codomain: BaseAlgebra,
        basis_images: Sequence[Sequence[np.ndarray]],
    ):
        self.semigroup = semigroup
        self.domain = domain
        self.codomain = codomain
        if len(basis_images) != semigroup.rank:
            raise SpecMismatchError("need one image list per generator")
        shape = (codomain.dim, codomain.dim)
        for images in basis_images:
            if len(images) != domain.linear_dim or any(
                np.shape(m) != shape for m in images
            ):
                raise SpecMismatchError(
                    f"need one {shape} image per domain basis element"
                )
        self.maps = [BaseOperatorMap(domain, images) for images in basis_images]
        self._point = PointModel(semigroup.rank)

    def _element(self, depth: int, mat: np.ndarray) -> LevelledElement:
        algebra = self.codomain if depth else self.domain
        return LevelledElement(self._point, algebra, 0, {(): mat})

    def algebra_basis(self, depth: int = 0) -> list[LevelledElement]:
        algebra = self.codomain if depth else self.domain
        return [self._element(depth, u) for u in algebra.basis()]

    def apply_generator(self, letter: int, x: LevelledElement) -> LevelledElement:
        return self._element(1, self.maps[letter - 1].value(x.coefficient(())))

    def unit_projection(self, generator: Element) -> LevelledElement:
        (letter,) = self.semigroup.as_word(generator)
        return self.apply_generator(letter, self._element(0, self.domain.unit()))

    def validate(self, depth: int = 1) -> ValidationReport:
        """The checks of ``LcmSystem.validate`` that one step supports; a
        stage has a single step, so ``depth`` changes nothing."""
        report = ValidationReport()
        self._validate_common(report, self.algebra_basis(0), CHECK_TOL, lambda g: 1)
        # only generators have range projections here: the distinct pairs
        # whose lcm is a generator or does not exist
        sg = self.semigroup
        gens = sg.generators
        pairs = [(p, q) for p in gens for q in gens
                 if p != q and sg.lcm(p, q) in gens + (None,)]
        self._validate_units(report, pairs, CHECK_TOL)
        return report


# ---------------------------------------------------------------------------
# construction from a config mapping
# ---------------------------------------------------------------------------


# a Toeplitz model kind -> (the kind of semigroup it runs over, boundary)
TOEPLITZ_KINDS = {
    "toeplitz_abelian": ("free_abelian", False),
    "toeplitz_free": ("free_monoid", False),
    "boundary_free": ("free_monoid", True),
}


# (semigroup, boundary) -> the one Toeplitz model of the process over them,
# so that its tables (depths, atoms, corners, Gram plans, systems) are built
# once
_MODELS: dict = {}


def build_system(config: dict):
    """Build a system from a plain mapping (see the instance JSON schema);
    its structural checks are the caller's ``validate()``.

    Every Toeplitz system over one monoid and boundary shares one model,
    and with it the model's tables; the model's table holds one system per
    base algebra and ``betas``, so every configuration of a Toeplitz system
    gets the same object for the life of the process (or until ``_MODELS``
    is cleared), with its memoised checks, bases and endomorphism images.
    A shared system and what it hands out must be treated as immutable.  A
    point model's maps say where its range projections lie, so each matrix
    system gets its own model and is built anew."""
    sg = semigroup_from_json(config["semigroup"])
    model_cfg = config.get("model", {"kind": "matrix"})
    kind = model_cfg["kind"]
    base = BaseAlgebra(tuple(config.get("base", {}).get("blocks", [1])))

    if kind == "stage":
        codomain = BaseAlgebra(tuple(config["codomain"]["blocks"]))
        return StageSystem(sg, base, codomain, config["basis_images"])
    if kind == "matrix":
        alphas = [GeneratorMap(**entry) for entry in config.get("alphas", [])] or [
            GeneratorMap(unitary=base.unit()) for _ in range(sg.rank)
        ]
        return LcmSystem(sg, PointModel(sg.rank), base, alphas=alphas)
    if kind not in TOEPLITZ_KINDS:
        raise SpecMismatchError(f"unknown model kind {kind!r}")
    key = (sg, TOEPLITZ_KINDS[kind][1])
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = ToeplitzModel(*key)
    betas = config.get("betas")
    tag = None if betas is None else tuple(
        (a.shape, a.tobytes()) for a in (np.asarray(b, dtype=Complex) for b in betas))
    return model.cached(("system", base, tag),
                        lambda: LcmSystem(sg, model, base, betas=betas))
