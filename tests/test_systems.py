import itertools
import re

import numpy as np
import pytest

from conftest import (
    alpha_inverse,
    box,
    corner_coefficients,
    random_matrix,
    random_unitary,
)
from lcm_dilate.algebras import (
    BaseAlgebra,
    LevelledElement,
    PointModel,
    ToeplitzModel,
)
from lcm_dilate.cli import parse_instance
from lcm_dilate.errors import SpecMismatchError
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import (
    GeneratorMap,
    LcmSystem,
    StageSystem,
    ValidationReport,
    build_system,
)

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))


# ---------------------------------------------------------------------------
# the rule that turns cases into a record
# ---------------------------------------------------------------------------


def test_a_nan_case_fails_the_record_wherever_it_sits():
    nan = float("nan")
    for cases in ([(0.0, "a"), (nan, "b")], [(nan, "b"), (0.0, "a")],
                  [(0.0, "a"), (nan, "b"), (5.0, "c")]):
        report = ValidationReport()
        upper = report.at_most("upper", cases, 1e-8)
        lower = report.at_least("lower", [(-v, w) for v, w in cases], -1e-8)
        for rec in (upper, lower):
            assert not rec.passed and np.isnan(rec.value), cases
            assert rec.detail == "b" and rec.threshold in (1e-8, -1e-8)


def test_cases_tied_within_the_slack_name_the_first():
    report = ValidationReport()
    # rounding-level residuals all tie with the worst under a 1e-8 bound
    rec = report.at_most("tie", [(1e-16, "a"), (3e-16, "b"), (2e-16, "c")], 1e-8)
    assert (rec.passed, rec.value, rec.detail) == (True, 3e-16, "a")
    # 1e-12 is outside 1e-3 * 1e-9, so the first case near the worst wins
    rec = report.at_most("gap", [(0.0, "a"), (1e-6, "b"), (1e-6 + 1e-12, "c")],
                         1e-9)
    assert (rec.passed, rec.value, rec.detail) == (False, 1e-6 + 1e-12, "b")
    rec = report.at_least("low", [(-0.5, "x"), (-1.0 + 1e-13, "z"), (-1.0, "y")],
                          -1e-8)
    assert (rec.passed, rec.value, rec.detail) == (False, -1.0, "z")
    assert rec.witness == "z" and rec.threshold == -1e-8


def test_an_array_of_values_is_witnessed_by_index():
    report = ValidationReport()
    values = [-0.5, -1.0 + 1e-13, -1.0]
    rec = report.at_least("low", np.array(values), -1e-8)
    assert (rec.passed, rec.value, rec.detail, rec.witness) == (False, -1.0, "1", 1)
    pairs = report.at_least("low", list(zip(values, range(3))), -1e-8)
    assert (pairs.value, pairs.witness) == (rec.value, rec.witness)
    rec = report.at_most("none", np.zeros(0), 1e-8)
    assert (rec.passed, rec.value, rec.witness) == (True, 0.0, "")


def test_no_cases_give_zero_and_no_witness():
    report = ValidationReport()
    for rec in (report.at_most("none", [], 1e-8), report.at_least("none", [], -1e-8)):
        assert (rec.passed, rec.value, rec.detail, rec.witness) == (True, 0.0, "", "")


def test_detail_is_the_witness_unless_given():
    report = ValidationReport()
    cases = [(1.0, ("p", 1)), (2.0, ("q", 2))]
    rec = report.at_most("text", cases, 3.0, detail="fixed")
    assert (rec.detail, rec.witness) == ("fixed", ("q", 2))
    assert report.at_most("plain", cases, 3.0).detail == "('q', 2)"
    assert report.passed and [c.name for c in report.checks] == ["text", "plain"]


def _sys_abelian(rank=1, base=C, betas=None):
    sg = FreeAbelian(rank)
    return LcmSystem(sg, ToeplitzModel(sg), base, betas=betas)


def _sys_toeplitz_free(rank=2, base=C, betas=None):
    sg = FreeMonoid(rank)
    return LcmSystem(sg, ToeplitzModel(sg), base, betas=betas)


def _sys_boundary(rank=2, base=M2, betas=None):
    sg = FreeMonoid(rank)
    return LcmSystem(sg, ToeplitzModel(sg, boundary=True), base, betas=betas)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_builtin_levelled_models_validate():
    rng = np.random.default_rng(0)
    u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
    for sys_ in (
        _sys_abelian(1),
        _sys_abelian(2),
        _sys_toeplitz_free(2),
        _sys_boundary(2),
        _sys_boundary(2, betas=[u1, u2]),
        LcmSystem(FreeAbelian(1), ToeplitzModel(FreeAbelian(1)), M2, betas=[u1]),
    ):
        report = sys_.validate(depth=1)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_uhf_stage_image_not_ideal():
    imgs = []
    for u in M2.basis():
        big = np.zeros((4, 4), dtype=complex)
        big[:2, :2] = u
        imgs.append(big)
    stage = StageSystem(FreeAbelian(1), M2, BaseAlgebra((4,)), [imgs])
    report = stage.validate()
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["ideal[g1]"]
    assert re.fullmatch(r"a#\d+ alpha\(b#\d+\)", failed[0].detail)


def test_self_similar_stage_validates():
    cod = BaseAlgebra((2, 2))

    def branch(k):
        out = []
        for u in M2.basis():
            big = np.zeros((4, 4), dtype=complex)
            if k == 0:
                big[:2, :2] = u
            else:
                big[2:, 2:] = u
            out.append(big)
        return out

    stage = StageSystem(FreeMonoid(2), M2, cod, [branch(0), branch(1)])
    assert stage.validate().passed


def _block_unitary(rng, base):
    u = np.zeros((base.dim, base.dim), dtype=complex)
    for sl in base.block_slices():
        u[sl, sl] = random_unitary(rng, sl.stop - sl.start)
    return u


@pytest.mark.parametrize("semigroup,blocks,linear", [
    (FreeMonoid(2), (2,), False),
    (FreeAbelian(2), (2, 1), False),
    (FreeAbelian(1), (2,), True),       # the transpose: not multiplicative
])
def test_stage_checks_equal_the_point_model_checks(semigroup, blocks, linear):
    # a stage built from the basis images of a point-model system's maps
    # has the same algebra on both sides, so the shared endomorphism and
    # ideal checks must agree record for record, and so must the lcm rule
    # wherever the stage has a pair to check it on
    base = BaseAlgebra(blocks)
    rng = np.random.default_rng(len(blocks))
    if linear:
        swap = np.eye(4)[[0, 2, 1, 3]]
        alphas = [GeneratorMap(linear=swap)]
    else:
        alphas = [GeneratorMap(unitary=_block_unitary(rng, base))
                  for _ in range(semigroup.rank)]
    point = LcmSystem(semigroup, PointModel(semigroup.rank), base, alphas=alphas)
    stage = StageSystem(semigroup, base, base,
                        [[a.apply(u) for u in base.basis()] for a in alphas])

    def records(report, units):
        return [(c.name, c.passed, c.value, c.threshold, c.detail)
                for c in report.checks
                if c.name.startswith(("endomorphism[", "ideal["))
                or units and c.name == "units.lcm_rule"]

    # only free generators have distinct generator pairs without an lcm
    units = isinstance(semigroup, FreeMonoid) and semigroup.rank >= 2
    want = records(point.validate(depth=1), units)
    assert len(want) == 4 * semigroup.rank + units
    assert records(stage.validate(depth=1), True) == want
    # automorphisms are injective *-endomorphisms; the transpose is not
    assert all(ok for name, ok, *_ in want if name.startswith("endo")) != linear


def test_stage_refuses_misshapen_images():
    images = [np.eye(4)] * 3
    with pytest.raises(SpecMismatchError, match="image per domain basis element"):
        StageSystem(FreeAbelian(1), M2, BaseAlgebra((4,)), [images])
    with pytest.raises(SpecMismatchError, match="image per domain basis element"):
        StageSystem(FreeAbelian(1), M2, BaseAlgebra((4,)), [[np.eye(3)] * 4])


def test_automorphic_abelian_matrix_system_validates():
    rng = np.random.default_rng(3)
    # commuting unitaries: functions of one unitary
    u = random_unitary(rng, 2)
    alphas = [GeneratorMap(unitary=u), GeneratorMap(unitary=u @ u)]
    sys_ = LcmSystem(FreeAbelian(2), PointModel(2), M2, alphas=alphas)
    assert sys_.validate(depth=2).passed


def test_automorphic_free_monoid_fails_unit_orthogonality():
    alphas = [GeneratorMap(unitary=np.eye(2)), GeneratorMap(unitary=np.eye(2))]
    sys_ = LcmSystem(FreeMonoid(2), PointModel(2), M2, alphas=alphas)
    report = sys_.validate()
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["units.lcm_rule"]
    (check,) = [c for c in report.checks if not c.passed]
    assert check.detail == "E(1,)E(2,)"


def test_build_system_validates_stage_systems(fixtures_dir):
    # stage systems go through the same validation as every other system
    config = parse_instance(str(fixtures_dir / "uhf_stage_m2.json")).system_config
    sys_ = build_system(config)
    assert isinstance(sys_, StageSystem)
    assert [c.name for c in sys_.validate().checks if not c.passed] == ["ideal[g1]"]


def test_model_semigroup_compatibility_enforced():
    with pytest.raises(SpecMismatchError):
        LcmSystem(FreeMonoid(2), ToeplitzModel(FreeAbelian(2)), C)
    with pytest.raises(SpecMismatchError):
        LcmSystem(FreeAbelian(2), ToeplitzModel(FreeAbelian(3)), C)


def test_nonunitary_beta_rejected():
    with pytest.raises(SpecMismatchError):
        _sys_boundary(2, betas=[np.eye(2), 2 * np.eye(2)])


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


def test_apply_endo_identity_and_translation():
    sys_ = _sys_abelian(1)
    x = LevelledElement.from_atom(ToeplitzModel(FreeAbelian(1)), C, 1, (0,), np.eye(1))
    assert (sys_.apply_endo((0,), x) is x
            or (sys_.apply_endo((0,), x) - x).norm() <= 1e-10)
    # translation oracle: the endomorphism pushes a point mass one step
    shifted = sys_.apply_endo((1,), x)
    assert shifted.depth == box((2,))
    for atom in shifted.model.atoms(box((2,))):
        expect = 1.0 if atom == (1,) else 0.0
        assert np.allclose(shifted.coefficient(atom), expect)


def test_generator_units_orthogonal_on_trees():
    sys_ = _sys_toeplitz_free(2)
    e1, e2 = sys_.unit_projection((1,)), sys_.unit_projection((2,))
    assert (e1 * e2).norm() == 0.0
    # the unit at one generator is the indicator of that branch
    one = sys_.unit()
    a1 = sys_.apply_endo((1,), one)
    assert np.allclose(a1.coefficient((1,)), 1.0)
    assert np.allclose(a1.coefficient((2,)), 0.0)


def test_unit_projections_follow_lcm_rule():
    sys_ = _sys_abelian(2)
    sg = sys_.semigroup
    for p, q in itertools.product(sg.enumerate_up_to(2), repeat=2):
        lhs = sys_.unit_projection(p) * sys_.unit_projection(q)
        assert (lhs - sys_.unit_projection(sg.lcm(p, q))).norm() <= 1e-12
    sysf = _sys_toeplitz_free(2)
    sgf = sysf.semigroup
    for p, q in itertools.product(sgf.enumerate_up_to(2), repeat=2):
        lhs = sysf.unit_projection(p) * sysf.unit_projection(q)
        r = sgf.lcm(p, q)
        if r is None:
            assert lhs.norm() == 0.0
        else:
            assert (lhs - sysf.unit_projection(r)).norm() <= 1e-12


def test_unit_projection_dominance():
    # E_x E_y = E_y whenever y extends x
    sys_ = _sys_toeplitz_free(2)
    sg = sys_.semigroup
    for x in sg.enumerate_up_to(1):
        for tail in sg.enumerate_up_to(1):
            y = sg.multiply(x, tail)
            prod = sys_.unit_projection(x) * sys_.unit_projection(y)
            assert (prod - sys_.unit_projection(y)).norm() <= 1e-12


def test_unit_projection_is_projection():
    for sys_ in (_sys_abelian(2), _sys_boundary(2)):
        for p in sys_.semigroup.enumerate_up_to(1):
            e = sys_.unit_projection(p)
            assert (e * e - e).norm() <= 1e-12
            assert (e.star() - e).norm() <= 1e-12


# ---------------------------------------------------------------------------
# the left inverse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_sys,p", [
    (_sys_abelian, (2,)),
    (lambda: _sys_toeplitz_free(2), (1, 2)),
    (lambda: _sys_boundary(2), (2, 1)),
])
def test_alpha_inverse_left_inverse(make_sys, p):
    sys_ = make_sys()
    depth = sys_.model.normalize_depth(1)
    for b in sys_.algebra_basis(depth):
        image = sys_.apply_endo(p, b)
        back = alpha_inverse(sys_, p, image)
        assert (back - b.refine_to(back.depth)).norm() <= 1e-10


def test_alpha_inverse_is_multiplication_by_unit():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 2)
    sys_ = _sys_boundary(2, betas=[u, np.eye(2)])
    p = (1, 2)
    d = sys_.model.normalize_depth(2)
    coeffs = {atom: random_matrix(rng, 2) for atom in sys_.model.atoms(d)}
    a = LevelledElement(sys_.model, sys_.base, d, coeffs)
    lhs = sys_.apply_endo(p, alpha_inverse(sys_, p, a))
    rhs = sys_.unit_projection(p) * a
    assert (lhs - rhs).norm() <= 1e-10


def test_alpha_inverse_composes_contravariantly():
    sys_ = _sys_abelian(2)
    rng = np.random.default_rng(10)
    d = sys_.model.normalize_depth(2)
    coeffs = {atom: random_matrix(rng, 1) for atom in sys_.model.atoms(d)}
    a = LevelledElement(sys_.model, sys_.base, d, coeffs)
    p, q = (1, 0), (0, 1)
    pq = sys_.semigroup.multiply(p, q)
    lhs = alpha_inverse(sys_, pq, a)
    rhs = alpha_inverse(sys_, q, alpha_inverse(sys_, p, a))
    assert (lhs - rhs).norm() <= 1e-12


def test_alpha_inverse_star_endomorphism():
    # surjective *-endomorphism: multiplicative and star-preserving on the
    # whole algebra, including elements outside the image corner
    sys_ = _sys_toeplitz_free(2)
    rng = np.random.default_rng(11)
    d = sys_.model.normalize_depth(2)
    elems = []
    for _ in range(2):
        coeffs = {atom: random_matrix(rng, 1) for atom in sys_.model.atoms(d)}
        elems.append(LevelledElement(sys_.model, sys_.base, d, coeffs))
    a, b = elems
    g = (1,)
    lhs = alpha_inverse(sys_, g, a * b)
    rhs = alpha_inverse(sys_, g, a) * alpha_inverse(sys_, g, b)
    assert (lhs - rhs).norm() <= 1e-12
    assert (alpha_inverse(sys_, g, a.star())
            - alpha_inverse(sys_, g, a).star()).norm() <= 1e-12


# ---------------------------------------------------------------------------
# corners
# ---------------------------------------------------------------------------


def _span_dim(vectors: np.ndarray) -> int:
    if vectors.size == 0:
        return 0
    s = np.linalg.svd(vectors, compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0]))


def _intersection_dim(u_rows: np.ndarray, v_rows: np.ndarray) -> int:
    du, dv = _span_dim(u_rows), _span_dim(v_rows)
    stacked = np.vstack([u_rows, v_rows])
    return du + dv - _span_dim(stacked)


def test_corner_full_at_identity():
    sys_ = _sys_boundary(2)
    e = sys_.semigroup.identity
    corner = sys_.corner_basis(e, e, 1)
    assert len(corner) == len(sys_.algebra_basis(1))


def test_corner_empty_without_common_multiple():
    sys_ = _sys_toeplitz_free(2)
    assert len(sys_.corner_basis((1,), (2,), 2)) == 0


def test_image_subspaces_intersect_at_lcm():
    # span(image at p) meets span(image at q) exactly in span(image at lcm),
    # with every image taken at the common truncation depth
    sys_ = _sys_toeplitz_free(2)
    sg = sys_.semigroup
    d = 2

    def image_rows(p):
        src = sys_.algebra_basis(d - sg.length(p))
        return np.array([sys_.apply_endo(p, b).vec(d) for b in src])

    for p, q in [((1,), (1, 2)), ((1,), (2,)), ((2,), (2,)), ((1,), (1,))]:
        got = _intersection_dim(image_rows(p), image_rows(q))
        r = sg.lcm(p, q)
        want = 0 if r is None else _span_dim(image_rows(r))
        assert got == want, (p, q)


def test_corner_dimension_matches_subspace_intersection():
    # brute-force oracle on a depth-2 instance: the corner spans the
    # intersection of the two image subspaces
    sys_ = _sys_toeplitz_free(2)
    d = 2
    for p, q in [((1,), (1, 2)), ((1,), (1,)), ((2,), (2, 1))]:
        corner = sys_.corner_basis(p, q, d)
        ep, eq = sys_.unit_projection(p), sys_.unit_projection(q)
        rows_p = np.array([(ep * b).vec(d) for b in sys_.algebra_basis(d)])
        rows_q = np.array([(b * eq).vec(d) for b in sys_.algebra_basis(d)])
        # for these tree models the two-sided corner has the dimension of
        # the intersection of the left ideals cut by E_p and E_q
        assert len(corner) == _intersection_dim(rows_p, rows_q)


def test_product_set_identity():
    # alpha_p(a) alpha_q(b) lands in the corner at the least common multiple
    sys_ = _sys_abelian(2)
    sg = sys_.semigroup
    rng = np.random.default_rng(12)
    p, q = (1, 0), (0, 1)
    r = sg.lcm(p, q)
    corner = sys_.corner_basis(r, r, 2)
    for _ in range(4):
        a = LevelledElement(
            sys_.model, C, sys_.model.normalize_depth(1),
            {atom: random_matrix(rng, 1) for atom in sys_.model.atoms(1)},
        )
        b = LevelledElement(
            sys_.model, C, sys_.model.normalize_depth(1),
            {atom: random_matrix(rng, 1) for atom in sys_.model.atoms(1)},
        )
        prod = sys_.apply_endo(p, a) * sys_.apply_endo(q, b)
        _, resid = corner_coefficients(corner, prod.refine_to(corner.depth))
        assert resid <= 1e-10
    assert (sys_.unit_projection(p) * sys_.unit_projection(q)
            - sys_.unit_projection(r)).norm() <= 1e-12


def test_a_point_corner_under_a_vanishing_projection_is_empty():
    # a map that kills the unit makes E_g zero: its corners hold nothing, and
    # every entry of an element lies outside them
    sys_ = LcmSystem(FreeAbelian(1), PointModel(1), C,
                     alphas=[GeneratorMap(linear=np.zeros((1, 1)))])
    corner = sys_.corner_basis((1,), (0,), 0)
    assert len(corner) == 0
    coeffs, resid = corner_coefficients(corner, sys_.unit() * 2.0)
    assert coeffs.shape == (0,) and resid == 1.0


def test_endo_maps_corners_into_shifted_corners():
    sys_ = _sys_toeplitz_free(2)
    sg = sys_.semigroup
    p, q, r = (1,), (1, 2), (2,)
    corner = sys_.corner_basis(p, q, 2)
    target = sys_.corner_basis(sg.multiply(r, p), sg.multiply(r, q), 3)
    for a in corner.elements:
        moved = sys_.apply_endo(r, a)
        _, resid = corner_coefficients(target, moved)
        assert resid <= 1e-10


def test_refine_commutes_with_action():
    for sys_ in (_sys_abelian(1), _sys_boundary(2)):
        d0 = sys_.model.normalize_depth(1)
        d1 = sys_.model.normalize_depth(2)
        for b in sys_.algebra_basis(d0):
            lhs = sys_.apply_endo(sys_.semigroup.generators[0], b.refine_to(d1))
            rhs = sys_.apply_endo(sys_.semigroup.generators[0], b)
            common = sys_.model.join_depth(lhs.depth, rhs.depth)
            assert (lhs.refine_to(common) - rhs.refine_to(common)).norm() <= 1e-12
