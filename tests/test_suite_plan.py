"""The identity suite from its case plan against the suite case by case.

The oracle in ``conftest`` is the suite as it ran before its case plan: one
loop per record, pi and V(p) one element and one word at a time.  The
planned suite must give the same check names, case labels, witnesses,
verdicts and values (to 1e-13) on the live result and on the stored one,
over every fixture with a dilation and seed-1 ``abelian_gram`` and
``free_boundary`` instances of the benchmark.  Planted defects must show
through the stacks at their cases; the plan is read-only and built once per
system and degree; a live result's catalog tables are shared per catalog,
whatever T and h; and a warm ``abelian_gram`` dilate makes a pinned number
of element ``vec``, ``_apply`` and ``_expansion`` calls, so per-case element
arithmetic or index expansion that comes back shows here.
"""

import ast
from collections import Counter

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    ORACLE_SUITE,
    _permuted_assembly,
    load_perfbench,
    oracle_check_compressions,
    oracle_check_covariance,
    oracle_check_embedding,
    oracle_check_representation,
    oracle_check_reproduces_kernel,
    oracle_check_word_product,
    oracle_run,
)
from lcm_dilate import dilation
from lcm_dilate.algebras import LevelledElement
from lcm_dilate.cli import build_pair, parse_instance, run_command
from lcm_dilate.cpmaps import (
    ContractionFamily,
    build_phi_tilde,
    diagonal_compression_map,
    extend_phi_T,
)
from lcm_dilate.dilation import covariant_dilate, identity_suite, naimark_dilate, pi_layout
from lcm_dilate.kernel import KernelSystem
from lcm_dilate.persist import StoredDilation, load_result, result_payload, write_result
from lcm_dilate.systems import ValidationReport

TOL = 1e-13
LIVE = (dilation._check_representation, dilation._check_reproduces_kernel,
        dilation._check_covariance, dilation._check_word_product,
        dilation._check_compressions)
ORACLE_LIVE = (oracle_check_embedding, oracle_check_representation,
               oracle_check_reproduces_kernel, oracle_check_covariance,
               oracle_check_word_product, oracle_check_compressions)
SUITE = (dilation._check_representation, dilation._check_covariance,
         dilation._check_compressions)
# every fixture but the stage system, which has no dilation
CASES = ["commuting_unitaries", "cuntz_m2", "nica_nilpotent", "sznagy_half",
         "transpose_m2", "abelian_gram", "free_boundary"]


class Recorded(ValidationReport):
    """A report that keeps the (value, label) cases of every record."""

    def __init__(self):
        super().__init__()
        self.cases = {}

    def at_most(self, name, cases, bound, detail=None):
        self.cases[name] = list(cases)
        return super().at_most(name, self.cases[name], bound, detail)


def instance_path(name, tmp_path) -> str:
    if name in ("abelian_gram", "free_boundary"):
        (inst,) = load_perfbench("workloads").generate(name, 1, str(tmp_path), 1)
        return inst.path
    return str(FIXTURES / f"{name}.json")


def live(name, tmp_path):
    """The fixture's dilation; the two fixtures without one get a pair that
    has one on their system: the nilpotent T halved, and the diagonal
    compression for the transpose (a kernel whose covariance is not
    checked, so ``naimark_dilate``)."""
    inst = parse_instance(instance_path(name, tmp_path))
    sys_, phi, T = build_pair(inst)
    if name == "nica_nilpotent":
        T = ContractionFamily(sys_.semigroup, [0.5 * m for m in T.mats])
        phi = extend_phi_T(sys_, T, inst.degree)
    if name == "transpose_m2":
        phi = build_phi_tilde(sys_, diagonal_compression_map(sys_.base), T, inst.degree)
        return naimark_dilate(KernelSystem(sys_, phi, T, validate=False), inst.degree,
                              inst.tolerances)
    return covariant_dilate(sys_, phi, T, inst.degree, inst.tolerances)


def stored_arrays(res, tmp_path) -> tuple:
    out = str(tmp_path / "r.npz")
    write_result(out, result_payload(res, "0" * 64))
    return load_result(out)


def stored(res, meta, arrays) -> StoredDilation:
    return StoredDilation(meta, arrays, res.sys, res.phi, res.T, res.tolerances)


def assert_same(got: Recorded, want: Recorded) -> None:
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        assert (g.passed, g.detail, g.witness) == (w.passed, w.detail, w.witness), g.name
        assert abs(g.value - w.value) <= TOL * max(1.0, abs(w.value)), g.name
    assert got.cases.keys() == want.cases.keys()
    for name, cases in want.cases.items():
        assert [lbl for _, lbl in got.cases[name]] == [lbl for _, lbl in cases], name
        g, w = (np.array([v for v, _ in c]) for c in (got.cases[name], cases))
        assert (np.abs(g - w) <= TOL * np.maximum(1.0, np.abs(w))).all(), name


def _details(report) -> list:
    return [(c.name, c.passed, c.detail) for c in report.checks]


def oracle_v_word(res, p) -> np.ndarray:
    """V(p) of one word, as ``v_word`` built it word by word."""
    interior = res.interiors[res.sys.semigroup.length(p)]
    shifted = res._expansion(res._shifted(p, interior.columns))
    return (res._apply(shifted) @ interior.pullback) @ interior.basis.conj().T


@pytest.mark.parametrize("name", CASES)
def test_the_planned_suite_is_the_suite_case_by_case(name, tmp_path):
    res = live(name, tmp_path)
    got = dilation._run_checks(res, Recorded(), LIVE)
    assert_same(got, oracle_run(res, Recorded(), ORACLE_LIVE))
    assert len(got.checks) >= 15 and got.cases["covariance.intertwine"]
    words = [p for p in res._words if p != res.sys.semigroup.identity]
    for p, v in zip(words, res.v_word(words)):
        assert np.abs(v - oracle_v_word(res, p)).max() <= TOL, p
    src = stored(res, *stored_arrays(res, tmp_path))
    assert_same(dilation._run_checks(src, Recorded(), SUITE),
                oracle_run(src, Recorded(), ORACLE_SUITE))


@pytest.mark.parametrize("name", ["cuntz_m2", "abelian_gram"])
def test_one_case_per_chunk_gives_the_same_suite(name, tmp_path, monkeypatch):
    # every stack one residual and every _apply one word: the chunked path
    # that depth takes
    monkeypatch.setattr(dilation, "CHUNK_BYTES", 1)
    res = live(name, tmp_path)
    assert_same(dilation._run_checks(res, Recorded(), LIVE),
                oracle_run(res, Recorded(), ORACLE_LIVE))
    src = stored(res, *stored_arrays(res, tmp_path))
    assert_same(dilation._run_checks(src, Recorded(), SUITE),
                oracle_run(src, Recorded(), ORACLE_SUITE))


def test_a_perturbed_stored_pi_value_fails_at_its_case(tmp_path):
    res = live("cuntz_m2", tmp_path)
    meta, arrays = stored_arrays(res, tmp_path)
    e12 = dict(dilation._pi_basis(res))["d0:b0e12"]
    # a value of the block pi(e12) places, read by no other basis element
    _, _, coef = pi_layout(arrays["pi_spans"], res.sys.base, res.rank)
    k = np.flatnonzero(coef == np.flatnonzero(e12.vec(res._depth))[0])[0]
    arrays["pi_values"] = arrays["pi_values"].copy()
    arrays["pi_values"][k] += 1e-3
    src = stored(res, meta, arrays)
    got = dilation._run_checks(src, Recorded(), SUITE)
    assert_same(got, oracle_run(src, Recorded(), ORACLE_SUITE))
    checks = {c.name: c for c in got.checks}
    assert not checks["pi.star"].passed and checks["pi.star"].detail == "d0:b0e12"
    assert not checks["pi.multiplicative"].passed
    assert "d0:b0e12" in checks["pi.multiplicative"].detail


def test_a_perturbed_stored_isometry_fails_a_word_through_its_generator(tmp_path):
    res = live("cuntz_m2", tmp_path)
    sg = res.sys.semigroup
    meta, arrays = stored_arrays(res, tmp_path)
    arrays["isometries"] = arrays["isometries"].copy()
    arrays["isometries"][1] *= 1.001
    checks = {c.name: c for c in identity_suite(stored(res, meta, arrays)).checks}
    assert checks["isometry.V[1]"].passed and not checks["isometry.V[2]"].passed
    word = checks["isometry.V[w]"]
    assert not word.passed and word.detail.startswith("w=")
    assert 2 in sg.as_word(ast.literal_eval(word.detail[2:]))


def test_the_plan_is_read_only_and_built_once_per_system(tmp_path):
    inst = parse_instance(instance_path("abelian_gram", tmp_path))
    results = [covariant_dilate(*build_pair(inst), inst.degree, inst.tolerances)
               for _ in range(2)]
    assert results[0].sys is results[1].sys and results[0].phi is not results[1].phi
    plan = dilation._plan(results[0])
    assert dilation._plan(results[1]) is plan
    meta, arrays = stored_arrays(results[0], tmp_path)
    sources = [stored(res, meta, arrays) for res in results]
    assert dilation._plan(sources[0]) is dilation._plan(sources[1]) is not plan
    arrays = [a for _, *cases in plan.cases.values() for a in cases]
    for a in arrays + [coords for *_, coords in plan.kernel]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_the_catalog_tables_are_shared_per_catalog_and_read_only(tmp_path):
    # two pairs of different h over one system share the gather tables and
    # the expansions, and each gets what fresh tables give it; a permuted
    # catalog gets tables of its own
    inst = parse_instance(instance_path("abelian_gram", tmp_path))
    sys_, phi, T = build_pair(inst)
    scalar = ContractionFamily(sys_.semigroup, [np.array([[0.5]]), np.array([[0.3j]])])
    pairs = [(phi, T), (extend_phi_T(sys_, scalar, inst.degree), scalar)]

    def dilate_both():
        return [covariant_dilate(sys_, f, t, inst.degree, inst.tolerances) for f, t in pairs]
    shared = dilate_both()
    assert shared[0].h != shared[1].h and shared[0]._memo is shared[1]._memo
    assert shared[0]._rows is shared[1]._rows and not shared[0]._rows.flags.writeable
    assert {("interior", 1), ("adjoint", 1)} <= shared[0]._memo.keys()
    for res in shared:
        sys_._memo.pop(("catalog", inst.degree, inst.tolerances.corner))
        (fresh,) = [r for r in dilate_both() if r.h == res.h]
        assert fresh._memo is not res._memo
        assert_same(dilation._run_checks(res, Recorded(), LIVE),
                    dilation._run_checks(fresh, Recorded(), LIVE))
        words = list(res._words)
        assert np.array_equal(res.v_word(words), fresh.v_word(words))
    own = shared[0]
    other = naimark_dilate(own.kernel, own.degree,
                           assembly=_permuted_assembly(own.assembly, 0))
    assert other._memo is not own._memo and other._rows is not own._rows
    assert _details(identity_suite(other)) == _details(identity_suite(own))


def test_a_warm_abelian_dilate_makes_pinned_element_and_apply_calls(tmp_path, monkeypatch):
    path = instance_path("abelian_gram", tmp_path)
    flags = {"output": str(tmp_path / "r.npz")}
    assert run_command("dilate", parse_instance(path), flags)["exit_code"] == 0
    calls = Counter()
    for owner, attr in ((LevelledElement, "vec"), (dilation.DilationResult, "_apply"),
                        (dilation.DilationResult, "_expansion")):
        def counted(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    assert run_command("dilate", parse_instance(path), flags)["exit_code"] == 0
    # the one expansion left is the embedding's; the rest are memoised
    assert dict(calls) == {"vec": 49, "_apply": 15, "_expansion": 1}
