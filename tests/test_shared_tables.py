"""The tables a Toeplitz model shares across the process hold no instance.

``build_system`` hands out one model per (monoid, boundary), and the model
keeps its depths, atoms, corners, Gram plans and one system per (base,
betas) for every later caller.  Dilating one instance, another over the
same system and the first again in one process must give the first its own
report and result back, and the second what it gets from fresh tables;
further instances of a structure add no table entry; clearing the models
clears their systems; a record a caller edits is its own copy; and a table
entry keyed on a base algebra is that base's.  The corners are read off the
atoms by divisibility, checked here against the product of the range
projections E_p E_q refined to the depth, and their number by
inclusion-exclusion against that list.
"""

import hashlib

import numpy as np
import pytest

from conftest import load_perfbench
from lcm_dilate import systems
from lcm_dilate.algebras import BaseAlgebra, ToeplitzModel
from lcm_dilate.cli import parse_instance, run_command
from lcm_dilate.kernel import gram_plan
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import LcmSystem, build_system


@pytest.fixture
def abelian_gram(tmp_path):
    """The four instances of one abelian_gram pass (seed 1): one monoid,
    one base, four pairs T."""
    workloads = load_perfbench("workloads")
    return [inst.path for inst in workloads.generate("abelian_gram", 1,
                                                     str(tmp_path), 4)]


def dilate(path: str, out: str) -> tuple[str, str]:
    report = run_command("dilate", parse_instance(path),
                         {"output": out, "result": out})
    assert report["exit_code"] == 0
    with open(out, "rb") as fh:
        return report["report_hash"], hashlib.sha256(fh.read()).hexdigest()


def test_dilations_do_not_see_each_other(abelian_gram, tmp_path):
    a, b = abelian_gram[:2]
    out = str(tmp_path / "r.npz")
    systems._MODELS.clear()
    first_a = dilate(a, out)
    then_b = dilate(b, out)
    assert dilate(a, out) == first_a
    systems._MODELS.clear()
    assert dilate(b, out) == then_b
    assert then_b != first_a
    # one system served all three: the instances differ only in T
    configs = [parse_instance(path).system_config for path in (a, b)]
    assert build_system(configs[0]) is build_system(configs[1])


def test_one_system_per_configuration():
    def config(blocks=(1,), betas=None, kind="toeplitz_abelian"):
        out = {"semigroup": {"kind": "free_abelian", "rank": 2},
               "model": {"kind": kind}, "base": {"blocks": list(blocks)}}
        if betas is not None:
            out["betas"] = betas
        return out

    phase = [np.diag([1.0, 1j]), np.eye(2)]
    one = build_system(config())
    assert build_system(config()) is one
    assert build_system(config(blocks=(2,))) is not one
    assert build_system(config(blocks=(2,), betas=phase)) is build_system(
        config(blocks=(2,), betas=[b.copy() for b in phase]))
    assert build_system(config(blocks=(2,), betas=phase)) is not build_system(
        config(blocks=(2,), betas=phase[::-1]))
    # point-model systems are built anew, each over its own model
    assert build_system(config(kind="matrix")) is not build_system(config(kind="matrix"))
    # clearing the models clears the systems they hold
    systems._MODELS.clear()
    fresh = build_system(config())
    assert fresh is not one and fresh.model is not one.model


def test_a_record_a_caller_edits_is_its_own(abelian_gram, tmp_path):
    inst = parse_instance(abelian_gram[0])
    out = str(tmp_path / "r.npz")
    before = run_command("dilate", inst, {"output": out, "result": out})
    sys_ = build_system(inst.system_config)
    edited = sys_.validate(depth=1)
    for record in edited.checks:
        record.detail, record.passed, record.value = "edited", False, -1.0
    again = sys_.validate(depth=1)
    assert again.passed and all(c.detail != "edited" for c in again.checks)
    assert again.checks is not edited.checks
    after = run_command("dilate", inst, {"output": out, "result": out})
    assert after["report_hash"] == before["report_hash"]
    assert after["checks"] == before["checks"]


def test_later_instances_add_no_table_entries(abelian_gram, tmp_path):
    out = str(tmp_path / "r.npz")
    systems._MODELS.clear()
    dilate(abelian_gram[0], out)
    (model,) = systems._MODELS.values()
    sys_ = build_system(parse_instance(abelian_gram[0]).system_config)
    size, own = len(model._memo), len(sys_._memo)
    for path in abelian_gram[1:]:
        dilate(path, out)
        assert len(model._memo) == size
        assert len(sys_._memo) == own
    assert systems._MODELS == {(FreeAbelian(2), False): model}


def test_each_base_gets_its_own_catalog():
    def system(blocks):
        return build_system({"semigroup": {"kind": "free_abelian", "rank": 2},
                             "model": {"kind": "toeplitz_abelian"},
                             "base": {"blocks": blocks}})

    one, two = system([1]), system([2])
    assert one.model is two.model
    p1, p2 = gram_plan(one, 2), gram_plan(two, 2)
    assert len(p2.catalog) == 4 * len(p1.catalog)
    assert {idx.key[1:] for idx in p1.catalog} == {(0, 0)}
    assert {idx.element.base for idx in p2.catalog} == {BaseAlgebra((2,))}
    assert gram_plan(system([1]), 2) is p1


@pytest.mark.parametrize("model", [
    ToeplitzModel(FreeAbelian(2)),
    ToeplitzModel(FreeMonoid(2)),
    ToeplitzModel(FreeMonoid(2), boundary=True),
], ids=["abelian", "free", "boundary"])
def test_corners_are_the_atoms_under_both_projections(model):
    sg, base = model.semigroup, BaseAlgebra((2,))
    sys_ = LcmSystem(sg, model, base)
    one = model.normalize_depth(1)
    # int depths, and the lcm-closed sets a join and a shift make
    depths = [model.normalize_depth(d) for d in range(4)] + [
        model.join_depth(model.shift_depth(one, 1), model.shift_depth(one, 2)),
        model.shift_depth(model.normalize_depth(2), 2)]
    for d in depths:
        words = sorted(d)
        for p in words:
            ep = sys_.unit_projection(p)
            for q in words:
                epq = (ep * sys_.unit_projection(q)).refine_to(d)
                want = [a for a in model.atoms(d) if a in epq.coeffs
                        and np.array_equal(epq.coeffs[a], base.unit())]
                assert all(a in want or not np.abs(v).max()
                           for a, v in epq.coeffs.items())
                corner = sys_.corner_basis(p, q, d)
                assert corner.keys == [(a, i, j) for a in want
                                       for i, j in base.unit_positions()]
            # the size check counts the atoms under E_p without listing them
            assert model.under_count(p, d) == len(model.atoms_under(p, d))
