"""The tables a Toeplitz model shares across the process hold no instance.

``build_system`` hands out one model per (monoid, boundary), and the model
keeps its depths, atoms, corners and Gram plans for every later system.
Dilating one instance, another over the same monoid and the first again in
one process must give the first its own report and result back, and the
second what it gets from fresh tables; further instances of a structure
add no table entry; and a table entry keyed on a base algebra is that
base's.  The corners are read off the atoms by divisibility, checked here
against the product of the range projections E_p E_q refined to the depth.
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


def test_later_instances_add_no_table_entries(abelian_gram, tmp_path):
    out = str(tmp_path / "r.npz")
    systems._MODELS.clear()
    dilate(abelian_gram[0], out)
    (model,) = systems._MODELS.values()
    size = len(model._memo)
    for path in abelian_gram[1:]:
        dilate(path, out)
        assert len(model._memo) == size
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
