"""pi from its linear table against the per-element construction.

``DilationResult.pi`` reads pi(a) off one table per result: the flat
positions, coefficient numbers and values of every block B_t C_s (or the
identity) that a coefficient a[atom][i, c] places.  The oracle builds pi(a)
as the library did before the table: a loop over the atoms of a, the
columns c and rows i of each base block, writing z times the block of each
nonzero coefficient z and refusing a column with weight outside the base
block of c.  Both must give bit-equal matrices (signed zeros included) on
every model kind the fixtures use and on a two-block base, and refuse the
same elements with the same message.
"""

import json

import numpy as np
import pytest

from conftest import FIXTURES, load_perfbench, random_ucp_map
from lcm_dilate.algebras import BaseAlgebra, LevelledElement, ToeplitzModel
from lcm_dilate.cli import build_pair, parse_instance
from lcm_dilate.cpmaps import ContractionFamily, build_phi_tilde
from lcm_dilate.dilation import covariant_dilate, naimark_dilate
from lcm_dilate.errors import SpecMismatchError
from lcm_dilate.kernel import KernelSystem
from lcm_dilate.semigroup import FreeAbelian
from lcm_dilate.systems import LcmSystem


def oracle_pi(res, a) -> np.ndarray:
    """pi(a) element by element."""
    ar = a.refine_to(res._depth)
    base = res.sys.base
    out = np.zeros((res.rank, res.rank), dtype=np.complex128)
    for atom, v in ar.coeffs.items():
        for sl in base.block_slices():
            for c in range(sl.start, sl.stop):
                s = res._block_at.get((atom, c))
                if s is None:
                    continue
                col = v[:, c]
                outside = float(np.sum(np.abs(col[:sl.start]) ** 2)
                                + np.sum(np.abs(col[sl.stop:]) ** 2))
                if outside:
                    total = float(np.linalg.norm(col)) ** 2
                    res._check_corner(res.assembly.catalog[res.factors[s].rows[0]].q,
                                      (outside / max(1.0, total)) ** 0.5)
                span = res.factors[s].span
                for i in range(sl.start, sl.stop):
                    z = col[i]
                    if z == 0:
                        continue
                    t = res._block_at[(atom, i)]
                    if t == s:
                        out[span, span] = z * np.eye(span.stop - span.start)
                    else:
                        out[res.factors[t].span, span] = z * (
                            res.factors[t].factor @ res.factors[s].cofactor)
    return out


def _fixture(name, **system):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    doc["system"].update(system)
    return doc


def _dilate_doc(doc, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    instance = parse_instance(str(path))
    sys_, phi, T, _ = build_pair(instance)
    return covariant_dilate(sys_, phi, T, instance.degree)


def _matrix_state(tmp_path):
    workloads = load_perfbench("workloads")
    (inst,) = workloads.generate("matrix_dense", 1, str(tmp_path), 1)
    return _dilate_doc(json.loads(open(inst.path).read()), tmp_path)


def _two_blocks(tmp_path):
    rng = np.random.default_rng(7)
    base, sg = BaseAlgebra((2, 1)), FreeAbelian(1)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), base)
    T = ContractionFamily(sg, [0.5 * np.eye(2)])
    phi = build_phi_tilde(sys_, random_ucp_map(rng, base, 2), T, 3)
    return naimark_dilate(KernelSystem(sys_, phi, T), 3)


CASES = {
    "toeplitz_abelian": lambda tmp: _dilate_doc(_fixture("commuting_unitaries"), tmp),
    "toeplitz_abelian_rank1": lambda tmp: _dilate_doc(_fixture("sznagy_half"), tmp),
    "toeplitz_free": lambda tmp: _dilate_doc(
        _fixture("cuntz_m2", model={"kind": "toeplitz_free"}), tmp),
    "boundary_free": lambda tmp: _dilate_doc(_fixture("cuntz_m2"), tmp),
    "matrix": _matrix_state,
    "two_blocks": _two_blocks,
}


@pytest.fixture(scope="module", params=list(CASES))
def result(request, tmp_path_factory):
    return CASES[request.param](tmp_path_factory.mktemp("pi"))


def random_element(res, rng, signs) -> LevelledElement:
    """A block-diagonal element at the catalog depth: random values whose
    real and imaginary parts carry ``signs``, with some atoms and some
    entries exactly zero."""
    base, model = res.sys.base, res.sys.model
    mask = np.zeros((base.dim, base.dim), dtype=bool)
    for sl in base.block_slices():
        mask[sl, sl] = True
    coeffs = {}
    for atom in model.atoms(res._depth):
        if rng.random() < 0.2:
            continue
        z = (signs[0] * rng.uniform(0.1, 2.0, mask.shape)
             + 1j * signs[1] * rng.uniform(0.1, 2.0, mask.shape))
        coeffs[atom] = np.where(mask & (rng.random(mask.shape) < 0.8), z, 0)
    return LevelledElement(model, base, res._depth, coeffs)


def test_pi_table_is_bit_equal_to_the_per_element_construction(result):
    res, rng = result, np.random.default_rng(11)
    elements = [b for d in range(res.pi_depth + 1) for b in res.sys.algebra_basis(d)]
    elements += [res.sys.unit(), res.sys.zero()]
    elements += [random_element(res, rng, signs)
                 for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1))]
    elements += [b.star() * (-1.5 + 0.5j) for b in res.sys.algebra_basis(1)]
    for k, a in enumerate(elements):
        want = oracle_pi(res, a)
        got = res.pi(a)
        assert got.shape == want.shape == (res.rank, res.rank)
        assert got.tobytes() == want.tobytes(), k


def test_pi_table_refuses_what_the_oracle_refuses(tmp_path):
    # a coefficient column with weight outside its base block: within the
    # corner tolerance it is dropped, above it refused, by both
    res = _two_blocks(tmp_path)
    base, model = res.sys.base, res.sys.model
    atom = model.atoms(res._depth)[0]
    for weight, refused in ((1e-12, False), (0.5, True)):
        v = np.eye(base.dim, dtype=complex)
        v[base.dim - 1, 0] = weight          # row of block 2, column of block 1
        a = LevelledElement(model, base, res._depth, {atom: v})
        if refused:
            with pytest.raises(SpecMismatchError) as want:
                oracle_pi(res, a)
            with pytest.raises(SpecMismatchError) as got:
                res.pi(a)
            assert "leaves the truncation catalog" in str(got.value)
            assert str(got.value) == str(want.value)
        else:
            assert res.pi(a).tobytes() == oracle_pi(res, a).tobytes()
