"""Truncations that agree: a deeper truncation never changes what a
shallower one already covers.

For degrees d < d', the compressions to the embedded space of the dilation
at d and at d' agree to 1e-9: iota* V(p) iota on every word p of length at
most d, and iota* pi(a) iota on the algebra basis at every depth up to d.
One pair per model kind: free abelian rank 1 and 2, the free monoid of
rank 2 and its boundary quotient, and the point model.
"""

import numpy as np
import pytest

from conftest import FIXTURES, random_coisometry_pair
from lcm_dilate.algebras import BaseAlgebra, ToeplitzModel
from lcm_dilate.cli import build_pair, parse_instance
from lcm_dilate.cpmaps import ContractionFamily, extend_phi_T
from lcm_dilate.dilation import covariant_dilate
from lcm_dilate.semigroup import FreeMonoid
from lcm_dilate.systems import LcmSystem
from test_persist import _point_model_instance

DRIFT_TOL = 1e-9


def _instance(path):
    inst = parse_instance(str(path))

    def dilate(degree):
        sys_, phi, T, _ = build_pair(inst, degree=degree)
        return covariant_dilate(sys_, phi, T, degree, inst.tolerances)
    return dilate


def _free_rank2(degree):
    sg = FreeMonoid(2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), BaseAlgebra((1,)))
    T = ContractionFamily(sg, [0.9 * t for t in random_coisometry_pair(
        np.random.default_rng(11), 2)])
    ext = extend_phi_T(sys_, T, degree)
    assert ext.accepted
    return covariant_dilate(sys_, ext.map, T, degree)


# kind -> (the dilation at a degree, given a scratch directory; the degrees)
KINDS = {
    "abelian_rank1": (lambda tmp: _instance(FIXTURES / "sznagy_half.json"),
                      (1, 2, 4, 6)),
    "abelian_rank2": (lambda tmp: _instance(FIXTURES / "commuting_unitaries.json"),
                      (1, 2, 3)),
    "free_rank2": (lambda tmp: _free_rank2, (1, 2, 3)),
    "boundary_rank2": (lambda tmp: _instance(FIXTURES / "cuntz_m2.json"), (1, 2, 3)),
    "point": (lambda tmp: _instance(_point_model_instance(tmp)), (1, 2, 3)),
}


def compressions(res) -> dict:
    """iota* V(p) iota per word and iota* pi(a) iota per basis element,
    keyed by word and by (depth, label)."""
    sys_, emb = res.sys, res.embedding
    out = {("V", p): res.compress_v(p)
           for p in sys_.semigroup.enumerate_up_to(res.degree)}
    for k in range(res.degree + 1):
        for label, a in zip(sys_.basis_labels(k), sys_.algebra_basis(k)):
            out["pi", k, label] = emb.conj().T @ res.pi(a) @ emb
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_compressions_agree_across_truncation_degrees(kind, tmp_path):
    make, degrees = KINDS[kind]
    dilate = make(tmp_path)
    seen = [compressions(dilate(d)) for d in degrees]
    for i, shallow in enumerate(seen):
        for deep in seen[i + 1:]:
            assert shallow.keys() <= deep.keys()
            drift = max(np.linalg.norm(m - deep[key], 2) for key, m in shallow.items())
            assert drift <= DRIFT_TOL, (kind, degrees[i], drift)
