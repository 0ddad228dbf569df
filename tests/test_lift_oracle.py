"""The memoised inclusion-exclusion against the sums it replaces.

The oracles live inside this module only:

* the per-subset sum: every subset's lcm computed from scratch
  (``signed_lcms``) and every signed term added in turn (``signed_sum``);
* the lift written once per monoid family: on abelian atoms an
  inclusion-exclusion over the point coordinates, on free atoms
  L(w) - sum_g L(wg) at a defect atom (a word shorter than the depth) and
  L(w) at a leaf cylinder, with
  L(p) = T(p) phi(beta_p^{-1}(u)) T(p)*.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    atom_values,
    box,
    commuting_contraction_pair,
    ewf_projection,
    lcm_of,
    phi_F,
    random_coisometry_pair,
    random_contraction,
    random_ucp_map,
    random_unitary,
)
from lcm_dilate.algebras import (
    BaseAlgebra,
    LevelledElement,
    ToeplitzModel,
)
from lcm_dilate.cli import parse_instance, run_command
from lcm_dilate.cpmaps import (
    BaseOperatorMap,
    ContractionFamily,
    build_phi_tilde,
    inclusion_exclusion,
    nica_defect,
    state_map,
)
from lcm_dilate.errors import ResourceCapError
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import LcmSystem, build_system

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def signed_lcms(sg, F, p=None) -> list:
    """((-1)^|U|, lcm(p, vU)) for every subset U of F, by size and then in
    combination order; subsets without a common multiple are skipped."""
    fs = [tuple(f) for f in F]
    head = () if p is None else (tuple(p),)
    out = []
    for k in range(len(fs) + 1):
        for combo in itertools.combinations(fs, k):
            s = lcm_of(sg, head + combo)
            if s is not None:
                out.append(((-1) ** k, s))
    return out


def signed_sum(signed, term):
    out = 0
    for sign, s in signed:
        out = out + sign * term(s)
    return out


def sorted_set(sg, F) -> list:
    return sorted({tuple(f) for f in F}, key=lambda e: (sg.length(e), e))


def oracle_defect(T, F):
    sg = T.semigroup
    return signed_sum(signed_lcms(sg, sorted_set(sg, F)),
                      lambda s: T(s) @ T(s).conj().T)


def lifted(sg, betas, phi, T, p, u):
    """L(p) = T(p) phi(beta_p^{-1}(u)) T(p)*."""
    bu = np.eye(u.shape[0], dtype=complex)
    for letter in sg.as_word(p):
        bu = bu @ betas[letter - 1]
    tp = T(p)
    return tp @ phi.value(bu.conj().T @ u @ bu) @ tp.conj().T


def oracle_lift(sys_, phi, T, depth) -> dict:
    d = sys_.model.normalize_depth(depth)
    units = sys_.base.basis()

    def L(p, u):
        return lifted(sys_.semigroup, sys_.betas, phi, T, p, u)

    def abelian_atom_value(atom, u):
        points = [i for i in range(len(atom)) if atom[i] < max(q[i] for q in d)]
        out = np.zeros((T.h, T.h), dtype=complex)
        for k in range(len(points) + 1):
            for combo in itertools.combinations(points, k):
                v = list(atom)
                for i in combo:
                    v[i] += 1
                out = out + (-1) ** k * L(tuple(v), u)
        return out

    def free_atom_value(w, u):
        v = L(w, u)
        if len(w) < sys_.model.depth_max(d):    # a defect atom
            for g in sys_.semigroup.generators:
                v = v - L(w + g, u)
        return v

    value = (abelian_atom_value if isinstance(sys_.semigroup, FreeAbelian)
             else free_atom_value)
    return {atom: np.array([value(atom, u) for u in units])
            for atom in sys_.model.atoms(d)}


def assert_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


# ---------------------------------------------------------------------------
# the cases: (system, phi, T, depth)
# ---------------------------------------------------------------------------


def _diagonal_unitary(rng):
    return np.diag(np.exp(2j * np.pi * rng.random(2)))


def abelian_rank1():
    rng = np.random.default_rng(11)
    sg = FreeAbelian(1)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), M2, betas=[random_unitary(rng, 2)])
    T = ContractionFamily(sg, [random_contraction(rng, 2)])
    return sys_, random_ucp_map(rng, M2, 2), T, 3


def abelian_rank2():
    rng = np.random.default_rng(12)
    sg = FreeAbelian(2)
    betas = [_diagonal_unitary(rng), _diagonal_unitary(rng)]
    sys_ = LcmSystem(sg, ToeplitzModel(sg), M2, betas=betas)
    T = ContractionFamily(sg, commuting_contraction_pair(rng))
    return sys_, random_ucp_map(rng, M2, 2), T, box((2, 1))


def toeplitz_free_rank2():
    rng = np.random.default_rng(13)
    sg = FreeMonoid(2)
    betas = [random_unitary(rng, 2), random_unitary(rng, 2)]
    sys_ = LcmSystem(sg, ToeplitzModel(sg), M2, betas=betas)
    T = ContractionFamily(sg, [0.8 * t for t in random_coisometry_pair(rng, 2)])
    return sys_, random_ucp_map(rng, M2, 2), T, 2


def boundary_free_m2():
    rng = np.random.default_rng(14)
    sg = FreeMonoid(2)
    betas = [random_unitary(rng, 2), random_unitary(rng, 2)]
    sys_ = LcmSystem(sg, ToeplitzModel(sg, boundary=True), M2, betas=betas)
    T = ContractionFamily(sg, random_coisometry_pair(rng, 2))
    return sys_, state_map(M2, np.eye(2) / 2.0, 2), T, 2


CASES = [abelian_rank1, abelian_rank2, toeplitz_free_rank2, boundary_free_m2]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_lift_equals_the_per_model_oracle_bit_for_bit(case):
    sys_, phi, T, depth = case()
    lift = atom_values(build_phi_tilde(sys_, phi, T, depth))
    expected = oracle_lift(sys_, phi, T, depth)
    assert list(lift) == list(expected)
    for atom, vals in expected.items():
        if case is abelian_rank2:
            # two cut-off coordinates: the recurrence sums
            # (L(a) - L(a+e1)) - (L(a+e2) - L(a+e1+e2)), the oracle adds the
            # four terms in turn, so the two agree only to rounding
            assert_close(lift[atom], vals)
        else:
            assert np.array_equal(lift[atom], vals), atom


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_every_atom_is_the_projection_of_its_cylinder(case):
    sys_ = case()[0]
    model, base = sys_.model, sys_.base
    for depth in range(4):
        d = model.normalize_depth(depth)
        for atom in model.atoms(d):
            p, F = model.cylinder(atom, d)
            e = ewf_projection(sys_, [p], [p, *F]).refine_to(d)
            one = LevelledElement.from_atom(model, base, d, atom, base.unit())
            # beta_p conjugates the unit to itself up to rounding
            assert (e - one).norm() <= 1e-12, (depth, atom)


@pytest.mark.parametrize("sg,T_mats,F", [
    (FreeAbelian(2), commuting_contraction_pair(np.random.default_rng(15)),
     [(1, 0), (0, 1)]),
    (FreeAbelian(2), commuting_contraction_pair(np.random.default_rng(16)),
     [(0, 2), (1, 1), (2, 0), (1, 0)]),
    (FreeMonoid(2), [0.9 * t for t in random_coisometry_pair(
        np.random.default_rng(17), 2)], [(1,), (2,), (1, 2), (1, 2, 1)]),
])
def test_phi_F_of_the_unit_map_is_the_nica_defect(sg, T_mats, F):
    T = ContractionFamily(sg, T_mats)
    unit_map = BaseOperatorMap(C, [np.eye(T.h)])
    out = phi_F(unit_map, [np.eye(1)] * sg.rank, T, F)
    assert np.array_equal(out.values[0], nica_defect(T, F))


def test_oracle_terms_and_subset_cap():
    sg = FreeMonoid(2)
    assert signed_lcms(sg, [(1,), (2,), (1, 2)]) == [
        (1, ()), (-1, (1,)), (-1, (2,)), (-1, (1, 2)), (1, (1, 2)),
    ]
    assert signed_lcms(sg, [(1, 1), (1, 2)], (1,)) == [
        (1, (1,)), (-1, (1, 1)), (-1, (1, 2)),
    ]
    assert signed_lcms(FreeAbelian(2), [(1, 0), (0, 1)], (0, 0)) == [
        (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)), (1, (1, 1)),
    ]
    T = ContractionFamily(sg, [0.5 * np.eye(1), 0.5 * np.eye(1)])
    message = r"inclusion-exclusion over 3 elements needs 2\^3 terms \(cap 2\)"
    with pytest.raises(ResourceCapError, match=message):
        nica_defect(T, [(1,), (2,), (1, 1)], cap=2)
    with pytest.raises(ResourceCapError, match=message):
        phi_F(BaseOperatorMap(C, [np.eye(1)]), [np.eye(1)] * 2, T,
              [(1,), (2,), (1, 1)], cap=2)


# ---------------------------------------------------------------------------
# random heads and sets over free and abelian rank 2
# ---------------------------------------------------------------------------


def _free_pair(rng):
    return [0.9 * t for t in random_coisometry_pair(rng, 2)]


RANK2 = {
    "free": (FreeMonoid(2), ToeplitzModel(FreeMonoid(2)), random_unitary, _free_pair,
             st.lists(st.integers(1, 2), max_size=3).map(tuple)),
    "abelian": (FreeAbelian(2), ToeplitzModel(FreeAbelian(2)),
                lambda rng, n: _diagonal_unitary(rng), commuting_contraction_pair,
                st.tuples(st.integers(0, 3), st.integers(0, 3))),
}


@pytest.mark.parametrize("kind", sorted(RANK2))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_memoised_sums_match_the_per_subset_oracle(kind, data):
    sg, model, unitary, pair, element = RANK2[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    T = ContractionFamily(sg, pair(rng))
    betas = [unitary(rng, 2), unitary(rng, 2)]
    phi = random_ucp_map(rng, M2, 2)
    head = data.draw(element, label="head")
    F = tuple(data.draw(st.lists(element, max_size=5), label="F"))

    def term(s):
        return np.array([lifted(sg, betas, phi, T, s, u) for u in M2.basis()])

    assert_close(inclusion_exclusion(sg, term, head, F, {}),
                 signed_sum(signed_lcms(sg, F, head), term))
    assert_close(nica_defect(T, F), oracle_defect(T, F))
    assert_close(np.array(phi_F(phi, betas, T, F).values),
                 signed_sum(signed_lcms(sg, sorted_set(sg, F)), term))

    sys_ = LcmSystem(sg, model, M2, betas=betas)
    depth = data.draw(st.integers(0, 2), label="depth")
    lift = build_phi_tilde(sys_, phi, T, depth)
    for atom, vals in atom_values(lift).items():
        p, cut = model.cylinder(atom, model.normalize_depth(depth))
        assert_close(vals, signed_sum(signed_lcms(sg, cut, p), term))


# ---------------------------------------------------------------------------
# check-nica: shared work and the witness rule
# ---------------------------------------------------------------------------


def test_check_nica_shares_lcms_across_nested_sets(monkeypatch):
    calls = []
    original = FreeAbelian.lcm

    def counting_lcm(self, p, q):
        calls.append(1)
        return original(self, p, q)

    monkeypatch.setattr(FreeAbelian, "lcm", counting_lcm)
    inst = parse_instance(str(FIXTURES / "commuting_unitaries.json"))
    report = run_command("check-nica", inst, {"depth": 3, "max_f": 4})
    pool = [p for p in FreeAbelian(2).enumerate_up_to(3) if max(p) >= 1]
    sets = [F for k in range(1, 5) for F in itertools.combinations(pool, k)]
    assert report["extra"]["subsets_checked"] == len(sets) == 1940
    assert 10 * len(calls) <= sum(2 ** len(F) for F in sets)


@pytest.mark.parametrize("name,depth", [
    ("commuting_unitaries.json", None), ("commuting_unitaries.json", 3),
    ("nica_nilpotent.json", None), ("sznagy_half.json", None),
    ("cuntz_m2.json", None),
])
def test_check_nica_witness_is_the_first_set_near_the_worst(name, depth):
    inst = parse_instance(str(FIXTURES / name))
    flags = {} if depth is None else {"depth": depth}
    report = run_command("check-nica", inst, flags)
    T = ContractionFamily(build_system(inst.system_config).semigroup, inst.t_mats)
    sg = T.semigroup
    pool = [p for p in sg.enumerate_up_to(depth or inst.degree)
            if sg.length(p) >= 1]
    sets = [F for k in range(1, min(4, len(pool)) + 1)
            for F in itertools.combinations(pool, k)]
    eigs = [np.linalg.eigvalsh((d + d.conj().T) / 2.0)
            for d in (oracle_defect(T, F) for F in sets)]
    least = [float(w[0]) for w in eigs]
    worst = min(least)
    scale = max(1.0, max(float(np.abs(w).max()) for w in eigs))
    tol = inst.tolerances.psd * scale
    witness = next(F for F, x in zip(sets, least) if x <= worst + tol)
    (check,) = report["checks"]
    assert report["extra"]["worst_F"] == [list(f) for f in witness]
    assert abs(check["value"] - worst) <= 1e-12 * scale
