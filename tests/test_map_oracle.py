"""The one evaluator of a linear map out of the algebra against the
per-atom evaluations it replaces.

``LevelledOperatorMap.value`` refines x to the map's depth, gathers the
block entries of each atom of x into its row of coefficients and takes one
product with the value stack.  The oracles evaluate as the library did
before:

* ``oracle_coefficients``: the entries of each base block, sliced and
  concatenated;
* ``oracle_value``: a levelled map atom by atom, one coefficient row per
  atom of x and ``np.tensordot`` over (atom, unit); on the point model the
  base map of the one atom's value, ``np.tensordot`` over the units;
* ``oracle_stored_pi``: the coefficients of every atom at the stored pi
  depth concatenated and ``np.tensordot`` with the stored stack;
* ``oracle_stage``: the domain coefficients ``np.tensordot`` with the
  generator's basis images.

Each pair must agree bit for bit (``tobytes``).
"""

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    random_coisometry_pair,
    random_matrix,
    random_ucp_map,
    random_unitary,
)
from lcm_dilate.algebras import BaseAlgebra, LevelledElement, PointModel, ToeplitzModel
from lcm_dilate.cli import build_pair, parse_instance, run_command
from lcm_dilate.cpmaps import ContractionFamily, build_phi_tilde, state_map
from lcm_dilate.persist import StoredDilation, load_result
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid
from lcm_dilate.systems import GeneratorMap, LcmSystem, build_system
from test_persist import _point_model_instance

C, M2 = BaseAlgebra((1,)), BaseAlgebra((2,))


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def oracle_coefficients(base: BaseAlgebra, mat) -> np.ndarray:
    return np.concatenate([np.asarray(mat)[sl, sl].reshape(-1)
                           for sl in base.block_slices()])


def oracle_value(phi, x: LevelledElement) -> np.ndarray:
    y = x.refine_to(phi.depth)
    units = phi.base.linear_dim
    stack = phi.values.reshape(len(phi.atoms), units, phi.h, phi.h)
    if isinstance(phi.model, PointModel):
        coeff = oracle_coefficients(phi.base, np.asarray(y.coefficient(()),
                                                         dtype=complex))
        return np.tensordot(coeff, stack[0], axes=(0, 0))
    row = {atom: k for k, atom in enumerate(phi.atoms)}
    coeff = np.zeros((len(phi.atoms), units), dtype=complex)
    for atom, mat in y.coeffs.items():
        coeff[row[atom]] = oracle_coefficients(phi.base, mat)
    return np.tensordot(coeff, stack, axes=([0, 1], [0, 1]))


def oracle_stored_pi(stored: StoredDilation, stack, x) -> np.ndarray:
    model = stored.sys.model
    depth = model.normalize_depth(stored.pi_depth)
    y = x.refine_to(depth)
    coeffs = np.concatenate([oracle_coefficients(stored.sys.base, y.coefficient(atom))
                             for atom in model.atoms(depth)])
    return np.tensordot(coeffs, stack, axes=1)


def oracle_stage(domain: BaseAlgebra, images, x) -> np.ndarray:
    coeff = oracle_coefficients(domain, x.coefficient(()))
    return np.tensordot(coeff, images, axes=(0, 0))


# ---------------------------------------------------------------------------
# the elements evaluated
# ---------------------------------------------------------------------------


def random_element(rng, sys_, depth) -> LevelledElement:
    """Random values, off-block entries included, on a random nonempty
    subset of the atoms at ``depth``."""
    model, base = sys_.model, sys_.base
    d = model.normalize_depth(depth)
    atoms = model.atoms(d)
    keep = rng.random(len(atoms)) < 0.6
    keep[rng.integers(len(atoms))] = True
    return LevelledElement(model, base, d, {a: random_matrix(rng, base.dim)
                                            for a, k in zip(atoms, keep) if k})


def elements(rng, sys_, depth, count=12) -> list:
    """The algebra basis at every depth up to ``depth``, random elements
    there, their products, and the pullbacks alpha_p^-1 and pushforwards
    alpha_p of the generators that stay within ``depth``."""
    model = sys_.model
    top = model.normalize_depth(depth)
    out = []
    for k in range(model.depth_max(top) + 1):
        out += sys_.algebra_basis(k)
        out += [random_element(rng, sys_, k) for _ in range(count)]
    out += [a * b for a, b in zip(out[-count:], out[-2 * count:-count])]
    for g in sys_.semigroup.generators:
        for x in out[-count:]:
            out.append(sys_.alpha_inverse(g, x))
            pushed = sys_.apply_endo(g, x)
            if model.depth_leq(pushed.depth, top):
                out.append(pushed)
    return [x for x in out if model.depth_leq(x.depth, top)]


def assert_bit_equal(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# ---------------------------------------------------------------------------
# maps: one per model kind and base
# ---------------------------------------------------------------------------


def abelian_rank1():
    rng = np.random.default_rng(31)
    sg = FreeAbelian(1)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), M2, betas=[random_unitary(rng, 2)])
    T = ContractionFamily(sg, [0.8 * random_unitary(rng, 2)])
    return sys_, build_phi_tilde(sys_, random_ucp_map(rng, M2, 2), T, 3)


def abelian_rank2():
    rng = np.random.default_rng(32)
    sg = FreeAbelian(2)
    t = 0.7 * random_unitary(rng, 2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), C)
    T = ContractionFamily(sg, [t, t @ t])
    return sys_, build_phi_tilde(sys_, random_ucp_map(rng, C, 2), T, 3)


def toeplitz_free():
    rng = np.random.default_rng(33)
    sg = FreeMonoid(2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), M2)
    T = ContractionFamily(sg, [0.9 * t for t in random_coisometry_pair(rng, 2)])
    return sys_, build_phi_tilde(sys_, random_ucp_map(rng, M2, 2), T, 2)


def boundary_free():
    rng = np.random.default_rng(34)
    sg = FreeMonoid(2)
    betas = [random_unitary(rng, 2), random_unitary(rng, 2)]
    sys_ = LcmSystem(sg, ToeplitzModel(sg, boundary=True), M2, betas=betas)
    T = ContractionFamily(sg, random_coisometry_pair(rng, 2))
    return sys_, build_phi_tilde(sys_, state_map(M2, np.eye(2) / 2.0, 2), T, 2)


def two_blocks():
    rng = np.random.default_rng(35)
    base, sg = BaseAlgebra((2, 1)), FreeAbelian(1)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), base)
    T = ContractionFamily(sg, [0.5 * np.eye(2)])
    return sys_, build_phi_tilde(sys_, random_ucp_map(rng, base, 2), T, 3)


def point_unitary():
    rng = np.random.default_rng(36)
    sg = FreeAbelian(2)
    alphas = [GeneratorMap(unitary=random_unitary(rng, 2)) for _ in range(2)]
    sys_ = LcmSystem(sg, PointModel(2), M2, alphas=alphas)
    return sys_, build_phi_tilde(sys_, random_ucp_map(rng, M2, 3), None, 0)


def point_linear():
    # the conjugation by u on row-major vectors is u (x) conj(u)
    rng = np.random.default_rng(37)
    sg = FreeAbelian(1)
    u = random_unitary(rng, 2)
    sys_ = LcmSystem(sg, PointModel(1), M2,
                     alphas=[GeneratorMap(linear=np.kron(u, u.conj()))])
    return sys_, build_phi_tilde(sys_, random_ucp_map(rng, M2, 2), None, 0)


MAPS = [abelian_rank1, abelian_rank2, toeplitz_free, boundary_free, two_blocks,
        point_unitary, point_linear]


@pytest.mark.parametrize("case", MAPS, ids=lambda c: c.__name__)
def test_map_value_is_the_per_atom_evaluation_bit_for_bit(case):
    sys_, phi = case()
    xs = elements(np.random.default_rng(40), sys_, phi.depth)
    assert len(xs) >= 30
    for k, x in enumerate(xs):
        assert_bit_equal(phi.value(x), oracle_value(phi, x), (k, x.depth))


@pytest.mark.parametrize("blocks", [(1,), (2,), (3,), (2, 1), (1, 1, 2)])
def test_coefficients_are_the_block_slices(blocks):
    base = BaseAlgebra(blocks)
    rng = np.random.default_rng(41)
    stack = np.array([random_matrix(rng, base.dim) for _ in range(5)])
    for m in stack:
        assert_bit_equal(base.coefficients(m), oracle_coefficients(base, m), blocks)
    assert_bit_equal(base.coefficients(stack),
                     np.array([oracle_coefficients(base, m) for m in stack]), blocks)


# ---------------------------------------------------------------------------
# the stored pi and the stage maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sznagy_half.json", "point_state"])
def test_stored_pi_is_the_concatenated_evaluation_bit_for_bit(name, tmp_path):
    path = (_point_model_instance(tmp_path) if name == "point_state"
            else str(FIXTURES / name))
    out = str(tmp_path / "r.npz")
    assert run_command("dilate", parse_instance(path), {"output": out})["exit_code"] == 0
    meta, arrays = load_result(out)
    inst = parse_instance(path)
    sys_, phi, T, _ = build_pair(inst, degree=meta["degree"])
    stack = arrays["pi"].copy()
    stored = StoredDilation(meta, arrays, sys_, phi, T, inst.tolerances)
    xs = elements(np.random.default_rng(42), sys_, stored.pi_depth)
    assert len(xs) >= 30
    for k, x in enumerate(xs):
        assert_bit_equal(stored.pi(x), oracle_stored_pi(stored, stack, x), k)


def test_stage_maps_are_the_image_combinations_bit_for_bit():
    inst = parse_instance(str(FIXTURES / "uhf_stage_m2.json"))
    config = inst.system_config
    sys_ = build_system(config)
    rng = np.random.default_rng(43)
    xs = sys_.algebra_basis(0) + [sys_._element(0, random_matrix(rng, sys_.domain.dim))
                                  for _ in range(20)]
    for g, images in enumerate(config["basis_images"], start=1):
        images = np.array(images, dtype=complex)
        for k, x in enumerate(xs):
            got = sys_.apply_generator(g, x).coefficient(())
            assert_bit_equal(got, oracle_stage(sys_.domain, images, x), (g, k))

