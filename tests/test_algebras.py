import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box, element_from_vec, random_matrix
from lcm_dilate.algebras import (
    BaseAlgebra,
    LevelledElement,
    PointModel,
    ToeplitzModel,
    operator_norm,
    operator_norms,
)
from lcm_dilate.errors import SpecMismatchError
from lcm_dilate.semigroup import FreeAbelian, FreeMonoid

C = BaseAlgebra((1,))
M2 = BaseAlgebra((2,))
M2pM1 = BaseAlgebra((2, 1))


def test_base_algebra_basics():
    assert M2pM1.dim == 3
    assert M2pM1.linear_dim == 5
    assert len(M2pM1.basis()) == 5
    assert len(M2pM1.basis_labels()) == 5
    assert np.allclose(sum(u for u in M2.basis() if u.trace() == 1), np.eye(2))


def test_cstar_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_matrix(rng, 3)
        a[2, :2] = a[:2, 2] = 0  # block structure of M2 (+) M1
        assert abs(operator_norm(a.conj().T @ a) - operator_norm(a) ** 2) < 1e-10


@pytest.mark.parametrize("shape,scale", [
    ((1, 1), 1.0), ((2, 2), 1.0), ((32, 8), 1.0), ((32, 32), 1.0),
    ((2, 2), 1e-300), ((32, 32), 1e-300), ((2, 2), 1e308), ((32, 8), 1e308),
])
def test_operator_norm_is_the_spectral_norm_bit_for_bit(shape, scale):
    rng = np.random.default_rng(sum(shape))
    # entries of modulus below 1 times the scale stay finite
    m = (rng.uniform(-0.7, 0.7, shape) + 1j * rng.uniform(-0.7, 0.7, shape)) * scale
    for mat in (m, m.real, np.zeros(shape), -np.zeros(shape)):
        assert np.isfinite(mat).all()
        want = np.float64(np.linalg.norm(mat, 2)).tobytes()
        assert np.float64(operator_norm(mat)).tobytes() == want
    assert operator_norm(np.zeros((0, 3))) == 0.0
    bad = m.copy()
    bad[0, 0] = np.nan
    assert operator_norm(bad) == float("inf")


NORM_SHAPES = [((1, 1), 1.0), ((2, 2), 1.0), ((32, 8), 1.0), ((32, 32), 1.0),
               ((2, 2), 1e-300), ((32, 32), 1e-300), ((2, 2), 1e308), ((32, 8), 1e308)]


def norm_inputs() -> list:
    """Every input of the operator_norm test above, then matrices that are
    zero, empty, NaN or +-inf in one entry, of the same shapes."""
    mats = []
    for shape, scale in NORM_SHAPES:
        rng = np.random.default_rng(sum(shape))
        m = (rng.uniform(-0.7, 0.7, shape) + 1j * rng.uniform(-0.7, 0.7, shape)) * scale
        mats += [m, m.real, np.zeros(shape), -np.zeros(shape)]
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
            x = m.copy()
            x[-1, 0] = bad
            mats.append(x)
    mats += [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0), dtype=complex)]
    return mats


def test_batched_norms_are_operator_norm_bit_for_bit():
    # interleaved shapes and dtypes, and stacks that mix zero, empty and
    # non-finite matrices with live ones
    mats = norm_inputs()
    rng = np.random.default_rng(3)
    for order in (np.arange(len(mats)), rng.permutation(len(mats))):
        stream = [mats[k] for k in order]
        got = operator_norms(stream)
        assert got.dtype == np.float64 and got.shape == (len(stream),)
        for k, m in enumerate(stream):
            assert got[k].tobytes() == np.float64(operator_norm(m)).tobytes(), k
    assert operator_norms([]).shape == (0,)


def test_coefficients_reconstruct():
    rng = np.random.default_rng(6)
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = random_matrix(rng, 2)
    a[2, 2] = 1.7 + 0.3j
    coeffs = M2pM1.coefficients(a)
    rebuilt = sum(c * u for c, u in zip(coeffs, M2pM1.basis()))
    assert np.allclose(rebuilt, a)


@pytest.mark.parametrize(
    "model,depth,count",
    [
        (ToeplitzModel(FreeAbelian(1)), (3,), 4),
        (ToeplitzModel(FreeAbelian(2)), (2, 2), 9),
        (ToeplitzModel(FreeAbelian(2)), (1, 3), 8),
        (ToeplitzModel(FreeMonoid(2)), 2, 3 + 4),
        (ToeplitzModel(FreeMonoid(3)), 2, 4 + 9),
        (ToeplitzModel(FreeMonoid(2), boundary=True), 3, 8),
        (PointModel(1), 0, 1),
    ],
)
def test_atom_counts(model, depth, count):
    if isinstance(depth, tuple):
        depth = box(depth)
    assert len(model.atoms(depth)) == count


@pytest.mark.parametrize(
    "model",
    [ToeplitzModel(FreeAbelian(2)), ToeplitzModel(FreeMonoid(2)),
     ToeplitzModel(FreeMonoid(2), boundary=True)],
)
def test_refinement_is_unital_star_homomorphism(model):
    rng = np.random.default_rng(7)
    d0 = model.normalize_depth(1)
    d1 = model.normalize_depth(2)
    one = LevelledElement.unit(model, M2, d0)
    assert (one.refine_to(d1) - LevelledElement.unit(model, M2, d1)).norm() <= 1e-10
    xs = []
    for _ in range(2):
        coeffs = {atom: random_matrix(rng, 2) for atom in model.atoms(d0)}
        xs.append(LevelledElement(model, M2, d0, coeffs))
    x, y = xs
    assert ((x * y).refine_to(d1) - x.refine_to(d1) * y.refine_to(d1)).norm() <= 1e-10
    assert ((x + y).refine_to(d1) - (x.refine_to(d1) + y.refine_to(d1))).norm() <= 1e-10
    assert (x.star().refine_to(d1) - x.refine_to(d1).star()).norm() <= 1e-10
    # injectivity: refined catalog vectors of the depth-d0 basis stay
    # linearly independent
    rows = []
    for atom in model.atoms(d0):
        for u in M2.basis():
            rows.append(
                LevelledElement.from_atom(model, M2, d0, atom, u).vec(d1)
            )
    rank = np.linalg.matrix_rank(np.array(rows))
    assert rank == len(rows)


def test_refinement_preserves_norm():
    model = ToeplitzModel(FreeMonoid(2))
    x = LevelledElement.from_atom(model, C, 1, (2,), np.array([[2.0]]))
    assert x.norm() == x.refine_to(3).norm() == 2.0


def test_atoms_are_orthogonal_idempotents():
    for model in (ToeplitzModel(FreeAbelian(1)), ToeplitzModel(FreeMonoid(2)),
                  ToeplitzModel(FreeMonoid(2), boundary=True)):
        d = model.normalize_depth(2)
        atoms = model.atoms(d)
        for i, a in enumerate(atoms):
            ea = LevelledElement.from_atom(model, C, d, a, np.eye(1))
            assert (ea * ea - ea).norm() <= 1e-10
            for b in atoms[i + 1:]:
                eb = LevelledElement.from_atom(model, C, d, b, np.eye(1))
                assert (ea * eb).norm() == 0.0


def test_mixed_depth_arithmetic():
    model = ToeplitzModel(FreeAbelian(1))
    one = LevelledElement.unit(model, C)        # depth {(0,)}
    eps0 = LevelledElement.from_atom(model, C, 1, (0,), np.eye(1))
    # 1 - eps0 is the tail at depth 1
    tail = one - eps0
    assert tail.depth == box((1,))
    assert np.allclose(tail.coefficient((1,)), 1.0)
    assert np.allclose(tail.coefficient((0,)), 0.0)
    assert (tail * eps0).norm() == 0.0


def test_vec_roundtrip():
    model = ToeplitzModel(FreeMonoid(2), boundary=True)
    rng = np.random.default_rng(8)
    coeffs = {atom: random_matrix(rng, 2) for atom in model.atoms(2)}
    x = LevelledElement(model, M2, model.normalize_depth(2), coeffs)
    v = x.vec()
    assert v.shape == (len(model.atoms(2)) * M2.dim ** 2,)
    back = element_from_vec(model, M2, 2, v)
    assert (back - x).norm() <= 1e-10


def test_depth_mismatch_errors():
    model = ToeplitzModel(FreeAbelian(2))
    x = LevelledElement.unit(model, C, box((2, 1)))
    with pytest.raises(SpecMismatchError):
        x.refine_to(box((1, 1)))
    y = LevelledElement.unit(ToeplitzModel(FreeAbelian(1)), C)
    with pytest.raises(SpecMismatchError):
        x * y


@given(
    data=st.lists(
        st.tuples(st.integers(0, 2), st.floats(-2, 2), st.floats(-2, 2)),
        min_size=1, max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_algebra_axioms_scalar_halfline(data):
    """Associativity and the *-identity on random elements of the rank-1
    half-line model with scalar values."""
    model = ToeplitzModel(FreeAbelian(1))
    xs = []
    for k in range(3):
        coeffs = {}
        for atom, re, im in data[k::3]:
            coeffs[(atom,)] = np.array([[re + 1j * im]])
        xs.append(LevelledElement(model, C, model.normalize_depth(2), coeffs))
    while len(xs) < 3:
        xs.append(LevelledElement.unit(model, C, 2))
    x, y, z = xs
    assert ((x * y) * z - x * (y * z)).norm() <= 1e-12
    assert ((x * y).star() - y.star() * x.star()).norm() <= 1e-12
    assert ((x + y) * z - (x * z + y * z)).norm() <= 1e-12
