"""Shared fixtures and seeded generators for the test suite."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from lcm_dilate.algebras import BaseAlgebra, LevelledElement

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH = FIXTURES.parent / "perfbench"


def load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` (not a package, and ``trace`` would
    shadow the standard module) as ``perfbench_<name>``."""
    full = f"perfbench_{name}"
    if full not in sys.modules:
        spec = importlib.util.spec_from_file_location(full, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def encode_matrix(m) -> list:
    """A complex matrix as the [re, im] pairs instance files hold."""
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return np.stack([m.real, m.imag], -1).tolist()


def random_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_contraction(rng, n: int, scale: float = 0.95) -> np.ndarray:
    a = random_matrix(rng, n)
    return scale * a / np.linalg.norm(a, 2)


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n: int) -> np.ndarray:
    a = random_matrix(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_coisometry_pair(rng, h: int) -> list[np.ndarray]:
    """T_1, T_2 with T_1 T_1* + T_2 T_2* = I (columns of a random isometry)."""
    a = rng.standard_normal((2 * h, h)) + 1j * rng.standard_normal((2 * h, h))
    q, _ = np.linalg.qr(a)
    s = q.conj().T  # h x 2h coisometry
    return [s[:, :h], s[:, h:]]


def random_ucp_map(rng, base: BaseAlgebra, h: int, env: int = 2):
    """Unital completely positive map built from a random isometry into
    dim * env dimensions."""
    from lcm_dilate.cpmaps import BaseOperatorMap

    d = base.dim
    a = rng.standard_normal((d * env, h)) + 1j * rng.standard_normal((d * env, h))
    q, _ = np.linalg.qr(a)  # isometry C^h -> C^(d*env)
    values = []
    for u in base.basis():
        values.append(q.conj().T @ np.kron(u, np.eye(env)) @ q)
    return BaseOperatorMap(base, values)


def commuting_contraction_pair(rng, h: int = 2) -> list[np.ndarray]:
    """A seeded pair of commuting contractions: the second is a polynomial
    in the first, with norms pushed toward one so that defect violations
    actually occur across seeds."""
    s1 = rng.uniform(0.55, 1.0)
    t1 = random_contraction(rng, h, scale=s1)
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    t2 = coeffs[0] * np.eye(h) + coeffs[1] * t1 + coeffs[2] * (t1 @ t1)
    norm = np.linalg.norm(t2, 2)
    t2 = t2 * (rng.uniform(0.7, 1.0) / max(norm, 1e-12))
    return [t1, t2]


def element_from_vec(model, base: BaseAlgebra, depth, v) -> LevelledElement:
    """The inverse of ``LevelledElement.vec`` at ``depth``."""
    depth = model.normalize_depth(depth)
    atoms = model.atoms(depth)
    n = base.dim
    v = np.asarray(v, dtype=complex).reshape(len(atoms), n, n)
    return LevelledElement(model, base, depth,
                           {atom: v[k] for k, atom in enumerate(atoms)})
