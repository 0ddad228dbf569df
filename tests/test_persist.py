"""Persisted dilations: the codec, and ``verify`` running the shared identity
suite on stored matrices."""

import json

import numpy as np
import pytest

from lcm_dilate.cli import build_pair, parse_instance, run_command
from lcm_dilate.errors import SchemaError
from lcm_dilate.persist import StoredDilation
from lcm_dilate.serialize import decode_matrix, encode_matrix


def _reference_encode(m) -> list:
    """The per-scalar encoder the numpy one replaces."""
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return [[[complex(z).real, complex(z).imag] for z in row] for row in m]


def test_codec_matches_per_scalar_reference_and_round_trips():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = -0.0
    m[1, 2] = 1e-300 - 2.5j
    assert json.dumps(encode_matrix(m)) == json.dumps(_reference_encode(m))
    assert np.array_equal(decode_matrix(encode_matrix(m)), m)
    assert np.array_equal(decode_matrix([[1, 2.5], [0, -3]]),
                          np.array([[1, 2.5], [0, -3]], dtype=complex))
    assert decode_matrix([[], []]).shape == (2, 0)


@pytest.mark.parametrize("doc", [
    [[[0.5, 0.0], 0.5]],            # a bare real beside a pair
    [[[0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],   # ragged rows
    [[[0.5, 0.0, 1.0]]],            # not a pair
    [[True]],
    [1.0, 2.0],
    [],
    "0.5",
    [[float("nan")]],
    [[[0.5, float("inf")]]],
])
def test_decode_refuses_malformed_matrices_at_their_location(doc):
    with pytest.raises(SchemaError) as exc:
        decode_matrix(doc, "/T/0")
    assert "/T/0" in str(exc.value)


def _verify_names(n_generators: int, degree: int) -> list[str]:
    isometries = ([f"isometry.V[{g}]" for g in range(1, n_generators + 1)]
                  if degree >= 1 else [])
    return [
        "embedding.isometric", "pi.unital", "pi.star", "pi.multiplicative",
        *isometries,
        "covariance.intertwine", "phi.completely_positive",
        "covariance.range_projection", "covariance.nica",
        "compression.phi", "compression.T", "covariance.coinvariant",
        "verify.stored_residuals",
    ]


def _point_model_instance(tmp_path) -> str:
    """Free abelian rank 2 acting on M2 by diagonal unitaries, phi a state;
    the state is invariant, so covariance needs unitary T."""
    doc = {
        "system": {
            "semigroup": {"kind": "free_abelian", "rank": 2},
            "model": {"kind": "matrix"},
            "base": {"blocks": [2]},
            "alphas": [{"unitary": encode_matrix(np.diag([1, 1j]))},
                       {"unitary": encode_matrix(np.diag([1, -1]))}],
        },
        "phi": {"kind": "state", "rho": encode_matrix(np.diag([0.25, 0.75]))},
        "T": [encode_matrix(np.diag([1j, -1])), encode_matrix(np.diag([-1j, 1j]))],
        "depth": 2,
    }
    path = tmp_path / "point_state.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", ["sznagy_half.json", "cuntz_m2.json",
                                  "commuting_unitaries.json", "point_state"])
def test_verify_runs_the_shared_suite_on_stored_matrices(fixtures_dir, tmp_path,
                                                         name):
    path = (_point_model_instance(tmp_path) if name == "point_state"
            else str(fixtures_dir / name))
    out = str(tmp_path / "r.json")
    flags = {"output": out, "result": out}
    dil = run_command("dilate", parse_instance(path), flags)
    assert dil["exit_code"] == 0
    rep = run_command("verify", parse_instance(path), flags)
    assert rep["exit_code"] == 0, [c for c in rep["checks"] if not c["passed"]]
    inst = parse_instance(path)
    names = [c["name"] for c in rep["checks"]]
    assert names == _verify_names(len(inst.t_mats), dil["extra"]["degree"])
    # every shared check also ran in dilate, in the same order
    live = [c["name"] for c in dil["checks"]]
    assert [live.index(n) for n in names[:-1]] == sorted(
        live.index(n) for n in names[:-1])


class _ReadKeys(dict):
    """A dict that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name,prefix", [("sznagy_half.json", "d1:"),
                                         ("point_state", "d0:")])
def test_stored_pi_is_exactly_the_table_verify_reads(fixtures_dir, tmp_path,
                                                     name, prefix):
    path = (_point_model_instance(tmp_path) if name == "point_state"
            else str(fixtures_dir / name))
    out = tmp_path / "r.json"
    flags = {"output": str(out), "result": str(out)}
    assert run_command("dilate", parse_instance(path), flags)["exit_code"] == 0
    doc = json.loads(out.read_text())
    assert doc["pi"] and all(k.startswith(prefix) for k in doc["pi"])
    inst = parse_instance(path)
    sys_, phi, T, _ = build_pair(inst, degree=doc["degree"])
    doc["pi"] = _ReadKeys(doc["pi"])
    StoredDilation(doc, sys_, phi, T, inst.tolerances)
    assert doc["pi"].read == set(doc["pi"])


def _tampered(fixtures_dir, tmp_path, edit):
    path = str(fixtures_dir / "sznagy_half.json")
    out = tmp_path / "r.json"
    flags = {"output": str(out), "result": str(out)}
    assert run_command("dilate", parse_instance(path), flags)["exit_code"] == 0
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    return run_command("verify", parse_instance(path), flags)


def test_verify_fails_on_a_perturbed_isometry(fixtures_dir, tmp_path):
    def scale_largest_entry(doc):
        v = decode_matrix(doc["isometries"][0])
        i, j = np.unravel_index(np.argmax(np.abs(v)), v.shape)
        v[i, j] *= 1 + 1e-3
        doc["isometries"][0] = encode_matrix(v)

    rep = _tampered(fixtures_dir, tmp_path, scale_largest_entry)
    assert rep["exit_code"] == 1
    assert not {c["name"]: c for c in rep["checks"]}["isometry.V[1]"]["passed"]


def test_verify_fails_on_a_failed_stored_residual(fixtures_dir, tmp_path):
    def fail_one(doc):
        doc["residuals"][0]["passed"] = False

    rep = _tampered(fixtures_dir, tmp_path, fail_one)
    assert rep["exit_code"] == 1
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["verify.stored_residuals"]
    assert failed[0]["detail"] == "gram.psd"
