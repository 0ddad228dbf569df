"""Persisted dilations: the .npz result round trip, the instance matrix
codec, and ``verify`` running the shared identity suite on stored
matrices."""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from conftest import FIXTURES, encode_matrix
from lcm_dilate.cli import build_pair, main, parse_instance, run_command
from lcm_dilate.dilation import _pi_basis, covariant_dilate
from lcm_dilate.errors import SchemaError
from lcm_dilate.persist import (
    ARRAYS,
    StoredDilation,
    load_result,
    result_payload,
    verify_result,
    write_result,
)
from lcm_dilate.serialize import decode_matrix


def test_result_round_trips_bit_exactly(fixtures_dir, tmp_path):
    inst = parse_instance(str(fixtures_dir / "cuntz_m2.json"))
    sys_, phi, T = build_pair(inst)
    payload = result_payload(
        covariant_dilate(sys_, phi, T, inst.degree, inst.tolerances), inst.hash)
    path = str(tmp_path / "r.result.json")      # written to exactly this path
    write_result(path, payload)
    meta, arrays = load_result(path)
    assert meta == json.loads(payload.pop("meta")[()])
    assert meta["instance_hash"] == inst.hash and meta["degree"] == inst.degree
    assert arrays.keys() == payload.keys()
    assert list(arrays) == list(ARRAYS)
    for name, a in payload.items():
        index = name == "pi_spans"
        assert arrays[name].dtype == (np.int64 if index else np.complex128), name
        assert arrays[name].tobytes() == a.tobytes(), name
    # instances keep the JSON codec: real entries or [re, im] pairs
    m = np.array([[-0.0, 1e-300 - 2.5j], [1.5, 3j]])
    assert np.array_equal(decode_matrix(json.loads(json.dumps(encode_matrix(m)))), m)
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
    isometries = ([
        "interior.orthonormal",
        *(f"isometry.V[{g}]" for g in range(1, n_generators + 1)),
        *(["isometry.V[w]"] if degree >= 2 else []),
        "isometry.zero_off_interior",
    ] if degree >= 1 else [])
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


def _instance_path(name: str, tmp_path) -> str:
    """A fixture by file name, ``point_state``, or ``cuntz_m2_toeplitz``:
    the Cuntz pair on the full Fock space, the free Toeplitz model."""
    if name == "point_state":
        return _point_model_instance(tmp_path)
    if name == "cuntz_m2_toeplitz":
        doc = json.loads((FIXTURES / "cuntz_m2.json").read_text())
        doc["system"]["model"] = {"kind": "toeplitz_free"}
        path = tmp_path / "cuntz_toeplitz.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return str(FIXTURES / name)


@pytest.mark.parametrize("name,prefix", [("sznagy_half.json", "d1:"),
                                         ("point_state", "d0:")])
def test_stored_pi_is_exactly_the_table_verify_reads(fixtures_dir, tmp_path,
                                                     name, prefix):
    # the stored table is the live one, every member is read, and the
    # suite takes pi on the basis up to depth 1 (0 on the point model)
    path = _instance_path(name, tmp_path)
    out = str(tmp_path / "r.npz")
    assert run_command("dilate", parse_instance(path),
                       {"output": out})["exit_code"] == 0
    meta, arrays = load_result(out)
    assert arrays.keys() == set(ARRAYS) and "tolerances" not in meta
    inst = parse_instance(path)
    sys_, phi, T = build_pair(inst, degree=meta["degree"])
    arrays = _ReadKeys(arrays)
    stored = StoredDilation(meta, arrays, sys_, phi, T, inst.tolerances)
    assert arrays.read == set(arrays)       # every stored member is read
    labels = [lbl for lbl, _ in _pi_basis(stored)]
    assert labels[0].startswith("d0:") and labels[-1].startswith(prefix)
    live = covariant_dilate(sys_, phi, T, inst.degree, inst.tolerances)
    assert arrays["pi_spans"].tobytes() == live.pi_spans.tobytes()
    for got, want in zip(stored.pi_table, live.pi_table):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["sznagy_half.json", "point_state",
                                  "commuting_unitaries.json", "cuntz_m2.json",
                                  "cuntz_m2_toeplitz"])
def test_stored_pi_is_the_live_pi_bit_for_bit(tmp_path, name):
    # abelian, point-model, boundary and free Toeplitz results: both
    # sources scatter one table, so pi agrees to the bit on every basis
    # element the suite can read
    inst = parse_instance(_instance_path(name, tmp_path))
    sys_, phi, T = build_pair(inst)
    live = covariant_dilate(sys_, phi, T, inst.degree, inst.tolerances)
    out = str(tmp_path / "r.npz")
    write_result(out, result_payload(live, inst.hash))
    stored = StoredDilation(*load_result(out), sys_, phi, T, inst.tolerances)
    elements = [b for d in range(stored.pi_depth + 1) for b in sys_.algebra_basis(d)]
    assert len(elements) >= 2
    for k, b in enumerate(elements):
        assert stored.pi(b).tobytes() == live.pi(b).tobytes(), k


@pytest.mark.parametrize("name,degree", [
    ("sznagy_half.json", 0), ("sznagy_half.json", 1), ("sznagy_half.json", 3),
    ("sznagy_half.json", 8), ("cuntz_m2.json", 0), ("cuntz_m2.json", 3)])
def test_a_result_has_six_members_at_any_degree(fixtures_dir, tmp_path, name,
                                                degree):
    # the member set does not grow with the degree or the generator count
    path = str(fixtures_dir / name)
    out = str(tmp_path / "r.npz")
    assert main(["dilate", path, "--depth", str(degree), "--output", out]) == 0
    with np.load(out) as npz:
        assert npz.files == [*ARRAYS, "meta"]
    meta, arrays = load_result(out)
    rank, n = meta["rank"], len(parse_instance(path).t_mats) if degree else 0
    assert arrays["isometries"].shape == (n, rank, rank)
    assert len(meta["interior_widths"]) == degree
    assert arrays["interiors"].shape == (rank, sum(meta["interior_widths"]))
    assert main(["verify", path, "--result", out]) == 0


def _tampered(fixtures_dir, tmp_path, edit, name="sznagy_half.json"):
    """``verify`` of a result of fixture ``name`` after ``edit(meta,
    arrays)``."""
    path = str(fixtures_dir / name)
    out = str(tmp_path / "r.npz")
    flags = {"output": out, "result": out}
    assert run_command("dilate", parse_instance(path), flags)["exit_code"] == 0
    meta, arrays = load_result(out)
    edit(meta, arrays)
    write_result(out, dict(arrays, meta=np.array(json.dumps(meta).encode())))
    return run_command("verify", parse_instance(path), flags)


def test_verify_fails_on_a_perturbed_isometry(fixtures_dir, tmp_path):
    def scale_largest_entry(meta, arrays):
        v = arrays["isometries"][0]
        i, j = np.unravel_index(np.argmax(np.abs(v)), v.shape)
        v[i, j] *= 1 + 1e-3

    rep = _tampered(fixtures_dir, tmp_path, scale_largest_entry)
    assert rep["exit_code"] == 1
    assert not {c["name"]: c for c in rep["checks"]}["isometry.V[1]"]["passed"]


def test_verify_fails_on_a_failed_stored_residual(fixtures_dir, tmp_path):
    def fail_one(meta, arrays):
        meta["residuals"][0]["passed"] = False

    rep = _tampered(fixtures_dir, tmp_path, fail_one)
    assert rep["exit_code"] == 1
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["verify.stored_residuals"]
    assert failed[0]["detail"] == "gram.psd"


def test_verify_fails_on_an_orthonormal_interior_off_the_first(fixtures_dir,
                                                               tmp_path):
    # interior(2) replaced by orthonormal vectors orthogonal to interior(1):
    # the generator shifts vanish there, so V(w) is not isometric on it
    def move_level_2(meta, arrays):
        w1, w2 = meta["interior_widths"][:2]
        q1 = arrays["interiors"][:, :w1]
        u, _, _ = np.linalg.svd(np.eye(len(q1)) - q1 @ q1.conj().T)
        arrays["interiors"][:, w1:w1 + w2] = u[:, :w2]

    rep = _tampered(fixtures_dir, tmp_path, move_level_2, "cuntz_m2.json")
    checks = {c["name"]: c for c in rep["checks"]}
    assert rep["exit_code"] == 1
    assert checks["interior.orthonormal"]["passed"]
    assert not checks["isometry.V[w]"]["passed"]


def _entries(a: np.ndarray) -> list[tuple]:
    """The first entry, the largest and a seeded random one."""
    rng = np.random.default_rng(0)
    picks = (0, int(np.argmax(np.abs(a))), int(rng.integers(a.size)))
    return sorted({np.unravel_index(k, a.shape) for k in picks})


@pytest.mark.parametrize("name", ["sznagy_half.json", "cuntz_m2.json",
                                  "commuting_unitaries.json"])
def test_verify_fails_on_a_bump_of_any_stored_entry(fixtures_dir, tmp_path,
                                                    name):
    # Every member is read by some identity: bumping one entry of any stored
    # complex array by 1e-3 fails verify.  On cuntz_m2 an isometry column or
    # an interior row outside the first interior is seen only by
    # isometry.zero_off_interior or interior.orthonormal.  Moving any end
    # of a span of pi by one is refused (exit 2): the spans then overlap,
    # leave [0, rank] or lay out another number of values than are stored.
    path = str(fixtures_dir / name)
    out = str(tmp_path / "r.npz")
    assert run_command("dilate", parse_instance(path),
                       {"output": out})["exit_code"] == 0
    meta, arrays = load_result(out)
    inst = parse_instance(path)
    sys_, phi, T = build_pair(inst, degree=meta["degree"])
    assert verify_result(meta, arrays, sys_, phi, T, inst.tolerances).passed
    for member, a in arrays.items():
        index = a.dtype == np.int64
        for entry in (np.ndindex(a.shape) if index else _entries(a)):
            for step in ((1, -1) if index else (1e-3,)):
                bumped = a.copy()
                bumped[entry] += step
                try:
                    rep = verify_result(meta, dict(arrays, **{member: bumped}),
                                        sys_, phi, T, inst.tolerances)
                except SchemaError:
                    continue
                assert not index and not rep.passed, (member, entry, step)


def test_a_tampered_degree_exits_2_at_once(tmp_path):
    # the degree is checked against the stored interior widths before
    # anything is built for it
    path = _point_model_instance(tmp_path)
    out = str(tmp_path / "r.npz")
    assert main(["dilate", path, "--output", out]) == 0
    meta, arrays = load_result(out)
    meta["degree"] = 10 ** 12
    write_result(out, dict(arrays, meta=np.array(json.dumps(meta).encode())))
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", path, "--result", out])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and "Traceback" not in err.getvalue()
    assert "interior_widths must be 1000000000000 natural numbers " \
        "(at meta/interior_widths)" in err.getvalue()
