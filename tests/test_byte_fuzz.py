"""Byte-mutated and rescaled input files keep the exit contract.

A bundled fixture instance, or a persisted ``.npz`` result, has a few of
its bytes flipped, cut off or inserted, or one of its numeric members
scaled by 10^k for |k| <= 308, and every command runs on it through
``main()``: the exit code is 0, 1 or 2, and nothing escapes as an
exception, which the command line would print as a traceback.  The
examples are derandomized, so every run sees the same files, and the
commands run in this process one after another: no thread or process is
started.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, encode_matrix
from lcm_dilate.cli import main

INSTANCE_COMMANDS = ("validate", "check-cp", "check-nica", "dilate", "verify")
# a result of each family: an abelian Toeplitz model and a boundary quotient
RESULT_FIXTURES = ("sznagy_half.json", "cuntz_m2.json")

_edit = st.tuples(st.sampled_from(("flip", "truncate", "insert")),
                  st.integers(0, 2**20), st.integers(0, 255))
_edits = st.lists(_edit, min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    """Flip one bit, cut the tail or insert one byte, per edit."""
    for kind, at, byte in edits:
        if kind == "flip" and data:
            i = at % len(data)
            data = data[:i] + bytes([data[i] ^ (1 << byte % 8)]) + data[i + 1:]
        elif kind == "truncate":
            data = data[:at % (len(data) + 1)]
        elif kind == "insert":
            i = at % (len(data) + 1)
            data = data[:i] + bytes([byte]) + data[i:]
    return data


def run(args) -> tuple[int, str]:
    """The exit code of ``main(args)`` and its standard error; an exception
    fails the test with the arguments that raised it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except BaseException as exc:     # noqa: BLE001 - the contract is no escape
            pytest.fail(f"{args[0]} raised {exc!r}")
    assert code in (0, 1, 2), (args, code)
    assert "Traceback" not in err.getvalue(), args
    return code, err.getvalue()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """A persisted result of each fixture in ``RESULT_FIXTURES``."""
    out = {}
    folder = tmp_path_factory.mktemp("results")
    for name in RESULT_FIXTURES:
        path = str(folder / f"{name}.result.npz")
        assert run(["dilate", str(FIXTURES / name), "--output", path])[0] == 0
        with open(path, "rb") as fh:
            out[name] = fh.read()
    return out


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(fixture=st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.json"))),
       edits=_edits)
def test_mutated_instances_keep_the_exit_contract(fixture, edits):
    data = mutate((FIXTURES / fixture).read_bytes(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "wb") as fh:
            fh.write(data)
        result = os.path.join(tmp, "r.npz")
        for command in INSTANCE_COMMANDS:
            flag = {"dilate": ["--output", result],
                    "verify": ["--result", result]}.get(command, [])
            run([command, path, *flag])


@pytest.mark.parametrize("offset,value", [
    (10, 1),        # an unknown compression method
    (10, 8),        # deflate over stored bytes
    (10, 12),       # bzip2
    (10, 14),       # lzma
    (8, 1),         # the encryption flag
], ids=["method_1", "deflate", "bzip2", "lzma", "encrypted"])
def test_a_corrupted_archive_header_exits_2(results, tmp_path, offset, value):
    data = bytearray(results["sznagy_half.json"])
    data[data.index(b"PK\x01\x02") + offset] = value   # first central entry
    path = tmp_path / "header.npz"
    path.write_bytes(bytes(data))
    for args in (["verify", str(FIXTURES / "sznagy_half.json"), "--result",
                  str(path)], ["report", str(path)]):
        code, err = run(args)
        assert code == 2 and "unreadable .npz archive" in err


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(fixture=st.sampled_from(RESULT_FIXTURES), edits=_edits)
def test_mutated_results_keep_the_exit_contract(results, fixture, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.npz")
        with open(path, "wb") as fh:
            fh.write(mutate(results[fixture], edits))
        run(["verify", str(FIXTURES / fixture), "--result", path])
        run(["report", path])


# ---------------------------------------------------------------------------
# members scaled by 10^k
# ---------------------------------------------------------------------------


def _with_base_values(name: str) -> dict:
    """The state phi of a fixture as its table of base values, so that a
    ``phi.values`` member is there to scale: Tr(rho e_ij) I_h per unit."""
    doc = json.loads((FIXTURES / name).read_text())
    rho = np.array([[complex(*z) for z in row] for row in doc["phi"]["rho"]])
    h = len(doc["T"][0])
    n = len(rho)
    units = [np.eye(n)[:, [i]] @ np.eye(n)[[j], :] for i in range(n) for j in range(n)]
    doc["phi"] = {"kind": "base_values",
                  "values": [encode_matrix(np.trace(rho @ u) * np.eye(h)) for u in units]}
    return doc


SCALED_DOCS = {name: json.loads((FIXTURES / name).read_text())
               for name in ("sznagy_half.json", "cuntz_m2.json", "transpose_m2.json")}
SCALED_DOCS["cuntz_m2_values"] = _with_base_values("cuntz_m2.json")
# (document, path of a matrix member): every T, rho and values entry
SCALED_MEMBERS = [(name, (key, *rest)) for name, doc in SCALED_DOCS.items()
                  for key, rest in
                  [("T", (i,)) for i in range(len(doc["T"]))]
                  + [("phi", ("rho",))] * ("rho" in doc["phi"])
                  + [("phi", ("values", i)) for i in range(len(doc["phi"].get("values", ())))]]
EXPONENTS = st.integers(-308, 308)


def _scaled(doc, k: int):
    """Every number of a nested list times 10^k (inf where that overflows)."""
    if isinstance(doc, list):
        return [_scaled(x, k) for x in doc]
    return doc * 10.0 ** k


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(member=st.sampled_from(SCALED_MEMBERS), k=EXPONENTS)
def test_scaled_instance_members_keep_the_exit_contract(member, k):
    name, path = member
    doc = json.loads(json.dumps(SCALED_DOCS[name]))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = _scaled(owner[path[-1]], k)
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "scaled.json")
        with open(target, "w") as fh:
            json.dump(doc, fh)
        for command in ("validate", "check-cp", "dilate"):
            flag = ["--output", os.path.join(tmp, "r.npz")] if command == "dilate" else []
            run([command, target, *flag])


RESULT_MEMBERS = ("embedding", "isometries", "interiors", "pi_spans", "pi_values")


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(fixture=st.sampled_from(RESULT_FIXTURES),
       member=st.sampled_from(RESULT_MEMBERS), k=EXPONENTS)
def test_scaled_result_members_keep_the_exit_contract(results, fixture, member, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scaled.npz")
        with open(path, "wb") as fh:
            fh.write(results[fixture])
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        with np.errstate(over="ignore"):
            arrays[member] = arrays[member] * 10.0 ** k
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        run(["verify", str(FIXTURES / fixture), "--result", path])


def test_an_overflowed_residual_fails_with_a_null_value(results, tmp_path, capsys):
    # emb* emb overflows, so embedding.isometric is inf: the report still
    # hashes, as JSON without a non-finite number, and the check fails
    path = tmp_path / "scaled.npz"
    path.write_bytes(results["sznagy_half.json"])
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["embedding"] = arrays["embedding"] * 1e300
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    code = main(["verify", str(FIXTURES / "sznagy_half.json"), "--result",
                 str(path), "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    (check,) = [c for c in report["checks"] if c["name"] == "embedding.isometric"]
    assert not check["passed"] and check["value"] is None
    assert check["detail"] == "value inf"
