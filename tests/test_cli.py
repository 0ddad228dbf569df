import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, encode_matrix, random_unitary
from lcm_dilate import cli as cli_module
from lcm_dilate.cli import (
    emit_report,
    main,
    make_report,
    parse_instance,
    run_command,
)
from lcm_dilate.cpmaps import LevelledOperatorMap
from lcm_dilate.dilation import Tolerances
from lcm_dilate.errors import SchemaError
from lcm_dilate.kernel import KernelSystem
from lcm_dilate.persist import load_result
from lcm_dilate.serialize import report_hash
from lcm_dilate.systems import LcmSystem

FLAGS = {"depth": None, "max_dim": None, "output": None, "result": None}


def _load(fixtures_dir, name):
    return parse_instance(str(fixtures_dir / name))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_bundled_instances(fixtures_dir):
    inst = _load(fixtures_dir, "sznagy_half.json")
    assert inst.degree == 4
    assert inst.t_mats[0].shape == (1, 1)
    assert abs(inst.t_mats[0][0, 0] - 0.5) == 0

    inst = _load(fixtures_dir, "cuntz_m2.json")
    assert inst.raw["system"]["semigroup"]["kind"] == "free_monoid"
    assert np.allclose(inst.t_mats[0], [[1, 0], [0, 0]])
    assert np.allclose(inst.t_mats[1], [[0, 0], [1, 0]])


def test_parse_truncated_file_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"system": {"semigroup": {"kind": "free_monoid"')
    with pytest.raises(SchemaError) as exc:
        parse_instance(str(p))
    assert "broken.json" in str(exc.value)


def test_parse_schema_errors(tmp_path):
    def write(doc):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        return str(p)

    base = {
        "system": {
            "semigroup": {"kind": "free_abelian", "rank": 1},
            "model": {"kind": "toeplitz_abelian"},
            "base": {"blocks": [1]},
        },
        "T": [encode_matrix(np.array([[0.5]]))],
        "depth": 2,
    }

    doc = json.loads(json.dumps(base))
    doc["system"]["model"]["kind"] = "mystery"
    with pytest.raises(SchemaError) as exc:
        parse_instance(write(doc))
    assert "/system/model/kind" in str(exc.value)

    doc = json.loads(json.dumps(base))
    doc["T"] = [[[0.5, "x"]]]
    with pytest.raises(SchemaError) as exc:
        parse_instance(write(doc))
    assert "/T/0" in str(exc.value)

    doc = json.loads(json.dumps(base))
    doc["T"] = [encode_matrix(np.eye(2)), encode_matrix(np.eye(2))]
    with pytest.raises(SchemaError) as exc:
        parse_instance(write(doc))
    assert "generator contractions" in str(exc.value)

    doc = json.loads(json.dumps(base))
    doc["depth"] = -1
    with pytest.raises(SchemaError):
        parse_instance(write(doc))


def _put(doc, pointer: str, value):
    """``doc`` with the member at a JSON pointer set to ``value``; missing
    objects on the way are created."""
    *parents, last = pointer.strip("/").split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[int(last) if isinstance(node, list) else last] = value
    return doc


_EYE2, _EYE3 = encode_matrix(np.eye(2)), encode_matrix(np.eye(3))

# case -> (fixture, member, the value it is set to)
MALFORMED_INSTANCE = {
    "state_without_rho": ("sznagy_half", "/phi", {"kind": "state"}),
    "model_as_string": ("sznagy_half", "/system/model", "toeplitz_abelian"),
    "nan_in_T": ("sznagy_half", "/T/0/0/0", [float("nan"), 0.0]),
    "nan_in_tolerances": ("sznagy_half", "/tolerances", {"psd": float("nan")}),
    "alphas_number": ("transpose_m2", "/system/alphas", 5),
    "alpha_number": ("transpose_m2", "/system/alphas", [5]),
    "betas_number": ("sznagy_half", "/system/betas", 5),
    "alpha_linear_2x2": ("transpose_m2", "/system/alphas", [{"linear": _EYE2}]),
    "alpha_unitary_3x3": ("transpose_m2", "/system/alphas", [{"unitary": _EYE3}]),
    "codomain_number": ("uhf_stage_m2", "/system/codomain", 5),
    "rho_1x1": ("cuntz_m2", "/phi/rho", [[1]]),
    "alphas_on_levelled": ("sznagy_half", "/system/alphas", [{"unitary": [[1]]}]),
    "betas_on_point": ("transpose_m2", "/system/betas", [_EYE2]),
    "depth_boolean": ("sznagy_half", "/depth", True),
    "blocks_boolean": ("transpose_m2", "/system/base/blocks", [True, 1]),
    "tolerance_negative": ("sznagy_half", "/tolerances", {"rank": -1}),
    "tolerance_boolean": ("sznagy_half", "/tolerances", {"psd": True}),
    "tolerance_string": ("sznagy_half", "/tolerances", {"psd": "1e-3"}),
    "tolerance_unknown": ("sznagy_half", "/tolerances", {"psdd": 1.0, "rnak": -5}),
    "tolerance_unknown_beside_known": ("sznagy_half", "/tolerances",
                                       {"psd": 1e-8, "identty": 1e-8}),
    "seed_boolean": ("sznagy_half", "/seed", True),
    "seed_float": ("sznagy_half", "/seed", 1.5),
    "seed_string": ("sznagy_half", "/seed", "7"),
    "rank_boolean": ("sznagy_half", "/system/semigroup/rank", True),
}


@pytest.mark.parametrize("case,location", [
    ("state_without_rho", "/phi/rho"),
    ("model_as_string", "/system/model"),
    ("nan_in_T", "/T/0"),
    ("nan_in_tolerances", "/tolerances/psd"),
    ("alphas_number", "/system/alphas"),
    ("alpha_number", "/system/alphas/0"),
    ("betas_number", "/system/betas"),
    ("alpha_linear_2x2", "/system/alphas/0/linear"),
    ("alpha_unitary_3x3", "/system/alphas/0/unitary"),
    ("codomain_number", "/system/codomain"),
    ("rho_1x1", "/phi/rho"),
    ("alphas_on_levelled", "/system/alphas"),
    ("betas_on_point", "/system/betas"),
    ("depth_boolean", "/depth"),
    ("blocks_boolean", "/system/base/blocks"),
    ("tolerance_negative", "/tolerances/rank"),
    ("tolerance_boolean", "/tolerances/psd"),
    ("tolerance_string", "/tolerances/psd"),
    ("tolerance_unknown", "/tolerances/psdd"),
    ("tolerance_unknown_beside_known", "/tolerances/identty"),
    ("seed_boolean", "/seed"),
    ("seed_float", "/seed"),
    ("seed_string", "/seed"),
    ("rank_boolean", "/system/semigroup"),
])
def test_malformed_instance_exits_2_without_traceback(fixtures_dir, tmp_path,
                                                      capsys, case, location):
    fixture, member, value = MALFORMED_INSTANCE[case]
    doc = json.loads((fixtures_dir / f"{fixture}.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_put(doc, member, value)))
    for command in ("validate", "check-cp", "dilate"):
        code = main([command, str(path), "--output", str(tmp_path / "r.json")]
                    if command == "dilate" else [command, str(path)])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "Traceback" not in err
        assert f"(at {location})" in err, (command, err)


def test_non_utf8_instance_exits_2_at_the_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"depth": 1}'.encode("utf-16-le"))
    for command in ("validate", "check-cp", "dilate"):
        code = main([command, str(path), "--output", str(tmp_path / "r.npz")]
                    if command == "dilate" else [command, str(path)])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "Traceback" not in err
        assert f"not UTF-8 text: byte 0 does not decode (at {path})" in err


@pytest.mark.parametrize("key, member, location", [
    ("depth", '"depth": ', "/"),
    ("kind", '"kind": "free_abelian"', "/system/semigroup"),
])
def test_duplicate_key_exits_2_at_its_object(fixtures_dir, tmp_path, capsys,
                                             key, member, location):
    # an earlier copy of the key, which the last one would silently override
    text = json.dumps(json.loads((fixtures_dir / "sznagy_half.json").read_text()))
    assert text.count(member) == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(member, f'"{key}": 1, {member}'))
    for command in ("validate", "check-cp", "dilate"):
        code = main([command, str(path), "--output", str(tmp_path / "r.npz")]
                    if command == "dilate" else [command, str(path)])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "Traceback" not in err
        assert f"duplicate key '{key}' (at {location})" in err


def test_choi_entries_near_the_float_maximum_exit_without_traceback(
        fixtures_dir, tmp_path, capsys):
    # the transpose map with its values scaled by 1e308: the symmetrized
    # Choi blocks stay finite
    doc = json.loads((fixtures_dir / "transpose_m2.json").read_text())
    doc["phi"] = {"kind": "base_values",
                  "values": [encode_matrix(1e308 * np.outer(np.eye(2)[j], np.eye(2)[i]))
                             for i in range(2) for j in range(2)]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(["check-cp", str(path)])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert "Traceback" not in err


def test_unknown_tolerance_names_the_known_ones(fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "sznagy_half.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_put(doc, "/tolerances", {"psdd": 1.0})))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown tolerance 'psdd'" in err
    assert all(key in err for key in Tolerances().as_dict())


# not "/T/1": _put cannot set it on the rank-1 fixtures, whose T has one entry
FUZZED_MEMBERS = ("/system/alphas", "/system/betas", "/system/codomain",
                  "/system/basis_images", "/phi/rho", "/phi/values", "/depth",
                  "/system/base/blocks", "/tolerances", "/seed",
                  "/system/semigroup/rank", "/T", "/T/0", "/phi/kind", "/phi")
_number = (st.integers(-2, 2) | st.floats(-2, 2)
           | st.sampled_from([float("nan"), float("inf"), 1e300]))
_entry = _number | st.lists(_number, min_size=2, max_size=2)     # [re, im]
# rectangular matrices of either entry form, and ragged nestings
_matrix = st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.lists(_entry, min_size=cols, max_size=cols), min_size=1, max_size=3))
_ragged = st.lists(st.lists(_number, max_size=3), min_size=2, max_size=3)
_leaf = st.none() | st.booleans() | _number | st.text(max_size=3) | _matrix | _ragged
_json = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["unitary", "linear", "blocks", "kind", "psd", "rank"]), inner,
    max_size=2), max_leaves=6)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(fixture=st.sampled_from(sorted(FIXTURES.glob("*.json"))),
       member=st.sampled_from(FUZZED_MEMBERS), value=_json)
def test_fuzzed_generator_members_keep_the_exit_contract(fixture, member, value):
    """A bundled fixture with one member the generator maps, stages,
    contractions or phi are built from, its tolerances, seed or semigroup
    rank replaced by any JSON
    value: ``validate``, ``check-cp`` and ``dilate`` exit 0, 1 or 2 without
    a traceback, and 2 whenever parsing fails, as it must for a tolerance
    object with an unknown key."""
    doc = _put(json.loads(fixture.read_text()), member, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            parse_instance(path)
            parsed = True
        except SchemaError:
            parsed = False
        if member == "/tolerances" and isinstance(value, dict):
            assert not parsed or set(value) <= set(Tolerances().as_dict())
        for command in ("validate", "check-cp", "dilate"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, path, "--depth", "1"]
                            + (["--output", os.path.join(tmp, "r.json")]
                               if command == "dilate" else []))
            assert code in (0, 1, 2), (command, code)
            assert "Traceback" not in err.getvalue()
            assert parsed or code == 2, (command, err.getvalue())


@pytest.fixture(scope="module")
def stored_documents(tmp_path_factory, fixtures_dir):
    """The members of a persisted result of ``sznagy_half``, its metadata
    decoded, and a persisted report."""
    out = tmp_path_factory.mktemp("stored") / "r.json"
    instance = parse_instance(str(fixtures_dir / "sznagy_half.json"))
    assert run_command("dilate", instance,
                       dict(FLAGS, output=str(out)))["exit_code"] == 0
    meta, arrays = load_result(str(out))
    return dict(arrays, meta=meta), run_command("validate", instance, FLAGS)


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _npz(members: dict, **changes) -> bytes:
    """The bytes of a result with members replaced, or dropped when set to
    None; a ``meta`` dict is written as its JSON text."""
    members = {k: v for k, v in {**members, **changes}.items() if v is not None}
    if isinstance(members.get("meta"), dict):
        members["meta"] = np.array(json.dumps(members["meta"]).encode())
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _meta(members: dict, **changes) -> bytes:
    return _npz(members, meta={**members["meta"], **changes})


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


# case -> (command, the bytes of the file it reads, made from the good
# result's members and report, and the location the refusal names)
MALFORMED_STORED = {
    "residuals_missing": (
        "verify", lambda r, _: _npz(r, meta=_without(r["meta"], "residuals")),
        "meta/residuals"),
    "residual_not_object": (
        "verify", lambda r, _: _meta(r, residuals=[1]), "meta/residuals/0"),
    # the interiors stacked into one array
    "interiors_list": (
        "verify", lambda r, _: _npz(r, interiors=np.array([r["interiors"]])),
        "interiors"),
    "interior_key_not_level": (
        "verify", lambda r, _: _npz(r, interior_x=r["interiors"]), "interior_x"),
    "interior_rows": (
        "verify", lambda r, _: _npz(r, interiors=r["interiors"][:2]), "interiors"),
    # one level wider than the stored columns
    "interior_widths_off": (
        "verify", lambda r, _: _meta(r, interior_widths=[
            w + (k == 0) for k, w in enumerate(r["meta"]["interior_widths"])]),
        "interiors"),
    "interior_widths_missing": (
        "verify", lambda r, _: _npz(r, meta=_without(r["meta"], "interior_widths")),
        "meta/interior_widths"),
    "degree_text": ("verify", lambda r, _: _meta(r, degree="abc"), "meta/degree"),
    # the table's values as a one-row matrix where a list is expected
    "pi_list": ("verify", lambda r, _: _npz(r, pi_values=r["pi_values"][None]),
                "pi_values"),
    "pi_values_one_short": (
        "verify", lambda r, _: _npz(r, pi_values=r["pi_values"][1:]), "pi_values"),
    "pi_shape": ("verify", lambda r, _: _npz(r, pi_spans=r["pi_spans"][1:]),
                 "pi_spans"),
    "pi_old_stack": ("verify", lambda r, _: _npz(r, pi=np.zeros((2, 5, 5), complex)),
                     "pi"),
    "pi_spans_float": (
        "verify", lambda r, _: _npz(r, pi_spans=r["pi_spans"] * 1.0), "pi_spans"),
    "pi_spans_missing": ("verify", lambda r, _: _npz(r, pi_spans=None), "pi_spans"),
    "pi_position_past_the_matrix": (
        "verify", lambda r, _: _npz(r, pi_spans=r["pi_spans"] + 25), "pi_spans"),
    "pi_span_negative": (
        "verify", lambda r, _: _npz(r, pi_spans=r["pi_spans"] - 1), "pi_spans"),
    "pi_span_backwards": (
        "verify", lambda r, _: _npz(r, pi_spans=r["pi_spans"][..., ::-1]),
        "pi_spans"),
    # two groups on [0, 1), as many values as their layout: without the
    # refusal the identity suite fails it (exit 1), starting at pi.unital
    "pi_blocks_overlapping": (
        "verify", lambda r, _: _npz(r, pi_spans=np.concatenate(
            [r["pi_spans"][:1], r["pi_spans"][:1], r["pi_spans"][2:]])),
        "pi_spans"),
    "isometries_short": (
        "verify", lambda r, _: _npz(r, isometries=r["isometries"][:0]),
        "isometries"),
    "isometry_shape": (
        "verify", lambda r, _: _npz(r, isometries=np.eye(1, dtype=complex)[None]),
        "isometries"),
    "embedding_shape": (
        "verify", lambda r, _: _npz(r, embedding=r["embedding"][:2]), "embedding"),
    "embedding_missing": (
        "verify", lambda r, _: _npz(r, embedding=None), "embedding"),
    "embedding_float64": (
        "verify", lambda r, _: _npz(r, embedding=r["embedding"].real), "embedding"),
    "interior_nan": (
        "verify", lambda r, _: _npz(r, interiors=np.full_like(r["interiors"], np.nan)),
        "interiors"),
    "pi_pickled_objects": (
        "verify", lambda r, _: _npz(r, pi_values=np.array([{}, None], dtype=object)),
        "pi_values"),
    "truncated": ("verify", lambda r, _: _npz(r)[:200], "/"),
    "not_a_zip": ("verify", lambda r, _: b"\x00\x01 not an archive", "/"),
    "meta_missing": ("verify", lambda r, _: _npz(r, meta=None), "meta"),
    "meta_not_json": (
        "verify", lambda r, _: _npz(r, meta=np.array(b"{not json")), "meta"),
    "meta_float64": ("verify", lambda r, _: _npz(r, meta=np.zeros(3)), "meta"),
    "report_list": ("report", lambda _, p: _json([1, 2]), "/"),
    "report_residual_not_object": (
        "report", lambda r, _: _meta(r, residuals=[1]), "meta/residuals/0"),
    "report_check_without_name": (
        "report",
        lambda _, p: _json(dict(p, checks=[_without(c, "name")
                                           for c in p["checks"]])),
        "/checks/0/name"),
    "report_meta_not_json": (
        "report", lambda r, _: _npz(r, meta=np.array(b"[")), "meta"),
}


@pytest.mark.parametrize("case", MALFORMED_STORED)
def test_malformed_result_or_report_exits_2_without_traceback(
        fixtures_dir, tmp_path, capsys, stored_documents, case):
    command, make, location = MALFORMED_STORED[case]
    path = tmp_path / "stored.json"
    path.write_bytes(make(*stored_documents))
    if command == "verify":
        code = main(["verify", str(fixtures_dir / "sznagy_half.json"),
                     "--result", str(path)])
    else:
        code = main(["report", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert f"(at {location})" in err


def test_v1_json_result_is_refused_by_name(fixtures_dir, tmp_path, capsys):
    # a result of the retired JSON format, of any content: there is no
    # second reader
    path = tmp_path / "old.result.json"
    path.write_text(json.dumps({"format": "lcm-dilate-result-v1",
                                "residuals": [], "degree": 4}))
    for argv in (["verify", str(fixtures_dir / "sznagy_half.json"),
                  "--result", str(path)], ["report", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "format v1 JSON result; re-run dilate (at /format)" in err
        assert "Traceback" not in err


def test_v2_result_is_refused_by_name(fixtures_dir, tmp_path, capsys,
                                     stored_documents):
    # results whose meta names a retired format: v2 (the dense pi stack) and
    # v3 (per-level members, pi's positions and coefficients)
    path = tmp_path / "old.result.npz"
    for version in ("v2", "v3"):
        path.write_bytes(_meta(stored_documents[0],
                               format=f"lcm-dilate-result-{version}"))
        for argv in (["verify", str(fixtures_dir / "sznagy_half.json"),
                      "--result", str(path)], ["report", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"format {version} result; re-run dilate (at meta/format)" in err
            assert "Traceback" not in err


def test_result_and_report_are_told_apart_by_content(fixtures_dir, tmp_path,
                                                     capsys):
    # names that say the opposite of what the files hold
    sz = str(fixtures_dir / "sznagy_half.json")
    result, report = tmp_path / "a.report.json", tmp_path / "b.result.npz"
    assert main(["dilate", sz, "--output", str(result)]) == 0
    assert result.read_bytes()[:4] == b"PK\x03\x04"
    capsys.readouterr()
    assert main(["verify", sz, "--result", str(result), "--format", "json"]) == 0
    report.write_bytes(capsys.readouterr().out.encode())
    assert main(["report", str(result)]) == 0
    assert "# result" in capsys.readouterr().out
    assert main(["report", str(report)]) == 0
    assert "# verify" in capsys.readouterr().out


def test_seed_flag_is_refused_without_traceback(fixtures_dir, tmp_path, capsys):
    # the library draws no random number: the instance's seed is only echoed
    code = main(["dilate", str(fixtures_dir / "sznagy_half.json"), "--seed", "3",
                 "--output", str(tmp_path / "r.npz")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "--seed" in err


@pytest.mark.parametrize("flag", ["--tol-psd", "--tol-rank"])
def test_tolerance_flags_are_refused_without_traceback(fixtures_dir, tmp_path,
                                                       capsys, flag):
    # tolerances come from the instance, whose hash a result pins
    code = main(["dilate", str(fixtures_dir / "sznagy_half.json"), flag, "1e-4",
                 "--output", str(tmp_path / "r.npz")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and flag in err
    assert not (tmp_path / "r.npz").exists()


# ---------------------------------------------------------------------------
# command verdicts and exit codes
# ---------------------------------------------------------------------------


def test_validate_verdicts(fixtures_dir):
    ok = run_command("validate", _load(fixtures_dir, "sznagy_half.json"), FLAGS)
    assert ok["exit_code"] == 0
    bad = run_command("validate", _load(fixtures_dir, "uhf_stage_m2.json"), FLAGS)
    assert bad["exit_code"] == 1
    failing = [c for c in bad["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["ideal[g1]"]
    assert re.fullmatch(r"a#\d+ alpha\(b#\d+\)", failing[0]["detail"])


def test_check_cp_verdicts(fixtures_dir):
    bad = run_command("check-cp", _load(fixtures_dir, "transpose_m2.json"), FLAGS)
    assert bad["exit_code"] == 1
    assert bad["extra"]["min_eigenvalue"] <= -0.99
    ok = run_command("check-cp", _load(fixtures_dir, "cuntz_m2.json"), FLAGS)
    assert ok["exit_code"] == 0


@pytest.mark.parametrize("name,record", [
    ("sznagy_half.json", "phi.extension_accepted"),
    ("nica_nilpotent.json", "phi.extension_accepted"),
    ("cuntz_m2.json", "phi.completely_positive"),
    ("transpose_m2.json", "phi.completely_positive"),
])
def test_check_cp_reports_one_positivity_record(fixtures_dir, name, record):
    # one Choi test, one record: the extension's verdict when phi is the
    # contraction extension, else the given map's, never a placeholder
    rep = run_command("check-cp", _load(fixtures_dir, name), FLAGS)
    assert [c["name"] for c in rep["checks"]] == [record]
    (check,) = rep["checks"]
    assert check["threshold"] < 0 and check["value"] is not None
    if check["passed"] or record == "phi.completely_positive":
        assert rep["extra"] == {"min_eigenvalue": check["value"]}
    else:       # a rejected extension names its violating atoms
        assert min(v["min_eigenvalue"] for v in rep["extra"]["violations"]) \
            == check["value"]


def test_extension_verdict_honours_tol_psd(tmp_path, capsys):
    # T2 = i T1 with T1 = [[0, s], [0, 0]] and 2 s^2 = 1 + 1e-6: the atom at
    # the origin has least eigenvalue -1e-6
    s = np.sqrt((1 + 1e-6) / 2)
    t1 = np.array([[0, s], [0, 0]], dtype=complex)
    doc = {
        "system": {"semigroup": {"kind": "free_abelian", "rank": 2},
                   "model": {"kind": "toeplitz_abelian"}},
        "T": [encode_matrix(t1), encode_matrix(1j * t1)],
        "depth": 2,
    }
    strict, loose = tmp_path / "strict.json", tmp_path / "loose.json"
    strict.write_text(json.dumps(doc))
    loose.write_text(json.dumps(dict(doc, tolerances={"psd": 1e-4})))
    assert main(["check-cp", str(strict)]) == 1
    assert main(["check-cp", str(loose)]) == 0
    out = capsys.readouterr().out
    assert "FAIL  phi.extension_accepted" in out
    assert "PASS  phi.extension_accepted  value=-1.000e-06  tol=-1.0e-04" in out


def _self_similar_stage(tmp_path):
    """The self-similar stage M2 -> M2 + M2 as an instance, with T = I/2."""
    def image(k, i, j):
        big = np.zeros((4, 4))
        big[2 * k + i, 2 * k + j] = 1.0
        return encode_matrix(big)

    path = tmp_path / "stage.json"
    path.write_text(json.dumps({
        "system": {
            "semigroup": {"kind": "free_monoid", "rank": 2},
            "model": {"kind": "stage"},
            "base": {"blocks": [2]},
            "codomain": {"blocks": [2, 2]},
            "basis_images": [[image(k, i, j) for i in range(2) for j in range(2)]
                             for k in range(2)],
        },
        "T": [encode_matrix(0.5 * np.eye(2))] * 2,
        "depth": 1,
    }))
    return str(path)


@pytest.mark.parametrize("command,expected", [
    ("validate", 0), ("check-nica", 0), ("check-cp", 2), ("dilate", 2),
])
def test_stage_instances_support_only_validate_and_check_nica(
        tmp_path, capsys, command, expected):
    path = _self_similar_stage(tmp_path)
    code = main([command, path, "--output", str(tmp_path / "r.json")]
                if command == "dilate" else [command, path])
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert "(at /system/model/kind)" in err


def test_check_nica_without_contractions_names_the_location(fixtures_dir,
                                                             capsys):
    code = main(["check-nica", str(fixtures_dir / "uhf_stage_m2.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "check-nica needs T (at /T)" in err
    assert "Traceback" not in err


def test_dilate_without_contractions_names_the_location(fixtures_dir,
                                                         tmp_path, capsys):
    # build_pair asks for T only on levelled models, and this one is a point
    doc = json.loads((fixtures_dir / "transpose_m2.json").read_text())
    del doc["T"]
    path = tmp_path / "no_T.json"
    path.write_text(json.dumps(doc))
    codes = {command: main([command, str(path), "--output", str(tmp_path / "r.json")]
                           if command == "dilate" else [command, str(path)])
             for command in ("validate", "check-cp", "check-nica", "dilate")}
    err = capsys.readouterr().err
    assert codes == {"validate": 0, "check-cp": 1, "check-nica": 2, "dilate": 2}
    assert "dilate needs T (at /T)" in err
    assert "Traceback" not in err


def test_check_nica_verdicts(fixtures_dir):
    bad = run_command("check-nica", _load(fixtures_dir, "nica_nilpotent.json"),
                      FLAGS)
    assert bad["exit_code"] == 1
    assert bad["extra"]["worst_F"]          # witness subset reported
    ok = run_command("check-nica", _load(fixtures_dir, "sznagy_half.json"), FLAGS)
    assert ok["exit_code"] == 0


def test_dilate_and_verify_roundtrip(fixtures_dir, tmp_path):
    out = str(tmp_path / "sz.result.json")
    flags = dict(FLAGS, output=out)
    rep = run_command("dilate", _load(fixtures_dir, "sznagy_half.json"), flags)
    assert rep["exit_code"] == 0
    assert rep["extra"]["rank"] >= 1
    assert os.path.exists(out)
    for c in rep["checks"]:
        assert c["passed"], c

    vrep = run_command(
        "verify", _load(fixtures_dir, "sznagy_half.json"), dict(FLAGS, result=out)
    )
    assert vrep["exit_code"] == 0


def test_dilate_honours_depth_zero(fixtures_dir, tmp_path):
    rep = run_command("dilate", _load(fixtures_dir, "sznagy_half.json"),
                      dict(FLAGS, depth=0, output=str(tmp_path / "r.json")))
    assert rep["exit_code"] == 0
    assert rep["extra"]["degree"] == 0


def test_verify_refuses_mismatched_instance(fixtures_dir, tmp_path):
    out = str(tmp_path / "sz.result.json")
    run_command("dilate", _load(fixtures_dir, "sznagy_half.json"),
                dict(FLAGS, output=out))
    other = _load(fixtures_dir, "commuting_unitaries.json")
    with pytest.raises(SchemaError):
        run_command("verify", other, dict(FLAGS, result=out))


def test_inconsistent_pair_reports_covariance_failure(tmp_path):
    # identity base map does not satisfy the boundary stage premise for the
    # matrix-unit family: surfaced as a failed check, not a crash
    doc = {
        "system": {
            "semigroup": {"kind": "free_monoid", "rank": 2},
            "model": {"kind": "boundary_free"},
            "base": {"blocks": [2]},
        },
        "phi": {"kind": "base_values",
                "values": [encode_matrix(np.outer(np.eye(2)[i], np.eye(2)[j]))
                           for i in range(2) for j in range(2)]},
        "T": [encode_matrix(np.array([[1, 0], [0, 0]], dtype=complex)),
              encode_matrix(np.array([[0, 0], [1, 0]], dtype=complex))],
        "depth": 2,
    }
    p = tmp_path / "inconsistent.json"
    p.write_text(json.dumps(doc))
    for cmd in ("check-cp", "dilate"):
        rep = run_command(cmd, parse_instance(str(p)),
                          dict(FLAGS, output=str(tmp_path / "out.json")))
        assert rep["exit_code"] == 1
        assert any(c["name"] == "pair.covariant" and not c["passed"]
                   for c in rep["checks"])


def test_dilate_refusals(fixtures_dir, tmp_path):
    rep = run_command("dilate", _load(fixtures_dir, "transpose_m2.json"),
                      dict(FLAGS, output=str(tmp_path / "t.json")))
    assert rep["exit_code"] == 1
    names = {c["name"]: c for c in rep["checks"]}
    assert not names["gram.psd"]["passed"]
    # the witness is named by its (atom, row) group and its catalog labels
    assert names["gram.psd"]["detail"] == (
        "dilation refused: Gram operator not positive; witness group "
        "(atom, row) = ((), 0): [(0,)#0, (0,)#1, (1,)#0, (1,)#1, (2,)#0, (2,)#1]"
    )

    rep = run_command("dilate", _load(fixtures_dir, "nica_nilpotent.json"),
                      dict(FLAGS, output=str(tmp_path / "n.json")))
    assert rep["exit_code"] == 1
    names = {c["name"]: c for c in rep["checks"]}
    assert not names["phi.extension_accepted"]["passed"]


# ---------------------------------------------------------------------------
# planted defects: the smallest instance edit that fails each check
# ---------------------------------------------------------------------------


_X = np.array([[0, 1], [1, 0]])


def _point_pair(kind, alphas, t_mats, phi):
    """A rank-2 point-model instance over M2."""
    return {
        "system": {"semigroup": {"kind": kind, "rank": 2},
                   "model": {"kind": "matrix"}, "base": {"blocks": [2]},
                   "alphas": [{"unitary": encode_matrix(a)} for a in alphas]},
        "T": [encode_matrix(t) for t in t_mats],
        "phi": phi,
        "depth": 1,
    }


def _non_hermitian_phi():
    # the identity map on M2 with i*eps*I added to phi(e_11) and phi(e_22),
    # so every diagonal Gram entry K(q, a*a, q) has anti-Hermitian part
    # eps*I; tolerances.covariance and tolerances.psd are raised to let it
    # through to the Gram
    eps = 1e-6
    units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
    values = [u + 1j * eps * np.trace(u) * np.eye(2) for u in units]
    return {
        "system": {"semigroup": {"kind": "free_abelian", "rank": 1},
                   "model": {"kind": "matrix"}, "base": {"blocks": [2]}},
        "T": [encode_matrix(np.eye(2))],
        "phi": {"kind": "base_values", "values": [encode_matrix(v) for v in values]},
        "depth": 2,
        "tolerances": {"psd": 1e-4, "covariance": 1e-4},
    }


def _cuntz_rank_cut_above_psd(fixtures_dir):
    # a rank cut at half the largest Gram eigenvalue drops eigenvalues far
    # above tolerances.psd, so the factor no longer reproduces the Gram
    doc = json.loads((fixtures_dir / "cuntz_m2.json").read_text())
    return _put(doc, "/tolerances", {"rank": 0.5})


# check -> (command, the planted instance)
PLANTED = {
    # alpha_1 alpha_2 != alpha_2 alpha_1: Ad X and Ad diag(1, i) do not commute
    "action.factorization": ("validate", lambda _: _point_pair(
        "free_abelian", [_X, np.diag([1, 1j])], [0.5 * np.eye(2)] * 2,
        {"kind": "diagonal"})),
    # free generators fixing the unit: E_1 E_2 = 1, not 0
    "units.lcm_rule": ("validate", lambda _: _point_pair(
        "free_monoid", [np.eye(2)] * 2, [0.5 * np.eye(2)] * 2,
        {"kind": "diagonal"})),
    "gram.factorization": ("dilate", _cuntz_rank_cut_above_psd),
    "gram.hermitian_assembly": ("dilate", lambda _: _non_hermitian_phi()),
}


@pytest.mark.parametrize("check", PLANTED)
def test_planted_defect_fails_its_check(fixtures_dir, tmp_path, capsys, check):
    command, make = PLANTED[check]
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(make(fixtures_dir)))
    code = main([command, str(path), "--format", "json"]
                + (["--output", str(tmp_path / "r.json")] if command == "dilate"
                   else []))
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert code == 1
    # the planted check is the first to fail; the validate defects fail
    # nothing else
    assert failed[0] == check
    assert command == "dilate" or failed == [check]


def test_non_commuting_abelian_contractions_exit_2_naming_both(tmp_path, capsys):
    doc = _point_pair("free_abelian", [np.eye(2)] * 2,
                      [0.5 * _X, 0.5 * np.diag([1, -1])], {"kind": "diagonal"})
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(doc))
    for command in ("check-cp", "check-nica", "dilate"):
        code = main([command, str(path), "--output", str(tmp_path / "r.json")]
                    if command == "dilate" else [command, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "T1 and T2 must agree on their common multiple (1, 1)" in err


def test_resource_guard_fires_before_any_mathematics(fixtures_dir):
    from lcm_dilate.errors import ResourceCapError

    with pytest.raises(ResourceCapError):
        run_command("dilate", _load(fixtures_dir, "cuntz_m2.json"),
                    dict(FLAGS, max_dim=10))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_determinism(fixtures_dir, tmp_path):
    inst = _load(fixtures_dir, "sznagy_half.json")
    r1 = run_command("dilate", inst, dict(FLAGS, output=str(tmp_path / "a.json")))
    r2 = run_command("dilate", inst, dict(FLAGS, output=str(tmp_path / "a.json")))
    assert r1["report_hash"] == r2["report_hash"]
    assert report_hash(r1) == r1["report_hash"]

    # byte-identical JSON after dropping timing fields
    def strip(doc):
        doc = json.loads(json.dumps(doc))
        doc.pop("wall_ms", None)
        for c in doc["checks"]:
            c.pop("wall_ms", None)
        return json.dumps(doc, sort_keys=True)

    assert strip(r1) == strip(r2)


def test_emit_report_formats(fixtures_dir):
    inst = _load(fixtures_dir, "sznagy_half.json")
    rep = run_command("check-cp", inst, FLAGS)
    as_json = emit_report(rep, "json")
    round_tripped = json.loads(as_json.decode())
    assert round_tripped == json.loads(json.dumps(rep))
    text = emit_report(rep, "text").decode()
    assert "PASS" in text and rep["instance_hash"][:12] in text

    bad = run_command("check-cp", _load(fixtures_dir, "transpose_m2.json"), FLAGS)
    assert "FAIL" in emit_report(bad, "text").decode()


def test_make_report_hash_ignores_timing(fixtures_dir):
    inst = _load(fixtures_dir, "sznagy_half.json")
    checks = [{"name": "x", "passed": True, "value": 0.0, "threshold": None,
               "detail": "", "wall_ms": 1.23}]
    r1 = make_report("validate", inst, json.loads(json.dumps(checks)),
                     wall_ms=10.0)
    checks[0]["wall_ms"] = 99.0
    r2 = make_report("validate", inst, checks, wall_ms=77.0)
    assert r1["report_hash"] == r2["report_hash"]


# ---------------------------------------------------------------------------
# the executable surface
# ---------------------------------------------------------------------------


def test_main_exit_codes(fixtures_dir, tmp_path, capsys):
    sz = str(fixtures_dir / "sznagy_half.json")
    out = str(tmp_path / "r.json")
    assert main(["dilate", sz, "--output", out]) == 0
    assert main(["verify", sz, "--result", out]) == 0
    assert main(["report", out]) == 0
    assert main(["check-cp", str(fixtures_dir / "transpose_m2.json")]) == 1
    assert main(["validate", str(fixtures_dir / "uhf_stage_m2.json")]) == 1
    assert main(["check-cp", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_unreadable_paths_exit_2_without_traceback(fixtures_dir, tmp_path,
                                                   capsys):
    sz = str(fixtures_dir / "sznagy_half.json")
    for argv in (["check-cp", str(tmp_path)], ["report", str(tmp_path)],
                 ["verify", sz, "--result", str(tmp_path)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_2_naming_it(fixtures_dir, tmp_path, capsys,
                                             where):
    out = str(tmp_path / "missing" / "r.npz" if where == "missing directory"
              else tmp_path)
    sz = str(fixtures_dir / "sznagy_half.json")
    assert main(["dilate", sz, "--output", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["sznagy_half.json", "commuting_unitaries.json"])
def test_each_command_runs_one_choi_test(fixtures_dir, tmp_path, monkeypatch,
                                         name):
    """check-cp, dilate and verify read one Choi test of phi each: the
    extension's verdict and the suite's phi.completely_positive record
    share it."""
    calls = []
    choi_blocks = LevelledOperatorMap.choi_blocks

    def counted(self):
        calls.append(self)
        return choi_blocks(self)

    monkeypatch.setattr(LevelledOperatorMap, "choi_blocks", counted)
    out = str(tmp_path / "r.npz")
    for command, flags in (("check-cp", FLAGS),
                           ("dilate", dict(FLAGS, output=out)),
                           ("verify", dict(FLAGS, result=out))):
        calls.clear()
        rep = run_command(command, _load(fixtures_dir, name), flags)
        assert rep["exit_code"] == 0, command
        assert len(calls) == 1, command


def test_main_batch_jobs(fixtures_dir, capsys):
    code = main([
        "check-cp",
        str(fixtures_dir / "sznagy_half.json"),
        str(fixtures_dir / "transpose_m2.json"),
        "--jobs", "2",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("# check-cp") == 2


def test_max_dim_resource_guard(fixtures_dir, tmp_path, capsys):
    code = main(["dilate", str(fixtures_dir / "cuntz_m2.json"), "--max-dim", "4",
                 "--output", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "exceeds cap" in err


def test_max_dim_refuses_before_any_corner(fixtures_dir, tmp_path, capsys,
                                           monkeypatch):
    # the catalog is counted from the atoms under each E_q, so a refused
    # size builds no corner
    def no_corner(*args):
        raise AssertionError("a corner was built before the size check")

    monkeypatch.setattr(LcmSystem, "corner_basis", no_corner)
    code = main(["dilate", str(fixtures_dir / "commuting_unitaries.json"),
                 "--depth", "20", "--output", str(tmp_path / "r.npz")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Gram operator of size 106722 exceeds cap 4096" in err
    assert "Traceback" not in err


def test_max_dim_refuses_before_the_covariance_check(fixtures_dir, tmp_path, capsys,
                                                    monkeypatch):
    # the size is counted before the kernel validates covariance, so an
    # oversized instance exits 2 whether or not its pair is covariant
    def no_covariance(*args):
        raise AssertionError("covariance was validated before the size check")

    monkeypatch.setattr(KernelSystem, "validate_covariance", no_covariance)
    code = main(["dilate", str(fixtures_dir / "commuting_unitaries.json"),
                 "--depth", "20", "--output", str(tmp_path / "r.npz")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Gram operator of size 106722 exceeds cap 4096" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,name,flag,value", [
    ("check-nica", "sznagy_half.json", "--depth", "0"),
    ("dilate", "cuntz_m2.json", "--max-dim", "0"),
    ("validate", "sznagy_half.json", "--depth", "-1"),
    ("check-cp", "transpose_m2.json", "--depth", "-1"),
    ("check-cp", "sznagy_half.json", "--depth", "-1"),
    ("check-nica", "sznagy_half.json", "--depth", "-1"),
    ("dilate", "sznagy_half.json", "--depth", "-1"),
    ("verify", "sznagy_half.json", "--depth", "-1"),
    ("verify", "sznagy_half.json", "--depth", "2"),   # the result fixes the degree
])
def test_flags_that_evaluate_nothing_exit_2(fixtures_dir, capsys,
                                            command, name, flag, value):
    code = main([command, str(fixtures_dir / name), flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and f"(at {flag})" in err


@pytest.mark.parametrize("fixture,semigroup", [
    ("sznagy_half", "free_monoid"),       # toeplitz_abelian
    ("cuntz_m2", "free_abelian"),         # boundary_free
])
def test_a_model_over_the_wrong_monoid_exits_2_at_the_model_kind(
        fixtures_dir, tmp_path, capsys, fixture, semigroup):
    doc = json.loads((fixtures_dir / f"{fixture}.json").read_text())
    doc["system"]["semigroup"]["kind"] = semigroup
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "check-cp", "check-nica", "dilate"):
        code = main([command, str(path), "--output", str(tmp_path / "r.npz")]
                    if command == "dilate" else [command, str(path)])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "Traceback" not in err
        assert "(at /system/model/kind)" in err, (command, err)


@pytest.mark.parametrize("value", ["4", "0", "-1"])
def test_the_removed_subset_size_flag_exits_2_through_argparse(
        fixtures_dir, capsys, value):
    path = str(fixtures_dir / "sznagy_half.json")
    assert main(["check-nica", path, "--max-f", value]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --max-f" in err
    assert "Traceback" not in err


def test_check_nica_refuses_too_many_subsets_before_building_one(
        tmp_path, capsys, monkeypatch):
    def no_defect(*args):
        raise AssertionError("a defect was built")

    monkeypatch.setattr(cli_module, "nica_defect", no_defect)
    # rank 12: 4,095 generator subsets, sum_G 2^|G| = 3^12 - 1 = 531,440 terms
    path = tmp_path / "rank12.json"
    path.write_text(json.dumps({
        "system": {"semigroup": {"kind": "free_monoid", "rank": 12},
                   "model": {"kind": "toeplitz_free"}},
        "T": [[[0.25]]] * 12,
    }))
    assert main(["check-nica", str(path)]) == 2
    err = capsys.readouterr().err
    assert "rank 12" in err and "531,440" in err
    assert "(at /system/semigroup/rank)" in err
    assert "Traceback" not in err


def test_check_nica_below_the_subset_cap_still_runs(fixtures_dir, capsys):
    # the screen of every small set refused these depths on its set count;
    # the generator subsets do not grow with the depth
    path = str(fixtures_dir / "commuting_unitaries.json")
    for depth in ("6", "9"):
        assert main(["check-nica", path, "--depth", depth]) == 0
        assert "3 generator subsets" in capsys.readouterr().out


def test_check_nica_keeps_one_float_per_set(fixtures_dir, capsys):
    # one least eigenvalue per generator subset, whatever the depth: a deep
    # run keeps no more than a shallow one
    path = str(fixtures_dir / "nica_nilpotent.json")
    peaks = []
    for depth in ("1", "12"):
        tracemalloc.start()
        try:
            assert main(["check-nica", path, "--depth", depth]) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert "3 generator subsets; worst F" in capsys.readouterr().out
    assert peaks[1] < 1.5 * peaks[0] < 1e6, peaks


def test_jobs_below_one_exits_2_before_any_process(fixtures_dir, capsys,
                                                   monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", no_pool)
    paths = [str(fixtures_dir / "cuntz_m2.json"), str(fixtures_dir / "sznagy_half.json")]
    for jobs in ("0", "-3"):
        assert main(["validate", *paths, "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert f"--jobs must be at least 1, got {jobs} (at --jobs)" in err
        assert "Traceback" not in err


def _phased_instance(path: str, theta: float) -> str:
    """A seeded point-model pair over M2 whose generator unitaries carry the
    global phase e^{i theta}, which leaves every alpha_g unchanged."""
    rng = np.random.default_rng(7)
    alphas = [np.diag(np.exp(2j * np.pi * rng.random(2))) for _ in range(2)]
    w = random_unitary(rng, 4)
    t_mats = [w @ np.diag(np.exp(2j * np.pi * rng.random(4))) @ w.conj().T
              for _ in range(2)]
    doc = {
        "system": {
            "semigroup": {"kind": "free_abelian", "rank": 2},
            "model": {"kind": "matrix"},
            "base": {"blocks": [2]},
            "alphas": [{"unitary": encode_matrix(np.exp(1j * theta) * a)}
                       for a in alphas],
        },
        "T": [encode_matrix(t) for t in t_mats],
        "phi": {"kind": "state", "rho": encode_matrix(np.diag([0.3, 0.7]))},
        "depth": 2,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_a_global_phase_moves_no_verdict_and_no_witness(tmp_path):
    # the phase changes the residuals only in their last bits, so every
    # record must keep its verdict and name the same case
    def records(theta):
        path = _phased_instance(str(tmp_path / f"phase_{theta}.json"), theta)
        flags = dict(FLAGS, output=str(tmp_path / "r.npz"))
        return {command: [(c["name"], c["passed"], c["detail"])
                          for c in run_command(command, parse_instance(path),
                                               flags)["checks"]]
                for command in ("validate", "check-cp", "dilate")}

    want = records(0.0)
    assert all(passed for checks in want.values() for _, passed, _ in checks)
    for theta in (0.3, 1.1, 2.0):
        assert records(theta) == want, theta


def _load_script(name: str):
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_fixtures = _load_script("run_fixtures")


# every bundled fixture reproduces the verdict in the script's plan, and a
# passing dilate persists a result that verifies
@pytest.mark.parametrize("name,command,expected", run_fixtures.PLAN)
def test_bundled_fixture_verdicts(tmp_path, name, command, expected):
    ok, line = run_fixtures.check(name, command, expected, str(tmp_path))
    assert ok, line


def test_run_fixtures_main_reports_a_wrong_verdict(monkeypatch, capsys):
    monkeypatch.setattr(run_fixtures, "PLAN", [
        ("sznagy_half.json", "validate", 0),
        ("transpose_m2.json", "check-cp", 0),
    ])
    assert run_fixtures.main() == 1
    out = capsys.readouterr().out
    assert "BAD  transpose_m2.json" in out and "1/2 fixture verdicts" in out


# the experiment scripts run to their agreement line
@pytest.mark.parametrize("args,last_line", [
    (("defect_sweep.py", "4"), "all three verdicts agree at every scale"),
    (("run_fixtures.py",), "17/17 fixture verdicts reproduced"),
])
def test_experiment_script_agrees(args, last_line):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / args[0]
    proc = subprocess.run([sys.executable, str(script), *args[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == last_line


def test_output_digest_is_one_deterministic_pathless_line_per_command(
        fixtures_dir):
    digest = _load_script("output_digest")
    path = str(fixtures_dir / "sznagy_half.json")
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(json.dumps(
                [digest.digest("sznagy_half.json", path, command, {}, tmp)
                 for command in digest.COMMANDS], sort_keys=True))
    assert runs[0] == runs[1]
    lines = json.loads(runs[0])
    assert [d["command"] for d in lines] == list(digest.COMMANDS)
    assert all(d["exit_code"] == 0 and d["checks"] for d in lines)
    assert len(lines[3]["result_sha256"]) == 64
    assert str(fixtures_dir) not in runs[0]
    assert tempfile.gettempdir() not in runs[0]


def test_output_digest_compare_holds_values_to_the_tolerance(fixtures_dir,
                                                             tmp_path, capsys):
    digest = _load_script("output_digest")
    with tempfile.TemporaryDirectory() as tmp:
        lines = [digest.digest(name, str(fixtures_dir / name), command, {}, tmp)
                 for name in ("sznagy_half.json", "transpose_m2.json")
                 for command in ("check-cp", "dilate")]

    def write(name, doc):
        path = tmp_path / name
        path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in doc))
        return str(path)

    base = write("a.txt", lines)
    assert digest.main(["--compare", base, base, "--tol", "1e-12"]) == 0
    assert "0 differences" in capsys.readouterr().out
    # a value moved by rounding, and a moved result hash, pass and are listed
    near = json.loads(json.dumps(lines))
    near[1]["checks"][0][2] += 1e-13
    near[1]["result_sha256"] = "0" * 64
    assert digest.main(["--compare", base, write("b.txt", near), "--tol", "1e-12"]) == 0
    out = capsys.readouterr().out
    assert "MOVED line 2 (sznagy_half.json dilate)" in out
    assert "1 result hashes moved" in out
    # a value beyond the tolerance, a detail, a verdict or an exit code fail
    for change in ("value", "detail", "passed", "exit_code"):
        far = json.loads(json.dumps(lines))
        check = far[1]["checks"][0]
        if change == "value":
            check[2] += 1e-9
        elif change == "detail":
            check[3] += "!"
        elif change == "passed":
            check[1] = not check[1]
        else:
            far[3]["exit_code"] = 2
        assert digest.main(["--compare", base, write("c.txt", far),
                            "--tol", "1e-12"]) == 1, change
        assert "DIFF line" in capsys.readouterr().out
