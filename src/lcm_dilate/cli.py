"""Batch command line interface.

Subcommands
-----------
validate    structural checks of the dynamical system (ideals, lcm rule)
check-cp    complete positivity of the instance's map (Choi blocks)
check-nica  inclusion-exclusion defects over all small subsets up to a depth
dilate      build, verify, and persist the truncated minimal dilation
verify      re-check a persisted dilation against its instance
report      render a persisted report or result as text

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad usage
or unparsable input.  Reports are deterministic for a fixed instance and
flags; timing fields are excluded from the report hash.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import sys as _sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .cpmaps import (
    BaseOperatorMap,
    ContractionFamily,
    build_phi_tilde,
    diagonal_compression_map,
    extend_phi_T,
    is_completely_positive,
    nica_defect,  # unused here: perfbench's tracer patches cli.nica_defect
    nica_defects,
    state_map,
    transpose_map,
)
from .dilation import Tolerances, covariant_dilate
from .errors import (
    CovarianceError,
    GramNotPositiveError,
    ResourceCapError,
    SchemaError,
    SpecMismatchError,
)
from .kernel import DEFAULT_MAX_GRAM_DIM as DEFAULT_MAX_DIM
from .persist import (
    is_result_file,
    load_result,
    refuse_v1,
    result_payload,
    stored_degree,
    stored_residuals,
    verify_result,
    write_result,
)
from .semigroup import DEFAULT_ENUMERATION_CAP, semigroup_from_json
from .serialize import decode_checks, decode_matrix, load_json, report_hash, sha256_of
from .systems import TOEPLITZ_KINDS, ValidationReport, build_system

REPORT_FORMAT = "lcm-dilate-report-v1"

DEFAULT_MAX_F = 4

PHI_KINDS = ("from_contractions", "base_values", "state", "diagonal", "transpose")
MODEL_KINDS = (*TOEPLITZ_KINDS, "matrix", "stage")


# ---------------------------------------------------------------------------
# instance parsing
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    path: str
    raw: dict
    hash: str
    system_config: dict
    phi_config: dict
    t_mats: list[np.ndarray]
    degree: int
    tolerances: Tolerances
    seed: int


def _positive_ints(doc) -> bool:
    """A nonempty list of positive integers (booleans are not integers)."""
    return isinstance(doc, list) and bool(doc) and all(
        type(b) is int and b >= 1 for b in doc
    )


def _tolerance(value, location: str) -> float:
    """A finite non-negative real (booleans and strings are not numbers)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0):
        raise SchemaError("tolerance must be a finite non-negative number",
                          location)
    return float(value)


def _square(doc, location: str, n: Optional[int]) -> np.ndarray:
    """A square matrix, n x n when n is given."""
    m = decode_matrix(doc, location)
    if m.shape[0] != m.shape[1] or n is not None and m.shape[0] != n:
        want = "a square matrix" if n is None else f"shape {(n, n)}"
        raise SchemaError(f"matrix has shape {m.shape}, expected {want}", location)
    return m


# the generator members each model kind reads; the others are refused
_MEMBERS = ("betas", "alphas", "codomain", "basis_images")
_READS = {"matrix": ("alphas",), "stage": ("codomain", "basis_images")}


def parse_instance(path: str) -> Instance:
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise SchemaError("instance must be a JSON object", path)

    sys_doc = raw.get("system")
    if not isinstance(sys_doc, dict):
        raise SchemaError("missing 'system' object", "/system")
    sg_doc = sys_doc.get("semigroup")
    if not isinstance(sg_doc, dict) or "kind" not in sg_doc or "rank" not in sg_doc:
        raise SchemaError("semigroup needs 'kind' and 'rank'", "/system/semigroup")
    try:
        sg = semigroup_from_json(sg_doc)
    except SpecMismatchError as exc:
        raise SchemaError(str(exc), "/system/semigroup") from None

    model_doc = sys_doc.get("model", {"kind": "matrix"})
    if not isinstance(model_doc, dict):
        raise SchemaError("model must be an object with a 'kind'", "/system/model")
    kind = model_doc.get("kind")
    if kind not in MODEL_KINDS:
        raise SchemaError(f"unknown model tag {kind!r}", "/system/model/kind")
    over = TOEPLITZ_KINDS.get(kind, (sg.kind,))[0]
    if over != sg.kind:
        raise SchemaError(f"a {kind} model runs over a {over} semigroup, not a "
                          f"{sg.kind}", "/system/model/kind")

    base_doc = sys_doc.get("base", {})
    if not isinstance(base_doc, dict):
        raise SchemaError("base must be an object", "/system/base")
    blocks = base_doc.get("blocks", [1])
    if not _positive_ints(blocks):
        raise SchemaError("base blocks must be positive integers", "/system/base/blocks")
    dim = sum(blocks)

    config: dict = {
        "semigroup": sg_doc,
        "model": {"kind": kind},
        "base": {"blocks": blocks},
    }
    for key in _MEMBERS:
        if key in sys_doc and key not in _READS.get(kind, ("betas",)):
            raise SchemaError(f"a {kind} system does not read {key}", f"/system/{key}")
    for key in ("betas", "alphas"):
        if not isinstance(sys_doc.get(key, []), list):
            raise SchemaError(f"{key} must be a list", f"/system/{key}")
    if "betas" in sys_doc:
        config["betas"] = [_square(m, f"/system/betas/{i}", dim)
                           for i, m in enumerate(sys_doc["betas"])]
    if "alphas" in sys_doc:
        alphas = []
        for i, entry in enumerate(sys_doc["alphas"]):
            where = f"/system/alphas/{i}"
            if not isinstance(entry, dict) or ("unitary" in entry) == ("linear" in entry):
                raise SchemaError("an alpha entry needs one of 'unitary' or 'linear'",
                                  where)
            key, n = ("unitary", dim) if "unitary" in entry else ("linear", dim * dim)
            alphas.append({key: _square(entry[key], f"{where}/{key}", n)})
        config["alphas"] = alphas
    if kind == "stage":
        cod = sys_doc.get("codomain")
        cod = cod.get("blocks") if isinstance(cod, dict) else None
        if not _positive_ints(cod):
            raise SchemaError("stage systems need codomain blocks",
                              "/system/codomain")
        config["codomain"] = {"blocks": cod}
        images_doc = sys_doc.get("basis_images")
        if not isinstance(images_doc, list) or not all(
            isinstance(gen, list) for gen in images_doc
        ):
            raise SchemaError("stage systems need basis_images",
                              "/system/basis_images")
        config["basis_images"] = [
            [_square(m, f"/system/basis_images/{g}/{i}", sum(cod))
             for i, m in enumerate(gen)]
            for g, gen in enumerate(images_doc)
        ]

    t_doc = raw.get("T")
    t_mats: list[np.ndarray] = []
    if t_doc is not None:
        if not isinstance(t_doc, list) or len(t_doc) != sg.rank:
            raise SchemaError(
                f"need {sg.rank} generator contractions", "/T"
            )
        t_mats = [decode_matrix(m, f"/T/{i}") for i, m in enumerate(t_doc)]
        h = t_mats[0].shape[0]
        for i, m in enumerate(t_mats):
            if m.shape != (h, h):
                raise SchemaError(
                    f"contraction {i} has shape {m.shape}, expected {(h, h)}",
                    f"/T/{i}",
                )

    phi_doc = raw.get("phi", {"kind": "from_contractions"})
    if not isinstance(phi_doc, dict):
        raise SchemaError("phi must be an object with a 'kind'", "/phi")
    pk = phi_doc.get("kind")
    if pk not in PHI_KINDS:
        raise SchemaError(f"unknown phi kind {pk!r}", "/phi/kind")
    phi_config = {"kind": pk}
    if pk == "state":
        if "rho" not in phi_doc:
            raise SchemaError("phi.state needs 'rho'", "/phi/rho")
        phi_config["rho"] = _square(phi_doc["rho"], "/phi/rho", dim)
    if pk == "base_values":
        vals = phi_doc.get("values")
        if not isinstance(vals, list):
            raise SchemaError("phi.base_values needs 'values'", "/phi/values")
        h = t_mats[0].shape[0] if t_mats else None
        phi_config["values"] = [
            _square(m, f"/phi/values/{i}", h) for i, m in enumerate(vals)
        ]

    degree = raw.get("depth", 2)
    if type(degree) is not int or degree < 0:
        raise SchemaError("depth must be a natural number", "/depth")

    tol_doc = raw.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise SchemaError("tolerances must be an object", "/tolerances")
    defaults = Tolerances().as_dict()
    for key in tol_doc:
        if key not in defaults:
            raise SchemaError(f"unknown tolerance {key!r}; the known ones are "
                              f"{', '.join(defaults)}", f"/tolerances/{key}")
    tols = {key: _tolerance(tol_doc.get(key, default), f"/tolerances/{key}")
            for key, default in defaults.items()}
    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise SchemaError("seed must be an integer", "/seed")
    try:
        digest = sha256_of(raw)
    except ValueError:          # a non-finite number the checks above missed
        raise SchemaError("instance contains a non-finite number", path) from None
    return Instance(
        path=path,
        raw=raw,
        hash=digest,
        system_config=config,
        phi_config=phi_config,
        t_mats=t_mats,
        degree=degree,
        tolerances=Tolerances(**tols),
        seed=seed,
    )


def build_pair(instance: Instance, degree: Optional[int] = None, sys_=None):
    """Construct (system, phi, T) for an instance, over the instance's
    system or the given one built from it.

    When phi is derived from the contractions it is their extension, even
    when its Choi test rejects it.  Stage systems support only ``validate``
    and ``check-nica``.
    """
    if instance.system_config["model"]["kind"] == "stage":
        raise SchemaError("stage systems support only validate and check-nica",
                          "/system/model/kind")
    degree = instance.degree if degree is None else degree
    sys_ = build_system(instance.system_config) if sys_ is None else sys_
    sg = sys_.semigroup
    T = ContractionFamily(sg, instance.t_mats) if instance.t_mats else None

    pk = instance.phi_config["kind"]
    if pk == "from_contractions":
        if T is None:
            raise SchemaError("phi.from_contractions needs T", "/T")
        return sys_, extend_phi_T(sys_, T, degree), T
    base = sys_.base
    if pk == "state":
        if T is None:
            raise SchemaError("phi.state needs T to fix the space", "/T")
        phi0 = state_map(base, instance.phi_config["rho"], T.h)
    elif pk == "base_values":
        phi0 = BaseOperatorMap(base, instance.phi_config["values"])
    elif pk == "diagonal":
        phi0 = diagonal_compression_map(base)
    elif pk == "transpose":
        phi0 = transpose_map(base)
    else:  # pragma: no cover
        raise SchemaError(f"unhandled phi kind {pk}", "/phi/kind")
    if T is None and instance.system_config["model"]["kind"] != "matrix":
        raise SchemaError("lifting phi needs T", "/T")
    return sys_, build_phi_tilde(sys_, phi0, T, degree), T


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def make_report(command: str, instance: Instance, checks: list[dict],
                extra: Optional[dict] = None, wall_ms: float = 0.0) -> dict:
    passed = all(c["passed"] for c in checks)
    doc = {
        "format": REPORT_FORMAT,
        "version": __version__,
        "command": command,
        "instance_path": instance.path,
        "instance_hash": instance.hash,
        "seed": instance.seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "checks": checks,
        "passed": passed,
        "exit_code": 0 if passed else 1,
        "extra": extra or {},
        "wall_ms": wall_ms,
    }
    doc["report_hash"] = report_hash(doc)
    return doc


def emit_report(report: dict, fmt: str = "text") -> bytes:
    """Render a report; json is canonical (sorted keys), text is one line
    per check."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    lines = [
        f"# {report.get('command', 'report')}  "
        f"instance={os.path.basename(str(report.get('instance_path', '?')))}  "
        f"hash={str(report.get('instance_hash', ''))[:12]}"
    ]
    for c in report.get("checks", []):
        flag = "PASS" if c.get("passed") else "FAIL"
        value = c.get("value")
        vtxt = "" if value is None else f"  value={value:.3e}"
        ttxt = (
            "" if c.get("threshold") is None else f"  tol={c['threshold']:.1e}"
        )
        dtxt = f"  [{c['detail']}]" if c.get("detail") else ""
        lines.append(f"{flag}  {c['name']}{vtxt}{ttxt}{dtxt}")
    verdict = "ALL CHECKS PASSED" if report.get("passed") else "FAILURES PRESENT"
    lines.append(f"# {verdict} (exit {report.get('exit_code')})")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    """State shared by the stages of one command."""

    instance: Instance
    flags: dict
    depth: int
    report: ValidationReport = field(default_factory=ValidationReport)
    extra: dict = field(default_factory=dict)
    sys: object = None
    phi: object = None
    T: object = None


def _system_checks(run: _Run, depth: int) -> None:
    run.sys = build_system(run.instance.system_config)
    run.report.checks.extend(run.sys.validate(depth=max(1, depth)).checks)


def _extension_check(run: _Run, cp) -> None:
    """The contraction extension's Choi test as one record; over C the
    Choi block k is the atom ``phi.atoms[k]``."""
    atoms = [str(run.phi.atoms[k]) for k, _ in cp.violations]
    run.report.at_least(
        "phi.extension_accepted", [(cp.min_eigenvalue, "")],
        -run.instance.tolerances.psd * cp.scale,
        detail=f"violating atoms: {atoms}" if atoms else "",
    )


def _pair(run: _Run) -> None:
    """Build (system, phi, T); a rejected phi extension is a failed check."""
    if not run.instance.t_mats:
        raise SchemaError("dilate needs T", "/T")
    run.sys, run.phi, run.T = build_pair(run.instance, run.depth, run.sys)
    if run.instance.phi_config["kind"] == "from_contractions":
        cp = is_completely_positive(run.phi, rtol=run.instance.tolerances.psd)
        if not cp.is_cp:
            _extension_check(run, cp)


def _complete_positivity(run: _Run) -> None:
    """One Choi test of phi, recorded as the extension's verdict when phi
    is the contraction extension."""
    run.sys, run.phi, run.T = build_pair(run.instance, degree=run.depth)
    tol = run.instance.tolerances.psd
    cp = is_completely_positive(run.phi, rtol=tol)
    if run.instance.phi_config["kind"] != "from_contractions":
        run.report.at_least("phi.completely_positive", cp.cases, -tol * cp.scale)
        run.extra["min_eigenvalue"] = cp.min_eigenvalue
        return
    _extension_check(run, cp)
    if cp.is_cp:
        run.extra["min_eigenvalue"] = cp.min_eigenvalue
    else:
        run.extra["violations"] = [
            {"atom": str(run.phi.atoms[k]), "min_eigenvalue": m}
            for k, m in cp.violations
        ]


def _nica_defects(run: _Run) -> None:
    max_f = run.flags.get("max_f")
    max_f = DEFAULT_MAX_F if max_f is None else max_f
    if not run.instance.t_mats:
        raise SchemaError("check-nica needs T", "/T")
    sg = build_system(run.instance.system_config).semigroup
    T = ContractionFamily(sg, run.instance.t_mats)
    pool = [p for p in sg.enumerate_up_to(run.depth) if sg.length(p) >= 1]
    depth_at = "/depth" if run.flags.get("depth") is None else "--depth"
    if not pool:
        raise SchemaError(
            f"depth {run.depth} leaves no element to form subsets from", depth_at)
    # counted before any subset is built
    count = sum(math.comb(len(pool), k) for k in range(1, max_f + 1))
    if count > DEFAULT_ENUMERATION_CAP:
        raise SchemaError(
            f"{count:,} subsets of {len(pool)} elements up to size {max_f} "
            f"exceed the cap {DEFAULT_ENUMERATION_CAP:,}",
            "--max-f" if run.flags.get("max_f") is not None else depth_at)
    sizes = range(1, min(max_f, len(pool)) + 1)
    least, top = [], 0.0        # each set's least eigenvalue; the largest |one|
    for d in nica_defects(T, pool, sizes[-1]):
        w = np.linalg.eigvalsh((d + d.conj().transpose(0, 2, 1)) / 2.0)
        least.append(w[:, 0])
        top = np.maximum(top, np.abs(w).max())      # a NaN stays
    scale = max(1.0, float(top))
    # many sets tie exactly (adding a multiple of an element of F leaves the
    # defect unchanged); the witness is the first in (size, combination)
    # order, named by its index there
    psd = run.report.at_least("nica.defects_psd", np.concatenate(least),
                              -run.instance.tolerances.psd * scale)
    combos = (combo for size in sizes for combo in itertools.combinations(pool, size))
    worst_F = [list(f) for f in next(itertools.islice(combos, psd.witness, None))]
    psd.detail = f"{count} subsets; worst F = {worst_F}"
    run.extra.update(subsets_checked=count, worst_F=worst_F)


def _dilate(run: _Run) -> None:
    instance, flags = run.instance, run.flags
    max_dim = flags.get("max_dim")
    result = covariant_dilate(
        run.sys, run.phi, run.T, run.depth, tolerances=instance.tolerances,
        max_dim=DEFAULT_MAX_DIM if max_dim is None else max_dim,
    )
    run.report.checks.extend(result.report.checks)
    out_path = flags.get("output") or instance.path + ".result.npz"
    write_result(out_path, result_payload(result, instance.hash))
    run.extra.update({
        "rank": result.rank,
        "space_size": result.assembly.size,
        "degree": run.depth,
        "gram_min_eigenvalue": float(result.eigenvalues[0]),
        "gram_max_eigenvalue": float(result.eigenvalues[-1]),
        "result_path": out_path,
    })


def _verify(run: _Run) -> None:
    instance = run.instance
    result_path = run.flags.get("result") or instance.path + ".result.npz"
    meta, arrays = load_result(result_path)
    stored = meta.get("instance_hash")
    if stored != instance.hash:
        raise SchemaError(
            "persisted result was produced from a different instance "
            f"(stored hash {str(stored)[:12]}..., "
            f"instance hash {instance.hash[:12]}...)",
            result_path,
        )
    sys_, phi, T = build_pair(instance, degree=stored_degree(meta))
    rep = verify_result(meta, arrays, sys_, phi, T, instance.tolerances)
    run.report.checks.extend(rep.checks)
    run.extra.update(result_path=result_path, rank=meta.get("rank"))


# command -> (default depth, stages).  Every stage appends its checks to the
# run's report; the first stage that leaves a failed check ends the command.
COMMANDS = {
    "validate": (lambda inst: min(inst.degree, 2),
                 (lambda run: _system_checks(run, run.depth),)),
    "check-cp": (lambda inst: inst.degree, (_complete_positivity,)),
    "check-nica": (lambda inst: inst.degree, (_nica_defects,)),
    "dilate": (lambda inst: inst.degree,
               (lambda run: _system_checks(run, 1), _pair, _dilate)),
    "verify": (lambda inst: inst.degree, (_verify,)),
}


def run_command(command: str, instance: Instance, flags: dict) -> dict:
    """Programmatic entry point used by the CLI and tests: run the stages of
    ``command``, turning a non-covariant pair or a non-positive Gram operator
    into a failed check, and report once."""
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}")
    for key, least in (("max_f", 1), ("max_dim", 1), ("depth", 0)):
        value = flags.get(key)
        if value is not None and value < least:
            flag = "--" + key.replace("_", "-")
            raise SchemaError(f"{flag} must be at least {least}, got {value}", flag)
    depth = flags.get("depth")
    if depth is not None and command == "verify":
        raise SchemaError("verify takes the degree of the stored result", "--depth")
    t0 = time.perf_counter()
    default_depth, stages = COMMANDS[command]
    run = _Run(instance, flags, default_depth(instance) if depth is None else depth)
    tol_psd = instance.tolerances.psd
    for stage in stages:
        try:
            stage(run)
        except CovarianceError as exc:
            run.report.at_most("pair.covariant", [(exc.residual, "")], exc.tol,
                               detail=str(exc))
        except GramNotPositiveError as exc:
            run.report.at_least("gram.psd", [(exc.min_eigenvalue, "")],
                                -tol_psd * exc.scale,
                                detail="dilation refused: Gram operator not "
                                       f"positive; {exc.where()}")
        if not run.report.passed:
            break
    checks = [dict(c.as_dict(), wall_ms=None) for c in run.report.checks]
    return make_report(command, instance, checks, run.extra,
                       wall_ms=(time.perf_counter() - t0) * 1e3)


def _job(args):
    command, path, flags = args
    try:
        report = run_command(command, parse_instance(path), flags)
        return path, report, report["exit_code"]
    except (SchemaError, SpecMismatchError, ResourceCapError) as exc:
        return path, {"error": str(exc), "exit_code": 2}, 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcm-dilate",
        description="validate, certify, and dilate covariant contractive pairs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instances=True):
        if with_instances:
            p.add_argument("instances", nargs="+", help="instance JSON file(s)")
        p.add_argument("--depth", type=int, default=None,
                       help="override the instance truncation depth")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--jobs", type=int, default=1,
                       help="run independent instances in parallel")
        p.add_argument("--max-dim", type=int, default=None,
                       help="resource guard on the Gram size "
                            f"(default {DEFAULT_MAX_DIM})")

    common(sub.add_parser("validate", help="structural system checks"))
    common(sub.add_parser("check-cp", help="complete positivity of phi"))
    nica = sub.add_parser("check-nica", help="inclusion-exclusion defects")
    common(nica)
    nica.add_argument("--max-f", type=int, default=None,
                      help="largest subset size to enumerate "
                           f"(default {DEFAULT_MAX_F})")
    dil = sub.add_parser("dilate", help="construct and verify the dilation")
    common(dil)
    dil.add_argument("--output", default=None,
                     help="path for the persisted dilation result, a .npz "
                          "archive (default <instance>.result.npz)")
    ver = sub.add_parser("verify", help="re-verify a persisted dilation")
    common(ver)
    ver.add_argument("--result", default=None,
                     help="persisted result path, a .npz archive written by "
                          "dilate (default <instance>.result.npz)")
    rep = sub.add_parser("report", help="render a persisted report or result")
    rep.add_argument("paths", nargs="+")
    rep.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _report_of(path: str) -> dict:
    """The report ``report`` renders for a file: a persisted report (JSON)
    as it is, or a persisted result (a zip archive) as the report of its
    residual table.  The content decides, not the file name."""
    if not is_result_file(path):
        doc = load_json(path)
        if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT:
            refuse_v1(doc)
            raise SchemaError("expected a report or a persisted result")
        decode_checks(doc.get("checks"), "/checks")
        if type(doc.get("exit_code")) is not int or doc["exit_code"] not in (0, 1, 2):
            raise SchemaError("exit_code must be 0, 1 or 2", "/exit_code")
        return doc
    meta, _ = load_result(path)
    residuals = stored_residuals(meta)
    passed = all(r["passed"] for r in residuals)
    return {
        "command": "result",
        "instance_path": path,
        "instance_hash": meta.get("instance_hash", ""),
        "checks": residuals,
        "passed": passed,
        "exit_code": 0 if passed else 1,
    }


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "report":
        code = 0
        for path in args.paths:
            try:
                doc = _report_of(path)
            except SchemaError as exc:
                print(f"error [{path}]: {exc}", file=_sys.stderr)
                return 2
            _sys.stdout.buffer.write(emit_report(doc, args.format))
            code = max(code, doc["exit_code"])
        return code

    flags = {
        "depth": args.depth,
        "max_dim": args.max_dim,
        "output": getattr(args, "output", None),
        "result": getattr(args, "result", None),
        "max_f": getattr(args, "max_f", None),
    }
    if args.jobs < 1:
        exc = SchemaError(f"--jobs must be at least 1, got {args.jobs}", "--jobs")
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    jobs = [(args.command, path, flags) for path in args.instances]

    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_job, jobs))
    else:
        outcomes = [_job(j) for j in jobs]

    code = 0
    for path, report, rc in outcomes:
        if "error" in report:
            print(f"error [{path}]: {report['error']}", file=_sys.stderr)
        else:
            _sys.stdout.buffer.write(emit_report(report, args.format))
        code = max(code, rc)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
