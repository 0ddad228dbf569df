#!/usr/bin/env python3
"""Print a canonical digest of every command's output, one JSON line per
(instance, command), to compare two versions of the program.

The instances are the bundled fixtures and one pass of seeds 1 and 2 of the
four perfbench workloads, written by ``perfbench/workloads.py`` into a
temporary directory.  Every
command runs on every instance, ``verify`` on the result ``dilate`` just
persisted.  A line holds the exit code, each check's (name, passed, value,
detail) and the sha256 of the persisted result, and no path, so comparing
two checkouts is one ``diff``:

    python3 scripts/output_digest.py > a.txt    # in the first checkout
    python3 scripts/output_digest.py > b.txt    # in the second
    diff a.txt b.txt

A change that only moves values by rounding compares with a tolerance:

    python3 scripts/output_digest.py --compare a.txt b.txt --tol 1e-12

checks that both digests have the same lines and that each pair has equal
exit codes, errors, check names, ``passed`` and details, and values within
the tolerance (relative above 1, absolute below); it lists every line whose
result hash moved and, for each check whose value moved at all, the
largest gap and the number of lines where it moved, and exits 1 on any
other difference.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lcm_dilate.cli import parse_instance, run_command  # noqa: E402
from lcm_dilate.errors import (  # noqa: E402
    ResourceCapError,
    SchemaError,
    SpecMismatchError,
)

COMMANDS = ("validate", "check-cp", "check-nica", "dilate", "verify")
SEEDS = (1, 2)
PASS_SIZE = 4       # instances per workload and seed, one perfbench pass


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def instances(tmp: str) -> list[tuple[str, str, dict]]:
    """(label, path, per-command flags) of the default instances."""
    out = [(f"fixtures/{p.name}", str(p), {})
           for p in sorted((ROOT / "fixtures").glob("*.json"))]
    workloads = _workloads()
    for name in sorted(workloads.GENERATORS):
        for seed in SEEDS:
            directory = os.path.join(tmp, name, str(seed))
            os.makedirs(directory)
            for inst in workloads.generate(name, seed, directory, PASS_SIZE):
                label = f"{name}/{seed}/{os.path.basename(inst.path)}"
                out.append((label, inst.path, inst.flags))
    return out


def digest(label: str, path: str, command: str, flags: dict, tmp: str) -> dict:
    """One line: the command's outcome on the instance at ``path``."""
    result = os.path.join(tmp, label.replace("/", "__") + ".result.npz")
    flags = dict(flags.get(command, {}), output=result, result=result)
    line = {"instance": label, "command": command}
    try:
        report = run_command(command, parse_instance(path), flags)
    except (SchemaError, SpecMismatchError, ResourceCapError) as exc:
        message = str(exc).replace(tmp, "<tmp>").replace(str(ROOT), "<root>")
        line.update(exit_code=2, error=message)
        return line
    line["exit_code"] = report["exit_code"]
    line["checks"] = [[c["name"], c["passed"], c["value"], c["detail"]]
                      for c in report["checks"]]
    if command == "dilate" and os.path.exists(result):
        with open(result, "rb") as fh:
            line["result_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return line


def _gap(u, v) -> float:
    """How far two check values are apart: relative above 1, absolute
    below; 0 for two nulls or two NaNs, inf for a null against a number."""
    if u is None or v is None:
        return 0.0 if u is v else math.inf
    if math.isnan(u) or math.isnan(v):
        return 0.0 if math.isnan(u) and math.isnan(v) else math.inf
    return abs(u - v) / max(1.0, abs(u), abs(v))


def compare(path_a: str, path_b: str, tol: float) -> int:
    """Print every difference between two digests beyond ``tol`` and every
    moved result hash; 1 when there is a difference, else 0."""
    lines = []
    for path in (path_a, path_b):
        with open(path) as fh:
            lines.append([json.loads(line) for line in fh if line.strip()])
    a, b = lines
    diffs, moved, worst = [], [], 0.0
    by_check = {}       # name -> [largest value gap, lines where it moved]
    if len(a) != len(b):
        diffs.append(f"{len(a)} lines against {len(b)}")
    for n, (x, y) in enumerate(zip(a, b), start=1):
        where = f"line {n} ({x.get('instance')} {x.get('command')})"
        for key in ("instance", "command", "exit_code", "error"):
            if x.get(key) != y.get(key):
                diffs.append(f"{where}: {key} {x.get(key)!r} against {y.get(key)!r}")
        cx, cy = x.get("checks", []), y.get("checks", [])
        if [(c[0], c[1], c[3]) for c in cx] != [(c[0], c[1], c[3]) for c in cy]:
            diffs.append(f"{where}: check names, passed or details differ")
        else:
            for (name, _, u, _), (_, _, v, _) in zip(cx, cy):
                gap = _gap(u, v)
                worst = max(worst, gap)
                if not gap <= tol:
                    diffs.append(f"{where}: {name} value {u!r} against {v!r}")
                if gap > 0:
                    seen = by_check.setdefault(name, [0.0, 0])
                    seen[0], seen[1] = max(seen[0], gap), seen[1] + 1
        if x.get("result_sha256") != y.get("result_sha256"):
            moved.append(where)
    for line in diffs:
        print("DIFF", line)
    for line in moved:
        print("MOVED", line)
    for name, (gap, count) in sorted(by_check.items()):
        print(f"CHECK {name}: largest value gap {gap:.3g} on {count} lines")
    print(f"{len(a)} lines; {len(diffs)} differences beyond tol {tol:g}; "
          f"largest value gap {worst:.3g}; {len(moved)} result hashes moved")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digests instead of printing one")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest value gap --compare accepts")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    with tempfile.TemporaryDirectory(prefix="lcm-digest-") as tmp:
        for label, path, flags in instances(tmp):
            for command in COMMANDS:
                print(json.dumps(digest(label, path, command, flags, tmp),
                                 sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
