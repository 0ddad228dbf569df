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
"""

import hashlib
import importlib.util
import json
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lcm-digest-") as tmp:
        for label, path, flags in instances(tmp):
            for command in COMMANDS:
                print(json.dumps(digest(label, path, command, flags, tmp),
                                 sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
