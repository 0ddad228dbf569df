#!/usr/bin/env python3
"""Run the full command pipeline over every bundled fixture and print a
verdict table; every passing ``dilate`` is followed by ``verify`` of the
result it persisted.  Exit code is nonzero when any fixture deviates from its
documented verdict or a persisted result fails to verify."""

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lcm_dilate.cli import parse_instance, run_command  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# (fixture, command, expected exit code)
PLAN = [
    ("sznagy_half.json", "validate", 0),
    ("sznagy_half.json", "check-cp", 0),
    ("sznagy_half.json", "check-nica", 0),
    ("sznagy_half.json", "dilate", 0),
    ("cuntz_m2.json", "validate", 0),
    ("cuntz_m2.json", "check-cp", 0),
    ("cuntz_m2.json", "dilate", 0),
    ("commuting_unitaries.json", "dilate", 0),
    ("transpose_m2.json", "check-cp", 1),
    ("transpose_m2.json", "dilate", 1),
    ("nica_nilpotent.json", "check-nica", 1),
    ("nica_nilpotent.json", "dilate", 1),
    ("uhf_stage_m2.json", "validate", 1),
    ("uhf_stage_m2.json", "dilate", 1),
]


def check(name: str, command: str, expected: int, tmp: str) -> tuple[bool, str]:
    """Run one plan row in the scratch directory ``tmp``: whether it gave the
    expected exit code (and, for a passing ``dilate``, whether its persisted
    result verifies), and the table line."""
    result = f"{tmp}/{name}.{command}.result.npz"
    flags = {"output": result, "result": result}
    report = run_command(command, parse_instance(str(FIXTURES / name)), flags)
    got = report["exit_code"]
    ok = got == expected
    extra = ""
    if command == "dilate" and got == 0:
        verified = run_command("verify", parse_instance(str(FIXTURES / name)),
                               flags)
        ok = ok and verified["exit_code"] == 0
        extra = (f"rank {report['extra']['rank']}/"
                 f"{report['extra']['space_size']}, "
                 f"verify exit {verified['exit_code']}")
    return ok, (f"{'ok ' if ok else 'BAD'}  {name:28s} {command:11s} "
                f"exit {got} (want {expected})  {extra}")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="lcm-dilate-") as tmp:
        for name, command, expected in PLAN:
            ok, line = check(name, command, expected, tmp)
            bad += 0 if ok else 1
            print(line)
    print(f"\n{len(PLAN) - bad}/{len(PLAN)} fixture verdicts reproduced")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
