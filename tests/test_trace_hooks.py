"""The per-layer tracer of perfbench wraps library names from outside.

``perfbench/trace.py`` patches functions and methods by name and reads
``GramAssembly.gram``; renaming one of them breaks traced benchmark runs.
This runs the tracer, unedited, around ``dilate`` and ``verify`` so such a
rename fails here.
"""

import importlib

from conftest import load_perfbench
from lcm_dilate.cli import parse_instance, run_command

MODULES = ("cli", "kernel", "dilation", "cpmaps", "systems", "algebras",
           "semigroup", "persist", "serialize")


def test_tracer_wraps_dilate_and_verify(fixtures_dir, tmp_path):
    trace = load_perfbench("trace")
    mods = {n: importlib.import_module("lcm_dilate." + n) for n in MODULES}
    originals = (mods["kernel"].assemble_gram, mods["dilation"].naimark_dilate,
                 mods["dilation"].DilationResult.pi)
    rec = trace.Recorder()
    rec.solve = 0
    trace.install(rec, mods)
    try:
        instance = parse_instance(str(fixtures_dir / "cuntz_m2.json"))
        flags = {"output": str(tmp_path / "r.json"),
                 "result": str(tmp_path / "r.json")}
        codes = [run_command(cmd, instance, flags)["exit_code"]
                 for cmd in ("dilate", "verify")]
    finally:
        rec.uninstall()
    assert codes == [0, 0]
    summary = rec.solve_summary(0)
    assert summary["values"]["kernel.gram_dim"] == 256
    assert summary["values"]["dilation.rank"] > 0
    for span in ("kernel.assemble", "kernel.evaluate", "dilation.naimark",
                 "dilation.pi", "dilation.v_word", "persist.verify"):
        assert summary["calls"][span] >= 1, span
    assert (mods["kernel"].assemble_gram, mods["dilation"].naimark_dilate,
            mods["dilation"].DilationResult.pi) == originals
