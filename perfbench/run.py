#!/usr/bin/env python3
"""Time to a verified verdict for lcm_dilate on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload abelian_gram --seed 1 --seconds 15 --trace 0

The harness generates the workload's instance files from ``--seed``, runs
each through the library's command entry points (``parse_instance`` +
``run_command``, one solve at a time in this process), checks every verdict
against ``golden.json`` and the ROADMAP invariants, and prints the metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Other modes:
    --smoke            emit every metric once on tiny passes and check that
                       a wrong golden entry is caught
    --baseline-point   one traced solve of abelian rank 2 at depth 4, with
                       its stage split
    --record-golden S  record golden.json from seeds S (comma separated)

Exit codes: 0 a result was printed, 2 usage error or no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

MODULES = ("cli", "kernel", "dilation", "cpmaps", "systems", "algebras",
           "semigroup", "persist", "serialize")
WORKLOADS = ("abelian_gram", "free_boundary", "matrix_dense", "nica_screen")
# Instances per pass, the workload's mix of instance kinds.  Measurement
# runs at least one whole pass, and the traced counts come from the first.
PASS_SIZE = {"abelian_gram": 4, "free_boundary": 4, "matrix_dense": 4,
             "nica_screen": 4}
SMOKE_PASS_SIZE = {"abelian_gram": 1, "free_boundary": 1, "matrix_dense": 2,
                   "nica_screen": 1}
SETUP_REPS = 3
# verify is tens of milliseconds on the dilate workloads, so each persisted
# result is verified this many times for a steadier median.
VERIFY_REPS = 3
# Commands whose seconds make up one solve, and the checking command timed
# as verify_s.
SOLVE_STEPS = {"dilate": ("dilate",), "screen": ("check-cp", "check-nica")}
VERIFY_STEP = {"dilate": "verify", "screen": "check-nica"}

E2E_UNITS = {"solve_s_p50": "s", "solve_s_tail": "s", "verify_s_p50": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


# One BLAS thread.  On a shared two-core machine, two threads made the
# dense steps faster but widened the run-to-run spread of verify several
# times over.
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    """BLAS reads these once, when numpy first loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


class ProgramMissing(RuntimeError):
    pass


def import_program() -> dict:
    """(Re-)import lcm_dilate from the checkout's ``src``.

    Earlier imports are dropped first, so every call pays the package's own
    import cost (numpy stays loaded after the first)."""
    if not os.path.isfile(os.path.join(SRC, "lcm_dilate", "__init__.py")):
        raise ProgramMissing(f"no lcm_dilate package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "lcm_dilate" or m.startswith("lcm_dilate.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module("lcm_dilate." + n) for n in MODULES}
    if os.path.dirname(os.path.dirname(mods["cli"].__file__)) != SRC:
        raise ProgramMissing("lcm_dilate was imported from outside the checkout")
    return mods


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


@contextlib.contextmanager
def scratch(prefix: str):
    """A temporary directory inside the checkout, removed on exit."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


# ---------------------------------------------------------------------------
# one solve
# ---------------------------------------------------------------------------


def run_chain(cli, inst, result_dir: str, verify_reps: int = 1) -> list[dict]:
    """Run one instance through its command chain, parsing the file anew for
    every command as the command line does.  A failing ``dilate`` ends the
    chain, since it persists nothing to verify.  ``verify`` only reads the
    persisted result, so it may run ``verify_reps`` times, each its own
    step."""
    result_path = os.path.join(
        result_dir, os.path.basename(inst.path) + ".result.json")
    steps = []
    for cmd in inst.chain:
        flags = dict(inst.flags.get(cmd, {}))
        flags.update(output=result_path, result=result_path)
        for _ in range(verify_reps if cmd == "verify" else 1):
            gc.collect()        # start every command from the same heap state
            t0 = time.perf_counter()
            try:
                report = cli.run_command(cmd, cli.parse_instance(inst.path),
                                         flags)
                error = None
            except Exception:           # noqa: BLE001 - any escape is a failure
                report, error = None, traceback.format_exc(limit=4)
            seconds = time.perf_counter() - t0
            step = {"command": cmd, "seconds": seconds, "error": error}
            step.update(outcome(report))
            if cmd == "dilate" and step["exit_code"] == 0:
                step["result_bytes"] = os.path.getsize(result_path)
            steps.append(step)
        if cmd == "dilate" and step["exit_code"] != 0:
            break
    return steps


def outcome(report) -> dict:
    """The fields the golden record fixes for one command."""
    if report is None:
        return {"exit_code": None, "first_failure": None, "rank": None,
                "gram_dim": None}
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    extra = report.get("extra", {})
    return {
        "exit_code": report["exit_code"],
        "first_failure": failing[0] if failing else None,
        "rank": extra.get("rank"),
        "gram_dim": extra.get("space_size"),
    }


GOLDEN_FIELDS = ("exit_code", "first_failure", "rank", "gram_dim")


def mismatches(kind: str, steps: list[dict], golden: dict) -> list[str]:
    """Every way the solve differs from its golden record and invariants."""
    from workloads import invariant_rank

    expected = golden.get(kind)
    if expected is None:
        return [f"no golden record for {kind}"]
    out = [f"{s['command']}: {s['error'].strip().splitlines()[-1]}"
           for s in steps if s["error"]]
    if {s["command"] for s in steps} != set(expected):
        out.append(f"ran {[s['command'] for s in steps]}, golden {list(expected)}")
    for s in steps:
        want = expected.get(s["command"], {})
        for f in GOLDEN_FIELDS:
            if f in want and s[f] != want[f]:
                out.append(f"{s['command']}.{f} = {s[f]!r}, golden {want[f]!r}")
    rank = invariant_rank(kind)
    if rank is not None:
        got = [s["rank"] for s in steps if s["command"] == "dilate"]
        if got != [rank]:
            out.append(f"dilate rank {got}, invariant {rank}")
    return out


def solve(mods, inst, result_dir, golden, rec=None) -> dict:
    """One solve; traced, with a single verify, when ``rec`` is given."""
    import trace

    if rec is not None:
        trace.install(rec, mods)
    try:
        steps = run_chain(mods["cli"], inst, result_dir,
                          VERIFY_REPS if rec is None else 1)
    finally:
        if rec is not None:
            rec.uninstall()
    sort = "dilate" if "dilate" in inst.chain else "screen"
    return {
        "kind": inst.kind,
        "steps": steps,
        "solve_s": sum(s["seconds"] for s in steps
                       if s["command"] in SOLVE_STEPS[sort]),
        "verify_s": [s["seconds"] for s in steps
                     if s["command"] == VERIFY_STEP[sort]],
        "problems": mismatches(inst.kind, steps, golden),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it.  With ten samples or fewer none has, and
    the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 golden: dict, pass_size: dict = PASS_SIZE,
                 setup_reps: int = SETUP_REPS, log=print) -> dict:
    import workloads

    with scratch(f"{workload}-") as work:
        # set-up: import, instance generation and a discarded warm-up solve,
        # repeated; the median is reported
        setup_times = []
        for r in range(setup_reps):
            t0 = time.perf_counter()
            mods = import_program()
            rep_dir = os.path.join(work, f"setup{r}")
            os.makedirs(rep_dir)
            instances = workloads.generate(workload, seed, rep_dir,
                                           pass_size[workload])
            solve(mods, instances[0], rep_dir, golden)
            setup_times.append(time.perf_counter() - t0)
        result_dir = os.path.join(work, "results")
        os.makedirs(result_dir)

        rec = None
        if traced:
            import trace

            rec = trace.Recorder()
        # cycle through the instances until the time is up, after at least
        # one whole pass; a traced run follows each solve by a traced one
        plain, traced_solves = [], []
        t_start = time.perf_counter()
        while (len(plain) < len(instances)
               or time.perf_counter() - t_start < seconds):
            inst = instances[len(plain) % len(instances)]
            plain.append(solve(mods, inst, result_dir, golden))
            if rec is not None:
                rec.solve = len(traced_solves)
                s = solve(mods, inst, result_dir, golden, rec)
                s["trace_id"] = rec.solve
                traced_solves.append(s)
        measured_s = time.perf_counter() - t_start
        first_pass = traced_solves[:len(instances)]

    every = plain + traced_solves
    failed = [s for s in every if s["problems"]]
    for s in failed[:5]:
        log(f"FAILED {s['kind']}: {'; '.join(s['problems'])}", file=sys.stderr)

    solve_s = [s["solve_s"] for s in plain]
    verify_s = [v for s in plain for v in s["verify_s"]]
    tail_v, tail_pct, beyond = tail(solve_s)
    e2e = {
        "solve_s_p50": statistics.median(solve_s),
        "solve_s_tail": tail_v,
        "verify_s_p50": statistics.median(verify_s) if verify_s else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "workload": workload, "seed": seed,
        "measured_s": measured_s, "solves": len(plain),
        "verify_samples": len(verify_s),
        "solve_s": solve_s, "verify_s": verify_s,
        "solve_s_tail_percentile": tail_pct, "solve_s_tail_beyond": beyond,
        "setup_s_reps": setup_times,
        "failed_frac": len(failed) / len(every),
        "kinds": sorted({s["kind"] for s in every}),
    }
    out = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "e2e": e2e,
        "info": info,
    }
    if rec is not None:
        out["layers"], out["shares"] = per_layer(rec, first_pass,
                                                     traced_solves, plain)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

# metric -> (kind of reduction, span or counter name)
LAYER_TIMES = {
    "kernel.assemble_s": ("incl", "kernel.assemble"),
    "kernel.assemble_self_s": ("self", "kernel.assemble"),
    "kernel.evaluate_s": ("incl", "kernel.evaluate"),
    "kernel.covariance_s": ("incl", "kernel.covariance"),
    "systems.corner_basis_s": ("incl", "systems.corner_basis"),
    "systems.validate_s": ("incl", "systems.validate"),
    "dilation.naimark_self_s": ("self", "dilation.naimark"),
    "dilation.covariant_self_s": ("self", "dilation.covariant"),
    "dilation.pi_s": ("incl", "dilation.pi"),
    "dilation.v_word_s": ("incl", "dilation.v_word"),
    "cpmaps.nica_defect_s": ("incl", "cpmaps.nica_defect"),
    "cpmaps.lift_s": ("incl", "cpmaps.lift"),
    "cpmaps.cp_test_s": ("incl", "cpmaps.cp_test"),
    "persist.payload_s": ("incl", "persist.payload"),
    "persist.verify_s": ("incl", "persist.verify"),
    "serialize.load_json_s": ("incl", "serialize.load_json"),
    "cli.parse_s": ("incl", "cli.parse"),
    "cli.report_s": ("incl", "cli.report"),
}
LAYER_CALLS = {
    "kernel.evaluate_calls": ("calls", "kernel.evaluate"),
    "systems.corner_basis_calls": ("calls", "systems.corner_basis"),
    "dilation.pi_calls": ("calls", "dilation.pi"),
    "dilation.v_word_calls": ("calls", "dilation.v_word"),
    "cpmaps.nica_defect_calls": ("calls", "cpmaps.nica_defect"),
    "algebras.mul_calls": ("counts", "algebras.mul"),
    "algebras.refine_calls": ("counts", "algebras.refine"),
    "algebras.vec_calls": ("counts", "algebras.vec"),
    "cpmaps.word_eval_calls": ("counts", "cpmaps.word_eval"),
    "semigroup.lcm_calls": ("counts", "semigroup.lcm"),
}
LAYER_SIZES = {"kernel.gram_dim": "rows", "dilation.rank": "dims",
               "persist.result_bytes": "bytes"}
LAYER_RATIOS = ("kernel.nonzero_block_ratio", "systems.corner_hit_ratio",
                "dilation.pi_hit_ratio", "cpmaps.word_eval_unique_ratio")
TRACE_OVERHEAD = "trace.overhead_ratio"


def layer_units() -> dict:
    units = {m: "s" for m in LAYER_TIMES}
    units.update({m: "count" for m in LAYER_CALLS})
    units.update(LAYER_SIZES)
    units.update({m: "ratio" for m in LAYER_RATIOS})
    units[TRACE_OVERHEAD] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec, first_pass, traced_solves, plain) -> tuple[dict, dict]:
    """Times are medians per traced solve; counts, sizes and ratios come
    from the first traced pass, a fixed set of instances, so they repeat
    exactly for a seed."""
    summaries = {s["trace_id"]: rec.solve_summary(s["trace_id"])
                 for s in traced_solves}
    out = {}
    for metric, (how, name) in LAYER_TIMES.items():
        out[metric] = statistics.median(summaries[s["trace_id"]][how][name]
                                        for s in traced_solves)
    first = [summaries[s["trace_id"]] for s in first_pass]
    for metric, (how, name) in LAYER_CALLS.items():
        out[metric] = sum(sm[how][name] for sm in first)

    def sizes(name):
        return [v for v in (sm["values"].get(name) for sm in first)
                if v is not None]

    bytes_ = [st["result_bytes"] for s in first_pass for st in s["steps"]
              if "result_bytes" in st]
    for metric, vals in (("kernel.gram_dim", sizes("kernel.gram_dim")),
                         ("dilation.rank", sizes("dilation.rank")),
                         ("persist.result_bytes", bytes_)):
        out[metric] = statistics.median(vals) if vals else 0

    assembled = sum(sm["children"]["kernel.assemble"]["kernel.evaluate"]
                    for sm in first)
    out["kernel.nonzero_block_ratio"] = _ratio(
        sum(sm["values"].get("kernel.nonzero_blocks", 0) for sm in first),
        assembled)
    corner_calls = sum(sm["counts"]["systems.corner_key"] for sm in first)
    out["systems.corner_hit_ratio"] = 1.0 - _ratio(
        sum(sm["distinct"].get("systems.corner_key", 0) for sm in first),
        corner_calls) if corner_calls else 0.0
    out["dilation.pi_hit_ratio"] = _ratio(
        sum(sm["counts"]["dilation.pi_hit"] for sm in first),
        out["dilation.pi_calls"])
    out["cpmaps.word_eval_unique_ratio"] = _ratio(
        sum(sm["distinct"].get("cpmaps.word_eval", 0) for sm in first),
        out["cpmaps.word_eval_calls"])
    out[TRACE_OVERHEAD] = (
        statistics.median(s["solve_s"] for s in traced_solves)
        / statistics.median(s["solve_s"] for s in plain))

    # shares of the traced chain time: each span name's self time, and each
    # per-layer time metric
    chain_s = statistics.median(sum(st["seconds"] for st in s["steps"])
                                for s in traced_solves)
    names = sorted({n for sm in summaries.values() for n in sm["self"]})
    shares = {
        "traced_chain_s_p50": chain_s,
        "span_self_share": {
            n: statistics.median(summaries[s["trace_id"]]["self"][n]
                                 for s in traced_solves) / chain_s
            for n in names},
        "metric_share": {m: out[m] / chain_s for m in LAYER_TIMES},
    }
    return out, shares


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["records"]


def result_line(res: dict, traced: bool) -> dict:
    if traced:
        units = layer_units()
        metrics = {m: {"value": res["layers"][m], "unit": units[m]}
                   for m in units}
    else:
        metrics = {m: {"value": res["e2e"][m], "unit": u}
                   for m, u in E2E_UNITS.items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def print_human(res: dict, env: dict) -> None:
    info = res["info"]
    print(f"# {info['workload']} seed={info['seed']}  solves={info['solves']}"
          f"  measured={info['measured_s']:.2f} s")
    print("# environment " + json.dumps(env, sort_keys=True))
    for m, v in res["e2e"].items():
        print(f"{m:<24} {v:12.6f} {E2E_UNITS[m]}")
    print(f"{'failed_frac':<24} {info['failed_frac']:12.6f} ratio"
          f"  ({res['failed']} of {res['attempted']})")
    print(f"# solve_s_tail is p{info['solve_s_tail_percentile']:.1f} of "
          f"{info['solves']} samples, {info['solve_s_tail_beyond']} beyond it;"
          f" verify_s_p50 from {info['verify_samples']} samples")
    print("# solve_s samples " + " ".join(f"{x:.4f}" for x in info["solve_s"]))
    print("# verify_s samples " + " ".join(f"{x:.4f}" for x in info["verify_s"]))
    if "layers" in res:
        units = layer_units()
        for m, v in res["layers"].items():
            print(f"{m:<32} {v:14.6f} {units[m]}")
        print("# self time share of the traced chain, by span")
        shares = res["shares"]["span_self_share"]
        for n, share in sorted(shares.items(), key=lambda x: -x[1]):
            print(f"#   {n:<28} {100 * share:6.2f} %")
    detail = {"environment": env, "info": info, "e2e": res["e2e"],
              "shares": res.get("shares")}
    print("# detail " + json.dumps(detail, sort_keys=True))


def smoke(seed: int) -> int:
    """Every metric named in BENCHMARK.json is emitted with its unit on every
    workload, and a wrong golden entry shows up as a failure."""
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    want = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    golden = load_golden()
    problems = []
    for wl in WORKLOADS:
        for tr in ("0", "1"):
            res = run_workload(wl, seed, 0.0, tr == "1", golden,
                               pass_size=SMOKE_PASS_SIZE, setup_reps=1,
                               log=lambda *a, **k: None)
            line = result_line(res, tr == "1")
            got = {m: v["unit"] for m, v in line["metrics"].items()}
            if got != want[tr]:
                problems.append(f"{wl} trace {tr}: metrics {got} != {want[tr]}")
            if line["failed"] or not line["correct"] or line["attempted"] < 1:
                problems.append(f"{wl} trace {tr}: failed {line['failed']}")
            print(f"smoke {wl} trace {tr}: {len(got)} metrics, "
                  f"{line['attempted']} solves")
    wrong = json.loads(json.dumps(golden))
    wrong["nica_screen/abelian"]["check-cp"]["exit_code"] = 1
    res = run_workload("nica_screen", seed, 0.0, False, wrong,
                       pass_size=SMOKE_PASS_SIZE, setup_reps=1,
                       log=lambda *a, **k: None)
    if not res["info"]["failed_frac"] > 0 or res["correct"]:
        problems.append("a wrong golden entry went unnoticed")
    for p in problems:
        print("SMOKE FAILED: " + p, file=sys.stderr)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def baseline_point(seed: int) -> int:
    """One traced solve of abelian rank 2 at depth 4 (Gram 450, rank 50),
    after one untraced warm-up at depth 3."""
    import numpy as np
    import trace
    import workloads

    golden = load_golden()
    mods = import_program()
    with scratch("baseline-") as work:
        rng = np.random.default_rng(seed)
        warm = workloads.gen_abelian_gram(rng, work, 1)[0]
        solve(mods, warm, work, golden)
        inst = workloads.gen_abelian_gram(rng, work, 1, depth=4)[0]
        inst.chain = ("dilate",)
        rec = trace.Recorder()
        rec.solve = 0
        trace.install(rec, mods)
        try:
            steps = run_chain(mods["cli"], inst, work)
        finally:
            rec.uninstall()
    sm = rec.solve_summary(0)
    doc = {
        "instance": "abelian rank 2, toeplitz_abelian, scalar base, h = 2, depth 4",
        "seed": seed,
        "dilate": steps[0],
        "covariant_dilate_s": sm["incl"]["dilation.covariant"],
        "assemble_gram_s": sm["incl"]["kernel.assemble"],
        "gram_dim": sm["values"].get("kernel.gram_dim"),
        "rank": sm["values"].get("dilation.rank"),
        "spans": {n: {"incl_s": sm["incl"][n], "self_s": sm["self"][n],
                      "calls": sm["calls"][n]} for n in sorted(sm["calls"])},
        "counts": dict(sm["counts"]),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))
    ok = (doc["gram_dim"] == 450 and steps[0]["exit_code"] == 0
          and doc["rank"] == workloads.invariant_rank("abelian_gram", depth=4))
    return 0 if ok else 1


def record_golden(seeds: list[int]) -> int:
    """Run every workload's pass on each seed and keep, per instance kind,
    the one outcome all its instances share."""
    import workloads

    records: dict = {}
    conflicts = []
    mods = import_program()
    with scratch("golden-") as work:
        for seed in seeds:
            for wl in WORKLOADS:
                d = os.path.join(work, f"{wl}-{seed}")
                os.makedirs(d)
                for inst in workloads.generate(wl, seed, d, PASS_SIZE[wl]):
                    steps = run_chain(mods["cli"], inst, d)
                    rec = {s["command"]: {f: s[f] for f in GOLDEN_FIELDS}
                           for s in steps}
                    errors = [s["error"] for s in steps if s["error"]]
                    if errors:
                        conflicts.append(f"{inst.kind} seed {seed}: {errors[0]}")
                    if records.setdefault(inst.kind, rec) != rec:
                        conflicts.append(f"{inst.kind} seed {seed}: {rec}")
                    print(f"{wl} seed {seed} {inst.kind}: {rec}", flush=True)
    for c in conflicts:
        print("CONFLICT " + c, file=sys.stderr)
    if conflicts:
        return 1
    for kind, rec in records.items():
        rank = workloads.invariant_rank(kind)
        if rank is not None and rec["dilate"]["rank"] != rank:
            print(f"{kind}: rank {rec['dilate']['rank']} breaks invariant {rank}",
                  file=sys.stderr)
            return 1
    with open(GOLDEN, "w") as fh:
        json.dump({"seeds": seeds, "records": records}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--baseline-point", action="store_true")
    parser.add_argument("--record-golden", metavar="SEEDS")
    args = parser.parse_args(argv)

    _pin_blas_threads()
    sys.path.insert(0, HERE)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.baseline_point:
        return baseline_point(args.seed)
    if args.record_golden:
        return record_golden([int(s) for s in args.record_golden.split(",")])
    if args.workload is None:
        parser.error("--workload is required")

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       load_golden())
    print_human(res, environment())
    print(json.dumps(result_line(res, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
