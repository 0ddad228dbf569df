#!/usr/bin/env python3
"""Time two checkouts of lcm_dilate against each other in one process.

    python3 scripts/paired_ab.py PARENT CHANGE [--workload W] [--reps N] [--depth D]

Each checkout's ``src/lcm_dilate`` is copied under its own package name
(``lcm_dilate_parent``, ``lcm_dilate_change``) and imported side by side, so
both run on the same interpreter, heap and machine state.  The workload's
instances are generated by the parent's ``perfbench/workloads.py``, one
perfbench pass of four instances from seed 1.  Both sides first run every
instance once, untimed.  Then each of ``--reps`` rounds runs every
instance's command chain on both sides, one solve at a time, the side that
goes first alternating per instance; every command is timed on its own
(parse plus ``run_command``, as ``perfbench/run.py`` times it).

``--depth D`` runs every ``dilate`` at depth D instead of the instance's
own, with the Gram size cap (``max_dim``) lifted so that any depth fits;
``verify`` keeps the degree of the result it reads.  Commands other than
``dilate`` run as the workload states them, so on a workload without
``dilate`` the flag changes nothing.

Printed per command: the median seconds of each side, the median and
quartiles of the paired ratio change/parent, and how many pairs the change
won.  A ratio below 1 means the change is faster.  A last line ``solve``
does the same for the summed seconds of the commands ``perfbench/run.py``
counts as one solve (its ``SOLVE_STEPS``, read from the parent: ``dilate``
on a chain that dilates, else ``check-cp`` + ``check-nica``), the sum whose
median is perfbench's ``solve_s_p50``.  On workloads that
dilate, the median size in bytes of each side's persisted results follows.
Pairs whose exit codes differ are counted and make the exit code 1.
"""

import argparse
import gc
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

# one BLAS thread, as perfbench/run.py pins it; read when numpy first loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SIDES = ("parent", "change")
SEED, COUNT = 1, 4


def load_side(checkout: str, name: str, root: str):
    """The checkout's ``lcm_dilate.cli`` imported as ``lcm_dilate_<name>``."""
    src = os.path.join(checkout, "src", "lcm_dilate")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise SystemExit(f"no lcm_dilate package under {checkout}/src")
    shutil.copytree(src, os.path.join(root, f"lcm_dilate_{name}"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"lcm_dilate_{name}.cli")


def load_perfbench(checkout: str, name: str):
    """The checkout's ``perfbench/<name>.py``, imported as ``paired_ab_<name>``."""
    path = os.path.join(checkout, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"paired_ab_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_chain(cli, inst, result_path: str, depth=None) -> list:
    """(command, seconds, exit code) per command of the instance's chain,
    ``dilate`` at ``depth`` unless it is None; a failing ``dilate`` ends
    the chain, as it persists nothing to verify."""
    out = []
    for cmd in inst.chain:
        flags = dict(inst.flags.get(cmd, {}), output=result_path,
                     result=result_path)
        if cmd == "dilate" and depth is not None:
            flags.update(depth=depth, max_dim=sys.maxsize)
        gc.collect()
        t0 = time.perf_counter()
        code = cli.run_command(cmd, cli.parse_instance(inst.path), flags)["exit_code"]
        out.append((cmd, time.perf_counter() - t0, code))
        if cmd == "dilate" and code != 0:
            break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the first checkout")
    ap.add_argument("change", help="root of the second checkout")
    ap.add_argument("--workload", default="abelian_gram")
    ap.add_argument("--reps", type=int, default=30,
                    help="timed rounds over the instances (default 30)")
    ap.add_argument("--depth", type=int, default=None,
                    help="run dilate at this depth, max_dim lifted "
                         "(default: each instance's own)")
    args = ap.parse_args(argv)
    if args.reps < 2:
        ap.error("--reps must be at least 2")
    if args.depth is not None and args.depth < 0:
        ap.error("--depth must be at least 0")

    with tempfile.TemporaryDirectory(prefix="paired_ab-") as tmp:
        pkgs, data = os.path.join(tmp, "pkgs"), os.path.join(tmp, "data")
        os.makedirs(pkgs)
        os.makedirs(data)
        sys.path.insert(0, pkgs)
        clis = {side: load_side(path, side, pkgs)
                for side, path in zip(SIDES, (args.parent, args.change))}
        workloads = load_perfbench(args.parent, "workloads")
        solve_steps = load_perfbench(args.parent, "run").SOLVE_STEPS
        if args.workload not in workloads.GENERATORS:
            ap.error(f"unknown workload {args.workload!r}; the known ones are "
                     f"{', '.join(sorted(workloads.GENERATORS))}")
        insts = workloads.generate(args.workload, SEED, data, COUNT)
        results = {side: [os.path.join(tmp, f"{side}_{k}.result.npz")
                          for k in range(len(insts))] for side in SIDES}

        for side in SIDES:                                  # warm both
            for inst, path in zip(insts, results[side]):
                run_chain(clis[side], inst, path, args.depth)

        seconds = {}            # command -> side -> [seconds], paired by index
        seconds_solve = {side: [] for side in SIDES}
        sizes = {side: [] for side in SIDES}    # bytes of each persisted result
        disagreements = 0
        for rep in range(args.reps):
            for k, inst in enumerate(insts):
                order = SIDES if (rep + k) % 2 == 0 else SIDES[::-1]
                steps = {side: run_chain(clis[side], inst, results[side][k], args.depth)
                         for side in order}
                if [c for _, _, c in steps["parent"]] != \
                        [c for _, _, c in steps["change"]]:
                    disagreements += 1
                    continue
                solve = solve_steps["dilate" if "dilate" in inst.chain else "screen"]
                for side in SIDES:
                    seconds_solve[side].append(
                        sum(s for cmd, s, _ in steps[side] if cmd in solve))
                    for cmd, s, code in steps[side]:
                        seconds.setdefault(cmd, {p: [] for p in SIDES})[side].append(s)
                        if cmd == "dilate" and code == 0:
                            sizes[side].append(os.path.getsize(results[side][k]))

    at = "" if args.depth is None else f", dilate at depth {args.depth}"
    print(f"# {args.workload} seed {SEED}: {len(insts)} instances x "
          f"{args.reps} rounds{at}, change / parent")
    print(f"{'command':<12}{'parent p50':>12}{'change p50':>12}"
          f"{'ratio p50':>11}{'ratio IQR':>20}{'change won':>13}")
    for cmd, by_side in [*seconds.items(), ("solve", seconds_solve)]:
        a, b = by_side["parent"], by_side["change"]
        ratios = [y / x for x, y in zip(a, b)]
        q1, q2, q3 = statistics.quantiles(ratios, n=4)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{cmd:<12}{statistics.median(a):>12.4f}{statistics.median(b):>12.4f}"
              f"{q2:>11.3f}{f'[{q1:.3f}, {q3:.3f}]':>20}"
              f"{f'{wins}/{len(ratios)}':>13}")
    if sizes["parent"]:
        print(f"# result bytes p50: parent {statistics.median(sizes['parent']):,.0f}, "
              f"change {statistics.median(sizes['change']):,.0f}")
    if disagreements:
        print(f"# {disagreements} pairs with different exit codes, left out")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
