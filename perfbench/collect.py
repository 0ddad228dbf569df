#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1,2,3 --seconds 15 --trace 0 \\
        --workloads abelian_gram,nica_screen --out perfbench/results/e2e.json

Each run is a separate ``perfbench/run.py`` process, run one after another
from the checkout root; the workloads are interleaved seed by seed.  For
every workload and metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]),
            "detail": detail}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default="abelian_gram,free_boundary,matrix_dense,nica_screen")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, args.seconds, args.trace)
            runs[w].append(r)
            res = r["result"]
            print(f"{w} seed {seed}: wall {r['wall_s']:.1f} s, correct "
                  f"{res['correct']}, {res['failed']}/{res['attempted']} failed, "
                  + ", ".join(f"{m}={v['value']:.6g}"
                              for m, v in sorted(res["metrics"].items())
                              if args.trace == 0), flush=True)
    summary = {}
    for w, rs in runs.items():
        names = rs[0]["result"]["metrics"]
        summary[w] = {m: summarise([r["result"]["metrics"][m]["value"] for r in rs])
                      for m in names}
        summary[w]["all_correct"] = all(r["result"]["correct"] for r in rs)
    doc = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds,
           "summary": summary, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w in workloads:
        print(w)
        for m, s in sorted(summary[w].items()):
            if isinstance(s, dict):
                print(f"  {m:<34} median {s['median']:.6g}  spread "
                      f"{s.get('spread', float('nan')):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
