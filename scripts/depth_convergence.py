#!/usr/bin/env python3
"""Truncation-depth sweep for a seeded random contraction.

Shows that compressions of the dilation are stable across depths (deeper
truncations never change already-covered powers) and how the dilation space
grows with the depth.

Usage: depth_convergence.py [seed] [max_depth]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lcm_dilate.algebras import BaseAlgebra, ToeplitzModel  # noqa: E402
from lcm_dilate.cpmaps import ContractionFamily, extend_phi_T  # noqa: E402
from lcm_dilate.dilation import covariant_dilate  # noqa: E402
from lcm_dilate.semigroup import FreeAbelian  # noqa: E402
from lcm_dilate.systems import LcmSystem  # noqa: E402


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    max_depth = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t = 0.9 * t / np.linalg.norm(t, 2)

    sg = FreeAbelian(1)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), BaseAlgebra((1,)))
    T = ContractionFamily(sg, [t])

    print(f"seed {seed}: ||T|| = {np.linalg.norm(t, 2):.4f}")
    print(f"{'depth':>5} {'space':>6} {'rank':>5} {'worst power residual':>22}")
    prev = {}
    for depth in range(1, max_depth + 1):
        ext = extend_phi_T(sys_, T, depth)
        res = covariant_dilate(sys_, ext.map, T, depth)
        worst = 0.0
        for n in range(depth + 1):
            comp = res.compress_v((n,))
            worst = max(worst, np.linalg.norm(
                comp - np.linalg.matrix_power(t, n), 2))
            if n in prev:
                drift = np.linalg.norm(comp - prev[n], 2)
                assert drift <= 1e-9, (depth, n, drift)
            prev[n] = comp
        print(f"{depth:>5} {res.assembly.size:>6} {res.rank:>5} {worst:>22.3e}")
    print("compressions stable across depths (drift <= 1e-9)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
