#!/usr/bin/env python3
"""Scale sweep for a commuting nilpotent pair on the quarter-plane.

The pair T1 = [[0, s], [0, 0]], T2 = [[0, i s], [0, 0]] commutes for every
scale s; the Nica defects of the generator subsets (and with them
dilatability) flip from positive to violated as s grows.  The sweep prints
the worst defect eigenvalue, the extension verdict, and the Gram verdict side
by side: all three must flip at the same scale.

Usage: defect_sweep.py [steps]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lcm_dilate.algebras import BaseAlgebra, ToeplitzModel  # noqa: E402
from lcm_dilate.cpmaps import (  # noqa: E402
    ContractionFamily,
    extend_phi_T,
    is_completely_positive,
    nica_defect,
)
from lcm_dilate.kernel import KernelSystem, assemble_gram  # noqa: E402
from lcm_dilate.semigroup import FreeAbelian  # noqa: E402
from lcm_dilate.systems import LcmSystem  # noqa: E402


def main() -> int:
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    sg = FreeAbelian(2)
    sys_ = LcmSystem(sg, ToeplitzModel(sg), BaseAlgebra((1,)))
    subsets = [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]]    # of the generators

    print(f"{'scale':>7} {'worst defect':>13} {'extension':>10} {'gram min':>12}")
    mismatches = 0
    for s in np.linspace(0.3, 0.99, steps):
        t1 = np.array([[0, s], [0, 0]], dtype=complex)
        t2 = np.array([[0, 1j * s], [0, 0]], dtype=complex)
        T = ContractionFamily(sg, [t1, t2])
        worst = min(0.0, *(float(np.linalg.eigvalsh(nica_defect(T, G))[0])
                           for G in subsets))
        phi = extend_phi_T(sys_, T, 2)
        accepted = is_completely_positive(phi).is_cp
        w = assemble_gram(KernelSystem(sys_, phi, T, validate=False),
                          2).eigenvalues()
        gmin = float(w[0])
        verdicts = {worst >= -1e-8, accepted,
                    gmin >= -1e-8 * max(1.0, float(np.abs(w).max()))}
        if len(verdicts) != 1:
            mismatches += 1
        print(f"{s:>7.3f} {worst:>13.4e} "
              f"{'accept' if accepted else 'reject':>10} {gmin:>12.4e}")
    print("\nall three verdicts agree at every scale"
          if mismatches == 0 else f"\n{mismatches} disagreements (unexpected)")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
