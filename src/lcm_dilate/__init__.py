"""Numerical dilation theory for right LCM semigroup dynamical systems."""

__version__ = "0.1.0"

from .algebras import BaseAlgebra, LevelledElement                    # noqa: F401
from .cpmaps import (                                                 # noqa: F401
    ContractionFamily,
    build_phi_tilde,
    extend_phi_T,
    is_completely_positive,
    nica_defect,
)
from .dilation import (                                               # noqa: F401
    Tolerances,
    covariant_dilate,
    naimark_dilate,
)
from .kernel import KernelSystem, assemble_gram                       # noqa: F401
from .semigroup import FreeAbelian, FreeMonoid                        # noqa: F401
from .systems import LcmSystem, StageSystem, build_system             # noqa: F401
