"""Exception types shared across the package."""


class SpecMismatchError(ValueError):
    """Operands belong to different semigroups or algebras."""


class ResourceCapError(RuntimeError):
    """An enumeration or matrix size exceeded the configured cap."""


class SchemaError(ValueError):
    """A problem-instance file failed validation.

    `location` is a JSON-pointer-ish path into the offending document.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} (at {location or '/'})")


class CovarianceError(ValueError):
    """A (phi, T) pair failed the covariance relation at construction."""

    def __init__(self, residual: float, tol: float, where: str):
        self.residual = residual
        self.tol = tol
        self.where = where
        super().__init__(
            f"covariance residual {residual:.3e} exceeds {tol:.3e} ({where})"
        )


class GramNotPositiveError(RuntimeError):
    """The Gram operator of a kernel has a genuinely negative eigenvalue.

    Dilation refuses such inputs.  The witness eigenvector (zero outside its
    block, over the whole n*h catalog space) is kept with its (atom, row)
    group and the catalog labels of that group, so callers can report them.
    """

    def __init__(self, min_eigenvalue: float, scale: float, witness=None,
                 group=None, labels=()):
        self.min_eigenvalue = min_eigenvalue
        self.scale = scale
        self.witness = witness
        self.group = group
        self.labels = list(labels)
        super().__init__(
            f"Gram operator is not positive semidefinite: min eigenvalue "
            f"{min_eigenvalue:.6e} (largest magnitude {scale:.6e})"
        )

    def where(self) -> str:
        """The witness group and its first eight catalog labels."""
        labels = ", ".join(self.labels[:8])
        more = len(self.labels) - 8
        if more > 0:
            labels += f", ... (+{more} more)"
        return f"witness group (atom, row) = {self.group}: [{labels}]"
