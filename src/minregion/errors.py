"""Exception types shared across the package."""


class CoincidentPointsError(ValueError):
    """Two points that must be distinct coincide."""


class InsideBallError(ValueError):
    """A query point lies inside the closed ball where it must be outside."""


class NotOnBoundaryError(ValueError):
    """A point expected on the sphere is too far from it."""


class NegativeDiscriminantError(ValueError):
    """A squared length came out negative beyond roundoff."""


class DimensionMismatchError(ValueError):
    """Operands carry different space dimensions."""


class GridMismatchError(ValueError):
    """Two masks over different grids were combined."""


class ConfigError(ValueError):
    """A problem-definition file failed validation."""


class NonFiniteError(ValueError):
    """A query point, or a gradient or score computed from it, is not finite.

    row is the offending row of the batch that was classified.
    """

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""
