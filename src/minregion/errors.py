"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A problem-definition file failed validation."""


class NonFiniteError(ValueError):
    """A row cannot be computed in floats: a non-finite point, gradient or score, or a failed solve.

    row is the offending row of the batch that was classified or solved.
    """

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class ConvergenceError(RuntimeError):
    """Raised by nothing since every solve is exact; bench/tracing.py still catches it."""
