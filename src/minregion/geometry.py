"""Distance primitives on Euclidean balls, and the grid specification.

Everything here is a pure function of float64 arrays.  The ball-specific
constructions (visibility cap, chord length) describe what a query point
x_star outside a ball sees of it: only a spherical cap of the boundary.
GridSpec lives here, not in scanner, so that parsing a config with a grid
does not import the scanner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsideBallError,
    NegativeDiscriminantError,
    NotOnBoundaryError,
)

# Tolerances, shared with the tests that pin them.
ON_SPHERE_ATOL = 1e-9  # how far from the sphere a "boundary" point may sit
DISCRIMINANT_ATOL = 1e-12  # negative squared lengths beyond this are an error


def as_vector(x) -> np.ndarray:
    """Coerce array-like input to a 1-D float64 vector."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _same_dim(*vectors: np.ndarray) -> int:
    n = vectors[0].shape[0]
    for v in vectors[1:]:
        if v.shape[0] != n:
            raise DimensionMismatchError(
                f"vectors of dimension {n} and {v.shape[0]} cannot be combined"
            )
    return n


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with strictly positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = as_vector(self.center)
        if not np.all(np.isfinite(center)):
            raise ValueError("ball center must be finite")
        radius = float(self.radius)
        if not np.isfinite(radius) or radius <= 0.0:
            raise ValueError(f"ball radius must be > 0, got {radius}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def contains(self, x) -> bool:
        """Closed-ball membership."""
        x = as_vector(x)
        _same_dim(self.center, x)
        return float(np.linalg.norm(x - self.center)) <= self.radius


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned inclusive grid: counts[i] samples from lower[i] to upper[i]."""

    lower: np.ndarray
    upper: np.ndarray
    counts: tuple

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if lower.shape != upper.shape or lower.shape[0] != len(counts):
            raise DimensionMismatchError("lower, upper, and counts must have equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("grid bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("grid needs lower < upper on every axis")
        if any(c < 2 for c in counts):
            raise ValueError("grid needs at least 2 samples per axis")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "counts", counts)

    @property
    def dimension(self) -> int:
        return len(self.counts)

    @property
    def point_count(self) -> int:
        return int(np.prod(self.counts))

    def axes(self) -> list:
        return [
            np.linspace(self.lower[i], self.upper[i], self.counts[i])
            for i in range(self.dimension)
        ]


def chord_length(d: float, eps0: float, theta: float) -> float:
    """Distance from the query point to the boundary point at central angle theta.

    Law of cosines in the plane through the query point, the center, and the
    boundary point: r^2 = d^2 + eps0^2 - 2 * eps0 * d * cos(theta).  Tiny
    negative radicands from roundoff (|value| < 1e-12) are clamped to zero;
    anything more negative raises NegativeDiscriminantError.
    """
    d = float(d)
    eps0 = float(eps0)
    if not (d > eps0 > 0.0):
        raise ValueError(f"need d > eps0 > 0, got d={d}, eps0={eps0}")
    disc = d * d + eps0 * eps0 - 2.0 * eps0 * d * float(np.cos(theta))
    if disc < 0.0:
        if disc > -DISCRIMINANT_ATOL:
            disc = 0.0
        else:
            raise NegativeDiscriminantError(f"squared chord length {disc} < 0")
    return float(np.sqrt(disc))


def visible_cap_contains(x, x_star, ball: Ball) -> bool:
    """Whether boundary point x is visible from x_star.

    Visible means the open segment from x to x_star does not re-enter the
    ball; for a ball this is the closed half-space test
    <x - center, x_star - center> >= radius^2, which keeps tangent points.
    x must lie on the sphere to within 1e-9.
    """
    x = as_vector(x)
    x_star = as_vector(x_star)
    _same_dim(x, x_star, ball.center)
    if abs(float(np.linalg.norm(x - ball.center)) - ball.radius) > ON_SPHERE_ATOL:
        raise NotOnBoundaryError("x is not on the ball boundary")
    d = float(np.linalg.norm(x_star - ball.center))
    if d <= ball.radius:
        raise InsideBallError("visible_cap_contains requires x_star outside the ball")
    lhs = float(np.dot(x - ball.center, x_star - ball.center))
    return lhs >= ball.radius**2
