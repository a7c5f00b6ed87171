"""Distance primitives on Euclidean balls, and the grid specification.

Everything here is a pure function of float64 arrays.  The ball-specific
constructions (visibility cap, chord length) describe what a query point
x_star outside a ball sees of it: only a spherical cap of the boundary.
GridSpec lives here, not in scanner, so that parsing a config with a grid
does not import the scanner.
"""

from __future__ import annotations

import math

import numpy as np

ON_SPHERE_ATOL = 1e-9  # how far from the sphere a "boundary" point may sit, times max(1, r, max |c|)


def as_vector(x) -> np.ndarray:
    """Coerce array-like input to a 1-D float64 vector."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _column_dot(a, b):
    """a[0] b[0] + a[1] b[1] + ..., summed left to right over the coordinates.

    a and b are coordinate columns (n, ...) or one point's coordinates (n,),
    so a pair is summed in the same order whatever the batch around it.
    """
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


def _same_dim(*vectors: np.ndarray) -> int:
    n = vectors[0].shape[0]
    for v in vectors[1:]:
        if v.shape[0] != n:
            raise ValueError(f"vectors of dimension {n} and {v.shape[0]} cannot be combined")
    return n


class WriteOnce:
    """Base of the model types: an attribute, once set, cannot be reassigned or deleted.

    == and hash() are object identity, as inherited from object.
    """

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"{type(self).__name__}.{name} is already set")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class Ball(WriteOnce):
    """Closed Euclidean ball with strictly positive radius."""

    def __init__(self, center, radius: float):
        center = as_vector(center)
        if not np.all(np.isfinite(center)):
            raise ValueError("ball center must be finite")
        radius = float(radius)
        if not np.isfinite(radius) or radius <= 0.0:
            raise ValueError(f"ball radius must be > 0, got {radius}")
        center.flags.writeable = False
        self.center = center
        self.radius = radius

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def contains(self, x) -> bool:
        """Closed-ball membership, by the classification kernel's own expression."""
        x = as_vector(x)
        _same_dim(self.center, x)
        with np.errstate(over="ignore"):  # an overflowing distance is inf: outside
            delta = self.center - x
            return bool(np.sqrt(_column_dot(delta, delta)) <= self.radius)


class GridSpec(WriteOnce):
    """Axis-aligned inclusive grid: counts[i] samples from lower[i] to upper[i]."""

    def __init__(self, lower, upper, counts: tuple):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        counts = tuple(int(c) for c in np.atleast_1d(counts))
        if lower.shape != upper.shape or lower.shape[0] != len(counts):
            raise ValueError("lower, upper, and counts must have equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("grid bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("grid needs lower < upper on every axis")
        if any(c < 2 for c in counts):
            raise ValueError("grid needs at least 2 samples per axis")
        if math.prod(counts) > np.iinfo(np.intp).max:
            raise ValueError(f"the point count exceeds the index range {np.iinfo(np.intp).max}")
        lower.flags.writeable = False
        upper.flags.writeable = False
        self.lower = lower
        self.upper = upper
        self.counts = counts

    @property
    def dimension(self) -> int:
        return len(self.counts)

    @property
    def point_count(self) -> int:
        return math.prod(self.counts)

    def axes(self) -> tuple:
        """np.linspace(lower[i], upper[i], counts[i]) per axis, read-only, kept after the first call.

        Not built by the constructor: a grid that is only loaded, as by
        check, then allocates none of its sum(counts) floats.
        """
        if "_axes" not in self.__dict__:
            axes = tuple(np.linspace(*bounds) for bounds in zip(self.lower, self.upper, self.counts))
            for ax in axes:
                ax.flags.writeable = False
            self._axes = axes
        return self._axes


def chord_length(d: float, eps0: float, theta: float) -> float:
    """Distance from the query point to the boundary point at central angle theta.

    The law of cosines in the plane through the query point, the center and
    the boundary point, d^2 + eps0^2 - 2 eps0 d cos(theta), written as
    (d - eps0)^2 + 4 eps0 d sin(theta / 2)^2: two non-negative terms, so no
    cancellation can make the square negative.
    """
    d = float(d)
    eps0 = float(eps0)
    if not (d > eps0 > 0.0):
        raise ValueError(f"need d > eps0 > 0, got d={d}, eps0={eps0}")
    return math.sqrt((d - eps0) ** 2 + 4.0 * eps0 * d * math.sin(0.5 * float(theta)) ** 2)


def visible_cap_contains(x, x_star, ball: Ball) -> bool:
    """Whether boundary point x is visible from x_star.

    Visible means the open segment from x to x_star does not re-enter the
    ball; for a ball this is the closed half-space test
    <x - center, x_star - center> >= radius^2, which keeps tangent points.
    x must lie on the sphere to within ON_SPHERE_ATOL max(1, radius, max |center|).
    """
    x = as_vector(x)
    x_star = as_vector(x_star)
    _same_dim(x, x_star, ball.center)
    scale = max(1.0, ball.radius, float(np.max(np.abs(ball.center))))
    if abs(float(np.linalg.norm(x - ball.center)) - ball.radius) > ON_SPHERE_ATOL * scale:
        raise ValueError("x is not on the ball boundary")
    d = float(np.linalg.norm(x_star - ball.center))
    if d <= ball.radius:
        raise ValueError("visible_cap_contains requires x_star outside the ball")
    lhs = float(np.dot(x - ball.center, x_star - ball.center))
    return lhs >= ball.radius**2
