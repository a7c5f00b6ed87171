"""The uncertainty region, distance primitives on balls, and the grid specification.

Region is the one region type: balls of one radius about finitely many
points, built as a Ball (one point, radius > 0) or a FinitePointSet (radius
0); its dimension, reach and contains follow from those values alone.  The
ball-specific constructions (visibility cap, chord length) describe what a
query point x_star outside a ball sees of it: only a spherical cap of the
boundary.
GridSpec lives here, not in scanner, so that parsing a config with a grid
does not import the scanner.
"""

from __future__ import annotations

import math
import operator

import numpy as np

ON_SPHERE_ATOL = 1e-9  # how far from the sphere a "boundary" point may sit, times max(1, r, max |c|)


def as_vector(x) -> np.ndarray:
    """Coerce array-like input to a nonempty 1-D float64 vector."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    return v


def _frozen(x, what: str, dtype=float) -> np.ndarray:
    """A read-only copy of x as dtype, so no array of the caller's can change a model.

    ValueError(f"{what} must be finite") for a NaN or an infinity.
    """
    a = np.array(x, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    a.flags.writeable = False
    return a


def _positive(value, what: str) -> float:
    """value as a float; ValueError unless it is a finite number > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be a finite number > 0, got {value!r}")
    return value


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


class Region(WriteOnce):
    """The uncertainty set's one type: closed balls of one radius >= 0 about finitely many points.

    points is a read-only (k, n) array.  The subclasses only validate and
    assign: a Ball is one point with radius > 0, a FinitePointSet k points
    with radius 0.
    """

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def reach(self) -> float:
        """max |p| + radius: no coordinate of a point of the set is larger in magnitude."""
        return float(np.max(np.abs(self.points))) + self.radius

    def contains(self, x) -> bool:
        """Whether x is a set point, or at radius > 0 within radius of one by the kernel's expression."""
        x = as_vector(x)
        _same_dim(self.points[0], x)
        at_point = bool(np.any(np.all(self.points == x, axis=1)))
        if at_point or not self.radius:  # at radius 0 a distance that underflows to 0 is not 0
            return at_point
        with np.errstate(over="ignore"):  # an overflowing distance is inf: outside
            delta = (self.points - x).T
            return bool(np.any(np.sqrt(_column_dot(delta, delta)) <= self.radius))


class Ball(Region):
    """Closed Euclidean ball with strictly positive radius about its center, points[0]."""

    def __init__(self, center, radius: float):
        self.center = _frozen(as_vector(center), "ball center")
        self.points = self.center[None, :]
        self.radius = _positive(radius, "ball radius")


class FinitePointSet(Region):
    """Finitely many candidate minimizer locations for the unknown term: balls of radius 0."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or 0 in pts.shape:
            raise ValueError("a finite point set needs a nonempty (k, n) array of points")
        self.points = _frozen(pts, "finite point set entries")
        self.radius = 0.0


class GridSpec(WriteOnce):
    """Axis-aligned inclusive grid: counts[i] samples, an integer, from lower[i] to upper[i]."""

    def __init__(self, lower, upper, counts: tuple):
        lower = as_vector(lower)
        upper = as_vector(upper)
        try:
            counts = tuple(operator.index(c) for c in (counts if np.ndim(counts) else [counts]))
        except TypeError:
            raise ValueError(f"grid counts must be integers, got {counts!r}") from None
        if lower.shape != upper.shape or lower.shape[0] != len(counts):
            raise ValueError("lower, upper, and counts must have equal length")
        lower, upper = _frozen(lower, "grid bounds"), _frozen(upper, "grid bounds")
        if not np.all(lower < upper):
            raise ValueError("grid needs lower < upper on every axis")
        if any(c < 2 for c in counts):
            raise ValueError("grid needs at least 2 samples per axis")
        if math.prod(counts) > np.iinfo(np.intp).max:
            raise ValueError(f"the point count exceeds the index range {np.iinfo(np.intp).max}")
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
