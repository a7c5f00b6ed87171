"""Known-function models: weighted sums of convex quadratics, plus kinks.

A KnownFunction is f(x) = sum_i w_i * (x - m_i)^T Q_i (x - m_i) with every
Q_i symmetric positive semidefinite and every w_i > 0, so f is convex with
gradient sum_i 2 w_i Q_i (x - m_i).  Nonsmooth behavior is modeled by
registering kink points: at a registered point the subdifferential is the
finite generator list supplied for it, shifted by the analytic gradient of
the quadratic terms.  Everywhere else the subdifferential is the singleton
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .geometry import as_vector

SYMMETRY_ATOL = 1e-12  # max allowed |Q - Q^T| entrywise
PSD_EIG_TOL = -1e-10  # eigenvalues may dip this far below zero
KINK_MATCH_ATOL = 1e-12  # how close a query must be to count as a registered kink


@dataclass(frozen=True)
class QuadraticTerm:
    """One convex quadratic w * (x - m)^T Q (x - m)."""

    Q: np.ndarray
    m: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        m = as_vector(self.m)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if Q.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"Q is {Q.shape[0]}x{Q.shape[0]} but m has dimension {m.shape[0]}"
            )
        if not np.all(np.isfinite(Q)) or not np.all(np.isfinite(m)):
            raise ValueError("quadratic term entries must be finite")
        if np.max(np.abs(Q - Q.T)) > SYMMETRY_ATOL:
            raise ValueError("Q must be symmetric to within 1e-12")
        if float(np.min(np.linalg.eigvalsh(Q))) < PSD_EIG_TOL:
            raise ValueError("Q must be positive semidefinite (eigenvalues >= -1e-10)")
        weight = float(self.weight)
        if not np.isfinite(weight) or weight <= 0.0:
            raise ValueError(f"term weight must be > 0, got {weight}")
        Q.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "weight", weight)

    @property
    def dimension(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class Kink:
    """A declared nonsmooth point with its subdifferential generators.

    Generators are the extreme subgradients of the nonsmooth part alone; the
    smooth quadratic gradient is added on top when the subdifferential is
    queried.  The list must be nonempty.
    """

    point: np.ndarray
    generators: tuple

    def __post_init__(self):
        point = as_vector(self.point)
        gens = tuple(as_vector(g) for g in self.generators)
        if not gens:
            raise ValueError("a kink needs at least one subdifferential generator")
        for g in gens:
            if g.shape[0] != point.shape[0]:
                raise DimensionMismatchError("kink generator dimension mismatch")
            g.flags.writeable = False
        point.flags.writeable = False
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class KnownFunction:
    """Weighted sum of convex quadratics with optional registered kinks."""

    terms: tuple
    kinks: tuple = ()

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a known function needs at least one quadratic term")
        n = terms[0].dimension
        for t in terms:
            if t.dimension != n:
                raise DimensionMismatchError("quadratic terms have mixed dimensions")
        kinks = tuple(self.kinks)
        for k in kinks:
            if k.point.shape[0] != n:
                raise DimensionMismatchError("kink point dimension mismatch")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "kinks", kinks)

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    def value(self, x) -> float:
        """Value of the smooth quadratic part at x."""
        x = as_vector(x)
        self._check_dim(x)
        total = 0.0
        for t in self.terms:
            dx = x - t.m
            total += t.weight * float(dx @ t.Q @ dx)
        return total

    def kink_at(self, x) -> Kink | None:
        """The registered kink at x (componentwise within 1e-12), if any."""
        x = as_vector(x)
        self._check_dim(x)
        for k in self.kinks:
            if np.max(np.abs(x - k.point)) <= KINK_MATCH_ATOL:
                return k
        return None

    def _check_dim(self, x: np.ndarray):
        if x.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"point of dimension {x.shape[0]} passed to a {self.dimension}-D function"
            )


def gradient(f: KnownFunction, x) -> np.ndarray:
    """Gradient of the quadratic part, sum_i 2 w_i Q_i (x - m_i).

    x is one point or an (N, n) array of points; at a registered kink this
    is the smooth part only (subdifferential gives the whole set).  einsum reduces
    each row on its own, so a row gets the same bits alone or in a batch; a
    BLAS product rounds a single row (gemv) and a block of rows (gemm)
    differently.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != f.dimension:
        raise DimensionMismatchError(
            f"point of dimension {x.shape[-1]} passed to a {f.dimension}-D function"
        )
    total = np.zeros_like(x)
    for t in f.terms:
        total = total + 2.0 * t.weight * np.einsum("...j,ij->...i", x - t.m, t.Q)
    return total


def subdifferential(f: KnownFunction, x) -> np.ndarray:
    """Subdifferential generators of f at x, one per row of a (k, n) array.

    The gradient alone (k = 1) at smooth points; at a registered kink, each
    supplied generator shifted by the gradient of the quadratic terms.
    """
    x = as_vector(x)
    kink = f.kink_at(x)
    smooth = gradient(f, x)
    if kink is None:
        return smooth[None, :]
    return smooth + np.stack(kink.generators)


def finite_difference_check(f: KnownFunction, x, h: float = 1e-5) -> float:
    """Relative error between the analytic gradient and central differences.

    Returns max_i |fd_i - grad_i| / max(1, ||grad||).  Only meaningful at
    smooth points.
    """
    x = as_vector(x)
    grad = gradient(f, x)
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        fd[i] = (f.value(x + step) - f.value(x - step)) / (2.0 * h)
    scale = max(1.0, float(np.linalg.norm(grad)))
    return float(np.max(np.abs(fd - grad))) / scale
