"""Known-function models: weighted sums of convex quadratics, plus kinks.

A KnownFunction is f(x) = sum_i w_i * (x - m_i)^T Q_i (x - m_i) with every
Q_i symmetric positive semidefinite and every w_i > 0, so f is convex with
gradient sum_i 2 w_i Q_i (x - m_i).  Nonsmooth behavior is modeled by
registering kink points: at a registered point the subdifferential is the
finite generator list supplied for it, shifted by the analytic gradient of
the quadratic terms.  Everywhere else the subdifferential is the singleton
gradient.  kink_index is the one rule for which kink a point is at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import _column_dot, as_vector

SYMMETRY_ATOL = 1e-12  # max allowed |Q - Q^T| entrywise, times max(1, max |Q|)
PSD_EIG_TOL = -1e-10  # eigenvalues may dip this far below zero, times max(1, max |Q|)
KINK_MATCH_ATOL = 1e-12  # how close a query must be to count as a registered kink


@dataclass(frozen=True, eq=False)
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
            raise ValueError(f"Q is {Q.shape[0]}x{Q.shape[0]} but m has dimension {m.shape[0]}")
        if not np.all(np.isfinite(Q)) or not np.all(np.isfinite(m)):
            raise ValueError("quadratic term entries must be finite")
        scale = max(1.0, float(np.max(np.abs(Q))))
        if np.max(np.abs(Q - Q.T)) > SYMMETRY_ATOL * scale:
            raise ValueError("Q must be symmetric to within 1e-12 max(1, max |Q|)")
        if float(np.min(np.linalg.eigvalsh(Q))) < PSD_EIG_TOL * scale:
            raise ValueError("Q must be positive semidefinite (eigenvalues >= -1e-10 max(1, max |Q|))")
        weight = float(self.weight)
        if not np.isfinite(weight) or weight <= 0.0:
            raise ValueError(f"term weight must be > 0, got {weight}")
        with np.errstate(over="ignore", invalid="ignore"):  # gradients scale Q and Q m by 2 * weight
            for name, scaled in (("Q", 2.0 * weight * Q), ("Q m", 2.0 * weight * (Q @ m))):
                if not np.isfinite(scaled).all():
                    raise ValueError(f"2 * weight * {name} overflows for weight {weight!r}")
        Q.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "weight", weight)

    @property
    def dimension(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True, eq=False)
class Kink:
    """A declared nonsmooth point with its subdifferential generators.

    Generators are the extreme subgradients of the nonsmooth part alone; the
    smooth quadratic gradient is added on top when the subdifferential is
    queried.  The list must be nonempty; it is stored as one (m, n) array.
    """

    point: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        point = as_vector(self.point)
        gens = [as_vector(g) for g in self.generators]
        if not gens:
            raise ValueError("a kink needs at least one subdifferential generator")
        if any(g.shape[0] != point.shape[0] for g in gens):
            raise ValueError("kink generator dimension mismatch")
        gens = np.array(gens)
        if not (np.isfinite(point).all() and np.isfinite(gens).all()):
            raise ValueError("kink point and generators must be finite")
        point.flags.writeable = False
        gens.flags.writeable = False
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True, eq=False)
class KnownFunction:
    """Weighted sum of convex quadratics with optional registered kinks."""

    terms: tuple
    kinks: tuple = ()
    hessian: np.ndarray = field(init=False, repr=False)  # sum 2 w Q, in term order
    offset: np.ndarray = field(init=False, repr=False)  # sum 2 w Q m, in term order

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a known function needs at least one quadratic term")
        n = terms[0].dimension
        for t in terms:
            if t.dimension != n:
                raise ValueError("quadratic terms have mixed dimensions")
        kinks = tuple(self.kinks)
        for k in kinks:
            if k.point.shape[0] != n:
                raise ValueError("kink point dimension mismatch")
        with np.errstate(over="ignore", invalid="ignore"):  # finite terms can have an overflowing sum
            hessian = sum(2.0 * t.weight * t.Q for t in terms)
            offset = sum(2.0 * t.weight * (t.Q @ t.m) for t in terms)
        for name, total in (("Q", hessian), ("Q m", offset)):
            if not np.isfinite(total).all():
                raise ValueError(f"sum of 2 * weight * {name} overflows")
            total.flags.writeable = False
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "kinks", kinks)
        object.__setattr__(self, "hessian", hessian)
        object.__setattr__(self, "offset", offset)

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
        """The registered kink at x (see kink_index), if any."""
        x = as_vector(x)
        self._check_dim(x)
        j = int(kink_index(self, x))
        return self.kinks[j] if j >= 0 else None

    def _check_dim(self, x: np.ndarray):
        if x.shape[0] != self.dimension:
            raise ValueError(f"point of dimension {x.shape[0]} passed to a {self.dimension}-D function")


def kink_index(f: KnownFunction, cols: np.ndarray) -> np.ndarray:
    """Index into f.kinks of the kink at each point of cols, (n,) or (n, N); -1 for none.

    A point is at the first kink, in declared order, whose point it matches
    to within KINK_MATCH_ATOL in every coordinate.
    """
    index = np.full(cols.shape[1:], -1)
    for j, k in enumerate(f.kinks):
        near = np.max(np.abs(cols.T - k.point), axis=-1) <= KINK_MATCH_ATOL
        index[near & (index < 0)] = j
    return index


def gradient(f: KnownFunction, x) -> np.ndarray:
    """Gradient of the quadratic part, sum_i 2 w_i Q_i (x - m_i).

    x is one point or an (N, n) array of points; at a registered kink this
    is the smooth part only (subdifferential gives the whole set).
    Component i of a term is 2 w _column_dot(d, Q_i) over the coordinate
    columns d_j = x[..., j] - m_j, so a point gets the same bits alone or in
    a batch, which a BLAS product (gemv for a row, gemm for a block) does
    not.  For x = C.T with C an (n, N) C-contiguous column block, the result
    is the transpose of an (n, N) C-contiguous block too, so a column-major
    caller copies nothing.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != f.dimension:
        raise ValueError(f"point of dimension {x.shape[-1]} passed to a {f.dimension}-D function")
    cols = np.moveaxis(x, -1, 0)
    total = np.zeros(cols.shape)
    for t in f.terms:
        scale = 2.0 * t.weight
        d = [c - m for c, m in zip(cols, t.m)]
        for i, q in enumerate(t.Q):
            total[i] += scale * _column_dot(d, q)
    return np.moveaxis(total, 0, -1)


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
    return smooth + kink.generators


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
