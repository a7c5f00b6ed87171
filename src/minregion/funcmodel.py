"""Known-function models: weighted sums of convex quadratics, plus kinks.

A KnownFunction is f(x) = sum_i w_i * (x - m_i)^T Q_i (x - m_i) with every
Q_i symmetric positive semidefinite and every w_i > 0, so f is convex with
gradient sum_i 2 w_i Q_i (x - m_i).  Nonsmooth behavior is modeled by
registering kink points: at a registered point the subdifferential is the
finite generator list supplied for it, shifted by the analytic gradient of
the quadratic terms.  Everywhere else the subdifferential is the singleton
gradient.  kink_index is the one rule for which kink a point is at, and
generators the one rule for a point's subgradients.
"""

from __future__ import annotations

import numpy as np

from .geometry import WriteOnce, _column_dot, _frozen, _positive, as_vector

SYMMETRY_ATOL = 1e-12  # max allowed |Q - Q^T| entrywise, times max(1, max |Q|)
PSD_EIG_TOL = -1e-10  # eigenvalues may dip this far below zero, times max(1, max |Q|)
KINK_MATCH_ATOL = 1e-12  # how close a query must be to count as a registered kink


class QuadraticTerm(WriteOnce):
    """One convex quadratic w * (x - m)^T Q (x - m)."""

    def __init__(self, Q, m, weight: float = 1.0):
        Q = np.asarray(Q, dtype=float)
        m = as_vector(m)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if Q.shape[0] != m.shape[0]:
            raise ValueError(f"Q is {Q.shape[0]}x{Q.shape[0]} but m has dimension {m.shape[0]}")
        Q, m = _frozen(Q, "quadratic term entries"), _frozen(m, "quadratic term entries")
        scale = max(1.0, float(np.max(np.abs(Q))))
        if np.max(np.abs(Q - Q.T)) > SYMMETRY_ATOL * scale:
            raise ValueError("Q must be symmetric to within 1e-12 max(1, max |Q|)")
        if float(np.min(np.linalg.eigvalsh(Q))) < PSD_EIG_TOL * scale:
            raise ValueError("Q must be positive semidefinite (eigenvalues >= -1e-10 max(1, max |Q|))")
        weight = _positive(weight, "term weight")
        with np.errstate(over="ignore", invalid="ignore"):  # gradients scale Q and Q m by 2 * weight
            for name, scaled in (("Q", 2.0 * weight * Q), ("Q m", 2.0 * weight * (Q @ m))):
                if not np.isfinite(scaled).all():
                    raise ValueError(f"2 * weight * {name} overflows for weight {weight!r}")
        self.Q = Q
        self.m = m
        self.weight = weight

    @property
    def dimension(self) -> int:
        return self.m.shape[0]


class Kink(WriteOnce):
    """A declared nonsmooth point with its subdifferential generators.

    Generators are the extreme subgradients of the nonsmooth part alone; the
    smooth quadratic gradient is added on top when the subdifferential is
    queried.  The list must be nonempty; it is stored as one (m, n) array.
    """

    def __init__(self, point, generators):
        point = as_vector(point)
        gens = [as_vector(g) for g in generators]
        if not gens:
            raise ValueError("a kink needs at least one subdifferential generator")
        if any(g.shape[0] != point.shape[0] for g in gens):
            raise ValueError("kink generator dimension mismatch")
        self.point = _frozen(point, "kink point and generators")
        self.generators = _frozen(gens, "kink point and generators")


class KnownFunction(WriteOnce):
    """Weighted sum of convex quadratics with optional registered kinks.

    hessian is sum 2 w Q and offset sum 2 w Q m, both summed in term order.
    """

    def __init__(self, terms: tuple, kinks: tuple = ()):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a known function needs at least one quadratic term")
        n = terms[0].dimension
        for t in terms:
            if t.dimension != n:
                raise ValueError("quadratic terms have mixed dimensions")
        kinks = tuple(kinks)
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
        self.terms = terms
        self.kinks = kinks
        self.hessian = hessian
        self.offset = offset

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    def value(self, x) -> float:
        """Value of the smooth quadratic part at x."""
        x = as_vector(x)
        if x.shape[0] != self.dimension:
            raise ValueError(f"point of dimension {x.shape[0]} passed to a {self.dimension}-D function")
        total = 0.0
        for t in self.terms:
            dx = x - t.m
            total += t.weight * float(dx @ t.Q @ dx)
        return total


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
    is the smooth part only (generators gives the whole set).
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


def generators(f: KnownFunction, cols: np.ndarray) -> tuple:
    """(G, owner): the subdifferential generators of f at the (n, N) points cols, as columns.

    G is (n, M) and owner (M,) the point of each column, non-decreasing.  A
    point's generators come in declared order: its gradient alone, or at the
    kink kink_index names, each supplied generator shifted by the gradient.
    With no kinks, G is the gradient itself and owner every index.
    """
    G = gradient(f, cols.T).T
    if not f.kinks:
        return G, np.arange(cols.shape[1])
    at = kink_index(f, cols)
    owner = np.repeat(np.arange(at.size), np.array([1] + [len(k.generators) for k in f.kinks])[at + 1])
    G = G[:, owner]
    for j, k in enumerate(f.kinks):  # each point at kink j owns one column per generator, in order
        G[:, at[owner] == j] += np.tile(k.generators.T, np.count_nonzero(at == j))
    return G, owner


def subdifferential(f: KnownFunction, x) -> np.ndarray:
    """generators(f, x) for one point x, one generator per row of a C-contiguous (k, n) array."""
    return generators(f, as_vector(x)[:, None])[0].T.copy()


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
