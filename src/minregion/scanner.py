"""Grid scans of the candidate-minimizer region, plus mask serialization.

scan_region streams the grid through the membership kernel,
classify_points, in blocks of BLOCK_ROWS points built by build_grid, and
keeps each row's member flag.  classify_point is the same kernel on one
row, so the two agree by construction, and memory stays bounded whatever
the grid size.

For a smooth f the paper's condition bounds the region: a set point p
makes a member only of rows in the M-ball whose diameter runs from p to
x*(p) = M^-1 (o + s p), M = f.hessian + s I, s = sigma - slack (the
Thales ball).  So the scan walks only the sub-grid spanned by the axis
boxes of these balls, widened past any rounding of the kernel
(_thales_boxes), and scores each block against the points whose box meets
it.  The kernel still decides every row it sees, and a row outside every
box is one no point can make a member, so the mask is the kernel's bit for
bit.  With kinks, or where a row could overflow, every box is the whole
grid.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import NonFiniteError
from .funcmodel import KnownFunction, gradient
from .geometry import GridSpec, WriteOnce, _frozen, _positive  # GridSpec is also importable from here
from .membership import BLOCK_ROWS, DEFAULT_SLACK, FinitePointSet, UncertaintySet, classify_points, threshold

_ROUNDING = 2.0**-16  # relative widening of every Thales box, far above the kernel's rounding (_thales_boxes)
_TINY = 2.0**-400  # absolute widening: every row this near a set point is in its box


class RegionMask(WriteOnce):
    """Membership booleans over a grid, in row-major (last axis fastest) order.

    sigma (finite, > 0) and slack (as membership.threshold allows) are
    the scan's; eps0 (finite, > 0) is the radius of a ball set and
    point_count (an integer >= 1, not a bool) the size of a finite one, at
    most one of them set.
    """

    def __init__(self, grid: GridSpec, membership, sigma: float, slack: float,
                 eps0: float | None = None, point_count: int | None = None):
        mem = _frozen(membership, "membership", dtype=bool)
        if mem.shape != (grid.point_count,):
            raise ValueError(f"membership must have shape ({grid.point_count},), got {mem.shape}")
        sigma, slack = _positive(sigma, "sigma"), float(slack)
        threshold(sigma, slack)
        if eps0 is not None and point_count is not None:
            raise ValueError("a mask has eps0 (a ball) or point_count (a finite set), not both")
        eps0 = None if eps0 is None else _positive(eps0, "eps0")
        if point_count is not None:
            try:
                count = None if isinstance(point_count, bool) else operator.index(point_count)
            except TypeError:
                count = None
            if count is None:
                raise ValueError(f"point_count must be an integer, got {point_count!r}")
            if count < 1:
                raise ValueError(f"point_count must be >= 1, got {count!r}")
            point_count = count
        self.grid = grid
        self.membership = mem
        self.sigma = sigma
        self.slack = slack
        self.eps0 = eps0
        self.point_count = point_count

    @property
    def member_count(self) -> int:
        return int(np.count_nonzero(self.membership))


def build_grid(spec: GridSpec, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 of the grid, last axis varying fastest, clipped as a slice would be.

    The (N, n) rows are the transpose of an (n, N) C-contiguous block, the
    layout classify_points computes in.  Along an axis that changes every
    step rows, the block meets runs first..last of step equal values each,
    cycling through the axis, and cuts the outer two.
    """
    stop = max(start, spec.point_count if stop is None else min(stop, spec.point_count))
    cols = np.empty((spec.dimension, stop - start))
    step = 1
    for ax, col in zip(reversed(spec.axes()), cols[::-1]):
        first, last = start // step, (stop - 1) // step
        runs = np.tile(ax, last // ax.size - first // ax.size + 1)[first % ax.size :][: last - first + 1]
        if step == 1:
            col[:] = runs
        else:
            col[:] = np.repeat(runs, np.diff(np.clip(np.arange(first, last + 2) * step, start, stop)))
        step *= ax.size
    return cols.T


def scan_region(
    f: KnownFunction,
    uset: UncertaintySet,
    spec: GridSpec,
    theta_steps=None,  # ignored; bench/tracing.py still passes it positionally
    *,
    slack: float = DEFAULT_SLACK,
) -> RegionMask:
    """Classify every grid point; membership[i] matches classify_point on point i.

    Only the rows inside some set point's Thales box (_thales_boxes) are
    built and scored, each block against the points whose box meets it;
    every other row is a non-member.  A NonFiniteError carries the flat
    index of the grid point (its row in build_grid(spec)) and names the
    point.
    """
    if f.dimension != spec.dimension or uset.dimension != spec.dimension:
        raise ValueError("function, set, and grid dimensions must agree")
    limit = threshold(uset.sigma, slack)
    region = uset.region
    lo, hi = _index_boxes(f, region, limit, spec)
    seen = np.flatnonzero(np.all(lo < hi, axis=1))  # the points whose box holds a grid point
    lo, hi = lo[seen], hi[seen]
    origin = lo.min(axis=0) if seen.size else np.zeros(spec.dimension, dtype=np.intp)
    window = _Window(spec, origin, hi.max(axis=0) if seen.size else origin)
    member = np.zeros(window.point_count, dtype=bool)
    for start in range(0, window.point_count, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, window.point_count)
        first, last = window.index(start), window.index(stop - 1)
        # the block's index box: an axis spans the window once an outer axis has moved
        moved = np.cumsum(first != last) - (first != last) > 0
        block_lo = np.where(moved, window.start, first)
        block_hi = np.where(moved, window.stop - 1, last)
        meets = seen[np.all((lo <= block_hi) & (hi > block_lo), axis=1)]
        if not meets.size:
            continue
        sub = uset if meets.size == len(region.points) else UncertaintySet(
            FinitePointSet(region.points[meets]), uset.sigma)
        rows = build_grid(window, start, stop)
        try:
            res = classify_points(f, sub, rows, slack)
        except NonFiniteError as exc:
            point = ", ".join(repr(float(v)) for v in rows[exc.row])
            index = int(np.ravel_multi_index(window.index(start + exc.row), spec.counts))
            raise NonFiniteError(index, f"grid point [{point}]: {exc.reason}") from None
        member[start:stop] = res.member
    if window.counts != spec.counts:
        whole = np.zeros(spec.counts, dtype=bool)
        whole[tuple(map(slice, window.start, window.stop))] = member.reshape(window.counts)
        member = whole.reshape(-1)
    eps0, point_count = (region.radius, None) if region.radius else (None, len(region.points))
    return RegionMask(spec, member, uset.sigma, float(slack), eps0=eps0, point_count=point_count)


class _Window:
    """The sub-grid of spec at axis indices start[i]..stop[i]-1, as build_grid reads a grid.

    Its axes are slices of spec.axes(), so every row has the full grid's bits.
    """

    def __init__(self, spec: GridSpec, start, stop):
        self.start, self.stop = np.asarray(start), np.asarray(stop)
        self.counts = tuple(int(n) for n in self.stop - self.start)
        self.dimension = spec.dimension
        self.point_count = math.prod(self.counts)
        self._axes = tuple(ax[a:b] for ax, a, b in zip(spec.axes(), self.start, self.stop))

    def axes(self) -> tuple:
        return self._axes

    def index(self, row: int) -> np.ndarray:
        """The full grid's axis indices of the window's row."""
        return self.start + np.unravel_index(row, self.counts)


def _index_boxes(f: KnownFunction, region, limit: float, spec: GridSpec) -> tuple:
    """(lo, hi), each (k, n): per set point, the grid indices lo[i]..hi[i]-1 on axis i of its Thales box.

    Every point's box is the whole grid where _thales_boxes gives None.
    """
    boxes = _thales_boxes(f, region, limit, spec)
    if boxes is None:
        lo = np.zeros((len(region.points), spec.dimension), dtype=np.intp)
        return lo, lo + spec.counts
    return tuple(np.array([np.searchsorted(ax, b, side) for ax, b in zip(spec.axes(), bound.T)]).T
                 for bound, side in zip(boxes, ("left", "right")))


def _thales_boxes(f: KnownFunction, region, limit: float, spec: GridSpec):
    """(lo, hi), each (k, n): a coordinate box per set point holding every grid row it can make a member.

    None, for the whole grid, where f has kinks (whose generators these
    boxes do not cover), where a row's gradient or score might overflow
    (so the first bad row in grid order is still the one named), or where
    the bounds below do not hold.

    With s = -limit, M = f.hessian + s I and g the gradient, a row x is a
    member through the ball of radius r about p when some q in it has
    <g(x), x - q> + s ||x - q||^2 <= 0: as g(x) = g(q) + H (x - q), that is
    the M-ball about (q + x*(q)) / 2 through q and x*(q) = M^-1 (o + s q),
    of M-radius ||g(q)||_{M^-1} / 2, whose extent on axis i is that radius
    times sqrt((M^-1)_ii).  Over the ball its centre moves by A (q - p), A
    = (I + s M^-1) / 2, and its radius by at most L r / 2, L = ||M^-1/2
    H||_2 = max |mu - s| / sqrt(mu) over the eigenvalues mu of M.  Rows
    inside the ball, p +- r, are members too.

    Rounding: every step of the kernel's test, the gradient included, is
    within eta = (2n + T + 8) 2^-44 (T terms; 512 times the textbook bound)
    of exact, relative to the absolute values summed.  Those errors add at
    most kappa ||x - q||_M^2 + ||Delta||_{M^-1} ||x - q||_M to the test, with
    kappa = 2 eta (|| |H| ||_F + s) / lambda, lambda the least eigenvalue
    of M less its rounding, |H| = sum 2 w |Q|, and |Delta| <= eta beta,
    beta = sum 2 w |Q| (|p - m| + r) (_gradient_bound).  So the member set
    lies in the M-balls scaled by 1 / (1 - kappa) and moved by M^-1 Delta
    / 2.  The boxes need kappa <= _ROUNDING = 2^-16 and are widened as if
    kappa were _ROUNDING, Delta up to _ROUNDING beta, and every computed
    value off by _ROUNDING of its scale, whatever the rounding of eigh.
    An absolute 2^-400 covers distances whose squares underflow, given s
    >= 2^-200.  Near the sphere, where (d - r)(d + r) cancels, the rows
    lie within p +- r (1 + _ROUNDING).
    """
    n = spec.dimension
    s = -limit
    eps = _ROUNDING
    eta = (2 * n + len(f.terms) + 8) * 2.0**-44
    points, r = region.points, region.radius
    span = float(np.max(np.abs([spec.lower, spec.upper])))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a bound that overflows: None
        steep = float(np.max(_gradient_bound(f, np.zeros((1, n)), span)))
        reach = span + region.reach
        room = 2.0**998 / n  # a quarter of _region_scores' 2^1000 / n: the kernel cannot overflow
        if f.kinks or not (steep * steep < room and reach * reach < room) or not s >= 2.0**-200:
            return None
        habs = sum(2.0 * t.weight * np.abs(t.Q) for t in f.terms)
        scale = float(np.sqrt(np.sum(habs * habs))) + n * s
        matrix = f.hessian + s * np.eye(n)
        if not np.isfinite(matrix).all():
            return None
        mu, V = np.linalg.eigh(matrix)
        lam = mu[0] - eta * scale
        if not (lam > 0.0 and 2.0 * eta * scale <= eps * lam):
            return None
        minv = (V / mu) @ V.T
        g = gradient(f, points)
        g2 = np.sum(g * g, axis=1)
        beta = np.sqrt(np.sum(_gradient_bound(f, points, r) ** 2, axis=1))
        lipschitz = float(np.max(np.abs(mu - s) / np.sqrt(mu)))
        radius = (np.sqrt(np.einsum("ki,ij,kj->k", g, minv, g) + eps * g2 / lam) + lipschitz * r
                  + 2.0 * eps * beta / np.sqrt(lam)) * ((1.0 + eps) / (2.0 * (1.0 - eps)))
        centre = points - 0.5 * (g @ minv)
        shift = np.sqrt(np.sum((np.eye(n) + s * minv) ** 2, axis=1)) / 2.0 + eps  # row norms of A
        scales = np.abs(points) + np.abs(centre) + ((np.sqrt(g2 / lam) + radius) / np.sqrt(lam))[:, None]
        half = r * shift + radius[:, None] * np.sqrt(np.diag(minv) + eps / lam) + eps * scales + _TINY
        own = r * (1.0 + eps) + eps * np.abs(points) + _TINY
        lo, hi = np.minimum(centre - half, points - own), np.maximum(centre + half, points + own)
    return (lo, hi) if np.isfinite(lo).all() and np.isfinite(hi).all() else None


def _gradient_bound(f: KnownFunction, points: np.ndarray, spread: float) -> np.ndarray:
    """sum 2 w |Q| (|p - m| + spread) per row p of points: no |gradient| within spread of p is larger."""
    return sum(2.0 * t.weight * ((np.abs(points - t.m) + spread) @ np.abs(t.Q)) for t in f.terms)


def mask_subset(a: RegionMask, b: RegionMask) -> bool:
    """Whether every member of a is a member of b.  Grids must be identical."""
    if (
        a.grid.counts != b.grid.counts
        or not np.array_equal(a.grid.lower, b.grid.lower)
        or not np.array_equal(a.grid.upper, b.grid.upper)
    ):
        raise ValueError("masks over different grids cannot be compared")
    return bool(np.all(~a.membership | b.membership))


# ---------------------------------------------------------------------------
# serialization

def _format_float(x: float) -> str:
    return repr(float(x))


def write_mask_csv(mask: RegionMask, path: str):
    """CSV: two '#' header lines (parameters, grid), then x1,...,xn,member rows.

    Rows are streamed in grid order, one last-axis line at a time: every
    axis value is formatted once, and each row joins its leading
    coordinates to a cached "x_n,flag" tail, so memory grows with the
    longest axis, not with the point count.
    """
    size_field = (
        f"eps0={_format_float(mask.eps0)}"
        if mask.eps0 is not None
        else f"points={mask.point_count}"
    )
    grid = mask.grid
    header = (
        f"# sigma={_format_float(mask.sigma)}, {size_field}, slack={_format_float(mask.slack)}\n"
        "# grid lower=" + ",".join(_format_float(v) for v in grid.lower)
        + " upper=" + ",".join(_format_float(v) for v in grid.upper)
        + " counts=" + ",".join(str(c) for c in grid.counts) + "\n"
    )
    # build_grid copies the values of these same axes, so the strings are exact
    labels = [[_format_float(v) for v in ax] for ax in grid.axes()]
    tails = [(f"{x},0\n", f"{x},1\n") for x in labels[-1]]
    flags = mask.membership.reshape(-1, grid.counts[-1])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
        for prefix, line_flags in zip(itertools.product(*labels[:-1]), flags):
            lead = "".join(v + "," for v in prefix)
            fh.write(lead + lead.join([t[f] for t, f in zip(tails, line_flags.tolist())]))


def read_mask_csv(path: str) -> RegionMask:
    """Inverse of write_mask_csv; validates coordinates against the declared grid.

    Raises ValueError, naming the path, for a file that is not a mask CSV, a
    header that lacks a field or has one that does not parse or does not
    make a grid, a row that does not parse or has the wrong number of
    columns, a wrong row count, coordinates that are not exactly the
    declared grid's, in grid order, a member flag other than 0 or 1, or
    header values that RegionMask refuses.
    Other header fields are ignored, so files with a field this writer no
    longer emits still load.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = []  # the two header lines and the first data line
        while len(lines) < 3:
            line = fh.readline()
            if not line:
                break
            if line.strip():
                lines.append(line.rstrip("\n"))
        if len(lines) < 3 or not lines[0].startswith("#") or not lines[1].startswith("#"):
            raise ValueError(f"{path}: not a mask CSV (two '#' header lines expected)")
        try:
            data = np.loadtxt(
                itertools.chain(lines[2:], fh), delimiter=",", comments=None, ndmin=2
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    fields = dict(part.strip().partition("=")[::2] for part in lines[0].lstrip("# ").split(","))
    grid_part = lines[1].lstrip("# ").removeprefix("grid ").split(" ")
    grid_fields = dict(part.partition("=")[::2] for part in grid_part)
    required = ((fields, ("sigma", "slack")), (grid_fields, ("lower", "upper", "counts")))
    for table, keys in required:
        for key in keys:
            if key not in table:
                raise ValueError(f"{path}: header has no {key}= field")
    try:
        spec = GridSpec(
            lower=[float(v) for v in grid_fields["lower"].split(",")],
            upper=[float(v) for v in grid_fields["upper"].split(",")],
            counts=[int(v) for v in grid_fields["counts"].split(",")],
        )
        sigma, slack = float(fields["sigma"]), float(fields["slack"])
        eps0 = float(fields["eps0"]) if "eps0" in fields else None
        point_count = int(fields["points"]) if "points" in fields else None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    n = spec.dimension
    if data.shape != (spec.point_count, n + 1):
        raise ValueError(f"{path}: expected {spec.point_count} data rows of {n + 1} columns")
    for i, ax in enumerate(spec.axes()):
        along = [1] * n
        along[i] = -1
        if not np.all(data[:, i].reshape(spec.counts) == ax.reshape(along)):
            raise ValueError(f"{path}: data coordinates do not match the declared grid")
    flags = data[:, n]
    bad = (flags != 0.0) & (flags != 1.0)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {row + 1} has member flag {float(flags[row])!r}, not 0 or 1")
    try:
        return RegionMask(spec, flags == 1.0, sigma, slack, eps0=eps0, point_count=point_count)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_mask_pgm(mask: RegionMask, path: str):
    """Binary PGM (P5) for 2-D masks: 255 = member, row 0 = maximum x2."""
    if mask.grid.dimension != 2:
        raise ValueError("PGM output is only defined for 2-D masks")
    c1, c2 = mask.grid.counts
    # rows top-down = x2 descending, columns = x1 ascending
    pixels = mask.membership.reshape(c1, c2).T[::-1, :].astype(np.uint8, order="C")
    pixels *= 255
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (c1, c2))
        fh.write(pixels.tobytes())
