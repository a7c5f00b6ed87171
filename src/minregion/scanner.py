"""Grid scans of the candidate-minimizer region, plus mask serialization.

scan_region streams the grid through the membership kernel,
classify_points, in blocks of BLOCK_ROWS points built by build_grid, and
keeps each row's member flag.  classify_point is the same kernel on one
row, so the two agree by construction, and memory stays bounded whatever
the grid size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NonFiniteError
from .funcmodel import KnownFunction
from .geometry import GridSpec, WriteOnce  # GridSpec is also importable from here
from .membership import BLOCK_ROWS, DEFAULT_SLACK, UncertaintySet, classify_points, threshold


class RegionMask(WriteOnce):
    """Membership booleans over a grid, in row-major (last axis fastest) order.

    sigma (finite, > 0) and slack (as membership.threshold allows) are
    the scan's; eps0 (finite, > 0) is the radius of a ball set and
    point_count (>= 1) the size of a finite one, at most one of them set.
    """

    def __init__(self, grid: GridSpec, membership, sigma: float, slack: float,
                 eps0: float | None = None, point_count: int | None = None):
        mem = np.asarray(membership, dtype=bool)
        if mem.shape != (grid.point_count,):
            raise ValueError(f"membership must have shape ({grid.point_count},), got {mem.shape}")
        sigma, slack = float(sigma), float(slack)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be a finite number > 0, got {sigma!r}")
        threshold(sigma, slack)
        if eps0 is not None and point_count is not None:
            raise ValueError("a mask has eps0 (a ball) or point_count (a finite set), not both")
        if eps0 is not None and not (math.isfinite(eps0) and eps0 > 0.0):
            raise ValueError(f"eps0 must be a finite number > 0, got {eps0!r}")
        if point_count is not None and point_count < 1:
            raise ValueError(f"point_count must be >= 1, got {point_count!r}")
        mem.flags.writeable = False
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

    A NonFiniteError carries the flat index of the grid point (its row in
    build_grid(spec)) and names the point.
    """
    if f.dimension != spec.dimension or uset.dimension != spec.dimension:
        raise ValueError("function, set, and grid dimensions must agree")
    member = np.empty(spec.point_count, dtype=bool)
    for start in range(0, spec.point_count, BLOCK_ROWS):
        rows = build_grid(spec, start, start + BLOCK_ROWS)
        try:
            res = classify_points(f, uset, rows, slack)
        except NonFiniteError as exc:
            point = ", ".join(repr(float(v)) for v in rows[exc.row])
            raise NonFiniteError(start + exc.row, f"grid point [{point}]: {exc.reason}") from None
        member[start : start + BLOCK_ROWS] = res.member
    region = uset.region
    eps0, point_count = (region.radius, None) if region.radius else (None, len(region.points))
    return RegionMask(spec, member, uset.sigma, float(slack), eps0=eps0, point_count=point_count)


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
    img = np.where(mask.membership.reshape(c1, c2), 255, 0).astype(np.uint8)
    pixels = img.T[::-1, :]  # rows top-down = x2 descending, columns = x1 ascending
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (c1, c2))
        fh.write(pixels.tobytes())
