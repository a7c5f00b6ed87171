"""Grid scans of the candidate-minimizer region, plus mask serialization.

scan_region streams the grid through the membership kernel,
classify_points, in blocks of BLOCK_ROWS points, and keeps one flag per
point: interior, or any generator passes.  classify_point is the same
kernel on one row, so the two agree by construction, and memory stays
bounded whatever the grid size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GridMismatchError, NonFiniteError
from .funcmodel import KnownFunction
from .geometry import Ball, GridSpec  # GridSpec is also importable from here
from .membership import BLOCK_ROWS, DEFAULT_SLACK, UncertaintySet, classify_points


@dataclass(frozen=True)
class MaskMetadata:
    """Scan parameters recorded with a mask; eps0 for balls, point_count for finite sets."""

    sigma: float
    slack: float
    eps0: float | None = None
    point_count: int | None = None


@dataclass(frozen=True)
class RegionMask:
    """Membership booleans over a grid, in row-major (last axis fastest) order."""

    grid: GridSpec
    membership: np.ndarray
    metadata: MaskMetadata

    def __post_init__(self):
        mem = np.asarray(self.membership, dtype=bool)
        if mem.shape != (self.grid.point_count,):
            raise ValueError(
                f"membership must have shape ({self.grid.point_count},), got {mem.shape}"
            )
        mem.flags.writeable = False
        object.__setattr__(self, "membership", mem)

    @property
    def member_count(self) -> int:
        return int(np.count_nonzero(self.membership))


def build_grid(spec: GridSpec) -> np.ndarray:
    """All grid points as an (N, n) array, last axis varying fastest."""
    mesh = np.meshgrid(*spec.axes(), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, spec.dimension)


def _grid_rows(axes: list, counts: tuple, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the grid that build_grid would return."""
    index = np.unravel_index(np.arange(start, stop), counts)
    return np.stack([ax[i] for ax, i in zip(axes, index)], axis=1)


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
        raise DimensionMismatchError("function, set, and grid dimensions must agree")
    axes = spec.axes()
    member = np.zeros(spec.point_count, dtype=bool)
    for start in range(0, spec.point_count, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, spec.point_count)
        X = _grid_rows(axes, spec.counts, start, stop)
        try:
            res = classify_points(f, uset, X, slack)
        except NonFiniteError as exc:
            point = ", ".join(repr(float(v)) for v in X[exc.row])
            raise NonFiniteError(start + exc.row, f"grid point [{point}]: {exc.reason}") from None
        block = member[start:stop]
        block[res.interior] = True
        block[res.owner[res.member]] = True
    if isinstance(uset.region, Ball):
        eps0, point_count = uset.region.radius, None
    else:
        eps0, point_count = None, uset.region.points.shape[0]
    meta = MaskMetadata(sigma=uset.sigma, slack=float(slack), eps0=eps0, point_count=point_count)
    return RegionMask(grid=spec, membership=member, metadata=meta)


def mask_subset(a: RegionMask, b: RegionMask) -> bool:
    """Whether every member of a is a member of b.  Grids must be identical."""
    if (
        a.grid.counts != b.grid.counts
        or not np.array_equal(a.grid.lower, b.grid.lower)
        or not np.array_equal(a.grid.upper, b.grid.upper)
    ):
        raise GridMismatchError("masks over different grids cannot be compared")
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
    meta = mask.metadata
    size_field = (
        f"eps0={_format_float(meta.eps0)}"
        if meta.eps0 is not None
        else f"points={meta.point_count}"
    )
    grid = mask.grid
    header = (
        f"# sigma={_format_float(meta.sigma)}, {size_field}, slack={_format_float(meta.slack)}\n"
        "# grid lower=" + ",".join(_format_float(v) for v in grid.lower)
        + " upper=" + ",".join(_format_float(v) for v in grid.upper)
        + " counts=" + ",".join(str(c) for c in grid.counts) + "\n"
    )
    # build_grid is a meshgrid of these same axes, so the strings are exact
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

    Raises ValueError for a file that is not a mask CSV, a header that lacks
    a field, a row that does not parse or has the wrong number of columns, a
    wrong row count, or coordinates that are not exactly the declared
    grid's, in grid order.  Other header fields are ignored, so files with
    a field this writer no longer emits still load.
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
    fields = {}
    for part in lines[0].lstrip("# ").split(","):
        key, _, value = part.strip().partition("=")
        fields[key] = value
    grid_part = lines[1].lstrip("# ").removeprefix("grid ").split(" ")
    grid_fields = {}
    for part in grid_part:
        key, _, value = part.partition("=")
        grid_fields[key] = value
    required = ((fields, ("sigma", "slack")), (grid_fields, ("lower", "upper", "counts")))
    for table, keys in required:
        for key in keys:
            if key not in table:
                raise ValueError(f"{path}: header has no {key}= field")
    spec = GridSpec(
        lower=[float(v) for v in grid_fields["lower"].split(",")],
        upper=[float(v) for v in grid_fields["upper"].split(",")],
        counts=[int(v) for v in grid_fields["counts"].split(",")],
    )
    n = spec.dimension
    if data.shape != (spec.point_count, n + 1):
        raise ValueError(f"{path}: expected {spec.point_count} data rows of {n + 1} columns")
    for i, ax in enumerate(spec.axes()):
        along = [1] * n
        along[i] = -1
        if not np.all(data[:, i].reshape(spec.counts) == ax.reshape(along)):
            raise ValueError(f"{path}: data coordinates do not match the declared grid")
    meta = MaskMetadata(
        sigma=float(fields["sigma"]),
        slack=float(fields["slack"]),
        eps0=float(fields["eps0"]) if "eps0" in fields else None,
        point_count=int(fields["points"]) if "points" in fields else None,
    )
    return RegionMask(grid=spec, membership=data[:, n] != 0.0, metadata=meta)


def write_mask_pgm(mask: RegionMask, path: str):
    """Binary PGM (P5) for 2-D masks: 255 = member, row 0 = maximum x2."""
    if mask.grid.dimension != 2:
        raise DimensionMismatchError("PGM output is only defined for 2-D masks")
    c1, c2 = mask.grid.counts
    img = np.where(mask.membership.reshape(c1, c2), 255, 0).astype(np.uint8)
    pixels = img.T[::-1, :]  # rows top-down = x2 descending, columns = x1 ascending
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (c1, c2))
        fh.write(pixels.tobytes())
