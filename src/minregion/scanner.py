"""Grid scans of the candidate-minimizer region, plus mask serialization.

scan_region classifies every grid point exactly as classify_point would, in
one vectorized pass.  For ball sets both go through the same closed-form
kernel, ball_score_infimum, so their verdicts agree by construction.
Registered kink points that land on the grid fall back to the per-point
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GridMismatchError
from .funcmodel import KnownFunction
from .geometry import Ball
from .membership import (
    DEFAULT_SLACK,
    DEFAULT_THETA_STEPS,
    UncertaintySet,
    ball_score_infimum,
    check_theta_steps,
    classify_point,
    nonzero_generators,
)


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

    def cell_sizes(self) -> np.ndarray:
        return (self.upper - self.lower) / (np.asarray(self.counts) - 1)


@dataclass(frozen=True)
class MaskMetadata:
    """Scan parameters recorded with a mask; eps0 for balls, point_count for finite sets."""

    sigma: float
    theta_steps: int
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


def _grid_gradients(f: KnownFunction, pts: np.ndarray) -> np.ndarray:
    """Quadratic-part gradients for every row of pts, mirroring gradient()."""
    total = np.zeros_like(pts)
    for t in f.terms:
        total = total + 2.0 * t.weight * ((pts - t.m) @ t.Q.T)
    return total


def _kink_rows(f: KnownFunction, pts: np.ndarray) -> np.ndarray:
    rows = np.zeros(pts.shape[0], dtype=bool)
    for k in f.kinks:
        rows |= np.max(np.abs(pts - k.point), axis=1) <= 1e-12
    return rows


def _scan_ball(
    f: KnownFunction,
    uset: UncertaintySet,
    pts: np.ndarray,
    rows: np.ndarray,
    member: np.ndarray,
    slack: float,
):
    ball = uset.region
    delta = ball.center - pts
    inside = np.sqrt(np.einsum("ij,ij->i", delta, delta)) <= ball.radius
    member[rows & inside] = True
    idx = np.flatnonzero(rows & ~inside)
    grads = _grid_gradients(f, pts[idx])
    nz = nonzero_generators(grads)
    idx = idx[nz]
    member[idx] = ball_score_infimum(grads[nz], pts[idx], ball, uset.sigma, slack)[0]


def _scan_finite(
    f: KnownFunction,
    uset: UncertaintySet,
    pts: np.ndarray,
    rows: np.ndarray,
    member: np.ndarray,
    slack: float,
):
    region = uset.region
    threshold = -uset.sigma + slack
    matched = np.zeros(pts.shape[0], dtype=bool)
    for a in region.points:
        matched |= np.all(pts == a, axis=1)
    member[rows & matched] = True
    idx = np.flatnonzero(rows & ~matched)
    if idx.size == 0:
        return
    sub = pts[idx]
    grads = _grid_gradients(f, sub)
    hit = np.zeros(idx.size, dtype=bool)
    for a in region.points:
        diff = sub - a
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        units = diff / dist[:, None]
        num = np.einsum("ij,ij->i", units, grads)
        hit |= (num < 0.0) & (num / dist <= threshold)
    member[idx] = hit


def scan_region(
    f: KnownFunction,
    uset: UncertaintySet,
    spec: GridSpec,
    theta_steps: int = DEFAULT_THETA_STEPS,
    *,
    slack: float = DEFAULT_SLACK,
) -> RegionMask:
    """Classify every grid point; membership[i] matches classify_point on point i.

    theta_steps is validated and recorded in the mask metadata; it decides
    nothing.
    """
    theta_steps = check_theta_steps(theta_steps)
    if f.dimension != spec.dimension or uset.dimension != spec.dimension:
        raise DimensionMismatchError("function, set, and grid dimensions must agree")
    pts = build_grid(spec)
    member = np.zeros(pts.shape[0], dtype=bool)
    special = _kink_rows(f, pts)
    smooth_rows = ~special
    if isinstance(uset.region, Ball):
        _scan_ball(f, uset, pts, smooth_rows, member, float(slack))
        eps0, point_count = uset.region.radius, None
    else:
        _scan_finite(f, uset, pts, smooth_rows, member, float(slack))
        eps0, point_count = None, uset.region.points.shape[0]
    for i in np.flatnonzero(special):
        member[i] = classify_point(f, pts[i], uset, theta_steps, slack=slack).member
    meta = MaskMetadata(
        sigma=uset.sigma,
        theta_steps=theta_steps,
        slack=float(slack),
        eps0=eps0,
        point_count=point_count,
    )
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
    """CSV: two '#' header lines (parameters, grid), then x1,...,xn,member rows."""
    meta = mask.metadata
    size_field = (
        f"eps0={_format_float(meta.eps0)}"
        if meta.eps0 is not None
        else f"points={meta.point_count}"
    )
    grid = mask.grid
    lines = [
        f"# sigma={_format_float(meta.sigma)}, {size_field}, "
        f"theta_steps={meta.theta_steps}, slack={_format_float(meta.slack)}",
        "# grid lower=" + ",".join(_format_float(v) for v in grid.lower)
        + " upper=" + ",".join(_format_float(v) for v in grid.upper)
        + " counts=" + ",".join(str(c) for c in grid.counts),
    ]
    pts = build_grid(grid)
    for row, flag in zip(pts, mask.membership):
        lines.append(",".join(_format_float(v) for v in row) + f",{int(flag)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mask_csv(path: str) -> RegionMask:
    """Inverse of write_mask_csv; validates coordinates against the declared grid."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("#") or not lines[1].startswith("#"):
        raise ValueError(f"{path}: not a mask CSV (two '#' header lines expected)")
    fields = {}
    for part in lines[0].lstrip("# ").split(","):
        key, _, value = part.strip().partition("=")
        fields[key] = value
    grid_part = lines[1].lstrip("# ").removeprefix("grid ").split(" ")
    grid_fields = {}
    for part in grid_part:
        key, _, value = part.partition("=")
        grid_fields[key] = value
    spec = GridSpec(
        lower=[float(v) for v in grid_fields["lower"].split(",")],
        upper=[float(v) for v in grid_fields["upper"].split(",")],
        counts=[int(v) for v in grid_fields["counts"].split(",")],
    )
    n = spec.dimension
    data = np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[2:]], dtype=float
    )
    if data.shape != (spec.point_count, n + 1):
        raise ValueError(f"{path}: expected {spec.point_count} data rows of {n + 1} columns")
    if not np.array_equal(data[:, :n], build_grid(spec)):
        raise ValueError(f"{path}: data coordinates do not match the declared grid")
    meta = MaskMetadata(
        sigma=float(fields["sigma"]),
        theta_steps=int(fields["theta_steps"]),
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
