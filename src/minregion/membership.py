"""Candidate-minimizer membership tests.

A point x_star outside the uncertainty set can be a minimizer of
f_known + f_unknown only if some subgradient g of f_known at x_star and some
point x_u in the uncertainty set satisfy

    <g, u(x_star, x_u)> / ||x_star - x_u||  <=  -sigma,

where u(x1, x2) is the unit vector from x2 toward x1 and sigma is the
strong-convexity constant of the unknown term.  classify_points decides this
for a batch of query points and is the only decision path: classify_point,
the grid scanner and the necessity oracle each reduce its per-generator
results.  For ball sets the minimum of the score over the whole ball has a
closed form (ball_score_infimum), which also yields the minimizing x_u; for
finite sets it is the minimum over the listed points.  Points inside the
closed set are always candidates (an admissible unknown term minimizing
there can be constructed directly), so they are classified member without a
score.  evaluate_general checks the condition independently, over explicit
candidate lists, as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPointsError,
    DimensionMismatchError,
    InsideBallError,
    NonFiniteError,
)
from .funcmodel import KINK_MATCH_ATOL, KnownFunction, _smooth_gradient, subdifferential
from .geometry import Ball, as_vector

DEFAULT_THETA_STEPS = 2048  # retired sweep resolution, still echoed in reports
DEFAULT_SLACK = 1e-9  # additive slack on the -sigma threshold, keeps the region closed
BLOCK_ROWS = 8192  # query rows per classify_points call in scans and campaigns; bounds memory


@dataclass(frozen=True)
class FinitePointSet:
    """Finitely many candidate minimizer locations for the unknown term."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("a finite point set needs a nonempty (k, n) array of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("finite point set entries must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def contains(self, x) -> bool:
        x = as_vector(x)
        if x.shape[0] != self.dimension:
            raise DimensionMismatchError("point dimension does not match the set")
        return bool(np.any(np.all(self.points == x, axis=1)))


@dataclass(frozen=True)
class UncertaintySet:
    """Where the unknown term's minimizer may lie, plus its convexity constant."""

    region: object  # Ball | FinitePointSet
    sigma: float

    def __post_init__(self):
        if not isinstance(self.region, (Ball, FinitePointSet)):
            raise TypeError("region must be a Ball or a FinitePointSet")
        sigma = float(self.sigma)
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def dimension(self) -> int:
        return self.region.dimension

    def contains(self, x) -> bool:
        return self.region.contains(x)


@dataclass(frozen=True)
class Witness:
    """Candidate pair (x_u, g) attaining a verdict's best_score."""

    x_u: np.ndarray | None = None
    g: np.ndarray | None = None


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership test at one query point.

    best_score is the smallest pairwise score among the candidates examined
    (absent when there were none).  interior marks verdicts from the
    inside-the-set rule, which carry no witness.
    """

    member: bool
    best_score: float | None = None
    witness: Witness | None = None
    interior: bool = False


def ball_score_infimum(G, X, ball: Ball, sigma: float, slack: float = DEFAULT_SLACK):
    """Exact minimum of the pair score over the whole ball, row by row.

    Row i pairs a nonzero generator G[i] with a query point X[i] strictly
    outside the ball (drop zero rows first); a single row of X is paired
    with every row of G.
    Inversion about x* maps the ball to the ball with center
    (c - x*)/((d - eps0)(d + eps0)) and radius eps0/((d - eps0)(d + eps0)),
    and turns the score into -<g, w>, which is linear in the image point w.
    Its minimum is therefore attained where the image ball is tangent to a
    plane normal to g:

        score = -(||g|| eps0 + <g, c - x*>) / ((d - eps0)(d + eps0)),
        w*    = (c - x* + eps0 g/||g||) / ((d - eps0)(d + eps0)),
        x_u   = x* + w*/||w*||^2,

    with d = ||c - x*||; x_u lies on the sphere.  Returns (member, score,
    x_u), where member is the division-free test

        ||g|| eps0 + <g, c - x*>  >=  (sigma - slack)(d - eps0)(d + eps0).
    """
    eps0 = ball.radius
    delta = ball.center - X
    d = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    gap = (d - eps0) * (d + eps0)
    g_norm = np.sqrt(np.einsum("ij,ij->i", G, G))
    lift = g_norm * eps0 + np.einsum("ij,ij->i", G, delta)
    member = lift >= (float(sigma) - float(slack)) * gap
    w = (delta + (eps0 / g_norm)[:, None] * G) / gap[:, None]
    x_u = X + w / np.einsum("ij,ij->i", w, w)[:, None]
    return member, -lift / gap, x_u


def check_theta_steps(theta_steps) -> int:
    """Validate the retired sweep resolution, which no longer decides anything."""
    theta_steps = int(theta_steps)
    if theta_steps < 2:
        raise ValueError(f"theta_steps must be >= 2, got {theta_steps}")
    return theta_steps


def _visible_cap_candidates(
    x_star: np.ndarray, ball: Ball, samples: int, seed: int
) -> np.ndarray:
    """Boundary points visible from x_star, discretized.

    In the plane the visible cap is an arc and is sampled uniformly and
    inclusively (shrunk by a relative 1e-12 so the closed tangency test is
    float-safe).  In higher dimensions the sphere is sampled with a seeded
    normal-direction scheme and filtered to the cap, with the nearest
    boundary point always included.
    """
    center = ball.center
    radius = ball.radius
    rel = x_star - center
    d = float(np.linalg.norm(rel))
    t_max = float(np.arccos(radius / d))
    if ball.dimension == 2:
        base = float(np.arctan2(rel[1], rel[0]))
        psi = base + np.linspace(
            -t_max * (1.0 - 1e-12), t_max * (1.0 - 1e-12), int(samples)
        )
        return center + radius * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((int(samples), ball.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = center + radius * dirs
    visible = (pts - center) @ rel >= radius**2
    nearest = center + radius * (rel / d)
    return np.vstack([nearest, pts[visible]])


def evaluate_general(
    f: KnownFunction,
    x_star,
    uset: UncertaintySet,
    *,
    slack: float = DEFAULT_SLACK,
    boundary_samples: int = 10_000,
    sample_seed: int = 0,
) -> MembershipVerdict:
    """Membership by direct minimization over explicit candidate pairs.

    Candidates are (x_u, g) with x_u in the finite set, or on the visible
    boundary cap for a ball, and g a subdifferential generator, restricted
    to pairs with <g, u(x_star, x_u)> < 0.  The point is a member iff the
    minimal pair score is <= -sigma + slack; with no admissible candidates
    the verdict is non-member with no score.  x_star must lie outside the
    set (classify_point handles interior points).
    """
    x_star = as_vector(x_star)
    if x_star.shape[0] != uset.dimension or f.dimension != uset.dimension:
        raise DimensionMismatchError("function, point, and set dimensions must agree")
    region = uset.region
    if isinstance(region, Ball):
        if region.contains(x_star):
            raise InsideBallError("evaluate_general requires x_star outside the ball")
        candidates = _visible_cap_candidates(
            x_star, region, int(boundary_samples), int(sample_seed)
        )
    else:
        if region.contains(x_star):
            raise CoincidentPointsError(
                "x_star coincides with a set point; classify_point handles that case"
            )
        candidates = region.points
    threshold = -uset.sigma + float(slack)
    best_score = None
    best_witness = None
    diff = x_star - candidates  # (M, n)
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    units = diff / dist[:, None]
    for g in subdifferential(f, x_star).generators:
        num = units @ g
        admissible = num < 0.0
        if not bool(admissible.any()):
            continue
        scores = num[admissible] / dist[admissible]
        k = int(np.argmin(scores))
        if best_score is None or scores[k] < best_score:
            best_score = float(scores[k])
            best_witness = Witness(x_u=candidates[admissible][k], g=g)
    if best_score is None:
        return MembershipVerdict(member=False)
    return MembershipVerdict(
        member=bool(best_score <= threshold), best_score=best_score, witness=best_witness
    )


@dataclass(frozen=True)
class GeneratorVerdicts:
    """Per-generator results of classify_points over N query rows.

    interior[i] marks row i as inside the closed set; such rows own no
    generators.  Every other row owns its subdifferential generators, in
    declared order (zero ones are dropped for balls, having no descent
    direction): generator j belongs to row owner[j], is g[j], reaches its
    lowest score score[j] at the set point x_u[j], and passes iff member[j].
    A finite set with no admissible point for a generator gives score inf.
    """

    interior: np.ndarray
    owner: np.ndarray
    g: np.ndarray
    member: np.ndarray
    score: np.ndarray
    x_u: np.ndarray


def _check_finite(values: np.ndarray, rows: np.ndarray, reason: str):
    """Raise NonFiniteError for the first row of values holding a non-finite entry."""
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite.reshape(values.shape[0], -1).all(axis=1)))
        raise NonFiniteError(int(rows[first]), reason)


def _generator_table(f: KnownFunction, X: np.ndarray, rows: np.ndarray):
    """(owner, Xg, G): the subdifferential generators G at X[rows], row by row.

    Generator i belongs to row owner[i] and is paired with Xg[i] =
    X[owner[i]].  A row at a registered kink (the first within
    KINK_MATCH_ATOL, as in KnownFunction.kink_at) gets the smooth gradient
    plus each generator of that kink; every other row gets the smooth
    gradient alone.
    """
    Xr = X if rows.size == X.shape[0] else X[rows]
    grad = _smooth_gradient(f, Xr)
    kink_of = np.full(rows.size, -1)
    for j, k in enumerate(f.kinks):
        near = np.max(np.abs(Xr - k.point), axis=1) <= KINK_MATCH_ATOL
        kink_of[near & (kink_of < 0)] = j
    if np.all(kink_of < 0):
        return rows, Xr, grad
    owners, gens = [rows[kink_of < 0]], [grad[kink_of < 0]]
    for j, k in enumerate(f.kinks):
        for gen in k.generators:
            owners.append(rows[kink_of == j])
            gens.append(grad[kink_of == j] + gen)
    owner = np.concatenate(owners)
    return owner, X[owner], np.concatenate(gens)


def _point_chunks(rows: int, points: np.ndarray):
    """(start, columns) chunks of points, each about BLOCK_ROWS row-point pairs.

    columns is the chunk transposed to (n, chunk), so columns[j] holds the
    chunk's j-th coordinates.  A chunk of fewer than 6 points costs more in
    its argmin and take_along_axis than it saves in loop steps, so with
    rows > BLOCK_ROWS // 6 (a scan block, a campaign block) every chunk is
    one point.
    """
    step = BLOCK_ROWS // max(1, rows)
    if step < 6:
        step = 1
    for k in range(0, points.shape[0], step):
        yield k, points[k : k + step].T


def _finite_set_interior(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows of X equal to a point of the set, compared one coordinate column at a time."""
    xcols = X.T.copy()[:, :, None]  # (n, N, 1): contiguous coordinate columns
    interior = np.zeros((X.shape[0], 1), dtype=bool)
    for _, pcols in _point_chunks(X.shape[0], points):
        equal = xcols[0] == pcols[0]
        for x, p in zip(xcols[1:], pcols[1:]):
            equal &= x == p
        interior |= equal if equal.shape[1] == 1 else equal.any(axis=1, keepdims=True)
    return interior[:, 0]


def _finite_set_scores(G, Xg, points: np.ndarray, threshold: float):
    """Lowest admissible pair score over the points for each pair (G[i], Xg[i]).

    Pairs with <g, u> >= 0 are not admissible; a row with none scores inf,
    and ties keep the first point.  Points go in chunks of about BLOCK_ROWS
    row-point pairs (see _point_chunks): one point per chunk for more than
    BLOCK_ROWS // 6 rows, BLOCK_ROWS // N points in (N, chunk) arrays,
    followed by an argmin, for fewer rows.  The arithmetic runs on
    contiguous coordinate columns, and the coordinate sums go left to right:

        dist = sqrt(d_0 d_0 + d_1 d_1 + ...),  d_j = x_j - p_j,
        num  = (d_0/dist) g_0 + (d_1/dist) g_1 + ...,
        score = num/dist where num < 0.

    Returns (member, score, x_u) with member = score <= threshold.
    """
    best = np.full(Xg.shape[0], np.inf)
    arg = np.zeros(Xg.shape[0], dtype=np.intp)
    xcols = Xg.T.copy()[:, :, None]  # (n, N, 1): contiguous coordinate columns
    gcols = G.T.copy()[:, :, None]
    for k, pcols in _point_chunks(Xg.shape[0], points):
        diff = [x - p for x, p in zip(xcols, pcols)]
        dist = np.square(diff[0])
        for d in diff[1:]:
            dist += np.square(d)
        np.sqrt(dist, out=dist)
        for d, g in zip(diff, gcols):  # d becomes (d/dist)*g in place
            d /= dist
            d *= g
        num = diff[0]
        for d in diff[1:]:
            num += d
        score = num / dist
        np.copyto(score, np.inf, where=~(num < 0.0))
        first = 0
        if score.shape[1] > 1:
            first = np.argmin(score, axis=1)
            score = np.take_along_axis(score, first[:, None], axis=1)
        better = score[:, 0] < best
        np.copyto(best, score[:, 0], where=better)
        np.copyto(arg, k + first, where=better)
    return best <= threshold, best, points[arg]


def classify_points(
    f: KnownFunction, uset: UncertaintySet, X, slack: float = DEFAULT_SLACK
) -> GeneratorVerdicts:
    """Membership kernel: score every subdifferential generator of every row of X.

    X is an (N, n) array of query points.  Rows inside the closed set are
    marked interior; every other row contributes one entry per generator
    (see GeneratorVerdicts), scored with ball_score_infimum for a ball and
    over the listed points for a finite set.  A row is a member iff it is
    interior or any of its generators passes.  Raises NonFiniteError, naming
    the row, for a non-finite query row, a gradient that overflows, or a
    score left undefined by overflow.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != uset.dimension or f.dimension != uset.dimension:
        raise DimensionMismatchError("function, point, and set dimensions must agree")
    _check_finite(X, np.arange(X.shape[0]), "coordinates are not finite")
    region = uset.region
    if isinstance(region, Ball):
        delta = region.center - X
        interior = np.sqrt(np.einsum("ij,ij->i", delta, delta)) <= region.radius
    else:
        interior = _finite_set_interior(X, region.points)
    # overflow is checked below and reported as NonFiniteError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        owner, Xg, G = _generator_table(f, X, np.flatnonzero(~interior))
        _check_finite(G, owner, "gradient overflows")
        if isinstance(region, Ball):
            keep = np.einsum("ij,ij->i", G, G) > 0.0  # zero ones have no descent direction
            if not keep.all():
                owner, Xg, G = owner[keep], Xg[keep], G[keep]
            member, score, x_u = ball_score_infimum(G, Xg, region, uset.sigma, slack)
        else:
            member, score, x_u = _finite_set_scores(
                G, Xg, region.points, -uset.sigma + float(slack)
            )
    if np.isnan(score).any():
        raise NonFiniteError(int(owner[np.argmax(np.isnan(score))]), "score overflows")
    return GeneratorVerdicts(interior, owner, G, member, score, x_u)


def classify_point(
    f: KnownFunction,
    x_star,
    uset: UncertaintySet,
    theta_steps: int = DEFAULT_THETA_STEPS,
    *,
    slack: float = DEFAULT_SLACK,
    early_exit: bool = True,
) -> MembershipVerdict:
    """Full membership decision for one query point: classify_points with N = 1.

    Points inside the closed set are members by the interior rule (no
    witness).  Outside, the point is a member iff any generator passes, and
    the witness is the generator with the lowest score.  theta_steps
    (validated, >= 2) and early_exit are accepted for compatibility and
    decide nothing.
    """
    check_theta_steps(theta_steps)
    x_star = as_vector(x_star)
    res = classify_points(f, uset, x_star[None, :], slack)
    if res.interior[0]:
        return MembershipVerdict(member=True, interior=True)
    if not np.any(res.score < np.inf):
        return MembershipVerdict(member=False)
    k = int(np.argmin(res.score))
    return MembershipVerdict(
        member=bool(res.member.any()),
        best_score=float(res.score[k]),
        witness=Witness(x_u=res.x_u[k], g=res.g[k]),
    )
