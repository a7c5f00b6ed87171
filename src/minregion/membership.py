"""Candidate-minimizer membership tests.

A point x_star outside the uncertainty set can be a minimizer of
f_known + f_unknown only if some subgradient g of f_known at x_star and some
point x_u in the uncertainty set satisfy

    <g, u(x_star, x_u)> / ||x_star - x_u||  <=  -sigma,

where u(x1, x2) is the unit vector from x2 toward x1 and sigma is the
strong-convexity constant of the unknown term.  classify_points decides this
for a batch of query points and is the only decision path: classify_point,
the grid scanner and the necessity oracle read its verdicts as they are.

Every region is a geometry.Region, balls of one radius about its .points:
a Ball is one, a FinitePointSet is balls of radius 0.  The one scorer,
_region_scores, takes the least score over the pairs whose g descends
toward the set (<g, x_star - x_u> < 0), inf where none does.  Over the
ball of radius r > 0 about p that is (<g, x_star - p> - ||g|| r) /
((d - r)(d + r)), d = ||x_star - p||, attained at a tangency point
(ball_witness).  A row is inside the closed set when its nearest p is
within r, and a zero distance, which an underflow also gives, only when
region.contains confirms it.  Points inside are members without a score.
evaluate_general checks the condition independently, over explicit
candidate lists, as a cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError
from .funcmodel import KnownFunction, generators, subdifferential
# FinitePointSet is also importable from here
from .geometry import FinitePointSet, Region, WriteOnce, _column_dot, _positive, as_vector

DEFAULT_SLACK = 1e-9  # additive slack on the -sigma threshold, keeps the region closed
BLOCK_ROWS = 8192  # query rows per classify_points call in scans and campaigns; bounds memory


class UncertaintySet(WriteOnce):
    """Where the unknown term's minimizer may lie, plus its convexity constant."""

    def __init__(self, region, sigma: float):
        if not isinstance(region, Region):
            raise TypeError("region must be a Region, such as a Ball or a FinitePointSet")
        self.region = region
        self.sigma = _positive(sigma, "sigma")

    @property
    def dimension(self) -> int:
        return self.region.dimension


def threshold(sigma: float, slack: float) -> float:
    """-sigma + slack, the highest score of a member outside the set; the one owner of the slack rule.

    ValueError unless the slack is finite, >= 0 and below sigma: a negative
    slack calls true minimizers non-members, and one at or above sigma
    passes gradients that point away from the set.
    """
    slack = float(slack)
    if not (np.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be a finite number >= 0, got {slack!r}")
    if not slack < sigma:
        raise ValueError(f"slack must be below the classifying sigma {sigma!r}, got {slack!r}")
    return -sigma + slack


class Witness(WriteOnce):
    """Candidate pair (x_u, g) attaining a verdict's best_score."""

    def __init__(self, x_u: np.ndarray, g: np.ndarray):
        self.x_u = x_u
        self.g = g


class MembershipVerdict(WriteOnce):
    """Outcome of a membership test at one query point.

    best_score is the smallest score over the pairs whose g descends toward
    the set (absent when there are none).  interior marks verdicts from the
    inside-the-set rule, which carry no witness.
    """

    def __init__(self, member: bool, best_score: float | None = None, witness: Witness | None = None,
                 interior: bool = False):
        self.member = member
        self.best_score = best_score
        self.witness = witness
        self.interior = interior


def ball_witness(g, x_star, center, radius: float) -> np.ndarray:
    """The point of the ball (center, radius) where the pair score of (g, x_star) is least.

    Inversion about x* maps the ball to a ball and the score to -<g, w>,
    linear in the image point w, least where the image touches a plane
    normal to g: w* = (c - x* + r g/||g||) / ((d - r)(d + r)), d = ||c - x*||.
    Inverting back gives x_u = x* + w*/||w*||^2.  g is nonzero and x_star
    lies strictly outside the ball.
    """
    delta = center - x_star
    d = np.sqrt(_column_dot(delta, delta))
    w = (delta + (radius / np.sqrt(_column_dot(g, g))) * g) / ((d - radius) * (d + radius))
    return x_star + w / _column_dot(w, w)


def _visible_cap_candidates(x_star: np.ndarray, region: Region, samples: int) -> np.ndarray:
    """Points on the boundary of the one ball of region (radius > 0) visible from x_star, discretized.

    In the plane the visible cap is an arc and is sampled uniformly and
    inclusively (shrunk by a relative 1e-12 so the closed tangency test is
    float-safe).  In higher dimensions the sphere is sampled with a
    normal-direction scheme under a fixed seed and filtered to the cap, with
    the nearest boundary point always included.
    """
    center, radius = region.points[0], region.radius
    rel = x_star - center
    d = float(np.linalg.norm(rel))
    t_max = float(np.arccos(radius / d))
    if region.dimension == 2:
        base = float(np.arctan2(rel[1], rel[0]))
        psi = base + np.linspace(
            -t_max * (1.0 - 1e-12), t_max * (1.0 - 1e-12), int(samples)
        )
        return center + radius * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((int(samples), region.dimension))
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
) -> MembershipVerdict:
    """Membership by direct minimization over explicit candidate pairs.

    Candidates are (x_u, g) with x_u in the finite set, or on the visible
    boundary cap for a ball, and g a subdifferential generator, restricted
    to pairs with <g, u(x_star, x_u)> < 0.  The point is a member iff the
    minimal pair score is <= threshold(sigma, slack); with no admissible
    candidates the verdict is non-member with no score.  x_star must lie
    outside the set (classify_point handles interior points).
    """
    x_star = as_vector(x_star)
    if x_star.shape[0] != uset.dimension or f.dimension != uset.dimension:
        raise ValueError("function, point, and set dimensions must agree")
    limit = threshold(uset.sigma, slack)
    if not boundary_samples >= 1:
        raise ValueError(f"boundary_samples must be >= 1, got {boundary_samples!r}")
    region = uset.region
    if region.contains(x_star):
        raise ValueError("evaluate_general requires x_star outside the ball" if region.radius
                         else "x_star coincides with a set point; classify_point handles that case")
    candidates = (
        _visible_cap_candidates(x_star, region, int(boundary_samples)) if region.radius else region.points
    )
    best_score = None
    best_witness = None
    diff = x_star - candidates  # (M, n); a candidate at x_star itself has no direction, so it goes
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    candidates, diff, dist = candidates[dist > 0.0], diff[dist > 0.0], dist[dist > 0.0]
    units = diff / dist[:, None]
    for g in subdifferential(f, x_star):
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
        member=bool(best_score <= limit), best_score=best_score, witness=best_witness
    )


class RowVerdicts(WriteOnce):
    """classify_points' results, one entry per query row.

    interior[i] marks row i inside the closed set, a member with score inf.
    Any other row is scored over its generators (funcmodel.generators):
    score[i] is the lowest score over the set, inf when no generator has one,
    g[i] the first generator in declared order that attains it, and member[i]
    whether any passes.
    """

    def __init__(self, interior: np.ndarray, member: np.ndarray, score: np.ndarray, g: np.ndarray):
        self.interior = interior
        self.member = member
        self.score = score
        self.g = g


def _raise_first(bad: np.ndarray, reason: str, rows=None):
    """Raise NonFiniteError for the first row i of bad (N, ...) with a True, naming rows[i] (default i)."""
    if bad.any():
        first = int(np.argmax(bad)) // (bad.size // len(bad))
        raise NonFiniteError(first if rows is None else int(rows[first]), reason)


def _point_chunks(rows: int, points: np.ndarray):
    """The points as (n, chunk, 1) coordinate columns, about BLOCK_ROWS row-point pairs each.

    Against (n, rows) query columns a chunk broadcasts to (chunk, rows)
    arrays, reduced over the chunk axis one contiguous row at a time, so
    even a chunk of two points costs less per pair than two one-point
    chunks; a scan block of BLOCK_ROWS rows takes one point per chunk.
    """
    step = max(1, BLOCK_ROWS // max(1, rows))
    for k in range(0, points.shape[0], step):
        yield points[k : k + step].T[:, :, None]


def _fold(ufunc, values: np.ndarray) -> np.ndarray:
    """ufunc reduced over the chunk axis of (chunk, rows) values; a view for one-point chunks."""
    return values[0] if values.shape[0] == 1 else ufunc.reduce(values, axis=0)


def _pair_scores(xcols, gcols, pcols, gr, radius: float, work: np.ndarray):
    """(score, num, near) of every (query, generator, ball) pair, by broadcasting.

    xcols, gcols and pcols have the coordinate as their first axis.  With
    d_j = x_j - p_j, num = d_0 g_0 + d_1 g_1 + ... and dist2 = d_0 d_0 + ...,
    summed left to right, the score is num / dist2 and near is dist2.  At
    radius r > 0, num loses gr = ||g|| r (leaving the least <g, x* - x_u> over
    the ball), near is d = sqrt(dist2) and the score num / ((d - r)(d + r)).
    The pair is admissible iff num < 0.  work, of shape (2n + 1,) + the pair
    shape at r = 0 and (2n + 3,) + it at r > 0, receives every intermediate,
    so nothing is allocated.
    """
    n = len(xcols)
    terms = work[: 2 * n].reshape((2, n) + work.shape[1:])  # terms[0, j] = d_j g_j, terms[1, j] = d_j d_j
    d = np.subtract(xcols, pcols, out=terms[1])
    np.multiply(d, gcols, out=terms[0])
    np.multiply(d, d, out=d)
    sums = terms[:, 0]  # (num, dist2)
    for j in range(1, n):
        sums += terms[:, j]
    num, near = sums
    denominator = near
    if radius:
        np.subtract(num, gr, out=num)
        near = np.sqrt(near, out=work[2 * n + 1])
        denominator = np.add(near, radius, out=work[2 * n])
        denominator *= np.subtract(near, radius, out=work[2 * n + 2])
    return np.divide(num, denominator, out=work[2 * n]), num, near


def _region_scores(G, X, points: np.ndarray, radius: float) -> tuple:
    """(score, nearest) per column of the (n, N) generators G and query points X.

    score is the lowest admissible pair score over the balls of radius
    `radius` about the points, inf with none; nearest is the distance to the
    nearest point, 0 also where every |d_j| is below about 1e-162, since
    d_j d_j underflows.  Points go in chunks of about BLOCK_ROWS row-point
    pairs (_point_chunks), and no pair is masked: best is the np.fmin of
    every score, low the minimum of every num.  An admissible score is
    <= -0.0 and any other is >= -0.0 or nan, which np.fmin skips; so a row
    with low < 0 has an admissible pair, and its lowest admissible score is
    best in value and -|best| in sign too.

    A pair whose num or near overflows (num includes -||g|| r) scores nan.
    With one point nothing is folded, so low and nearest show it.  With
    more, when n reach^2 and n max|g|^2 are below 2^1000, reach bounding
    every |d_j| + r, nothing can overflow; otherwise high, the maximum of
    every num and near, is kept too.
    """
    n, rows = X.shape
    single = len(points) == 1
    reach = 0.0 if single else float(np.abs(X).max(initial=0.0)) + float(np.abs(points).max()) + radius
    steep = 0.0 if single else float(np.abs(G).max(initial=0.0))
    limit = 2.0**1000 / n
    exposed = not (reach * reach < limit and steep * steep < limit)
    gr = _radius_term(G, radius)
    xcols, gcols = X[:, None, :], G[:, None, :]  # against (n, chunk, 1) points
    best = work = None
    for pcols in _point_chunks(rows, points):
        if work is None:
            work = np.empty((2 * n + (3 if radius else 1), pcols.shape[1], rows))
        score, num, near = _pair_scores(xcols, gcols, pcols, gr, radius, work[:, : pcols.shape[1]])
        folds = _fold(np.fmin, score), _fold(np.minimum, num), _fold(np.minimum, near)
        if best is None:  # the first chunk starts the running minima, copied out of work if it is reused
            best, low, nearest = folds if single else (np.array(fold) for fold in folds)
            high = (nearest,) if single else None
            if exposed:
                high = np.array([_fold(np.maximum, num), _fold(np.maximum, near)])
            continue
        np.fmin(best, folds[0], out=best)
        np.minimum(low, folds[1], out=low)
        np.minimum(nearest, folds[2], out=nearest)
        if exposed:
            np.maximum(high[0], _fold(np.maximum, num), out=high[0])
            np.maximum(high[1], _fold(np.maximum, near), out=high[1])
    score = np.where(low < 0.0, np.copysign(best, -1.0, out=best), np.inf)
    if high is not None:
        finite = np.isfinite(low)
        for h in high:
            finite &= np.isfinite(h)
        score[~finite] = np.nan
    return score, nearest if radius else np.sqrt(nearest, out=nearest)


def _radius_term(G, radius: float):
    """||g|| r for each generator column of G (n, M), None at radius 0."""
    return np.sqrt(_column_dot(G, G)) * radius if radius else None


def classify_points(
    f: KnownFunction, uset: UncertaintySet, X, slack: float = DEFAULT_SLACK
) -> RowVerdicts:
    """Membership kernel: one verdict per row of X, an (N, n) array (see RowVerdicts).

    The kernel runs on X.T as an (n, N) C-contiguous block, which costs no
    copy when X is the transpose of such a block (a scan block).  Every
    row's generators (funcmodel.generators) are scored in one _region_scores
    pass, which also tells the rows inside the set.  A row is a member when
    its score is <= threshold(sigma, slack), which raises ValueError for a
    bad slack before any row is scored.  NonFiniteError names a non-finite
    query row, else the first row outside the set with an overflowing
    generator, else the first with an overflowing score (inside, none raise).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != uset.dimension or f.dimension != uset.dimension:
        raise ValueError("function, point, and set dimensions must agree")
    limit = threshold(uset.sigma, slack)
    cols = np.ascontiguousarray(X.T)
    _raise_first(~np.isfinite(cols).all(axis=0), "coordinates are not finite")
    region = uset.region
    points, radius = region.points, region.radius
    # overflow is checked below and reported as NonFiniteError, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G, owner = generators(f, cols)
        folded = owner.size > cols.shape[1]
        score, nearest = _region_scores(G, cols[:, owner] if folded else cols, points, radius)
        bad = ~np.isfinite(G).all(axis=0)
        if folded:  # a stable sort puts each row's first nan, else its first least score, at its start
            starts = np.searchsorted(owner, np.arange(cols.shape[1]))
            pick = np.lexsort((score, ~np.isnan(score), owner))[starts]  # as np.argmin picks
            score, nearest, G, bad = score[pick], nearest[pick], G[:, pick], np.logical_or.reduceat(bad, starts)
        interior = nearest <= radius
        todo = nearest == 0.0  # a point of the set, or an offset whose square underflows
        while todo.any():  # one contains call per distinct row: a campaign repeats set points
            x = cols[:, np.argmax(todo)]
            same = (cols == x[:, None]).all(axis=0)  # rows equal to x have its zero distance
            interior[same] = region.contains(x)
            todo &= ~same
        outside = ~interior
        _raise_first(bad & outside, "gradient overflows")
        _raise_first(np.isnan(score) & outside, "score overflows")
        member = (score <= limit) | interior
    np.copyto(score, np.inf, where=interior)
    return RowVerdicts(interior, member, score, G.T)


def classify_point(
    f: KnownFunction,
    x_star,
    uset: UncertaintySet,
    theta_steps=None,  # ignored; bench/tracing.py still passes it positionally
    *,
    slack: float = DEFAULT_SLACK,
    early_exit: bool = True,
) -> MembershipVerdict:
    """Full membership decision for one query point: row 0 of classify_points.

    Points inside the closed set are members by the interior rule (no
    witness).  Outside, a row with an admissible pair reports its generator
    g with the first ball where its score is attained: the point itself at
    radius 0, else the tangency point on that ball (ball_witness).  A row
    with none is a non-member without a score.  early_exit is accepted for
    compatibility and decides nothing.
    """
    x_star = as_vector(x_star)
    res = classify_points(f, uset, x_star[None, :], slack)
    if res.interior[0]:
        return MembershipVerdict(member=True, interior=True)
    g, score = res.g[0], res.score[0]
    if score == np.inf:
        return MembershipVerdict(member=False)
    points, radius = uset.region.points, uset.region.radius
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        work = np.empty((2 * points.shape[1] + (3 if radius else 1), points.shape[0]))
        gr = _radius_term(g[:, None], radius)
        scores, num, _ = _pair_scores(x_star[:, None], g[:, None], points.T, gr, radius, work)
        p = points[int(np.argmax((num < 0.0) & (scores == score)))]
        x_u = ball_witness(g, x_star, p, radius) if radius else p
    return MembershipVerdict(
        member=bool(res.member[0]), best_score=float(score), witness=Witness(x_u=x_u, g=g)
    )
