"""Candidate-minimizer membership tests.

A point x_star outside the uncertainty set can be a minimizer of
f_known + f_unknown only if some subgradient g of f_known at x_star and some
point x_u in the uncertainty set satisfy

    <g, u(x_star, x_u)> / ||x_star - x_u||  <=  -sigma,

where u(x1, x2) is the unit vector from x2 toward x1 and sigma is the
strong-convexity constant of the unknown term.  classify_points decides this
for a batch of query points and is the only decision path: it returns one
verdict, score and generator per query row, which classify_point, the grid
scanner and the necessity oracle read as they are.  For ball sets the
minimum of the score over the whole ball has a closed form
(ball_score_infimum); for finite sets it is the minimum of <g, d>/||d||^2,
d = x_star - x_u, over the listed points.  The set point attaining the
minimum is derived only by classify_point, for the row it reports
(ball_witness, or the first finite-set point with that score).  Points
inside the closed set are always candidates (an admissible unknown term
minimizing there can be constructed directly), so they are classified
member without a score.
evaluate_general checks the condition independently, over explicit
candidate lists, as a cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError
from .funcmodel import KnownFunction, gradient, kink_index, subdifferential
from .geometry import Ball, WriteOnce, _column_dot, as_vector

DEFAULT_SLACK = 1e-9  # additive slack on the -sigma threshold, keeps the region closed
BLOCK_ROWS = 8192  # query rows per classify_points call in scans and campaigns; bounds memory


class FinitePointSet(WriteOnce):
    """Finitely many candidate minimizer locations for the unknown term."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("a finite point set needs a nonempty (k, n) array of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("finite point set entries must be finite")
        pts.flags.writeable = False
        self.points = pts

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def contains(self, x) -> bool:
        x = as_vector(x)
        if x.shape[0] != self.dimension:
            raise ValueError("point dimension does not match the set")
        return bool(np.any(np.all(self.points == x, axis=1)))


class UncertaintySet(WriteOnce):
    """Where the unknown term's minimizer may lie, plus its convexity constant."""

    def __init__(self, region, sigma: float):
        if not isinstance(region, (Ball, FinitePointSet)):
            raise TypeError("region must be a Ball or a FinitePointSet")
        sigma = float(sigma)
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.region = region
        self.sigma = sigma

    @property
    def dimension(self) -> int:
        return self.region.dimension

    def contains(self, x) -> bool:
        return self.region.contains(x)


class Witness(WriteOnce):
    """Candidate pair (x_u, g) attaining a verdict's best_score."""

    def __init__(self, x_u: np.ndarray, g: np.ndarray):
        self.x_u = x_u
        self.g = g


class MembershipVerdict(WriteOnce):
    """Outcome of a membership test at one query point.

    best_score is the smallest pairwise score among the candidates examined
    (absent when there were none).  interior marks verdicts from the
    inside-the-set rule, which carry no witness.
    """

    def __init__(self, member: bool, best_score: float | None = None, witness: Witness | None = None,
                 interior: bool = False):
        self.member = member
        self.best_score = best_score
        self.witness = witness
        self.interior = interior


def ball_score_infimum(G, g_norm, delta, d, ball: Ball, sigma: float, slack: float = DEFAULT_SLACK):
    """Exact minimum of the pair score over the whole ball, one pair per column.

    G (n, M) holds nonzero generators as coordinate columns and g_norm their
    norms; delta (n, M) holds c - x* for query points x* strictly outside
    the ball, and d = ||c - x*||.  Inversion about x* maps the ball to the
    ball with center (c - x*)/((d - eps0)(d + eps0)) and radius
    eps0/((d - eps0)(d + eps0)), and turns the score into -<g, w>, which is
    linear in the image point w.  Its minimum is therefore attained where
    the image ball is tangent to a plane normal to g (ball_witness):

        score = -(||g|| eps0 + <g, c - x*>) / ((d - eps0)(d + eps0)).

    Returns (member, score), where member is the division-free test

        ||g|| eps0 + <g, c - x*>  >=  (sigma - slack)(d - eps0)(d + eps0).
    """
    eps0 = ball.radius
    gap = (d - eps0) * (d + eps0)
    lift = g_norm * eps0 + _column_dot(G, delta)
    member = lift >= (float(sigma) - float(slack)) * gap
    return member, -lift / gap


def ball_witness(g, x_star, ball: Ball) -> np.ndarray:
    """The ball point where the pair score of (g, x_star) attains ball_score_infimum.

    The image ball touches the plane at w* = (c - x* + eps0 g/||g||) /
    ((d - eps0)(d + eps0)); inverting back gives x_u = x* + w*/||w*||^2, on
    the sphere.  g is nonzero and x_star lies strictly outside the ball.
    """
    eps0 = ball.radius
    delta = ball.center - x_star
    d = np.sqrt(_column_dot(delta, delta))
    w = (delta + (eps0 / np.sqrt(_column_dot(g, g))) * g) / ((d - eps0) * (d + eps0))
    return x_star + w / _column_dot(w, w)


def _visible_cap_candidates(x_star: np.ndarray, ball: Ball, samples: int) -> np.ndarray:
    """Boundary points visible from x_star, discretized.

    In the plane the visible cap is an arc and is sampled uniformly and
    inclusively (shrunk by a relative 1e-12 so the closed tangency test is
    float-safe).  In higher dimensions the sphere is sampled with a
    normal-direction scheme under a fixed seed and filtered to the cap, with
    the nearest boundary point always included.
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
    rng = np.random.default_rng(0)
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
        raise ValueError("function, point, and set dimensions must agree")
    region = uset.region
    if isinstance(region, Ball):
        if region.contains(x_star):
            raise ValueError("evaluate_general requires x_star outside the ball")
        candidates = _visible_cap_candidates(x_star, region, int(boundary_samples))
    else:
        if region.contains(x_star):
            raise ValueError("x_star coincides with a set point; classify_point handles that case")
        candidates = region.points
    threshold = -uset.sigma + float(slack)
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
        member=bool(best_score <= threshold), best_score=best_score, witness=best_witness
    )


class RowVerdicts(WriteOnce):
    """classify_points' results, one entry per query row.

    interior[i] marks row i inside the closed set, a member with score inf.
    Any other row is scored over its generators (the smooth gradient, or at a
    registered kink each kink generator shifted by it): score[i] is the lowest
    score over the set, inf when no generator has one, g[i] the first generator
    in declared order that attains it, and member[i] whether any passes.
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


def _finite_set_interior(cols: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows of the (n, N) column block equal to a point of the set.

    Only rows whose first coordinate is some point's first coordinate (a
    binary search) can be; those are compared in full, one coordinate at a
    time.
    """
    interior = np.zeros(cols.shape[1], dtype=bool)
    first = np.sort(points[:, 0])
    near = first[np.minimum(np.searchsorted(first, cols[0]), first.size - 1)]
    hits = np.flatnonzero(near == cols[0])
    if hits.size:
        sub = cols[:, hits]
        equal_any = np.zeros(hits.size, dtype=bool)
        for pcols in _point_chunks(hits.size, points):
            equal = sub[0] == pcols[0]
            for x, p in zip(sub[1:], pcols[1:]):
                equal &= x == p
            equal_any |= _fold(np.logical_or, equal)
        interior[hits] = equal_any
    return interior


def _pair_scores(xcols, gcols, pcols, work: np.ndarray):
    """(score, num, dist2) of every (query, generator, set point) pair, by broadcasting.

    xcols, gcols and pcols have the coordinate as their first axis.  With
    d_j = x_j - p_j, num = d_0 g_0 + d_1 g_1 + ... and
    dist2 = d_0 d_0 + d_1 d_1 + ..., both summed left to right, and the pair
    score <g, u(x*, x_u)> / ||x* - x_u|| is num / dist2.  The pair is
    admissible iff num < 0.  work, of shape (2n + 1,) + the pair shape,
    receives every intermediate, so nothing is allocated: a coordinate's
    d_j g_j and d_j d_j go in one pair of rows and are summed in one call.
    """
    n = len(xcols)
    terms = work[: 2 * n].reshape((2, n) + work.shape[1:])  # terms[0, j] = d_j g_j, terms[1, j] = d_j d_j
    d = np.subtract(xcols, pcols, out=terms[1])
    np.multiply(d, gcols, out=terms[0])
    np.multiply(d, d, out=d)
    sums = terms[:, 0]  # (num, dist2)
    for j in range(1, n):
        sums += terms[:, j]
    return np.divide(sums[0], sums[1], out=work[2 * n]), sums[0], sums[1]


def _finite_set_scores(G, X, points: np.ndarray) -> np.ndarray:
    """Lowest admissible pair score over the points for generators G at query points X.

    G and X broadcast as (n, ...) arrays; the result drops the coordinate
    axis.  A generator with no admissible point scores inf.  Points go in
    chunks of about BLOCK_ROWS row-point pairs (_point_chunks), and no pair
    is masked: best is the np.fmin of every score, low the minimum of every
    num.  An admissible score is <= -0.0 and any other is >= -0.0 or nan,
    which np.fmin skips; so a row with low < 0 has an admissible point, and
    its lowest admissible score is best in value and -|best| in sign too.

    A pair whose num or dist2 overflowed would slip through the same
    reductions.  Every |d_j| is at most reach, so when
    n reach max(reach, max |g|) < 2^1000 no sum can overflow; otherwise
    high, the maximum of every num and dist2, is kept too, and a generator
    whose low or high is not finite scores nan.
    """
    shape = np.broadcast_shapes(G.shape, X.shape)
    G, Xg = (np.broadcast_to(a, shape).reshape(shape[0], -1) for a in (G, X))
    n, rows = Xg.shape
    reach = float(np.abs(Xg).max(initial=0.0)) + float(np.abs(points).max())
    exposed = not n * reach * max(reach, float(np.abs(G).max(initial=0.0))) < 2.0**1000
    best = np.full(rows, np.inf)
    low = np.zeros(rows)
    high = np.zeros((2, rows))
    xcols, gcols = Xg[:, None, :], G[:, None, :]  # against (n, chunk, 1) points
    work = None
    for pcols in _point_chunks(rows, points):
        if work is None:
            work = np.empty((2 * n + 1, pcols.shape[1], rows))
        score, num, dist2 = _pair_scores(xcols, gcols, pcols, work[:, : pcols.shape[1]])
        np.fmin(best, _fold(np.fmin, score), out=best)
        np.minimum(low, _fold(np.minimum, num), out=low)
        if exposed:
            np.maximum(high[0], _fold(np.maximum, num), out=high[0])
            np.maximum(high[1], _fold(np.maximum, dist2), out=high[1])
    score = np.where(low < 0.0, -np.abs(best), np.inf)
    if exposed:
        score[~(np.isfinite(low) & np.isfinite(high).all(axis=0))] = np.nan
    return score.reshape(shape[1:])


def _scores(uset: UncertaintySet, slack: float, G, *query) -> tuple:
    """(member, score) of generators G (n, ...) over the set, broadcast against the query rows.

    query is (c - x*, ||c - x*||) for a ball, x* for a finite set.  A ball
    scores a zero generator (no descent direction) inf; nan marks overflow.
    """
    region = uset.region
    if isinstance(region, Ball):
        gg = _column_dot(G, G)
        gg[gg == np.inf] = np.nan
        member, score = ball_score_infimum(G, np.sqrt(gg), *query, region, uset.sigma, slack)
        flat = gg == 0.0
        if flat.any():
            member[flat], score[flat] = False, np.inf
        return member, score
    score = _finite_set_scores(G, *query, region.points)
    return score <= -uset.sigma + float(slack), score


def _finite_set_witness(g, x_star, points: np.ndarray, score: float) -> np.ndarray:
    """The first admissible point whose pair with (g, x_star) scores exactly score."""
    work = np.empty((2 * points.shape[1] + 1, points.shape[0]))
    scores, num, _ = _pair_scores(x_star[:, None], g[:, None], points.T, work)
    return points[int(np.argmax((num < 0.0) & (scores == score)))]


def classify_points(
    f: KnownFunction, uset: UncertaintySet, X, slack: float = DEFAULT_SLACK
) -> RowVerdicts:
    """Membership kernel: one verdict per row of X, an (N, n) array (see RowVerdicts).

    The kernel runs on X.T as an (n, N) C-contiguous block, which costs no
    copy when X is the transpose of such a block (a scan block).  Every row
    is scored with its smooth gradient in one pass; the rows at a registered
    kink (kink_index) are then rescored as one (m, R) block per kink, whose
    axis-0 any and argmin give the member flag, the score and the generator.
    NonFiniteError names a non-finite query row, or a row outside the set
    whose gradient or score overflows; rows inside never raise.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != uset.dimension or f.dimension != uset.dimension:
        raise ValueError("function, point, and set dimensions must agree")
    cols = np.ascontiguousarray(X.T)
    _raise_first(~np.isfinite(cols).all(axis=0), "coordinates are not finite")
    region = uset.region
    # overflow is checked below and reported as NonFiniteError, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(region, Ball):
            delta = region.center[:, None] - cols  # c - x*, shared by the interior test and the scores
            d = np.sqrt(_column_dot(delta, delta))
            interior = d <= region.radius
            query = (delta, d)
        else:
            interior = _finite_set_interior(cols, region.points)
            query = (cols,)
        outside = ~interior
        G = gradient(f, cols.T).T
        _raise_first(~np.isfinite(G).all(axis=0) & outside, "gradient overflows")
        member, score = _scores(uset, slack, G, *query)
        at = kink_index(f, cols) if f.kinks else None
        _raise_first(np.isnan(score) & (outside if at is None else outside & (at < 0)), "score overflows")
        for j, k in enumerate(f.kinks):
            rows = np.flatnonzero(at == j)
            if not rows.size:
                continue
            Gk = G[:, rows][:, None, :] + k.generators.T[:, :, None]
            _raise_first(~np.isfinite(Gk).all(axis=(0, 1)) & outside[rows], "gradient overflows", rows)
            kink_member, kink_score = _scores(uset, slack, Gk, *(q[..., None, rows] for q in query))
            _raise_first(np.isnan(kink_score).any(axis=0) & outside[rows], "score overflows", rows)
            best, each = np.argmin(kink_score, axis=0), np.arange(rows.size)
            member[rows], score[rows] = kink_member.any(axis=0), kink_score[best, each]
            G[:, rows] = Gk[:, best, each]
    member |= interior
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
    witness).  Outside, the witness is the row's generator g with the set
    point where its score is attained: the tangency point for a ball
    (ball_witness), the first point scoring it for a finite set.
    early_exit is accepted for compatibility and decides nothing.
    """
    x_star = as_vector(x_star)
    res = classify_points(f, uset, x_star[None, :], slack)
    if res.interior[0]:
        return MembershipVerdict(member=True, interior=True)
    g, score = res.g[0], res.score[0]
    if score == np.inf:
        return MembershipVerdict(member=False)
    region = uset.region
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(region, Ball):
            x_u = ball_witness(g, x_star, region)
        else:
            x_u = _finite_set_witness(g, x_star, region.points, score)
    return MembershipVerdict(
        member=bool(res.member[0]), best_score=float(score), witness=Witness(x_u=x_u, g=g)
    )
