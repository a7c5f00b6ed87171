"""Tests for the candidate-minimizer membership decision."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from minregion import membership
from minregion.errors import NonFiniteError
from minregion.funcmodel import Kink, KnownFunction, QuadraticTerm, gradient, kink_index
from minregion.geometry import Ball
from minregion.membership import (
    BLOCK_ROWS,
    DEFAULT_SLACK,
    FinitePointSet,
    UncertaintySet,
    ball_witness,
    classify_point,
    classify_points,
    evaluate_general,
)
from minregion.oracle import _minimize_block, validate_necessity
from minregion.scanner import GridSpec, build_grid, mask_subset, scan_region


def reference_function():
    return KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),))


def reference_set(sigma=2.0, radius=0.1):
    return UncertaintySet(region=Ball(center=[0.0, 0.0], radius=radius), sigma=sigma)


def pair_score(g, x_star, x_u) -> float:
    """<g, u> / ||x_star - x_u|| with u the unit vector from x_u to x_star: one pair's raw score."""
    diff = np.asarray(x_star, dtype=float) - np.asarray(x_u, dtype=float)
    dist = float(np.linalg.norm(diff))
    return float(np.dot(g, diff / dist)) / dist


def ball_infimum(g, x_star, ball, sigma=1.0):
    """(member, score, x_u) of one pair: the kernel's _region_scores over the ball, and ball_witness.

    score is inf when no point of the ball gives <g, x_star - x_u> < 0.
    """
    G = np.asarray(g, dtype=float)[:, None]
    x_star = np.asarray(x_star, dtype=float)
    score = float(membership._region_scores(G, x_star[:, None], ball.points, ball.radius)[0][0])
    return score <= -sigma + DEFAULT_SLACK, score, ball_witness(G[:, 0], x_star, ball.center, ball.radius)


def frame_infimum(d, cos_alpha, g_norm, eps0, sigma=1.0):
    """ball_infimum on the planar frame: x* = (d, 0), ball at the origin.

    alpha is the angle between g and the direction from x* to the center.
    """
    sin_alpha = np.sqrt(max(0.0, 1.0 - cos_alpha * cos_alpha))
    g = [-g_norm * cos_alpha, g_norm * sin_alpha]
    return ball_infimum(g, [d, 0.0], Ball(center=[0.0, 0.0], radius=eps0), sigma)


def test_pair_score_examples():
    assert pair_score([-2.0, 0.0], [1.0, 0.0], [0.0, 0.0]) == -2.0
    assert pair_score([0.0, 2.0], [1.0, 0.0], [0.0, 0.0]) == 0.0
    assert pair_score([-2.0, 0.0], [1.0, 0.0], [0.5, 0.0]) == -4.0


def test_pair_score_matches_sweep_kernel():
    # the ball kernel's score is the raw pair score at its own witness, and
    # no point of the visible arc scores below it; past the guard angle,
    # cos(alpha) <= -eps0/d, no point of the ball descends and the score is inf
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = float(rng.uniform(0.3, 4.0))
        eps0 = float(rng.uniform(0.05, 0.9)) * d
        alpha = float(rng.uniform(0.0, np.pi))
        g_norm = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(0.0, np.arccos(eps0 / d)))
        x_star = np.array([d, 0.0])
        x_arc = eps0 * np.array([np.cos(theta), np.sin(theta)])
        g = g_norm * np.array([-np.cos(alpha), np.sin(alpha)])
        member, score, x_u = ball_infimum(g, x_star, Ball(center=[0.0, 0.0], radius=eps0))
        if np.cos(alpha) <= -eps0 / d:
            assert score == np.inf and not member
            continue
        scale = g_norm / (d - eps0)
        assert abs(pair_score(g, x_star, x_u) - score) <= 1e-9 * scale
        assert score <= pair_score(g, x_star, x_arc) + 1e-12 * scale


def sphere_samples(center, radius, count=40_000):
    """Dense, nearly uniform points on a 2- or 3-D sphere (circle or Fibonacci lattice)."""
    if center.shape[0] == 2:
        psi = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        dirs = np.stack([np.cos(psi), np.sin(psi)], axis=1)
    else:
        k = np.arange(count) + 0.5
        z = 1.0 - 2.0 * k / count
        phi = np.pi * (1.0 + 5.0**0.5) * k
        rho = np.sqrt(1.0 - z * z)
        dirs = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    return center + radius * dirs


coords = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def outside_ball_problems(draw):
    """A quadratic model, a ball, and a query point strictly outside it."""
    n = draw(st.sampled_from((2, 3)))
    vec = st.lists(coords, min_size=n, max_size=n).map(np.array)
    center = draw(vec)
    radius = draw(st.floats(0.05, 1.0))
    direction = draw(vec)
    norm = float(np.linalg.norm(direction))
    if norm < 0.1:
        direction, norm = np.eye(n)[0], 1.0
    x_star = center + radius * (1.0 + draw(st.floats(1e-3, 3.0))) * direction / norm
    m = draw(vec)
    if np.array_equal(m, x_star):
        m = m + 1.0
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(n), m=m, weight=draw(st.floats(0.1, 3.0))),))
    uset = UncertaintySet(region=Ball(center=center, radius=radius), sigma=draw(st.floats(0.1, 5.0)))
    return f, x_star, uset


@settings(max_examples=150, deadline=None)
@given(outside_ball_problems())
def test_closed_form_against_dense_oracle(problem):
    f, x_star, uset = problem
    ball = uset.region
    verdict = classify_point(f, x_star, uset)
    g = gradient(f, x_star)
    d = float(np.linalg.norm(x_star - ball.center))
    # largest score magnitude any ball point allows; rounding errors scale with it
    scale = float(np.linalg.norm(g)) / (d - ball.radius)
    diff = x_star - sphere_samples(ball.center, ball.radius)
    dense_min = float(((diff @ g) / np.einsum("ij,ij->i", diff, diff)).min())
    if verdict.best_score is None:  # no point of the ball descends: neither does any sample
        assert not verdict.member and verdict.witness is None
        assert dense_min >= -1e-12 * scale
        return
    x_u = verdict.witness.x_u
    assert np.array_equal(verdict.witness.g, g)
    assert verdict.best_score <= dense_min + 1e-12 * scale
    assert abs(float(np.linalg.norm(x_u - ball.center)) - ball.radius) <= 1e-9
    assert abs(pair_score(g, x_star, x_u) - verdict.best_score) <= 1e-9 * scale


@st.composite
def ball_row_problems(draw):
    """A random 1-3-D quadratic model, ball and sigma, and 300 query rows around the ball."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    f = KnownFunction(terms=(QuadraticTerm(Q=a.T @ a + 0.1 * np.eye(n), m=rng.uniform(-2.0, 2.0, n)),))
    ball = Ball(center=rng.uniform(-1.0, 1.0, n), radius=float(rng.uniform(0.05, 1.0)))
    uset = UncertaintySet(region=ball, sigma=float(rng.uniform(0.1, 5.0)))
    return f, uset, rng.uniform(-3.0, 3.0, (300, n))


@settings(max_examples=100, deadline=None)
@given(ball_row_problems())
def test_ball_verdicts_equal_the_division_free_closed_form(problem):
    # the kernel compares the score -lift / ((d - r)(d + r)) with -sigma + slack; the
    # closed form, written without the division as bench/reference.py writes it, is
    #   ||g|| r + <g, c - x*>  >=  (sigma - slack)(d - r)(d + r)
    # and the two agree on every row outside the ball that is not within a few ulps of the tie
    f, uset, X = problem
    ball, sigma, r = uset.region, uset.sigma, uset.region.radius
    res = classify_points(f, uset, X)
    G = gradient(f, X)
    delta = ball.center - X
    d = np.sqrt(np.sum(delta * delta, axis=1))
    g_norm, dot = np.sqrt(np.sum(G * G, axis=1)), np.sum(G * delta, axis=1)
    lift = g_norm * r + dot
    gap = (sigma - DEFAULT_SLACK) * (d - r) * (d + r)
    tie = np.abs(lift - gap) <= 16 * np.finfo(float).eps * (g_norm * r + np.abs(dot) + np.abs(gap))
    outside = (d > r) & ~res.interior & ~tie
    assert outside.sum() > 100
    assert np.array_equal(res.member[outside], (lift >= gap)[outside])
    assert np.all(res.member[res.interior])


@st.composite
def grid_problems(draw):
    """A grid whose points include the model's minimizer and a kink point."""
    n = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = (9, 9) if n == 2 else (5, 5, 5)
    lower = rng.uniform(-2.0, 0.0, n)
    spec = GridSpec(lower=lower, upper=lower + rng.uniform(1.0, 3.0, n), counts=counts)
    pts = build_grid(spec)
    i_min, i_kink = rng.choice(pts.shape[0], size=2, replace=False)
    a = rng.standard_normal((n, n))
    kink = Kink(point=pts[i_kink], generators=tuple(rng.uniform(-4.0, 4.0, (3, n))))
    f = KnownFunction(terms=(QuadraticTerm(Q=a.T @ a, m=pts[i_min]),), kinks=(kink,))
    if draw(st.booleans()):
        region = Ball(center=rng.uniform(spec.lower, spec.upper), radius=float(rng.uniform(0.1, 0.6)))
    else:
        region = FinitePointSet(points=rng.uniform(spec.lower, spec.upper, (4, n)))
    return f, UncertaintySet(region=region, sigma=float(rng.uniform(0.2, 5.0))), spec


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_problems())
def test_scan_equals_classify_on_random_problems(problem):
    f, uset, spec = problem
    mask = scan_region(f, uset, spec)
    threshold = -uset.sigma + 1e-9
    for x, flag in zip(build_grid(spec), mask.membership):
        verdict = classify_point(f, x, uset)
        assert verdict.member == flag
        if verdict.interior or not isinstance(uset.region, FinitePointSet):
            continue
        # the independent evaluator sums <u, g> another way, so scores may
        # differ in the last bits; verdicts must agree off the threshold
        ref = evaluate_general(f, x, uset)
        assert (ref.best_score is None) == (verdict.best_score is None)
        if ref.best_score is None:
            assert not flag
            continue
        tol = 1e-12 * max(1.0, abs(ref.best_score))
        assert abs(ref.best_score - verdict.best_score) <= tol
        if abs(ref.best_score - threshold) > tol:
            assert ref.member == flag


@st.composite
def layout_problems(draw):
    """A 1- to 4-D model with 0-2 kinks (the first on a grid point), a ball or a finite set, and its grid."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = {1: (9,), 2: (7, 6), 3: (5, 4, 4), 4: (4, 3, 3, 3)}[n]
    lower = rng.uniform(-2.0, 0.0, n)
    spec = GridSpec(lower=lower, upper=lower + rng.uniform(1.0, 3.0, n), counts=counts)
    pts = build_grid(spec)
    kink_points = [pts[rng.integers(pts.shape[0])], rng.uniform(spec.lower, spec.upper)]
    kinks = tuple(
        Kink(point=p, generators=tuple(rng.uniform(-4.0, 4.0, (int(rng.integers(1, 4)), n))))
        for p in kink_points[: draw(st.integers(0, 2))]
    )
    a = rng.standard_normal((n, n))
    term = QuadraticTerm(Q=a.T @ a, m=rng.uniform(spec.lower, spec.upper), weight=float(rng.uniform(0.2, 3.0)))
    if draw(st.booleans()):
        region = Ball(center=rng.uniform(spec.lower, spec.upper), radius=float(rng.uniform(0.05, 0.6)))
    else:
        points = rng.uniform(spec.lower, spec.upper, (int(rng.integers(1, 6)), n))
        points[0] = pts[rng.integers(pts.shape[0])]  # one set point on the grid: an interior row
        region = FinitePointSet(points=points)
    uset = UncertaintySet(region=region, sigma=float(rng.uniform(0.2, 5.0)))
    return KnownFunction(terms=(term,), kinks=kinks), uset, spec


def left_to_right_pair_score(g, x_star, x_u) -> float:
    """num / dist2 in Python floats, with both sums taken left to right over the coordinates."""
    d = [float(x) - float(p) for x, p in zip(x_star, x_u)]
    num = d[0] * float(g[0])
    dist2 = d[0] * d[0]
    for dj, gj in zip(d[1:], g[1:]):
        num += dj * float(gj)
        dist2 += dj * dj
    return num / dist2


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layout_problems())
def test_column_layout_agrees_with_classify_point(problem):
    # the scan runs on column blocks; every grid point must get classify_point's
    # verdict, and each witness must reproduce the reported score from its pair
    f, uset, spec = problem
    mask = scan_region(f, uset, spec)
    ball = isinstance(uset.region, Ball)
    for x, flag in zip(build_grid(spec), mask.membership):
        verdict = classify_point(f, x, uset)
        assert verdict.member == flag
        if verdict.best_score is None:
            continue
        w = verdict.witness
        if ball:
            d = float(np.linalg.norm(x - uset.region.center))
            scale = float(np.linalg.norm(w.g)) / (d - uset.region.radius)
            assert abs(pair_score(w.g, x, w.x_u) - verdict.best_score) <= 1e-9 * scale
        else:
            assert any(np.array_equal(w.x_u, p) for p in uset.region.points)
            assert left_to_right_pair_score(w.g, x, w.x_u) == verdict.best_score


@st.composite
def nesting_problems(draw):
    """A 2-D model with a kink at a grid point, a set inside a larger one, and two sigmas."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.uniform(-2.0, 0.0, 2)
    spec = GridSpec(lower=lower, upper=lower + rng.uniform(1.0, 3.0, 2), counts=(13, 13))
    pts = build_grid(spec)
    a = rng.standard_normal((2, 2))
    kink = Kink(point=pts[rng.integers(pts.shape[0])], generators=tuple(rng.uniform(-4.0, 4.0, (3, 2))))
    term = QuadraticTerm(Q=a.T @ a, m=rng.uniform(spec.lower, spec.upper))
    f = KnownFunction(terms=(term,), kinks=(kink,))
    if draw(st.booleans()):
        center, radius = rng.uniform(spec.lower, spec.upper), float(rng.uniform(0.05, 0.5))
        small = Ball(center=center, radius=radius)
        large = Ball(center=center, radius=radius * float(rng.uniform(1.1, 2.0)))
    else:
        points = rng.uniform(spec.lower, spec.upper, (5, 2))
        small, large = FinitePointSet(points=points[:3]), FinitePointSet(points=points)
    sigma = float(rng.uniform(0.2, 4.0))
    return f, spec, small, large, sigma, sigma * float(rng.uniform(1.01, 4.0))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nesting_problems())
def test_masks_nest_in_sigma_and_set(problem):
    # a larger sigma admits fewer minimizers; a larger set admits more
    f, spec, small, large, sigma, larger_sigma = problem
    base = scan_region(f, UncertaintySet(region=small, sigma=sigma), spec)
    assert mask_subset(scan_region(f, UncertaintySet(region=small, sigma=larger_sigma), spec), base)
    assert mask_subset(base, scan_region(f, UncertaintySet(region=large, sigma=sigma), spec))


def test_classify_points_kink_rows():
    # rows: inside the ball, at a kink, smooth, and the zero-gradient minimizer
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),),
        kinks=(Kink(point=[1.0, 0.0], generators=([-5.0, 1.0], [2.0, 0.0], [-5.0, -1.0])),),
    )
    X = np.array([[0.05, 0.0], [1.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
    res = classify_points(f, reference_set(), X)
    assert res.interior.tolist() == [True, False, False, False]
    assert res.member[0] and res.score[0] == np.inf
    # each kink generator is shifted by the smooth gradient (-2, 0): (-7, 1) and
    # (-7, -1) score exactly alike, and the first declared is reported; the
    # shifted (2, 0) is zero, as is row 3's gradient, and has no score
    assert res.g[1:].tolist() == [[-7.0, 1.0], [-2.0, 1.0], [0.0, 0.0]]
    assert res.score[3] == np.inf and not res.member[3]
    swapped = KnownFunction(terms=f.terms, kinks=(Kink(point=[1.0, 0.0], generators=([-5.0, -1.0], [-5.0, 1.0])),))
    assert classify_points(swapped, reference_set(), X).g[1].tolist() == [-7.0, -1.0]
    alone = KnownFunction(terms=f.terms, kinks=(Kink(point=[1.0, 0.0], generators=([2.0, 0.0],)),))
    finite = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0]]), sigma=2.0)
    for uset in (reference_set(), finite):
        # a zero generator scores inf, for a ball (no descent direction) and a
        # finite set (no admissible point) alike, and the row's other generators decide
        assert classify_points(alone, uset, X[1:2]).score[0] == np.inf
        res = classify_points(f, uset, X)
        for row in (1, 2, 3):
            verdict = classify_point(f, X[row], uset)
            assert verdict.member == res.member[row]
            assert verdict.best_score == (None if res.score[row] == np.inf else res.score[row])
    assert classify_point(f, X[1], reference_set()).witness.g.tolist() == [-7.0, 1.0]


@st.composite
def row_problems(draw):
    """A 1- to 3-D model with 0-3 kinks, a ball or a finite set, and query rows.

    The kinks sit at query rows 0, 2 and 3, in that order, and row 1 lies
    inside the set; a kink may carry the generator that cancels the smooth
    gradient.
    """
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    term = QuadraticTerm(Q=a.T @ a, m=rng.uniform(-1.0, 1.0, n), weight=float(rng.uniform(0.2, 3.0)))
    X = rng.uniform(-2.0, 2.0, (12, n))
    kinks = []
    for p in X[[0, 2, 3]][: draw(st.integers(0, 3))]:
        gens = list(rng.uniform(-4.0, 4.0, (int(rng.integers(1, 4)), n)))
        if draw(st.booleans()):
            gens.append(-gradient(KnownFunction(terms=(term,)), p))
        kinks.append(Kink(point=p, generators=tuple(gens)))
    if draw(st.booleans()):
        region = Ball(center=rng.uniform(-1.0, 1.0, n), radius=float(rng.uniform(0.05, 0.8)))
        X[1] = region.center + rng.uniform(-0.5, 0.5, n) * region.radius / np.sqrt(n)
    else:
        region = FinitePointSet(points=rng.uniform(-1.0, 1.0, (int(rng.integers(1, 6)), n)))
        X[1] = region.points[-1]
    uset = UncertaintySet(region=region, sigma=float(rng.uniform(0.2, 5.0)))
    return KnownFunction(terms=(term,), kinks=tuple(kinks)), uset, X, rng


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row_problems())
def test_rows_agree_with_classify_point(problem):
    # row i of the kernel is classify_point(X[i]), bit for bit; and the oracle
    # snaps a minimizer to a kink exactly where kink_index puts it at that kink
    f, uset, X, rng = problem
    res = classify_points(f, uset, X)
    assert res.interior[1] and res.member[1] and res.score[1] == np.inf
    for i, x in enumerate(X):
        verdict = classify_point(f, x, uset)
        assert verdict.interior == res.interior[i] and verdict.member == res.member[i]
        if verdict.best_score is None:
            assert res.score[i] == np.inf
            continue
        assert np.float64(verdict.best_score).tobytes() == res.score[i].tobytes()
        assert verdict.witness.g.tobytes() == res.g[i].tobytes()
    sigma_u = uset.sigma * rng.uniform(1.0, 3.0, 64)
    minimizers = _minimize_block(f, sigma_u, rng.uniform(-2.0, 2.0, (64, X.shape[1])))
    at = kink_index(f, minimizers.T)
    for j, k in enumerate(f.kinks):
        assert np.array_equal(np.all(minimizers == k.point, axis=1), at == j)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row_problems())
def test_kink_rows_take_the_least_score_over_their_subdifferential(problem):
    # over a finite set evaluate_general scores the same (generator, point)
    # pairs with its own arithmetic, so a kink row's verdict must match it
    # wherever the least score is not within rounding of the threshold
    f, uset, X, _ = problem
    assume(uset.region.radius == 0.0)
    res = classify_points(f, uset, X)
    limit = -uset.sigma + DEFAULT_SLACK
    for i in np.flatnonzero((kink_index(f, X.T) >= 0) & ~res.interior):
        ref = evaluate_general(f, X[i], uset)
        if ref.best_score is None:
            assert res.score[i] == np.inf and not res.member[i]
        elif abs(ref.best_score - limit) > 1e-9 * abs(limit):
            assert res.member[i] == ref.member


def test_the_first_overflowing_row_is_named():
    # each kink's first generator overflows <g, x* - p>; rows are named in row
    # order, whichever kink they are at and whether or not they are at one
    term = QuadraticTerm(np.eye(2), [-2.0, 0.0])
    huge = ([1.7976931348623157e308, 0.0], [-1.0, 0.0])
    uset = UncertaintySet(region=Ball(center=[-5.0, 0.0], radius=0.1), sigma=2.0)
    both = KnownFunction(terms=(term,), kinks=(Kink([1.0, 0.0], huge), Kink([0.0, 1.0], huge)))
    one = KnownFunction(terms=(term,), kinks=(Kink([1.0, 0.0], huge),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match=r"^row 0: score overflows$"):
            classify_points(both, uset, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonFiniteError, match=r"^row 0: score overflows$"):
            classify_points(one, uset, [[1.0, 0.0], [1e160, 1e160]])
        with pytest.raises(NonFiniteError) as exc:
            scan_region(both, uset, GridSpec([-1.0, -1.0], [1.0, 1.0], (3, 3)))
    assert exc.value.row == 5 and "[0.0, 1.0]" in str(exc.value)


def test_classify_points_rejects_non_finite():
    f = reference_function()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="row 1: coordinates are not finite") as exc:
            classify_points(f, reference_set(), [[1.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]])
        assert exc.value.row == 1 and isinstance(exc.value, ValueError)
        with pytest.raises(NonFiniteError, match="gradient overflows"):
            classify_point(f, [1e308, 1e308], reference_set())
        # |x*|^2 overflows although the gradient does not
        with pytest.raises(NonFiniteError, match="score overflows"):
            classify_point(f, [1e160, 1e160], reference_set())
        # finite sets: ||d||^2 and <g, d> overflow at row 1, whose score is -2;
        # the pair must not drop out as inadmissible
        far = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2e200, 0.0]),))
        origin = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0]]), sigma=1.0)
        with pytest.raises(NonFiniteError, match="row 1: score overflows"):
            classify_points(far, origin, [[1e100, 0.0], [1e200, 0.0], [1e200, 0.0]])
        assert classify_point(far, [1e100, 0.0], origin).member
        # 2 w Q and 2 w Q m are finite, but 2 w (x - m) overflows at x = (-1, 0)
        heavy = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0], weight=4e307),))
        finite = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0]]), sigma=2.0)
        for uset in (reference_set(), finite):
            with pytest.raises(NonFiniteError, match="gradient overflows"):
                classify_point(heavy, [-1.0, 0.0], uset)
            # the interior rule needs no gradient
            assert classify_point(heavy, [0.0, 0.0], uset).interior


def test_evaluate_ball_member_anchor():
    verdict = classify_point(reference_function(), [1.0, 0.0], reference_set())
    assert verdict.member
    assert abs(verdict.best_score - (-2.0 / 0.9)) < 1e-12
    assert np.allclose(verdict.witness.x_u, [0.1, 0.0], atol=1e-15)
    assert np.array_equal(verdict.witness.g, [-2.0, 0.0])


def test_evaluate_ball_nonmember_anchor():
    verdict = classify_point(reference_function(), [1.2, 0.0], reference_set())
    assert not verdict.member
    assert abs(verdict.best_score - (-1.6 / 1.1)) < 1e-12


def test_evaluate_ball_guard_rejects_without_sweep():
    # at (3, 0) the gradient (2, 0) points away from the ball: no pair descends, so
    # there is no score (the least pair score, 5.8 / (2.9 * 3.1), is positive)
    verdict = classify_point(reference_function(), [3.0, 0.0], reference_set())
    assert not verdict.member
    assert verdict.best_score is None and verdict.witness is None


def test_evaluate_ball_validation():
    # early_exit is accepted for compatibility and decides nothing
    f = reference_function()
    uset = reference_set()
    base = classify_point(f, [1.05, 0.3], uset)
    other = classify_point(f, [1.05, 0.3], uset, early_exit=False)
    assert other.member == base.member and other.best_score == base.best_score


def test_roadmap_false_negative_is_member():
    # a 2048-sample arc sweep called this point a non-member; the exact
    # minimum over the ball is -0.65758618127, below -sigma + slack
    f = reference_function()
    uset = UncertaintySet(region=Ball(center=[0.0, 0.0], radius=0.8), sigma=0.6575861764875996)
    assert classify_point(f, [1.3, 1.1], uset).member
    spec = GridSpec(lower=[1.3, 1.1], upper=[1.5, 1.3], counts=(3, 3))
    assert np.array_equal(build_grid(spec)[0], [1.3, 1.1])
    assert scan_region(f, uset, spec).membership[0]


def dense_sweep_min(d, cos_alpha, g_norm, eps0, steps=200_001):
    """Smallest pair score over a dense sample of the frame's circle, numpy only."""
    sin_alpha = np.sqrt(max(0.0, 1.0 - cos_alpha * cos_alpha))
    g = np.array([-g_norm * cos_alpha, g_norm * sin_alpha])
    psi = np.linspace(-np.pi, np.pi, steps)
    diff = np.array([d, 0.0]) - eps0 * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    return float(((diff @ g) / np.einsum("ij,ij->i", diff, diff)).min())


def test_ball_score_infimum_bounds_sweep():
    rng = np.random.default_rng(32)
    for _ in range(300):
        d = float(rng.uniform(0.2, 5.0))
        eps0 = float(rng.uniform(0.05, 0.9)) * d
        cos_alpha = float(rng.uniform(-1.0, 1.0))
        g_norm = float(rng.uniform(0.1, 5.0))
        member, inf_score, _ = frame_infimum(d, cos_alpha, g_norm, eps0)
        if cos_alpha <= -eps0 / d:  # past the guard angle no point of the ball descends
            assert inf_score == np.inf and not member
            continue
        dense = dense_sweep_min(d, cos_alpha, g_norm, eps0, steps=20_001)
        assert inf_score <= dense + 1e-12 * g_norm / (d - eps0)
        # and the sweep closes in on it: the minimum is attained, not just a bound
        assert dense - inf_score < 1e-3 * g_norm / (d - eps0)


def test_ball_score_infimum_tight_when_colinear():
    # at alpha = 0 the infimum is attained at the nearest boundary point
    for d, eps0, g_norm in [(1.0, 0.1, 2.0), (2.5, 0.7, 1.3), (0.5, 0.2, 4.0)]:
        _, inf_score, x_u = frame_infimum(d, 1.0, g_norm, eps0)
        assert abs(inf_score - (-g_norm / (d - eps0))) < 1e-12 * g_norm / (d - eps0)
        assert np.allclose(x_u, [eps0, 0.0], atol=1e-15)


def test_ball_score_infimum_zero_at_guard():
    # cos(alpha) = -eps0/d makes the infimum exactly zero: no negative scores
    # left, so no sigma > 0 can pass (rounding leaves no admissible pair, inf,
    # or a score within 1e-15 of 0); just inside the guard it turns negative,
    # and past it no pair is admissible
    d, eps0 = 2.0, 0.5
    member, inf_score, _ = frame_infimum(d, -eps0 / d, 1.0, eps0, sigma=1e-6)
    assert (inf_score == np.inf or abs(inf_score) < 1e-15) and not member
    _, below, _ = frame_infimum(d, -eps0 / d + 1e-6, 1.0, eps0)
    assert below < 0.0
    member, past, _ = frame_infimum(d, -eps0 / d - 1e-6, 1.0, eps0, sigma=1e-6)
    assert past == np.inf and not member


def test_evaluate_ball_guard_boundary():
    # at the guard angle the exact minimum is zero; just inside it the score
    # is negative but far from passing sigma = 1
    eps0, d = 0.3, 1.5
    guard = 0.5 * np.pi + np.arcsin(eps0 / d)
    member, at, _ = frame_infimum(d, float(np.cos(guard)), 1.0, eps0)
    assert not member and (at == np.inf or abs(at) < 1e-15)
    member, below, _ = frame_infimum(d, float(np.cos(guard - 1e-6)), 1.0, eps0)
    assert not member and -1.0 < below < 0.0
    member, past, _ = frame_infimum(d, float(np.cos(guard + 1e-6)), 1.0, eps0)
    assert not member and past == np.inf


def test_evaluate_general_single_candidate():
    f = reference_function()
    region = FinitePointSet(points=[[0.0, 0.0]])
    member = evaluate_general(f, [1.0, 0.0], UncertaintySet(region=region, sigma=2.0))
    assert member.member
    assert member.best_score == -2.0
    assert np.array_equal(member.witness.x_u, [0.0, 0.0])
    stricter = evaluate_general(f, [1.0, 0.0], UncertaintySet(region=region, sigma=3.0))
    assert not stricter.member
    assert stricter.best_score == -2.0


def test_evaluate_general_picks_best_pair():
    f = reference_function()
    region = FinitePointSet(points=[[0.0, 0.0], [0.5, 0.0], [0.0, 5.0]])
    verdict = evaluate_general(f, [1.0, 0.0], UncertaintySet(region=region, sigma=2.0))
    assert verdict.best_score == -4.0  # the (0.5, 0) candidate halves the distance
    assert np.array_equal(verdict.witness.x_u, [0.5, 0.0])


def test_evaluate_general_no_admissible_candidates():
    f = reference_function()
    # the gradient at (3,0) is (2,0), pointing from the candidate toward the query
    region = FinitePointSet(points=[[1.0, 0.0]])
    verdict = evaluate_general(f, [3.0, 0.0], UncertaintySet(region=region, sigma=2.0))
    assert not verdict.member
    assert verdict.best_score is None
    assert verdict.witness is None


def test_evaluate_general_admissibility_filter_consistent():
    """Dropping the <g,u> >= 0 pairs can never change the verdict."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        f = KnownFunction(
            terms=(QuadraticTerm(Q=a.T @ a + 0.2 * np.eye(n), m=rng.uniform(-2, 2, n)),)
        )
        pts = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 6)), n))
        sigma = float(rng.uniform(0.5, 4.0))
        uset = UncertaintySet(region=FinitePointSet(points=pts), sigma=sigma)
        x_star = rng.uniform(-3.0, 3.0, n)
        if uset.region.contains(x_star):
            continue
        verdict = evaluate_general(f, x_star, uset)
        # brute force over every pair with no admissibility filter
        raw = min(
            pair_score(g, x_star, p)
            for p in pts
            for g in [np.asarray(gen) for gen in (2.0 * ((a.T @ a + 0.2 * np.eye(n)) @ (x_star - f.terms[0].m)),)]
        )
        assert verdict.member == (raw <= -sigma + 1e-9)


def test_classify_threshold_point():
    f = reference_function()
    uset = reference_set()
    # closed-form transition on the x1 axis at (4 + sigma*eps0)/(2 + sigma)
    assert classify_point(f, [1.05, 0.0], uset).member
    assert not classify_point(f, [1.06, 0.0], uset).member


def test_classify_interior_rule():
    f = reference_function()
    uset = reference_set()
    inside = classify_point(f, [0.05, 0.0], uset)
    assert inside.member and inside.interior
    assert inside.best_score is None and inside.witness is None
    boundary = classify_point(f, [0.1, 0.0], uset)
    assert boundary.member and boundary.interior
    # finite sets: the interior rule covers exact coincidence
    finite = UncertaintySet(region=FinitePointSet(points=[[0.3, 0.4]]), sigma=2.0)
    hit = classify_point(f, [0.3, 0.4], finite)
    assert hit.member and hit.interior


def test_ball_contains_agrees_with_kernel_on_a_boundary_point():
    # norm(x - c) reads this point as inside, the kernel's sum of squares as outside;
    # evaluate_general used to reject as inside a point that classify_point scored
    x = [0.7042317558492293, 0.4336551641446249]
    uset = UncertaintySet(region=Ball(center=[0.6194215518255555, 0.12095190401237166], radius=0.32400015370964996), sigma=2.0)
    f = reference_function()
    assert not uset.region.contains(x)
    assert not classify_point(f, x, uset).interior
    # x is outside by a hair, so its visible cap shrinks to x itself, which has no direction
    # and is dropped: no candidate is left, so the verdict is non-member with no score
    verdict = evaluate_general(f, x, uset, boundary_samples=64)
    assert not verdict.member and verdict.best_score is None and verdict.witness is None


@st.composite
def near_sphere_points(draw):
    n = draw(st.integers(1, 3))
    coordinate = st.floats(-2.0, 2.0, allow_nan=False)
    center = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    radius = draw(st.floats(1e-3, 3.0))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(direction))
    if norm < 1e-3:
        direction, norm = np.eye(n)[0], 1.0
    x = center + radius * direction / norm  # on the sphere up to rounding
    return Ball(center=center, radius=radius), x


@settings(max_examples=300, deadline=None)
@given(near_sphere_points())
def test_ball_contains_equals_kernel_interior(case):
    ball, x = case
    n = ball.dimension
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(n), m=np.full(n, 5.0)),))
    rows = classify_points(f, UncertaintySet(region=ball, sigma=1.0), x[None])
    assert ball.contains(x) == bool(rows.interior[0])


def test_classify_witness_invariants():
    f = reference_function()
    uset = reference_set()
    rng = np.random.default_rng(34)
    seen_member = seen_nonmember = 0
    for _ in range(200):
        x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
        verdict = classify_point(f, x, uset, early_exit=False)
        if verdict.interior or verdict.best_score is None:
            continue
        w = verdict.witness
        assert w is not None and w.x_u is not None and w.g is not None
        # witness point sits on the ball boundary
        assert abs(float(np.linalg.norm(w.x_u)) - 0.1) < 1e-9
        # and reproduces the reported score through the raw definition
        assert abs(pair_score(w.g, x, w.x_u) - verdict.best_score) < 1e-9
        seen_member += int(verdict.member)
        seen_nonmember += int(not verdict.member)
    assert seen_member > 10 and seen_nonmember > 10


def test_sigma_monotonicity():
    f = reference_function()
    rng = np.random.default_rng(35)
    weaker = reference_set(sigma=1.0)
    stronger = reference_set(sigma=3.0)
    for _ in range(300):
        x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
        if classify_point(f, x, stronger).member:
            assert classify_point(f, x, weaker).member


def test_radius_monotonicity():
    f = reference_function()
    rng = np.random.default_rng(36)
    small = reference_set(radius=0.1)
    large = reference_set(radius=0.3)
    for _ in range(300):
        x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
        if float(np.linalg.norm(x)) <= 0.3:
            continue
        if classify_point(f, x, small).member:
            assert classify_point(f, x, large).member


def test_score_scale_homogeneity():
    # scaling the gradient by c scales the score by c and leaves the witness put
    _, base, x_u = frame_infimum(1.7, float(np.cos(0.8)), 1.0, 0.4)
    for c in (2.0, 0.25, 64.0):
        _, scaled, x_c = frame_infimum(1.7, float(np.cos(0.8)), c, 0.4)
        assert abs(scaled - c * base) < 1e-12 * abs(c * base)
        assert np.allclose(x_c, x_u, atol=1e-15)


def test_ball_and_general_routes_agree():
    """The frame sweep and the sampled-cap evaluator see the same continuum."""
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(60):
        a = rng.standard_normal((2, 2))
        f = KnownFunction(
            terms=(QuadraticTerm(Q=a.T @ a + 0.3 * np.eye(2), m=rng.uniform(-2, 2, 2)),)
        )
        center = rng.uniform(-1.0, 1.0, 2)
        radius = float(rng.uniform(0.1, 0.3))
        sigma = float(rng.uniform(0.5, 3.0))
        uset = UncertaintySet(region=Ball(center=center, radius=radius), sigma=sigma)
        x = center + rng.uniform(radius + 0.7, radius + 2.5) * _unit(rng)
        ball_verdict = classify_point(f, x, uset, early_exit=False)
        gen_verdict = evaluate_general(f, x, uset, boundary_samples=20_000)
        margins = [
            abs(v.best_score + sigma)
            for v in (ball_verdict, gen_verdict)
            if v.best_score is not None
        ]
        if margins and min(margins) < 1e-5:
            continue  # too close to the decision boundary for discretized routes
        assert ball_verdict.member == gen_verdict.member
        if ball_verdict.best_score is not None and gen_verdict.best_score is not None:
            assert abs(ball_verdict.best_score - gen_verdict.best_score) < 1e-4 * max(
                1.0, abs(ball_verdict.best_score)
            )
        checked += 1
    assert checked > 40


@st.composite
def outside_3d_balls(draw):
    """A random 3-D quadratic model, ball and sigma, and a query point outside the ball."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((3, 3))
    f = KnownFunction(terms=(QuadraticTerm(Q=a.T @ a + 0.3 * np.eye(3), m=rng.uniform(-2, 2, 3)),))
    center, radius = rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.1, 0.5))
    uset = UncertaintySet(region=Ball(center=center, radius=radius), sigma=float(rng.uniform(0.5, 3.0)))
    direction = rng.standard_normal(3)
    x = center + rng.uniform(1.01 * radius, radius + 2.5) * direction / np.linalg.norm(direction)
    return f, x, uset


@settings(max_examples=60, deadline=None)
@given(outside_3d_balls())
def test_evaluate_general_sphere_samples_never_beat_the_exact_score(problem):
    # in 3-D evaluate_general samples the sphere and keeps the visible cap; a
    # sample can only approach the exact infimum from above, and so a sampled
    # member is an exact member
    f, x, uset = problem
    exact = classify_point(f, x, uset)
    sampled = evaluate_general(f, x, uset, boundary_samples=4000)
    if sampled.best_score is not None:
        assert sampled.best_score >= exact.best_score - 1e-9 * max(1.0, abs(exact.best_score))
    assert not sampled.member or exact.member


def _unit(rng):
    v = rng.standard_normal(2)
    return v / float(np.linalg.norm(v))


def test_classify_isometry_invariance_small():
    f = reference_function()
    uset = reference_set()
    rot = np.array([[np.cos(1.1), -np.sin(1.1)], [np.sin(1.1), np.cos(1.1)]])
    shift = np.array([0.7, -1.9])
    f_mapped = KnownFunction(
        terms=(QuadraticTerm(Q=rot @ np.eye(2) @ rot.T, m=rot @ [2.0, 0.0] + shift),)
    )
    uset_mapped = UncertaintySet(region=Ball(center=shift, radius=0.1), sigma=2.0)
    for x in ([1.0, 0.0], [1.05, 0.0], [1.2, 0.0], [3.0, 0.0], [0.5, 1.0], [-0.5, -0.2]):
        before = classify_point(f, x, uset, early_exit=False)
        after = classify_point(f_mapped, rot @ np.asarray(x) + shift, uset_mapped, early_exit=False)
        assert before.member == after.member
        if before.best_score is not None:
            assert abs(before.best_score - after.best_score) < 1e-9


def test_kinked_model_uses_all_generators():
    # at the kink the point is a member through the steep generator only
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.zeros((2, 2)), m=[0.0, 0.0]),),
        kinks=(Kink(point=[1.0, 0.0], generators=([-5.0, 0.0], [5.0, 0.0])),),
    )
    uset = reference_set(sigma=2.0)
    verdict = classify_point(f, [1.0, 0.0], uset)
    assert verdict.member
    assert np.array_equal(verdict.witness.g, [-5.0, 0.0])
    # off the kink the model is flat and nothing can pass
    assert not classify_point(f, [1.5, 0.0], uset).member


def test_zero_gradient_is_skipped():
    f = reference_function()
    uset = reference_set()
    verdict = classify_point(f, [2.0, 0.0], uset)  # minimizer of the known part
    assert not verdict.member
    assert verdict.best_score is None


@pytest.mark.parametrize("samples", [0, -1, 0.5, np.nan])
@pytest.mark.parametrize("dimension", [2, 3])
def test_evaluate_general_refuses_fewer_than_one_boundary_sample(samples, dimension):
    # boundary_samples=0 called the member (1, 0) a non-member with no score;
    # -1 raised numpy's own errors, different in 2-D and 3-D
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(dimension), m=[2.0] + [0.0] * (dimension - 1)),))
    uset = UncertaintySet(region=Ball(center=[0.0] * dimension, radius=0.1), sigma=2.0)
    x = [1.0] + [0.0] * (dimension - 1)
    with pytest.raises(ValueError, match=f"^boundary_samples must be >= 1, got {re.escape(repr(samples))}$"):
        evaluate_general(f, x, uset, boundary_samples=samples)
    assert evaluate_general(f, x, uset, boundary_samples=1).best_score is not None


def test_evaluate_general_rejects_inside_queries():
    f = reference_function()
    with pytest.raises(ValueError, match="^evaluate_general requires x_star outside the ball$"):
        evaluate_general(f, [0.05, 0.0], reference_set())
    finite = UncertaintySet(region=FinitePointSet(points=[[0.3, 0.4]]), sigma=2.0)
    with pytest.raises(ValueError, match="^x_star coincides with a set point; classify_point handles that case$"):
        evaluate_general(f, [0.3, 0.4], finite)


@pytest.mark.parametrize(
    "slack, error",
    [
        (-1.0, "slack must be a finite number >= 0, got -1.0"),
        (-np.inf, "slack must be a finite number >= 0, got -inf"),
        (np.nan, "slack must be a finite number >= 0, got nan"),
        (np.inf, "slack must be a finite number >= 0, got inf"),
        (2.0, "slack must be below the classifying sigma 2.0, got 2.0"),
    ],
)
def test_every_entry_point_refuses_a_bad_slack_before_scoring(monkeypatch, slack, error):
    # a negative slack called the member (1, 0) a non-member, so validate_necessity reported
    # falsifications at true minimizers (2000 of 2000 at -inf), scan_region scored a whole
    # grid before RegionMask refused it, and evaluate_general scored against nan, inf and sigma
    f, uset = reference_function(), reference_set()

    def scored(*args):
        raise AssertionError("a row was scored")

    monkeypatch.setattr(membership, "_region_scores", scored)
    calls = (
        lambda: membership.threshold(uset.sigma, slack),
        lambda: classify_points(f, uset, [[1.0, 0.0]], slack),
        lambda: classify_point(f, [1.0, 0.0], uset, slack=slack),
        lambda: scan_region(f, uset, GridSpec(lower=[-1, -2], upper=[3, 2], counts=(2001, 2001)), slack=slack),
        lambda: validate_necessity(f, uset, 2.0, 2000, 1, slack=slack),
        lambda: evaluate_general(f, [1.0, 0.0], uset, slack=slack),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            call()


def test_an_overflow_in_a_later_chunk_of_points_is_not_dropped():
    # one query row takes BLOCK_ROWS points per chunk, so the last of BLOCK_ROWS + 1 points
    # is alone in the second chunk; past the exposure bound only the running maxima of num
    # and near, folded over every chunk, see that its distance squared overflows
    f = reference_function()
    x = np.array([[0.5, 0.0]])
    pts = np.random.default_rng(28).uniform(-1e151, 1e151, (BLOCK_ROWS + 1, 2))
    res = classify_points(f, UncertaintySet(region=FinitePointSet(points=pts), sigma=2.0), x)
    cols, G = x.T.copy(), gradient(f, x).T
    alone = [membership._region_scores(G, cols, pts[k : k + 1], 0.0)[0][0] for k in range(len(pts))]
    assert res.score[0] < 0.0 and res.score[0] == min(alone)
    far = np.vstack([pts[:-1], [1.5e154, 0.0]])
    with pytest.raises(NonFiniteError, match="score overflows"):
        classify_points(f, UncertaintySet(region=FinitePointSet(points=far), sigma=2.0), x)


def test_dimension_checks():
    f = reference_function()
    with pytest.raises(ValueError, match="^function, point, and set dimensions must agree$"):
        classify_point(f, [1.0, 0.0, 0.0], reference_set())
    three_d = UncertaintySet(region=Ball(center=[0.0, 0.0, 0.0], radius=0.1), sigma=2.0)
    with pytest.raises(ValueError, match="^function, point, and set dimensions must agree$"):
        classify_point(f, [1.0, 0.0, 0.0], three_d)
    for x, uset in (([1.0, 0.0, 0.0], reference_set()), ([1.0, 0.0, 0.0], three_d), ([1.0, 0.0], three_d)):
        with pytest.raises(ValueError, match="^function, point, and set dimensions must agree$"):
            evaluate_general(f, x, uset)


def test_uncertainty_set_validation():
    with pytest.raises(TypeError):
        UncertaintySet(region=[[0.0, 0.0]], sigma=1.0)
    with pytest.raises(ValueError):
        UncertaintySet(region=Ball(center=[0.0], radius=1.0), sigma=0.0)
    with pytest.raises(ValueError):
        FinitePointSet(points=np.empty((0, 2)))
    for entry in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^finite point set entries must be finite$"):
            FinitePointSet(points=[[0.0, 0.0], [1.0, entry]])


def test_zero_dimensional_models_are_rejected():
    # an empty vector or point used to build a 0-D set, or fail inside numpy
    empty_vector = "expected a nonempty 1-D vector"
    with pytest.raises(ValueError, match=empty_vector):
        Ball(center=[], radius=1.0)
    with pytest.raises(ValueError, match=empty_vector):
        QuadraticTerm(Q=np.zeros((0, 0)), m=[])
    with pytest.raises(ValueError, match=empty_vector):
        Kink(point=[], generators=[[]])
    with pytest.raises(ValueError, match=empty_vector):
        GridSpec(lower=[], upper=[], counts=())
    for points in ([[]], [], np.empty((3, 0))):
        with pytest.raises(ValueError, match="a finite point set needs a nonempty"):
            FinitePointSet(points=points)


def test_finite_point_set_contains_is_exact():
    region = FinitePointSet(points=[[0.1, 0.2], [0.3, 0.4]])
    assert region.contains([0.1, 0.2])
    assert not region.contains([0.1 + 1e-15, 0.2])
    with pytest.raises(ValueError, match="^vectors of dimension 2 and 3 cannot be combined$"):
        region.contains([0.1, 0.2, 0.0])


def left_to_right_finite_set_scores(G, X, points, radius=0.0):
    """The region score and nearest dist2 over all row-point pairs at once, coordinate by coordinate.

    num = d_0 g_0 + d_1 g_1 + ... and dist2 = d_0 d_0 + d_1 d_1 + ..., with
    d_j = x_j - p_j, are summed left to right as the kernel sums them.  For
    balls of radius r > 0 about the points, num loses ||g|| r and the
    denominator is (d - r)(d + r), d = sqrt(dist2).  The lowest num / denominator
    over the pairs with num < 0 is taken per row, with the lowest dist2.
    """
    d = X[:, None, :] - points[None, :, :]  # (N, k, n)
    num = d[..., 0] * G[:, None, 0]
    dist2 = d[..., 0] * d[..., 0]
    for j in range(1, X.shape[1]):
        num = num + d[..., j] * G[:, None, j]
        dist2 = dist2 + d[..., j] * d[..., j]
    denominator = dist2
    if radius:
        gg = G[:, 0] * G[:, 0]
        for j in range(1, X.shape[1]):
            gg = gg + G[:, j] * G[:, j]
        num = num - (np.sqrt(gg) * radius)[:, None]
        denominator = (np.sqrt(dist2) - radius) * (np.sqrt(dist2) + radius)
    with np.errstate(invalid="ignore"):
        return np.where(num < 0.0, num / denominator, np.inf).min(axis=1), dist2.min(axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "rows, count",
    [(1, 20000), (64, 2000), (5000, 16), (8192, 16), (7, 3), (1, 1), (4096, 16), (3000, 200), (1100, 40)],
)
def test_finite_set_scores_match_einsum_reference(rows, count, n):
    # the reference is left_to_right_finite_set_scores: every chunking the
    # kernel picks for these sizes must give its scores bit for bit
    rng = np.random.default_rng([rows, count, n])
    X = rng.standard_normal((rows, n))
    G = rng.standard_normal((rows, n))
    points = rng.standard_normal((count, n))
    points[0] = X[0]  # a coincident pair scores nan and is never admissible
    with np.errstate(divide="ignore", invalid="ignore"):
        score, nearest = membership._region_scores(G.T.copy(), X.T.copy(), points, 0.0)
    ref, ref_nearest = left_to_right_finite_set_scores(G, X, points)
    assert np.array_equal(score, ref)
    assert np.array_equal(np.signbit(score), np.signbit(ref))
    assert np.array_equal(nearest, np.sqrt(ref_nearest)) and nearest[0] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rows, count", [(1, 5000), (3000, 40), (BLOCK_ROWS, 1), (BLOCK_ROWS, 7)])
def test_region_scores_with_a_radius_match_the_reference(rows, count, n):
    # balls about the points, well below their spacing, scored from rows outside
    # all of them, bit for bit as the reference sums them, whatever the chunking
    rng = np.random.default_rng([rows, count, n, 5])
    X = rng.standard_normal((rows, n))
    G = rng.standard_normal((rows, n))
    points = rng.standard_normal((count, n))
    radius = 0.01 * count ** (-1.0 / n)
    ref, ref_nearest = left_to_right_finite_set_scores(G, X, points, radius)
    outside = np.sqrt(ref_nearest) > radius
    score, nearest = membership._region_scores(G.T.copy(), X.T.copy(), points, radius)
    assert outside.mean() > 0.9
    assert np.array_equal(score[outside], ref[outside])
    assert np.array_equal(nearest, np.sqrt(ref_nearest))


@pytest.mark.parametrize("rows", [1, 1000, BLOCK_ROWS])  # one chunk, chunks of 8 points, one-point chunks
@pytest.mark.parametrize("first, second", [(3, 5), (3, 9), (9, 3)])
def test_finite_set_ties_keep_the_first_point(rows, first, second):
    # from (1, 0) with g = (-1, 0), the points (0, 1) and (0, -1) score exactly alike;
    # the points at x = 2 have <g, u> > 0 and are never admissible
    points = np.array([[2.0, float(k)] for k in range(10)])
    points[first] = [0.0, 1.0]
    points[second] = [0.0, -1.0]
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[1.5, 0.0]),))
    uset = UncertaintySet(region=FinitePointSet(points=points), sigma=2.0)
    res = classify_points(f, uset, np.tile([1.0, 0.0], (rows, 1)))
    assert np.all(res.score == -0.5) and not res.member.any()
    verdict = classify_point(f, [1.0, 0.0], uset)
    assert verdict.best_score == -0.5 and verdict.witness.g.tolist() == [-1.0, 0.0]
    assert np.array_equal(verdict.witness.x_u, points[min(first, second)])


def test_finite_set_underflowing_score_stays_admissible():
    # at x* = 0, g = -2e-300 and the point -1e30 give num = -2e-270 < 0 and
    # num / dist2 = -2e-330, which underflows to -0.0: still an admissible
    # pair, with the lowest score -0.0; a zero num (g = 0 at x* = 1) is not
    f = KnownFunction(terms=(QuadraticTerm(Q=[[1e-300]], m=[1.0]),))
    uset = UncertaintySet(region=FinitePointSet(points=[[-1e30], [5.0]]), sigma=1.0)
    res = classify_points(f, uset, [[0.0], [1.0]])
    assert res.score[0] == 0.0 and np.signbit(res.score[0]) and not res.member[0]
    assert res.score[1] == np.inf
    verdict = classify_point(f, [0.0], uset)
    assert verdict.best_score == 0.0 and np.signbit(verdict.best_score)
    assert verdict.witness.x_u.tolist() == [-1e30]


def test_finite_set_interior_is_exact():
    f = reference_function()
    p = np.array([0.3, -0.7])
    region = FinitePointSet(points=[[0.0, 0.5], p, p])  # the last point is listed twice
    uset = UncertaintySet(region=region, sigma=2.0)
    X = np.array([
        p,
        [np.nextafter(p[0], 1.0), p[1]],
        [p[0], np.nextafter(p[1], 1.0)],
        [-0.0, 0.5],
        [0.0, -0.0],
    ])
    res = classify_points(f, uset, X)
    assert res.interior.tolist() == [True, False, False, True, False]
    assert res.member.tolist() == [True, True, True, True, False]
    assert res.score[[0, 3]].tolist() == [np.inf, np.inf]
    # one ulp from a set point the score is finite, and very negative
    assert np.all(np.isfinite(res.score[1:3]))
    for x in X[1:3]:
        assert np.array_equal(classify_point(f, x, uset).witness.x_u, p)
    # many rows take the one-point-per-chunk path, which must agree
    many = np.repeat(X, BLOCK_ROWS // 2, axis=0)
    assert np.array_equal(classify_points(f, uset, many).interior, np.repeat(res.interior, BLOCK_ROWS // 2))


# rows at and within an underflow of the set {(0, 0.5), (0, 0)}; the nearest
# dist2 of rows 3, 4 and 6 underflows to 0, though none of them is a set point
UNDERFLOW_ROWS = [[0.0, 0.0], [-0.0, 0.0], [1e-200, 0.0], [0.0, -1e-200], [1e-160, 1e-160], [5e-324, 0.0]]
UNDERFLOW_INTERIOR = [True, True, False, False, False, False]
UNDERFLOW_MEMBER = [True, True, True, False, True, True]
UNDERFLOW_SCORE = [np.inf, np.inf, -np.inf, np.inf, -2.000022265882516e160, -np.inf]


def underflow_problem():
    return reference_function(), UncertaintySet(region=FinitePointSet(points=[[0.0, 0.5], [0.0, 0.0]]), sigma=2.0)


@pytest.mark.parametrize("row", range(len(UNDERFLOW_ROWS)))
def test_finite_set_interior_survives_underflow_one_row(row):
    f, uset = underflow_problem()
    x = np.array(UNDERFLOW_ROWS[row])
    res = classify_points(f, uset, x[None, :])
    assert res.interior.tolist() == [UNDERFLOW_INTERIOR[row]]
    assert res.member.tolist() == [UNDERFLOW_MEMBER[row]]
    assert res.score.tolist() == [UNDERFLOW_SCORE[row]]
    verdict = classify_point(f, x, uset)
    assert (verdict.interior, verdict.member) == (UNDERFLOW_INTERIOR[row], UNDERFLOW_MEMBER[row])
    assert verdict.best_score == (None if UNDERFLOW_SCORE[row] == np.inf else UNDERFLOW_SCORE[row])


def test_finite_set_interior_survives_underflow_in_a_block():
    # more than BLOCK_ROWS rows, each repeated far apart: the points go one per chunk
    f, uset = underflow_problem()
    reps = BLOCK_ROWS // len(UNDERFLOW_ROWS) + 1
    res = classify_points(f, uset, np.tile(UNDERFLOW_ROWS, (reps, 1)))
    assert res.interior.tolist() == UNDERFLOW_INTERIOR * reps
    assert res.member.tolist() == UNDERFLOW_MEMBER * reps
    assert res.score.tolist() == UNDERFLOW_SCORE * reps


# set coordinates within an underflow of 0, or plainly away from it
tiny_coords = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-170, 1e-163, 1e-160, 0.5, -1.25])


@st.composite
def near_set_rows(draw):
    n = draw(st.integers(1, 3))
    points = np.array(draw(st.lists(st.lists(tiny_coords, min_size=n, max_size=n), min_size=1, max_size=4)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        x = points[draw(st.integers(0, len(points) - 1))].copy()
        j = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["set point", "one ulp", "offset"]))
        if kind == "one ulp":
            x[j] = np.nextafter(x[j], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "offset":
            x[j] += draw(tiny_coords)
        rows.append(x)
    kinks = (Kink(point=points[0], generators=[np.ones(n), -np.ones(n)]),) if draw(st.booleans()) else ()
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(n), m=np.full(n, 2.0)),), kinks=kinks)
    region = FinitePointSet(points=points)
    if draw(st.booleans()):  # a ball about one of the points, of a radius whose square may underflow
        center = points[draw(st.integers(0, len(points) - 1))]
        region = Ball(center=center, radius=draw(st.sampled_from([5e-324, 1e-170, 0.5])))
    return f, UncertaintySet(region=region, sigma=2.0), np.array(rows)


@settings(max_examples=150, deadline=None)
@given(near_set_rows())
def test_finite_set_interior_is_contains(problem):
    # one contains rule for both region types: a set point, or within the radius of one
    f, uset, X = problem
    res = classify_points(f, uset, X)
    assert res.interior.tolist() == [uset.region.contains(x) for x in X]
    assert np.all(res.member[res.interior]) and np.all(res.score[res.interior] == np.inf)


@pytest.mark.parametrize("rows, count", [(BLOCK_ROWS, 2000), (1, 100_000)])
def test_finite_set_memory_is_bounded(rows, count):
    # points go about BLOCK_ROWS row-point pairs at a time and peak near 1 MB
    # here; all rows against all points would peak near 500 MB (8192 x 2000)
    # or 3 MB (1 x 100000)
    rng = np.random.default_rng(rows)
    uset = UncertaintySet(region=FinitePointSet(points=rng.uniform(-1.0, 1.0, (count, 2))), sigma=2.0)
    X = rng.uniform(-2.0, 2.0, (rows, 2))
    f = reference_function()
    tracemalloc.start()
    try:
        res = classify_points(f, uset, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.score.shape == (rows,)
    assert peak < 2 * 2**20
