"""Tests for the candidate-minimizer membership decision."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minregion import membership
from minregion.errors import (
    CoincidentPointsError,
    DimensionMismatchError,
    InsideBallError,
    NonFiniteError,
)
from minregion.funcmodel import Kink, KnownFunction, QuadraticTerm
from minregion.geometry import Ball
from minregion.membership import (
    BLOCK_ROWS,
    FinitePointSet,
    UncertaintySet,
    ball_score_infimum,
    classify_point,
    classify_points,
    evaluate_general,
)
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


def frame_infimum(d, cos_alpha, g_norm, eps0, sigma=1.0):
    """ball_score_infimum on the planar frame: x* = (d, 0), ball at the origin.

    alpha is the angle between g and the direction from x* to the center.
    """
    sin_alpha = np.sqrt(max(0.0, 1.0 - cos_alpha * cos_alpha))
    G = np.array([[-g_norm * cos_alpha, g_norm * sin_alpha]])
    X = np.array([[d, 0.0]])
    member, score, x_u = ball_score_infimum(G, X, Ball(center=[0.0, 0.0], radius=eps0), sigma)
    return bool(member[0]), float(score[0]), x_u[0]


def test_pair_score_examples():
    assert pair_score([-2.0, 0.0], [1.0, 0.0], [0.0, 0.0]) == -2.0
    assert pair_score([0.0, 2.0], [1.0, 0.0], [0.0, 0.0]) == 0.0
    assert pair_score([-2.0, 0.0], [1.0, 0.0], [0.5, 0.0]) == -4.0


def test_pair_score_matches_sweep_kernel():
    # the ball kernel's score is the raw pair score at its own witness, and
    # no point of the visible arc scores below it
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
        _, score, x_u = ball_score_infimum(
            g[None], x_star[None], Ball(center=[0.0, 0.0], radius=eps0), 1.0
        )
        scale = g_norm / (d - eps0)
        assert abs(pair_score(g, x_star, x_u[0]) - float(score[0])) <= 1e-9 * scale
        assert float(score[0]) <= pair_score(g, x_star, x_arc) + 1e-12 * scale


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
    g, x_u = verdict.witness.g, verdict.witness.x_u
    d = float(np.linalg.norm(x_star - ball.center))
    # largest score magnitude any ball point allows; rounding errors scale with it
    scale = float(np.linalg.norm(g)) / (d - ball.radius)
    diff = x_star - sphere_samples(ball.center, ball.radius)
    dense_min = float(((diff @ g) / np.einsum("ij,ij->i", diff, diff)).min())
    assert verdict.best_score <= dense_min + 1e-12 * scale
    assert abs(float(np.linalg.norm(x_u - ball.center)) - ball.radius) <= 1e-9
    assert abs(pair_score(g, x_star, x_u) - verdict.best_score) <= 1e-9 * scale


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


def test_classify_points_generator_table():
    # rows: inside the ball, at a kink, smooth, and the zero-gradient minimizer
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),),
        kinks=(Kink(point=[1.0, 0.0], generators=([-5.0, 0.0], [2.0, 0.0], [0.0, 3.0])),),
    )
    X = np.array([[0.05, 0.0], [1.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
    res = classify_points(f, reference_set(), X)
    assert res.interior.tolist() == [True, False, False, False]
    # kink generators in declared order, each shifted by the smooth gradient
    # (-2, 0); the shifted (2, 0) is zero and dropped, as is row 3's gradient
    assert res.owner.tolist() == [2, 1, 1]
    assert res.g.tolist() == [[-2.0, 1.0], [-7.0, 0.0], [-2.0, 3.0]]
    for row in (1, 2, 3):
        verdict = classify_point(f, X[row], reference_set())
        assert verdict.member == bool(res.member[res.owner == row].any())
    assert classify_point(f, X[1], reference_set()).witness.g.tolist() == [-7.0, 0.0]
    # finite sets keep zero generators: no admissible point, score inf
    finite = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0]]), sigma=2.0)
    res = classify_points(f, finite, X)
    assert res.owner.tolist() == [0, 2, 3, 1, 1, 1]
    assert res.score[res.owner == 3][0] == np.inf and not res.member[res.owner == 3][0]


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
        heavy = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0], weight=1e308),))
        finite = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0]]), sigma=2.0)
        for uset in (reference_set(), finite):
            with pytest.raises(NonFiniteError, match="gradient overflows"):
                classify_point(heavy, [1.0, 0.0], uset)
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
    # at (3, 0) the gradient (2, 0) points away from the ball: every score is positive
    verdict = classify_point(reference_function(), [3.0, 0.0], reference_set())
    assert not verdict.member
    assert abs(verdict.best_score - 5.8 / (2.9 * 3.1)) < 1e-12


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
        _, inf_score, _ = frame_infimum(d, cos_alpha, g_norm, eps0)
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
    # left, so no sigma > 0 can pass; just inside the guard it turns negative
    d, eps0 = 2.0, 0.5
    member, inf_score, _ = frame_infimum(d, -eps0 / d, 1.0, eps0, sigma=1e-6)
    assert abs(inf_score) < 1e-15 and not member
    _, below, _ = frame_infimum(d, -eps0 / d + 1e-6, 1.0, eps0)
    assert below < 0.0


def test_evaluate_ball_guard_boundary():
    # at the guard angle the exact minimum is zero; just inside it the score
    # is negative but far from passing sigma = 1
    eps0, d = 0.3, 1.5
    guard = 0.5 * np.pi + np.arcsin(eps0 / d)
    member, at, _ = frame_infimum(d, float(np.cos(guard)), 1.0, eps0)
    assert not member and abs(at) < 1e-15
    member, below, _ = frame_infimum(d, float(np.cos(guard - 1e-6)), 1.0, eps0)
    assert not member and -1.0 < below < 0.0


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
        if uset.contains(x_star):
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


def test_evaluate_general_rejects_inside_queries():
    f = reference_function()
    with pytest.raises(InsideBallError):
        evaluate_general(f, [0.05, 0.0], reference_set())
    finite = UncertaintySet(region=FinitePointSet(points=[[0.3, 0.4]]), sigma=2.0)
    with pytest.raises(CoincidentPointsError):
        evaluate_general(f, [0.3, 0.4], finite)


def test_dimension_checks():
    f = reference_function()
    with pytest.raises(DimensionMismatchError):
        classify_point(f, [1.0, 0.0, 0.0], reference_set())
    three_d = UncertaintySet(region=Ball(center=[0.0, 0.0, 0.0], radius=0.1), sigma=2.0)
    with pytest.raises(DimensionMismatchError):
        classify_point(f, [1.0, 0.0, 0.0], three_d)


def test_uncertainty_set_validation():
    with pytest.raises(TypeError):
        UncertaintySet(region=[[0.0, 0.0]], sigma=1.0)
    with pytest.raises(ValueError):
        UncertaintySet(region=Ball(center=[0.0], radius=1.0), sigma=0.0)
    with pytest.raises(ValueError):
        FinitePointSet(points=np.empty((0, 2)))


def test_finite_point_set_contains_is_exact():
    region = FinitePointSet(points=[[0.1, 0.2], [0.3, 0.4]])
    assert region.contains([0.1, 0.2])
    assert not region.contains([0.1 + 1e-15, 0.2])


def einsum_finite_set_scores(G, Xg, points, threshold):
    """The finite-set scorer as it stood before the column-wise kernel.

    It contracts (N, chunk, n) differences with einsum, which sums the
    coordinates of 1-D and 2-D problems in the same order as the column-wise
    kernel; from n = 3 on it pairs them differently.
    """
    best = np.full(Xg.shape[0], np.inf)
    arg = np.zeros(Xg.shape[0], dtype=np.intp)
    step = max(1, BLOCK_ROWS // max(1, Xg.shape[0]))
    for k in range(0, points.shape[0], step):
        diff = Xg[:, None, :] - points[None, k : k + step, :]
        dist = np.sqrt(np.einsum("ikj,ikj->ik", diff, diff))
        num = np.einsum("ikj,ij->ik", diff / dist[:, :, None], G)
        score = np.where(num < 0.0, num / dist, np.inf)
        first = 0
        if score.shape[1] > 1:
            first = np.argmin(score, axis=1)
            score = np.take_along_axis(score, first[:, None], axis=1)
        better = score[:, 0] < best
        np.copyto(best, score[:, 0], where=better)
        np.copyto(arg, k + first, where=better)
    return best <= threshold, best, points[arg]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "rows, count",
    [(1, 20000), (64, 2000), (5000, 16), (8192, 16), (7, 3), (1, 1), (4096, 16), (3000, 200), (1100, 40)],
)
def test_finite_set_scores_match_einsum_reference(rows, count, n):
    rng = np.random.default_rng([rows, count, n])
    X = rng.standard_normal((rows, n))
    G = rng.standard_normal((rows, n))
    points = rng.standard_normal((count, n))
    points[0] = X[0]  # a coincident pair scores nan and is never admissible
    with np.errstate(invalid="ignore"):
        member, score, x_u = membership._finite_set_scores(G, X, points, -2.0)
        ref_member, ref_score, ref_x_u = einsum_finite_set_scores(G, X, points, -2.0)
    assert np.array_equal(member, ref_member)
    assert np.array_equal(x_u, ref_x_u)
    if n <= 2:
        assert np.array_equal(score, ref_score)
        return
    # the coordinate sums are reordered, and num may cancel, so the bound is
    # on the magnitude of the summed terms, not on the score itself
    finite = np.isfinite(ref_score)
    assert np.array_equal(np.isfinite(score), finite)
    D = (X - ref_x_u)[finite]
    magnitude = np.sum(np.abs(D * G[finite]), axis=1) / np.sum(D * D, axis=1)
    assert np.all(np.abs(score[finite] - ref_score[finite]) <= 4 * n * np.spacing(magnitude))


@pytest.mark.parametrize("rows", [1, 1000, BLOCK_ROWS])  # one chunk, chunks of 8 points, one-point chunks
@pytest.mark.parametrize("first, second", [(3, 5), (3, 9), (9, 3)])
def test_finite_set_ties_keep_the_first_point(rows, first, second):
    # from (1, 0) with g = (-1, 0), the points (0, 1) and (0, -1) score exactly alike;
    # the points at x = 2 have <g, u> > 0 and are never admissible
    points = np.array([[2.0, float(k)] for k in range(10)])
    points[first] = [0.0, 1.0]
    points[second] = [0.0, -1.0]
    X = np.tile([1.0, 0.0], (rows, 1))
    G = np.tile([-1.0, 0.0], (rows, 1))
    member, score, x_u = membership._finite_set_scores(G, X, points, -2.0)
    assert np.allclose(score, -0.5) and not member.any()
    assert np.all(x_u == points[min(first, second)])


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
    assert res.owner.tolist() == [1, 2, 4]
    # one ulp from a set point the score is finite, and very negative
    assert np.all(np.isfinite(res.score[:2])) and res.member[:2].all()
    assert res.x_u[:2].tolist() == [p.tolist(), p.tolist()]
    # many rows take the one-point-per-chunk path, which must agree
    many = np.repeat(X, BLOCK_ROWS // 2, axis=0)
    assert np.array_equal(classify_points(f, uset, many).interior, np.repeat(res.interior, BLOCK_ROWS // 2))


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
    assert res.owner.size == rows
    assert peak < 2 * 2**20
