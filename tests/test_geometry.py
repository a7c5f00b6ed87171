"""Unit and property tests for the ball geometry primitives."""

import argparse
import re

import numpy as np
import pytest

from minregion.cli import ProblemConfig, _apply_overrides
from minregion.funcmodel import Kink, KnownFunction, QuadraticTerm
from minregion.geometry import Ball, FinitePointSet, GridSpec, chord_length, visible_cap_contains
from minregion.membership import UncertaintySet
from minregion.scanner import RegionMask

GRID = GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], counts=(4, 5))


def test_chord_length_endpoint_identities():
    rng = np.random.default_rng(13)
    for _ in range(300):
        d = float(rng.uniform(0.2, 5.0))
        eps0 = float(rng.uniform(0.01, 0.95)) * d
        near = chord_length(d, eps0, 0.0)
        assert abs(near - (d - eps0)) < 1e-12
        far = chord_length(d, eps0, float(np.arccos(eps0 / d)))
        assert abs(far - np.sqrt(d * d - eps0 * eps0)) < 1e-12


def test_chord_length_has_no_cancellation_near_the_sphere():
    # d^2 + eps0^2 - 2 eps0 d cos(0) rounds to -1.8e-12 here; (d - eps0)^2 + 4 eps0 d sin^2(0)
    # is d - eps0 squared, so the chord is d - eps0 exactly
    assert chord_length(81.20022853688826, 81.20022847207325, 0.0) == 6.48150120241553e-08
    rng = np.random.default_rng(17)
    for scale in (1.0, 100.0, 1e6):
        for _ in range(500):
            eps0 = float(rng.uniform(0.5, 1.0)) * scale
            d = eps0 * (1.0 + float(rng.uniform(1e-12, 1e-9)))
            assert chord_length(d, eps0, 0.0) == d - eps0
            assert 0.0 < chord_length(d, eps0, 1e-6) <= d - eps0 + 1e-6 * d


def test_chord_length_monotone_in_theta():
    thetas = np.linspace(0.0, np.pi, 50)
    values = [chord_length(1.0, 0.3, t) for t in thetas]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_chord_length_rejects_bad_radii():
    with pytest.raises(ValueError):
        chord_length(0.1, 0.2, 0.0)
    with pytest.raises(ValueError):
        chord_length(1.0, 0.0, 0.0)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(center=[0.0, 0.0], radius=0.0)
    with pytest.raises(ValueError):
        Ball(center=[0.0, 0.0], radius=-1.0)
    with pytest.raises(ValueError):
        Ball(center=[np.inf, 0.0], radius=1.0)
    ball = Ball(center=[1.0, 2.0], radius=0.5)
    assert ball.dimension == 2
    assert ball.contains([1.0, 2.5])  # boundary is inside, the ball is closed
    assert not ball.contains([1.0, 2.5 + 1e-12])
    with pytest.raises(ValueError, match="^vectors of dimension 2 and 3 cannot be combined$"):
        ball.contains([1.0, 2.0, 0.0])


def segment_min_distance(x, x_star, center):
    # distance from center to the segment [x, x_star], independent formula
    seg = x_star - x
    t = float(np.clip(np.dot(center - x, seg) / np.dot(seg, seg), 0.0, 1.0))
    return float(np.linalg.norm(x + t * seg - center))


def test_visible_cap_vs_segment_oracle():
    """The half-space visibility test must match an exact segment-distance oracle.

    A boundary point is visible exactly when the segment to the query point
    never enters the open ball, i.e. its minimum distance to the center stays
    at least the radius.  Near-tangent points (within 1e-9) are exempt.
    """
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        center = rng.standard_normal(n)
        radius = float(rng.uniform(0.2, 1.5))
        ball = Ball(center=center, radius=radius)
        x_star = center + rng.standard_normal(n) * 4.0
        d = float(np.linalg.norm(x_star - center))
        if d <= radius * 1.05:
            continue
        dirs = rng.standard_normal((200, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for direction in dirs:
            x = center + radius * direction
            dot = float(np.dot(x - center, x_star - center))
            if abs(dot - radius**2) <= 1e-9 * max(1.0, radius**2):
                continue  # tangency band, either answer is fine
            expected = segment_min_distance(x, x_star, center) >= radius - 1e-9
            assert visible_cap_contains(x, x_star, ball) == expected
            checked += 1
    assert checked > 5000


def test_visible_cap_requires_boundary_point():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    with pytest.raises(ValueError, match="^x is not on the ball boundary$"):
        visible_cap_contains([0.5, 0.0], [3.0, 0.0], ball)
    with pytest.raises(ValueError, match="^visible_cap_contains requires x_star outside the ball$"):
        visible_cap_contains([1.0, 0.0], [0.2, 0.0], ball)


def test_visible_cap_on_sphere_tolerance_scales_with_the_ball():
    # centre and radius near 1e8 round |x - c| by about 1e-8, past an absolute 1e-9; the
    # tolerance 1e-9 max(1, r, max |c|) accepts every boundary point c + r u and still
    # rejects a point 1e-6 r off the sphere
    rng = np.random.default_rng(18)
    for _ in range(300):
        center = rng.uniform(-1.0, 1.0, 3) * 1e8
        radius = float(rng.uniform(0.5, 1.0)) * 1e8
        ball = Ball(center=center, radius=radius)
        u = rng.standard_normal(3)
        x = center + radius * u / np.linalg.norm(u)
        x_star = center + 3.0 * radius * np.array([1.0, 0.0, 0.0])
        dot = float(np.dot(x - center, x_star - center))
        visible = visible_cap_contains(x, x_star, ball)
        if abs(dot - radius**2) > 1e-9 * radius**2:
            assert visible == (dot > radius**2)
        with pytest.raises(ValueError, match="^x is not on the ball boundary$"):
            visible_cap_contains(center + 1.000001 * (x - center), x_star, ball)


def test_visible_cap_keeps_tangent_points():
    # at the tangency circle <x - c, x_star - c> equals radius^2 exactly
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    x_star = np.array([2.0, 0.0])
    tangent = np.array([0.5, np.sqrt(0.75)])
    assert visible_cap_contains(tangent, x_star, ball)


def test_grid_point_count_must_fit_an_index():
    # 2^64 points: np.prod used to wrap to a 0-point grid, and a scan to an empty mask
    with pytest.raises(ValueError, match="the point count exceeds the index range"):
        GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(2**32, 2**32))
    assert GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], counts=(2**31, 3)).point_count == 3 * 2**31


def test_grid_axes_are_computed_once_and_read_only():
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(401, 7))
    axes = spec.axes()
    again = spec.axes()
    assert len(axes) == len(again) == 2
    assert all(a is b for a, b in zip(axes, again))
    for ax, lower, upper, count in zip(axes, [-1.0, -2.0], [3.0, 2.0], (401, 7)):
        assert np.array_equal(ax, np.linspace(lower, upper, count))
        assert not ax.flags.writeable


@pytest.mark.parametrize("counts", [(2.7, 3), (3.0, 3), np.array([2.5, 3.0]), ("3", 3), 4.0])
def test_grid_counts_must_be_integers(counts):
    # counts used to be truncated: (2.7, 3) made a 2 x 3 grid
    with pytest.raises(ValueError, match="grid counts must be integers"):
        GridSpec(lower=[0.0, 0.0][: np.size(counts)], upper=[1.0, 1.0][: np.size(counts)], counts=counts)


@pytest.mark.parametrize("counts", [(2, 3), [2, 3], np.array([2, 3]), (np.int32(2), np.uint8(3))])
def test_grid_counts_take_python_and_numpy_integers(counts):
    spec = GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], counts=counts)
    assert spec.counts == (2, 3) and all(type(c) is int for c in spec.counts)


@pytest.mark.parametrize(
    "given, build",
    [
        pytest.param([[2.0, 0.0], [0.0, 2.0]], lambda a: QuadraticTerm(a, [2.0, 0.0]).Q, id="QuadraticTerm.Q"),
        pytest.param([2.0, 0.0], lambda a: QuadraticTerm(np.eye(2), a).m, id="QuadraticTerm.m"),
        pytest.param([1.0, 0.0], lambda a: Kink(a, [[1.0, 0.0], [-1.0, 0.0]]).point, id="Kink.point"),
        pytest.param([[1.0, 0.0], [-1.0, 0.0]], lambda a: Kink([1.0, 0.0], a).generators, id="Kink.generators"),
        pytest.param([0.5, 0.0], lambda a: Ball(a, 0.1).center, id="Ball.center"),
        pytest.param([0.5, 0.0], lambda a: Ball(a, 0.1).points, id="Ball.points"),
        pytest.param([[0.0, 0.0], [1.0, 0.0]], lambda a: FinitePointSet(a).points, id="FinitePointSet.points"),
        pytest.param([-1.0, -2.0], lambda a: GridSpec(a, [3.0, 2.0], (4, 5)).lower, id="GridSpec.lower"),
        pytest.param([3.0, 2.0], lambda a: GridSpec([-1.0, -2.0], a, (4, 5)).upper, id="GridSpec.upper"),
        pytest.param([True, False] * 10, lambda a: RegionMask(GRID, a, 2.0, 1e-9).membership,
                     id="RegionMask.membership"),
    ],
)
def test_models_keep_a_private_read_only_copy(given, build):
    # the constructors used to freeze the caller's own array, so a view taken
    # before construction could still rewrite a model that had been validated
    caller = np.array(given)
    view = caller[:]
    kept = build(caller)
    before = kept.copy()
    assert caller.flags.writeable and not kept.flags.writeable
    changed = ~caller if caller.dtype == bool else caller + 0.25
    view[...] = changed
    assert np.array_equal(kept, before)
    caller[...] = ~changed if caller.dtype == bool else changed + 0.25
    assert np.array_equal(kept, before)


POSITIVE_CALLERS = [
    pytest.param("ball radius", lambda v: Ball([0.0, 0.0], v), id="Ball-radius"),
    pytest.param("term weight", lambda v: QuadraticTerm(np.eye(2), [0.0, 0.0], weight=v), id="QuadraticTerm-weight"),
    pytest.param("sigma", lambda v: UncertaintySet(Ball([0.0, 0.0], 1.0), v), id="UncertaintySet-sigma"),
    pytest.param("sigma", lambda v: RegionMask(GRID, [False] * 20, v, 0.0), id="RegionMask-sigma"),
    pytest.param("eps0", lambda v: RegionMask(GRID, [False] * 20, 2.0, 0.0, eps0=v), id="RegionMask-eps0"),
    pytest.param(
        "--sigma-override",
        lambda v: _apply_overrides(
            ProblemConfig(KnownFunction((QuadraticTerm(np.eye(2), [2.0, 0.0]),)),
                          UncertaintySet(Ball([0.0, 0.0], 0.1), 2.0), None, 1e-9, {}),
            argparse.Namespace(slack=None, sigma_override=v),
        ),
        id="cli-sigma-override",
    ),
]


@pytest.mark.parametrize("what, build", POSITIVE_CALLERS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_every_positive_scalar_has_one_rule(what, build, value):
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be a finite number > 0, got {value!r}$"):
        build(value)
