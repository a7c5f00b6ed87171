"""Unit and property tests for the ball geometry primitives."""

import numpy as np
import pytest

from minregion.errors import InsideBallError, NotOnBoundaryError
from minregion.geometry import Ball, chord_length, visible_cap_contains


def test_chord_length_endpoint_identities():
    rng = np.random.default_rng(13)
    for _ in range(300):
        d = float(rng.uniform(0.2, 5.0))
        eps0 = float(rng.uniform(0.01, 0.95)) * d
        near = chord_length(d, eps0, 0.0)
        assert abs(near - (d - eps0)) < 1e-12
        far = chord_length(d, eps0, float(np.arccos(eps0 / d)))
        assert abs(far - np.sqrt(d * d - eps0 * eps0)) < 1e-12


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
    with pytest.raises(NotOnBoundaryError):
        visible_cap_contains([0.5, 0.0], [3.0, 0.0], ball)
    with pytest.raises(InsideBallError):
        visible_cap_contains([1.0, 0.0], [0.2, 0.0], ball)


def test_visible_cap_keeps_tangent_points():
    # at the tangency circle <x - c, x_star - c> equals radius^2 exactly
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    x_star = np.array([2.0, 0.0])
    tangent = np.array([0.5, np.sqrt(0.75)])
    assert visible_cap_contains(tangent, x_star, ball)
