"""Reference classifier and mask decoders, written against numpy alone.

Nothing here imports minregion: the benchmark checks the program's outputs
against this module, so it must not share code with what it checks.

Ball sets use the closed form of the membership condition.  Outside the ball
a point is a member iff, for some subgradient generator g,

    ||g|| r + <g, c - x>  >=  (sigma - slack) (d - r) (d + r),   d = ||x - c||,

which is the exact minimum of <g, x - x_u> / ||x - x_u||^2 over the whole
ball compared with the threshold -sigma + slack.  Finite sets take the
direct minimum of that score over their points.  Points inside the set are
members.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SLACK = 1e-9
KINK_ATOL = 1e-12  # componentwise distance at which a point is a declared kink


class Problem:
    """The fields of a problem-definition document the reference needs."""

    def __init__(self, doc: dict):
        self.terms = [
            (float(t.get("weight", 1.0)), np.asarray(t["Q"], dtype=float), np.asarray(t["m"], dtype=float))
            for t in doc["known_function"]["terms"]
        ]
        self.kinks = [
            (np.asarray(k["point"], dtype=float), np.asarray(k["generators"], dtype=float))
            for k in doc["known_function"].get("kinks", [])
        ]
        unc = doc["uncertainty"]
        if unc["type"] == "ball":
            self.center = np.asarray(unc["center"], dtype=float)
            self.radius = float(unc["radius"])
            self.points = None
        else:
            self.center = self.radius = None
            self.points = np.asarray(unc["points"], dtype=float)
        self.sigma = float(doc["sigma"])
        self.slack = float(doc.get("slack", DEFAULT_SLACK))
        self.grid = doc.get("grid")


def grid_points(grid: dict) -> np.ndarray:
    """All points of an inclusive grid, (N, n), last axis varying fastest."""
    axes = [
        np.linspace(float(lo), float(hi), int(c))
        for lo, hi, c in zip(grid["lower"], grid["upper"], grid["counts"])
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _smooth_gradients(p: Problem, X: np.ndarray) -> np.ndarray:
    G = np.zeros_like(X)
    for w, Q, m in p.terms:
        G += 2.0 * w * ((X - m) @ Q.T)
    return G


def _passes(p: Problem, G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Whether generator rows G pass the condition at the outside points X."""
    if p.points is None:
        delta = p.center - X
        d = np.sqrt(np.sum(delta * delta, axis=1))
        lhs = np.sqrt(np.sum(G * G, axis=1)) * p.radius + np.sum(G * delta, axis=1)
        return lhs >= (p.sigma - p.slack) * (d - p.radius) * (d + p.radius)
    threshold = -p.sigma + p.slack
    hit = np.zeros(X.shape[0], dtype=bool)
    for a in p.points:
        diff = X - a
        num = np.sum(G * diff, axis=1)
        dist2 = np.sum(diff * diff, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            hit |= (num < 0.0) & (num / dist2 <= threshold)
    return hit


def classify(p: Problem, X) -> tuple:
    """(member, interior) boolean arrays for the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if p.points is None:
        delta = X - p.center
        interior = np.sqrt(np.sum(delta * delta, axis=1)) <= p.radius
    else:
        interior = np.zeros(X.shape[0], dtype=bool)
        for a in p.points:
            interior |= np.all(X == a, axis=1)
    G = _smooth_gradients(p, X)
    at_kink = np.zeros(X.shape[0], dtype=bool)
    member = interior.copy()
    for point, gens in p.kinks:
        rows = ~interior & (np.max(np.abs(X - point), axis=1) <= KINK_ATOL) & ~at_kink
        at_kink |= rows
        for g in gens:
            member[rows] |= _passes(p, G[rows] + g, X[rows])
    rest = ~interior & ~at_kink
    member[rest] = _passes(p, G[rest], X[rest])
    return member, interior


def decode_csv(data: bytes, grid: dict) -> np.ndarray:
    """Membership flags of a mask CSV, after checking its grid and coordinates."""
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "" or len(lines) < 4 or not (lines[0].startswith("#") and lines[1].startswith("#")):
        raise ValueError("not a mask CSV: two '#' header lines and a final newline expected")
    counts = lines[1].rpartition("counts=")[2]
    if [int(c) for c in counts.split(",")] != [int(c) for c in grid["counts"]]:
        raise ValueError(f"grid header declares counts={counts}")
    rows = lines[2:-1]
    n = len(grid["counts"])
    expected = grid_points(grid)
    if len(rows) != expected.shape[0]:
        raise ValueError(f"{len(rows)} data rows, expected {expected.shape[0]}")
    values = np.array([float(v) for row in rows for v in row.split(",")])
    if values.size != expected.shape[0] * (n + 1):
        raise ValueError("data rows do not all have n + 1 columns")
    values = values.reshape(-1, n + 1)
    if not np.array_equal(values[:, :n], expected):
        raise ValueError("data coordinates do not match the grid")
    flags = values[:, n]
    if not np.all((flags == 0.0) | (flags == 1.0)):
        raise ValueError("member column holds values other than 0 and 1")
    return flags == 1.0


def decode_pgm(data: bytes, grid: dict) -> np.ndarray:
    """Membership flags of a binary PGM mask in grid order (x1 major)."""
    c1, c2 = (int(c) for c in grid["counts"])
    header = b"P5\n%d %d\n255\n" % (c1, c2)
    if not data.startswith(header) or len(data) != len(header) + c1 * c2:
        raise ValueError("not a P5 image of the grid's size")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(c2, c1)
    if not np.all((pixels == 0) | (pixels == 255)):
        raise ValueError("pixels other than 0 and 255")
    # row 0 is the largest x2, columns run along x1
    return (pixels[::-1, :].T == 255).reshape(-1)
