"""Tests for grid scanning and mask serialization."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minregion import scanner
from minregion.cli import load_config
from minregion.errors import NonFiniteError
from minregion.funcmodel import Kink, KnownFunction, QuadraticTerm
from minregion.geometry import Ball
from minregion.membership import BLOCK_ROWS, FinitePointSet, UncertaintySet, classify_point, classify_points
from minregion.oracle import validate_necessity
from minregion.scanner import (
    GridSpec,
    RegionMask,
    build_grid,
    mask_subset,
    read_mask_csv,
    scan_region,
    write_mask_csv,
    write_mask_pgm,
)


def reference_function():
    return KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),))


def reference_set(sigma=2.0, radius=0.1):
    return UncertaintySet(region=Ball(center=[0.0, 0.0], radius=radius), sigma=sigma)


def test_build_grid_1d():
    pts = build_grid(GridSpec(lower=[0.0], upper=[1.0], counts=(3,)))
    assert np.array_equal(pts, [[0.0], [0.5], [1.0]])


def test_build_grid_row_major_order():
    pts = build_grid(GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], counts=(2, 3)))
    expected = [
        [0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
        [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
    ]
    assert np.array_equal(pts, expected)


def test_build_grid_clips_like_a_slice():
    # a start past the end or past stop raised numpy's "negative dimensions are not allowed"
    spec = GridSpec(lower=[0, 0], upper=[1, 1], counts=(3, 4))
    rows = build_grid(spec)
    for start, stop in ((13, 20), (6, 3), (12, None), (5, 5), (11, 40), (4, 9)):
        block = build_grid(spec, start, stop)
        assert block.shape == rows[start:stop].shape and np.array_equal(block, rows[start:stop])


def test_grid_spec_properties():
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(401, 401))
    assert spec.dimension == 2
    assert spec.point_count == 160801
    assert all(np.allclose(np.diff(ax), 0.01) for ax in spec.axes())
    with pytest.raises(ValueError):
        GridSpec(lower=[0.0], upper=[0.0], counts=(5,))
    with pytest.raises(ValueError):
        GridSpec(lower=[0.0], upper=[1.0], counts=(1,))
    with pytest.raises(ValueError, match="^lower, upper, and counts must have equal length$"):
        GridSpec(lower=[0.0, 0.0], upper=[1.0], counts=(5,))
    for lower, upper in (([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0])):
        with pytest.raises(ValueError, match="^grid bounds must be finite$"):
            GridSpec(lower=lower, upper=upper, counts=(3, 3))


def test_scan_matches_classifier_ball():
    f = reference_function()
    uset = reference_set()
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(41, 41))
    mask = scan_region(f, uset, spec)
    pts = build_grid(spec)
    for i, p in enumerate(pts):
        assert bool(mask.membership[i]) == classify_point(f, p, uset).member


def test_scan_matches_classifier_two_terms():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((2, 2))
    f = KnownFunction(
        terms=(
            QuadraticTerm(Q=a.T @ a + 0.2 * np.eye(2), m=[1.0, -0.5], weight=0.7),
            QuadraticTerm(Q=np.eye(2), m=[-1.0, 1.0], weight=1.5),
        )
    )
    uset = UncertaintySet(region=Ball(center=[0.3, 0.2], radius=0.25), sigma=1.5)
    spec = GridSpec(lower=[-2.0, -2.0], upper=[2.0, 2.0], counts=(29, 31))
    mask = scan_region(f, uset, spec)
    assert (mask.eps0, mask.point_count) == (0.25, None)  # a ball's header field is its radius
    pts = build_grid(spec)
    for i, p in enumerate(pts):
        assert bool(mask.membership[i]) == classify_point(f, p, uset).member


def test_scan_matches_classifier_finite_set():
    f = reference_function()
    uset = UncertaintySet(
        region=FinitePointSet(points=[[0.0, 0.0], [0.5, 0.5]]), sigma=2.0
    )
    spec = GridSpec(lower=[-1.0, -1.0], upper=[2.0, 2.0], counts=(21, 21))
    mask = scan_region(f, uset, spec)
    assert (mask.eps0, mask.point_count) == (None, 2)  # a finite set's is its point count
    pts = build_grid(spec)
    for i, p in enumerate(pts):
        assert bool(mask.membership[i]) == classify_point(f, p, uset).member


def test_scan_matches_classifier_with_kink_on_grid():
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),),
        kinks=(Kink(point=[0.5, 0.5], generators=([-3.0, 0.0], [3.0, 0.0])),),
    )
    uset = reference_set()
    spec = GridSpec(lower=[0.0, 0.0], upper=[1.0, 1.0], counts=(3, 3))  # (0.5, 0.5) on grid
    mask = scan_region(f, uset, spec)
    pts = build_grid(spec)
    for i, p in enumerate(pts):
        assert bool(mask.membership[i]) == classify_point(f, p, uset).member


def test_scan_memory_is_bounded():
    # grid points stream through the kernel in fixed-size blocks; whole-grid
    # temporaries would peak near 170 MB here
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(1001, 1001))
    tracemalloc.start()
    try:
        mask = scan_region(reference_function(), reference_set(), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert mask.member_count > 0


def test_scan_names_the_overflowing_grid_point():
    # 2 w = 1.6e308 is finite, but 2 w x overflows for every x > 1.125, so at
    # every point outside the ball; the first such point lies in the second
    # block of the grid
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(1), m=[0.0], weight=8e307),))
    uset = UncertaintySet(region=Ball(center=[0.0], radius=1.5), sigma=2.0)
    spec = GridSpec(lower=[0.0], upper=[3.0], counts=(3 * BLOCK_ROWS,))
    xs = build_grid(spec)[:, 0]
    first = int(np.flatnonzero(xs > 1.5)[0])
    assert BLOCK_ROWS < first < 2 * BLOCK_ROWS
    with pytest.raises(NonFiniteError, match="gradient overflows") as exc:
        scan_region(f, uset, spec)
    assert exc.value.row == first
    assert f"grid point [{float(xs[first])!r}]" in str(exc.value)


def test_scan_1d_threshold():
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(1), m=[2.0]),))
    uset = UncertaintySet(region=Ball(center=[0.0], radius=0.1), sigma=2.0)
    spec = GridSpec(lower=[-0.5], upper=[1.5], counts=(201,))
    mask = scan_region(f, uset, spec)
    xs = build_grid(spec)[:, 0]
    # members are the ball plus the segment up to (4 + sigma*eps0)/(2 + sigma)
    expected = (xs >= -0.1 - 1e-12) & (xs <= 1.05 + 1e-9)
    assert np.array_equal(mask.membership, expected)


def test_scan_huge_sigma_leaves_only_the_ball():
    f = reference_function()
    uset = reference_set(sigma=1e6)
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(101, 101))
    mask = scan_region(f, uset, spec)
    pts = build_grid(spec)
    inside = np.linalg.norm(pts, axis=1) <= 0.1
    assert np.array_equal(mask.membership, inside)


def test_scan_results_deterministic():
    f = reference_function()
    uset = reference_set()
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(51, 51))
    a = scan_region(f, uset, spec)
    b = scan_region(f, uset, spec)
    assert np.array_equal(a.membership, b.membership)


def test_mask_nesting_and_subset():
    f = reference_function()
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(81, 81))
    tight = scan_region(f, reference_set(sigma=5.0), spec)
    loose = scan_region(f, reference_set(sigma=0.25), spec)
    assert mask_subset(tight, loose)
    assert not mask_subset(loose, tight)
    small = scan_region(f, reference_set(radius=0.1), spec)
    large = scan_region(f, reference_set(radius=0.4), spec)
    assert mask_subset(small, large)


def test_mask_subset_requires_identical_grids():
    f = reference_function()
    a = scan_region(f, reference_set(), GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], counts=(11, 11)))
    b = scan_region(f, reference_set(), GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], counts=(21, 21)))
    with pytest.raises(ValueError, match="^masks over different grids cannot be compared$"):
        mask_subset(a, b)


def test_scan_region_symmetry():
    # the reference model is symmetric under x2 -> -x2 and the window is too
    f = reference_function()
    mask = scan_region(
        f, reference_set(), GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(101, 101))
    )
    img = mask.membership.reshape(101, 101)
    assert np.array_equal(img, img[:, ::-1])


def test_csv_round_trip_exact(tmp_path):
    f = reference_function()
    uset = reference_set()
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(41, 41))
    mask = scan_region(f, uset, spec)
    path = tmp_path / "mask.csv"
    write_mask_csv(mask, str(path))
    loaded = read_mask_csv(str(path))
    assert np.array_equal(loaded.membership, mask.membership)
    assert loaded.grid.counts == mask.grid.counts
    assert np.array_equal(loaded.grid.lower, mask.grid.lower)
    assert np.array_equal(loaded.grid.upper, mask.grid.upper)
    assert _scan_fields(loaded) == _scan_fields(mask) == (2.0, 1e-9, 0.1, None)


def test_csv_round_trip_finite_set(tmp_path):
    f = reference_function()
    uset = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0], [1.0, 1.0]]), sigma=1.0)
    mask = scan_region(f, uset, GridSpec(lower=[-1.0, -1.0], upper=[2.0, 2.0], counts=(13, 13)))
    path = tmp_path / "mask.csv"
    write_mask_csv(mask, str(path))
    loaded = read_mask_csv(str(path))
    assert _scan_fields(loaded) == _scan_fields(mask) == (1.0, 1e-9, None, 2)
    assert np.array_equal(loaded.membership, mask.membership)


def test_csv_write_deterministic(tmp_path):
    f = reference_function()
    mask = scan_region(
        f, reference_set(), GridSpec(lower=[-1.0, -1.0], upper=[2.0, 2.0], counts=(17, 17))
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_mask_csv(mask, str(p1))
    write_mask_csv(mask, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError):
        read_mask_csv(str(path))


def _scan_fields(mask):
    return (mask.sigma, mask.slack, mask.eps0, mask.point_count)


def _small_mask(fields):
    # hand-built 3x2 grid: x1 in {0, 1, 2}, x2 in {0, 1}, last axis fastest
    spec = GridSpec(lower=[0.0, 0.0], upper=[2.0, 1.0], counts=(3, 2))
    return RegionMask(spec, np.array([True, False, False, False, False, True]), *fields)


SMALL_EPS0_HEADER = "# sigma=1.0, eps0=0.1, slack=0.0\n"
SMALL_CSV_BODY = (
    "# grid lower=0.0,0.0 upper=2.0,1.0 counts=3,2\n"
    "0.0,0.0,1\n0.0,1.0,0\n1.0,0.0,0\n1.0,1.0,0\n2.0,0.0,0\n2.0,1.0,1\n"
)


@pytest.mark.parametrize(
    "fields, first_line, written",
    [
        ((1.0, 0.0, 0.1, None), SMALL_EPS0_HEADER, True),
        ((0.5, 1e-09, None, 16), "# sigma=0.5, points=16, slack=1e-09\n", True),
        # the reader ignores header fields it does not use, such as an old theta_steps=
        ((2.0, 1e-09, 0.1, None), "# sigma=2.0, eps0=0.1, slack=1e-09\n", False),
    ],
    ids=["eps0", "points", "theta-steps-header"],
)
def test_csv_frozen_bytes(tmp_path, fields, first_line, written):
    path = tmp_path / "mask.csv"
    data = (first_line + SMALL_CSV_BODY).encode("ascii")
    if written:
        write_mask_csv(_small_mask(fields), str(path))
        assert path.read_bytes() == data
    else:
        path.write_bytes(data)
    back = read_mask_csv(str(path))
    assert _scan_fields(back) == fields
    assert np.array_equal(back.membership, _small_mask(fields).membership)


@pytest.mark.parametrize(
    "lower, upper, counts",
    [
        ([-1 / 3], [2 / 7], (11,)),
        ([-1 / 3, -2.0], [2 / 7, 1 / 3], (7, 9)),
        ([-1 / 3, 0.1, -2 / 7], [2 / 7, 0.7, 1 / 3], (5, 3, 6)),
        ([-1 / 3, 0.1, -2 / 7, -1.0], [2 / 7, 0.7, 1 / 3, 1 / 7], (3, 4, 2, 5)),
    ],
    ids=["1d", "2d", "3d", "4d"],
)
def test_csv_matches_per_row_formula(tmp_path, lower, upper, counts):
    # the per-point formula the streaming writer replaced, over build_grid
    spec = GridSpec(lower=lower, upper=upper, counts=counts)
    flags = np.random.default_rng(len(counts)).random(spec.point_count) < 0.5
    mask = RegionMask(grid=spec, membership=flags, sigma=2 / 3, slack=1e-9, eps0=1 / 7)
    path = tmp_path / "mask.csv"
    write_mask_csv(mask, str(path))
    header = path.read_text(encoding="ascii").splitlines(keepends=True)[:2]
    rows = [
        ",".join(repr(float(v)) for v in row) + f",{int(flag)}\n"
        for row, flag in zip(build_grid(spec), flags)
    ]
    assert header[0] == "# sigma=0.6666666666666666, eps0=0.14285714285714285, slack=1e-09\n"
    assert path.read_bytes() == "".join(header + rows).encode("ascii")
    assert np.array_equal(read_mask_csv(str(path)).membership, flags)


def test_csv_write_memory_is_bounded(tmp_path):
    # rows stream to the file; collecting them as strings would peak near 180 MB
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(1001, 1001))
    mask = RegionMask(
        grid=spec,
        membership=np.random.default_rng(3).random(spec.point_count) < 0.5,
        sigma=2.0,
        slack=1e-9,
        eps0=0.1,
    )
    tracemalloc.start()
    try:
        write_mask_csv(mask, str(tmp_path / "mask.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "old, new, error",
    [
        pytest.param("1.0,0.0,0\n", "1.0,0.0\n", None, id="ragged"),
        pytest.param("1.0,0.0,0\n", "1.0000000000000002,0.0,0\n", None, id="x1-off-grid"),
        pytest.param("1.0,0.0,0\n", "1.0,5e-324,0\n", None, id="x2-off-grid"),
        pytest.param("1.0,0.0,0\n1.0,1.0,0\n", "1.0,1.0,0\n1.0,0.0,0\n", None, id="out-of-order"),
        pytest.param("2.0,1.0,1\n", "", None, id="missing-row"),
        pytest.param("2.0,1.0,1\n", "2.0,1.0,1\n2.0,1.0,1\n", None, id="extra-row"),
        pytest.param("\n", ",0\n", None, id="extra-column"),
        pytest.param("1.0,0.0,0\n", "# note\n1.0,0.0,0\n", None, id="comment-row"),
        pytest.param("1.0,0.0,0\n", "1.0,zero,0\n", None, id="garbage-field"),
        pytest.param("sigma=1.0, ", "", "sigma=", id="no-sigma"),
        pytest.param(", slack=0.0", "", "slack=", id="no-slack"),
        pytest.param("lower=0.0,0.0 ", "", "lower=", id="no-lower"),
        pytest.param(" upper=2.0,1.0", "", "upper=", id="no-upper"),
        pytest.param(" counts=3,2", "", "counts=", id="no-counts"),
    ],
)
def test_csv_rejects_bad_rows(tmp_path, old, new, error):
    path = tmp_path / "mask.csv"
    path.write_text(SMALL_EPS0_HEADER + SMALL_CSV_BODY, encoding="ascii")
    assert read_mask_csv(str(path)).member_count == 2  # the unedited file is accepted
    header, _, rows = SMALL_CSV_BODY.partition("\n")
    header = SMALL_EPS0_HEADER + header + "\n"
    if error is None:  # a row edit
        assert old in rows
        rows = rows.replace(old, new)
    else:  # a header field is dropped, and the error names it
        assert old in header
        header = header.replace(old, new)
    path.write_text(header + rows, encoding="ascii")
    with pytest.raises(ValueError, match=error):
        read_mask_csv(str(path))


@pytest.mark.parametrize(
    "old, new, error",
    [
        pytest.param("2.0,1.0,1\n", "2.0,1.0,2\n", "data row 6 has member flag 2.0, not 0 or 1", id="flag-2"),
        pytest.param("0.0,1.0,0\n", "0.0,1.0,nan\n", "data row 2 has member flag nan", id="flag-nan"),
        pytest.param("1.0,0.0,0\n", "1.0,0.0,0.5\n", "data row 3 has member flag 0.5", id="flag-half"),
        pytest.param("counts=3,2", "counts=abc", "invalid literal for int", id="counts-abc"),
        pytest.param("counts=3,2", "counts=3", "must have equal length", id="counts-short"),
        pytest.param("lower=0.0,0.0", "lower=0.0,0.0,0.0", "must have equal length", id="lower-long"),
        pytest.param("upper=2.0,1.0", "upper=x,1.0", "could not convert", id="upper-x"),
        pytest.param("sigma=1.0", "sigma=x", "could not convert", id="sigma-x"),
        pytest.param("slack=0.0", "slack=", "could not convert", id="slack-empty"),
        pytest.param("eps0=0.1", "points=1.5", "invalid literal for int", id="points-fraction"),
        pytest.param("eps0=0.1", "eps0=ten", "could not convert", id="eps0-ten"),
        # values the writer never emits: RegionMask refuses each, the reader names the path
        pytest.param("sigma=1.0, eps0=0.1, slack=0.0", "sigma=nan, eps0=0.1, points=16, slack=-5",
                     "sigma must be a finite number > 0, got nan", id="sigma-nan-slack-negative-both-sizes"),
        pytest.param("eps0=0.1", "eps0=nan", "eps0 must be a finite number > 0, got nan", id="eps0-nan"),
        pytest.param("eps0=0.1", "eps0=-2.0", "eps0 must be a finite number > 0, got -2.0", id="eps0-negative"),
        pytest.param("eps0=0.1", "eps0=inf", "eps0 must be a finite number > 0, got inf", id="eps0-inf"),
        pytest.param("eps0=0.1", "points=-3", "point_count must be >= 1, got -3", id="points-negative"),
        pytest.param("eps0=0.1", "points=0", "point_count must be >= 1, got 0", id="points-zero"),
        pytest.param("slack=0.0", "slack=1.0", "slack must be below the classifying sigma 1.0, got 1.0",
                     id="slack-at-sigma"),
    ],
)
def test_csv_bad_flags_and_header_values_name_the_path(tmp_path, old, new, error):
    # member flags other than 0 and 1 used to load as members, and these
    # header errors used to leave out the path
    path = tmp_path / "mask.csv"
    text = SMALL_EPS0_HEADER + SMALL_CSV_BODY
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="ascii")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(error)):
        read_mask_csv(str(path))


def test_pgm_frozen_bytes(tmp_path):
    # PGM rows run top-down in x2, columns left-right in x1
    mask = _small_mask((1.0, 0.0, 0.1, None))
    path = tmp_path / "mask.pgm"
    write_mask_pgm(mask, str(path))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 0, 255, 255, 0, 0])


def test_pgm_rejects_non_2d(tmp_path):
    spec = GridSpec(lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0], counts=(2, 2, 2))
    mask = RegionMask(grid=spec, membership=np.zeros(8, dtype=bool), sigma=1.0, slack=0.0, eps0=0.1)
    with pytest.raises(ValueError, match="^PGM output is only defined for 2-D masks$"):
        write_mask_pgm(mask, str(tmp_path / "mask.pgm"))


def test_scan_3d_ball():
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(3), m=[1.0, 0.0, 0.0]),))
    uset = UncertaintySet(region=Ball(center=[0.0, 0.0, 0.0], radius=0.2), sigma=1.0)
    spec = GridSpec(lower=[-1.0] * 3, upper=[2.0] * 3, counts=(7, 7, 7))
    mask = scan_region(f, uset, spec)
    pts = build_grid(spec)
    for i in range(pts.shape[0]):
        assert bool(mask.membership[i]) == classify_point(f, pts[i], uset).member


def test_scan_dimension_mismatch():
    f = reference_function()
    with pytest.raises(ValueError, match="^function, set, and grid dimensions must agree$"):
        scan_region(f, reference_set(), GridSpec(lower=[0.0], upper=[1.0], counts=(5,)))


def test_region_mask_shape_validation():
    spec = GridSpec(lower=[0.0], upper=[1.0], counts=(5,))
    with pytest.raises(ValueError):
        RegionMask(grid=spec, membership=np.zeros(4, dtype=bool), sigma=1.0, slack=0.0)


@pytest.mark.parametrize(
    "fields, error",
    [
        ((float("nan"), 0.0, 0.1, None), "sigma must be a finite number > 0, got nan"),
        ((0.0, 0.0, 0.1, None), "sigma must be a finite number > 0, got 0.0"),
        ((float("inf"), 0.0, 0.1, None), "sigma must be a finite number > 0, got inf"),
        ((1.0, -5.0, 0.1, None), "slack must be a finite number >= 0, got -5.0"),
        ((1.0, float("nan"), 0.1, None), "slack must be a finite number >= 0, got nan"),
        ((1.0, 0.0, 0.1, 16), "a mask has eps0 (a ball) or point_count (a finite set), not both"),
        ((1.0, 0.0, float("nan"), None), "eps0 must be a finite number > 0, got nan"),
        ((1.0, 0.0, -2.0, None), "eps0 must be a finite number > 0, got -2.0"),
        ((1.0, 0.0, 0.0, None), "eps0 must be a finite number > 0, got 0.0"),
        ((1.0, 0.0, float("inf"), None), "eps0 must be a finite number > 0, got inf"),
        ((1.0, 0.0, None, -3), "point_count must be >= 1, got -3"),
        ((1.0, 0.0, None, 0), "point_count must be >= 1, got 0"),
        ((1.0, float("inf"), 0.1, None), "slack must be a finite number >= 0, got inf"),
        ((1.0, 1.0, 0.1, None), "slack must be below the classifying sigma 1.0, got 1.0"),
    ],
)
def test_region_mask_refuses_header_values_the_writer_never_emits(fields, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        _small_mask(fields)


MODEL_BUILDERS = {
    "QuadraticTerm": lambda: QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),
    "Kink": lambda: Kink(point=[0.5, 0.0], generators=([1.0, 0.0], [-1.0, 0.0])),
    "KnownFunction": reference_function,
    "Ball": lambda: Ball(center=[0, 0], radius=1),
    "GridSpec": lambda: GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(5, 5)),
    "FinitePointSet": lambda: FinitePointSet(points=[[0.0, 0.0], [1.0, 1.0]]),
    "UncertaintySet": reference_set,
    "MembershipVerdict": lambda: classify_point(reference_function(), [1.0, 0.0], reference_set()),
    "Witness": lambda: classify_point(reference_function(), [1.0, 0.0], reference_set()).witness,
    "RowVerdicts": lambda: classify_points(reference_function(), reference_set(), [[1.0, 0.0], [3.0, 0.0]]),
    "RegionMask": lambda: scan_region(
        reference_function(), reference_set(), GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(5, 5))
    ),
    "ValidationReport": lambda: validate_necessity(reference_function(), reference_set(), 2.0, 5, 0),
    "ProblemConfig": lambda: load_config(
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "reference.json")
    ),
}


@pytest.mark.parametrize("build", MODEL_BUILDERS.values(), ids=MODEL_BUILDERS.keys())
def test_model_objects_compare_by_identity(build):
    # == between equal but distinct objects used to compare their arrays and raise "The truth
    # value of an array ... is ambiguous", and hash() raised on the array fields
    a, b = build(), build()
    assert a is not b
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert hash(a) == hash(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("build", MODEL_BUILDERS.values(), ids=MODEL_BUILDERS.keys())
def test_model_attributes_are_write_once(build):
    obj = build()
    before = dict(vars(obj))
    assert before
    for name, value in before.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert vars(obj).keys() == before.keys() and all(vars(obj)[k] is v for k, v in before.items())
    if isinstance(obj, GridSpec):
        # axes() still fills its cache on the first call and returns the same arrays after
        axes = obj.axes()
        assert obj.axes() is axes
        with pytest.raises(AttributeError):
            obj._axes = None
        assert obj.axes() is axes


def test_region_mask_refuses_a_point_count_that_is_not_an_integer(tmp_path):
    # 2.5 or True used to be written as points=2.5 or points=True, which read_mask_csv refused
    spec = GridSpec(lower=[0.0], upper=[1.0], counts=(2,))
    for bad in (2.5, True, np.True_, "3"):
        with pytest.raises(ValueError, match=re.escape(f"point_count must be an integer, got {bad!r}")):
            RegionMask(spec, [True, False], 1.0, 0.0, point_count=bad)
    mask = RegionMask(spec, [True, False], 1.0, 0.0, point_count=np.int64(3))
    assert type(mask.point_count) is int and mask.point_count == 3
    write_mask_csv(mask, str(tmp_path / "mask.csv"))
    assert read_mask_csv(str(tmp_path / "mask.csv")).point_count == 3


@st.composite
def smooth_scan_problems(draw):
    """A 1- to 3-D smooth model (1-2 PSD terms, up to 10^10 apart in curvature), a set, a slack and a grid.

    A third of the problems are scaled jointly by 2^k, k in [-20, 20]: the
    coordinates by 2^k, the curvatures and sigma by 2^-2k.
    """
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-20, 20)) if draw(st.integers(0, 2)) == 0 else 1.0
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
        curvatures = 10.0 ** rng.uniform(-6.0, 4.0, n) * (rng.random(n) > 0.2)
        Q = (rotation * curvatures) @ rotation.T
        terms.append(QuadraticTerm(Q=(Q + Q.T) / (2.0 * scale**2), m=rng.uniform(-2.0, 2.0, n) * scale,
                                   weight=float(rng.uniform(0.2, 3.0))))
    if draw(st.booleans()):
        region = Ball(center=rng.uniform(-1.0, 1.0, n) * scale, radius=float(rng.uniform(0.01, 1.0)) * scale)
    else:
        region = FinitePointSet(points=rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), n)) * scale)
    sigma = float(rng.uniform(0.1, 4.0)) / scale**2
    slack = float(rng.uniform(0.0, sigma / 2.0))
    counts = {1: (301,), 2: (41, 37), 3: (13, 11, 12)}[n]
    lower, upper = rng.uniform(-4.0, -1.0, n) * scale, rng.uniform(1.0, 4.0, n) * scale
    spec = GridSpec(lower=lower, upper=upper, counts=counts)
    return KnownFunction(terms=tuple(terms)), UncertaintySet(region=region, sigma=sigma), spec, slack


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(smooth_scan_problems())
def test_pruned_scan_equals_the_kernel_on_every_row(problem):
    # rows outside every Thales box are never scored; the mask must still be the kernel's bit for bit
    f, uset, spec, slack = problem
    mask = scan_region(f, uset, spec, slack=slack)
    assert np.array_equal(mask.membership, classify_points(f, uset, build_grid(spec), slack).member)


def bench_like_finite16(seed: int, counts=(801, 801)):
    points = np.random.default_rng(seed).uniform(-0.5, 0.5, (16, 2))
    uset = UncertaintySet(region=FinitePointSet(points=points), sigma=2.0)
    return reference_function(), uset, GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=counts)


def test_thales_boxes_are_tight_enough_for_a_shrink_to_show(monkeypatch):
    # boxes shrunk by 1% about their centres drop members, so the equality above has teeth
    f, uset, spec = bench_like_finite16(1)
    full = classify_points(f, uset, build_grid(spec)).member
    assert np.array_equal(scan_region(f, uset, spec).membership, full)
    boxes = scanner._thales_boxes

    def shrunk(*args):
        lo, hi = boxes(*args)
        centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0 * 0.99
        return centre - half, centre + half

    monkeypatch.setattr(scanner, "_thales_boxes", shrunk)
    assert not np.array_equal(scan_region(f, uset, spec).membership, full)


def kernel_rows(monkeypatch) -> list:
    """The row count of every classify_points call that scan_region makes from now on."""
    seen = []

    def counting(f, uset, X, slack):
        seen.append(len(X))
        return classify_points(f, uset, X, slack)

    monkeypatch.setattr(scanner, "classify_points", counting)
    return seen


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_the_kernel_sees_at_most_a_fifth_of_a_finite16_grid(monkeypatch, seed):
    f, uset, spec = bench_like_finite16(seed)
    seen = kernel_rows(monkeypatch)
    mask = scan_region(f, uset, spec)
    assert sum(seen) <= 0.2 * spec.point_count
    assert np.array_equal(mask.membership, classify_points(f, uset, build_grid(spec)).member)


def test_kinks_and_overflowing_rows_scan_the_whole_grid(monkeypatch):
    seen = kernel_rows(monkeypatch)
    spec = GridSpec(lower=[-1.0, -2.0], upper=[3.0, 2.0], counts=(101, 101))
    kinked = KnownFunction(terms=reference_function().terms,
                           kinks=(Kink(point=[2.5, 1.5], generators=([5.0, 0.0], [-5.0, 0.0])),))
    # |g| reaches 1e153: no row overflows, but the a-priori bound does
    heavy = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0], weight=1e152),))
    for f in (kinked, heavy):
        seen.clear()
        scan_region(f, reference_set(), spec)
        assert sum(seen) == spec.point_count
