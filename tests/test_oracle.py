"""Tests for the sampling oracle and the necessity validation campaign."""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minregion import oracle
from minregion.cli import main
from minregion.errors import NonFiniteError
from minregion.funcmodel import Kink, KnownFunction, QuadraticTerm
from minregion.geometry import Ball
from minregion.membership import FinitePointSet, UncertaintySet, classify_point, classify_points
from minregion.funcmodel import gradient
from minregion.oracle import (
    minimize_sum,
    minimize_sum_iterative,
    sample_unknown,
    validate_necessity,
    _draw_unknowns,
    _kink_multipliers,
    _minimize_block,
    _sub_seeds,
)


def reference_function():
    return KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),))


def reference_set(sigma=2.0, radius=0.1):
    return UncertaintySet(region=Ball(center=[0.0, 0.0], radius=radius), sigma=sigma)


def test_minimize_sum_reference():
    # (x1-2)^2 + x2^2 plus (2/2)||x||^2 balances at (1, 0)
    x = _minimize_block(reference_function(), [2.0], [[0.0, 0.0]])[0]
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)


def test_minimize_sum_dominant_unknown():
    x = _minimize_block(reference_function(), [1e9], [[0.3, -0.4]])[0]
    assert float(np.linalg.norm(x - [0.3, -0.4])) < 1e-6


def test_minimize_sum_stationarity():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        f = KnownFunction(
            terms=(
                QuadraticTerm(
                    Q=a.T @ a + 0.05 * np.eye(n),
                    m=rng.uniform(-2, 2, n),
                    weight=float(rng.uniform(0.2, 2.0)),
                ),
            )
        )
        center, sigma_u = rng.uniform(-1, 1, n), float(rng.uniform(0.1, 10.0))
        x = _minimize_block(f, [sigma_u], [center])[0]
        total = gradient(f, x) + sigma_u * (x - center)
        assert float(np.linalg.norm(total)) < 1e-10


def test_minimize_sum_coincident_centers():
    # when both terms share a minimizer, the sum bottoms out exactly there
    f = KnownFunction(
        terms=(
            QuadraticTerm(
                Q=np.array([[3.0, 1.0], [1.0, 2.0]]), m=[0.7, -0.3], weight=1.5
            ),
        )
    )
    assert np.array_equal(_minimize_block(f, [4.0], [[0.7, -0.3]])[0], np.array([0.7, -0.3]))


def test_minimize_sum_rejects_overflow():
    # a centre at 1e308 overflows sigma_u c in the normal equations; the minimizer is not finite
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="coordinates are not finite"):
            _minimize_block(f, [2.0], [[1e308, 0.0]])


def test_singular_row_raises_nonfinite_error_naming_it():
    # P = 2w [[1, 1], [1, 1]] has eigenvalues 0 and 4w = 2^55, and V mixes both coordinates,
    # so a row is singular in floats when sigma_u <= eps (|V|^T |P| 1)_0 = 8 sqrt(2), about
    # 11.3: rows 1 and 3 here
    f = KnownFunction(terms=(QuadraticTerm(Q=np.ones((2, 2)), m=[0.0, 0.0], weight=2.0**53),))
    with pytest.raises(NonFiniteError, match=r"^row 1: normal equations are singular$") as exc:
        _minimize_block(f, [20.0, 10.0, 30.0, 5.0], np.ones((4, 2)))
    assert exc.value.row == 1
    # the KKT solves of _kink_multipliers pass the block rows of their group
    A = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2), [[2.0, 2.0], [2.0, 2.0]]])
    with pytest.raises(NonFiniteError, match=r"^row 7: kink dual is singular$"):
        oracle._solve(A, np.ones((4, 2, 1)), "kink dual is singular", np.array([5, 7, 9, 11]))


def test_validate_names_the_trial_of_a_singular_system_in_a_later_block():
    # P = 2^54 [[1, 1], [1, 1]] has eigenvalues 0 and 2^55, and V mixes both coordinates, so a
    # trial is singular when sigma_u <= eps (|V|^T |P| 1)_0 = 8 sqrt(2), about 11.3; sigma =
    # 10.77 puts about 1 trial in 8000 there, and at seed 0 the first is past the first block
    f = KnownFunction(terms=(QuadraticTerm(Q=np.ones((2, 2)), m=[0.0, 0.0], weight=2.0**53),))
    uset = UncertaintySet(region=Ball(center=[0.5, -0.3], radius=0.1), sigma=10.77)
    trials = 8000
    seeds = np.random.SeedSequence(0).generate_state(trials, dtype=np.uint64)
    sigma_u = _draw_unknowns(uset, 10.77, seeds)[1]
    P = 2.0**54 * np.ones((2, 2))
    e, V = np.linalg.eigh(P)
    leak = np.finfo(float).eps * (np.abs(V).T @ np.abs(P).sum(axis=1))
    singular = np.flatnonzero((sigma_u[:, None] + e <= leak).any(axis=1))
    block = oracle.BLOCK_ROWS // 2
    assert singular.size and block <= singular[0] < trials
    with pytest.raises(NonFiniteError, match=r"normal equations are singular") as exc:
        validate_necessity(f, uset, 10.77, trials, 0)
    assert exc.value.row == singular[0]


def test_kink_dual_sweep_bound_names_the_trial(tmp_path, capsys, monkeypatch):
    # with _step a no-op a row whose candidate leaves the simplex never moves, so the
    # 10 (m + 1) sweep bound is the error: the library names the row, the CLI the trial
    gens = np.random.default_rng(3).standard_normal((4, 2))
    f = KnownFunction(
        terms=reference_function().terms, kinks=(Kink(point=[0.5, 0.0], generators=tuple(gens)),)
    )
    monkeypatch.setattr(oracle, "_step", lambda *args: None)
    with pytest.raises(NonFiniteError, match=r"^row \d+: kink multipliers open after 50 sweeps$") as exc:
        validate_necessity(f, reference_set(), 2.0, trials=20, seed=1)
    doc = {
        "known_function": {
            "terms": [{"Q": [[1.0, 0.0], [0.0, 1.0]], "m": [2.0, 0.0]}],
            "kinks": [{"point": [0.5, 0.0], "generators": gens.tolist()}],
        },
        "uncertainty": {"type": "ball", "center": [0.0, 0.0], "radius": 0.1},
        "sigma": 2.0,
    }
    config = tmp_path / "kink.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", str(config), "--trials", "20", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {config}: minimizer of trial {exc.value.row}: kink multipliers open after 50 sweeps\n"
    )


def test_iterative_matches_closed_form_smooth():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        f = KnownFunction(
            terms=(QuadraticTerm(Q=a.T @ a + 0.1 * np.eye(n), m=rng.uniform(-2, 2, n)),)
        )
        center, sigma_u = rng.uniform(-1, 1, n), float(rng.uniform(0.5, 5.0))
        # the one-trial calls take the pair (center, sigma_u) and return the one-row block
        x = _minimize_block(f, [sigma_u], [center])[0]
        assert np.array_equal(minimize_sum_iterative(f, (center, sigma_u)), x)
        assert np.array_equal(minimize_sum(f, (center, sigma_u)), x)


def test_iterative_kink_balanced_case():
    # |x - 1| against (1/2) x^2: the kink itself is the minimizer, returned exactly
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.zeros((1, 1)), m=[0.0]),),
        kinks=(Kink(point=[1.0], generators=([-1.0], [1.0])),),
    )
    x = _minimize_block(f, [1.0], [[0.0]])[0]
    assert x[0] == 1.0


def test_iterative_kink_dominant_unknown():
    # with sigma_u = 1e6 the slope balance sits at x = 1e-6, far from the kink
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.zeros((1, 1)), m=[0.0]),),
        kinks=(Kink(point=[1.0], generators=([-1.0], [1.0])),),
    )
    x = _minimize_block(f, [1e6], [[0.0]])[0]
    assert abs(x[0] - 1e-6) < 1e-9


def test_iterative_two_kinks():
    # smooth pull toward 3 with kinks at 1 and 2; hull at 2 certifies stationarity
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.eye(1), m=[3.0]),),
        kinks=(
            Kink(point=[1.0], generators=([-1.0], [1.0])),
            Kink(point=[2.0], generators=([-4.0], [4.0])),
        ),
    )
    x = _minimize_block(f, [1.0], [[2.1]])[0]
    assert x[0] == 2.0


def test_iterative_single_kink_tie_face():
    # generators +-(3, 0): the minimizer sits on the tie face x1 = 0.5, off the kink point
    f = KnownFunction(
        terms=reference_function().terms,
        kinks=(Kink(point=[0.5, 0.0], generators=([3.0, 0.0], [-3.0, 0.0])),),
    )
    x = _minimize_block(f, [3.0], [[0.0, 0.05]])[0]
    assert np.allclose(x, [0.5, 0.03], rtol=0.0, atol=1e-15)


def _completed_objective(f, sigma_u, center, x):
    """f + (sigma_u / 2) ||x - center||^2 with each kink's generators completed to a max-affine envelope."""
    unknown = 0.5 * sigma_u * float(np.sum((x - center) ** 2))
    kinks = sum(max(float(g @ (x - k.point)) for g in k.generators) for k in f.kinks)
    return f.value(x) + unknown + kinks


def _assert_locally_minimal(f, sigma_u, center, x, rng):
    value = _completed_objective(f, sigma_u, center, x)
    for radius in (1e-6, 1e-3):
        steps = rng.standard_normal((50, x.shape[0]))
        steps *= radius / np.linalg.norm(steps, axis=1, keepdims=True)
        for step in steps:
            assert value <= _completed_objective(f, sigma_u, center, x + step) + 1e-12


def test_iterative_single_kink_is_minimal():
    rng = np.random.default_rng(55)
    at_kink_count = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        gens = rng.standard_normal((int(rng.integers(2, 7)), n)) * rng.uniform(0.5, 8.0)
        f = KnownFunction(
            terms=(QuadraticTerm(Q=a @ a.T, m=rng.uniform(-2, 2, n), weight=rng.uniform(0.2, 2.0)),),
            kinks=(Kink(point=rng.uniform(-1, 1, n), generators=tuple(gens)),),
        )
        center, sigma_u = rng.uniform(-1, 1, n), float(rng.uniform(0.5, 5.0))
        x = _minimize_block(f, [sigma_u], [center])[0]
        # the kink point is the minimizer iff the generator hull holds minus the smooth gradient there
        p = f.kinks[0].point
        at_kink = _in_hull(-(gradient(f, p) + sigma_u * (p - center)), gens, 1e-9)
        assert np.array_equal(x, p) == at_kink
        at_kink_count += at_kink
        _assert_locally_minimal(f, sigma_u, center, x, rng)
    assert 0 < at_kink_count < 200  # both branches ran


def _hull_project(z, gens):
    """Euclidean projection of z onto the hull of gens, by _kink_multipliers.

    Minimizing 1/2 ||V^T lam - z||^2 over the simplex is the one-kink case
    with Gram matrix V V^T and linear term V z.
    """
    V = np.stack(gens)
    lam = _kink_multipliers((V @ V.T)[None], (V @ z)[None], V, [len(V)])[0]
    assert np.all(lam >= 0.0) and abs(float(lam.sum()) - 1.0) <= 1e-12
    return lam @ V


def test_kinked_minimizers_are_exact_alone_and_in_blocks():
    # random 1-3-D models with 1-3 kinks: every row is a local minimum of the completed
    # objective, a row at a kink point is that point bit for bit, and a row has the same
    # bits solved alone as in its block
    rng = np.random.default_rng(58)
    at_kink = off_kink = 0
    for _ in range(40):
        n, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        term = QuadraticTerm(Q=a @ a.T, m=rng.uniform(-2, 2, n), weight=float(rng.uniform(0.2, 2.0)))
        kinks = tuple(
            Kink(
                point=rng.uniform(-1, 1, n),
                generators=tuple(rng.standard_normal((int(rng.integers(1, 4)), n)) * rng.uniform(0.5, 4.0)),
            )
            for _ in range(K)
        )
        f = KnownFunction(terms=(term,), kinks=kinks)
        sigma_u, centers = rng.uniform(0.5, 5.0, 6), rng.uniform(-1.5, 1.5, (6, n))
        for x, s, c in zip(_minimize_block(f, sigma_u, centers), sigma_u, centers):
            assert np.array_equal(_minimize_block(f, [s], [c])[0], x)
            _assert_locally_minimal(f, s, c, x, rng)
            near = [k.point for k in kinks if np.max(np.abs(x - k.point)) <= 1e-9]
            assert all(np.array_equal(x, p) for p in near)
            at_kink += bool(near)
            off_kink += not near
    assert at_kink > 20 and off_kink > 20  # both kinds of rows ran


def test_hull_project_cases():
    # a one-generator support gets multiplier 1 exactly, so the generator itself
    assert np.array_equal(_hull_project(np.array([5.0, 5.0]), (np.array([1.0, 2.0]),)), [1.0, 2.0])
    seg = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(_hull_project(np.array([1.0, 1.0]), seg), [0.5, 0.5])
    assert np.allclose(_hull_project(np.array([2.0, 0.0]), seg), [1.0, 0.0])
    tri = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    proj = _hull_project(np.zeros(3), tri)
    assert np.allclose(proj, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    # collinear and repeated generators: affinely dependent supports are skipped
    line = tuple(np.array(g) for g in ([0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]))
    assert np.allclose(_hull_project(np.array([1.5, 1.0]), line), [1.5, 0.0], rtol=0.0, atol=1e-12)


def _in_hull(p, gens, tol):
    """Caratheodory: p is in the hull iff at most n + 1 generators hold it with weights >= 0."""
    target = np.append(p, 1.0)
    for size in range(1, min(len(gens), p.shape[0] + 1) + 1):
        for support in itertools.combinations(gens, size):
            V = np.vstack([np.array(support).T, np.ones(size)])
            lam = np.linalg.lstsq(V, target, rcond=None)[0]
            if np.all(lam >= -tol) and float(np.linalg.norm(V @ lam - target)) <= tol:
                return True
    return False


def test_hull_project_property():
    rng = np.random.default_rng(53)
    for _ in range(300):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        gens = rng.standard_normal((k, n)) * rng.uniform(0.1, 10.0)
        z = rng.standard_normal(n) * rng.uniform(0.1, 20.0)
        scale = float(np.max(np.abs(gens)) + np.max(np.abs(z))) ** 2
        p = _hull_project(z, tuple(gens))
        assert _in_hull(p, gens, 1e-9)
        # no generator lies beyond the supporting hyperplane through p
        assert float(np.max((gens - p) @ (z - p))) <= 1e-9 * scale
        inside = rng.dirichlet(np.ones(k)) @ gens
        assert np.allclose(_hull_project(inside, tuple(gens)), inside, rtol=0.0, atol=1e-9 * np.sqrt(scale))


@st.composite
def kink_duals(draw):
    """(G, d, H, sizes): 16 rows of a kink dual over 1-4 blocks of 1-8 generators in 1-3-D.

    Generators are random, zero, +-scaled axes or duplicates of an earlier
    one; each row has its own positive definite M in G = H M H^T.
    """
    n = draw(st.integers(1, 3))
    kinds = st.lists(st.sampled_from(["random", "zero", "axis", "duplicate"]), min_size=1, max_size=8)
    blocks = draw(st.lists(kinds, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = []
    for kind in (kind for block in blocks for kind in block):
        if kind == "duplicate" and H:
            H.append(H[int(rng.integers(len(H)))])
        elif kind == "axis":
            H.append(np.eye(n)[int(rng.integers(n))] * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0))
        elif kind == "zero":
            H.append(np.zeros(n))
        else:
            H.append(rng.standard_normal(n) * rng.uniform(0.5, 4.0))
    H = np.array(H)
    a = rng.standard_normal((16, n, n))
    M = np.linalg.inv(a @ a.transpose(0, 2, 1) + rng.uniform(0.05, 2.0) * np.eye(n))
    d = rng.standard_normal((16, H.shape[0])) * rng.uniform(0.1, 10.0)
    return np.einsum("ij,...jk->...ik", H, M @ H.T), d, H, [len(block) for block in blocks]


@settings(max_examples=80, deadline=None)
@given(kink_duals())
def test_kink_multipliers_meet_kkt_alone_and_in_blocks(case):
    # every row is optimal by the KKT certificate: lam >= 0, each block sums to 1, and
    # within a block no price r_j = (G lam - d)_j is below the prices on the support;
    # a row has the same bits solved alone as in its block
    G, d, H, sizes = case
    lam = _kink_multipliers(G, d, H, sizes)
    r = np.einsum("bij,bj->bi", G, lam) - d
    tol = 1e-9 * max(1.0, float(np.abs(d).max()), float(np.abs(G).max()))
    for lo, hi in itertools.pairwise(np.cumsum([0, *sizes])):
        assert np.all(lam[:, lo:hi] >= 0.0)
        assert np.all(np.abs(lam[:, lo:hi].sum(axis=1) - 1.0) <= 1e-12)
        support_price = np.where(lam[:, lo:hi] > 0.0, r[:, lo:hi], -np.inf).max(axis=1)
        assert np.all(r[:, lo:hi].min(axis=1) >= support_price - tol)
    for i in range(G.shape[0]):
        assert np.array_equal(_kink_multipliers(G[i : i + 1], d[i : i + 1], H, sizes)[0], lam[i])


FROZEN_A = np.array([[1.0, 0.4, -0.2], [0.3, 0.9, 0.5], [-0.1, 0.2, 1.1]])
FROZEN_PROBLEMS = {
    "ball1": (
        KnownFunction(terms=(QuadraticTerm(Q=np.eye(1), m=[2.0]),)),
        UncertaintySet(region=Ball(center=[0.5], radius=0.3), sigma=1.5),
    ),
    "ball3": (
        KnownFunction(
            terms=(
                QuadraticTerm(Q=FROZEN_A @ FROZEN_A.T, m=[1.0, -0.5, 2.0], weight=0.7),
                QuadraticTerm(Q=np.diag([0.5, 2.0, 1.0]), m=[0.0, 1.0, -1.0]),
            )
        ),
        UncertaintySet(region=Ball(center=[0.1, -0.2, 0.3], radius=0.4), sigma=2.0),
    ),
    "finite": (
        KnownFunction(terms=(QuadraticTerm(Q=np.array([[2.0, 0.5], [0.5, 1.0]]), m=[2.0, -1.0]),)),
        UncertaintySet(
            region=FinitePointSet(points=[[0.0, 0.0], [0.2, -0.1], [-0.3, 0.3]]), sigma=1.0
        ),
    ),
}


FROZEN_DRAWS = [
    ("ball1", 0, [0.629458399114553], 4.158684114024904, [1.074534514567324]),
    ("ball1", 7, [0.4949635116415531], 2.715252014044469, [1.1333329917353705]),
    ("ball1", 2**63 + 5, [0.5213112436134422], 2.5421879720839815, [1.1724022004274233]),
    ("ball3", 0, [0.379051242420975, -0.2516308755211407, 0.19592145011465498],
     5.544912152033206, [0.3016968553040813, 0.3717292279691623, 0.1638690648964745]),
    ("ball3", 7, [0.011174381231098762, -0.2509840122015403, 0.3010077180564918],
     3.6203360187259586, [0.04857212869311724, 0.5222168603956711, 0.1755468321539366]),
    ("ball3", 2**63 + 5, [0.12498221222896598, -0.03649140674428458, 0.29079797779849687],
     3.3895839627786417, [0.09974529722744853, 0.6205425991375375, 0.15559569028047515]),
    ("finite", 1, [-0.3, 0.3], 2.154795071585948, [1.0479976957196682, -0.09664957412462766]),
    ("finite", 11, [0.0, 0.0], 1.6666765661957714, [1.2977502500641225, -0.353930930813065]),
    ("finite", 2**63 + 5, [0.0, 0.0], 1.6947919813893209, [1.290526983500196, -0.3492827174034655]),
]


@pytest.mark.parametrize(
    "case, seed, center, sigma_u, minimizer",
    FROZEN_DRAWS,
    ids=[f"{case}-{seed}" for case, seed, *_ in FROZEN_DRAWS],
)
def test_draws_and_minimizers_are_frozen(case, seed, center, sigma_u, minimizer):
    # recorded from the counter-based draw; validate reports depend on these bits
    f, uset = FROZEN_PROBLEMS[case]
    u = sample_unknown(uset, uset.sigma, seed)
    assert u[0].tolist() == center and u[1] == sigma_u
    assert minimize_sum(f, u).tolist() == minimizer


def _splitmix_uniforms(seed, count):
    """Uniforms 1..count of one sub-seed, from SplitMix64 in Python integers."""
    mask = 2**64 - 1
    out = []
    for k in range(1, count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        out.append(((z >> 12) + 0.5) * 2.0**-52)
    return out


def _reference_trial(uset, sigma, seed):
    """(center, sigma_u) of one trial, computed with Python floats and math."""
    lo, hi = 1.05, 3.0
    region = uset.region
    if isinstance(region, Ball):
        n = region.dimension
        u = _splitmix_uniforms(seed, 2 + 2 * ((n + 1) // 2))
        normals = []
        for a, b in zip(u[2::2], u[3::2]):
            r = math.sqrt(-2.0 * math.log(a))
            normals += [r * math.cos(2.0 * math.pi * b), r * math.sin(2.0 * math.pi * b)]
        direction = np.array(normals[:n])
        center = region.center + region.radius * u[1] ** (1.0 / n) * direction / np.linalg.norm(direction)
    else:
        k = region.points.shape[0]
        u = _splitmix_uniforms(seed, 2)
        center = region.points[min(int(u[1] * k), k - 1)]
    return center, sigma * (lo + (hi - lo) * u[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, "finite"])
def test_block_draw_and_solve_match_per_trial_reference(n):
    # a block's uniforms are SplitMix64 of each sub-seed, and every row has the bits
    # of that trial drawn and solved on its own
    rng = np.random.default_rng(56)
    dim = 2 if n == "finite" else n
    terms = []
    for _ in range(2):
        a = rng.standard_normal((dim, dim))
        weight = float(rng.uniform(0.2, 2.0))
        terms.append(QuadraticTerm(Q=a @ a.T, m=rng.uniform(-2, 2, dim), weight=weight))
    f = KnownFunction(terms=tuple(terms))
    if n == "finite":
        region = FinitePointSet(points=rng.uniform(-1, 1, (7, dim)))
    else:
        region = Ball(center=rng.uniform(-1, 1, dim), radius=0.6)
    uset = UncertaintySet(region=region, sigma=1.7)
    seeds = np.random.SeedSequence(57).generate_state(1000, dtype=np.uint64).tolist()
    seeds[:4] = [0, 1, 2**63, 2**64 - 1]
    count = 2 + 2 * ((dim + 1) // 2) if n != "finite" else 2
    uniforms = oracle._uniforms(seeds, count)
    centers, sigma_u = _draw_unknowns(uset, 1.7, seeds)
    minimizers = _minimize_block(f, sigma_u, centers)
    for i, seed in enumerate(seeds):
        assert uniforms[:, i].tolist() == _splitmix_uniforms(seed, count)
        c, s = u = sample_unknown(uset, 1.7, seed)
        assert np.array_equal(centers[i], c) and sigma_u[i] == s
        # a smooth model's minimizer has the bits of a one-trial call and solves
        # (sigma_u I + sum 2wQ) x = sigma_u c + sum 2wQm
        assert np.array_equal(minimizers[i], minimize_sum(f, u))
        A = s * np.eye(dim) + sum(2.0 * t.weight * t.Q for t in f.terms)
        b = s * c + sum(2.0 * t.weight * (t.Q @ t.m) for t in f.terms)
        assert np.allclose(minimizers[i], np.linalg.solve(A, b), rtol=1e-12, atol=1e-12)
        center, s = _reference_trial(uset, 1.7, seed)
        assert s == sigma_u[i]
        assert np.allclose(centers[i], center, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ball_draws_are_uniform_in_the_ball(n):
    # 20k draws: every center lies in the ball, the share within q^(1/n) of the radius is
    # about q (uniform in volume), and sigma_u stays in [sigma lo, sigma hi]
    center = np.linspace(-0.5, 0.5, n)
    uset = UncertaintySet(region=Ball(center=center, radius=0.8), sigma=2.0)
    seeds = oracle._sub_seeds(oracle._entropy_pool(100 + n), 0, 20_000)
    centers, sigma_u = _draw_unknowns(uset, 2.0, seeds)
    radial = np.linalg.norm(centers - center, axis=1) / 0.8
    assert np.all(radial <= 1.0 + 1e-12)
    for q in (0.25, 0.5, 0.75):
        share = float(np.mean(radial <= q ** (1.0 / n)))
        assert abs(share - q) <= 4.0 * math.sqrt(q * (1.0 - q) / 20_000)
    assert np.all((sigma_u >= 2.0 * 1.05) & (sigma_u <= 2.0 * 3.0))
    # the direction is isotropic: the coordinate means of the unit offsets are near zero
    units = (centers - center) / np.linalg.norm(centers - center, axis=1)[:, None]
    assert np.all(np.abs(units.mean(axis=0)) <= 4.0 / math.sqrt(n * 20_000))


def test_finite_set_picks_are_uniform():
    k = 7
    uset = UncertaintySet(region=FinitePointSet(points=np.arange(2.0 * k).reshape(k, 2)), sigma=1.0)
    seeds = oracle._sub_seeds(oracle._entropy_pool(99), 0, 20_000)
    centers, sigma_u = _draw_unknowns(uset, 1.0, seeds)
    counts = np.bincount((centers[:, 0] / 2.0).astype(int), minlength=k)
    p = 1.0 / k
    assert counts.sum() == 20_000 and counts.shape == (k,)
    assert np.all(np.abs(counts - 20_000 * p) <= 4.0 * math.sqrt(20_000 * p * (1.0 - p)))
    assert np.all((sigma_u >= 1.05) & (sigma_u <= 3.0))


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 3, 3**90, 2**200 + 12345]
)
def test_entropy_pool_matches_seed_sequence(seed):
    pool = oracle._entropy_pool(seed)
    expected = np.random.SeedSequence(seed).pool
    assert pool.dtype == expected.dtype and np.array_equal(pool, expected)


def test_entropy_pool_rejects_negative_seeds():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        oracle._entropy_pool(-1)
    with pytest.raises(ValueError):
        validate_necessity(reference_function(), reference_set(), 2.0, trials=1, seed=-1)


def test_draws_reject_a_sigma_that_overflows():
    # sigma_u reaches sigma * 3.0, which overflows: a ValueError, not an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^sigma must be > 0 with sigma \* 3.0 finite, got 1e\+308$"):
            sample_unknown(reference_set(), 1e308, 0)
        with pytest.raises(ValueError, match="finite, got 1e"):
            validate_necessity(reference_function(), reference_set(), 1e308, trials=3, seed=0)


def test_sample_unknown_ball_properties():
    uset = reference_set()
    for seed in range(300):
        center, sigma_u = sample_unknown(uset, 2.0, seed)
        assert float(np.linalg.norm(center)) <= 0.1 + 1e-12
        assert 2.0 * 1.05 <= sigma_u <= 2.0 * 3.0
    # deterministic in the seed
    a = sample_unknown(uset, 2.0, 7)
    b = sample_unknown(uset, 2.0, 7)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_sample_unknown_ball_mean():
    # uniform-in-ball: per-coordinate variance is r^2/(n+2), so the empirical
    # mean of 10^4 draws stays within 3 standard errors of the center
    center = np.array([0.5, -1.0, 2.0])
    uset = UncertaintySet(region=Ball(center=center, radius=0.8), sigma=2.0)
    draws = np.array([sample_unknown(uset, 2.0, 777_000 + k)[0] for k in range(10_000)])
    standard_error = 0.8 / np.sqrt(5.0) / np.sqrt(10_000.0)
    assert np.all(np.abs(draws.mean(axis=0) - center) <= 3.0 * standard_error)


def test_sample_unknown_finite_set():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    uset = UncertaintySet(region=FinitePointSet(points=pts), sigma=1.0)
    seen = set()
    for seed in range(60):
        center, _ = sample_unknown(uset, 1.0, seed)
        matches = np.all(pts == center, axis=1)
        assert matches.any()
        seen.add(int(np.argmax(matches)))
    assert seen == {0, 1, 2}


def test_sample_unknown_sigma_validation():
    with pytest.raises(ValueError):
        sample_unknown(reference_set(), -1.0, 0)
    with pytest.raises(ValueError):
        sample_unknown(reference_set(), 0.0, 0)


def test_validate_necessity_clean_campaign():
    report = validate_necessity(reference_function(), reference_set(), 2.0, trials=300, seed=9)
    assert report.passed
    assert report.falsification_count == 0
    assert report.member_count + report.interior_count == 300
    assert report.worst_margin is not None and report.worst_margin > 0.0


def test_validate_necessity_finite_set():
    uset = UncertaintySet(
        region=FinitePointSet(points=[[0.0, 0.0], [0.2, -0.1], [-0.3, 0.3]]), sigma=1.5
    )
    report = validate_necessity(reference_function(), uset, 1.5, trials=300, seed=10)
    assert report.passed


def test_validate_necessity_single_trial_singleton():
    # one closed-form instance: singleton candidate set and sigma_u = sigma puts the
    # joint minimizer at (1, 0) with pair score exactly -sigma, a margin of exactly 0.0
    f = reference_function()
    uset = UncertaintySet(region=FinitePointSet(points=[[0.0, 0.0]]), sigma=2.0)
    x = _minimize_block(f, [2.0], [[0.0, 0.0]])
    res = classify_points(f, uset, x, slack=0.0)
    assert x.tolist() == [[1.0, 0.0]]
    assert res.member[0] and not res.interior[0] and -uset.sigma - res.score[0] == 0.0
    report = validate_necessity(f, uset, 2.0, trials=1, seed=0)
    assert report.passed and report.member_count == 1 and report.worst_margin > 0.0


def test_validate_necessity_kinked_model():
    # generators wide enough that the kink is the minimizer for every draw
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.zeros((1, 1)), m=[0.0]),),
        kinks=(Kink(point=[1.0], generators=([-5.0], [5.0])),),
    )
    uset = UncertaintySet(region=Ball(center=[0.0], radius=0.1), sigma=1.0)
    report = validate_necessity(f, uset, 1.0, trials=100, seed=11)
    assert report.passed
    assert report.member_count == 100


def test_validate_necessity_tie_face_kink():
    # most minimizers lie on the tie face x1 = 0.5, off the kink point, where an
    # iterative solve cannot certify stationarity
    f = KnownFunction(
        terms=reference_function().terms,
        kinks=(Kink(point=[0.5, 0.0], generators=([3.0, 0.0], [-3.0, 0.0])),),
    )
    report = validate_necessity(f, reference_set(), 2.0, trials=200, seed=15)
    assert report.trials == 200 and report.falsification_count == 0


def test_validate_necessity_near_duplicate_generators():
    # (0, 3) and (1e-9, 3) in one kink make a support whose bordered system is singular in
    # floats; the solve takes the pair as dependent and never puts both in a working set
    f = KnownFunction(
        terms=reference_function().terms,
        kinks=(
            Kink(point=[0.5, 0.0], generators=([3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [1e-9, 3.0])),
            Kink(point=[0.0, 0.5], generators=([0.0, 3.0], [0.0, -3.0])),
        ),
    )
    report = validate_necessity(f, reference_set(radius=0.5), 2.0, trials=2000, seed=0)
    assert report.passed and report.interior_count > 0


def test_validate_necessity_detects_violated_hypothesis():
    # a set whose sigma is above the draw sigma breaks the necessity premise on purpose
    report = validate_necessity(reference_function(), reference_set(sigma=50.0), 2.0, trials=200, seed=12)
    assert not report.passed
    assert report.falsification_count > 0
    assert 0 < len(report.falsification_details) <= 20
    detail = report.falsification_details[0]
    assert set(detail) == {"trial", "minimizer", "center", "sigma_u", "best_score"}
    assert report.sigma == 2.0 and report.classify_sigma == 50.0
    assert report.worst_margin < 0.0


@settings(max_examples=40, deadline=None)
@given(
    draw_sigma=st.floats(0.2, 5.0),
    factor=st.floats(1.0, 40.0, exclude_min=True),
    radius=st.floats(0.02, 1.0),
    finite=st.booleans(),
    seed=st.integers(0, 2**64),
)
def test_report_margin_is_measured_against_the_set_sigma(draw_sigma, factor, radius, finite, seed):
    # draws use the sigma argument, verdicts and margins the set's sigma; with no slack
    # a trial is falsified exactly when its margin is negative
    if finite:
        region = FinitePointSet(points=[[0.0, 0.0], [radius, -radius], [-radius, 0.5 * radius]])
    else:
        region = Ball(center=[0.0, 0.0], radius=radius)
    uset = UncertaintySet(region=region, sigma=draw_sigma * factor)
    report = validate_necessity(reference_function(), uset, draw_sigma, trials=40, seed=seed, slack=0.0)
    assert report.sigma == draw_sigma and report.classify_sigma == uset.sigma
    falsified = report.worst_margin is not None and report.worst_margin < 0.0
    assert falsified == (report.falsification_count > 0)


def test_validate_necessity_huge_weight_warns_nothing():
    # 2 w Q near 1e160: the eigenvalues, the right-hand side sigma_u c + 2 w Q m and the solve
    # stay finite, so nothing overflows; the minimizer rounds onto m, which still reads as
    # falsified (a separate, known limit)
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[0.5, 0.0], weight=1e160),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_necessity(f, reference_set(), 2.0, trials=10, seed=1)
    assert report.trials == 10 and report.member_count + report.falsification_count == 10


@pytest.mark.parametrize("weight", [3e15, 1e16])
def test_validate_necessity_heavy_identity_term_keeps_its_minimizers(weight):
    # x = (sigma_u c + 2 w m) / (sigma_u + 2 w) per coordinate, an LU solve's bits: a Newton
    # step from c, whose rounding eps |x - c| the classifier multiplies by 2w, falsified 90
    # and 800 of these trials
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[0.5, 0.0], weight=weight),))
    report = validate_necessity(f, reference_set(), 2.0, trials=5000, seed=1)
    assert (report.member_count, report.falsification_count) == (5000, 0)


@pytest.mark.parametrize("center", [[1e5, 0.0], [1e10, 0.0]])
def test_validate_necessity_weight_1e300_far_from_m(center):
    # the minimizer sigma_u c / (sigma_u + 2e300) is tiny but exact; from c the step would
    # cancel c - (c - x) to nothing, or overflow in the centre gradient 2e300 c
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[0.0, 0.0], weight=1e300),))
    uset = UncertaintySet(region=Ball(center=center, radius=0.1), sigma=2.0)
    report = validate_necessity(f, uset, 2.0, trials=100, seed=1)
    assert (report.member_count, report.falsification_count) == (100, 0)


@pytest.mark.parametrize("weight", [1e16, 1e18])
def test_heavy_diagonal_term_with_a_flat_direction_validates(weight):
    # P = diag(0, 2w) far beyond 1 / (eps sigma): V = I mixes no rounding into the flat
    # direction, so no trial is singular, and x2 = sigma_u c2 / (sigma_u + 2w) is exact
    f = KnownFunction(terms=(QuadraticTerm(Q=np.diag([0.0, 1.0]), m=[0.0, 0.0], weight=weight),))
    uset = UncertaintySet(region=Ball(center=[0.5, -0.3], radius=0.1), sigma=0.01)
    report = validate_necessity(f, uset, 0.01, trials=2000, seed=1)
    assert (report.member_count, report.falsification_count) == (2000, 0)


def _report_from_trials(f, uset, sigma, trials, seed):
    """A validation report built trial by trial: draw, solve and classify each sub-seed alone."""
    seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    member = interior = 0
    details, margins = [], []
    for t, sub_seed in enumerate(seeds):
        center, sigma_u = unknown = sample_unknown(uset, sigma, int(sub_seed))
        minimizer = minimize_sum_iterative(f, unknown)
        verdict = classify_point(f, minimizer, uset)
        if verdict.interior:
            interior += 1
            continue
        if verdict.best_score is not None:
            margins.append(-uset.sigma - verdict.best_score)
        if verdict.member:
            member += 1
        elif len(details) < 20:
            details.append(
                {
                    "trial": t,
                    "minimizer": [float(v) for v in minimizer],
                    "center": [float(v) for v in center],
                    "sigma_u": sigma_u,
                    "best_score": verdict.best_score,
                }
            )
    return {
        "sigma": sigma,
        "classify_sigma": uset.sigma,
        "trials": trials,
        "member": member,
        "inside_set": interior,
        "falsifications": trials - member - interior,
        "worst_margin": min(margins) if margins else None,
        "seed": seed,
        "slack": 1e-9,
        "sigma_multiplier_range": [1.05, 3.0],
        "falsification_details": details,
    }


def _campaign(case):
    """(f, uset, sigma, trials) of a small campaign with a non-diagonal Q: draws use sigma."""
    a = np.array([[1.0, 0.4], [0.4, 0.7]])
    f = KnownFunction(terms=(QuadraticTerm(Q=a @ a.T, m=[2.0, -0.5], weight=0.8),))
    uset = UncertaintySet(region=Ball(center=[0.1, -0.2], radius=0.3), sigma=1.5)
    trials = 300
    if case == "finite":
        uset = UncertaintySet(
            region=FinitePointSet(points=[[0.0, 0.0], [0.2, -0.1], [-0.3, 0.3]]), sigma=1.5
        )
    elif case == "kink":
        f = KnownFunction(
            terms=(QuadraticTerm(Q=np.eye(1), m=[2.0]),),
            kinks=(Kink(point=[1.0], generators=([-5.0], [5.0])),),
        )
        uset = UncertaintySet(region=Ball(center=[0.0], radius=0.1), sigma=1.0)
        trials = 50
    elif case == "falsified":
        # classified against sigma 40 while drawn with 1.5
        return f, UncertaintySet(region=uset.region, sigma=40.0), 1.5, trials
    elif case in ("tie", "two_kinks"):
        # +-3e1 at (0.5, 0) leaves most minimizers on the tie face x1 = 0.5, off the kink point
        kinks = [Kink(point=[0.5, 0.0], generators=([3.0, 0.0], [-3.0, 0.0]))]
        if case == "two_kinks":
            kinks.append(Kink(point=[0.0, 0.5], generators=([0.0, 3.0], [0.0, -3.0])))
        f = KnownFunction(terms=reference_function().terms, kinks=tuple(kinks))
        uset = reference_set(radius=0.5)
    return f, uset, uset.sigma, trials


CAMPAIGNS = ["ball", "finite", "kink", "falsified", "tie", "two_kinks"]


@pytest.mark.parametrize("case", CAMPAIGNS)
def test_validate_necessity_equals_per_trial_loop(case):
    # the batched campaign reports exactly what classifying trial by trial does
    f, uset, sigma, trials = _campaign(case)
    report = validate_necessity(f, uset, sigma, trials, seed=14).to_dict()
    assert report == _report_from_trials(f, uset, sigma, trials, 14)
    if case == "falsified":
        assert report["falsifications"] > 0 and report["falsification_details"]


@pytest.mark.parametrize("case", CAMPAIGNS)
def test_validate_necessity_block_edges(case, monkeypatch):
    # blocks of 7 trials put block edges inside the campaign; the report must not move
    f, uset, sigma, trials = _campaign(case)
    whole = validate_necessity(f, uset, sigma, trials, seed=16)
    monkeypatch.setattr(oracle, "BLOCK_ROWS", 7)
    blocked = validate_necessity(f, uset, sigma, trials, seed=16)
    assert blocked.to_dict() == whole.to_dict()
    if case == "falsified":
        assert len(whole.falsification_details) == 20  # the cap spans several blocks


def test_validate_memory_is_bounded_in_dimension():
    # blocks shrink as n grows, so the stacked (block, n, n) systems stay near BLOCK_ROWS * n
    # floats; one block of all 2000 trials would peak near 50 MB here
    n = 40
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(n), m=2.0 * np.eye(n)[0]),))
    uset = UncertaintySet(region=Ball(center=np.zeros(n), radius=0.1), sigma=2.0)
    tracemalloc.start()
    try:
        report = validate_necessity(f, uset, 2.0, trials=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 2**20


def test_validate_memory_is_bounded_in_generators():
    # blocks shrink as the generator count m grows, so the (block, m, m) dual matrices stay
    # near BLOCK_ROWS * m floats; one block of all 300 trials would peak near 35 MB here
    rng = np.random.default_rng(3)
    kinks = tuple(Kink(point=p, generators=tuple(rng.standard_normal((60, 2)))) for p in np.eye(2) / 2)
    f = KnownFunction(terms=reference_function().terms, kinks=kinks)
    tracemalloc.start()
    try:
        validate_necessity(f, reference_set(), 2.0, trials=300, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_validate_necessity_deterministic():
    kwargs = dict(trials=50, seed=33)
    a = validate_necessity(reference_function(), reference_set(), 2.0, **kwargs)
    b = validate_necessity(reference_function(), reference_set(), 2.0, **kwargs)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_validate_necessity_trials_validation():
    with pytest.raises(ValueError):
        validate_necessity(reference_function(), reference_set(), 2.0, trials=0, seed=0)


def test_report_to_dict_is_json_ready():
    report = validate_necessity(reference_function(), reference_set(), 2.0, trials=20, seed=1)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert json.loads(text)["trials"] == 20


@pytest.mark.parametrize("seed", [0, 14, 37, 2**64 + 7, 123456789012345678901234567890])
def test_sub_seeds_match_generate_state(seed):
    sequence = np.random.SeedSequence(seed)
    expected = sequence.generate_state(9000, dtype=np.uint64)
    pool = np.asarray(sequence.pool, dtype=np.uint32)
    for start, stop in [(0, 1), (0, 4096), (1, 2), (3, 10), (4096, 8192), (8191, 9000)]:
        got = _sub_seeds(pool, start, stop)
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected[start:stop])


def test_sub_seeds_far_window_is_bounded():
    # generate_state up to trial 10^9 would hold 8 GB; the window holds its own words only
    pool = np.asarray(np.random.SeedSequence(37).pool, dtype=np.uint32)
    start = 10**9
    tracemalloc.start()
    try:
        got = _sub_seeds(pool, start, start + 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (4096,) and peak < 2**20

    def word(i):  # generate_state's hash of word i, in Python integers
        h = 0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32
        w = (int(pool[i % 4]) ^ h) * (h * 0x58F38DED % 2**32) % 2**32
        return w ^ (w >> 16)

    for t in (start, start + 4095):
        assert int(got[t - start]) == word(2 * t) | word(2 * t + 1) << 32
