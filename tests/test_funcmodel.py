"""Tests for the known-function model: quadratic terms, kinks, subdifferentials."""

import numpy as np
import pytest

from minregion.errors import DimensionMismatchError
from minregion.funcmodel import (
    Kink,
    KnownFunction,
    QuadraticTerm,
    finite_difference_check,
    gradient,
    subdifferential,
)


def reference_function():
    # (x1 - 2)^2 + x2^2
    return KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),))


def random_psd_function(rng, n, terms=1):
    built = []
    for _ in range(terms):
        a = rng.standard_normal((n, n))
        q = a.T @ a + 0.1 * np.eye(n)
        built.append(
            QuadraticTerm(Q=q, m=rng.uniform(-2.0, 2.0, n), weight=float(rng.uniform(0.2, 3.0)))
        )
    return KnownFunction(terms=tuple(built))


def test_value_and_gradient_reference():
    f = reference_function()
    assert f.dimension == 2
    assert f.value([-1.0, -3.0]) == 18.0
    assert np.array_equal(gradient(f, [-1.0, -3.0]), [-6.0, -6.0])
    assert np.array_equal(gradient(f, [2.0, 0.0]), [0.0, 0.0])


def test_gradient_accumulates_terms():
    f = KnownFunction(
        terms=(
            QuadraticTerm(Q=np.eye(2), m=[0.0, 0.0], weight=1.0),
            QuadraticTerm(Q=[[2.0, 0.0], [0.0, 0.0]], m=[1.0, 0.0], weight=0.5),
        )
    )
    # 2*1*x + 0.5*2*diag(2,0)(x - (1,0))
    x = np.array([3.0, 4.0])
    assert np.allclose(gradient(f, x), [6.0 + 2.0 * 2.0, 8.0])
    assert f.value(x) == 25.0 + 0.5 * 2.0 * 4.0


def test_batched_gradient_is_bitwise_per_row():
    # a row's gradient has the same bits alone and inside a batch, so batched
    # classification and classify_point start from the same generators
    rng = np.random.default_rng(22)
    for n in (1, 2, 3, 5):
        f = random_psd_function(rng, n, terms=2)
        X = rng.uniform(-3.0, 3.0, (257, n))
        batch = gradient(f, X)
        assert batch.shape == X.shape
        for i in (0, 1, 128, 256):
            assert np.array_equal(batch[i], gradient(f, X[i]))
            assert np.array_equal(batch[i : i + 1], gradient(f, X[i : i + 1]))
        expected = sum(2.0 * t.weight * (X - t.m) @ t.Q.T for t in f.terms)
        assert np.allclose(batch, expected, rtol=1e-12, atol=1e-12)


def test_weight_homogeneity_exact():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        q = a.T @ a
        m = rng.standard_normal(n)
        w = float(rng.uniform(0.1, 5.0))
        x = rng.standard_normal(n)
        weighted = gradient(KnownFunction(terms=(QuadraticTerm(Q=q, m=m, weight=w),)), x)
        unit = gradient(KnownFunction(terms=(QuadraticTerm(Q=q, m=m, weight=1.0),)), x)
        assert np.array_equal(weighted, w * unit)


def test_value_convexity_witness():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        f = random_psd_function(rng, n, terms=int(rng.integers(1, 3)))
        x = rng.standard_normal((500, n)) * 2.0
        y = rng.standard_normal((500, n)) * 2.0
        lam = rng.uniform(0.0, 1.0, 500)
        for xi, yi, li in zip(x, y, lam):
            mid = f.value(li * xi + (1.0 - li) * yi)
            bound = li * f.value(xi) + (1.0 - li) * f.value(yi)
            assert mid <= bound + 1e-9
        # gradient monotonicity, the first-order convexity witness
        for xi, yi in zip(x[:100], y[:100]):
            gap = float(np.dot(gradient(f, xi) - gradient(f, yi), xi - yi))
            assert gap >= -1e-9


def test_finite_difference_agreement():
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        for _ in range(10):
            f = random_psd_function(rng, n, terms=int(rng.integers(1, 3)))
            x = rng.uniform(-3.0, 3.0, n)
            assert finite_difference_check(f, x) < 1e-6


def test_subdifferential_smooth_is_singleton():
    f = reference_function()
    sd = subdifferential(f, [1.0, 0.0])
    assert np.array_equal(sd, [[-2.0, 0.0]])


def test_subdifferential_at_kink():
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.eye(2), m=[2.0, 0.0]),),
        kinks=(Kink(point=[0.0, 0.0], generators=([-1.0, 0.0], [1.0, 0.0])),),
    )
    sd = subdifferential(f, [0.0, 0.0])
    # smooth gradient (-4, 0) plus each declared generator, in declared order
    assert np.array_equal(sd, [[-5.0, 0.0], [-3.0, 0.0]])


def test_gradient_at_kink_is_the_smooth_part():
    # the kink's generators only enter through subdifferential
    f = KnownFunction(
        terms=(QuadraticTerm(Q=np.eye(1), m=[0.0]),),
        kinks=(Kink(point=[1.0], generators=([-1.0], [1.0])),),
    )
    assert np.array_equal(gradient(f, [1.0]), [2.0])
    assert np.array_equal(gradient(f, [1.0 + 1e-9]), [2.0 + 2e-9])
    assert np.array_equal(subdifferential(f, [1.0]), [[1.0], [3.0]])
    assert finite_difference_check(f, [1.0]) < 1e-6
    with pytest.raises(DimensionMismatchError):
        gradient(f, [1.0, 0.0])


def test_kink_at_is_exact_match():
    kink = Kink(point=[1.0, -1.0], generators=([0.0, 1.0],))
    f = KnownFunction(terms=(QuadraticTerm(Q=np.eye(2), m=[0.0, 0.0]),), kinks=(kink,))
    assert f.kink_at([1.0, -1.0]) is kink
    assert f.kink_at([1.0 + 1e-9, -1.0]) is None


def test_quadratic_term_validation():
    with pytest.raises(ValueError):
        QuadraticTerm(Q=[[1.0, 0.5], [0.2, 1.0]], m=[0.0, 0.0])  # not symmetric
    with pytest.raises(ValueError):
        QuadraticTerm(Q=[[-1.0]], m=[0.0])  # negative eigenvalue
    with pytest.raises(ValueError):
        QuadraticTerm(Q=[[1.0]], m=[0.0], weight=0.0)
    with pytest.raises(ValueError):
        QuadraticTerm(Q=[[1.0]], m=[0.0], weight=-2.0)
    with pytest.raises(DimensionMismatchError):
        QuadraticTerm(Q=np.eye(2), m=[0.0])


def test_model_validation():
    with pytest.raises(ValueError):
        KnownFunction(terms=())
    with pytest.raises(DimensionMismatchError):
        KnownFunction(
            terms=(QuadraticTerm(Q=np.eye(2), m=[0.0, 0.0]), QuadraticTerm(Q=np.eye(3), m=[0.0] * 3))
        )
    with pytest.raises(ValueError):
        Kink(point=[0.0], generators=())
    with pytest.raises(DimensionMismatchError):
        Kink(point=[0.0, 0.0], generators=([1.0],))
    with pytest.raises(DimensionMismatchError):
        KnownFunction(
            terms=(QuadraticTerm(Q=np.eye(2), m=[0.0, 0.0]),),
            kinks=(Kink(point=[0.0], generators=([1.0],)),),
        )


def test_terms_are_frozen():
    term = QuadraticTerm(Q=np.eye(2), m=[0.0, 0.0])
    with pytest.raises(ValueError):
        term.Q[0, 0] = 5.0
    with pytest.raises(ValueError):
        term.m[0] = 5.0
