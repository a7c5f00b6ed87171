"""Falsification oracle: sample concrete unknown terms and verify necessity.

The membership test is a necessary condition, so it can be attacked
end-to-end: draw an admissible unknown term f_u (an isotropic quadratic
(sigma_u/2) * ||x - c||^2 with c in the uncertainty set and sigma_u >=
sigma), minimize f_known + f_u exactly, and check that the true minimizer
is classified as a member.  Any non-member verdict at a true minimizer is a
falsification and indicates a defect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, KinkPointError, NonFiniteError
from .funcmodel import KnownFunction, _smooth_gradient
from .geometry import Ball, as_vector
from .membership import (
    BLOCK_ROWS,
    DEFAULT_SLACK,
    DEFAULT_THETA_STEPS,
    MembershipVerdict,
    UncertaintySet,
    check_theta_steps,
    classify_point,
    classify_points,
)

DEFAULT_MULTIPLIER_RANGE = (1.05, 3.0)  # sigma_u / sigma is drawn from here
STATIONARITY_TOL = 1e-8


@dataclass(frozen=True)
class UnknownQuadratic:
    """Concrete admissible unknown term (sigma_u/2) * ||x - center||^2."""

    center: np.ndarray
    sigma_u: float

    def __post_init__(self):
        center = as_vector(self.center)
        sigma_u = float(self.sigma_u)
        if not np.isfinite(sigma_u) or sigma_u <= 0.0:
            raise ValueError(f"sigma_u must be > 0, got {sigma_u}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "sigma_u", sigma_u)

    def value(self, x) -> float:
        x = as_vector(x)
        return 0.5 * self.sigma_u * float(np.sum((x - self.center) ** 2))

    def gradient(self, x) -> np.ndarray:
        x = as_vector(x)
        return self.sigma_u * (x - self.center)


@dataclass(frozen=True)
class OracleSample:
    """One end-to-end trial: the sampled term, the true minimizer, the verdict."""

    unknown: UnknownQuadratic
    minimizer: np.ndarray
    verdict: MembershipVerdict


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate of a necessity campaign.

    falsifications counts non-member verdicts at true minimizers (must be
    zero for a correct implementation); worst_margin is the smallest value
    of -sigma - best_score over scored trials, i.e. how close the campaign
    came to the decision boundary (negative on a falsification).
    """

    sigma: float
    classify_sigma: float
    trials: int
    member_count: int
    interior_count: int
    falsification_count: int
    worst_margin: float | None
    seed: int
    theta_steps: int
    slack: float
    sigma_multiplier_range: tuple
    falsification_details: tuple = ()

    @property
    def passed(self) -> bool:
        return self.falsification_count == 0

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "classify_sigma": self.classify_sigma,
            "trials": self.trials,
            "member": self.member_count,
            "inside_set": self.interior_count,
            "falsifications": self.falsification_count,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "theta_steps": self.theta_steps,
            "slack": self.slack,
            "sigma_multiplier_range": list(self.sigma_multiplier_range),
            "falsification_details": [dict(d) for d in self.falsification_details],
        }


def sample_unknown(
    uset: UncertaintySet,
    sigma: float,
    seed: int,
    sigma_multiplier_range: tuple = DEFAULT_MULTIPLIER_RANGE,
) -> UnknownQuadratic:
    """Draw an admissible unknown term, deterministically in the seed.

    The center is uniform over the region (normalized normal direction times
    radius * U^(1/n) for a ball; a uniform choice for a finite set) and
    sigma_u = sigma * U(lo, hi) with the multiplier range inside [1, inf),
    so the draw is always sigma-strongly convex.
    """
    lo, hi = (float(v) for v in sigma_multiplier_range)
    if not (1.0 <= lo <= hi):
        raise ValueError(f"multiplier range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    region = uset.region
    if isinstance(region, Ball):
        n = region.dimension
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:  # essentially impossible, but keep the draw well defined
            direction = rng.standard_normal(n)
            norm = float(np.linalg.norm(direction))
        radius = region.radius * float(rng.uniform()) ** (1.0 / n)
        center = region.center + radius * (direction / norm)
    else:
        center = region.points[int(rng.integers(region.points.shape[0]))]
    multiplier = float(rng.uniform(lo, hi))
    return UnknownQuadratic(center=center, sigma_u=sigma * multiplier)


def minimize_sum(f: KnownFunction, u: UnknownQuadratic) -> np.ndarray:
    """Exact minimizer of f + u for smooth f, via the normal equations.

    (sum_i 2 w_i Q_i + sigma_u I) x = sum_i 2 w_i Q_i m_i + sigma_u * center.
    The system is positive definite because sigma_u > 0.  Models with kinks
    must go through minimize_sum_iterative.
    """
    if f.kinks:
        raise KinkPointError("minimize_sum handles smooth models only; use minimize_sum_iterative")
    A, b = _normal_equations(f, u)
    x = np.linalg.solve(A, b)
    residual = float(np.linalg.norm(A @ x - b))
    if residual > 1e-10 * max(1.0, float(np.linalg.norm(b))):
        raise ArithmeticError(f"normal equations solved poorly (residual {residual})")
    return x


def _normal_equations(f: KnownFunction, u: UnknownQuadratic) -> tuple:
    """(A, b) such that the smooth part of f + u has gradient A x - b."""
    A = u.sigma_u * np.eye(f.dimension)
    b = u.sigma_u * u.center.copy()
    for t in f.terms:
        A = A + 2.0 * t.weight * t.Q
        b = b + 2.0 * t.weight * (t.Q @ t.m)
    return A, b


def _hull_project(z: np.ndarray, gens) -> np.ndarray:
    """Euclidean projection of z onto the convex hull of finitely many points.

    The projection lies on a face spanned by at most n + 1 generators: each
    support V of 1..min(k, n + 1) generators is projected onto its affine
    hull by the bordered KKT system [[V V^T, 1], [1^T, 0]], and the nearest
    candidate with all weights >= 0 wins, at a cost of sum_{s <= n+1} C(k, s)
    solves.  A one-generator support is the generator itself, bit for bit.
    """
    M = np.stack(gens)
    sq = np.sum((z - M) ** 2, axis=1)  # the supports of one generator
    best, best_dist = M[int(np.argmin(sq))], float(np.min(sq))
    for size in range(2, min(M.shape[0], M.shape[1] + 1) + 1):
        kkt = np.ones((size + 1, size + 1))
        kkt[size, size] = 0.0
        for support in itertools.combinations(M, size):
            V = np.stack(support)
            kkt[:size, :size] = V @ V.T
            try:
                lam = np.linalg.solve(kkt, np.append(V @ z, 1.0))[:size]
            except np.linalg.LinAlgError:  # affinely dependent support
                continue
            p = lam @ V
            dist = float((z - p) @ (z - p))
            if np.all(lam >= 0.0) and dist < best_dist:
                best, best_dist = p, dist
    return best


def _interpreted_subgradient(f: KnownFunction, u: UnknownQuadratic, x: np.ndarray) -> np.ndarray:
    """Steepest-known subgradient of f + u at x under the kink completion.

    Away from registered kinks each kink contributes the generator active in
    its supporting max-affine envelope; this is the convex completion of the
    declared kink subdifferentials that the iterative solver minimizes.
    """
    g = _smooth_gradient(f, x) + u.gradient(x)
    for k in f.kinks:
        offsets = np.array([float(gen @ (x - k.point)) for gen in k.generators])
        g = g + k.generators[int(np.argmax(offsets))]
    return g


def _kink_stationarity_gap(f: KnownFunction, u: UnknownQuadratic, k) -> float:
    """Distance from -grad(u + smooth part) at the kink to the generator hull."""
    target = -(u.gradient(k.point) + _smooth_gradient(f, k.point))
    return float(np.linalg.norm(target - _hull_project(target, k.generators)))


def minimize_sum_iterative(
    f: KnownFunction,
    u: UnknownQuadratic,
    tol: float = STATIONARITY_TOL,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Minimizer of f + u for any model; iterative only with two or more kinks.

    Kinks are minimized under the max-affine completion of their declared
    generators; smooth models go to minimize_sum.  A single kink at p returns
    p itself when its generator hull certifies stationarity
    (_kink_stationarity_gap <= tol), otherwise x = A^-1 (b - s), where s
    projects r = b - A p onto the generator hull in the A^-1 metric (the
    dual problem): s = L _hull_project(L^-1 r, L^-1 G) with A = L L^T.  Two
    or more kinks take subgradient steps that snap to a kink whose hull
    certifies stationarity, and raise ConvergenceError after max_iter steps.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if not f.kinks:
        return minimize_sum(f, u)
    if len(f.kinks) == 1:
        kink = f.kinks[0]
        if _kink_stationarity_gap(f, u, kink) <= tol:
            return kink.point.copy()
        A, b = _normal_equations(f, u)
        L = np.linalg.cholesky(A)
        z = np.linalg.solve(L, b - A @ kink.point)  # L^-1 r
        gens = np.linalg.solve(L, np.stack(kink.generators).T).T
        return np.linalg.solve(A, b - L @ _hull_project(z, gens))
    step = 1.0 / float(np.linalg.eigvalsh(_normal_equations(f, u)[0])[-1])
    x = u.center.astype(float).copy()
    snap_radius = max(1e-5, 10.0 * tol)
    for iteration in range(int(max_iter)):
        for k in f.kinks:  # snap to a kink whose hull certifies stationarity
            if float(np.linalg.norm(x - k.point)) <= snap_radius:
                if _kink_stationarity_gap(f, u, k) <= tol:
                    return k.point.copy()
        g = _interpreted_subgradient(f, u, x)
        if f.kink_at(x) is None and float(np.linalg.norm(g)) <= tol:
            return x
        shrink = 1.0 / (1.0 + iteration * u.sigma_u * step)
        x = x - step * shrink * g
    raise ConvergenceError(f"no stationary point within tol={tol} after {max_iter} iterations")


def _solve_trial(f, uset, sigma, seed, sigma_multiplier_range):
    """Sample one unknown term and minimize the sum: (unknown, minimizer)."""
    unknown = sample_unknown(uset, sigma, seed, sigma_multiplier_range)
    return unknown, minimize_sum_iterative(f, unknown)


def evaluate_trial(
    f: KnownFunction,
    uset: UncertaintySet,
    sigma: float,
    seed: int,
    theta_steps: int = DEFAULT_THETA_STEPS,
    *,
    slack: float = DEFAULT_SLACK,
    sigma_multiplier_range: tuple = DEFAULT_MULTIPLIER_RANGE,
    classify_sigma: float | None = None,
) -> OracleSample:
    """Sample one unknown term, minimize the sum exactly, classify the minimizer."""
    unknown, minimizer = _solve_trial(f, uset, sigma, seed, sigma_multiplier_range)
    classify_set = uset if classify_sigma is None else replace(uset, sigma=float(classify_sigma))
    verdict = classify_point(f, minimizer, classify_set, theta_steps, slack=slack)
    return OracleSample(unknown=unknown, minimizer=minimizer, verdict=verdict)


def validate_necessity(
    f: KnownFunction,
    uset: UncertaintySet,
    sigma: float,
    trials: int,
    seed: int,
    theta_steps: int = DEFAULT_THETA_STEPS,
    *,
    slack: float = DEFAULT_SLACK,
    sigma_multiplier_range: tuple = DEFAULT_MULTIPLIER_RANGE,
    classify_sigma: float | None = None,
) -> ValidationReport:
    """Run a necessity campaign: every true minimizer must classify as member.

    Per-trial sub-seeds derive deterministically from the master seed.
    Trials are sampled and solved one by one, and their minimizers are
    classified together, BLOCK_ROWS at a time; the report equals the one
    built from evaluate_trial on each sub-seed.  A NonFiniteError or a
    ConvergenceError carries the trial index.  With classify_sigma set above
    the sampling sigma the hypothesis is knowingly violated and
    falsifications are expected; that mode shows the campaign has teeth.
    theta_steps is validated and echoed in the report; it decides nothing.
    """
    theta_steps = check_theta_steps(theta_steps)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sub_seeds = np.random.SeedSequence(int(seed)).generate_state(trials, dtype=np.uint64)
    classify_set = uset if classify_sigma is None else replace(uset, sigma=float(classify_sigma))
    sigma_c = float(classify_sigma) if classify_sigma is not None else float(sigma)
    member_count = 0
    interior_count = 0
    falsifications = []
    worst_margin = None
    for start in range(0, trials, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, trials)
        minimizers = np.empty((stop - start, f.dimension))
        centers = np.empty_like(minimizers)
        sigma_u = np.empty(stop - start)
        for i in range(stop - start):
            try:
                unknown, minimizers[i] = _solve_trial(
                    f, uset, sigma, int(sub_seeds[start + i]), sigma_multiplier_range
                )
            except ConvergenceError as exc:
                raise ConvergenceError(f"trial {start + i}: {exc}") from None
            centers[i], sigma_u[i] = unknown.center, unknown.sigma_u
        try:
            res = classify_points(f, classify_set, minimizers, slack)
        except NonFiniteError as exc:
            raise NonFiniteError(start + exc.row, exc.reason) from None
        passed = res.interior.copy()
        passed[res.owner[res.member]] = True
        best = np.full(stop - start, np.inf)
        np.minimum.at(best, res.owner, res.score)
        interior_count += int(np.count_nonzero(res.interior))
        member_count += int(np.count_nonzero(passed & ~res.interior))
        scored = ~res.interior & (best < np.inf)
        if scored.any():
            margin = float(np.min(-sigma_c - best[scored]))
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
        for i in np.flatnonzero(~passed)[: 20 - len(falsifications)]:
            falsifications.append(
                {
                    "trial": start + int(i),
                    "minimizer": [float(v) for v in minimizers[i]],
                    "center": [float(v) for v in centers[i]],
                    "sigma_u": float(sigma_u[i]),
                    "best_score": float(best[i]) if best[i] < np.inf else None,
                }
            )
    falsification_count = trials - interior_count - member_count
    return ValidationReport(
        sigma=float(sigma),
        classify_sigma=sigma_c,
        trials=trials,
        member_count=member_count,
        interior_count=interior_count,
        falsification_count=falsification_count,
        worst_margin=worst_margin,
        seed=int(seed),
        theta_steps=theta_steps,
        slack=float(slack),
        sigma_multiplier_range=(float(sigma_multiplier_range[0]), float(sigma_multiplier_range[1])),
        falsification_details=tuple(falsifications),
    )
