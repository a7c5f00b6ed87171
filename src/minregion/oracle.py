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
    _check_finite,
    check_theta_steps,
    classify_point,
    classify_points,
)

DEFAULT_MULTIPLIER_RANGE = (1.05, 3.0)  # sigma_u / sigma is drawn from here
STATIONARITY_TOL = 1e-8
# numpy SeedSequence's hash and mix constants (see _entropy_pool and _sub_seeds)
_POOL_SIZE = 4
_MASK_32 = 0xFFFFFFFF
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# SplitMix64's increment and multipliers (see _uniforms)
_SPLITMIX_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MIX_2 = np.uint64(0x94D049BB133111EB)


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

    seed is a sub-seed in [0, 2^64).  The one-trial case of _draw_unknowns,
    which describes the draw.
    """
    centers, sigma_u = _draw_unknowns(uset, sigma, (seed,), sigma_multiplier_range)
    return UnknownQuadratic(center=centers[0], sigma_u=sigma_u[0])


def _draw_unknowns(
    uset: UncertaintySet, sigma: float, seeds, sigma_multiplier_range: tuple
) -> tuple:
    """(centers (B, n), sigma_u (B,)): one admissible unknown term per seed.

    A trial's draw is a pure function of its own sub-seed (see _uniforms),
    so a block of trials has, row for row, the bits of one-trial calls.
    Uniform 1 gives sigma_u = sigma * (lo + (hi - lo) * U1), with the
    multiplier range inside [1, inf) so every draw is sigma-strongly convex.
    The center is uniform over the region.  For a ball, uniform 2 gives the
    distance radius * U2^(1/n), and uniforms 3, 4, ... go in pairs (a, b)
    through Box-Muller, r = sqrt(-2 ln Ua) and (r cos 2 pi Ub, r sin 2 pi Ub),
    whose first n values, normalised by sqrt(vecdot), give the direction
    (r > 0, so it is never zero).  For a finite set of k points, uniform 2
    picks point min(floor(U2 k), k - 1).
    """
    lo, hi = (float(v) for v in sigma_multiplier_range)
    if not (1.0 <= lo <= hi):
        raise ValueError(f"multiplier range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    region = uset.region
    if isinstance(region, Ball):
        n = region.dimension
        pairs = (n + 1) // 2
        u = _uniforms(seeds, 2 + 2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[2::2]))  # (pairs, B)
        angle = (2.0 * np.pi) * u[3::2]
        normals = np.empty((len(seeds), 2 * pairs))
        normals[:, 0::2] = (r * np.cos(angle)).T
        normals[:, 1::2] = (r * np.sin(angle)).T
        directions = normals[:, :n]
        units = directions / np.sqrt(np.vecdot(directions, directions))[:, None]
        scales = region.radius * u[1] ** (1.0 / n)
        centers = region.center + scales[:, None] * units
    else:
        k = region.points.shape[0]
        u = _uniforms(seeds, 2)
        picks = np.minimum((u[1] * k).astype(np.intp), k - 1)
        centers = region.points[picks]
    return centers, sigma * (lo + (hi - lo) * u[0])


def _uniforms(seeds, count: int) -> np.ndarray:
    """(count, B) uniforms in (0, 1): row k - 1 holds word k of each seed.

    Word k of sub-seed s is SplitMix64 of z = s + k * GOLDEN mod 2^64
    (z ^= z >> 30, z *= MIX_1, z ^= z >> 27, z *= MIX_2, z ^= z >> 31), and
    its uniform is ((z >> 12) + 0.5) * 2^-52, exact in a float.  uint64
    arrays wrap silently, and every row is one contiguous pass over the block.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)[:, None] * _SPLITMIX_GOLDEN
    z = z + np.asarray(seeds, dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= _SPLITMIX_MIX_1
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_MIX_2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(12)
    u = z.astype(float)
    u += 0.5
    u *= 2.0**-52
    return u


def _entropy_pool(seed: int) -> np.ndarray:
    """np.random.SeedSequence(seed).pool for a non-negative int, without numpy.random.

    The seed splits into little-endian uint32 words, each hashed by
    hashmix (INIT_A, MULT_A, a running hash constant); words beyond the
    four pool words are mixed into every pool word after the pool words are
    mixed into each other, as SeedSequence.mix_entropy does.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entropy = [seed >> shift & _MASK_32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _HASH_MULT_A & _MASK_32
        value = value * hash_const & _MASK_32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK_32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return np.array(pool, dtype=np.uint32)


def _sub_seeds(pool: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Trials start..stop-1 of SeedSequence.generate_state(trials, dtype=np.uint64).

    pool is the SeedSequence's uint32 entropy pool.  generate_state hashes
    word i as w = (pool[i % 4] ^ h_i) * h_(i+1) with h_i = INIT_B * MULT_B^i
    mod 2^32, then w ^= w >> 16, and trial t takes words 2t and 2t+1 as a
    little-endian uint64.  Only the window's words are computed, so a block
    costs the same at any start and nothing is held for the other trials.
    """
    words = 2 * (stop - start)
    hashes = np.full(words + 1, _HASH_MULT_B, dtype=np.uint32)
    hashes[0] = _HASH_INIT_B * pow(_HASH_MULT_B, 2 * start, 2**32) % 2**32
    np.multiply.accumulate(hashes, out=hashes)  # wraps mod 2^32
    w = pool[(2 * start + np.arange(words)) % pool.shape[0]] ^ hashes[:-1]
    w *= hashes[1:]
    w ^= w >> np.uint32(16)
    return w.astype("<u4").view("<u8").astype(np.uint64)


def minimize_sum(f: KnownFunction, u: UnknownQuadratic) -> np.ndarray:
    """Exact minimizer of f + u for smooth f, via the normal equations.

    (sum_i 2 w_i Q_i + sigma_u I) x = sum_i 2 w_i Q_i m_i + sigma_u * center:
    the one-trial case of _solve_normal_equations.  The system is positive
    definite because sigma_u > 0.  Models with kinks must go through
    minimize_sum_iterative.
    """
    if f.kinks:
        raise KinkPointError("minimize_sum handles smooth models only; use minimize_sum_iterative")
    return _solve_normal_equations(*_normal_equations(f, [u.sigma_u], [u.center]))[0]


def _normal_equations(f: KnownFunction, sigma_u, centers) -> tuple:
    """(A, b) such that the smooth part of f + u has gradient A x - b.

    sigma_u (...,) and centers (..., n) give A (..., n, n) and b (..., n),
    one system per unknown term, each with the bits of a one-term call.
    """
    s = np.asarray(sigma_u, dtype=float)[..., None]
    A = s[..., None] * np.eye(f.dimension)
    b = s * np.asarray(centers, dtype=float)
    for t in f.terms:
        A = A + 2.0 * t.weight * t.Q
        b = b + 2.0 * t.weight * (t.Q @ t.m)
    return A, b


def _solve_normal_equations(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows x_i with A_i x_i = b_i, from one stacked LAPACK solve.

    A row whose solution is not finite raises NonFiniteError naming it; a
    residual above 1e-10 max(1, ||b_i||), or one that is NaN, raises
    ArithmeticError.
    """
    x = np.linalg.solve(A, b[..., None])[..., 0]
    _check_finite(x, np.arange(x.shape[0]), "coordinates are not finite")
    r = (A @ x[..., None])[..., 0] - b
    squared = np.vecdot(r, r)
    poor = ~(squared <= 1e-20 * np.maximum(1.0, np.vecdot(b, b)))  # a NaN residual is poor
    if poor.any():
        i = int(np.argmax(poor))
        residual = float(np.sqrt(squared[i]))
        raise ArithmeticError(f"row {i}: normal equations solved poorly (residual {residual})")
    return x


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
        A, b = _normal_equations(f, u.sigma_u, u.center)
        L = np.linalg.cholesky(A)
        z = np.linalg.solve(L, b - A @ kink.point)  # L^-1 r
        gens = np.linalg.solve(L, np.stack(kink.generators).T).T
        return np.linalg.solve(A, b - L @ _hull_project(z, gens))
    step = 1.0 / float(np.linalg.eigvalsh(_normal_equations(f, u.sigma_u, u.center)[0])[-1])
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
    unknown = sample_unknown(uset, sigma, seed, sigma_multiplier_range)
    minimizer = minimize_sum_iterative(f, unknown)
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

    Per-trial sub-seeds derive deterministically from the master seed, one
    block at a time (see _entropy_pool and _sub_seeds), and each trial's
    draw is a hash of its own sub-seed (see _draw_unknowns).  Trials go
    BLOCK_ROWS // n at a time, so memory stays near BLOCK_ROWS * n floats:
    the block is drawn together, a smooth model is solved as one stacked
    system, a kinked one trial by trial, and the minimizers are classified
    together; the report equals the one built from evaluate_trial on each
    sub-seed.  A NonFiniteError or a
    ConvergenceError carries the trial index.  With classify_sigma set above
    the sampling sigma the hypothesis is knowingly violated and
    falsifications are expected; that mode shows the campaign has teeth.
    theta_steps is validated and echoed in the report; it decides nothing.
    """
    theta_steps = check_theta_steps(theta_steps)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pool = _entropy_pool(seed)
    classify_set = uset if classify_sigma is None else replace(uset, sigma=float(classify_sigma))
    sigma_c = float(classify_sigma) if classify_sigma is not None else float(sigma)
    member_count = 0
    interior_count = 0
    falsifications = []
    worst_margin = None
    block = max(1, BLOCK_ROWS // f.dimension)  # a stacked solve holds block * n^2 floats
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        centers, sigma_u = _draw_unknowns(uset, sigma, _sub_seeds(pool, start, stop), sigma_multiplier_range)
        try:
            if f.kinks:
                minimizers = np.empty_like(centers)
                for i in range(stop - start):
                    try:
                        minimizers[i] = minimize_sum_iterative(
                            f, UnknownQuadratic(center=centers[i], sigma_u=sigma_u[i])
                        )
                    except ConvergenceError as exc:
                        raise ConvergenceError(f"trial {start + i}: {exc}") from None
            else:
                minimizers = _solve_normal_equations(*_normal_equations(f, sigma_u, centers))
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
