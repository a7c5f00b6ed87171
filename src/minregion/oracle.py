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

from .errors import NonFiniteError
from .funcmodel import KINK_MATCH_ATOL, KnownFunction
from .geometry import Ball, as_vector
from .membership import BLOCK_ROWS, DEFAULT_SLACK, UncertaintySet, _check_finite, classify_points

DEFAULT_MULTIPLIER_RANGE = (1.05, 3.0)  # sigma_u / sigma is drawn from here
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
    """Exact minimizer of f + u for any model: the one-trial case of _minimize_block."""
    return _minimize_block(f, [u.sigma_u], [u.center])[0]


minimize_sum_iterative = minimize_sum  # bench/tracing.py still calls it for kinked models


def _minimize_block(f: KnownFunction, sigma_u, centers) -> np.ndarray:
    """Rows x_i minimizing f + u_i exactly, for B unknown terms at once.

    The smooth part of f + u_i has gradient A_i x - b_i (_normal_equations).
    Each kink adds its max-affine completion max_i <g_ki, x - p_k>, whose
    dual has one multiplier simplex per kink: with H stacking the generators
    and c_ki = <g_ki, p_k>, lam minimizes
    1/2 lam^T (H A^-1 H^T) lam - lam^T (H A^-1 b - c) (_multipliers), and
    x = A^-1 (b - H^T lam).  Without kinks this is one stacked solve of the
    normal equations.  A row within KINK_MATCH_ATOL of a kink point, the
    classifier's own tolerance, becomes that point bit for bit.  Every row
    has the bits of a one-row call.
    """
    A, b = _normal_equations(f, sigma_u, centers)
    if f.kinks:
        blocks = [np.stack(k.generators) for k in f.kinks]
        H = np.concatenate(blocks)
        c = np.concatenate([g @ k.point for g, k in zip(blocks, f.kinks)])
        m = H.shape[0]
        rhs = np.concatenate([np.broadcast_to(H.T, (*b.shape, m)), b[..., None]], axis=-1)
        W = np.linalg.solve(A, rhs)  # (A^-1 H^T, A^-1 b), one LAPACK call per trial
        G = np.einsum("ij,...jk->...ik", H, W[..., :m])
        lam = _multipliers(G, np.einsum("ij,...j->...i", H, W[..., m]) - c, _supports(blocks))
        b = b - np.einsum("...i,ij->...j", lam, H)
    x = _solve_normal_equations(A, b)
    for k in f.kinks:
        x[np.max(np.abs(x - k.point), axis=-1) <= KINK_MATCH_ATOL] = k.point
    return x


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


def _supports(blocks) -> list:
    """The supports (S, E) that _multipliers tries, for generator blocks (m_k, n).

    S indexes the stacked generators, taking at least one from every block
    and at most n + K in all; E (|S|, K) marks the block of each index.  The
    bordered matrix [[0, E^T], [E, H_S M H_S^T]] is singular, for any
    positive definite M, exactly when some v != 0 has H_S^T v = 0 and
    E^T v = 0.  That does not involve M, so the rank of [H_S, E] decides it
    once from the generators; singular supports are dropped.
    """
    n, K = blocks[0].shape[1], len(blocks)
    H = np.concatenate(blocks)
    choices = []
    for lo, g in zip(np.cumsum([0] + [g.shape[0] for g in blocks]), blocks):
        rows = range(lo, lo + g.shape[0])
        sizes = range(1, min(len(rows), n + 1) + 1)
        choices.append([S for size in sizes for S in itertools.combinations(rows, size)])
    supports = []
    for parts in itertools.product(*choices):
        S = np.array(sum(parts, ()))
        if S.size > n + K:
            continue
        E = np.repeat(np.eye(K), [len(part) for part in parts], axis=0)
        if np.linalg.matrix_rank(np.hstack([H[S], E])) == S.size:
            supports.append((S, E))
    return supports


def _multipliers(G: np.ndarray, d: np.ndarray, supports) -> np.ndarray:
    """Rows lam_i minimizing 1/2 lam^T G_i lam - d_i^T lam over one simplex per block.

    G (B, m, m) is positive semidefinite and supports is _supports of the
    blocks.  Each support's bordered KKT system [[0, E^T], [E, G_SS]]
    [mu; lam_S] = [1; d_S] is solved for the whole block with one stacked
    np.linalg.solve; among the candidates with lam >= 0, the first with the
    least objective wins.  Some optimum is a vertex of its face, whose
    support is nonsingular, so it is among the candidates.  With the border
    first, LU pivots on the E rows, so a block of one generator gets
    lam = 1 exactly.  A row with no finite candidate (only from non-finite
    input) is NaN.
    """
    B, m = d.shape
    best = np.full(B, np.inf)
    lam = np.full((B, m), np.nan)
    for S, E in supports:
        s, K = E.shape
        kkt = np.zeros((B, K + s, K + s))
        kkt[:, :K, K:] = E.T
        kkt[:, K:, :K] = E
        kkt[:, K:, K:] = G[:, S[:, None], S]
        rhs = np.ones((B, K + s))
        rhs[:, K:] = d[:, S]
        cand = np.linalg.solve(kkt, rhs[..., None])[:, K:, 0]
        quadratic = np.vecdot(cand, np.einsum("...ij,...j->...i", kkt[:, K:, K:], cand))
        value = 0.5 * quadratic - np.vecdot(rhs[:, K:], cand)
        rows = np.flatnonzero(np.all(cand >= 0.0, axis=1) & (value < best))
        best[rows] = value[rows]
        lam[rows] = 0.0
        lam[rows[:, None], S] = cand[rows]
    return lam


def validate_necessity(
    f: KnownFunction,
    uset: UncertaintySet,
    sigma: float,
    trials: int,
    seed: int,
    theta_steps=None,  # ignored; bench/tracing.py still passes it positionally
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
    the block is drawn, solved (_minimize_block) and classified together;
    the report equals the one built by drawing (sample_unknown), solving
    (minimize_sum) and classifying (classify_point) each sub-seed on its
    own.  A NonFiniteError carries the trial index.  With classify_sigma
    set above the sampling sigma the hypothesis is knowingly violated and
    falsifications are expected; that mode shows the campaign has teeth.
    """
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
            minimizers = _minimize_block(f, sigma_u, centers)
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
        slack=float(slack),
        sigma_multiplier_range=(float(sigma_multiplier_range[0]), float(sigma_multiplier_range[1])),
        falsification_details=tuple(falsifications),
    )
