"""Falsification oracle: sample concrete unknown terms and verify necessity.

The membership test is a necessary condition, so it can be attacked
end-to-end: draw an admissible unknown term f_u (an isotropic quadratic
(sigma_u/2) * ||x - c||^2 with c in the uncertainty set and sigma_u >=
sigma), minimize f_known + f_u exactly, and check that the true minimizer
is classified as a member.  Any non-member verdict at a true minimizer is a
falsification and indicates a defect.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NonFiniteError
from .funcmodel import KnownFunction, kink_index
from .geometry import WriteOnce, _column_dot
from .membership import BLOCK_ROWS, DEFAULT_SLACK, UncertaintySet, _raise_first, classify_points

MULTIPLIER_RANGE = (1.05, 3.0)  # sigma_u / sigma is drawn from here
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


class ValidationReport(WriteOnce):
    """Aggregate of a necessity campaign.

    falsifications counts non-member verdicts at true minimizers (must be
    zero for a correct implementation); worst_margin is the smallest value
    of -sigma - best_score over scored trials, i.e. how close the campaign
    came to the decision boundary (negative on a falsification).
    """

    def __init__(self, sigma: float, classify_sigma: float, trials: int, member_count: int, interior_count: int,
                 falsification_count: int, worst_margin: float | None, seed: int, slack: float,
                 falsification_details: tuple = ()):
        self.sigma = sigma
        self.classify_sigma = classify_sigma
        self.trials = trials
        self.member_count = member_count
        self.interior_count = interior_count
        self.falsification_count = falsification_count
        self.worst_margin = worst_margin
        self.seed = seed
        self.slack = slack
        self.falsification_details = falsification_details

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
            "sigma_multiplier_range": list(MULTIPLIER_RANGE),
            "falsification_details": [dict(d) for d in self.falsification_details],
        }


def sample_unknown(uset: UncertaintySet, sigma: float, seed: int) -> tuple:
    """(center, sigma_u) of the unknown term drawn from sub-seed seed in [0, 2^64).

    The one-trial case of _draw_unknowns, which describes the draw.
    """
    centers, sigma_u = _draw_unknowns(uset, sigma, (seed,))
    return centers[0], float(sigma_u[0])


def _draw_unknowns(uset: UncertaintySet, sigma: float, seeds) -> tuple:
    """(centers (B, n), sigma_u (B,)): one admissible unknown term per seed.

    A trial's draw is a pure function of its own sub-seed (see _uniforms),
    so a block of trials has, row for row, the bits of one-trial calls.
    Uniform 1 gives sigma_u = sigma * (lo + (hi - lo) * U1) over
    MULTIPLIER_RANGE = (lo, hi), so every draw is sigma-strongly convex; the
    draw uses this sigma, not uset.sigma, and sigma * hi must be finite.
    The center is uniform over the region.  Uniform 2 picks point
    min(floor(U2 k), k - 1) of its k points, which for a ball is its center.
    At radius r > 0 uniform 2 also gives the distance r * U2^(1/n), and
    uniforms 3, 4, ... go in pairs (a, b) through Box-Muller, rho = sqrt(-2
    ln Ua) and (rho cos 2 pi Ub, rho sin 2 pi Ub), whose first n values,
    normalised by sqrt(vecdot), give the direction (rho > 0, so it is never
    zero).  Reusing uniform 2 is sound only because a region with r > 0 has
    one point: its pick is point 0 whatever U2 is.
    """
    sigma = float(sigma)
    lo, hi = MULTIPLIER_RANGE
    if not 0.0 < sigma * hi < np.inf:
        raise ValueError(f"sigma must be > 0 with sigma * {hi!r} finite, got {sigma!r}")
    points, radius = uset.region.points, uset.region.radius
    n, k = uset.dimension, len(points)
    pairs = (n + 1) // 2 if radius else 0
    u = _uniforms(seeds, 2 + 2 * pairs)
    picks = np.minimum((u[1] * k).astype(np.intp), k - 1)
    centers = points.take(picks, axis=0)  # a copy, about 10x faster than points[picks]
    if radius:
        rho = np.sqrt(-2.0 * np.log(u[2::2]))  # (pairs, B)
        angle = (2.0 * np.pi) * u[3::2]
        normals = np.empty((len(seeds), 2 * pairs))
        normals[:, 0::2] = (rho * np.cos(angle)).T
        normals[:, 1::2] = (rho * np.sin(angle)).T
        directions = normals[:, :n]
        units = directions / np.sqrt(np.vecdot(directions, directions))[:, None]
        centers += (radius * u[1] ** (1.0 / n))[:, None] * units
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


def minimize_sum(f: KnownFunction, u: tuple) -> np.ndarray:
    """Exact minimizer of f + u for the pair u = (center, sigma_u): the one-trial case of _minimize_block."""
    center, sigma_u = u
    return _minimize_block(f, [sigma_u], [center])[0]


minimize_sum_iterative = minimize_sum  # bench/tracing.py still calls it for kinked models


def _minimize_block(f: KnownFunction, sigma_u, centers) -> np.ndarray:
    """Rows x_i minimizing f + u_i exactly, for B unknown terms at once.

    The smooth part of f + u_i has gradient A_i x - b_i, with b_i = sigma_u,i
    c_i + f.offset and A_i = sigma_u,i I + P, where P = f.hessian = V
    diag(e) V^T comes from one eigh per block.  So x_i = V ((V^T b_i) /
    (sigma_u,i + e)), and where V only permutes coordinates, as for a
    diagonal P, each coordinate is b_ij / A_i,jj, the bits of an LU solve.
    A centre equal to every term's m minimizes its own f + u_i and is kept
    bit for bit.  Each kink adds its max-affine completion max_i <g_ki, x -
    p_k>, whose dual has one multiplier simplex per kink: with H (m, n)
    stacking the generators and D_i = diag(1 / (sigma_u,i + e)), lam
    minimizes 1/2 lam^T G_i lam - lam^T d_i with G_i = (HV) D_i (HV)^T and
    d_i = H x_i - <g_ki, p_k> (_kink_multipliers), and x_i -= V D_i (HV)^T
    lam_i.  A row at a kink by the classifier's own rule (kink_index) becomes
    that kink's point bit for bit.  NonFiniteError names the first row singular in floats, or with a
    non-finite x_i.  A row is singular where, in some eigendirection k,
    sigma_u,i + e_k <= eps (|V|^T |P| 1)_k, the rounding that evaluating P y
    in coordinates (|y_j| <= 1) can leave in direction k: x_i then moves by
    its own size under the rounding of a gradient.  A V that does not mix
    coordinates leaves none there, so no row of a diagonal P is singular.
    Every sum over coordinates runs left to right (_column_dot), so every row
    has the bits of a one-row call.
    """
    s = np.asarray(sigma_u, dtype=float)
    c = np.asarray(centers, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves its rows non-finite, raised below
        e, V = np.linalg.eigh(f.hessian)
        leak = np.finfo(float).eps * (np.abs(V).T @ np.abs(f.hessian).sum(axis=1))
        _raise_first(s[:, None] + e <= leak, "normal equations are singular")
        S = s + e[:, None]  # (n, B): column i is the diagonal of D_i^-1
        b = s * c.T + f.offset[:, None]
        x = _times(V, _times(V.T, b) / S)
        at_m = np.all([(c == t.m).all(axis=1) for t in f.terms], axis=0)
        x[:, at_m] = c[at_m].T
    _raise_first(~np.isfinite(x.T), "coordinates are not finite")
    if f.kinks:
        D = 1.0 / S
        H = np.concatenate([k.generators for k in f.kinks])
        HV = H @ V
        G = _column_dot(D[..., None, None], HV.T[:, :, None] * HV.T[:, None, :])  # (B, m, m), symmetric
        d = _times(H, x) - np.concatenate([k.generators @ k.point for k in f.kinks])[:, None]
        lam = _kink_multipliers(G, d.T, H, [len(k.generators) for k in f.kinks])
        x -= _times(V, D * _times(HV.T, lam.T))
    at = kink_index(f, x)
    for j, k in enumerate(f.kinks):
        x[:, at == j] = k.point[:, None]
    return x.T


def _times(M: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """M @ cols for coordinate columns cols (k, B), each entry summed left to right (_column_dot)."""
    return np.array([_column_dot(cols, row) for row in M])


def _solve(A: np.ndarray, rhs: np.ndarray, reason: str, rows=None) -> np.ndarray:
    """np.linalg.solve(A, rhs); an A_i singular in floats raises NonFiniteError naming i (or rows[i])."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:  # an exactly zero LU pivot, which is where slogdet's sign is 0
        _raise_first(np.linalg.slogdet(A)[0] == 0.0, reason, rows)
        raise


def _kink_multipliers(G: np.ndarray, d: np.ndarray, H: np.ndarray, sizes) -> np.ndarray:
    """Rows lam_i minimizing 1/2 lam^T G_i lam - d_i^T lam over one simplex per block.

    G (B, m, m) is H M_i H^T (M_i positive definite) for generators H in
    blocks of sizes.  Primal active set (Wolfe 1976) from each block's best
    vertex, least 1/2 G_jj - d_j: a sweep groups open rows by working set S
    and stacks their solves of [[0, E^T], [E, G_SS]] [mu; lam_S] = [1; d_S],
    E marking blocks (border first: a one-index block gets lam = 1 exactly).
    A candidate with a negative entry is approached until an index blocks
    (_step); else it is lam, and the least price r_j + mu_block(j), r =
    G lam - d, enters if below -1e-12 max(1, max |d|).  If [H_S / max |H| | E]
    then has a singular value at most 1e-6 of its largest (G_SS squares it),
    the step follows its null direction, which keeps H^T lam.  lam is the
    solve of the final S, with the bits of a one-row call; a non-finite row
    ends NaN.  A singular KKT system (_solve), or a row open after 10 (m + 1)
    sweeps, raises NonFiniteError naming the row.
    """
    B, m, K = *d.shape, len(sizes)
    border = np.repeat(np.eye(K), sizes, axis=0)  # row j marks the block of generator j
    vertex = 0.5 * np.diagonal(G, axis1=1, axis2=2) - d
    work = np.zeros((B, m), dtype=bool)
    for lo, size in zip(np.cumsum([0, *sizes]), sizes):
        work[np.arange(B), lo + np.argmin(vertex[:, lo : lo + size], axis=1)] = True
    lam = work.astype(float)
    tol = 1e-12 * np.maximum(1.0, np.abs(d).max(axis=1))
    null_directions = {}  # (S, j) -> (S + j, v), v None when those rows of [H | E] are independent
    done = np.zeros(B, dtype=bool)
    for _ in range(10 * (m + 1)):
        rows_open = np.flatnonzero(~done)
        while rows_open.size:  # one group of rows per working set
            same = (work[rows_open] == work[rows_open[0]]).all(axis=1)
            rows, rows_open = rows_open[same], rows_open[~same]
            S = np.flatnonzero(work[rows[0]])
            kkt = np.zeros((rows.size, K + S.size, K + S.size))
            kkt[:, :K, K:] = border[S].T
            kkt[:, K:, :K] = border[S]
            kkt[:, K:, K:] = G[rows[:, None, None], S[:, None], S]
            rhs = np.concatenate([np.ones((rows.size, K)), d[rows[:, None], S]], axis=1)[..., None]
            mu, cand = np.split(_solve(kkt, rhs, "kink dual is singular", rows)[..., 0], [K], axis=1)
            short = (cand < 0.0).any(axis=1)
            _step(lam, work, rows[short], S, cand[short] - lam[rows[short, None], S])
            rows, mu, cand = rows[~short], mu[~short], cand[~short]
            lam[rows] = 0.0
            lam[rows[:, None], S] = cand
            price = np.einsum("bsj,bs->bj", G[rows[:, None], :, S], cand) - d[rows] + mu @ border.T
            price[:, S] = np.inf
            j = np.argmin(price, axis=1)
            enter = price[np.arange(rows.size), j] < -tol[rows]  # a NaN row is done
            for entering in np.unique(j[enter]):
                key = (S.tobytes(), entering)
                if key not in null_directions:
                    T = np.sort(np.append(S, entering))
                    U, singular, _ = np.linalg.svd(np.hstack([H[T] / (np.abs(H).max() or 1.0), border[T]]))
                    dependent = T.size > singular.size or singular[-1] <= 1e-6 * singular[0]
                    null_directions[key] = T, (U[:, -1] / U[T == entering, -1]) if dependent else None
                T, v = null_directions[key]
                moving = rows[enter & (j == entering)]
                work[moving, entering] = True
                if v is not None:
                    _step(lam, work, moving, T, v)
            done[rows[~enter]] = True
        if done.all():
            return lam
    _raise_first(~done, f"kink multipliers open after {10 * (m + 1)} sweeps")  # some row is open


def _step(lam: np.ndarray, work: np.ndarray, rows: np.ndarray, T: np.ndarray, P: np.ndarray) -> None:
    """Move lam[rows, T] along P until an entry is 0; the first to be set to 0 leaves work."""
    now = lam[rows[:, None], T]
    ratio = np.divide(now, -P, out=np.full(now.shape, np.inf), where=P < 0.0)
    first = np.argmin(ratio, axis=1)
    now += ratio.min(axis=1, keepdims=True) * P
    now[np.arange(rows.size), first] = 0.0
    lam[rows[:, None], T] = now
    work[rows, T[first]] = False


def validate_necessity(
    f: KnownFunction,
    uset: UncertaintySet,
    sigma: float,
    trials: int,
    seed: int,
    theta_steps=None,  # ignored; bench/tracing.py still passes it positionally
    *,
    slack: float = DEFAULT_SLACK,
) -> ValidationReport:
    """Run a necessity campaign: every true minimizer must classify as member.

    Trials draw their unknown terms with sigma (_draw_unknowns) and classify
    their minimizers against uset, whose sigma is the report's
    classify_sigma and the threshold of worst_margin.  A uset.sigma above
    sigma knowingly violates the hypothesis, so falsifications are expected;
    that shows the campaign has teeth.  Sub-seeds derive from the master
    seed one block of BLOCK_ROWS // max(n, m) trials at a time, m the
    number of kink generators (_entropy_pool, _sub_seeds), so memory stays
    near BLOCK_ROWS * max(n, m) floats; the block is drawn, solved
    (_minimize_block) and classified together, and the report equals the
    one built from each sub-seed alone (sample_unknown, minimize_sum,
    classify_point).  A NonFiniteError carries the trial index.
    """
    try:
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise ValueError(f"trials and seed must be integers, got {trials!r} and {seed!r}") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if f.dimension != uset.dimension:
        raise ValueError("function and set dimensions must agree")
    pool = _entropy_pool(seed)
    member_count = 0
    interior_count = 0
    falsifications = []
    worst_margin = None
    block = max(1, BLOCK_ROWS // max(f.dimension, sum(len(k.generators) for k in f.kinks)))
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        centers, sigma_u = _draw_unknowns(uset, sigma, _sub_seeds(pool, start, stop))
        try:
            minimizers = _minimize_block(f, sigma_u, centers)
            res = classify_points(f, uset, minimizers, slack)
        except NonFiniteError as exc:
            raise NonFiniteError(start + exc.row, exc.reason) from None
        interior_count += int(np.count_nonzero(res.interior))
        member_count += int(np.count_nonzero(res.member & ~res.interior))
        scored = res.score < np.inf
        if scored.any():
            margin = float(np.min(-uset.sigma - res.score[scored]))
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
        for i in np.flatnonzero(~res.member)[: 20 - len(falsifications)]:
            falsifications.append(
                {
                    "trial": start + int(i),
                    "minimizer": [float(v) for v in minimizers[i]],
                    "center": [float(v) for v in centers[i]],
                    "sigma_u": float(sigma_u[i]),
                    "best_score": float(res.score[i]) if res.score[i] < np.inf else None,
                }
            )
    falsification_count = trials - interior_count - member_count
    return ValidationReport(
        sigma=float(sigma),
        classify_sigma=uset.sigma,
        trials=trials,
        member_count=member_count,
        interior_count=interior_count,
        falsification_count=falsification_count,
        worst_margin=worst_margin,
        seed=seed,
        slack=float(slack),
        falsification_details=tuple(falsifications),
    )
