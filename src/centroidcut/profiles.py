"""Concave-profile engine: moment-constrained mass extremals on [0, b].

Profiles are piecewise-linear concave h >= 0 with h(0) = 1; the mass of
f = h^(n-1) under the moment constraint int t f dt = M has closed-form
extremals: the minimum is the affine profile vanishing at b = sqrt(M n (n+1))
with mass b/n, the maximum follows the slope cap h(t) = 1 + m t on its
support.  A seeded brute-force sampler over constrained profile shapes acts
as an independent oracle for those closed forms.

Segment integrals of h^(n-1) and t h^(n-1) are evaluated together, in one
pass over fixed-order Gauss-Legendre nodes, which is exact for polynomial
degree <= 7 and hence for every n <= 6.  The sampler builds each round of
shapes as one array, filtered once, and a batch's pass runs over cache-sized
blocks of rows, accumulating in place into its two outputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .asymmetry import rho_bound
from .errors import BadSpec, BadValue, Infeasible

MAX_MU_REL_TOL = 1e-12  # relative bisection width of max_mu's support end
AFFINE_SWEEP = 400  # shapes per one-segment family the brute-force oracle adds
CLAIM4_TOL = 1e-9  # slack of claim4_certificate's bound and affine checks
QUAD_BLOCK = 8192  # elements per row block of a 2-D quadrature batch (64 KB, cache-sized)


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights exact for t * h^(n-1) with linear h (degree n)."""
    return np.polynomial.legendre.leggauss(max(4, n // 2 + 1))


def _check_exponent(n) -> None:
    if type(n) is not int or n < 1:
        raise BadSpec(f"exponent n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class MomentSpec:
    """Target moment M > 0, initial-slope cap m, and section exponent n."""

    M: float
    m: float
    n: int

    def __post_init__(self):
        if not (self.M > 0 and math.isfinite(self.M)):
            raise BadSpec(f"moment target must be positive and finite, got {self.M}")
        if not math.isfinite(self.m):
            raise BadSpec(f"slope cap must be finite, got {self.m}")
        _check_exponent(self.n)


@dataclass(frozen=True)
class ConcaveProfile:
    """Sampled concave h on [0, b]: strictly increasing grid with grid[0] = 0."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    n: int

    def __post_init__(self):
        g, v = self.grid, self.values
        if len(g) != len(v) or len(g) < 2:
            raise BadSpec("profile needs matching grid/value arrays of length >= 2")
        if abs(g[0]) > 1e-15 or abs(v[0] - 1.0) > 1e-12:
            raise BadSpec("profile must start at t = 0 with h(0) = 1")
        if any(b - a <= 0 for a, b in zip(g, g[1:])):
            raise BadSpec("profile grid must be strictly increasing")
        if any(x < -1e-12 for x in v):
            raise BadSpec("profile values must be nonnegative")
        slopes = [(v2 - v1) / (g2 - g1) for (g1, v1), (g2, v2)
                  in zip(zip(g, v), zip(g[1:], v[1:]))]
        if any(s2 > s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:])):
            raise BadSpec("profile is not concave (slopes must be nonincreasing)")

    @property
    def b(self) -> float:
        return self.grid[-1]


def _segment_quad(t0, t1, h0, h1, n):
    """Gauss-Legendre integrals (masses, moments) of h^(n-1) and t h^(n-1)
    over linear segments, from one pass over the nodes.

    Inputs broadcast; exact for the polynomial integrands at hand.  A 2-D
    batch goes to `_batch_quad`, which gives every element the same float
    operations in the same order; scalar and 1-D inputs (max_mu's bisection)
    take the loop below, which pays no per-call block set-up.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    half = (t1 - t0) / 2.0
    mid = (t1 + t0) / 2.0
    shape = np.broadcast(t0, t1, h0, h1).shape
    if len(shape) == 2:
        return _batch_quad(mid, half, h0, h1, n, shape)
    mass = mom = np.zeros(shape)
    nodes, weights = _gauss_rule(n)
    for x, w in zip(nodes, weights):
        t = mid + half * x
        lam = (x + 1.0) / 2.0
        h = h0 + (h1 - h0) * lam
        f = h ** (n - 1)
        mass = mass + w * f
        mom = mom + w * (t * f)
    return mass * half, mom * half


def _batch_quad(mid, half, h0, h1, n, shape):
    """`_segment_quad` on a 2-D batch, QUAD_BLOCK elements of rows at a time,
    accumulated in place into the two outputs."""

    def rows(a, block):  # a's rows in the block, or a itself if it broadcasts
        return a[block] if a.ndim == 2 and a.shape[0] > 1 else a

    nodes, weights = _gauss_rule(n)
    ts = [mid + half * x for x in nodes]
    lams = [(x + 1.0) / 2.0 for x in nodes]
    mass, mom = np.zeros(shape), np.zeros(shape)
    step = max(1, QUAD_BLOCK // max(shape[1], 1))
    bufs = [np.empty((min(step, shape[0]), shape[1])) for _ in range(3)]
    for start in range(0, shape[0], step):
        block = slice(start, start + step)
        ms, mo = mass[block], mom[block]
        dh, f, g = (buf[:ms.shape[0]] for buf in bufs)
        a = rows(h0, block)
        np.subtract(rows(h1, block), a, out=dh)
        for t, lam, w in zip(ts, lams, weights):
            np.multiply(dh, lam, out=f)
            f += a
            f **= n - 1
            ms += np.multiply(f, w, out=g)
            np.multiply(f, rows(t, block), out=g)
            g *= w
            mo += g
        ms *= rows(half, block)
        mo *= rows(half, block)
    return mass, mom


def _profile_quad(profile: ConcaveProfile):
    g = np.array(profile.grid)
    v = np.array(profile.values)
    return _segment_quad(g[:-1], g[1:], v[:-1], v[1:], profile.n)


def mu(profile: ConcaveProfile) -> float:
    """Mass of f = h^(n-1) over the profile support."""
    return float(np.sum(_profile_quad(profile)[0]))


def moment(profile: ConcaveProfile) -> float:
    """First moment of f = h^(n-1) about t = 0."""
    return float(np.sum(_profile_quad(profile)[1]))


# ---------------------------------------------------------------------------
# feasibility and closed-form extremals


def feasibility_threshold(M: float, n: int) -> float:
    """Slope cap below which no profile meets the moment target."""
    return -1.0 / math.sqrt(M * n * (n + 1))


def is_feasible(spec: MomentSpec) -> bool:
    """The profile family is nonempty iff m >= -1/sqrt(M n (n+1))."""
    return spec.m >= feasibility_threshold(spec.M, spec.n)


@dataclass(frozen=True)
class MuExtremal:
    mu: float
    b: float
    profile: ConcaveProfile


def min_mu(spec: MomentSpec) -> MuExtremal:
    """Smallest mass: the affine profile hitting zero at b = sqrt(M n (n+1))."""
    if not is_feasible(spec):
        raise Infeasible(f"no concave profile for {spec}")
    b = math.sqrt(spec.M * spec.n * (spec.n + 1))
    prof = ConcaveProfile(grid=(0.0, b), values=(1.0, 0.0), n=spec.n)
    return MuExtremal(mu=b / spec.n, b=b, profile=prof)


def _tangent_moment(b: float, m: float, n: int) -> float:
    """Moment of the slope-cap profile h = 1 + m t over [0, b]."""
    return float(_segment_quad(0.0, b, 1.0, 1.0 + m * b, n)[1])


def max_mu(spec: MomentSpec) -> MuExtremal:
    """Largest mass: follow the slope cap h(t) = 1 + m t on its support.

    The support end solves a monotone scalar equation for the moment target,
    found by bisection to relative tolerance MAX_MU_REL_TOL on [0, -1/m]
    below a negative cap, and above a positive one on [0, sqrt(2M)], where
    the flat profile already reaches M (doubled should rounding fall short).
    """
    if not is_feasible(spec):
        raise Infeasible(f"no concave profile for {spec}")
    M, m, n = spec.M, spec.m, spec.n
    lo, hi = 0.0, (-1.0 / m if m < 0 else math.sqrt(2.0 * M))
    if m == 0 or (m < 0 and _tangent_moment(hi, m, n) <= M * (1 + 1e-14)):
        b = hi  # flat cap, or boundary spec: the cap profile is affine to zero
    else:
        while _tangent_moment(hi, m, n) < M:
            lo, hi = hi, hi * 2.0
        while hi - lo > MAX_MU_REL_TOL * hi:
            mid = (lo + hi) / 2.0
            if _tangent_moment(mid, m, n) < M:
                lo = mid
            else:
                hi = mid
        b = (lo + hi) / 2.0
    prof = ConcaveProfile(grid=(0.0, b), values=(1.0, max(1.0 + m * b, 0.0)), n=n)
    return MuExtremal(mu=mu(prof), b=b, profile=prof)


# ---------------------------------------------------------------------------
# brute-force oracle over constrained shapes


@dataclass
class BruteForceResult:
    mu_lo: float
    mu_hi: float
    b_lo: float
    b_hi: float
    kept: int
    lo_profile: ConcaveProfile
    hi_profile: ConcaveProfile


def _shape_round(grid_size: int, trials: int, rng) -> np.ndarray:
    ds = 1.0 / grid_size
    s = np.linspace(0.0, 1.0, grid_size + 1)
    count = max(trials // 4, 64)
    batch = np.empty((trials + 2 * count, grid_size + 1))

    # random concave: slopes sorted descending integrate to a concave h
    slopes = -np.sort(-rng.uniform(-2.2, 1.2, size=(trials, grid_size)), axis=1)
    slopes *= ds
    batch[:trials, 0] = 1.0
    np.cumsum(slopes, axis=1, out=batch[:trials, 1:])
    batch[:trials, 1:] += 1.0

    # two- and three-segment profiles with random breakpoints and slopes
    for start, segs in ((trials, 2), (trials + count, 3)):
        bp = np.sort(rng.uniform(0.15, 0.85, size=(count, segs - 1)), axis=1)
        knots = np.concatenate([np.zeros((count, 1)), bp, np.ones((count, 1))], axis=1)
        sl = -np.sort(-rng.uniform(-2.2, 1.2, size=(count, segs)), axis=1)
        vals = np.ones((count, segs + 1))
        for k in range(segs):
            vals[:, k + 1] = vals[:, k] + sl[:, k] * (knots[:, k + 1] - knots[:, k])
        for r in range(count):
            batch[start + r] = np.interp(s, knots[r], vals[r])

    return batch[np.all(batch[:, 1:-1] > 1e-9, axis=1) & (batch[:, -1] >= 0.0)]


def _shape_batch(grid_size: int, trials: int, seed: int) -> np.ndarray:
    """Concave shapes on [0, 1]: h(0) = 1, nonincreasing slopes, h >= 0.

    Mixes two- and three-segment piecewise-linear shapes with fully random
    sorted-slope shapes; rejection rounds repeat until at least `trials`
    shapes survive the nonnegativity filter.
    """
    if grid_size < 1 or trials < 1:
        raise BadValue(f"grid size and trials must be positive, got {grid_size} and {trials}")
    rng = np.random.default_rng(seed)
    batch = _shape_round(grid_size, trials, rng)
    for _ in range(7):  # eight rounds at most
        if batch.shape[0] >= trials:
            break
        batch = np.concatenate([batch, _shape_round(grid_size, trials, rng)])
    return batch


def _affine_sweeps(spec: MomentSpec) -> np.ndarray:
    """Deterministic one-segment shapes covering both closed-form extremals."""
    lam = np.linspace(0.0, 1.0, AFFINE_SWEEP)
    rows = [1.0 - lam[:, None] * np.array([0.0, 1.0])[None, :]]
    if spec.m > 0:
        kap_hi = spec.m * math.sqrt(2.0 * spec.M)
        kap = np.linspace(0.0, kap_hi, AFFINE_SWEEP)[1:]
        rows.append(1.0 + kap[:, None] * np.array([0.0, 1.0])[None, :])
    return np.concatenate(rows, axis=0)


def _evaluate_shapes(h: np.ndarray, grid: np.ndarray, spec: MomentSpec):
    """Scale shapes to the moment target; apply the slope cap; return the kept
    rows' indices into `h`, their mu and their b."""
    t0, t1 = grid[:-1][None, :], grid[1:][None, :]
    mass_hat, mom_hat = (np.sum(q, axis=1)
                         for q in _segment_quad(t0, t1, h[:, :-1], h[:, 1:], spec.n))
    kept = np.flatnonzero(mom_hat > 1e-30)
    mass_hat, mom_hat = mass_hat[kept], mom_hat[kept]
    b = np.sqrt(spec.M / mom_hat)
    slope0 = (h[kept, 1] - h[kept, 0]) / (grid[1] - grid[0])
    # near the feasibility boundary the mass is very sensitive to the cap, so
    # the admission slack must stay well below the closed-form tolerances
    cap_ok = slope0 / b <= spec.m + 1e-12 * max(1.0, abs(spec.m))
    return kept[cap_ok], b[cap_ok] * mass_hat[cap_ok], b[cap_ok]


def brute_force_extremals(spec: MomentSpec, grid_size: int, trials: int,
                          seed: int) -> BruteForceResult:
    """Search constrained profile shapes for extreme masses.

    Shapes are sampled on [0, 1] and rescaled so the moment constraint holds
    exactly (the moment is quadratic under support scaling); shapes whose
    scaled initial slope violates the cap are rejected.  Never references the
    closed forms.
    """
    if not is_feasible(spec):
        raise Infeasible(f"no concave profile for {spec}")
    rand = _shape_batch(grid_size, trials, seed)
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    swept = _affine_sweeps(spec)
    swept_grid = np.array([0.0, 1.0])

    kept1, mus1, bs1 = _evaluate_shapes(rand, grid, spec)
    kept2, mus2, bs2 = _evaluate_shapes(swept, swept_grid, spec)
    mus = np.concatenate([mus1, mus2])
    bs = np.concatenate([bs1, bs2])
    if mus.size == 0:
        raise Infeasible(f"sampler found no feasible profile for {spec}")

    i_lo, i_hi = int(np.argmin(mus)), int(np.argmax(mus))

    def profile_at(i: int) -> ConcaveProfile:
        if i < mus1.size:
            shape, g = rand[kept1[i]], grid
        else:
            shape, g = swept[kept2[i - mus1.size]], swept_grid
        b = bs[i]
        return ConcaveProfile(grid=tuple((g * b).tolist()),
                              values=tuple(np.maximum(shape, 0.0).tolist()), n=spec.n)

    return BruteForceResult(
        mu_lo=float(mus[i_lo]), mu_hi=float(mus[i_hi]),
        b_lo=float(np.min(bs)), b_hi=float(np.max(bs)),
        kept=int(mus.size),
        lo_profile=profile_at(i_lo), hi_profile=profile_at(i_hi),
    )


# ---------------------------------------------------------------------------
# recentered cut ratios of two-sided profiles


def _recentred_split(grid: np.ndarray, h: np.ndarray, n: int):
    """Per row of `h` (h on the shared increasing `grid`): the total mass of
    f = h^(n-1) and the mass to the right of the row's mass centroid."""
    masses, moments = _segment_quad(grid[:-1], grid[1:], h[:, :-1], h[:, 1:], n)
    totals = np.sum(masses, axis=1)
    tbar = np.sum(moments, axis=1) / totals
    ks = np.clip(np.searchsorted(grid, tbar, side="right") - 1, 0, grid.size - 2)
    rows = np.arange(h.shape[0])
    lam = (tbar - grid[ks]) / (grid[ks + 1] - grid[ks])
    h_t = h[rows, ks] + (h[rows, ks + 1] - h[rows, ks]) * lam
    partial, _ = _segment_quad(tbar, grid[ks + 1], h_t, h[rows, ks + 1], n)
    # masses becomes, in place, each row's mass right of each segment's left end
    np.cumsum(masses[:, ::-1], axis=1, out=masses[:, ::-1])
    right = np.where(ks < grid.size - 2, masses[rows, np.minimum(ks + 1, grid.size - 2)], 0.0)
    return totals, right + partial


def profile_cut_ratio(grid, values, n: int) -> float:
    """Right/left mass ratio of f = h^(n-1) about its mass centroid.

    The recentering enforces the vanishing-moment condition, so this is the
    cut ratio of the body a profile generates, independent of parametrization
    scale and amplitude.
    """
    _check_exponent(n)
    (total,), (right,) = _recentred_split(np.asarray(grid, dtype=float),
                                          np.asarray(values, dtype=float)[None, :], n)
    return float(right / (total - right))


@dataclass
class Claim4Report:
    n: int
    trials: int
    max_ratio: float
    affine_ratio: float
    rho_n: float
    bound_ok: bool
    affine_ok: bool


def claim4_certificate(n: int, grid_size: int, trials: int, seed: int) -> Claim4Report:
    """Sample moment-centered concave profiles and certify the ratio bound.

    No sampled profile may beat (1+1/n)^n - 1, and the affine profile with
    h vanishing at the left endpoint must achieve it.
    """
    _check_exponent(n)
    rho_n = float(rho_bound(n))
    batch = _shape_batch(grid_size, trials, seed)
    totals, right = _recentred_split(np.linspace(0.0, 1.0, grid_size + 1), batch, n)
    left = totals - right
    ratios = np.maximum(right, left) / np.minimum(right, left)

    # reference: affine h rising from zero; its recentered ratio is the bound
    affine_ratio = profile_cut_ratio([0.0, 1.0], [0.0, 1.0], n)
    max_ratio = float(np.max(ratios)) if ratios.size else 1.0
    return Claim4Report(
        n=n, trials=int(batch.shape[0]), max_ratio=max_ratio,
        affine_ratio=affine_ratio, rho_n=rho_n,
        bound_ok=max_ratio <= rho_n + CLAIM4_TOL,
        affine_ok=abs(affine_ratio - rho_n) <= CLAIM4_TOL,
    )
