"""Concave-profile engine: moment-constrained mass extremals on [0, b].

Profiles are piecewise-linear concave h >= 0 with h(0) = 1; the mass of
f = h^(n-1) under the moment constraint int t f dt = M has closed-form
extremals: the minimum is the affine profile vanishing at b = sqrt(M n (n+1))
with mass b/n, the maximum follows the slope cap h(t) = 1 + m t on its
support.  A seeded brute-force sampler over constrained profile shapes acts
as an independent oracle for those closed forms.

Segment integrals of h^(n-1) and t h^(n-1) are evaluated with fixed-order
Gauss-Legendre nodes, which is exact for polynomial degree <= 7 and hence for
every n <= 6; the sampler is fully vectorized over trial batches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadSpec, Infeasible

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights exact for t * h^(n-1) with linear h (degree n)."""
    order = max(4, n // 2 + 1)
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


@dataclass(frozen=True)
class MomentSpec:
    """Target moment M > 0, initial-slope cap m, and section exponent n."""

    M: float
    m: float
    n: int

    def __post_init__(self):
        if not self.M > 0:
            raise BadSpec(f"moment target must be positive, got {self.M}")
        if self.n < 1:
            raise BadSpec(f"exponent n must be a positive integer, got {self.n}")


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

    def initial_slope(self) -> float:
        return (self.values[1] - self.values[0]) / (self.grid[1] - self.grid[0])


def _segment_quad(t0, t1, h0, h1, n, with_t: bool):
    """Gauss-Legendre integral of h^(n-1) (or t h^(n-1)) over linear segments.

    Inputs broadcast; exact for the polynomial integrands at hand.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    half = (t1 - t0) / 2.0
    mid = (t1 + t0) / 2.0
    acc = np.zeros(np.broadcast(t0, t1, h0, h1).shape)
    nodes, weights = _gauss_rule(n)
    for x, w in zip(nodes, weights):
        t = mid + half * x
        lam = (x + 1.0) / 2.0
        h = h0 + (h1 - h0) * lam
        f = h ** (n - 1)
        acc = acc + w * (t * f if with_t else f)
    return acc * half


def mu(profile: ConcaveProfile) -> float:
    """Mass of f = h^(n-1) over the profile support."""
    g = np.array(profile.grid)
    v = np.array(profile.values)
    return float(np.sum(_segment_quad(g[:-1], g[1:], v[:-1], v[1:], profile.n, False)))


def moment(profile: ConcaveProfile) -> float:
    """First moment of f = h^(n-1) about t = 0."""
    g = np.array(profile.grid)
    v = np.array(profile.values)
    return float(np.sum(_segment_quad(g[:-1], g[1:], v[:-1], v[1:], profile.n, True)))


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
    return float(_segment_quad(0.0, b, 1.0, 1.0 + m * b, n, True))


def max_mu(spec: MomentSpec, rel_tol: float = 1e-12) -> MuExtremal:
    """Largest mass: follow the slope cap h(t) = 1 + m t on its support.

    The support end solves a monotone scalar equation for the moment target,
    found by bracketing bisection to the requested relative tolerance.
    """
    if not is_feasible(spec):
        raise Infeasible(f"no concave profile for {spec}")
    M, m, n = spec.M, spec.m, spec.n
    if m < 0:
        hi = -1.0 / m
        if _tangent_moment(hi, m, n) <= M * (1 + 1e-14):
            b = hi  # boundary spec: cap profile is the affine-to-zero profile
        else:
            lo = 0.0
            while hi - lo > rel_tol * hi:
                mid = (lo + hi) / 2.0
                if _tangent_moment(mid, m, n) < M:
                    lo = mid
                else:
                    hi = mid
            b = (lo + hi) / 2.0
    elif m == 0:
        b = math.sqrt(2.0 * M)
    else:
        hi = math.sqrt(2.0 * M)  # the flat profile reaches M at this support
        lo = 0.0
        while _tangent_moment(hi, m, n) < M:
            lo, hi = hi, hi * 2.0
        while hi - lo > rel_tol * hi:
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
    shapes = []

    # random concave: slopes sorted descending integrate to a concave h
    raw = rng.uniform(-2.2, 1.2, size=(trials, grid_size))
    slopes = -np.sort(-raw, axis=1)
    h = 1.0 + np.concatenate(
        [np.zeros((trials, 1)), np.cumsum(slopes * ds, axis=1)], axis=1)
    shapes.append(h)

    # two- and three-segment profiles with random breakpoints and slopes
    for segs in (2, 3):
        count = max(trials // 4, 64)
        bp = np.sort(rng.uniform(0.15, 0.85, size=(count, segs - 1)), axis=1)
        knots = np.concatenate([np.zeros((count, 1)), bp, np.ones((count, 1))], axis=1)
        sl = -np.sort(-rng.uniform(-2.2, 1.2, size=(count, segs)), axis=1)
        vals = np.ones((count, segs + 1))
        for k in range(segs):
            vals[:, k + 1] = vals[:, k] + sl[:, k] * (knots[:, k + 1] - knots[:, k])
        h = np.empty((count, grid_size + 1))
        for r in range(count):
            h[r] = np.interp(s, knots[r], vals[r])
        shapes.append(h)

    batch = np.concatenate(shapes, axis=0)
    interior_ok = np.all(batch[:, 1:-1] > 1e-9, axis=1)
    nonneg = batch[:, -1] >= 0.0
    return batch[interior_ok & nonneg]


def _shape_batch(grid_size: int, trials: int, seed: int) -> np.ndarray:
    """Concave shapes on [0, 1]: h(0) = 1, nonincreasing slopes, h >= 0.

    Mixes two- and three-segment piecewise-linear shapes with fully random
    sorted-slope shapes; rejection rounds repeat until at least `trials`
    shapes survive the nonnegativity filter.
    """
    rng = np.random.default_rng(seed)
    rounds = [_shape_round(grid_size, trials, rng)]
    total = rounds[0].shape[0]
    while total < trials and len(rounds) < 8:
        extra = _shape_round(grid_size, trials, rng)
        rounds.append(extra)
        total += extra.shape[0]
    return np.concatenate(rounds, axis=0)


def _affine_sweeps(spec: MomentSpec, sweep: int = 400) -> np.ndarray:
    """Deterministic one-segment shapes covering both closed-form extremals."""
    lam = np.linspace(0.0, 1.0, sweep)
    rows = [1.0 - lam[:, None] * np.array([0.0, 1.0])[None, :]]
    if spec.m > 0:
        kap_hi = spec.m * math.sqrt(2.0 * spec.M)
        kap = np.linspace(0.0, kap_hi, sweep)[1:]
        rows.append(1.0 + kap[:, None] * np.array([0.0, 1.0])[None, :])
    return np.concatenate(rows, axis=0)


def _evaluate_shapes(h: np.ndarray, grid: np.ndarray, spec: MomentSpec):
    """Scale shapes to the moment target; apply the slope cap; return mu and b."""
    t0, t1 = grid[:-1][None, :], grid[1:][None, :]
    mass_hat = np.sum(_segment_quad(t0, t1, h[:, :-1], h[:, 1:], spec.n, False), axis=1)
    mom_hat = np.sum(_segment_quad(t0, t1, h[:, :-1], h[:, 1:], spec.n, True), axis=1)
    good = mom_hat > 1e-30
    h, mass_hat, mom_hat = h[good], mass_hat[good], mom_hat[good]
    b = np.sqrt(spec.M / mom_hat)
    slope0 = (h[:, 1] - h[:, 0]) / (grid[1] - grid[0])
    # near the feasibility boundary the mass is very sensitive to the cap, so
    # the admission slack must stay well below the closed-form tolerances
    cap_ok = slope0 / b <= spec.m + 1e-12 * max(1.0, abs(spec.m))
    return h[cap_ok], b[cap_ok] * mass_hat[cap_ok], b[cap_ok]


def brute_force_extremals(spec: MomentSpec, grid_size: int = 200,
                          trials: int = 10000, seed: int = 0) -> BruteForceResult:
    """Search constrained profile shapes for extreme masses.

    Shapes are sampled on [0, 1] and rescaled so the moment constraint holds
    exactly (the moment is quadratic under support scaling); shapes whose
    scaled initial slope violates the cap are rejected.  Never references the
    closed forms.
    """
    if not is_feasible(spec):
        raise Infeasible(f"no concave profile for {spec}")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    rand = _shape_batch(grid_size, trials, seed)
    swept = _affine_sweeps(spec)
    swept_grid = np.array([0.0, 1.0])

    h1, mus1, bs1 = _evaluate_shapes(rand, grid, spec)
    h2, mus2, bs2 = _evaluate_shapes(swept, swept_grid, spec)
    mus = np.concatenate([mus1, mus2])
    bs = np.concatenate([bs1, bs2])
    if mus.size == 0:
        raise Infeasible(f"sampler found no feasible profile for {spec}")

    i_lo, i_hi = int(np.argmin(mus)), int(np.argmax(mus))

    def profile_at(i: int) -> ConcaveProfile:
        if i < mus1.size:
            shape, g = h1[i], grid
        else:
            shape, g = h2[i - mus1.size], swept_grid
        b = bs[i]
        return ConcaveProfile(grid=tuple(g * b), values=tuple(np.maximum(shape, 0.0)),
                              n=spec.n)

    return BruteForceResult(
        mu_lo=float(mus[i_lo]), mu_hi=float(mus[i_hi]),
        b_lo=float(np.min(bs)), b_hi=float(np.max(bs)),
        kept=int(mus.size),
        lo_profile=profile_at(i_lo), hi_profile=profile_at(i_hi),
    )


def support_ratio_extremes(M: float, m: float, n: int, grid_size: int = 200,
                           trials: int = 4000, seed: int = 0) -> tuple[float, float]:
    """Extreme support lengths over constrained profiles; their ratio is <= n."""
    spec = MomentSpec(M=M, m=m, n=n)
    result = brute_force_extremals(spec, grid_size=grid_size, trials=trials, seed=seed)
    if result.b_hi / result.b_lo > n + 1e-6:
        raise RuntimeError(f"support ratio bound violated: {result.b_hi / result.b_lo} > {n}")
    return result.b_lo, result.b_hi


# ---------------------------------------------------------------------------
# recentered cut ratios of two-sided profiles


def profile_cut_ratio(grid, values, n: int) -> float:
    """Right/left mass ratio of f = h^(n-1) about its mass centroid.

    The recentering enforces the vanishing-moment condition, so this is the
    cut ratio of the body a profile generates, independent of parametrization
    scale and amplitude.
    """
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    masses = _segment_quad(g[:-1], g[1:], v[:-1], v[1:], n, False)
    moments = _segment_quad(g[:-1], g[1:], v[:-1], v[1:], n, True)
    total = float(np.sum(masses))
    tbar = float(np.sum(moments)) / total
    k = int(np.clip(np.searchsorted(g, tbar, side="right") - 1, 0, g.size - 2))
    lam = (tbar - g[k]) / (g[k + 1] - g[k])
    h_t = v[k] + (v[k + 1] - v[k]) * lam
    partial = float(_segment_quad(tbar, g[k + 1], h_t, v[k + 1], n, False))
    mass_right = float(np.sum(masses[k + 1:])) + partial
    mass_left = total - mass_right
    return mass_right / mass_left


@dataclass
class Claim4Report:
    n: int
    trials: int
    max_ratio: float
    affine_ratio: float
    rho_n: float
    bound_ok: bool
    affine_ok: bool


def claim4_certificate(n: int, grid_size: int = 64, trials: int = 10000,
                       seed: int = 0, tol: float = 1e-9) -> Claim4Report:
    """Sample moment-centered concave profiles and certify the ratio bound.

    No sampled profile may beat (1+1/n)^n - 1, and the affine profile with
    h vanishing at the left endpoint must achieve it.
    """
    rho_n = float((1 + Fraction(1, n)) ** n - 1)
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    batch = _shape_batch(grid_size, trials, seed)

    t0, t1 = grid[:-1][None, :], grid[1:][None, :]
    masses = _segment_quad(t0, t1, batch[:, :-1], batch[:, 1:], n, False)
    moments = _segment_quad(t0, t1, batch[:, :-1], batch[:, 1:], n, True)
    totals = np.sum(masses, axis=1)
    tbar = np.sum(moments, axis=1) / totals
    ks = np.clip(np.searchsorted(grid, tbar, side="right") - 1, 0, grid_size - 1)
    rows = np.arange(batch.shape[0])
    lam = (tbar - grid[ks]) / (grid[ks + 1] - grid[ks])
    h_t = batch[rows, ks] + (batch[rows, ks + 1] - batch[rows, ks]) * lam
    partial = _segment_quad(tbar, grid[ks + 1], h_t, batch[rows, ks + 1], n, False)
    cum_from_right = np.concatenate(
        [np.cumsum(masses[:, ::-1], axis=1)[:, ::-1], np.zeros((batch.shape[0], 1))],
        axis=1)
    tail = cum_from_right[rows, ks + 1]
    mass_right = tail + partial
    ratios = np.maximum(mass_right, totals - mass_right) / np.minimum(
        mass_right, totals - mass_right)

    # reference: affine h rising from zero; its recentered ratio is the bound
    affine_ratio = profile_cut_ratio([0.0, 1.0], [0.0, 1.0], n)
    max_ratio = float(np.max(ratios)) if ratios.size else 1.0
    return Claim4Report(
        n=n, trials=int(batch.shape[0]), max_ratio=max_ratio,
        affine_ratio=affine_ratio, rho_n=rho_n,
        bound_ok=max_ratio <= rho_n + tol,
        affine_ok=abs(affine_ratio - rho_n) <= tol,
    )
