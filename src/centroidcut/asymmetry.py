"""Volume-split ratios of hyperplane cuts through interior points.

For a direction theta and an interior point x, the two parts of K on either
side of {y : y·theta = x·theta} have exactly computable volumes; the cut
ratio is the larger part over the smaller.  The pointwise maximum over all
directions is bounded by (1+1/n)^n - 1 when x is the centroid, with equality
exactly for pyramids cut parallel to the base.

The direction search is hybrid: facet normals and vertex-difference
directions are evaluated in exact arithmetic (these carry the equality
cases), a seeded integer-direction grid is screened in floating point, and
the best starts are polished with Nelder-Mead on local charts of the sphere.
Every direction that ends up in the report was re-evaluated exactly, so the
reported value is a true lower bound for the supremum and never exceeds the
sharp bound by rounding.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import RefNotInterior
from .geometry import (
    Location,
    Polytope,
    Vec,
    as_point,
    distinct_directions,
    format_fraction,
    seeded_directions,
    vsub,
)
from .slicing import CumulativeEvaluator, FloatPieces, float_cut_volume


def rho_bound(n: int) -> Fraction:
    """The sharp centroid-cut ratio bound (1+1/n)^n - 1."""
    return (1 + Fraction(1, n)) ** n - 1


def delta_bound(n: int) -> Fraction:
    """The floating-body threshold (1+1/n)^-n."""
    return Fraction(n, n + 1) ** n


# ratio gap below which a centroid report is flagged pyramid_like
EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the direction / point searches."""

    seed: int = 0
    random_directions: int = 256
    multistart: int = 3
    nm_maxiter: int = 160
    tol: float = 1e-9


@dataclass
class AsymmetryReport:
    """Outcome of a ratio search at one point."""

    point: Vec
    rho: float
    rho_exact: Fraction
    theta_star: tuple
    rho_n: Fraction
    gap: float
    phi: float
    exact_witnesses: tuple
    equality_exact: bool = False
    pyramid_like: bool = False

    def to_dict(self) -> dict:
        return {
            "point": [format_fraction(c) for c in self.point],
            "rho": float(self.rho),
            "theta_star": [int(c) for c in self.theta_star],
            "rho_n": format_fraction(self.rho_n),
            "gap": float(self.gap),
            "phi": float(self.phi),
            "equality_exact": self.equality_exact,
            "pyramid_like": self.pyramid_like,
            "exact_witnesses": [
                {
                    "theta": [int(c) for c in th],
                    "ratio_p": r.numerator,
                    "ratio_q": r.denominator,
                }
                for th, r in self.exact_witnesses
            ],
        }


# ---------------------------------------------------------------------------
# exact single-direction ratio


def ratio_at(poly: Polytope, x, theta) -> Fraction:
    """Exact ratio of the larger to the smaller part of the cut through x.

    Symmetrized, so ratio_at(K, x, theta) == ratio_at(K, x, -theta) >= 1.
    """
    xp = as_point(x)
    if poly.contains(xp) is not Location.INTERIOR:
        raise RefNotInterior("cut point must be strictly inside the body")
    return CumulativeEvaluator(poly, theta).split_ratio(xp)


# ---------------------------------------------------------------------------
# float-space machinery for the search


class _FloatBody:
    """One search call's state: the body in floats, divided by an exact power of
    two ``unit`` to about unit size when its largest coordinate is above 2^64
    or below 2^-64, and each signed direction's exact ``evaluator``, built once."""

    def __init__(self, poly: Polytope):
        self.poly = poly
        self.evaluator = functools.cache(functools.partial(CumulativeEvaluator, poly))
        bits = max(c.numerator.bit_length() - c.denominator.bit_length()
                   for v in poly.vertices for c in v if c)
        self.unit = Fraction(2) ** (bits if abs(bits) > 64 else 0)
        self.verts = np.array([self.point(v) for v in poly.vertices])
        scale = self.unit ** poly.dim
        self.cells = [(float(vol / scale), ids) for vol, ids in poly.cells]
        self.total = float(poly.volume / scale)

    def point(self, x: Vec) -> np.ndarray:
        """Exact coordinates (or facet offsets, which scale alike) in the body's scale."""
        return np.array([float(c / self.unit) for c in x])

    def ratio(self, x: np.ndarray, theta: np.ndarray) -> float:
        sq = float(theta @ theta)  # |theta|^2, as np.linalg.norm squares it
        if sq == 0.0 or not math.isfinite(sq):
            return math.inf
        below = float_cut_volume(self.cells, (self.verts @ theta - float(theta @ x)).tolist())
        above = self.total - below
        if below <= 0.0 or above <= 0.0:
            return math.inf
        return max(below / above, above / below)


def exact_candidate_directions(poly: Polytope, x: Vec) -> list[tuple[int, ...]]:
    """Facet normals and vertex-difference directions, deduplicated up to sign."""
    vectors = [f.normal for f in poly.facets] + [vsub(v, x) for v in poly.vertices]
    return distinct_directions(vectors, signed=False)


def _float_direction(d) -> np.ndarray:
    """An integer direction as floats, scaled by 2^-s to keep it below 2^256."""
    shift = max(0, max(abs(c) for c in d).bit_length() - 256)
    return np.array([float(Fraction(c, 2 ** shift)) for c in d])


def _tangent_basis(theta: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to theta (columns)."""
    n = theta.size
    u = theta / np.linalg.norm(theta)
    _, _, vt = np.linalg.svd(u.reshape(1, n))
    return vt[1:].T


def _nelder_mead(f, x0: np.ndarray, maxiter: int, xatol: float,
                 fatol: float) -> tuple[np.ndarray, float]:
    """Minimize f from x0 by the Nelder-Mead simplex method (Nelder & Mead
    1965) with the standard coefficients (reflect 1, expand 2, contract 1/2,
    shrink 1/2), step for step as SciPy 1.17's non-adaptive
    ``minimize(method="Nelder-Mead")`` takes them: the same start simplex,
    expressions, sorts and stopping test, so the same floats.  Returns the
    best vertex and its value."""
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(p) for p in sim], dtype=float)
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    # inf - inf in the stopping test, where several vertices lie outside the
    # body, reads as not converged, and an objective that overflows scores
    # +inf, so neither need warn
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(1, maxiter):
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


def _refine_direction(fb: _FloatBody, x: np.ndarray, theta0: np.ndarray,
                      cfg: SearchConfig) -> np.ndarray:
    base = theta0 / np.linalg.norm(theta0)
    tb = _tangent_basis(base)

    def objective(u):
        return -fb.ratio(x, base + tb @ u)

    u, _ = _nelder_mead(objective, np.zeros(theta0.size - 1), cfg.nm_maxiter,
                        1e-10, cfg.tol / 10)
    return base + tb @ u


def _rationalize_direction(theta: np.ndarray) -> list[Fraction]:
    """A nearby rational vector; the zero vector when theta is zero or not finite."""
    scale = float(np.max(np.abs(theta)))
    if scale == 0.0 or not np.isfinite(scale):
        return [Fraction(0)] * theta.size
    return [Fraction(float(c / scale)).limit_denominator(10**6) for c in theta]


# ---------------------------------------------------------------------------
# the searches


def _search(fb: _FloatBody, xp: Vec, cfg: SearchConfig) -> AsymmetryReport:
    """Maximize the cut ratio over directions at the interior point xp."""
    poly = fb.poly
    n = poly.dim
    bound = rho_bound(n)
    xf = fb.point(xp)

    candidates = exact_candidate_directions(poly, xp)
    sample = distinct_directions(seeded_directions(n, cfg.seed), cfg.random_directions,
                                 signed=False)
    screened = sorted(((fb.ratio(xf, _float_direction(d)), d) for d in sample),
                      key=lambda p: (-p[0], p[1]))
    candidates = distinct_directions(candidates + [d for _, d in screened[:1]], signed=False)
    witnesses = [(d, fb.evaluator(d).split_ratio(xp)) for d in candidates]

    if n >= 2:
        starts = [_float_direction(d) for _, d in screened[: cfg.multistart]]
        starts += [_float_direction(th)
                   for th, _ in sorted(witnesses, key=lambda w: (-w[1], w[0]))[:cfg.multistart]]
        refined = [_rationalize_direction(_refine_direction(fb, xf, th0, cfg)) for th0 in starts]
        # evaluate the refined directions that are new up to sign
        for d in distinct_directions(candidates + refined, signed=False)[len(candidates):]:
            witnesses.append((d, fb.evaluator(d).split_ratio(xp)))

    witnesses.sort(key=lambda w: (-w[1], w[0]))
    best_theta, best_ratio = witnesses[0]
    return AsymmetryReport(
        point=xp,
        rho=float(best_ratio),
        rho_exact=best_ratio,
        theta_star=best_theta,
        rho_n=bound,
        gap=float(bound - best_ratio),
        phi=1.0 / (float(best_ratio) + 1.0),
        exact_witnesses=tuple(witnesses[:8]),
    )


def _centroid_search(fb: _FloatBody, cfg: SearchConfig) -> AsymmetryReport:
    """The search at the centroid, which is interior, with the pyramid-equality flags."""
    report = _search(fb, fb.poly.centroid, cfg)
    report.equality_exact = report.rho_exact == report.rho_n
    report.pyramid_like = report.equality_exact or report.gap < EQUALITY_TOL
    return report


def rho_at_point(poly: Polytope, x, cfg: SearchConfig | None = None) -> AsymmetryReport:
    """Maximize the cut ratio over directions for a fixed interior point."""
    xp = as_point(x)
    if poly.contains(xp) is not Location.INTERIOR:
        raise RefNotInterior("cut point must be strictly inside the body")
    return _search(_FloatBody(poly), xp, cfg or SearchConfig())


def rho_centroid(poly: Polytope, cfg: SearchConfig | None = None) -> AsymmetryReport:
    """Ratio search at the exact centroid, with the pyramid-equality flags."""
    return _centroid_search(_FloatBody(poly), cfg or SearchConfig())


@dataclass
class RhoMinResult:
    point: Vec
    value: float
    report: AsymmetryReport

    def to_dict(self) -> dict:
        return {
            "point": [format_fraction(c) for c in self.point],
            "value": float(self.value),
            "report": self.report.to_dict(),
        }


def rho_min(poly: Polytope, cfg: SearchConfig | None = None) -> RhoMinResult:
    """Approximate minimizer of x -> rho(K, x) by descent from the centroid.

    The objective is the largest cut ratio over a fixed direction list (the
    exact candidates at the centroid plus seeded ones), read from each
    direction's exact pieces of V built once (:class:`FloatPieces`).
    Non-interior iterates score +inf, which keeps the simplex search inside
    the body; the outcome never exceeds the centroid value.
    """
    cfg = cfg or SearchConfig()
    n = poly.dim
    fb = _FloatBody(poly)
    dirs = exact_candidate_directions(poly, poly.centroid)
    dirs += distinct_directions(seeded_directions(n, cfg.seed + 1),
                                min(cfg.random_directions, 48), signed=False)
    pieces = FloatPieces([fb.evaluator(d) for d in dirs], fb.unit)
    facet_n = np.array([[float(c) for c in f.normal] for f in poly.facets])
    facet_c = fb.point([f.offset for f in poly.facets])

    def interior(xf: np.ndarray) -> bool:
        return bool(np.all(facet_n @ xf < facet_c))

    def objective(xf: np.ndarray) -> float:
        """The largest cut ratio through xf over the fixed directions."""
        if not interior(xf):
            return math.inf
        below = pieces.values(xf)
        above = fb.total - below
        if not (np.all(below > 0.0) and np.all(above > 0.0)):
            return math.inf
        return float(np.max(np.maximum(below / above, above / below)))

    x0 = fb.point(poly.centroid)
    xs, fun = _nelder_mead(objective, x0, cfg.nm_maxiter * n, 1e-10, cfg.tol)
    xbest = xs if np.isfinite(fun) and interior(xs) else x0

    # pull the iterate to an exactly-interior rational point
    xr = tuple(Fraction(float(c)).limit_denominator(10**9) * fb.unit for c in xbest)
    lam = Fraction(0)
    while poly.contains(xr) is not Location.INTERIOR:
        lam += Fraction(1, 16)
        xr = tuple(c + lam * (g - c) for c, g in zip(xr, poly.centroid))

    inner_cfg = replace(cfg, random_directions=min(cfg.random_directions, 64), multistart=1,
                        nm_maxiter=cfg.nm_maxiter // 2)
    report = _search(fb, xr, inner_cfg)  # both reports reuse the point search's evaluators
    centroid_report = _centroid_search(fb, inner_cfg)
    if centroid_report.rho <= report.rho:
        report, xr = centroid_report, poly.centroid
    return RhoMinResult(point=xr, value=report.rho, report=report)
