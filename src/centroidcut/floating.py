"""Convex floating bodies: cut depths, outer approximations, membership.

The floating body of K at level delta is the intersection of every halfspace
whose complement cuts off at most the fraction delta of vol(K).  Here it is
represented by a finite outer approximation: for each direction in a budget,
the depth at which the complement cuts off exactly delta is a root of the
exact cumulative volume on one of its polynomial pieces.  It is found exactly
when rational and otherwise kept as a certified bracket on a fixed grid.
Facet normals are always available as directions, since the pyramid equality
cases are tight exactly there.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .asymmetry import SearchConfig, delta_bound, rho_centroid
from .errors import BadDelta, BadValue
from .feasibility import feasible_point
from .geometry import (
    Polytope,
    as_fraction,
    as_point,
    distinct_directions,
    dot,
    format_fraction,
    seeded_directions,
)
from .slicing import CumulativeEvaluator


@dataclass(frozen=True, slots=True)
class DepthCut:
    """Halfspace {x : theta·x <= hi} whose complement cuts off fraction delta.

    lo == hi is the exact depth whenever it is rational.  Otherwise (lo, hi]
    is the cell of width 2^-BRACKET_BITS of the support width, on the grid
    from the lowest support value, that holds the depth.  Using hi preserves
    the outer approximation.
    """

    theta: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


BRACKET_BITS = 64


def cut_depth(ev: CumulativeEvaluator, delta) -> DepthCut:
    """Depth t with vol(K ∩ {x·theta >= t}) = delta·vol(K), bracketed, on the
    evaluator of (K, theta), which the caller may hold across many delta.

    The breakpoints of the cumulative volume locate the piece that holds the
    depth; on that piece it is the root of an integer polynomial, isolated
    on the grid of 2^BRACKET_BITS cells of the support and returned as an
    exact rational when it is one (see :meth:`CumulativeEvaluator.solve`).
    """
    delta = as_fraction(delta)
    if not (0 < delta <= Fraction(1, 2)):
        raise BadDelta(f"delta must lie in (0, 1/2], got {delta}")
    lo, hi = ev.solve((1 - delta) * ev.total, BRACKET_BITS)
    th = ev.direction
    scale = next(a / b for a, b in zip(ev.theta, th) if b)  # theta = scale * th
    if scale != 1:
        lo, hi = lo / scale, hi / scale
    return DepthCut(theta=th, lo=lo, hi=hi)


@dataclass
class FloatingBodyApprox:
    """Finite outer approximation of a floating body K^delta."""

    delta: Fraction
    source: Polytope
    cuts: tuple[DepthCut, ...]

    def contains_point(self, x) -> bool:
        """Necessary condition for membership in the true K^delta."""
        p = as_point(x)
        return all(dot(c.theta, p) <= c.hi for c in self.cuts)

    def to_dict(self) -> dict:
        return {
            "delta": format_fraction(self.delta),
            "halfspaces": [
                {
                    "theta": [int(v) for v in c.theta],
                    "t_lo": format_fraction(c.lo),
                    "t_hi": format_fraction(c.hi),
                }
                for c in self.cuts
            ],
        }


DIRECTION_MODES = ("auto", "axes", "facets")


def direction_budget(poly: Polytope, n_dirs: int | None, seed: int = 0,
                     mode: str = "auto") -> list[tuple[int, ...]]:
    """Deterministic signed direction set for depth cuts; `mode` is one of
    'auto', 'axes' or 'facets'.

    auto: +-axes, +-facet normals, then seeded integer directions up to n_dirs,
    which must be at least 2n; n_dirs=None means no random fill.  The budget
    is a floor, not a cap: axes and facet normals are always kept.  facets:
    inward normals, whose complement cut points at the opposite side, where
    the pyramid equality cases are tight at the centroid.  Only auto mode
    takes a budget.
    """
    n = poly.dim
    if mode not in DIRECTION_MODES:
        raise BadValue(f"direction mode must be one of {DIRECTION_MODES}, got {mode!r}")
    if mode != "auto" and n_dirs is not None:
        raise BadValue(f"a direction budget applies only to auto mode, not {mode!r}")
    axes = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    if mode == "axes":
        return axes
    if mode == "facets":
        return distinct_directions([-c for c in f.normal] for f in poly.facets)
    if n_dirs is not None and n_dirs < 2 * n:
        raise BadValue(f"direction budget {n_dirs} below 2n = {2 * n}")
    kept = distinct_directions(axes + [v for f in poly.facets
                                       for v in (f.normal, [-c for c in f.normal])])
    return distinct_directions(itertools.chain(kept, seeded_directions(n, seed)),
                               max(n_dirs or 0, len(kept)))


def _approximations(poly: Polytope, n_dirs: int | None, seed: int, mode: str):
    """delta -> outer approximation of K^delta, over one evaluator per
    direction of :func:`direction_budget`, shared by every delta."""
    evs = [CumulativeEvaluator(poly, d) for d in direction_budget(poly, n_dirs, seed, mode)]

    def approx(delta) -> FloatingBodyApprox:
        delta = as_fraction(delta)
        return FloatingBodyApprox(delta=delta, source=poly,
                                  cuts=tuple(cut_depth(ev, delta) for ev in evs))
    return approx


def floating_body_approx(poly: Polytope, delta, n_dirs: int | None = None,
                         seed: int = 0, directions: str = "auto") -> FloatingBodyApprox:
    """Outer approximation of K^delta from a finite direction set.

    `directions` takes only 'auto', 'axes' or 'facets'; in auto mode n_dirs
    is the budget, a floor of at least 2n, and n_dirs=None means no random
    fill (see :func:`direction_budget`).  delta is checked by :func:`cut_depth`.
    """
    return _approximations(poly, n_dirs, seed, directions)(delta)


def is_nonempty(approx: FloatingBodyApprox) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Exact feasibility of the stored halfspace system, with a witness.

    Tries the source centroid first, then the max-slack simplex of
    :func:`feasibility.feasible_point`, whose witness is any exact point of
    the system (re-checked against every row).
    """
    c = approx.source.centroid
    if approx.contains_point(c):
        return True, c
    system = [(cut.theta, cut.hi) for cut in approx.cuts]
    witness = feasible_point(system, approx.source.dim)
    return witness is not None, witness


PHI_ITERATIONS = 18  # delta bisection steps between delta_n and 1/2


@dataclass
class PhiEstimate:
    """Two-sided estimate of the floating-body threshold phi(K)."""

    lo: float
    hi: float
    delta_feasible: Fraction
    delta_infeasible: Fraction | None

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "delta_feasible": format_fraction(self.delta_feasible),
            "delta_infeasible": (format_fraction(self.delta_infeasible)
                                 if self.delta_infeasible is not None else None),
        }


def phi_estimate(poly: Polytope, cfg: SearchConfig | None = None,
                 directions: str = "auto", n_dirs: int | None = None) -> PhiEstimate:
    """Bracket phi(K) by nonemptiness bisection of the outer approximations
    over delta, with one evaluator per direction shared by every delta.

    Only hi is certified, as an empty outer approximation proves K^delta
    empty.  lo = 1/(rho+1) from the centroid ratio the search found, which is
    at most rho(K, c); so lo >= d_K(c), an estimate, not a lower bound.
    """
    cfg = cfg or SearchConfig()
    report = rho_centroid(poly, cfg)

    n = poly.dim
    if n_dirs is None and directions == "auto":
        n_dirs = max(2 * n, 16)
    approx = _approximations(poly, n_dirs, cfg.seed, directions)

    def nonempty(d: Fraction) -> bool:
        return is_nonempty(approx(d))[0]

    half = Fraction(1, 2)
    if nonempty(half):
        return PhiEstimate(lo=report.phi, hi=0.5, delta_feasible=half, delta_infeasible=None)
    feasible = delta_bound(n)  # always nonempty
    infeasible = half
    for _ in range(PHI_ITERATIONS):
        mid = (feasible + infeasible) / 2
        if nonempty(mid):
            feasible = mid
        else:
            infeasible = mid
    return PhiEstimate(lo=report.phi, hi=float(infeasible),
                       delta_feasible=feasible, delta_infeasible=infeasible)
