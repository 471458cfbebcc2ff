"""Convex floating bodies: cut depths, outer approximations, membership.

The floating body of K at level delta is the intersection of every halfspace
whose complement cuts off at most the fraction delta of vol(K).  Here it is
represented by a finite outer approximation: for each direction in a budget,
the depth at which the complement cuts off exactly delta is solved by
bisection on the exact cumulative volume, with the bracketing rationals kept
as a certificate.  Facet normals are always available as directions, since
the pyramid equality cases are tight exactly there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .asymmetry import SearchConfig, rho_centroid
from .errors import BadDelta
from .feasibility import feasible_point
from .geometry import (
    Polytope,
    as_fraction,
    as_point,
    dot,
    format_fraction,
    primitive_direction,
    seeded_directions,
)
from .slicing import CumulativeEvaluator


@dataclass(frozen=True)
class DepthCut:
    """Halfspace {x : theta·x <= hi} whose complement cuts off fraction delta.

    [lo, hi] brackets the exact depth; lo == hi when the bisection snapped to
    the exact rational solution.  Using hi preserves the outer approximation.
    """

    theta: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


BRACKET_BITS = 64
_SNAP_DENOMS = (1, 4, 16, 256, 4096, 1 << 16, 1 << 24)


def cut_depth(poly: Polytope, theta, delta, bits: int = BRACKET_BITS) -> DepthCut:
    """Depth t with vol(K ∩ {x·theta >= t}) = delta·vol(K), bracketed.

    Bisection runs on the exact monotone cumulative volume (with a floating
    warm start) until the bracket width is below 2^-bits of the support
    width; simple rationals inside the bracket are then probed so that exact
    solutions (the pyramid identities) come out as zero-width brackets.
    """
    delta = as_fraction(delta)
    if not (0 < delta <= Fraction(1, 2)):
        raise BadDelta(f"delta must lie in (0, 1/2], got {delta}")
    ev = CumulativeEvaluator(poly, theta)
    th = primitive_direction(ev.theta)
    target = (1 - delta) * poly.volume
    lo, hi = ev.lo, ev.hi
    width = hi - lo
    goal = width / (1 << bits)

    # floating warm start narrows the bracket before exact refinement
    flo, fhi = float(lo), float(hi)
    ftarget = float(target)
    for _ in range(48):
        fmid = (flo + fhi) / 2.0
        if ev.value_float(fmid) < ftarget:
            flo = fmid
        else:
            fhi = fmid
    slack = (fhi - flo) or float(width) * 1e-12
    cand_lo = max(lo, Fraction(flo - 4 * slack))
    cand_hi = min(hi, Fraction(fhi + 4 * slack))
    if cand_lo < cand_hi and ev.value(cand_lo) <= target <= ev.value(cand_hi):
        lo, hi = cand_lo, cand_hi

    while hi - lo > goal:
        mid = (lo + hi) / 2
        if ev.value(mid) < target:
            lo = mid
        else:
            hi = mid

    mid = (lo + hi) / 2
    for den in _SNAP_DENOMS:
        cand = mid.limit_denominator(den)
        if lo <= cand <= hi and ev.value(cand) == target:
            return DepthCut(theta=th, lo=cand, hi=cand)
    return DepthCut(theta=th, lo=lo, hi=hi)


@dataclass
class FloatingBodyApprox:
    """Finite outer approximation of a floating body K^delta."""

    delta: Fraction
    source: Polytope
    cuts: tuple[DepthCut, ...]

    @property
    def direction_count(self) -> int:
        return len(self.cuts)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _axis_directions(n: int) -> list[tuple[int, ...]]:
    dirs = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        dirs.append(tuple(e))
        e2 = [0] * n
        e2[i] = -1
        dirs.append(tuple(e2))
    return dirs


def direction_budget(poly: Polytope, n_dirs: int | None, seed: int = 0,
                     mode: str = "auto") -> list[tuple[int, ...]]:
    """Deterministic signed direction set for depth cuts.

    auto: +-axes, +-facet normals, then seeded integer directions until the
    set has n_dirs members.  The budget is a floor, not a cap: axes and facet
    normals are always kept, so a body with many facets gets more than n_dirs
    directions.  axes / facets restrict to those families.
    """
    n = poly.dim
    if mode == "axes":
        return _axis_directions(n)
    if mode == "facets":
        # inward normals: the complement cut points at the opposite side, which
        # is where the pyramid equality cases are tight at the centroid
        out, seen = [], set()
        for f in poly.facets:
            d = primitive_direction([-c for c in f.normal])
            if d not in seen:
                seen.add(d)
                out.append(d)
        return out
    out, seen = [], set()
    for d in _axis_directions(n):
        if d not in seen:
            seen.add(d)
            out.append(d)
    for f in poly.facets:
        for d in (primitive_direction(f.normal), primitive_direction([-c for c in f.normal])):
            if d not in seen:
                seen.add(d)
                out.append(d)
    if n_dirs is not None:
        # axes and facet normals are never dropped; randoms fill up to the budget
        stream = seeded_directions(n, seed)
        while len(out) < n_dirs:
            d = next(stream)
            if d in seen:
                continue
            seen.add(d)
            out.append(d)
    return out


def floating_body_approx(poly: Polytope, delta, n_dirs: int | None = None,
                         seed: int = 0, directions=None) -> FloatingBodyApprox:
    """Outer approximation of K^delta from a finite direction budget.

    `directions` may be an explicit list of vectors or a mode string
    ('auto', 'axes', 'facets'); otherwise the auto set is used, with
    n_dirs >= 2n as its floor (see :func:`direction_budget`).
    """
    delta = as_fraction(delta)
    if not (0 < delta <= Fraction(1, 2)):
        raise BadDelta(f"delta must lie in (0, 1/2], got {delta}")
    n = poly.dim
    if isinstance(directions, str):
        dirs = direction_budget(poly, n_dirs, seed, mode=directions)
    elif directions is not None:
        dirs = []
        seen = set()
        for v in directions:
            d = primitive_direction(as_point(v))
            if d is None:
                raise ValueError("direction must be nonzero")
            if d not in seen:
                seen.add(d)
                dirs.append(d)
    else:
        if n_dirs is None:
            n_dirs = max(2 * n, 16)
        if n_dirs < 2 * n:
            raise ValueError(f"direction budget {n_dirs} below 2n = {2 * n}")
        dirs = direction_budget(poly, n_dirs, seed, mode="auto")
    cuts = tuple(cut_depth(poly, d, delta) for d in dirs)
    return FloatingBodyApprox(delta=delta, source=poly, cuts=cuts)


def is_nonempty(approx: FloatingBodyApprox) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Exact feasibility of the stored halfspace system, with a witness.

    Tries the source centroid first, then the max-slack simplex of
    :func:`feasibility.feasible_point`, whose witness is any exact point of
    the system (re-checked against every row).
    """
    c = approx.source.centroid
    if approx.contains_point(c):
        return True, c
    system = [(tuple(Fraction(v) for v in cut.theta), cut.hi) for cut in approx.cuts]
    witness = feasible_point(system, approx.source.dim)
    if witness is None:
        return False, None
    return True, witness


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
                 directions: str = "auto", n_dirs: int | None = None,
                 iterations: int = 18) -> PhiEstimate:
    """Bracket phi(K): lower bound from the centroid ratio, upper bound from
    nonemptiness bisection of the outer approximations over delta."""
    cfg = cfg or SearchConfig()
    report = rho_centroid(poly, cfg)
    lo = 1.0 / (report.rho + 1.0)

    n = poly.dim
    if n_dirs is None and directions == "auto":
        n_dirs = max(2 * n, 16)

    def nonempty(d: Fraction) -> bool:
        approx = floating_body_approx(poly, d, n_dirs=n_dirs, seed=cfg.seed,
                                      directions=directions)
        return is_nonempty(approx)[0]

    half = Fraction(1, 2)
    if nonempty(half):
        return PhiEstimate(lo=lo, hi=0.5, delta_feasible=half, delta_infeasible=None)
    feasible = Fraction(poly.dim, poly.dim + 1) ** poly.dim  # delta_n, always nonempty
    infeasible = half
    for _ in range(iterations):
        mid = (feasible + infeasible) / 2
        if nonempty(mid):
            feasible = mid
        else:
            infeasible = mid
    return PhiEstimate(lo=lo, hi=float(infeasible),
                       delta_feasible=feasible, delta_infeasible=infeasible)
