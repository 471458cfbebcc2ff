"""Exact cumulative volumes and section functions along a direction.

The volume of a simplex on one side of a hyperplane is evaluated with the
classical frustum recursion (Varsi 1973): given the affine values at the
vertices, the cut fraction is an O(p*q) rational recurrence that is exact and
untroubled by ties.  Cumulative volumes along a direction sum that fraction
over the polytope's cell table, so no geometric clipping happens anywhere.

Between consecutive vertex projections the cumulative volume is one
polynomial of degree <= n (Lawrence 1991); section values are the exact
derivatives of those pieces, normalized so that integrating f over the raw
projection values t = x . theta recovers vol(K).  With that convention the
slice measure is rational even for non-unit rational normals (the Euclidean
(n-1)-volume differs by the factor |theta|, which is irrational in general
and only used for display).
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RefNotInterior
from .geometry import (
    Location,
    Polytope,
    Vec,
    as_fraction,
    as_point,
    dot,
    fraction_to_decimal,
)


# ---------------------------------------------------------------------------
# frustum fraction of a simplex


def simplex_cut_fraction(values) -> Fraction:
    """Fraction of a simplex lying in {l <= 0} given vertex values l(v_i).

    Frustum recursion over the positive values a_i and the magnitudes b_j of
    the negative values:

        V[0][j] = 1,   V[i][0] = 0,
        V[i][j] = (b_j V[i-1][j] + a_i V[i][j-1]) / (a_i + b_j)

    and the answer is V[p][q].  Exact in rational arithmetic; vertex values
    equal to zero contribute nothing and are dropped.
    """
    return _cut_fraction(values, Fraction(1))


def _cut_fraction(values, one):
    """The recursion of simplex_cut_fraction in the number type of `one`.

    Fraction(1) gives the exact fraction, 1.0 the float one of the searches.
    """
    pos = [v for v in values if v > 0]
    neg = [-v for v in values if v < 0]
    if not pos:
        return one
    zero = type(one)(0)
    if not neg:
        return zero
    row = [one] * (len(neg) + 1)
    for a in pos:
        row[0] = zero
        for j, b in enumerate(neg, start=1):
            row[j] = (b * row[j] + a * row[j - 1]) / (a + b)
    return row[-1]


# ---------------------------------------------------------------------------
# cumulative volume along a direction


class CumulativeEvaluator:
    """Repeated exact evaluations of t -> vol(K ∩ {x·theta <= t}).

    Each vertex is projected once and scaled to the integer P_i = L x_i·theta,
    L the lcm of the projections' denominators.  For t = p/q the integers
    P_i q - L p are x_i·theta - t times L q > 0, which leaves the frustum
    recursion run over each cell unchanged.  ``value_float`` runs the same
    recurrence in floating point for search/bisection warm starts.
    """

    def __init__(self, poly: Polytope, theta):
        self.poly = poly
        self.theta = as_point(theta)
        if all(c == 0 for c in self.theta):
            raise ValueError("direction must be nonzero")
        self.total = poly.volume
        self.projections = [dot(self.theta, v) for v in poly.vertices]
        self.lo = min(self.projections)
        self.hi = max(self.projections)
        self._scale = math.lcm(*(p.denominator for p in self.projections))
        self._ints = [p.numerator * (self._scale // p.denominator) for p in self.projections]
        self._fprojs = [float(p) for p in self.projections]
        self._fcells = [(float(vol), ids) for vol, ids in poly.cells]

    def value(self, t) -> Fraction:
        t = as_fraction(t)
        if t <= self.lo:
            return Fraction(0)
        if t >= self.hi:
            return self.total
        q, lp = t.denominator, self._scale * t.numerator
        vals = [p * q - lp for p in self._ints]
        acc = Fraction(0)
        for vol, ids in self.poly.cells:
            acc += vol * simplex_cut_fraction([vals[i] for i in ids])
        return acc

    def value_float(self, t: float) -> float:
        vals = [p - t for p in self._fprojs]
        acc = 0.0
        for vol, ids in self._fcells:
            acc += vol * _cut_fraction([vals[i] for i in ids], 1.0)
        return acc


def cumulative_volume(poly: Polytope, theta, t) -> Fraction:
    """Exact vol(K ∩ {x·theta <= t}); monotone nondecreasing in t."""
    return CumulativeEvaluator(poly, theta).value(t)


def support_interval(poly: Polytope, theta, ref) -> tuple[Fraction, Fraction]:
    """Distances (a, b) from an interior reference point to the support ends.

    The section function along theta, centered at ref, is supported on
    [-a, b]; both are positive for interior ref.
    """
    refp = as_point(ref)
    if poly.contains(refp) is not Location.INTERIOR:
        raise RefNotInterior("reference point must be strictly inside the body")
    th = as_point(theta)
    projs = [dot(th, v) for v in poly.vertices]
    s0 = dot(th, refp)
    return s0 - min(projs), max(projs) - s0


# ---------------------------------------------------------------------------
# exact piecewise polynomials of the section function


def _newton_interp(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Exact interpolating polynomial coefficients (low to high degree)."""
    k = len(xs)
    coef = list(ys)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # expand Newton form
    poly = [Fraction(0)] * k
    poly[0] = coef[-1]
    deg = 0
    for i in range(k - 2, -1, -1):
        # poly <- poly*(x - xs[i]) + coef[i]
        for d in range(deg, -1, -1):
            poly[d + 1] += poly[d]
            poly[d] = -xs[i] * poly[d]
        deg += 1
        poly[0] += coef[i]
    return poly


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derive(coeffs):
    return [c * k for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def _poly_antiderive(coeffs):
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)]


class SectionPolynomials:
    """Exact polynomial pieces of cum(t) and f(t) along a direction.

    Between consecutive distinct vertex projections the cumulative volume is a
    single polynomial of degree <= n; each piece is recovered by exact
    interpolation at n+1 interior rational nodes.
    """

    def __init__(self, poly: Polytope, theta):
        self.ev = CumulativeEvaluator(poly, theta)
        n = poly.dim
        breaks = sorted(set(self.ev.projections))
        self.breakpoints: list[Fraction] = breaks
        self.f_pieces: list[list[Fraction]] = []
        for lo, hi in zip(breaks, breaks[1:]):
            step = (hi - lo) / (n + 2)
            xs = [lo + (j + 1) * step for j in range(n + 1)]
            ys = [self.ev.value(x) for x in xs]
            self.f_pieces.append(_poly_derive(_newton_interp(xs, ys)))

    def f_value(self, t) -> Fraction:
        """Section value as the exact derivative of the cumulative volume.

        Zero outside the support; at a breakpoint the piece on its left is
        used (the right one at the lower end), which for n >= 2 is the
        closed-slice value since f is continuous on the support.
        """
        t = as_fraction(t)
        b = self.breakpoints
        if t < b[0] or t > b[-1]:
            return Fraction(0)
        i = max(bisect.bisect_left(b, t) - 1, 0)
        return _poly_eval(self.f_pieces[i], t)

    def _integral(self, pieces) -> Fraction:
        acc = Fraction(0)
        for lo, hi, p in zip(self.breakpoints, self.breakpoints[1:], pieces):
            anti = _poly_antiderive(p)
            acc += _poly_eval(anti, hi) - _poly_eval(anti, lo)
        return acc

    def mass(self) -> Fraction:
        """Integral of f over the support; equals vol(K) exactly."""
        return self._integral(self.f_pieces)

    def moment(self, about) -> Fraction:
        """Exact first moment of f about a projection value s0."""
        s0 = as_fraction(about)
        zero = [Fraction(0)]
        # (t - s0) * f(t): shift the coefficients up one degree, subtract s0 * f
        return self._integral([[a - s0 * b for a, b in zip(zero + f, f + zero)]
                               for f in self.f_pieces])


def section_value(poly: Polytope, theta, t) -> Fraction:
    """Slice measure f(t) of K at the hyperplane {x·theta = t}.

    Normalized so that the integral of f over raw projection values equals
    vol(K); see :meth:`SectionPolynomials.f_value`.
    """
    return SectionPolynomials(poly, theta).f_value(t)


def section_moment(poly: Polytope, theta, ref=None) -> Fraction:
    """Exact moment of the section function about the reference projection.

    Zero (as a rational identity) when ref is the centroid.
    """
    refp = as_point(ref) if ref is not None else poly.centroid
    sp = SectionPolynomials(poly, theta)
    return sp.moment(dot(sp.ev.theta, refp))


# ---------------------------------------------------------------------------
# sampled profiles


@dataclass(frozen=True)
class SectionProfile:
    """Exact samples of the section function on a uniform grid around ref."""

    direction: Vec
    ref: Vec
    a: Fraction
    b: Fraction
    samples: tuple[tuple[Fraction, Fraction], ...]  # (t relative to ref, f)
    dim: int

    def h_exponent(self) -> int:
        return max(self.dim - 1, 1)

    def h_values(self) -> list[tuple[float, float]]:
        k = self.h_exponent()
        return [(float(t), float(f) ** (1.0 / k)) for t, f in self.samples]

    def midpoint_concavity_ok(self, tol: float = 1e-12) -> bool:
        """Chord condition for h = f^(1/(n-1)) over all grid triples.

        For planar bodies h equals f and the check is exact: on an increasing
        grid, slopes of consecutive samples are non-increasing iff every
        chord condition holds.  In higher dimension the root is taken in
        floating point against the tolerance; there every triple is checked,
        because adjacent slopes with the same tolerance would accept more
        profiles.
        """
        if self.dim == 2:
            for (t1, h1), (t2, h2), (t3, h3) in zip(self.samples, self.samples[1:],
                                                    self.samples[2:]):
                if (h2 - h1) * (t3 - t2) < (h3 - h2) * (t2 - t1):
                    return False
            return True
        hv = self.h_values()
        for (t1, h1), (t2, h2), (t3, h3) in itertools.combinations(hv, 3):
            lam = (t2 - t1) / (t3 - t1)
            if h2 < h1 + lam * (h3 - h1) - tol:
                return False
        return True

    def trapezoid_mass(self) -> float:
        ts = [float(t) for t, _ in self.samples]
        fs = [float(f) for _, f in self.samples]
        return sum((fs[i] + fs[i + 1]) * (ts[i + 1] - ts[i]) / 2.0
                   for i in range(len(ts) - 1))

    def to_csv(self, digits: int = 12) -> str:
        k = self.h_exponent()
        lines = ["t,f,h"]
        for t, f in self.samples:
            h = float(f) ** (1.0 / k)
            lines.append(f"{fraction_to_decimal(t, digits)},"
                         f"{fraction_to_decimal(f, digits)},{h:.{digits}f}")
        return "\n".join(lines) + "\n"


def profile(poly: Polytope, theta, grid_size: int, ref=None) -> SectionProfile:
    """Sample the section function on a uniform rational grid over its support."""
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    refp = as_point(ref) if ref is not None else poly.centroid
    th = as_point(theta)
    a, b = support_interval(poly, th, refp)
    s0 = dot(th, refp)
    step = (a + b) / (grid_size - 1)
    sp = SectionPolynomials(poly, th)
    samples = []
    for i in range(grid_size):
        t_rel = -a + i * step
        samples.append((t_rel, sp.f_value(s0 + t_rel)))
    return SectionProfile(direction=th, ref=refp, a=a, b=b,
                          samples=tuple(samples), dim=poly.dim)
