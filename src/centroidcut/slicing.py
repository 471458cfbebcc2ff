"""Exact cumulative volumes and section functions along a direction.

Between consecutive vertex projections the cumulative volume is one
polynomial of degree <= n (Lawrence 1991).  Every piece comes from truncated
powers at the vertex projections (Curry & Schoenberg 1966), summed over the
polytope's cell table; nothing is clipped or interpolated.  Section values
are the exact derivatives of the pieces, normalized so that integrating f
over the raw projection values t = x . theta recovers vol(K), which keeps the
slice measure rational for non-unit rational normals (the Euclidean
(n-1)-volume differs by the factor |theta|, irrational in general and only
used for display).  The float searches use the frustum recursion (Varsi
1973) instead, since truncated powers cancel badly in floating point.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
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
    primitive_direction,
)


# ---------------------------------------------------------------------------
# float cut volumes for the searches


def _cut_fraction(values) -> float:
    """Float fraction of a simplex lying in {l <= 0} given vertex values
    l(v_i): with a_i the positive values and b_j the magnitudes of the
    negative ones, V[0][j] = 1, V[i][0] = 0 and V[i][j] =
    (b_j V[i-1][j] + a_i V[i][j-1]) / (a_i + b_j) give V[p][q]."""
    pos = [v for v in values if v > 0]
    neg = [-v for v in values if v < 0]
    if not pos:
        return 1.0
    if not neg:
        return 0.0
    row = [1.0] * (len(neg) + 1)
    for a in pos:
        row[0] = 0.0
        for j, b in enumerate(neg, start=1):
            row[j] = (b * row[j] + a * row[j - 1]) / (a + b)
    return row[-1]


def float_cut_volume(cells, vals) -> float:
    """Floating-point volume below a cut: the frustum recursion in floats,
    summed over (float volume, vertex ids) cells, from each vertex's value
    x_i·theta - t.  Only the float searches and ``value_float`` use it."""
    acc = 0.0
    for vol, ids in cells:
        acc += vol * _cut_fraction([vals[i] for i in ids])
    return acc


# ---------------------------------------------------------------------------
# cumulative volume along a direction


class CumulativeEvaluator:
    """The exact kernel of one (body, direction): t -> vol(K ∩ {x·theta <= t}).

    Each vertex is projected once and scaled to the integer P_i = L x_i·theta,
    L the lcm of the projections' denominators.  A cell's fraction below
    s = L t is (-1)^n times the divided difference of (s - x)_+^n on its P_i,
    in the confluent form where they tie.  One prefix sum of those terms over
    the sorted breakpoints gives every polynomial piece of V and V at every
    breakpoint; the last sum must be the constant vol K.  ``value``,
    :meth:`solve`, :meth:`f_value` and :meth:`moment` read those lists, and
    no float is formed.
    """

    def __init__(self, poly: Polytope, theta):
        self.poly = poly
        self.theta = as_point(theta)
        if all(c == 0 for c in self.theta):
            raise ValueError("direction must be nonzero")
        self.total = poly.volume
        projections = [dot(self.theta, v) for v in poly.vertices]
        self.breakpoints = sorted(set(projections))
        self.lo, self.hi = self.breakpoints[0], self.breakpoints[-1]
        self._scale = math.lcm(*(p.denominator for p in projections))
        self._ints = [p.numerator * (self._scale // p.denominator) for p in projections]
        # pieces[i] on [breakpoints[i], breakpoints[i+1]], then V above the top
        *self.pieces, top = _prefix_pieces(poly.cells, self._ints, poly.dim, self._scale)
        if top != ([self.total.numerator] + [0] * poly.dim, self.total.denominator):
            raise RuntimeError("cumulative volume does not end at the body's volume")
        self.levels = [*map(_poly_eval, self.pieces, self.breakpoints), self.total]
        self.direction = primitive_direction(self.theta)  # shared by every cut

    def value(self, t) -> Fraction:
        t = as_fraction(t)
        if t <= self.lo:
            return Fraction(0)
        if t >= self.hi:
            return self.total
        return _poly_eval(self.pieces[bisect.bisect_right(self.breakpoints, t) - 1], t)

    def value_float(self, t: float) -> float:
        """V by the frustum recursion in floating point; no exact path reads
        it (kept for callers that want a cheap approximate V)."""
        cells = [(float(vol), ids) for vol, ids in self.poly.cells]
        return float_cut_volume(cells, [p / self._scale - t for p in self._ints])

    def solve(self, target: Fraction, bits: int) -> tuple[Fraction, Fraction]:
        """The depth r with V(r) = target, for 0 < target < vol K, as (lo, hi).

        lo == hi == r when r is rational.  Otherwise (lo, hi] is the cell of
        the grid lo_K + k W / 2^bits (W the support width) that holds r,
        certified by V(lo) < target <= V(hi).  The breakpoints bracket r
        first; on its piece P, r is the root of the integer polynomial Q =
        den(target) P - num(target), divided by its content, found on a grid
        fine enough that Q's leading coefficient c times the cell width is
        below 1/2.  A rational root p/q of Q has q | c, so the one multiple
        of 1/c in that cell decides whether r is rational.  Grid points
        outside the piece are never evaluated on P: those below it lie under
        the target and those above it over, by V at the breakpoints.
        """
        b = self.breakpoints
        i = bisect.bisect_left(self.levels, target)
        if self.levels[i] == target:
            return b[i], b[i]
        i -= 1  # V(b[i]) < target < V(b[i + 1])
        ints, den = self.pieces[i]
        q = [target.denominator * c for c in ints]
        q[0] -= den * target.numerator
        g = math.gcd(*q)
        q = [c // g for c in q]
        while not q[-1]:
            q.pop()
        lead = abs(q[-1])
        width = self.hi - self.lo
        fine = max(bits, math.ceil(2 * lead * width).bit_length())
        # grid point k is t = (A + B k) / D = lo_K + k W / 2^fine
        A = self.lo.numerator * width.denominator << fine
        B = self.lo.denominator * width.numerator
        D = self.lo.denominator * width.denominator << fine
        cells = (1 << fine) / width
        k = _grid_root(q, A, B, D, math.floor((b[i] - self.lo) * cells),
                       math.ceil((b[i + 1] - self.lo) * cells))
        num = -((-lead * (A + B * k)) // D)  # ceil(c t_k)
        if b[i] * lead < num < b[i + 1] * lead and _hom_eval(q, num, lead) == 0:
            r = Fraction(num, lead)
            return r, r
        step = width / (1 << bits)
        lo = self.lo + (k >> (fine - bits)) * step
        if not self.value(lo) < target <= self.value(lo + step):
            raise RuntimeError(f"depth cell ({lo}, {lo + step}] fails its exact check")
        return lo, lo + step

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
        ints, den = self.pieces[max(bisect.bisect_left(b, t) - 1, 0)]
        return _poly_eval(([k * c for k, c in enumerate(ints)][1:], den), t)

    def moment(self, about) -> Fraction:
        """Exact first moment of f about a projection value s0: by parts,
        (hi - s0) vol(K) minus the integral of the cumulative volume."""
        b = self.breakpoints
        area = sum((Fraction(c, (k + 1) * den) * (hi ** (k + 1) - lo ** (k + 1))
                    for (ints, den), lo, hi in zip(self.pieces, b, b[1:])
                    for k, c in enumerate(ints)), Fraction(0))
        return (self.hi - as_fraction(about)) * self.total - area


def _prefix_pieces(cells, ints: list[int], n: int, scale: int) -> list[tuple[list[int], int]]:
    """V between consecutive distinct integer projections a and above the
    last, as (integer coefficients in t, low degree first; positive
    denominator) in lowest terms, where s = scale t.

    A cell of volume vol adds, at a node a of multiplicity mu among nodes b
    of multiplicity m_b (d_b = a - b, D = prod d_b^m_b, R = prod d_b), the
    terms vol (-1)^(n+j) C(n, j) E_(mu-1-j) R^j / (D R^(mu-1)) (s - a)^(n-j),
    j < mu, from the residue at a of (s - z)^n / prod (z - P_i).  E_k / R^k
    is the k-th Taylor coefficient of prod (1 + u/d_b)^(-m_b) at 0, and E_k
    is an integer by (k+1) E_(k+1) = -sum_(i<=k) P_i E_(k-i), where
    P_i = (-1)^i sum m_b (R/d_b)^(i+1).
    """
    weights = {a: ([0] * n, 1) for a in ints}
    for vol, ids in cells:
        mult = Counter(ints[i] for i in ids)
        for a, mu in mult.items():
            others = [(a - b, m) for b, m in mult.items() if b != a]
            r = math.prod(d for d, _ in others)
            den = vol.denominator * math.prod(d ** m for d, m in others) * r ** (mu - 1)
            es, ps = [1], []
            for k in range(mu - 1):
                ps.append((-1) ** k * sum(m * (r // d) ** (k + 1) for d, m in others))
                es.append(-sum(p * e for p, e in zip(ps, reversed(es))) // (k + 1))
            nums, acc = weights[a]
            g = math.gcd(acc, den)
            if abs(den) != g:  # the node's denominator grows to lcm(acc, |den|)
                nums = [c * (abs(den) // g) for c in nums]
                weights[a] = nums, acc * (abs(den) // g)
            num = (-1) ** (n + (den < 0)) * vol.numerator * (acc // g)
            for j in range(mu):
                nums[j] += (-1) ** j * num * math.comb(n, j) * es[mu - 1 - j] * r ** j
    ints, den = [0] * (n + 1), 1
    pieces = []
    for a in sorted(weights):
        nums, wden = weights[a]
        term = [0] * (n + 1)
        for j, c in enumerate(nums):  # c / wden (s - a)^(n-j)
            if c:
                for k in range(n - j + 1):
                    term[k] += c * math.comb(n - j, k) * (-a) ** (n - j - k)
        g = math.gcd(den, wden)
        ints = [x * (wden // g) + y * (den // g) * scale ** k
                for k, (x, y) in enumerate(zip(ints, term))]
        den *= wden // g
        g = math.gcd(den, *ints)
        pieces.append(([x // g for x in ints], den // g))
        ints, den = pieces[-1]
    return pieces


def _hom_eval(ints: list[int], p: int, q: int) -> int:
    """sum(ints[k] p^k q^(d-k)), d = len(ints) - 1: q^d times the polynomial
    at p/q, by Horner on integers."""
    acc, qk = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _poly_eval(piece: tuple[list[int], int], t: Fraction) -> Fraction:
    """sum(ints[k] t^k) / den for piece = (ints, den), so that only the
    result is normalized."""
    ints, den = piece
    q = t.denominator
    return Fraction(_hom_eval(ints, t.numerator, q), den * q ** (len(ints) - 1))


def _grid_root(q: list[int], A: int, B: int, D: int, kl: int, kh: int) -> int:
    """The k in [kl, kh) with Q(t_k) < 0 <= Q(t_k+1), t_k = (A + B k)/D.

    Q has integer coefficients q (low degree first), increases between t_kl
    and t_kh, and is taken as negative at kl and nonnegative at kh without
    being evaluated there.  Newton steps are rounded past the root, so that
    they close the bracket from both sides; a step that leaves the bracket
    or does not halve the step before it gives way to bisection.
    """
    dq = [j * c for j, c in enumerate(q)][1:]
    m = (kl + kh) // 2
    last = kh - kl
    while kh - kl > 1:
        x = A + B * m
        v = _hom_eval(q, x, D)
        if v < 0:
            kl = m
        else:
            kh = m
        slope = B * _hom_eval(dq, x, D)  # v and slope are D^d Q and D^d dQ/dk
        if slope <= 0:
            nxt = m
        elif v < 0:
            nxt = m - v // slope  # ceil of the Newton point
        else:
            nxt = m - 1 - v // slope  # the integer just below it
        if not (kl < nxt < kh and 2 * abs(nxt - m) <= last):
            nxt = (kl + kh) // 2
        last, m = abs(nxt - m), nxt
    return kl


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


def section_value(poly: Polytope, theta, t) -> Fraction:
    """Slice measure f(t) of K at the hyperplane {x·theta = t}.

    Normalized so that the integral of f over raw projection values equals
    vol(K); see :meth:`CumulativeEvaluator.f_value`.
    """
    return CumulativeEvaluator(poly, theta).f_value(t)


def section_moment(poly: Polytope, theta, ref=None) -> Fraction:
    """Exact moment of the section function about the reference projection.

    Zero (as a rational identity) when ref is the centroid.
    """
    refp = as_point(ref) if ref is not None else poly.centroid
    ev = CumulativeEvaluator(poly, theta)
    return ev.moment(dot(ev.theta, refp))


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
    ev = CumulativeEvaluator(poly, th)
    samples = []
    for i in range(grid_size):
        t_rel = -a + i * step
        samples.append((t_rel, ev.f_value(s0 + t_rel)))
    return SectionProfile(direction=th, ref=refp, a=a, b=b,
                          samples=tuple(samples), dim=poly.dim)
