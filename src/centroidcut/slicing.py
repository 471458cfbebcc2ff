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
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import RefNotInterior
from .geometry import (
    Location,
    Polytope,
    Vec,
    as_fraction,
    as_point,
    dot,
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
    :meth:`solve`, :meth:`f_value`, :meth:`moment` and :meth:`brunn_concave`
    read those lists, and no float is formed.
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
        return _poly_eval((_deriv(ints), den), t)

    def moment(self, about) -> Fraction:
        """Exact first moment of f about a projection value s0: by parts,
        (hi - s0) vol(K) minus the integral of the cumulative volume."""
        b = self.breakpoints
        area = sum((Fraction(c, (k + 1) * den) * (hi ** (k + 1) - lo ** (k + 1))
                    for (ints, den), lo, hi in zip(self.pieces, b, b[1:])
                    for k, c in enumerate(ints)), Fraction(0))
        return (self.hi - as_fraction(about)) * self.total - area

    def brunn_concave(self) -> bool:
        """Brunn's principle, decided exactly: h = f^(1/k), k = max(n-1, 1), is
        concave on the support.  Where f > 0, h'' has the sign of the piecewise
        polynomial g = k f f'' - (k-1) f'^2 (its two top coefficients cancel,
        and it vanishes on cone pieces), so h is concave iff g <= 0 on every
        piece and, at every interior breakpoint, f is continuous and f' does
        not increase.  No sample grid and no float enter."""
        k = max(self.poly.dim - 1, 1)
        b = self.breakpoints
        ends = []  # (f, f') at both ends of every piece
        for (ints, den), lo, hi in zip(self.pieces, b, b[1:]):
            f = _deriv(ints)
            f1 = _deriv(f)
            g = [k * x - (k - 1) * y
                 for x, y in zip_longest(_mul(f, _deriv(f1)), _mul(f1, f1), fillvalue=0)]
            if not _nonpositive(g, lo, hi):
                return False
            ends.append([tuple(_poly_eval((d, den), t) for d in (f, f1)) for t in (lo, hi)])
        return all(fl == fr and dl >= dr
                   for (_, (fl, dl)), ((fr, dr), _) in zip(ends, ends[1:]))


def _deriv(ints: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(ints)][1:] or [0]


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p = p[:-1]
    return p


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _tarski(p: list[int], q: list[int], a: Fraction, b: Fraction) -> int:
    """Sum of sign q(x) over the distinct roots x of p in (a, b]: the sign changes
    just right of a minus those just right of b (where a polynomial has the sign
    of its first derivative not zero at the point) of the signed remainder
    sequence of p and p' q, over the integers (Sturm-Tarski)."""
    seq = [p, _trim(_mul(_deriv(p), q))]
    while seq[-1]:
        r, v = seq[-2], seq[-1]
        while len(r) >= len(v):  # r <- |lc v| r - sign(lc v) lc(r) x^e v
            c, e = r[-1] * (1 if v[-1] > 0 else -1), len(r) - len(v)
            r = _trim([abs(v[-1]) * x - (c * v[i - e] if i >= e else 0)
                       for i, x in enumerate(r)])
        g = math.gcd(*r) or 1
        seq.append([-x // g for x in r])

    def changes(t: Fraction) -> int:
        signs = []
        for s in seq[:-1]:
            while not (v := _hom_eval(s, t.numerator, t.denominator)):
                s = _deriv(s)
            signs.append(v > 0)
        return sum(x != y for x, y in zip(signs, signs[1:]))
    return changes(a) - changes(b)


def _nonpositive(p: list[int], a: Fraction, b: Fraction) -> bool:
    """p <= 0 on [a, b]: at both ends and at every root x of p' in (a, b], of
    which (TaQ(p) + TaQ(p^2)) / 2 have p(x) > 0, TaQ(q) summing sign q(x)
    (x = b, where p(b) <= 0, adds nothing)."""
    p = _trim(p)
    if any(_hom_eval(p, t.numerator, t.denominator) > 0 for t in (a, b)):
        return False
    dp = _deriv(p)
    return len(dp) < 2 or _tarski(dp, p, a, b) + _tarski(dp, _mul(p, p), a, b) == 0


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
    dq = _deriv(q)
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
    """Exact section samples on a uniform grid around ref, and their evaluator."""

    evaluator: CumulativeEvaluator
    ref: Vec
    a: Fraction
    b: Fraction
    samples: tuple[tuple[Fraction, Fraction], ...]  # (t relative to ref, f)

    def midpoint_concavity_ok(self, tol: float = 1e-12) -> bool:
        """Whether h = f^(1/(n-1)) is concave on the support, by the evaluator's
        exact certificate (:meth:`CumulativeEvaluator.brunn_concave`) on its
        pieces, not the samples; ``tol`` is accepted and ignored."""
        return self.evaluator.brunn_concave()


def profile(poly: Polytope, theta, grid_size: int, ref=None) -> SectionProfile:
    """Sample the section function on a uniform rational grid over its support."""
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    refp = as_point(ref) if ref is not None else poly.centroid
    ev = CumulativeEvaluator(poly, theta)
    a, b = support_interval(poly, ev.theta, refp)
    s0 = dot(ev.theta, refp)
    step = (a + b) / (grid_size - 1)
    ts = [-a + i * step for i in range(grid_size)]
    return SectionProfile(evaluator=ev, ref=refp, a=a, b=b,
                          samples=tuple((t, ev.f_value(s0 + t)) for t in ts))
