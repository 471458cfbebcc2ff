from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.solvers.inequalities import solve_poly_inequality

from centroidcut import (
    RefNotInterior,
    SectionProfile,
    convex_hull,
    cumulative_volume,
    profile,
    section_moment,
    section_value,
    support_interval,
)
from centroidcut.generators import BodySpec, make, random_hull
from centroidcut.geometry import Polytope, dot, seeded_directions
from centroidcut.slicing import CumulativeEvaluator, _mul, _nonpositive, _poly_eval
from oracles import Halfspace, Simplex, clip_simplex, simplex_cut_fraction, slice_hull_section

F = Fraction


class TestClipSimplex:
    def test_spec_trapezoid_area(self):
        s = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        parts = clip_simplex(s, Halfspace.make((1, 0), F(1, 2)))
        assert sum(p.volume() for p in parts) == F(3, 8)

    def test_fully_inside_returns_itself(self):
        s = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert clip_simplex(s, Halfspace.make((1, 0), 5)) == [s]

    def test_fully_outside_returns_empty(self):
        s = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert clip_simplex(s, Halfspace.make((1, 0), -1)) == []

    def test_touching_facet_returns_empty(self):
        s = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert clip_simplex(s, Halfspace.make((1, 0), 0)) == []


def _random_simplex(rng, n):
    while True:
        verts = tuple(
            tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
            for _ in range(n + 1))
        s = None
        try:
            s = Simplex(verts)
            if s.volume() > 0:
                return s
        except Exception:
            continue


class TestCutFractionAgainstClipping:
    """The frustum recursion and the geometric clipper are independent exact
    routes to the same volume; they must agree as rationals."""

    @pytest.mark.parametrize("seed", range(8))
    def test_routes_agree_exactly(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.choice((2, 3, 4))
            s = _random_simplex(rng, n)
            theta = tuple(F(rng.randint(-5, 5)) for _ in range(n))
            if all(c == 0 for c in theta):
                continue
            t = F(rng.randint(-10, 10), rng.randint(1, 3))
            half = Halfspace.make(theta, t)
            by_clip = sum((p.volume() for p in clip_simplex(s, half)), F(0))
            frac = simplex_cut_fraction([half.value(v) for v in s.vertices])
            assert by_clip == s.volume() * frac

    def test_all_inside_and_outside(self):
        assert simplex_cut_fraction([-1, -2, F(-1, 2)]) == 1
        assert simplex_cut_fraction([1, 2, 3]) == 0
        assert simplex_cut_fraction([0, 0, 1]) == 0
        assert simplex_cut_fraction([0, 0, -1]) == 1


class TestCumulativeVolume:
    def test_square_quarter(self, square):
        assert cumulative_volume(square, (1, 0), F(1, 4)) == F(1, 4)

    def test_simplex_spec_value(self, triangle):
        assert cumulative_volume(triangle, (1, 0), F(1, 2)) == F(3, 8)

    def test_extremes(self, square_pyramid):
        assert cumulative_volume(square_pyramid, (0, 0, 1), 0) == 0
        assert cumulative_volume(square_pyramid, (0, 0, 1), 1) == square_pyramid.volume

    def test_monotone(self, simplex3):
        ev = CumulativeEvaluator(simplex3, (2, -1, 3))
        vals = [ev.value(ev.lo + F(k, 16) * (ev.hi - ev.lo)) for k in range(17)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_scaling_law_exact(self, square_pyramid):
        theta = (F(1), F(-2), F(3))
        lam = F(5, 3)
        for t in (F(-1, 2), F(0), F(1, 3), F(7, 8)):
            assert cumulative_volume(square_pyramid, theta, t) == cumulative_volume(
                square_pyramid, tuple(lam * c for c in theta), lam * t)


class TestIntegerScale:
    """Every polynomial piece of CumulativeEvaluator, built from truncated
    powers on the integer vertex projections, against the frustum recursion
    on the exact values x·theta - t summed directly over poly.triangulation:
    at both ends of each piece, at its midpoint and at a rational with a
    64-bit denominator inside it; and V at the breakpoints."""

    @staticmethod
    def direct(poly, theta, t):
        return sum((Simplex(s).volume() * simplex_cut_fraction([dot(theta, v) - t for v in s])
                    for s in poly.triangulation), F(0))

    def check(self, poly, theta, seed):
        ev = CumulativeEvaluator(poly, theta)
        b = ev.breakpoints
        assert b == sorted({dot(theta, v) for v in poly.vertices})
        assert len(ev.pieces) == len(b) - 1
        assert ev.levels == [self.direct(poly, theta, t) for t in b]
        rng = random.Random(seed)
        big = (1 << 64) - 59  # prime, so t keeps a 64-bit denominator factor
        for piece, lo, hi in zip(ev.pieces, b, b[1:]):
            inner = [(lo + hi) / 2, lo + (hi - lo) * F(rng.randrange(1, big), big)]
            for t in [lo, hi] + inner:
                assert _poly_eval(piece, t) == self.direct(poly, theta, t), t
            for t in inner:
                assert ev.value(t) == _poly_eval(piece, t), t

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_hulls_rational_theta(self, n, seed):
        poly = random_hull(n, n + 5, 300 + seed)
        self.check(poly, (F(1, 3), F(-2, 7), F(5, 2), F(-3, 11))[:n], seed)

    def test_tied_projections(self, cube3):
        # (1, 0, z) and (0, 1, z) project alike: t hits several vertices at once
        self.check(cube3, (F(1, 3), F(1, 3), F(-2, 7)), 2)

    @pytest.mark.parametrize("theta", [(1, 0, 0, 0), (0, 0, -1, 0), (1, 1, 0, 0),
                                       (1, -1, 1, 0), (1, 1, 1, 1)])
    def test_four_cube_axes_facet_normals_and_diagonals(self, theta):
        # the 4-cube's facet normals are its signed axes
        self.check(convex_hull(list(itertools.product((0, 1), repeat=4))), theta, 3)

    def test_pyramid_axis_in_five_dimensions(self):
        # the base's 16 vertices share one projection: a node of multiplicity 5 per cell
        self.check(make(BodySpec(kind="pyramid", n=5)).body, (0, 0, 0, 0, 1), 4)

    def test_segment(self):
        self.check(convex_hull([(F(-1, 2),), (3,)]), (F(-2, 3),), 5)

    def test_tampered_cell_volume_raises(self, square_pyramid):
        cells = list(square_pyramid.cells)
        cells[0] = (cells[0][0] * 2, cells[0][1])
        body = Polytope(square_pyramid.dim, square_pyramid.vertices, square_pyramid.facets,
                        tuple(cells), square_pyramid.volume, square_pyramid.centroid)
        with pytest.raises(RuntimeError):
            CumulativeEvaluator(body, (1, 2, 3))


class TestSectionValue:
    def test_square_unit_slice(self, square):
        assert section_value(square, (1, 0), F(1, 2)) == 1

    def test_simplex_half_slice(self, triangle):
        assert section_value(triangle, (1, 0), F(1, 2)) == F(1, 2)

    def test_outside_support_zero(self, square):
        assert section_value(square, (1, 0), 2) == 0

    def test_cube_diagonal_vs_finite_difference(self, cube3):
        theta = (1, 1, 0)
        t = F(1)
        exact = section_value(cube3, theta, t)
        ev = CumulativeEvaluator(cube3, theta)
        eps = 1e-7
        fd = (ev.value_float(float(t) + eps) - ev.value_float(float(t) - eps)) / (2 * eps)
        assert float(exact) == pytest.approx(fd, abs=1e-5)

    def test_matches_piecewise_derivative_exactly(self):
        body = random_hull(3, 9, 2024)
        theta = (3, -1, 2)
        ev = CumulativeEvaluator(body, theta)
        for k in range(1, 12):
            t = ev.lo + F(k, 12) * (ev.hi - ev.lo)
            assert ev.f_value(t) == slice_hull_section(body, theta, t)
            assert section_value(body, theta, t) == ev.f_value(t)

    def test_one_dimensional_normalization(self):
        """The integral of f over projection values is the length: f = 1/|theta|."""
        segment = convex_hull([(0,), (1,)])
        assert section_value(segment, (2,), 1) == F(1, 2)
        assert section_value(segment, (-3,), F(-1)) == F(1, 3)

    def test_piecewise_mass_is_volume(self):
        body = random_hull(4, 8, 77)
        ev = CumulativeEvaluator(body, (1, 2, -1, 1))
        b = ev.breakpoints
        mass = sum((_poly_eval(p, hi) - _poly_eval(p, lo)
                    for p, lo, hi in zip(ev.pieces, b, b[1:])), F(0))
        assert mass == body.volume


class TestSupportInterval:
    def test_cube_axis(self, cube3):
        assert support_interval(cube3, (1, 0, 0), cube3.centroid) == (F(1, 2), F(1, 2))

    def test_simplex_extreme_ratio(self, simplex3):
        a, b = support_interval(simplex3, (1, 1, 1), simplex3.centroid)
        assert a / b == 3  # facet-normal direction attains the 1:n split

    def test_width_sums(self, square_pyramid):
        theta = (2, 1, -1)
        a, b = support_interval(square_pyramid, theta, square_pyramid.centroid)
        projs = [sum(t * c for t, c in zip(theta, v)) for v in square_pyramid.vertices]
        assert a + b == max(projs) - min(projs)

    def test_rejects_exterior_reference(self, cube3):
        with pytest.raises(RefNotInterior):
            support_interval(cube3, (1, 0, 0), (2, 0, 0))


class TestMomentCondition:
    @pytest.mark.parametrize("seed,theta", [
        (11, (1, 0, 0)), (12, (2, -1, 5)), (13, (1, 1, 1)),
    ])
    def test_zero_moment_about_centroid(self, seed, theta):
        body = random_hull(3, 8, seed)
        assert section_moment(body, theta) == 0

    def test_nonzero_away_from_centroid(self, simplex3):
        off = tuple(c + F(1, 50) for c in simplex3.centroid)
        assert section_moment(simplex3, (1, 1, 1), off) != 0


class TestProfile:
    def test_simplex_profile_power_of_linear(self, simplex3):
        """Sections of a pyramid along the base normal follow (t+a)^(n-1)."""
        prof = profile(simplex3, (1, 1, 1), 9)
        a = prof.a
        scale = None
        for t, f in prof.samples:
            if t == -a:
                assert f == 0
                continue
            c = f / (t + a) ** 2
            scale = c if scale is None else scale
            assert c == scale

    def test_cube_profile_constant(self, cube3):
        prof = profile(cube3, (1, 0, 0), 7)
        assert all(f == 1 for _, f in prof.samples)

    def test_midpoint_concavity_random_body(self):
        body = random_hull(3, 10, 321)
        prof = profile(body, (1, 2, 2), 16)
        assert prof.midpoint_concavity_ok(1e-12)

    def test_midpoint_concavity_planar_is_exact(self):
        body = random_hull(2, 8, 5)
        prof = profile(body, (3, -2), 33)
        assert prof.midpoint_concavity_ok()

    def test_trapezoid_converges_to_volume(self, simplex3):
        prof = profile(simplex3, (1, 2, 3), 2048)
        assert trapezoid_mass(prof) == pytest.approx(float(simplex3.volume), rel=1e-6)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_samples_match_slice_hull_oracle(self, n):
        rng = random.Random(900 + n)
        for _ in range(3):
            body = random_hull(n, n + 5, rng.randrange(1 << 20))
            theta = tuple(rng.randint(-4, 4) for _ in range(n - 1)) + (rng.randint(1, 4),)
            prof = profile(body, theta, 9)
            s0 = sum(a * b for a, b in zip(theta, prof.ref))
            assert prof.samples[0][0] == -prof.a and prof.samples[-1][0] == prof.b
            for t, f in prof.samples:
                assert f == slice_hull_section(body, theta, s0 + t)

    @pytest.mark.parametrize("dim", (2, 3, 4, 5))
    def test_concavity_check_rejects_dip(self, dim):
        """h = 1 + t then 1 - t is concave; 1 - t then 1 + t has a convex
        kink at 0, where f' jumps up, and is rejected."""
        tent = fabricated(dim, [-1, 0, 1], [power(1, 1, dim - 1), power(1, -1, dim - 1)])
        dip = fabricated(dim, [-1, 0, 1], [power(1, -1, dim - 1), power(1, 1, dim - 1)])
        assert tent.brunn_concave()
        assert not dip.brunn_concave()

    def test_requires_grid_of_three(self, cube3):
        with pytest.raises(ValueError):
            profile(cube3, (1, 0, 0), 2)


def trapezoid_mass(prof: SectionProfile) -> float:
    """Trapezoid-rule integral of a sampled profile's section values."""
    ts = [float(t) for t, _ in prof.samples]
    fs = [float(f) for _, f in prof.samples]
    return sum((fs[i] + fs[i + 1]) * (ts[i + 1] - ts[i]) / 2.0 for i in range(len(ts) - 1))


def power(c0, c1, k) -> list[Fraction]:
    """(c0 + c1 t)^k, low degree first."""
    return [F(math.comb(k, j) * c0 ** (k - j) * c1 ** j) for j in range(k + 1)]


def fabricated(dim: int, breakpoints, sections) -> CumulativeEvaluator:
    """An evaluator whose pieces are the integrals of the given section
    polynomials f (low degree first), one per interval between breakpoints."""
    pieces = []
    for f in sections:
        v = [F(0)] + [F(c) / (k + 1) for k, c in enumerate(f)]
        den = math.lcm(*(c.denominator for c in v))
        pieces.append(([int(c * den) for c in v], den))
    ev = object.__new__(CumulativeEvaluator)
    ev.poly = SimpleNamespace(dim=dim)
    ev.breakpoints = [F(b) for b in breakpoints]
    ev.pieces = pieces
    return ev


T = sympy.Symbol("t")


def sympy_nonpositive(p: sympy.Poly, lo: Fraction, hi: Fraction) -> bool:
    """p <= 0 on [lo, hi] by sympy's own real roots: with no root in [lo, hi]
    one value decides; otherwise the set where p > 0, between its real
    roots, must miss the interval."""
    lo, hi = sympy.Rational(lo), sympy.Rational(hi)
    if p.is_zero:
        return True
    if p.count_roots(lo, hi) == 0:
        return bool(p.eval((lo + hi) / 2) < 0)
    positive = sympy.Union(*solve_poly_inequality(p, ">"))
    return positive.intersect(sympy.Interval(lo, hi)) is sympy.S.EmptySet


def sympy_brunn(ev: CumulativeEvaluator) -> bool:
    """Brunn's condition from the pieces in sympy: g = k f f'' - (k-1) f'^2
    <= 0 on every piece, and f continuous with f' not increasing at every
    interior breakpoint."""
    k = max(ev.poly.dim - 1, 1)
    b = [sympy.Rational(x) for x in ev.breakpoints]
    ends = []
    for (ints, den), lo, hi in zip(ev.pieces, b, b[1:]):
        f = sympy.diff(sum(sympy.Rational(c, den) * T ** j for j, c in enumerate(ints)), T)
        g = sympy.Poly(sympy.expand(k * f * sympy.diff(f, T, 2)
                                    - (k - 1) * sympy.diff(f, T) ** 2), T)
        assert g.is_zero or g.degree() <= max(2 * ev.poly.dim - 6, 0)
        if not sympy_nonpositive(g, lo, hi):
            return False
        ends.append([(f.subs(T, t), sympy.diff(f, T).subs(T, t)) for t in (lo, hi)])
    return all(fl == fr and dl >= dr for (_, (fl, dl)), ((fr, dr), _) in zip(ends, ends[1:]))


class TestBrunnCertificate:
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_agrees_with_sympy_on_random_hulls(self, n):
        """Random hulls along the axes, every facet normal (which ties
        projections) and seeded directions: both routes certify."""
        for seed in range(2):
            body = random_hull(n, n + 3, 40 + 10 * n + seed)
            axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            normals = [f.normal for f in body.facets][:4]
            for theta in axes + normals + list(itertools.islice(seeded_directions(n, seed), 2)):
                ev = CumulativeEvaluator(body, theta)
                assert ev.brunn_concave() is True
                assert sympy_brunn(ev) is True

    def test_rejects_positive_g_inside_a_piece(self):
        """f = 1 - 4t + 6t^2 - 2t^3 > 0 on [-1, 1] in R^4: g/2 = -12t^2 + 6t
        + 2 is negative at both ends but positive at 0, so only the root
        count inside the piece sees it."""
        ev = fabricated(4, [-1, 1], [[1, -4, 6, -2]])
        assert not ev.brunn_concave() and not sympy_brunn(ev)
        # h = (1 + t^2)^(1/2) is convex: g = 4 everywhere
        assert not fabricated(3, [-1, 1], [[1, 0, 1]]).brunn_concave()

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_accepts_cone_pieces(self, n):
        """On a cone piece f = c (t - r)^(n-1), g vanishes identically."""
        assert fabricated(n, [0, 1], [power(0, 3, n - 1)]).brunn_concave()
        gen = make(BodySpec(kind="pyramid", n=n, base="cube"))
        ev = CumulativeEvaluator(gen.body, gen.base_normal)
        assert ev.brunn_concave() and sympy_brunn(ev)

    def test_rejects_a_jump_in_f(self):
        assert not fabricated(3, [0, 1, 2], [[1], [2]]).brunn_concave()

    def test_nonpositive_matches_sympy(self):
        """The Sturm-Tarski decision against sympy on products of small
        factors: double roots, roots at the ends and roots outside."""
        rng = random.Random(17)
        for _ in range(300):
            p = [rng.choice((-1, 1)) * rng.randint(1, 3)]
            for _ in range(rng.randint(0, 4)):
                fac = [-rng.randint(-4, 4), rng.randint(1, 3)]
                if rng.random() < 0.3:
                    fac = _mul(fac, fac)
                elif rng.random() < 0.2:
                    fac = [rng.randint(1, 5), 0, 1]
                p = _mul(p, fac)
            p[0] += rng.choice((0, 0, rng.randint(-3, 3)))
            lo = F(rng.randint(-4, 3), rng.randint(1, 3))
            hi = lo + F(rng.randint(1, 6), rng.randint(1, 3))
            want = sympy_nonpositive(sympy.Poly(list(reversed(p)), T), lo, hi)
            assert _nonpositive(p, lo, hi) is want, (p, lo, hi)


small_vals = st.integers(min_value=-6, max_value=6)


class TestCutFractionProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_vals, min_size=3, max_size=6))
    def test_complement_fractions_sum_to_one(self, vals):
        f_low = simplex_cut_fraction(vals)
        f_high = simplex_cut_fraction([-v for v in vals])
        boundary = [v for v in vals if v == 0]
        if len(boundary) == len(vals):
            return
        assert f_low + f_high == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_vals, min_size=3, max_size=6), st.integers(1, 7))
    def test_scaling_invariance(self, vals, lam):
        assert simplex_cut_fraction(vals) == simplex_cut_fraction(
            [lam * v for v in vals])
