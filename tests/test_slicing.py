from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from centroidcut import (
    RefNotInterior,
    SectionProfile,
    Simplex,
    convex_hull,
    cumulative_volume,
    profile,
    section_moment,
    section_value,
    simplex_cut_fraction,
    support_interval,
)
from centroidcut.generators import random_hull
from centroidcut.geometry import dot
from centroidcut.slicing import CumulativeEvaluator, SectionPolynomials
from oracles import Halfspace, clip_simplex, slice_hull_section

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
    """CumulativeEvaluator.value, which runs the recurrence on integer vertex
    values, against the recurrence on the exact values x·theta - t summed
    directly over poly.triangulation."""

    @staticmethod
    def direct(poly, theta, t):
        return sum((s.volume() * simplex_cut_fraction([dot(theta, v) - t for v in s.vertices])
                    for s in poly.triangulation), F(0))

    def check(self, poly, theta, seed):
        ev = CumulativeEvaluator(poly, theta)
        projs = sorted({dot(theta, v) for v in poly.vertices})
        ts = projs + [(a + b) / 2 for a, b in zip(projs, projs[1:])]
        rng = random.Random(seed)
        big = (1 << 64) - 59  # prime, so t keeps a 64-bit denominator factor
        ts += [projs[0] + (projs[-1] - projs[0]) * F(rng.randrange(1, big), big)
               for _ in range(4)]
        for t in ts:
            assert ev.value(t) == self.direct(poly, theta, t), t

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_hulls_rational_theta(self, n, seed):
        poly = random_hull(n, n + 5, 300 + seed)
        self.check(poly, (F(1, 3), F(-2, 7), F(5, 2), F(-3, 11))[:n], seed)

    def test_tied_projections(self, cube3):
        # (1, 0, z) and (0, 1, z) project alike: t hits several vertices at once
        self.check(cube3, (F(1, 3), F(1, 3), F(-2, 7)), 2)


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
        sp = SectionPolynomials(body, theta)
        lo, hi = sp.breakpoints[0], sp.breakpoints[-1]
        for k in range(1, 12):
            t = lo + F(k, 12) * (hi - lo)
            assert sp.f_value(t) == slice_hull_section(body, theta, t)
            assert section_value(body, theta, t) == sp.f_value(t)

    def test_one_dimensional_normalization(self):
        """The integral of f over projection values is the length: f = 1/|theta|."""
        segment = convex_hull([(0,), (1,)])
        assert section_value(segment, (2,), 1) == F(1, 2)
        assert section_value(segment, (-3,), F(-1)) == F(1, 3)

    def test_piecewise_mass_is_volume(self):
        body = random_hull(4, 8, 77)
        sp = SectionPolynomials(body, (1, 2, -1, 1))
        assert sp.mass() == body.volume


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
        assert prof.midpoint_concavity_ok()  # exact rational comparison for n=2

    def test_trapezoid_converges_to_volume(self, simplex3):
        prof = profile(simplex3, (1, 2, 3), 2048)
        assert prof.trapezoid_mass() == pytest.approx(float(simplex3.volume), rel=1e-6)

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

    @pytest.mark.parametrize("dim", (2, 3))
    def test_concavity_check_rejects_dip(self, dim):
        def prof(fs):
            samples = tuple((F(k), F(f)) for k, f in enumerate(fs))
            return SectionProfile(direction=(F(1),) * dim, ref=(F(0),) * dim,
                                  a=F(0), b=F(len(fs) - 1), samples=samples, dim=dim)
        assert prof([0, 4, 6, 7, 7]).midpoint_concavity_ok()
        assert not prof([0, 4, 5, 7, 7]).midpoint_concavity_ok()
        assert not prof([1, 1, 0, 1, 1]).midpoint_concavity_ok()

    def test_requires_grid_of_three(self, cube3):
        with pytest.raises(ValueError):
            profile(cube3, (1, 0, 0), 2)

    def test_csv_export(self, triangle):
        prof = profile(triangle, (1, 0), 5)
        text = prof.to_csv(digits=6)
        lines = text.strip().splitlines()
        assert lines[0] == "t,f,h"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 3 for line in lines[1:])


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
