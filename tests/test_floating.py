from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy.optimize import linprog

from centroidcut import (
    BadDelta,
    CentroidCutError,
    SearchConfig,
    convex_hull,
    cumulative_volume,
    cut_depth,
    delta_bound,
    floating_body_approx,
    is_nonempty,
    phi_estimate,
    ratio_at,
    rho_min,
)
from centroidcut import feasibility, floating
from centroidcut.feasibility import feasible_point
from centroidcut.floating import direction_budget
from centroidcut.generators import random_hull
from centroidcut.geometry import dot
from centroidcut.slicing import CumulativeEvaluator
from oracles import Halfspace, Simplex, clip_simplex

F = Fraction

LIGHT = SearchConfig(random_directions=48, multistart=2, nm_maxiter=60)


def depth(poly, theta, delta):
    return cut_depth(CumulativeEvaluator(poly, theta), delta)


class TestCutDepth:
    def test_square_quarter(self, square):
        cut = depth(square, (1, 0), F(1, 4))
        assert cut.lo == cut.hi == F(3, 4)

    def test_square_half(self, square):
        cut = depth(square, (1, 0), F(1, 2))
        assert cut.lo == cut.hi == F(1, 2)

    def test_pyramid_centroid_height(self, square_pyramid):
        cut = depth(square_pyramid, (0, 0, 1), F(27, 64))
        assert cut.lo == cut.hi == F(1, 4) == square_pyramid.centroid[2]

    def test_depth_along_the_primitive_direction(self, triangle):
        # the halfspace stored is theta·x <= hi with theta primitive, so a
        # multiple of a direction gives the same cut
        for delta in (F(1, 4), F(1, 2)):
            cut = depth(triangle, (1, 1), delta)
            assert depth(triangle, (3, 3), delta) == cut
            assert depth(triangle, (F(1, 2), F(1, 2)), delta) == cut

    @pytest.mark.parametrize("delta", [F(0), F(-1, 4), F(3, 5), F(2)])
    def test_bad_delta_rejected(self, square, delta):
        with pytest.raises(BadDelta):
            depth(square, (1, 0), delta)
        with pytest.raises(BadDelta):
            floating_body_approx(square, delta, directions="axes")

    def test_bracket_certificate(self):
        """lo/hi straddle the exact depth: cum(lo) <= (1-delta)V <= cum(hi)."""
        body = random_hull(3, 9, 15)
        delta = F(1, 3)
        target = (1 - delta) * body.volume
        for theta in [(1, 0, 0), (2, -3, 1), (1, 1, 1)]:
            cut = depth(body, theta, delta)
            assert cumulative_volume(body, theta, cut.lo) <= target
            assert cumulative_volume(body, theta, cut.hi) >= target
            projs = [dot(theta, v) for v in body.vertices]
            width = max(projs) - min(projs)
            assert cut.hi - cut.lo <= width / (1 << 64)

    def test_evaluator_shared_across_phi_deltas(self):
        """One evaluator per direction over phi's delta sequence (delta_n, 1/2,
        then bisection midpoints) gives the cuts of a fresh one per delta."""
        body = random_hull(3, 9, 15)
        deltas = [delta_bound(3), F(1, 2)]
        feasible, infeasible = deltas
        for step in range(6):
            mid = (feasible + infeasible) / 2
            deltas.append(mid)
            feasible, infeasible = (mid, infeasible) if step % 2 else (feasible, mid)
        for theta in [(1, 0, 0), (2, -3, 1), (-1, 1, 2)]:
            shared = CumulativeEvaluator(body, theta)
            for delta in deltas:
                assert cut_depth(shared, delta) == depth(body, theta, delta), delta


class TestRootIsolation:
    """The depth as a root of V on one polynomial piece: rational depths
    come out exact, irrational ones as one certified cell of the grid."""

    @pytest.mark.parametrize("body, delta, expected", [
        ("square", F(1, 2**30), 1 - F(1, 2**30)),
        # the 2^-64 cell holds 2^6 multiples of 2^-70: the grid must be refined
        ("square", F(1, 2**70), 1 - F(1, 2**70)),
        ("triangle", F(1, (2**25 + 1) ** 2), F(2**25, 2**25 + 1)),
    ])
    def test_snaps_with_large_denominators(self, request, body, delta, expected):
        cut = depth(request.getfixturevalue(body), (1, 0), delta)
        assert cut.lo == cut.hi == expected

    def test_irrational_depth_is_one_grid_cell(self, triangle):
        # V(t) = 1/2 - (1 - t)^2 / 2 reaches 1/4 at t = 1 - 1/sqrt(2)
        ev = CumulativeEvaluator(triangle, (1, 0))
        cut = cut_depth(ev, F(1, 2))
        width = ev.hi - ev.lo
        assert cut.hi - cut.lo == width / 2**64
        assert ((cut.lo - ev.lo) * 2**64 / width).denominator == 1
        assert ev.value(cut.lo) < F(1, 4) < ev.value(cut.hi)
        assert 2 * (1 - cut.hi) ** 2 < 1 < 2 * (1 - cut.lo) ** 2

    def test_no_depth_along_a_direction_of_wrong_length(self, simplex3):
        """(2, 0) on a 3-body is refused, not cut as a 2-vector theta."""
        with pytest.raises(ValueError, match="direction must have 3 entries"):
            depth(simplex3, (2, 0), F(1, 4))

    @pytest.mark.parametrize("theta", [(1, 0, 0), (2, -3, 1), (-1, 1, 2)])
    def test_depth_on_a_vertex_projection(self, theta):
        body = random_hull(3, 9, 15)
        ev = CumulativeEvaluator(body, theta)
        hits = 0
        for b in ev.breakpoints[1:-1]:
            delta = 1 - ev.value(b) / body.volume
            if delta <= F(1, 2):
                cut = depth(body, theta, delta)
                assert cut.lo == cut.hi == b
                hits += 1
        assert hits

    @pytest.mark.parametrize("case", range(40))
    def test_against_sympy_roots(self, case):
        """V from clipped simplices, its piece interpolated by sympy: the
        bracket holds the root, and is a point exactly when the root is
        rational (half the cases take delta from a rational depth)."""
        rng = random.Random(case)
        n = 2 + case % 3
        body = random_hull(n, n + 2 + rng.randrange(4), 500 + case)
        theta = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n))
        theta = tuple(c // math.gcd(*theta) for c in theta)  # cuts store primitive ones

        def vol(t):
            half = Halfspace.make(theta, t)
            return sum((p.volume() for cell in body.triangulation
                        for p in clip_simplex(Simplex(cell), half)), F(0))

        b = sorted({dot(theta, v) for v in body.vertices})
        if case % 2:
            t_star = b[0] + (b[-1] - b[0]) * F(rng.randrange(1, 64), 64)
            if vol(t_star) < body.volume / 2:
                theta = tuple(-c for c in theta)
                b = sorted(-x for x in b)
                t_star = -t_star
            delta = 1 - vol(t_star) / body.volume
        else:
            delta = F(rng.randrange(1, 50), 100)
        target = (1 - delta) * body.volume
        i = max(k for k in range(len(b) - 1) if vol(b[k]) <= target)
        x = sympy.Symbol("x")
        nodes = [b[i] + (b[i + 1] - b[i]) * F(k + 1, n + 2) for k in range(n + 1)]
        piece = sympy.interpolate([(sympy.Rational(t), sympy.Rational(vol(t)))
                                   for t in nodes], x)
        q = sympy.Poly(piece - sympy.Rational(target), x)
        rational = [r for r in q.ground_roots() if b[i] <= r <= b[i + 1]]
        cut = depth(body, theta, delta)
        assert q.count_roots(sympy.Rational(cut.lo), sympy.Rational(cut.hi)) >= 1
        assert vol(cut.lo) <= target <= vol(cut.hi)
        if rational:
            assert cut.lo == cut.hi == F(int(rational[0].p), int(rational[0].q))
        else:
            assert cut.lo < cut.hi and vol(cut.lo) < target


class TestFloatingBodyApprox:
    def test_coordinates_beyond_float_range_scale_exactly(self, triangle):
        """No exact kernel forms a float: at 10^400 the ratios are unchanged
        and every depth bracket scales by 10^400."""
        big = 10 ** 400
        huge = convex_hull([(0, 0), (big, 0), (0, big)])
        for theta in ((1, 0), (1, 1), (2, -1), (-3, 5)):
            assert ratio_at(huge, huge.centroid, theta) == ratio_at(
                triangle, triangle.centroid, theta)
            assert cumulative_volume(huge, theta, big * F(1, 3)) == big ** 2 * cumulative_volume(
                triangle, theta, F(1, 3))
        for delta in (F(1, 4), delta_bound(2), F(1, 2)):
            small = floating_body_approx(triangle, delta, n_dirs=12, seed=3)
            scaled = floating_body_approx(huge, delta, n_dirs=12, seed=3)
            assert [c.theta for c in scaled.cuts] == [c.theta for c in small.cuts]
            assert [(c.lo, c.hi) for c in scaled.cuts] == [
                (big * c.lo, big * c.hi) for c in small.cuts]
            assert [c.exact for c in scaled.cuts] == [c.exact for c in small.cuts]

    def test_square_axes_quarter(self, square):
        approx = floating_body_approx(square, F(1, 4), directions="axes")
        depths = {c.theta: c.hi for c in approx.cuts}
        assert depths[(1, 0)] == F(3, 4)
        assert depths[(-1, 0)] == F(-1, 4)
        assert depths[(0, 1)] == F(3, 4)
        assert depths[(0, -1)] == F(-1, 4)

    def test_contains_examples(self, square):
        approx = floating_body_approx(square, F(1, 4), directions="axes")
        assert approx.contains_point((F(1, 2), F(1, 2)))
        assert not approx.contains_point((F(9, 10), F(1, 2)))

    def test_simplex_facet_normals_tight_at_centroid(self, simplex3):
        approx = floating_body_approx(simplex3, delta_bound(3), directions="facets")
        assert len(approx.cuts) == 4
        for cut in approx.cuts:
            assert cut.exact
            assert dot(cut.theta, simplex3.centroid) == cut.hi

    def test_small_delta_approaches_body(self, square):
        approx = floating_body_approx(square, F(1, 1000), directions="axes")
        for cut in approx.cuts:
            support = max(dot(cut.theta, v) for v in square.vertices)
            assert support - F(1, 10) < cut.hi <= support

    def test_budget_floor(self, square):
        with pytest.raises(ValueError):
            floating_body_approx(square, F(1, 4), n_dirs=2)
        with pytest.raises(ValueError):
            floating_body_approx(square, F(1, 4), n_dirs=3, directions="auto")

    def test_no_budget_means_no_random_fill(self, square):
        approx = floating_body_approx(square, F(1, 4))
        assert [c.theta for c in approx.cuts] == [(1, 0), (-1, 0), (0, 1), (0, -1)]

    @pytest.mark.parametrize("directions", ["bogus", None, [(1, 0), (0, 1)]])
    def test_only_named_direction_modes(self, square, directions):
        with pytest.raises(CentroidCutError):
            floating_body_approx(square, F(1, 4), directions=directions)

    def test_outer_soundness(self):
        """Each stored halfspace's complement cuts off at least delta (up to
        the bracket): the approximation can only be too big, never too small."""
        body = random_hull(3, 10, 44)
        delta = F(2, 7)
        approx = floating_body_approx(body, delta, n_dirs=12, seed=4)
        target = (1 - delta) * body.volume
        for cut in approx.cuts:
            assert cumulative_volume(body, cut.theta, cut.hi) >= target

    def test_monotone_in_delta(self):
        body = random_hull(3, 9, 91)
        a1 = floating_body_approx(body, F(1, 4), n_dirs=10, seed=2)
        a2 = floating_body_approx(body, F(2, 5), n_dirs=10, seed=2)
        for c1, c2 in zip(a1.cuts, a2.cuts):
            assert c1.theta == c2.theta
            assert c2.hi <= c1.hi

    def test_half_delta_collapses_to_center(self, square):
        approx = floating_body_approx(square, F(1, 2), directions="axes")
        depths = {c.theta: c.hi for c in approx.cuts}
        assert depths[(1, 0)] == F(1, 2) and depths[(-1, 0)] == F(-1, 2)
        assert approx.contains_point((F(1, 2), F(1, 2)))
        assert not approx.contains_point((F(1, 2) + F(1, 10**9), F(1, 2)))

    def test_json_schema(self, square):
        approx = floating_body_approx(square, F(1, 4), directions="axes")
        data = approx.to_dict()
        assert data["delta"] == "1/4"
        assert all({"theta", "t_lo", "t_hi"} <= set(h) for h in data["halfspaces"])


class TestNonemptiness:
    def test_square_witness(self, square):
        approx = floating_body_approx(square, F(1, 4), directions="axes")
        ok, witness = is_nonempty(approx)
        assert ok and witness == (F(1, 2), F(1, 2))

    def test_boundary_tight_simplex(self, triangle):
        approx = floating_body_approx(triangle, delta_bound(2), directions="facets")
        ok, witness = is_nonempty(approx)
        assert ok and witness == triangle.centroid

    def test_random_4_body_bisection_steps(self):
        # two delta-bisection steps of phi_estimate on this body, each on 60
        # rows whose solution set misses the centroid
        body = random_hull(4, 10, 0)
        empty = floating_body_approx(body, F(1137, 2500), n_dirs=16, seed=0)
        assert len(empty.cuts) == 60 and is_nonempty(empty) == (False, None)
        approx = floating_body_approx(body, F(2161, 5000), n_dirs=16, seed=0)
        assert len(approx.cuts) == 60 and not approx.contains_point(body.centroid)
        ok, witness = is_nonempty(approx)
        assert ok and all(dot(c.theta, witness) <= c.hi for c in approx.cuts)
        # the simplex's exact witness, pinned so that a change of pivot rule shows
        assert witness == (
            F(-21835922127645604473225414590292522265659513143,
              21843324296136255835512653160879822530358018048),
            F(-2245354466845500305685815171154555801349940207977,
              1164977295793933644560674835246923868285760962560),
            F(595703739159118423931865702450578021460902818277,
              232995459158786728912134967049384773657152192512),
            F(-2079134000071166609974435612957390359779392767701,
              698986377476360186736404901148154320971456577536))

    def test_centroid_membership_at_delta_n(self):
        for seed, n in [(3, 2), (4, 3), (5, 4)]:
            body = random_hull(n, n + 6, seed)
            approx = floating_body_approx(body, delta_bound(n), n_dirs=4 * n, seed=1)
            assert approx.contains_point(body.centroid)


class TestFourierMotzkin:
    def test_simple_feasible_box(self):
        w = feasible_point([((1, 0), F(1)), ((-1, 0), F(0)),
                            ((0, 1), F(1)), ((0, -1), F(0))], 2)
        assert w == (F(1, 2), F(1, 2))

    def test_simple_infeasible(self):
        assert feasible_point([((1, 0), F(0)), ((-1, 0), F(-1))], 2) is None

    def test_unbounded_direction(self):
        w = feasible_point([((1, 1, 0), F(3)), ((0, -1, 0), F(-1)),
                            ((0, 0, 1), F(0))], 3)
        assert w is not None
        assert w[0] + w[1] <= 3 and -w[1] <= -1 and w[2] <= 0

    def test_witness_recheck_raises_internal_error(self, monkeypatch):
        real = feasibility.primitive_direction

        def shifted(v):
            *coeffs, rhs = real(v)
            return (*coeffs, rhs + 3 * sum(coeffs))

        # the LP then solves the system moved by 3, 3 <= x <= 4, outside x <= 1
        monkeypatch.setattr(feasibility, "primitive_direction", shifted)
        with pytest.raises(RuntimeError, match="violates inequality") as info:
            feasible_point([((1,), F(1)), ((-1,), F(0))], 1)
        assert not isinstance(info.value, (ValueError, CentroidCutError))

    @pytest.mark.parametrize("seed", range(48))
    def test_against_linprog_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4))
        rows = [(tuple(F(rng.randint(-4, 4)) for _ in range(n)), F(rng.randint(-3, 8)))
                for _ in range(rng.randint(3, 24))]
        # a zero row is either impossible (0 <= -1) or vacuous (0 <= 0); seeds
        # 15 and 33 empty an otherwise feasible system with it
        if seed % 3 == 0:
            rows.insert(rng.randrange(len(rows) + 1), ((F(0),) * n, F(-(seed % 2))))
        witness = feasible_point(rows, n)
        a_ub = np.array([[float(c) for c in coeffs] for coeffs, _ in rows])
        b_ub = np.array([float(r) for _, r in rows])
        lp = linprog(np.zeros(n), A_ub=a_ub, b_ub=b_ub,
                     bounds=[(None, None)] * n, method="highs")
        if witness is None:
            assert not lp.success
        else:
            for coeffs, rhs in rows:
                assert dot(coeffs, witness) <= rhs
            assert lp.success


class TestPhiEstimate:
    def test_symmetric_contains_half(self, cube3):
        est = phi_estimate(cube3, LIGHT, directions="axes")
        assert est.lo <= 0.5 <= est.hi + 1e-12
        assert est.lo == pytest.approx(0.5, abs=1e-6)

    def test_simplex_contains_delta3(self, simplex3):
        est = phi_estimate(simplex3, LIGHT, n_dirs=16)
        assert est.lo <= 27 / 64 <= est.hi + 1e-9

    def test_random_body_lower_bound(self):
        body = random_hull(3, 9, 7)
        est = phi_estimate(body, LIGHT, n_dirs=12)
        assert est.lo >= 27 / 64 - 1e-6

    def test_interval_contains_phi_from_rho_min(self):
        body = random_hull(2, 7, 21)
        est = phi_estimate(body, LIGHT, n_dirs=12)
        value = 1.0 / (rho_min(body, LIGHT).value + 1.0)
        assert est.lo - 1e-9 <= value <= est.hi + 1e-6

    def test_one_evaluator_per_direction(self, monkeypatch):
        body = random_hull(3, 8, 5)
        built = []

        class Counted(CumulativeEvaluator):
            def __init__(self, poly, theta):
                built.append(tuple(theta))
                super().__init__(poly, theta)

        monkeypatch.setattr(floating, "CumulativeEvaluator", Counted)
        est = phi_estimate(body, LIGHT, n_dirs=8)
        assert est.delta_infeasible is not None  # the delta bisection ran
        assert built == direction_budget(body, 8, LIGHT.seed)

    def test_gap_nonincreasing_in_budget_on_symmetric_body(self):
        # rotated rectangle: symmetric, so 1/(rho+1) = 1/2 exactly
        body = convex_hull([(2, 1), (-1, 2), (-2, -1), (1, -2)])
        gaps = []
        for n_dirs in (4, 8, 16):
            est = phi_estimate(body, LIGHT, n_dirs=n_dirs)
            gaps.append(abs(0.5 - (est.lo + est.hi) / 2.0))
        assert gaps[0] >= gaps[1] - 1e-9 >= gaps[2] - 2e-9
        assert gaps[2] <= 1e-6
