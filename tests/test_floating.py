from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
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
    rho_min,
)
from centroidcut import feasibility
from centroidcut.feasibility import feasible_point
from centroidcut.generators import random_hull
from centroidcut.geometry import dot

F = Fraction

LIGHT = SearchConfig(random_directions=48, multistart=2, nm_maxiter=60)


class TestCutDepth:
    def test_square_quarter(self, square):
        cut = cut_depth(square, (1, 0), F(1, 4))
        assert cut.lo == cut.hi == F(3, 4)

    def test_square_half(self, square):
        cut = cut_depth(square, (1, 0), F(1, 2))
        assert cut.lo == cut.hi == F(1, 2)

    def test_pyramid_centroid_height(self, square_pyramid):
        cut = cut_depth(square_pyramid, (0, 0, 1), F(27, 64))
        assert cut.lo == cut.hi == F(1, 4) == square_pyramid.centroid[2]

    @pytest.mark.parametrize("delta", [F(0), F(-1, 4), F(3, 5), F(2)])
    def test_bad_delta_rejected(self, square, delta):
        with pytest.raises(BadDelta):
            cut_depth(square, (1, 0), delta)

    def test_bracket_certificate(self):
        """lo/hi straddle the exact depth: cum(lo) <= (1-delta)V <= cum(hi)."""
        body = random_hull(3, 9, 15)
        delta = F(1, 3)
        target = (1 - delta) * body.volume
        for theta in [(1, 0, 0), (2, -3, 1), (1, 1, 1)]:
            cut = cut_depth(body, theta, delta)
            assert cumulative_volume(body, theta, cut.lo) <= target
            assert cumulative_volume(body, theta, cut.hi) >= target
            projs = [dot(theta, v) for v in body.vertices]
            width = max(projs) - min(projs)
            assert cut.hi - cut.lo <= width / (1 << 64)


class TestFloatingBodyApprox:
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

    def test_gap_nonincreasing_in_budget_on_symmetric_body(self):
        # rotated rectangle: symmetric, so 1/(rho+1) = 1/2 exactly
        body = convex_hull([(2, 1), (-1, 2), (-2, -1), (1, -2)])
        gaps = []
        for n_dirs in (4, 8, 16):
            est = phi_estimate(body, LIGHT, n_dirs=n_dirs)
            gaps.append(abs(0.5 - (est.lo + est.hi) / 2.0))
        assert gaps[0] >= gaps[1] - 1e-9 >= gaps[2] - 2e-9
        assert gaps[2] <= 1e-6
