from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from centroidcut import (
    RefNotInterior,
    SearchConfig,
    affine_image,
    cumulative_volume,
    delta_bound,
    ratio_at,
    rho_at_point,
    rho_bound,
    rho_centroid,
    rho_min,
)
from centroidcut.asymmetry import _FloatBody, exact_candidate_directions
from centroidcut.generators import BodySpec, make, random_hull
from centroidcut.geometry import dot

F = Fraction

LIGHT = SearchConfig(random_directions=64, multistart=2, nm_maxiter=80)


class TestBounds:
    def test_rho_n_values(self):
        assert rho_bound(2) == F(5, 4)
        assert rho_bound(3) == F(37, 27)
        assert rho_bound(4) == F(369, 256)
        assert rho_bound(5) == F(4651, 3125)

    def test_delta_n_values(self):
        assert delta_bound(2) == F(4, 9)
        assert delta_bound(3) == F(27, 64)
        assert float(rho_bound(10)) < math.e - 1

    def test_reciprocal_identity(self):
        for n in range(1, 7):
            assert delta_bound(n) * (rho_bound(n) + 1) == 1


class TestRatioAt:
    def test_cube_center_axis(self, cube3):
        assert ratio_at(cube3, cube3.centroid, (1, 0, 0)) == 1

    def test_triangle_hypotenuse_parallel_cut(self, triangle):
        assert ratio_at(triangle, triangle.centroid, (1, 1)) == F(5, 4)

    def test_square_pyramid_vertical(self, square_pyramid):
        r = ratio_at(square_pyramid, square_pyramid.centroid, (0, 0, 1))
        assert r == F(37, 27) == rho_bound(3)

    def test_symmetrization_exact(self, square_pyramid):
        rng = random.Random(5)
        for _ in range(10):
            theta = tuple(rng.randint(-9, 9) for _ in range(3))
            if all(c == 0 for c in theta):
                continue
            c = square_pyramid.centroid
            assert ratio_at(square_pyramid, c, theta) == ratio_at(
                square_pyramid, c, tuple(-t for t in theta))

    def test_rejects_boundary_point(self, cube3):
        with pytest.raises(RefNotInterior):
            ratio_at(cube3, (0, 0, 0), (1, 0, 0))


class TestRhoAtPoint:
    def test_standard_simplex_exact_equality(self, simplex3):
        report = rho_at_point(simplex3, simplex3.centroid, LIGHT)
        assert report.rho_exact == F(37, 27)
        assert abs(report.rho - float(rho_bound(3))) < 1e-6

    def test_cube_is_symmetric(self, cube3):
        report = rho_at_point(cube3, cube3.centroid, LIGHT)
        assert report.rho == pytest.approx(1.0, abs=1e-6)

    def test_report_meets_exact_candidates(self, square_pyramid):
        report = rho_at_point(square_pyramid, square_pyramid.centroid, LIGHT)
        best_candidate = max(
            ratio_at(square_pyramid, square_pyramid.centroid, d)
            for d in exact_candidate_directions(square_pyramid, square_pyramid.centroid))
        assert report.rho_exact >= best_candidate

    def test_random_body_respects_bound_and_grid_oracle(self):
        body = random_hull(3, 10, 1234)
        report = rho_at_point(body, body.centroid, LIGHT)
        assert report.rho <= float(rho_bound(3)) + 1e-9
        # dense float direction grid as an independent lower-bound oracle
        fb = _FloatBody(body)
        x = np.array([float(c) for c in body.centroid])
        rng = np.random.default_rng(0)
        best = 1.0
        for _ in range(10000):
            theta = rng.normal(size=3)
            best = max(best, fb.ratio(x, theta))
        assert report.rho >= best - 1e-6

    def test_exact_witnesses_never_exceed_bound(self):
        for seed in (5, 6, 7):
            body = random_hull(3, 9, seed)
            report = rho_centroid(body, LIGHT)
            assert all(r <= rho_bound(3) for _, r in report.exact_witnesses)


class TestRhoCentroid:
    def test_simplex_n2(self, triangle):
        report = rho_centroid(triangle, LIGHT)
        assert report.rho_exact == F(5, 4)
        assert report.equality_exact

    def test_simplex_n4(self):
        body = make(BodySpec(kind="simplex", n=4)).body
        report = rho_centroid(body, LIGHT)
        assert report.rho_exact == F(369, 256)
        assert report.equality_exact

    def test_cube_gap(self, cube3):
        report = rho_centroid(cube3, LIGHT)
        assert report.rho == pytest.approx(1.0, abs=1e-9)
        assert report.gap == pytest.approx(float(F(10, 27)), abs=1e-9)
        assert not report.pyramid_like

    def test_phi_rho_identity(self, simplex3):
        report = rho_centroid(simplex3, LIGHT)
        assert report.phi * (report.rho + 1.0) == pytest.approx(1.0, abs=1e-12)


class TestPyramidEquality:
    @pytest.mark.parametrize("n,base", [(2, "cube"), (3, "simplex"), (3, "random-hull"),
                                        (4, "cube"), (4, "cross")])
    def test_exact_equality_and_flag(self, n, base):
        gen = make(BodySpec(kind="pyramid", n=n, base=base, seed=3, height="2/3"))
        body = gen.body
        assert ratio_at(body, body.centroid, gen.base_normal) == rho_bound(n)
        report = rho_centroid(body, LIGHT)
        assert report.equality_exact and report.pyramid_like
        assert report.rho_exact == rho_bound(n)


class TestAffineInvariance:
    def test_exact_candidate_invariance_and_float_report(self, square_pyramid):
        rng = random.Random(17)
        base_report = rho_at_point(square_pyramid, square_pyramid.centroid, LIGHT)
        theta = base_report.theta_star
        base_ratio = ratio_at(square_pyramid, square_pyramid.centroid, theta)
        for _ in range(10):
            while True:
                mat = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
                from tests.test_geometry import _perm_det
                d = _perm_det(mat)
                if d != 0:
                    break
            offset = [F(rng.randint(-2, 2)) for _ in range(3)]
            image = affine_image(square_pyramid, mat, offset)
            x2 = tuple(dot(mat[i], square_pyramid.centroid) + offset[i]
                       for i in range(3))
            # candidate directions map by the inverse transpose; the exact
            # ratio along the mapped direction is unchanged
            inv_t = _inverse_transpose(mat)
            theta2 = tuple(dot(inv_t[i], theta) for i in range(3))
            assert ratio_at(image, x2, theta2) == base_ratio
            report2 = rho_at_point(image, x2, LIGHT)
            assert report2.rho == pytest.approx(base_report.rho, abs=1e-6)


def _inverse_transpose(mat):
    n = len(mat)
    aug = [[F(mat[i][j]) for j in range(n)] + [F(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    return [[inv[j][i] for j in range(n)] for i in range(n)]


class TestMonotoneSplit:
    def test_ratio_unimodal_along_direction(self, square_pyramid):
        """Moving the cut point along theta, the ratio dips at the even split."""
        theta = (0, 0, 1)
        c = square_pyramid.centroid
        offsets = [F(k, 40) for k in range(-7, 8)]
        ratios = []
        for off in offsets:
            x = (c[0], c[1], c[2] + off)
            ratios.append(ratio_at(square_pyramid, x, theta))
        k_min = ratios.index(min(ratios))
        assert all(ratios[i] >= ratios[i + 1] for i in range(k_min))
        assert all(ratios[i] <= ratios[i + 1] for i in range(k_min, len(ratios) - 1))

    def test_part_volume_monotone_in_offset(self, square_pyramid):
        theta = (1, 1, 1)
        lo = min(dot(theta, v) for v in square_pyramid.vertices)
        hi = max(dot(theta, v) for v in square_pyramid.vertices)
        vals = [cumulative_volume(square_pyramid, theta, lo + F(k, 12) * (hi - lo))
                for k in range(13)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestRhoMin:
    def test_symmetric_body_reaches_one(self):
        body = make(BodySpec(kind="cross", n=3)).body
        result = rho_min(body, LIGHT)
        assert result.value == pytest.approx(1.0, abs=1e-6)
        assert all(abs(float(c)) < 1e-6 for c in result.point)

    def test_simplex_below_bound(self, triangle):
        result = rho_min(triangle, LIGHT)
        assert result.value <= 1.25 + 1e-9

    def test_never_worse_than_centroid(self):
        body = random_hull(3, 9, 99)
        centroid_value = rho_centroid(body, LIGHT).rho
        assert rho_min(body, LIGHT).value <= centroid_value + 1e-9


class TestPhi:
    """phi(K) estimated as 1/(rho_min + 1), as `centroidcut phi` reports it."""

    @staticmethod
    def phi_from_rho_min(body):
        return 1.0 / (rho_min(body, LIGHT).value + 1.0)

    def test_simplex_value(self, simplex3):
        assert self.phi_from_rho_min(simplex3) == pytest.approx(27 / 64, abs=1e-6)

    def test_symmetric_half(self, cube3):
        assert self.phi_from_rho_min(cube3) == pytest.approx(0.5, abs=1e-6)

    def test_planar_lower_bound(self):
        for seed in (1, 2):
            body = random_hull(2, 7, seed)
            assert self.phi_from_rho_min(body) >= 4 / 9 - 1e-6
