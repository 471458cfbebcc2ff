from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from centroidcut import (
    RefNotInterior,
    SearchConfig,
    affine_image,
    convex_hull,
    cumulative_volume,
    delta_bound,
    ratio_at,
    rho_at_point,
    rho_bound,
    rho_centroid,
    rho_min,
)
from centroidcut import asymmetry
from centroidcut.asymmetry import _FloatBody, _nelder_mead, exact_candidate_directions
from centroidcut.generators import BodySpec, make, random_hull
from centroidcut.geometry import dot
from centroidcut.slicing import CumulativeEvaluator
from centroidcut.verify import check_pyramids, fleet_bodies

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

    def test_rejects_direction_of_wrong_length(self, simplex3):
        """(1, 0) is not read as (1, 0, 0), whose ratio is 37/27."""
        with pytest.raises(ValueError, match="direction must have 3 entries"):
            ratio_at(simplex3, simplex3.centroid, (1, 0))


class TestRhoAtPoint:
    def test_standard_simplex_exact_equality(self, simplex3):
        report = rho_at_point(simplex3, simplex3.centroid, LIGHT)
        assert report.rho_exact == F(37, 27)
        assert abs(report.rho - float(rho_bound(3))) < 1e-6

    def test_cube_is_symmetric(self, cube3):
        report = rho_at_point(cube3, cube3.centroid, LIGHT)
        assert report.rho == pytest.approx(1.0, abs=1e-6)
        # R^1 has one direction up to sign: the screened best is not a new witness
        segment = convex_hull([(0,), (1,)])
        report = rho_at_point(segment, segment.centroid, LIGHT)
        assert [r for _, r in report.exact_witnesses] == [1]

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
        body = make(BodySpec(kind="simplex", n=4))
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
        body = make(BodySpec(kind="pyramid", n=n, base=base, seed=3, height="2/3"))
        assert ratio_at(body, body.centroid, (0,) * (n - 1) + (1,)) == rho_bound(n)
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
        body = make(BodySpec(kind="cross", n=3))
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


    def test_point_search_never_reads_float_ratio(self, monkeypatch):
        """The search over x scores points from the exact pieces; only the
        exact reports at its end (the direction search) run the float recursion."""
        body = random_hull(3, 9, 99)
        expected = rho_min(body, LIGHT).to_dict()
        in_report = [False]
        real_ratio, real_search = _FloatBody.ratio, asymmetry._search

        def ratio(self, x, theta):
            if not in_report[0]:
                raise AssertionError("rho_min's point search called _FloatBody.ratio")
            return real_ratio(self, x, theta)

        def search(*args, **kwargs):
            in_report[0] = True
            try:
                return real_search(*args, **kwargs)
            finally:
                in_report[0] = False

        monkeypatch.setattr(_FloatBody, "ratio", ratio)
        monkeypatch.setattr(asymmetry, "_search", search)
        assert rho_min(body, LIGHT).to_dict() == expected


@pytest.fixture
def builds(monkeypatch):
    """Record the direction of every CumulativeEvaluator built and the body of
    every _FloatBody built."""
    seen = {"evaluators": [], "float_bodies": []}
    ev_init, fb_init = CumulativeEvaluator.__init__, _FloatBody.__init__

    def ev(self, poly, theta):
        seen["evaluators"].append(tuple(theta))
        ev_init(self, poly, theta)

    def fb(self, poly):
        seen["float_bodies"].append(poly)
        fb_init(self, poly)

    monkeypatch.setattr(CumulativeEvaluator, "__init__", ev)
    monkeypatch.setattr(_FloatBody, "__init__", fb)
    return seen


class TestBuilds:
    """A search call holds one evaluator per direction it scores exactly."""

    @pytest.mark.parametrize("n, seed", ((3, 0), (4, 3)))
    def test_rho_min_builds_each_direction_once(self, builds, n, seed):
        """The point search and both closing reports share one float body and
        one evaluator per distinct signed direction (the body of `centroidcut
        rho-min --body random --n 3 --seed 0`, and of n 4 seed 3)."""
        body = make(BodySpec(kind="random-hull", n=n, m=10, seed=seed))
        rho_min(body, SearchConfig(seed=seed))
        dirs = builds["evaluators"]
        assert len(dirs) == len(set(dirs)) > 0
        assert len(builds["float_bodies"]) == 1

    def test_pyramids_suite_builds_one_evaluator_per_pyramid(self, builds):
        results = check_pyramids((2, 3, 4))
        assert all(r.ok for r in results)
        assert len(builds["evaluators"]) == 12  # four bases in each of three dimensions


class TestNelderMead:
    """``_nelder_mead`` takes SciPy's non-adaptive Nelder-Mead steps, so SciPy
    (a test-only dependency) must return the same floats, bit for bit."""

    @staticmethod
    def assert_same_as_scipy(f, x0, maxiter, xatol, fatol):
        """Same points evaluated in the same order, same result."""
        from scipy.optimize import minimize

        def traced(log):
            def g(x):
                log.append([float.hex(float(c)) for c in x])
                return f(x)
            return g

        ours, theirs = [], []
        x, fun = _nelder_mead(traced(ours), x0, maxiter, xatol, fatol)
        with np.errstate(invalid="ignore"):
            res = minimize(traced(theirs), x0, method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
        assert ours == theirs
        assert [float.hex(float(c)) for c in x] == [float.hex(float(c)) for c in res.x]
        assert float.hex(fun) == float.hex(float(res.fun))
        return x, fun

    @pytest.mark.parametrize("maxiter", (5, 60, 600))
    def test_smooth(self, maxiter):
        def rosenbrock(x):
            return float(sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
        # the zero entry starts its simplex edge at 0.00025, the others at 1.05 x_k
        self.assert_same_as_scipy(rosenbrock, np.array([-1.2, 0.0, 0.7]), maxiter, 1e-10, 1e-12)
        self.assert_same_as_scipy(lambda x: float((x[0] - 3.0) ** 2), np.array([0.0]),
                                  maxiter, 1e-10, 1e-12)

    def test_plateaus(self):
        """A staircase: ties between vertex values, and shrink steps."""
        def stairs(x):
            return float(math.floor(8.0 * float(np.sum(x * x))))
        self.assert_same_as_scipy(stairs, np.array([1.7, -0.9]), 200, 1e-10, 1e-12)

    def test_inf_outside_box(self):
        def boxed(x):
            if np.any(np.abs(x) >= 1.0):
                return math.inf
            return float(np.sum((x - np.array([0.99, -0.5])) ** 2))
        x, fun = self.assert_same_as_scipy(boxed, np.array([0.97, 0.2]), 400, 1e-10, 1e-12)
        assert math.isfinite(fun) and np.all(np.abs(x) < 1.0)
        # every start vertex outside: the stopping test meets inf - inf
        x, fun = self.assert_same_as_scipy(boxed, np.array([2.0, 3.0]), 50, 1e-10, 1e-12)

    def test_search_objectives(self, monkeypatch):
        """The real objectives of rho_min (over points) and _refine_direction
        (over a sphere chart) on three fleet bodies."""
        sizes = []

        def checked(f, x0, maxiter, xatol, fatol):
            sizes.append(x0.size)
            return self.assert_same_as_scipy(f, x0, maxiter, xatol, fatol)

        monkeypatch.setattr(asymmetry, "_nelder_mead", checked)
        for body in fleet_bodies(3, (2, 3, 4), 7):
            rho_min(body, LIGHT)
            assert sizes.count(body.dim) == 1 and sizes.count(body.dim - 1) >= 2
            sizes.clear()


class TestFloatScale:
    """The float searches scale a body far from unit size exactly to unit size."""

    QUAD = [(0, 0), (3, 0), (1, 2), (0, 1)]

    @pytest.mark.parametrize("exponent", (600, -600, -1100))
    def test_scaled_body_matches_unit_body(self, exponent):
        unit = rho_centroid(convex_hull(self.QUAD), LIGHT)
        body = convex_hull([tuple(c * F(2) ** exponent for c in p) for p in self.QUAD])
        report = rho_centroid(body, LIGHT)
        assert (report.rho_exact, report.theta_star) == (unit.rho_exact, unit.theta_star)
        assert rho_min(body, LIGHT).value < report.rho


    def test_piece_coefficients_beyond_float_range(self):
        """A vertex 2^-600 off a face of a 5-simplex: along that face's normal
        the piece between them has Taylor coefficients near 2^2394, which
        round to +-inf, and rho_min still runs."""
        w = F(1, 2 ** 600)
        body = convex_hull([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (w, 1, 0, 0, 0),
                            (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
        cfg = SearchConfig(random_directions=16, multistart=1, nm_maxiter=20)
        assert rho_min(body, cfg).value <= rho_centroid(body, cfg).rho


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


def test_import_does_not_load_scipy():
    """No search loads SciPy: Nelder-Mead is in-house."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, centroidcut as c\n"
            "body = c.convex_hull([(0, 0), (3, 0), (1, 2), (0, 1)])\n"
            "cfg = c.SearchConfig(random_directions=16, multistart=1, nm_maxiter=20)\n"
            "c.rho_centroid(body, cfg)\n"
            "c.rho_min(body, cfg)\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
