from __future__ import annotations

import math
from fractions import Fraction

import pytest

from centroidcut import (
    BadSpec,
    cumulative_volume,
    delta_bound,
    ratio_at,
    rho_bound,
    section_value,
)
from centroidcut.generators import BodySpec, fleet_specs, make, random_hull

F = Fraction


class TestMake:
    def test_pyramid_square_base(self):
        body = make(BodySpec(kind="pyramid", n=3))
        assert len(body.vertices) == 5
        assert body.volume == F(1, 3)
        assert body.centroid[2] == F(1, 4)
        assert ratio_at(body, body.centroid, (0, 0, 1)) == F(37, 27)

    def test_cross_polytope(self):
        body = make(BodySpec(kind="cross", n=3))
        assert len(body.vertices) == 6
        assert body.volume == F(4, 3)
        assert body.centroid == (0, 0, 0)

    def test_simplex_metadata(self):
        body = make(BodySpec(kind="simplex", n=4))
        assert body.volume == F(1, 24)
        # cut parallel to the facet opposite the apex at the origin
        assert ratio_at(body, body.centroid, (-1, -1, -1, -1)) == rho_bound(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_forms(self, n):
        """Volume and centroid coordinate of the standard bodies."""
        closed = {
            "simplex": (F(1, math.factorial(n)), F(1, n + 1)),
            "cube": (F(1), F(1, 2)),
            "cross": (F(2**n, math.factorial(n)), F(0)),
        }
        for kind, (volume, coord) in closed.items():
            body = make(BodySpec(kind=kind, n=n))
            assert body.volume == volume
            assert body.centroid == (coord,) * n

    def test_cube_metadata(self):
        body = make(BodySpec(kind="cube", n=2))
        assert body.volume == 1
        assert all(ratio_at(body, body.centroid, d) == 1 for d in ((1, 0), (1, 1), (2, -1)))

    def test_pyramid_prediction_matches_ratio(self):
        for n, base in [(2, "simplex"), (3, "cross"), (4, "cube")]:
            body = make(BodySpec(kind="pyramid", n=n, base=base, height="3/2"))
            assert ratio_at(body, body.centroid, (0,) * (n - 1) + (1,)) == rho_bound(n)

    def test_offset_apex_still_exact(self):
        body = make(BodySpec(kind="pyramid", n=3, apex=("2", "-1/3"), height="1/2"))
        assert ratio_at(body, body.centroid, (0, 0, 1)) == rho_bound(3)


class TestProfileBody:
    def test_affine_profile_is_pyramid(self):
        spec = BodySpec(kind="profile-body", n=3, profile=(("-3/4", "1/4"), ("0", "1")))
        body = make(spec)
        assert ratio_at(body, body.centroid, (0, 0, 1)) == rho_bound(3)
        # h(-3/4) = 0: the apex side lies below the centroid and holds delta_3
        below = cumulative_volume(body, (0, 0, 1), body.centroid[2])
        assert below == delta_bound(3) * body.volume

    def test_roundtrip_exact_at_rational_points(self):
        spec = BodySpec(kind="profile-body", n=3,
                        profile=(("-1", "0", "1"), ("1/2", "1", "1/2")))
        body = make(spec)
        checks = [(F(-1), F(1, 2)), (F(-1, 2), F(3, 4)), (F(0), F(1)),
                  (F(1, 2), F(3, 4)), (F(1), F(1, 2)), (F(1, 3), F(5, 6))]
        for t, h in checks:
            assert section_value(body, (0, 0, 1), t) == h ** 2

    def test_roundtrip_n4(self):
        spec = BodySpec(kind="profile-body", n=4,
                        profile=(("0", "2"), ("1", "0")))
        body = make(spec)
        assert ratio_at(body, body.centroid, (0, 0, 0, 1)) == rho_bound(4)
        for t, h in [(F(0), F(1)), (F(1), F(1, 2)), (F(3, 2), F(1, 4))]:
            assert section_value(body, (0, 0, 0, 1), t) == h ** 3

    def test_nonconcave_profile_rejected(self):
        with pytest.raises(BadSpec):
            make(BodySpec(kind="profile-body", n=3,
                          profile=(("0", "1", "2"), ("1", "1/4", "1"))))

    def test_truncated_profile_not_pyramid(self):
        spec = BodySpec(kind="profile-body", n=2, profile=(("0", "1"), ("1", "1/2")))
        body = make(spec)
        assert ratio_at(body, body.centroid, (0, 1)) < rho_bound(2)


class TestRandomHull:
    def test_existence(self):
        body = random_hull(3, 10, 42)
        assert 4 <= len(body.vertices) <= 10
        assert body.volume > 0

    def test_determinism_byte_identical(self):
        a = random_hull(3, 10, 42)
        b = random_hull(3, 10, 42)
        assert a.to_dict() == b.to_dict()

    def test_triangle(self):
        body = random_hull(2, 3, 5)
        assert len(body.vertices) == 3

    def test_denominators_bounded(self):
        body = random_hull(3, 12, 8)
        for v in body.vertices:
            assert all(c.denominator <= 2**16 for c in v)


class TestSpecs:
    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            BodySpec(kind="orb", n=3)
        with pytest.raises(BadSpec):
            BodySpec(kind="random-hull", n=3, m=2)
        with pytest.raises(BadSpec):
            BodySpec(kind="profile-body", n=3)
        with pytest.raises(BadSpec):
            BodySpec(kind="pyramid", n=3, base="random-hull", m=2)
        with pytest.raises(BadSpec):
            make(BodySpec(kind="pyramid", n=3, height="0"))
        # JSON specs take n, m and seed as integers only, as Polytope.from_dict takes dim
        for bad in ({"n": 2.7}, {"n": True}, {"n": "3"}, {"n": 2, "m": 5.0},
                    {"n": 2, "seed": 1.5}, {"n": 2, "seed": False}):
            with pytest.raises(BadSpec):
                BodySpec.from_dict({"kind": "random-hull", **bad})

    def test_spec_json_roundtrip(self):
        spec = BodySpec(kind="pyramid", n=3, base="cross", height="2/3",
                        apex=("1/2", "1/2"))
        data = {"kind": "pyramid", "n": 3, "base": "cross", "height": "2/3",
                "apex": ["1/2", "1/2"]}
        assert BodySpec.from_dict(data) == spec

    def test_fleet_spread(self):
        specs = fleet_specs(9, (2, 3, 4), 7)
        assert [s.n for s in specs] == [2, 3, 4] * 3
        assert len({s.seed for s in specs}) == 9

    def test_make_is_deterministic(self):
        a = make(BodySpec(kind="pyramid", n=3, base="random-hull", seed=5))
        b = make(BodySpec(kind="pyramid", n=3, base="random-hull", seed=5))
        assert a is not b and a.to_dict() == b.to_dict()
