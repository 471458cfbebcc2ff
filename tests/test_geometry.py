from __future__ import annotations

import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from centroidcut import (
    DegenerateInput,
    Location,
    Polytope,
    affine_image,
    convex_hull,
)
from centroidcut.generators import BodySpec, cross_body, make, random_hull
from centroidcut.errors import BadValue
from centroidcut.geometry import (
    _det_int,
    _gauss_jordan,
    _hull_facets,
    _integer_lift,
    _normal,
    as_fraction,
    as_point,
    distinct_directions,
    dot,
    seeded_directions,
)

from oracles import Simplex, det, fraction_contains, fraction_dot, scan_hull_facets

F = Fraction


def tet_volume(a, b, c, d):
    """Independent oracle: |det of edge vectors| / 6 via the permutation formula."""
    r = [[x - y for x, y in zip(p, a)] for p in (b, c, d)]
    d3 = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
          - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
          + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    return abs(d3) / 6


def tet_centroid(a, b, c, d):
    return tuple(sum(x) / 4 for x in zip(a, b, c, d))


class TestConvexHull:
    def test_square_with_center_point_removed(self):
        poly = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
        assert len(poly.vertices) == 4
        assert as_point((F(1, 2), F(1, 2))) not in poly.vertices

    def test_standard_3_simplex(self):
        poly = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(poly.vertices) == 4
        assert len(poly.facets) == 4

    def test_collinear_points_degenerate(self):
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 1), (2, 2)])

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 0)])

    def test_zero_dimensional_points(self):
        with pytest.raises(DegenerateInput):
            convex_hull([()])

    def test_input_points_satisfy_all_facets(self):
        pts = [(0, 0), (2, 0), (0, 2), (1, 1), (F(1, 3), F(1, 2))]
        poly = convex_hull(pts)
        for p in pts:
            assert poly.contains(p) is not Location.OUTSIDE

    def test_dimension_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("CENTROIDCUT_MAXDIM", "2")
        with pytest.raises(ValueError):
            convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        monkeypatch.delenv("CENTROIDCUT_MAXDIM")
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_dimension_cap_env_rejects_non_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("CENTROIDCUT_MAXDIM", raw)
        with pytest.raises(BadValue, match="CENTROIDCUT_MAXDIM"):
            convex_hull([(0, 0), (1, 0), (0, 1)])


class TestVolumeCentroid:
    def test_unit_cube_volume(self, cube3):
        assert cube3.volume == 1

    def test_standard_simplex_volume(self, simplex3):
        assert simplex3.volume == F(1, 6)

    def test_square_pyramid_volume_against_two_tet_oracle(self, square_pyramid):
        apex = (F(1, 2), F(1, 2), F(1))
        t1 = ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0)), apex)
        t2 = ((F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(0)), apex)
        expected = tet_volume(*t1) + tet_volume(*t2)
        assert expected == F(1, 3)
        assert square_pyramid.volume == expected

    def test_simplex_centroid_is_vertex_average(self, simplex3):
        assert simplex3.centroid == (F(1, 4), F(1, 4), F(1, 4))

    def test_cube_centroid(self, cube3):
        assert cube3.centroid == (F(1, 2), F(1, 2), F(1, 2))

    def test_pyramid_centroid_against_oracle(self, square_pyramid):
        apex = (F(1, 2), F(1, 2), F(1))
        t1 = ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0)), apex)
        t2 = ((F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(0)), apex)
        v1, v2 = tet_volume(*t1), tet_volume(*t2)
        c1, c2 = tet_centroid(*t1), tet_centroid(*t2)
        expected = tuple((v1 * a + v2 * b) / (v1 + v2) for a, b in zip(c1, c2))
        assert square_pyramid.centroid == expected
        # apex height over n+1 rule
        assert square_pyramid.centroid[2] == F(1, 4)

    def test_triangulation_volumes_sum_exactly(self, square_pyramid, cube3):
        for poly in (square_pyramid, cube3):
            assert sum(Simplex(s).volume() for s in poly.triangulation) == poly.volume

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cell_table_matches_triangulation(self, n):
        for poly in (random_hull(n, n + 5, 17), make(BodySpec(kind="pyramid", n=n))):
            simplices = [Simplex(s) for s in poly.triangulation]
            vols = [vol for vol, _ in poly.cells]
            assert vols == [s.volume() for s in simplices]
            assert sum(vols) == poly.volume
            assert poly.centroid == tuple(
                sum(s.volume() * s.centroid()[j] for s in simplices) / poly.volume
                for j in range(n))


class TestContains:
    def test_cube_classification(self, cube3):
        assert cube3.contains((F(1, 2), F(1, 2), F(1, 2))) is Location.INTERIOR
        assert cube3.contains((0, F(1, 2), F(1, 2))) is Location.BOUNDARY
        assert cube3.contains((2, 0, 0)) is Location.OUTSIDE

    def test_centroid_strictly_interior(self, square_pyramid, simplex3):
        for poly in (square_pyramid, simplex3):
            assert poly.contains(poly.centroid) is Location.INTERIOR

    @pytest.mark.parametrize("body", ["hull-1", "hull-2", "hull-3", "hull-4", "hull-5",
                                      "cube-3", "cross-4"])
    def test_matches_fraction_oracle(self, body):
        kind, n = body.split("-")
        n = int(n)
        poly = {"hull": lambda: random_hull(n, n + 5, 11 * n),
                "cube": lambda: convex_hull(list(itertools.product((0, 1), repeat=n))),
                "cross": lambda: convex_hull(cross_body(n))}[kind]()
        c = poly.centroid
        eps = F(1, 2**64 - 59)

        def towards(p, s):  # c + s (p - c)
            return tuple(a + s * (b - a) for a, b in zip(c, p))

        mids = [tuple(sum(poly.vertices[i][j] for i in f.vertex_ids) / len(f.vertex_ids)
                      for j in range(n)) for f in poly.facets]
        cases = [(c, Location.INTERIOR)]
        for v in poly.vertices:
            cases += [(v, Location.BOUNDARY), (towards(v, F(1, 2)), Location.INTERIOR),
                      (towards(v, F(3, 2)), Location.OUTSIDE)]
        for m in mids:
            cases += [(m, Location.BOUNDARY), (towards(m, 1 - eps), Location.INTERIOR),
                      (towards(m, 1 + eps), Location.OUTSIDE)]
        for p, want in cases:
            assert poly.contains(p) is fraction_contains(poly, p) is want

    def test_forms_no_fraction(self, monkeypatch):
        poly = random_hull(5, 9, 3)
        v = poly.vertices[0]
        points = [poly.centroid, v, tuple(2 * a - b for a, b in zip(v, poly.centroid))]
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            def counted(self, other, real=getattr(Fraction, name), name=name):
                calls.append(name)
                return real(self, other)
            monkeypatch.setattr(Fraction, name, counted)
        found = [poly.contains(p) for p in points]
        monkeypatch.undo()
        assert calls == []
        assert found == [Location.INTERIOR, Location.BOUNDARY, Location.OUTSIDE]


class TestDot:
    def test_matches_fraction_sum(self):
        rng = random.Random(17)
        big_prime = 2**64 - 59

        def entry():
            num = rng.choice((rng.randint(-9, 9), rng.randint(-10**6, 10**6),
                              10**400 - rng.randint(0, 9), rng.randint(0, 9) - 10**400))
            return F(num, rng.choice((1, rng.randint(1, 12), big_prime, big_prime**2)))

        def vector(n):
            kind = rng.randrange(4)
            if kind == 0:
                return tuple(rng.randint(-99, 99) for _ in range(n))
            if kind == 1:
                return (0,) * n if rng.random() < 0.5 else (F(0),) * n
            return tuple(entry() for _ in range(n))

        for n in range(1, 7):
            for _ in range(60):
                u, v = vector(n), vector(n)
                got = dot(u, v)
                assert type(got) is Fraction and got == fraction_dot(u, v)
        assert dot((), ()) == 0
        assert dot((F(1, big_prime), -3), (big_prime, F(1, 3))) == 0

    def test_rejects_floats(self):
        with pytest.raises(AttributeError):
            dot((0.5, 1), (1, 1))


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    count = draw(st.integers(min_value=n + 1, max_value=n + 5))
    pts = [tuple(draw(small_fracs) for _ in range(n)) for _ in range(count)]
    return n, pts


class TestHullProperties:
    @settings(max_examples=40, deadline=None)
    @given(point_sets())
    def test_hull_idempotence(self, data):
        _, pts = data
        try:
            first = convex_hull(pts)
        except DegenerateInput:
            return
        second = convex_hull(first.vertices)
        assert first.vertices == second.vertices
        assert first.volume == second.volume

    @settings(max_examples=25, deadline=None)
    @given(point_sets(), st.randoms(use_true_random=False))
    def test_affine_covariance_exact(self, data, rnd):
        n, pts = data
        try:
            poly = convex_hull(pts)
        except DegenerateInput:
            return
        while True:
            mat = [[F(rnd.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            d = _perm_det(mat)
            if d != 0:
                break
        offset = [F(rnd.randint(-2, 2)) for _ in range(n)]
        image = affine_image(poly, mat, offset)
        assert image.volume == abs(d) * poly.volume
        mapped_centroid = tuple(
            dot(mat[i], poly.centroid) + offset[i] for i in range(n))
        assert image.centroid == mapped_centroid


def _perm_det(mat):
    """Leibniz determinant, independent of the library's elimination."""
    n = len(mat)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= mat[i][perm[i]]
        total += sign * term
    return total


def _int_matrix(rng, rows, cols):
    """Random small integer matrix; one case in four each gets a zero row, a
    repeated row, or a row combined from two others (so a rank drop)."""
    mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(4)
    if rows > 1 and kind:
        i, j, k = (rng.randrange(rows) for _ in range(3))
        if kind == 1:
            mat[i] = [0] * cols
        elif kind == 2:
            mat[i] = list(mat[j])
        elif i not in (j, k):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            mat[i] = [a * x + b * y for x, y in zip(mat[j], mat[k])]
    return mat


def _matrices(seed, shape):
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows, cols = shape(rng, n)
        yield _int_matrix(rng, rows, cols)


@st.composite
def lattice_sets(draw):
    """Distinct points of {0..b}^n, n = 2..5 and b <= 3: full of coplanar,
    collinear and non-vertex points, and sometimes in a hyperplane."""
    n = draw(st.integers(min_value=2, max_value=5))
    b = draw(st.integers(min_value=1, max_value=3))
    coord = st.integers(min_value=0, max_value=b)
    return draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=12, unique=True))


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDoubleDescription:
    """The double-description pass against the brute-force subset scan:
    the same facet list, order included."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    def test_matches_subset_scan_on_lattice_points(self, pts):
        expected = scan_hull_facets(pts)
        if not expected or len(expected[0][2]) == len(pts):  # in a hyperplane
            with pytest.raises(DegenerateInput):
                _hull_facets(pts)
        else:
            assert _hull_facets(pts) == expected

    def test_matches_subset_scan_on_bench_shapes(self):
        # the 5-cube's scan alone takes seconds, so its shape is checked on
        # the 4-cube; the cross-polytope, simplex and pyramids are as given
        workloads = _bench_workloads()
        items = [it["points"] for it in workloads.hull_inputs(1)
                 if it["kind"] in ("cross", "simplex", "pyramid")]
        items.append([tuple(a + 2 for a in p) for p in workloads._cube(4)])
        for points in items:
            ipts = _integer_lift([as_point(p) for p in points])[0]
            assert _hull_facets(ipts) == scan_hull_facets(ipts)

    def test_six_cube(self):
        poly = convex_hull(list(itertools.product((0, 1), repeat=6)))
        assert len(poly.facets) == 12 and len(poly.cells) == 720
        assert poly.volume == 1
        assert poly.centroid == (F(1, 2),) * 6


class TestExactLinearAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
    def test_det_matches_leibniz(self, n, rnd):
        mat = [[F(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(n)]
               for _ in range(n)]
        assert det(mat) == _perm_det(mat)

    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for mat in _matrices(1, lambda rng, n: (rng.randint(1, n + 2), n)):
            assert len(_gauss_jordan([list(r) for r in mat])[0]) == sympy.Matrix(mat).rank()

    def test_signed_det_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for mat in _matrices(2, lambda rng, n: (n, n)):
            assert _det_int([list(r) for r in mat]) == sympy.Matrix(mat).det()

    def test_primitive_normal_matches_sympy_nullspace(self):
        sympy = pytest.importorskip("sympy")
        for mat in _matrices(3, lambda rng, n: (n, n + 1)):
            normal = _normal([list(r) for r in mat])
            kernel = sympy.Matrix(mat).nullspace()
            if len(kernel) != 1:
                assert normal is None
                continue
            v = kernel[0]
            v = v * sympy.ilcm(*(c.q for c in v))
            v = v / sympy.igcd(*(int(c) for c in v))
            expected = tuple(int(c) for c in v)
            assert normal in (expected, tuple(-c for c in expected))


class TestSimplexType:
    """The test-side simplex of ``oracles``."""

    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(DegenerateInput):
            Simplex(((F(0), F(0)), (F(1), F(0))))

    def test_volume_and_centroid(self):
        s = Simplex(((F(0), F(0)), (F(2), F(0)), (F(0), F(2))))
        assert s.volume() == 2
        assert s.centroid() == (F(2, 3), F(2, 3))


class TestSerialization:
    def test_json_roundtrip_byte_identical(self, square_pyramid):
        text = json.dumps(square_pyramid.to_dict())
        again = Polytope.from_dict(json.loads(text))
        assert json.dumps(again.to_dict()) == text
        assert again.volume == square_pyramid.volume

    def test_json_accepts_ints_and_strings(self):
        poly = Polytope.from_dict(
            {"dim": 2, "vertices": [[0, 0], ["1/1", 0], [0, 1], ["1/2", "2/3"]]})
        # shoelace over (0,0),(1,0),(1/2,2/3),(0,1)
        assert poly.volume == F(7, 12)

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_is_bad_value(self, x):
        with pytest.raises(BadValue, match="rational"):
            as_fraction(x)

    def test_malformed_json_degenerate(self):
        with pytest.raises(DegenerateInput):
            Polytope.from_dict({"dim": 2})


class TestDistinctDirections:
    def test_order_zeros_sign_twins_and_count(self):
        vecs = [(2, 4), (0, 0), (F(1, 3), F(2, 3)), (-1, -2), (3, 0), (-6, 0), (0, 5)]
        assert distinct_directions(vecs) == [(1, 2), (-1, -2), (1, 0), (-1, 0), (0, 1)]
        assert distinct_directions(vecs, signed=False) == [(1, 2), (1, 0), (0, 1)]
        assert distinct_directions(vecs, count=2, signed=False) == [(1, 2), (1, 0)]
        assert distinct_directions(vecs, count=0) == []

    def test_endless_stream_with_count(self):
        dirs = distinct_directions(seeded_directions(3, 0), count=40, signed=False)
        assert len(dirs) == 40
        assert len({max(d, tuple(-c for c in d)) for d in dirs}) == 40

    def test_r1_stream_is_finite(self):
        for seed in range(20):
            drawn = list(seeded_directions(1, seed))
            assert set(drawn) == {(1,), (-1,)}
            assert sorted(distinct_directions(drawn)) == [(-1,), (1,)]
            assert len(distinct_directions(seeded_directions(1, seed), 256, signed=False)) == 1

