"""Exact rational geometry for convex polytopes in low dimension.

Everything here is computed over arbitrary-precision rationals
(``fractions.Fraction``); no floating point enters any predicate, volume or
centroid.  The hull is found by brute-force facet enumeration over n-subsets
of the input points, which is robust and exactly reproducible at desk scale
(a few dozen points, dimension <= 6).
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateInput

Vec = tuple[Fraction, ...]

DEFAULT_MAX_DIM = 6
MAX_DIM_ENV = "CENTROIDCUT_MAXDIM"


def max_dim() -> int:
    """Dimension cap for hull construction; override with CENTROIDCUT_MAXDIM."""
    raw = os.environ.get(MAX_DIM_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_MAX_DIM


# ---------------------------------------------------------------------------
# rational scalars and vectors


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # floats are binary rationals; conversion is exact
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_fraction(x: Fraction):
    """Render a Fraction as an int or 'p/q' string for JSON output."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def fraction_to_decimal(x: Fraction, digits: int = 12) -> str:
    """Decimal-string rendering of an exact rational, rounded to `digits` places."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}" if digits else f"{sign}{whole}"


def as_point(coords) -> Vec:
    return tuple(as_fraction(c) for c in coords)


def dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vadd(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vscale(s, u) -> Vec:
    return tuple(s * a for a in u)


# ---------------------------------------------------------------------------
# exact integer linear algebra (Bareiss)


def _det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]


def det(rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    irows: list[list[int]] = []
    for row in rows:
        fr = [as_fraction(x) for x in row]
        mult = math.lcm(*(f.denominator for f in fr))
        scale *= mult
        irows.append([int(f * mult) for f in fr])
    return Fraction(_det_int(irows)) / scale


def _int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix via exact elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        for i in range(row + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def _null_normal(ipts: list[tuple[int, ...]], comb: tuple[int, ...]) -> tuple[int, ...] | None:
    """Primitive integer normal of the hyperplane through n integer points.

    Returns None when the points are affinely dependent.
    """
    base = ipts[comb[0]]
    rows = [[ipts[i][j] - base[j] for j in range(len(base))] for i in comb[1:]]
    n = len(base)
    cof = []
    for k in range(n):
        minor = [[row[j] for j in range(n) if j != k] for row in rows]
        d = _det_int(minor) if minor else 1
        cof.append(d if k % 2 == 0 else -d)
    g = math.gcd(*cof)
    if g == 0:
        return None
    return tuple(c // g for c in cof)


# ---------------------------------------------------------------------------
# simplices


@dataclass(frozen=True)
class Simplex:
    """n+1 affinely independent points in R^n."""

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        n = len(self.vertices[0])
        if len(self.vertices) != n + 1:
            raise DegenerateInput("simplex needs n+1 vertices in dimension n")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def volume(self) -> Fraction:
        v0 = self.vertices[0]
        rows = [vsub(v, v0) for v in self.vertices[1:]]
        return abs(det(rows)) / math.factorial(self.dim)

    def centroid(self) -> Vec:
        n1 = len(self.vertices)
        return tuple(sum(v[j] for v in self.vertices) / n1 for j in range(self.dim))


# ---------------------------------------------------------------------------
# facet enumeration


def _hull_facets(ipts: list[tuple[int, ...]], n: int):
    """All facets of conv(ipts) as (outward primitive normal, offset, tight ids).

    Brute force over n-subsets: each affinely independent subset spans a
    candidate hyperplane; a hyperplane is a facet support iff every point lies
    (weakly) on one side.  Candidate hyperplanes are deduplicated before the
    one-sidedness scan.
    """
    m = len(ipts)
    seen: set[tuple] = set()
    facets = []
    for comb in itertools.combinations(range(m), n):
        normal = _null_normal(ipts, comb)
        if normal is None:
            continue
        c = sum(a * b for a, b in zip(normal, ipts[comb[0]]))
        for j in range(n):
            if normal[j] != 0:
                if normal[j] < 0:
                    key = (tuple(-a for a in normal), -c)
                else:
                    key = (normal, c)
                break
        if key in seen:
            continue
        seen.add(key)
        above = below = False
        for p in ipts:
            v = sum(a * b for a, b in zip(normal, p)) - c
            if v > 0:
                above = True
                if below:
                    break
            elif v < 0:
                below = True
                if above:
                    break
        if above and below:
            continue
        if above:  # orient outward: keep normal·x <= offset
            normal = tuple(-a for a in normal)
            c = -c
        tight = tuple(
            i for i, p in enumerate(ipts)
            if sum(a * b for a, b in zip(normal, p)) == c
        )
        facets.append((normal, c, tight))
    return facets


def _integer_lift(points: list[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """Scale rational points to an integer grid; returns (points*L, L)."""
    denoms = [c.denominator for p in points for c in p]
    lcm = math.lcm(*denoms) if denoms else 1
    return [tuple(int(c * lcm) for c in p) for p in points], lcm


def primitive_direction(v) -> tuple[int, ...] | None:
    """Primitive integer vector along a rational vector; None for the zero vector."""
    mult = math.lcm(*(c.denominator for c in v))
    ints = [int(c * mult) for c in v]
    g = math.gcd(*ints)
    if g == 0:
        return None
    return tuple(c // g for c in ints)


def seeded_directions(n: int, seed: int):
    """Endless seeded stream of primitive integer directions from [-997, 997]^n.

    Callers take what they need and apply their own deduplication.
    """
    rng = random.Random(seed)
    while True:
        d = primitive_direction([rng.randint(-997, 997) for _ in range(n)])
        if d is not None:
            yield d


def _triangulate(points: list[Vec], n: int, facets=None) -> list[tuple[int, ...]]:
    """Triangulation (as index tuples) of conv(points), full-dimensional in R^n.

    Deterministic fan: cone the first point over the recursively triangulated
    facets that do not contain it.  Facet triangulations happen in a chart that
    drops the coordinate with the largest normal component; this is a bijection
    on the facet, so only combinatorics (not volumes) pass through the chart.

    `facets`, when given, is the precomputed list of (normal, tight index
    tuple) pairs for conv(points).
    """
    if n == 1:
        lo = min(range(len(points)), key=lambda i: points[i])
        hi = max(range(len(points)), key=lambda i: points[i])
        if points[lo] == points[hi]:
            raise DegenerateInput("zero-length segment")
        return [(lo, hi)]
    if facets is None:
        ipts, _ = _integer_lift(points)
        base = ipts[0]
        if _int_rank([[p[j] - base[j] for j in range(n)] for p in ipts[1:]]) < n:
            raise DegenerateInput("points lie in a proper affine subspace")
        facets = [(normal, tight) for normal, _, tight in _hull_facets(ipts, n)]
    apex = 0
    simplices = []
    for normal, tight in facets:
        if apex in tight:
            continue
        drop = max(range(n), key=lambda j: abs(normal[j]))
        sub_pts = [tuple(points[i][j] for j in range(n) if j != drop) for i in tight]
        for local in _triangulate(sub_pts, n - 1):
            simplices.append((apex,) + tuple(tight[k] for k in local))
    return simplices


# ---------------------------------------------------------------------------
# the polytope type


class Location(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Facet:
    """One facet inequality normal·x <= offset, with its tight vertex ids."""

    normal: tuple[int, ...]
    offset: Fraction
    vertex_ids: tuple[int, ...]


class Polytope:
    """Full-dimensional convex polytope in vertex representation.

    Instances are immutable; the facet list, a deterministic triangulation,
    the exact volume and the exact centroid are all computed (and validated)
    at construction.  Use :func:`convex_hull` to build one.
    """

    __slots__ = ("dim", "vertices", "facets", "triangulation", "volume", "centroid")

    def __init__(self, dim: int, vertices: tuple[Vec, ...], facets: tuple[Facet, ...],
                 triangulation: tuple[Simplex, ...], volume: Fraction, centroid: Vec):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "triangulation", triangulation)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "centroid", centroid)

    def __setattr__(self, name, value):
        raise AttributeError("Polytope is immutable")

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, volume={self.volume})"

    # -- predicates ---------------------------------------------------------

    def contains(self, x) -> Location:
        """Exact classification of a point against the facet inequalities."""
        p = as_point(x)
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        on_boundary = False
        for f in self.facets:
            v = dot(f.normal, p) - f.offset
            if v > 0:
                return Location.OUTSIDE
            if v == 0:
                on_boundary = True
        return Location.BOUNDARY if on_boundary else Location.INTERIOR

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[format_fraction(c) for c in v] for v in self.vertices],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(data: dict) -> "Polytope":
        try:
            dim = int(data["dim"])
            vertices = [as_point(v) for v in data["vertices"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DegenerateInput(f"malformed polytope data: {exc}") from exc
        if any(len(v) != dim for v in vertices):
            raise DegenerateInput("vertex length does not match dim")
        return convex_hull(vertices)

    @staticmethod
    def from_json(text: str) -> "Polytope":
        return Polytope.from_dict(json.loads(text))


def convex_hull(points) -> Polytope:
    """Exact convex hull of rational points spanning R^n.

    Returns the minimal vertex set plus oriented facet list; raises
    DegenerateInput when the points lie in a proper affine subspace.
    """
    pts = []
    seen = set()
    for p in points:
        v = as_point(p)
        if v not in seen:
            seen.add(v)
            pts.append(v)
    if not pts:
        raise DegenerateInput("no points")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DegenerateInput("inconsistent point dimensions")
    cap = max_dim()
    if n > cap:
        raise ValueError(f"dimension {n} exceeds cap {cap} (set {MAX_DIM_ENV} to raise it)")
    if len(pts) < n + 1:
        raise DegenerateInput("need at least n+1 points for a full-dimensional body")

    ipts, lift = _integer_lift(pts)
    base = ipts[0]
    if _int_rank([[p[j] - base[j] for j in range(n)] for p in ipts[1:]]) < n:
        raise DegenerateInput("points lie in a proper affine subspace")

    raw_facets = _hull_facets(ipts, n) if n > 1 else _facets_1d(ipts)

    # vertices: points whose tight facet normals span R^n
    vertex_ids = set()
    for i in range(len(pts)):
        normals = [f[0] for f in raw_facets if i in f[2]]
        if normals and _int_rank([list(g) for g in normals]) == n:
            vertex_ids.add(i)
    vertex_pts = sorted(pts[i] for i in vertex_ids)
    index_of = {p: k for k, p in enumerate(vertex_pts)}

    facets = []
    for normal, c, tight in raw_facets:
        ids = tuple(sorted(index_of[pts[i]] for i in tight if i in vertex_ids))
        if len(ids) < n:
            raise DegenerateInput("facet with fewer than n vertices")
        facets.append(Facet(normal=normal, offset=Fraction(c, lift), vertex_ids=ids))
    facets.sort(key=lambda f: (f.normal, f.offset))

    tri_ids = _triangulate(list(vertex_pts), n,
                           facets=[(f.normal, f.vertex_ids) for f in facets])
    simplices = tuple(Simplex(tuple(vertex_pts[i] for i in ids)) for ids in tri_ids)
    volume = sum((s.volume() for s in simplices), Fraction(0))
    if volume <= 0:
        raise DegenerateInput("zero volume after triangulation")
    centroid = tuple(
        sum((s.volume() * s.centroid()[j] for s in simplices), Fraction(0)) / volume
        for j in range(n)
    )

    poly = Polytope(dim=n, vertices=tuple(vertex_pts), facets=tuple(facets),
                    triangulation=simplices, volume=volume, centroid=centroid)
    if poly.contains(centroid) is not Location.INTERIOR:
        raise DegenerateInput("centroid not strictly interior")
    return poly


def _facets_1d(ipts):
    lo = min(range(len(ipts)), key=lambda i: ipts[i])
    hi = max(range(len(ipts)), key=lambda i: ipts[i])
    lo_t = tuple(i for i in range(len(ipts)) if ipts[i] == ipts[lo])
    hi_t = tuple(i for i in range(len(ipts)) if ipts[i] == ipts[hi])
    return [((-1,), -ipts[lo][0], lo_t), ((1,), ipts[hi][0], hi_t)]


def affine_image(poly: Polytope, matrix, offset=None) -> Polytope:
    """Image of a polytope under an invertible affine map x -> A x + b."""
    n = poly.dim
    rows = [[as_fraction(x) for x in row] for row in matrix]
    b = as_point(offset) if offset is not None else tuple(Fraction(0) for _ in range(n))
    mapped = [
        tuple(dot(rows[i], v) + b[i] for i in range(n))
        for v in poly.vertices
    ]
    return convex_hull(mapped)
