"""Exact rational geometry for convex polytopes in low dimension.

Everything here is computed over arbitrary-precision rationals
(``fractions.Fraction``) and integers; no floating point enters any
predicate, volume or centroid.  The hull's facets are the extreme rays of
one integer cone, found by a double-description pass with no general-position
assumption; its work grows with the rays met on the way, not with the
C(m, n) subsets of the m input points.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BadValue, DegenerateInput

Vec = tuple[Fraction, ...]

DEFAULT_MAX_DIM = 6
MAX_DIM_ENV = "CENTROIDCUT_MAXDIM"


def max_dim() -> int:
    """Dimension cap for hull construction; override with CENTROIDCUT_MAXDIM,
    which must then be a positive integer."""
    raw = os.environ.get(MAX_DIM_ENV)
    if not raw:
        return DEFAULT_MAX_DIM
    if not raw.isdecimal() or int(raw) < 1:
        raise BadValue(f"{MAX_DIM_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# rational scalars and vectors


def as_fraction(x) -> Fraction:
    """Coerce ints (not bools), finite floats, Fractions and 'p/q' strings to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise BadValue(f"cannot interpret {x!r} as a rational number") from None
    if isinstance(x, float) and math.isfinite(x):
        # finite floats are binary rationals; conversion is exact
        return Fraction(x)
    raise BadValue(f"cannot interpret {x!r} as a rational number")


def format_fraction(x: Fraction):
    """Render a Fraction as an int or 'p/q' string for JSON output."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def as_point(coords) -> Vec:
    return tuple(as_fraction(c) for c in coords)


def lift(v) -> tuple[list[int], int]:
    """Integer coordinates X and L, the lcm of the denominators, with v = X / L.

    Reads ``numerator`` and ``denominator``, so v holds ints or Fractions.
    """
    lcm = math.lcm(*(c.denominator for c in v))
    return [c.numerator * (lcm // c.denominator) for c in v], lcm


def dot(u, v) -> Fraction:
    """Exact u·v: one integer sum over the two lifts, normalized once."""
    (a, la), (b, lb) = lift(u), lift(v)
    return Fraction(sum(map(operator.mul, a, b)), la * lb)


def vsub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# exact integer linear algebra: one fraction-free pivot (Bareiss 1968)


def exchange(rows: list[list[int]], r: int, k: int, prev: int) -> int:
    """Integer-preserving pivot on rows[r][k]: every other row becomes
    (row * p - row[k] * rows[r]) / prev, which zeroes column k.

    `prev` is the previous pivot (1 at the start).  Every entry is then a
    minor of the starting matrix, so the division is exact (Edmonds 1967).
    Returns the pivot p.
    """
    p, pivot_row = rows[r][k], rows[r]
    for i, row in enumerate(rows):
        if i != r:
            f = row[k]
            rows[i] = [(a * p - f * b) // prev for a, b in zip(row, pivot_row)]
    return p


def _gauss_jordan(rows: list) -> tuple[list[tuple[int, int]], int]:
    """Fraction-free Gauss-Jordan reduction of an integer matrix, in place
    (the list's rows are replaced, never mutated).

    Columns are taken left to right, each pivoting on its first unused row
    with a nonzero entry.  Returns the (row, column) pivots and the last
    pivot d: each pivot row then holds d in its own pivot column and 0 in the
    others, and every other row is zero.
    """
    pivots: list[tuple[int, int]] = []
    unused = list(range(len(rows)))
    last = 1
    for k in range(len(rows[0]) if rows else 0):
        r = next((i for i in unused if rows[i][k]), None)
        if r is not None:
            last = exchange(rows, r, k, last)
            pivots.append((r, k))
            unused.remove(r)
    return pivots, last


def _det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (reduced in place): the
    last pivot, signed by the parity of the pivot rows' order."""
    pivots, last = _gauss_jordan(rows)
    if len(pivots) < len(rows):
        return 0
    inversions = sum(a > b for (a, _), (b, _) in itertools.combinations(pivots, 2))
    return -last if inversions % 2 else last


def _normal(rows: list[list[int]]) -> tuple[int, ...] | None:
    """Primitive integer vector spanning the kernel of an (n-1) x n integer
    matrix (reduced in place), up to sign; None when the rank is below n-1.

    With x_f = d on the one free column f, each pivot row (d in column k,
    m in column f) gives x_k = -m.
    """
    pivots, last = _gauss_jordan(rows)
    n = len(rows[0])
    if len(pivots) < n - 1:
        return None
    free = (set(range(n)) - {k for _, k in pivots}).pop()
    x = [0] * n
    x[free] = last
    for r, k in pivots:
        x[k] = -rows[r][free]
    g = math.gcd(*x)
    return tuple(c // g for c in x)


# ---------------------------------------------------------------------------
# facet enumeration


def _affine_basis(pts: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Positions of the greedy (so lexicographically first) affine basis of
    `pts`: 0 and the Gauss-Jordan pivot columns of the differences to pts[0]."""
    cols = [[p[j] - b for p in pts[1:]] for j, b in enumerate(pts[0])]
    return (0,) + tuple(k + 1 for _, k in _gauss_jordan(cols)[0])


def _hull_facets(ipts: list[tuple[int, ...]]):
    """All facets of conv(ipts) as (outward primitive normal, offset, tight ids).

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): the
    facets (a, -c) are the extreme rays of the cone {y : y·(p, 1) <= 0 for
    every point p}.  The pass starts from the simplicial cone of the greedy
    affine basis and adds the other points in index order, keeping the rays
    on each new point's side and joining every adjacent pair across it: two
    rays are adjacent when their common zero set (a bit mask of point ids)
    has at least n-1 points and lies in no third ray's zero set.

    The facets come in the order of each facet's greedy affine basis, which
    is the order in which a lexicographic scan of n-subsets meets them.
    Raises DegenerateInput when the points lie in a proper affine subspace.
    """
    n = len(ipts[0])
    start = _affine_basis(ipts)
    if len(start) <= n:
        raise DegenerateInput("points lie in a proper affine subspace")
    lifted = [p + (1,) for p in ipts]
    rays = []  # (primitive y, zero set)
    for i in start:
        y = _normal([list(lifted[j]) for j in start if j != i])
        if sum(a * b for a, b in zip(y, lifted[i])) > 0:
            y = tuple(-a for a in y)
        rays.append((y, sum(1 << j for j in start if j != i)))
    for i in sorted(set(range(len(ipts))) - set(start)):
        bit = 1 << i
        vals = [sum(a * b for a, b in zip(y, lifted[i])) for y, _ in rays]
        minus = [b for b, v in enumerate(vals) if v < 0]
        kept = [(y, z | bit if v == 0 else z) for (y, z), v in zip(rays, vals) if v <= 0]
        for a in (a for a, v in enumerate(vals) if v > 0):
            for b in minus:
                common = rays[a][1] & rays[b][1]
                if common.bit_count() < n - 1 or any(
                        common & z == common for k, (_, z) in enumerate(rays) if k not in (a, b)):
                    continue
                y = [vals[a] * s - vals[b] * t for s, t in zip(rays[b][0], rays[a][0])]
                g = math.gcd(*y)
                kept.append((tuple(c // g for c in y), common | bit))
        rays = kept
    facets = []
    for y, z in rays:
        tight = tuple(i for i in range(len(ipts)) if z >> i & 1)
        basis = tuple(tight[k] for k in _affine_basis([ipts[i] for i in tight]))
        facets.append((basis, (y[:n], -y[n], tight)))
    facets.sort()
    return [f for _, f in facets]


def _integer_lift(points: list[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """Scale rational points to an integer grid; returns (points*L, L)."""
    denoms = [c.denominator for p in points for c in p]
    lcm = math.lcm(*denoms) if denoms else 1
    return [tuple(int(c * lcm) for c in p) for p in points], lcm


def primitive_direction(v) -> tuple[int, ...] | None:
    """Primitive integer vector along a rational vector; None for the zero vector."""
    ints = lift(v)[0]
    g = math.gcd(*ints)
    if g == 0:
        return None
    return tuple(c // g for c in ints)


def seeded_directions(n: int, seed: int):
    """Seeded stream of primitive integer directions from [-997, 997]^n.

    Endless for n >= 2.  R^1 has only the two unit directions, so there the
    stream ends once it has drawn both.  Repeats are not removed; see
    :func:`distinct_directions`.
    """
    rng = random.Random(seed)
    units = {(1,), (-1,)}
    while n > 1 or units:
        d = primitive_direction([rng.randint(-997, 997) for _ in range(n)])
        if d is not None:
            units.discard(d)
            yield d


def distinct_directions(vectors, count: int | None = None,
                        signed: bool = True) -> list[tuple[int, ...]]:
    """Primitive integer directions of `vectors`, in order, without repeats.

    Zero vectors are dropped.  With signed=False, d and -d are the same
    direction and the first one met is kept.  At most `count` directions are
    taken, so `vectors` may be an endless stream when `count` is given.
    """
    out: list[tuple[int, ...]] = []
    seen = set()
    for v in vectors:
        if count is not None and len(out) >= count:
            break
        d = primitive_direction(v)
        if d is None or d in seen:
            continue
        out.append(d)
        seen.add(d)
        if not signed:
            seen.add(tuple(-c for c in d))
    return out


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
        facets = [(normal, tight) for normal, _, tight in _hull_facets(_integer_lift(points)[0])]
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


@dataclass(frozen=True, slots=True)
class Facet:
    """One facet inequality normal·x <= offset, with its tight vertex ids."""

    normal: tuple[int, ...]
    offset: Fraction
    vertex_ids: tuple[int, ...]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Polytope:
    """Full-dimensional convex polytope in vertex representation.

    Instances are immutable; the facet list, the cell table of a deterministic
    triangulation, the exact volume and the exact centroid are all computed
    (and validated) at construction.  Each cell is (exact volume, vertex-index
    tuple).  Use :func:`convex_hull` to build one.
    """

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    cells: tuple[tuple[Fraction, tuple[int, ...]], ...]
    volume: Fraction
    centroid: Vec

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, volume={self.volume})"

    @property
    def triangulation(self) -> tuple[tuple[Vec, ...], ...]:
        """The vertex coordinates of each cell, in cell order."""
        return tuple(tuple(self.vertices[i] for i in ids) for _, ids in self.cells)

    # -- predicates ---------------------------------------------------------

    def contains(self, x) -> Location:
        """Exact classification of a point against the facet inequalities.

        With x = X / L, normal·x - c/d has the sign of normal·X·d - c·L, so
        each facet is one integer comparison.
        """
        p = as_point(x)
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        xs, scale = lift(p)
        on_boundary = False
        for f in self.facets:
            c = f.offset
            v = sum(map(operator.mul, f.normal, xs)) * c.denominator - c.numerator * scale
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

    @staticmethod
    def from_dict(data: dict) -> "Polytope":
        try:
            dim = data["dim"]
            if type(dim) is not int or dim < 1:
                raise ValueError(f"dim must be a positive integer, got {dim!r}")
            vertices = [as_point(v) for v in data["vertices"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DegenerateInput(f"malformed polytope data: {exc}") from exc
        if any(len(v) != dim for v in vertices):
            raise DegenerateInput("vertex length does not match dim")
        return convex_hull(vertices)


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
    if n < 1:
        raise DegenerateInput("points need dimension >= 1")
    if any(len(p) != n for p in pts):
        raise DegenerateInput("inconsistent point dimensions")
    cap = max_dim()
    if n > cap:
        raise BadValue(f"dimension {n} exceeds cap {cap} (set {MAX_DIM_ENV} to raise it)")
    if len(pts) < n + 1:
        raise DegenerateInput("need at least n+1 points for a full-dimensional body")

    ipts, scale = _integer_lift(pts)
    raw_facets = _hull_facets(ipts)

    # vertices: points that the facets through them meet in no other point
    common = [-1] * len(pts)
    for _, _, tight in raw_facets:
        mask = sum(1 << i for i in tight)
        for i in tight:
            common[i] &= mask
    vertex_ids = {i for i, c in enumerate(common) if c == 1 << i}
    vertex_pts = sorted(pts[i] for i in vertex_ids)
    index_of = {p: k for k, p in enumerate(vertex_pts)}

    facets = []
    for normal, c, tight in raw_facets:
        ids = tuple(sorted(index_of[pts[i]] for i in tight if i in vertex_ids))
        if len(ids) < n:
            raise DegenerateInput("facet with fewer than n vertices")
        facets.append(Facet(normal=normal, offset=Fraction(c, scale), vertex_ids=ids))
    facets.sort(key=lambda f: (f.normal, f.offset))

    tri_ids = _triangulate(list(vertex_pts), n,
                           facets=[(f.normal, f.vertex_ids) for f in facets])
    # one integer determinant D per cell of the lifted vertices: the cell
    # volume is |D| / (scale^n n!), the centroid the |D|-weighted cell centroid
    vint, scale = _integer_lift(vertex_pts)
    dets = [abs(_det_int([[a - b for a, b in zip(vint[i], vint[ids[0]])] for i in ids[1:]]))
            for ids in tri_ids]
    total = sum(dets)
    if total == 0:
        raise DegenerateInput("zero volume after triangulation")
    unit = scale**n * math.factorial(n)
    cells = tuple((Fraction(d, unit), ids) for d, ids in zip(dets, tri_ids))
    centroid = tuple(
        Fraction(sum(d * sum(vint[i][j] for i in ids) for d, ids in zip(dets, tri_ids)),
                 (n + 1) * scale * total) for j in range(n))

    poly = Polytope(dim=n, vertices=tuple(vertex_pts), facets=tuple(facets),
                    cells=cells, volume=Fraction(total, unit), centroid=centroid)
    if poly.contains(centroid) is not Location.INTERIOR:
        raise DegenerateInput("centroid not strictly interior")
    return poly


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
