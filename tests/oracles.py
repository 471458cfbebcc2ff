"""Independent exact routes used only as test oracles.

The library builds the cumulative volume along a direction from truncated
powers placed at the vertex projections, and takes section values as
derivatives of its polynomial pieces.  The routes here reach the same
numbers otherwise: the frustum recursion (Varsi 1973) run in rationals on
each simplex, clipping a simplex by a halfspace, and hulling the edge
crossings of a slice.  A `Simplex` gets its volume from its own rational
determinant, a second route to the cell volumes of ``Polytope.cells``.  The
tests compare the routes as rationals.  The library finds hull facets by
double description; the brute-force scan over all n-subsets here finds the
same list, order included.  The library's dot products and point tests
run on integers over one common denominator; `fraction_dot` and
`fraction_contains` are the same in `Fraction` arithmetic.  The profile
engine integrates a batch of segments block by block, in place;
`segment_quad_one_pass` is the same Gauss-Legendre pass over the whole batch
at once, whose every float must match.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from centroidcut.errors import DegenerateInput
from centroidcut.geometry import (
    Location,
    Polytope,
    Vec,
    _det_int,
    _integer_lift,
    _normal,
    _triangulate,
    as_fraction,
    as_point,
    vsub,
)
from centroidcut.profiles import _gauss_rule


def fraction_dot(u, v):
    """u·v as a term-by-term sum of products, the route ``geometry.dot``
    replaces with one integer sum over a common denominator."""
    return sum(a * b for a, b in zip(u, v))


def fraction_contains(poly: Polytope, x) -> Location:
    """Classify x by the sign of the rational normal·x - offset per facet."""
    p = as_point(x)
    on_boundary = False
    for f in poly.facets:
        v = fraction_dot(f.normal, p) - f.offset
        if v > 0:
            return Location.OUTSIDE
        if v == 0:
            on_boundary = True
    return Location.BOUNDARY if on_boundary else Location.INTERIOR


def segment_quad_one_pass(t0, t1, h0, h1, n):
    """Gauss-Legendre (masses, moments) of h^(n-1) and t h^(n-1) over linear
    segments, each node applied to the whole broadcast batch at once."""
    t0, t1, h0, h1 = (np.asarray(a, dtype=float) for a in (t0, t1, h0, h1))
    half = (t1 - t0) / 2.0
    mid = (t1 + t0) / 2.0
    mass = mom = np.zeros(np.broadcast(t0, t1, h0, h1).shape)
    nodes, weights = _gauss_rule(n)
    for x, w in zip(nodes, weights):
        t = mid + half * x
        lam = (x + 1.0) / 2.0
        h = h0 + (h1 - h0) * lam
        f = h ** (n - 1)
        mass = mass + w * f
        mom = mom + w * (t * f)
    return mass * half, mom * half


def det(rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    ints, lift = _integer_lift([as_point(row) for row in rows])
    return Fraction(_det_int(ints), lift ** len(ints))


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


def scan_hull_facets(ipts: list[tuple[int, ...]]):
    """All facets of conv(ipts) as (outward primitive normal, offset, tight ids).

    Brute force over n-subsets in lexicographic order: each affinely
    independent subset spans a candidate hyperplane, which is a facet support
    iff every point lies (weakly) on one side.  Candidate hyperplanes are
    deduplicated before the one-sidedness scan.  On points in a proper affine
    subspace the list is empty or one "facet" holds every point.
    """
    m, n = len(ipts), len(ipts[0])
    seen: set[tuple] = set()
    facets = []
    for comb in itertools.combinations(range(m), n):
        base = ipts[comb[0]]
        normal = _normal([[a - b for a, b in zip(ipts[i], base)] for i in comb[1:]])
        if normal is None:
            continue
        c = sum(a * b for a, b in zip(normal, base))
        sign = next(1 if a > 0 else -1 for a in normal if a != 0)
        key = (tuple(sign * a for a in normal), sign * c)
        if key in seen:
            continue
        seen.add(key)
        vals = [sum(a * b for a, b in zip(normal, p)) - c for p in ipts]
        if max(vals) > 0 and min(vals) < 0:
            continue
        if max(vals) > 0:  # orient outward: keep normal·x <= offset
            normal, c = tuple(-a for a in normal), -c
        facets.append((normal, c, tuple(i for i, v in enumerate(vals) if v == 0)))
    return facets


@dataclass(frozen=True)
class Halfspace:
    """The set {x : normal·x <= offset}; the normal need not be unit."""

    normal: Vec
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("halfspace normal must be nonzero")

    @staticmethod
    def make(normal, offset) -> "Halfspace":
        return Halfspace(as_point(normal), as_fraction(offset))

    def value(self, x) -> Fraction:
        return fraction_dot(self.normal, x) - self.offset


def simplex_cut_fraction(values) -> Fraction:
    """Fraction of a simplex lying in {l <= 0} given vertex values l(v_i).

    Frustum recursion over the positive values a_i and the magnitudes b_j of
    the negative values:

        V[0][j] = 1,   V[i][0] = 0,
        V[i][j] = (b_j V[i-1][j] + a_i V[i][j-1]) / (a_i + b_j)

    and the answer is V[p][q].  Exact in rational arithmetic; vertex values
    equal to zero contribute nothing and are dropped.
    """
    pos = [as_fraction(v) for v in values if v > 0]
    neg = [-as_fraction(v) for v in values if v < 0]
    if not pos:
        return Fraction(1)
    if not neg:
        return Fraction(0)
    row = [Fraction(1)] * (len(neg) + 1)
    for a in pos:
        row[0] = Fraction(0)
        for j, b in enumerate(neg, start=1):
            row[j] = (b * row[j] + a * row[j - 1]) / (a + b)
    return row[-1]


def clip_simplex(simplex: Simplex, half: Halfspace) -> list[Simplex]:
    """Triangulation of simplex ∩ halfspace; empty iff the piece has zero n-volume."""
    vals = [half.value(v) for v in simplex.vertices]
    if all(v <= 0 for v in vals):
        return [simplex]
    if all(v >= 0 for v in vals):
        return []
    pts: list[Vec] = [v for v, val in zip(simplex.vertices, vals) if val <= 0]
    for (i, vi), (j, vj) in itertools.combinations(enumerate(vals), 2):
        if (vi < 0 < vj) or (vj < 0 < vi):
            p, q = simplex.vertices[i], simplex.vertices[j]
            lam = vi / (vi - vj)  # lies strictly in (0, 1)
            pts.append(tuple(a + lam * (b - a) for a, b in zip(p, q)))
    tri = _triangulate(pts, simplex.dim)
    return [Simplex(tuple(pts[k] for k in ids)) for ids in tri]


def polytope_edges(poly: Polytope) -> list[tuple[int, int]]:
    """Vertex-index pairs forming the 1-faces, from facet incidences."""
    tight_sets = [frozenset(f.vertex_ids) for f in poly.facets]
    by_vertex = [frozenset(k for k, t in enumerate(tight_sets) if i in t)
                 for i in range(len(poly.vertices))]
    edges = []
    for i, j in itertools.combinations(range(len(poly.vertices)), 2):
        common = by_vertex[i] & by_vertex[j]
        if not common:
            continue
        face = frozenset.intersection(*(tight_sets[k] for k in common))
        if face == {i, j}:
            edges.append((i, j))
    return edges


def slice_hull_section(poly: Polytope, theta, t) -> Fraction:
    """Slice measure f(t) from the hull of the slice's edge crossings.

    Same normalization as ``slicing.section_value`` (the integral of f over
    raw projection values is vol(K)): the slice is hulled in a chart that
    drops the largest normal component and its area divided by that
    component.  Returns 0 outside the support and the closed-slice value at
    its endpoints.
    """
    th = as_point(theta)
    t = as_fraction(t)
    n = poly.dim
    projs = [fraction_dot(th, v) for v in poly.vertices]
    if t < min(projs) or t > max(projs):
        return Fraction(0)
    k = max(range(n), key=lambda idx: (abs(th[idx]), -idx))
    if n == 1:
        return 1 / abs(th[k])
    pts: list[Vec] = [v for v, p in zip(poly.vertices, projs) if p == t]
    for i, j in polytope_edges(poly):
        pi, pj = projs[i], projs[j]
        if (pi < t < pj) or (pj < t < pi):
            lam = (t - pi) / (pj - pi)
            u, w = poly.vertices[i], poly.vertices[j]
            pts.append(tuple(a + lam * (b - a) for a, b in zip(u, w)))
    if len(pts) < n:
        return Fraction(0)
    chart = [tuple(p[j] for j in range(n) if j != k) for p in pts]
    try:
        tri = _triangulate(chart, n - 1)
    except DegenerateInput:
        return Fraction(0)
    fact = math.factorial(n - 1)
    vol = Fraction(0)
    for ids in tri:
        base = chart[ids[0]]
        rows = [vsub(chart[i], base) for i in ids[1:]]
        vol += abs(det(rows)) / fact
    return vol / abs(th[k])
