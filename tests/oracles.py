"""Independent exact routes used only as test oracles.

The library computes cut volumes with the frustum recursion and section
values as derivatives of the piecewise-polynomial cumulative volume.  The
routes here reach the same numbers geometrically: clipping a simplex by a
halfspace, and hulling the edge crossings of a slice.  The tests compare the
two as rationals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from centroidcut.errors import DegenerateInput
from centroidcut.geometry import (
    Polytope,
    Simplex,
    Vec,
    _triangulate,
    as_fraction,
    as_point,
    det,
    dot,
    vsub,
)


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
        return dot(self.normal, x) - self.offset


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
    projs = [dot(th, v) for v in poly.vertices]
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
