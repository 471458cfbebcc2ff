"""Deterministic and seeded constructors for test bodies.

Every generator returns the exact ``Polytope`` of its recipe.  Pyramids
put the base at height zero and the apex above it, so the last axis is
their base normal: the cut through the centroid along it realizes the
ratio (1+1/n)^n - 1 exactly, and its apex side holds exactly the fraction
(1+1/n)^-n of the volume.  The profile-to-body constructor turns a
piecewise-linear concave profile h on [t0, t1] into a polytope whose
section function along the last axis is h^(n-1) at every rational grid
point.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSpec, BadValue, DegenerateInput
from .geometry import Polytope, Vec, as_fraction, as_point, convex_hull

_BODY_KINDS = ("simplex", "cube", "cross", "pyramid", "random-hull", "profile-body")
_BASE_KINDS = ("cube", "simplex", "cross", "random-hull")

RANDOM_COORD_RANGE = 16
RANDOM_DENOM_CAP = 8  # well under the 2^16 blowup guard
RANDOM_HULL_ATTEMPTS = 100  # seeded draws before random_hull gives up


@dataclass(frozen=True)
class BodySpec:
    """Recipe for a test body; serializable for the CLI."""

    kind: str
    n: int
    m: int = 10
    seed: int = 0
    height: str = "1"
    base: str = "cube"
    apex: tuple | None = None
    profile: tuple | None = None  # ((t0, t1, ...), (h0, h1, ...)) as 'p/q' strings

    def __post_init__(self):
        if self.kind not in _BODY_KINDS:
            raise BadSpec(f"unknown body kind {self.kind!r}; choose from {_BODY_KINDS}")
        if self.n < 1:
            raise BadSpec("dimension must be >= 1")
        if self.kind == "pyramid" and self.base not in _BASE_KINDS:
            raise BadSpec(f"unknown pyramid base {self.base!r}")
        if self.kind == "pyramid" and self.base == "random-hull" and self.m < self.n:
            raise BadSpec("random-hull pyramid base needs at least n points")
        if self.kind == "random-hull" and self.m < self.n + 1:
            raise BadSpec("random hull needs at least n+1 points")
        if self.kind == "profile-body" and self.profile is None:
            raise BadSpec("profile-body needs a profile")

    @staticmethod
    def from_dict(data: dict) -> "BodySpec":
        try:
            n, m, seed = data["n"], data.get("m", 10), data.get("seed", 0)
            if not all(type(v) is int for v in (n, m, seed)):
                raise ValueError(f"n, m and seed must be integers, got {n!r}, {m!r}, {seed!r}")
            return BodySpec(
                kind=data["kind"], n=n, m=m, seed=seed, height=str(data.get("height", "1")),
                base=data.get("base", "cube"),
                apex=tuple(data["apex"]) if "apex" in data else None,
                profile=(tuple(data["profile"][0]), tuple(data["profile"][1]))
                if "profile" in data else None,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadSpec(f"malformed body spec: {exc}") from exc


def simplex_body(n: int) -> list[Vec]:
    pts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        pts.append(tuple(e))
    return pts


def cube_body(n: int) -> list[Vec]:
    return [tuple(map(Fraction, c)) for c in itertools.product((0, 1), repeat=n)]


def cross_body(n: int) -> list[Vec]:
    pts = []
    for i in range(n):
        for s in (1, -1):
            e = [Fraction(0)] * n
            e[i] = Fraction(s)
            pts.append(tuple(e))
    return pts


def random_hull(n: int, m: int, seed: int) -> Polytope:
    """Hull of m seeded points with small-denominator rational coordinates."""
    rng = random.Random(seed)
    last_error: Exception | None = None
    for _ in range(RANDOM_HULL_ATTEMPTS):
        pts = [
            tuple(Fraction(rng.randint(-RANDOM_COORD_RANGE, RANDOM_COORD_RANGE),
                           rng.randint(1, RANDOM_DENOM_CAP)) for _ in range(n))
            for _ in range(m)
        ]
        try:
            return convex_hull(pts)
        except DegenerateInput as exc:
            last_error = exc
    raise DegenerateInput(
        f"no full-dimensional draw in {RANDOM_HULL_ATTEMPTS} attempts: {last_error}")


def _base_points(kind: str, n_base: int, seed: int, m: int) -> list[Vec]:
    if kind == "cube":
        return cube_body(n_base)
    if kind == "simplex":
        return simplex_body(n_base)
    if kind == "cross":
        return cross_body(n_base)
    return list(random_hull(n_base, m, seed).vertices)


def pyramid_body(spec: BodySpec) -> Polytope:
    """conv({apex} ∪ base) with the base embedded at height zero."""
    n = spec.n
    if n < 2:
        raise BadSpec("pyramid needs dimension >= 2")
    height = as_fraction(spec.height)
    if height <= 0:
        raise BadSpec("apex height must be positive")
    base = _base_points(spec.base, n - 1, spec.seed, spec.m)
    if spec.apex is not None:
        if len(spec.apex) != n - 1:
            raise BadSpec("apex offset must have n-1 coordinates")
        lateral = as_point(spec.apex)
    else:
        lateral = tuple(
            sum(p[j] for p in base) / len(base) for j in range(n - 1)
        )
    pts = [p + (Fraction(0),) for p in base]
    pts.append(lateral + (height,))
    return convex_hull(pts)


def profile_body(spec: BodySpec) -> Polytope:
    """Profile sweep construction: h(t) * B0 stacked along the last axis.

    B0 is the unit (n-1)-cube centered at the origin (unit volume, contains
    zero), so the section profile along the axis reproduces h^(n-1) exactly
    and the vertices stay rational.
    """
    n = spec.n
    if n < 2:
        raise BadSpec("profile body needs dimension >= 2")
    grid = [as_fraction(t) for t in spec.profile[0]]
    values = [as_fraction(h) for h in spec.profile[1]]
    if len(grid) != len(values) or len(grid) < 2:
        raise BadSpec("profile grid/values must match and have length >= 2")
    if any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
        raise BadSpec("profile grid must increase strictly")
    if any(h < 0 for h in values) or all(h == 0 for h in values):
        raise BadSpec("profile must be nonnegative and somewhere positive")
    slopes = [(h2 - h1) / (t2 - t1) for (t1, h1), (t2, h2)
              in zip(zip(grid, values), zip(grid[1:], values[1:]))]
    if any(s2 > s1 for s1, s2 in zip(slopes, slopes[1:])):
        raise BadSpec("profile must be concave for the sweep to be convex")

    half = Fraction(1, 2)
    corners = list(itertools.product((-half, half), repeat=n - 1))
    pts = []
    for t, h in zip(grid, values):
        if h == 0:
            pts.append(tuple([Fraction(0)] * (n - 1) + [t]))
        else:
            for c in corners:
                pts.append(tuple(h * x for x in c) + (t,))
    return convex_hull(pts)


def make(spec: BodySpec) -> Polytope:
    """Build the body a spec describes."""
    n = spec.n
    if spec.kind == "simplex":
        return convex_hull(simplex_body(n))
    if spec.kind == "cube":
        return convex_hull(cube_body(n))
    if spec.kind == "cross":
        return convex_hull(cross_body(n))
    if spec.kind == "pyramid":
        return pyramid_body(spec)
    if spec.kind == "profile-body":
        return profile_body(spec)
    return random_hull(n, spec.m, spec.seed)


def fleet_specs(count: int, dims: tuple[int, ...], seed: int) -> list[BodySpec]:
    """Deterministic random-hull fleet spread over the requested dimensions."""
    if count < 1:
        raise BadValue(f"body count must be positive, got {count}")
    specs = []
    for i in range(count):
        n = dims[i % len(dims)]
        specs.append(BodySpec(kind="random-hull", n=n, m=n + 5 + (i % 4),
                              seed=seed * 100003 + i))
    return specs
