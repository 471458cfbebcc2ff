from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from centroidcut import convex_hull
from centroidcut.generators import BodySpec, make
from centroidcut.verify import fleet_bodies


@pytest.fixture(scope="session")
def square():
    return convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="session")
def triangle():
    return convex_hull([(0, 0), (1, 0), (0, 1)])


@pytest.fixture(scope="session")
def cube3():
    return convex_hull(list(itertools.product((0, 1), repeat=3)))


@pytest.fixture(scope="session")
def simplex3():
    return convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def square_pyramid():
    """Unit square base at z = 0, apex above the base center at height 1."""
    return make(BodySpec(kind="pyramid", n=3))


@pytest.fixture(scope="session")
def fleet200():
    """The acceptance fleet: 200 seeded random hulls, n = 2..4, seed 7."""
    return fleet_bodies(200, (2, 3, 4), 7)


def frac(p, q=1) -> Fraction:
    return Fraction(p, q)
