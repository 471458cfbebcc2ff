from __future__ import annotations

from fractions import Fraction

from centroidcut import floating_body_approx
from centroidcut.svgplot import body_svg, profiles_svg

F = Fraction


def test_body_svg_with_floating_approx(square):
    approx = floating_body_approx(square, F(1, 4), directions="axes")
    doc = body_svg(square, approx)
    assert doc.count("polygon") >= 2  # body outline + inner approximation
    assert "circle" in doc  # centroid marker


def test_profiles_overlay():
    doc = profiles_svg([
        ("min", [0.0, 1.0], [1.0, 0.0]),
        ("max", [0.0, 0.6], [1.0, 1.0]),
    ])
    assert doc.startswith("<svg ")
    assert doc.count("<text") == 2
