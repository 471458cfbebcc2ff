"""Static SVG output: profile curves, 2-D bodies and floating-body cuts.

Plain string assembly with fixed-precision coordinates, so identical inputs
render byte-identical documents.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .geometry import Polytope

_W, _H, _PAD = 480.0, 360.0, 40.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
            f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">\n'
            f'{body}\n</svg>\n')


def _scaler(xs: list[float], ys: list[float]):
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = _PAD + (x - x0) / xr * (_W - 2 * _PAD)
        py = _H - _PAD - (y - y0) / yr * (_H - 2 * _PAD)
        return px, py

    return to_px


def _polyline(points: list[tuple[float, float]], color: str, width: float = 1.5,
              close: bool = False) -> str:
    tag = "polygon" if close else "polyline"
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (f'<{tag} points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def profiles_svg(curves: list[tuple[str, list[float], list[float]]]) -> str:
    """Overlay of labelled (grid, values) curves, e.g. profile extremals."""
    palette = ["#1f6fd0", "#d04a1f", "#2e9440", "#8a3fb8", "#b8873f"]
    all_t = [t for _, grid, _ in curves for t in grid]
    all_h = [h for _, _, vals in curves for h in vals] + [0.0]
    to_px = _scaler(all_t, all_h)
    parts = [_polyline([to_px(min(all_t), 0.0), to_px(max(all_t), 0.0)], "#888", 1.0)]
    for i, (label, grid, vals) in enumerate(curves):
        color = palette[i % len(palette)]
        parts.append(_polyline([to_px(t, h) for t, h in zip(grid, vals)], color, 2.0))
        x, y = to_px(grid[-1], vals[-1])
        parts.append(f'<text x="{_fmt(x + 4)}" y="{_fmt(y)}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    return _document(parts)


def _polygon_cycle(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def body_svg(poly: Polytope, approx=None) -> str:
    """A 2-D body, its centroid, and optionally a floating-body approximation."""
    if poly.dim != 2:
        raise ValueError("SVG body rendering is 2-D only")
    verts = [(float(v[0]), float(v[1])) for v in poly.vertices]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    to_px = _scaler(xs, ys)
    parts = [_polyline([to_px(*v) for v in _polygon_cycle(verts)], "#333", 2.0, close=True)]
    cx, cy = to_px(float(poly.centroid[0]), float(poly.centroid[1]))
    parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#d04a1f"/>')
    if approx is not None:
        inner = _approx_polygon(approx)
        if len(inner) >= 3:
            parts.append(_polyline([to_px(*p) for p in _polygon_cycle(inner)],
                                   "#1f6fd0", 1.5, close=True))
        elif inner:
            px, py = to_px(*inner[0])
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2" fill="#1f6fd0"/>')
    return _document(parts)


def _approx_polygon(approx) -> list[tuple[float, float]]:
    """Vertices of a 2-D halfspace intersection, exactly filtered."""
    cuts = approx.cuts
    pts: list[tuple[float, float]] = []
    seen = set()
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            a1, b1 = cuts[i].theta
            a2, b2 = cuts[j].theta
            det = Fraction(a1) * b2 - Fraction(a2) * b1
            if det == 0:
                continue
            x = (cuts[i].hi * b2 - cuts[j].hi * b1) / det
            y = (Fraction(a1) * cuts[j].hi - Fraction(a2) * cuts[i].hi) / det
            if all(c.theta[0] * x + c.theta[1] * y <= c.hi for c in cuts):
                key = (x, y)
                if key not in seen:
                    seen.add(key)
                    pts.append((float(x), float(y)))
    return pts
