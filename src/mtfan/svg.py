"""SVG rendering of two-dimensional stability fans.

Geometry is clipped with exact rational arithmetic; floats appear only when
coordinates are formatted into the SVG text.
"""
from __future__ import annotations

from fractions import Fraction

from .exact import dot

DEFAULT_SIZE = 440  # canvas width and height in pixels

_FILLS = (
    "#c6dbef",
    "#fdd0a2",
    "#c7e9c0",
    "#fcbba1",
    "#dadaeb",
    "#fff7bc",
    "#d9d9d9",
    "#d4b9da",
)
_WORLD = Fraction(6, 5)


def _clip_halfplane(poly, normal):
    """Sutherland-Hodgman clip of a convex polygon to normal . x >= 0."""
    out = []
    k = len(poly)
    for i in range(k):
        cur = poly[i]
        nxt = poly[(i + 1) % k]
        vc = dot(normal, cur)
        vn = dot(normal, nxt)
        if vc >= 0:
            out.append(cur)
        if (vc > 0 > vn) or (vc < 0 < vn):
            t = vc / (vc - vn)
            out.append(tuple(c + t * (b - c) for c, b in zip(cur, nxt)))
    return out


def _cone_polygon(cone):
    """A maximal cone clipped to the world box: it has no equations."""
    poly = [
        (-_WORLD, -_WORLD),
        (_WORLD, -_WORLD),
        (_WORLD, _WORLD),
        (-_WORLD, _WORLD),
    ]
    for normal in cone.ineqs:
        poly = _clip_halfplane(poly, normal)
    return poly


def _to_box_edge(direction):
    m = max(abs(direction[0]), abs(direction[1]))
    s = _WORLD / m
    return (direction[0] * s, direction[1] * s)


class _Canvas:
    def __init__(self, size):
        self.size = size
        self.margin = Fraction(size, 22)
        self.inner = size - 2 * self.margin

    def point(self, world):
        x = self.margin + (world[0] + _WORLD) / (2 * _WORLD) * self.inner
        y = self.margin + (_WORLD - world[1]) / (2 * _WORLD) * self.inner
        return f"{float(x):.2f}", f"{float(y):.2f}"

    def polygon_attr(self, poly):
        return " ".join(",".join(self.point(v)) for v in poly)


def check_rank(n):
    """Raise ValueError unless n = 2: only rank-two fans are drawn."""
    if n != 2:
        raise ValueError(f"SVG rendering needs a rank-two fan, got rank {n}")


def render_svg(mtf, size=DEFAULT_SIZE):
    """Render a complete picture of a rank-two fan as an SVG string.

    Maximal cones are shaded, one-dimensional cones drawn as rays or lines
    through the origin, and every cone labelled by its index in the fan.
    """
    check_rank(mtf.n)
    canvas = _Canvas(size)
    dims = tuple(mtf.module.dims)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f"<title>stability fan for dimension vector {dims}, "
        f"p={mtf.module.algebra.p}</title>",
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    labels = []

    for pos, idx in enumerate(mtf.maximal_indices()):
        cone = mtf.cones[idx]
        poly = _cone_polygon(cone)
        fill = _FILLS[pos % len(_FILLS)]
        parts.append(
            f'<polygon points="{canvas.polygon_attr(poly)}" fill="{fill}" '
            'stroke="none"/>'
        )
        cx = sum(v[0] for v in poly) / len(poly)
        cy = sum(v[1] for v in poly) / len(poly)
        labels.append(((cx, cy), f"C{idx}"))

    ox, oy = canvas.point((0, 0))
    for idx, cone in enumerate(mtf.cones):
        if cone.dim != 1:
            continue
        segments = [(r, False) for r in cone.rays]
        segments.extend((l, True) for l in cone.lineality)
        for direction, both_ways in segments:
            end = _to_box_edge(direction)
            ex, ey = canvas.point(end)
            if both_ways:
                sx, sy = canvas.point((-end[0], -end[1]))
            else:
                sx, sy = ox, oy
            parts.append(
                f'<line x1="{sx}" y1="{sy}" x2="{ex}" y2="{ey}" '
                'stroke="#333333" stroke-width="1.6"/>'
            )
            lx = end[0] * Fraction(9, 10)
            ly = end[1] * Fraction(9, 10)
            labels.append(((lx, ly), f"C{idx}"))

    for idx, cone in enumerate(mtf.cones):
        if cone.dim == 0:
            parts.append(f'<circle cx="{ox}" cy="{oy}" r="3" fill="#333333"/>')
            labels.append(((Fraction(1, 10), Fraction(1, 10)), f"C{idx}"))

    for (wx, wy), text in labels:
        tx, ty = canvas.point((wx, wy))
        parts.append(
            f'<text x="{tx}" y="{ty}" font-size="12" '
            f'font-family="sans-serif" fill="#111111">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
