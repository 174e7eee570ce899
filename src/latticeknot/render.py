"""SVG and Wavefront OBJ exports of lattice polygons.

The SVG is a fixed isometric drawing: the polygon seen along the integer
direction _VIEW, with integer axis images.  Its crossings come from the
kernel the top view uses (diagram._view_crossings), so which strand gets
the gap at a crossing is decided exactly.  A gap's centre is the under
stick's integer key over the scale length * 26 * 30 * 15, so every cut
bound of a segment is an integer over one denominator q * K, and a drawn
endpoint becomes a float only through one correctly rounded int
division, the rounding float() of the same rational gives.  The OBJ
export writes one vertex per polygon corner and one polyline record per
stick.
"""

from __future__ import annotations

from math import isqrt

from .diagram import _view_crossings
from .lattice import LatticePolygon

# isometric axis images, scaled by 30 to stay integral:
# x -> (30, 0), y -> (-26, 15), z -> (0, -30), so _VIEW maps to (0, 0)
_SCALE = 30
_VIEW = (26, 30, 15)
_HALF_GAP = 9  # screen units of strand hidden on each side: 3/10 of a lattice unit


def _screen(p: tuple[int, int, int]) -> tuple[int, int]:
    x, y, z = p
    return (_SCALE * x - 26 * y, 15 * y - _SCALE * z)


def render_svg(poly: LatticePolygon) -> str:
    """Isometric drawing with gaps cut into the strand passing behind."""
    verts = poly.vertices()
    pts = [_screen(v) for v in verts]
    # the under-passage centres of each stick, each its parameter along the
    # stick times the stick's scale K = length * 26 * 30 * 15, as the keys are
    centres: list[list[int]] = [[] for _ in verts]
    for _, _, under, key, _ in _view_crossings(verts, _VIEW):
        centres[under].append(key)
    unit = _VIEW[0] * _VIEW[1] * _VIEW[2]
    scales = [
        unit * (abs(u - x) + abs(v - y) + abs(w - z))
        for (x, y, z), (u, v, w) in zip(verts, verts[1:] + verts[:1])
    ]

    lines = []
    for (x1, y1), (x2, y2), K, cuts in zip(pts, pts[1:] + pts[:1], scales, centres):
        dx, dy = x2 - x1, y2 - y1
        # half-width p/q of each cut: the gap, but at most a third of the segment
        seg_len = isqrt(dx * dx + dy * dy)
        p, q = (_HALF_GAP, seg_len) if 3 * _HALF_GAP < seg_len else (1, 3)
        # every cut bound and drawn parameter is an integer over D = q * K:
        # the cut around centre c is (c*q - p*K, c*q + p*K)
        D, half = q * K, p * K
        X, Y = x1 * D, y1 * D
        # one sweep over the cuts by centre; the empty cut at D draws the tail
        start = 0
        for lo, hi in [(c * q - half, c * q + half) for c in sorted(cuts)] + [(D, D)]:
            if lo > start:
                ax = (X + start * dx) / D
                ay = (Y + start * dy) / D
                bx = (X + lo * dx) / D
                by = (Y + lo * dy) / D
                lines.append(f'  <line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}"/>')
            start = max(start, hi)

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = _SCALE
    vb = (min(xs) - pad, min(ys) - pad, max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)
    body = "\n".join(lines)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb[0]} {vb[1]} {vb[2]} {vb[3]}" '
        f'stroke="black" stroke-width="4" stroke-linecap="round">\n{body}\n</svg>\n'
    )


def render_obj(poly: LatticePolygon) -> str:
    """Wavefront OBJ: `v` per corner, `l` per stick, both 1-based."""
    verts = poly.vertices()
    m = len(verts)
    out = [f"v {x} {y} {z}" for (x, y, z) in verts]
    out += [f"l {k + 1} {(k + 1) % m + 1}" for k in range(m)]
    return "\n".join(out) + "\n"
