"""SVG and Wavefront OBJ exports of lattice polygons.

The SVG view is a fixed isometric projection with rational axis images,
so hidden-line decisions (which strand gets the gap at a crossing) are
made exactly.  The OBJ export writes one vertex per polygon corner and
one polyline record per stick.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .diagram import segment_crossings
from .lattice import LatticePolygon

# isometric axis images, scaled by 30 to stay integral:
# x -> (30, 0), y -> (-26, 15), z -> (0, -30); view direction (26, 30, 15)
_SCALE = 30
_GAP = Fraction(3, 10)  # lattice units of strand hidden on each side


def _screen(p: tuple[int, int, int]) -> tuple[int, int]:
    x, y, z = p
    return (_SCALE * x - 26 * y, 15 * y - _SCALE * z)


def _depth(p: tuple[int, int, int]) -> int:
    x, y, z = p
    return 26 * x + 30 * y + 15 * z


def render_svg(poly: LatticePolygon) -> str:
    """Isometric drawing with gaps cut into the strand passing behind."""
    verts = poly.vertices()
    m = len(verts)
    pts = [_screen(v) for v in verts]
    depths = [_depth(v) for v in verts]
    segs = [(pts[k], pts[(k + 1) % m]) for k in range(m)]

    # cut intervals (in segment parameter) for under-passages
    cuts: dict[int, list[tuple[Fraction, Fraction]]] = {k: [] for k in range(m)}
    for s1, s2, t1, t2, _ in segment_crossings(pts):
        if not (0 < t1 < 1 and 0 < t2 < 1):
            continue  # touching strands need no gap
        h1 = depths[s1] + t1 * (depths[(s1 + 1) % m] - depths[s1])
        h2 = depths[s2] + t2 * (depths[(s2 + 1) % m] - depths[s2])
        if h1 == h2:
            continue  # projective coincidence of distinct points; draw plain
        under, t_under = (s1, t1) if h1 < h2 else (s2, t2)
        (ax, ay), (bx, by) = segs[under]
        seg_len = isqrt((bx - ax) ** 2 + (by - ay) ** 2)
        half_gap = int(_GAP * _SCALE)
        dt = min(Fraction(1, 3), Fraction(half_gap, max(seg_len, 1)))
        cuts[under].append((max(Fraction(0), t_under - dt), min(Fraction(1), t_under + dt)))

    lines = []
    for k in range(m):
        (x1, y1), (x2, y2) = segs[k]
        # one sweep over the sorted cuts; the empty cut at 1 draws the tail
        start = Fraction(0)
        for lo, hi in sorted(cuts[k]) + [(Fraction(1), Fraction(1))]:
            if lo > start:
                ax = float(x1 + start * (x2 - x1))
                ay = float(y1 + start * (y2 - y1))
                bx = float(x1 + lo * (x2 - x1))
                by = float(y1 + lo * (y2 - y1))
                lines.append(
                    f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}"/>'
                )
            start = max(start, hi)

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = _SCALE
    vb = (min(xs) - pad, min(ys) - pad, max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)
    body = "\n".join(f"  {ln}" for ln in lines)
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
