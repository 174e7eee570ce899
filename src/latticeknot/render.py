"""SVG and Wavefront OBJ exports of lattice polygons.

The SVG view is a fixed isometric projection with integer axis images,
so hidden-line decisions (which strand gets the gap at a crossing) are
made exactly in integers.  A crossing parameter stays a pair n/d, each
segment's cut bounds share one integer denominator, and a drawn endpoint
becomes a float only through one correctly rounded int division, the
rounding float() of the same rational gives.  The OBJ export writes one
vertex per polygon corner and one polyline record per stick.
"""

from __future__ import annotations

from math import isqrt, lcm

from .diagram import segment_crossings
from .lattice import LatticePolygon

# isometric axis images, scaled by 30 to stay integral:
# x -> (30, 0), y -> (-26, 15), z -> (0, -30); view direction (26, 30, 15)
_SCALE = 30
_HALF_GAP = 9  # screen units of strand hidden on each side: 3/10 of a lattice unit


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

    # under-passage centres n/d (in segment parameter), d > 0
    centres: dict[int, list[tuple[int, int]]] = {k: [] for k in range(m)}
    for s1, s2, n1, n2, den in segment_crossings(pts):
        d = abs(den)
        if den < 0:
            n1, n2 = -n1, -n2
        if not (0 < n1 < d and 0 < n2 < d):
            continue  # touching strands need no gap
        # the two depths at the crossing, both scaled by d
        h1 = depths[s1] * d + n1 * (depths[(s1 + 1) % m] - depths[s1])
        h2 = depths[s2] * d + n2 * (depths[(s2 + 1) % m] - depths[s2])
        if h1 == h2:
            continue  # projective coincidence of distinct points; draw plain
        if h1 < h2:
            centres[s1].append((n1, d))
        else:
            centres[s2].append((n2, d))

    lines = []
    for k in range(m):
        (x1, y1), (x2, y2) = segs[k]
        # half-width p/q of each cut: the gap, but at most a third of the segment
        seg_len = isqrt((x2 - x1) ** 2 + (y2 - y1) ** 2)
        p, q = (_HALF_GAP, seg_len) if 3 * _HALF_GAP < seg_len else (1, 3)
        # every cut bound and drawn parameter is an integer over D = q * L
        L = lcm(*(d for _, d in centres[k]))
        D = q * L
        cuts = []
        for n, d in centres[k]:
            c = n * (D // d)
            cuts.append((max(0, c - p * L), min(D, c + p * L)))
        cuts.sort()
        # one sweep over the sorted cuts; the empty cut at D draws the tail
        start = 0
        for lo, hi in cuts + [(D, D)]:
            if lo > start:
                ax = (x1 * D + start * (x2 - x1)) / D
                ay = (y1 * D + start * (y2 - y1)) / D
                bx = (x1 * D + lo * (x2 - x1)) / D
                by = (y1 * D + lo * (y2 - y1)) / D
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
