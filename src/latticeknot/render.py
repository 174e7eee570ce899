"""SVG and Wavefront OBJ exports of lattice polygons.

The SVG view is a fixed isometric projection with integer axis images,
so hidden-line decisions (which strand gets the gap at a crossing) are
made exactly in integers.  segment_crossings returns only what the
drawing reads: per segment, the centres of the gaps cut where it passes
under another, each an exact integer key over the segment's scale K.  So
every cut bound of a segment is an integer over one denominator q * K,
and a drawn endpoint becomes a float only through one correctly rounded
int division, the rounding float() of the same rational gives.  The OBJ
export writes one vertex per polygon corner and one polyline record per
stick.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import itemgetter

from .lattice import LatticePolygon

# isometric axis images, scaled by 30 to stay integral:
# x -> (30, 0), y -> (-26, 15), z -> (0, -30); view direction (26, 30, 15)
_SCALE = 30
_HALF_GAP = 9  # screen units of strand hidden on each side: 3/10 of a lattice unit


def segment_crossings(
    pts: list[tuple[int, int]], depths: list[int]
) -> tuple[list[int], list[list[int]]]:
    """Gap centres of the closed polyline pts, with depths along it.

    Segment k runs from pts[k] to pts[k+1 mod m], and its depth runs
    linearly from depths[k] to depths[k+1 mod m].  Returns (scales,
    centres): one positive int per segment, and for each segment the keys
    of the crossings it passes under, in no particular order.  A crossing
    is a meeting of two non-parallel segments inside both, and it is at
    the parameter t = key / scales[s] along the segment s that passes
    under; no rational is built.  The under segment is the one with the
    smaller depth there, and on a tie the lower-numbered one.  A meeting at
    an end of either segment is a contact, not a crossing, and gets no
    centre; so adjacent segments, which meet only at their shared vertex,
    get none.  Parallel pairs are skipped, and so is a zero-length segment,
    which is parallel to everything.

    Segments are grouped by primitive direction up to sign: segment s runs
    along +-g_s * u, g_s > 0 the gcd of its direction and u its class.  The
    offset cross(w, p) is constant along a w-segment, and for two classes u
    and v the offsets (cross(u, p), cross(v, p)) are an invertible integer
    map of the plane (its determinant is cross(u, v) != 0).  A u-segment
    maps to a v-offset interval at one u-offset and a v-segment to a
    u-offset interval at one v-offset, so the two segments cross exactly
    when each one's fixed offset lies strictly inside the other's interval.
    Each class is sorted by offset once; for each pair of classes the
    sorted v-segments are bisected for each u-segment's open interval and
    the survivors' interval is checked.  With c classes this costs
    O(c * m log m) plus one comparison per pair whose v-offset matches,
    instead of m**2 / 2 pair tests; a lattice polygon's linear views have
    c = 3.

    scales[s] = g_s * C, with C the lcm of |cross(u, v)| over every pair of
    classes present (1 with fewer than two); a zero-length segment gets C.
    The keys need no division.  Along a u-segment s from p0 the v-offset
    runs from o0 = cross(v, p0) to o0 +- g_s * cross(v, u), so it reaches a
    v-segment's offset o at t = (o - o0) / (+-g_s * cross(v, u)), and the
    key t * g_s * C is (o - o0) times the step +-C / |cross(u, v)|, an
    integer since cross(u, v) divides C; the same holds with u and v
    swapped.  So a segment's crossings sort by their keys exactly, and two
    are the same point exactly when their keys are equal.  The depths at a
    crossing, d_s + key * (d_s' - d_s) / scales[s] on each segment, are
    compared times the product of the two scales.

    Which class of a pair is bisected sets how many pairs are compared.
    A u-segment of direction g * u spans g * |cross(u, v)| in v-offset, so
    if the v-segments' offsets were spread evenly over their span S_v, the
    u-intervals would cover |cross(u, v)| * G_u * n_v / (S_v + 1) of them,
    with n_v the v-class size and G_u the u-class length in units of u.
    The cross is common to both choices, so each class gets the density
    n / (G * (S + 1)) once, and of each pair the sparser class is bisected.
    """
    m = len(pts)
    segs = [(x, y, u - x, v - y) for (x, y), (u, v) in zip(pts, pts[1:] + pts[:1])]
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}  # class -> (segment, g)
    for k, (_, _, dx, dy) in enumerate(segs):
        g = gcd(dx, dy)
        if g:
            if dx < 0 or (dx == 0 and dy < 0):
                groups.setdefault((-dx // g, -dy // g), []).append((k, g))
            else:
                groups.setdefault((dx // g, dy // g), []).append((k, g))
    C = lcm(*(abs(ux * vy - uy * vx) for (ux, uy), (vx, vy) in combinations(groups, 2)))
    scales = [C] * m
    classes = []
    for (wx, wy), group in groups.items():
        for k, g in group:
            scales[k] = g * C
        offsets = sorted([(wx * segs[k][1] - wy * segs[k][0], k) for k, _ in group])
        length = sum([g for _, g in group])
        density = len(group) / (length * (offsets[-1][0] - offsets[0][0] + 1))
        classes.append((density, wx, wy, offsets, [o for o, _ in offsets]))
    # densest class first, so the later class of each pair is bisected
    classes.sort(key=itemgetter(0), reverse=True)
    rise = [b - a for a, b in zip(depths, depths[1:] + depths[:1])]
    centres: list[list[int]] = [[] for _ in range(m)]
    for (_, ux, uy, rows, _), (_, vx, vy, column, keys) in combinations(classes, 2):
        # a segment starting at the other class's offset o0 meets that
        # class's segment at offset o with the key (o - o0) * step, step = +-f
        f = C // abs(ux * vy - uy * vx)
        # each v-segment's u-offset interval and step, in the order of keys
        spans = []
        for _, k in column:
            x, y, dx, dy = segs[k]
            b0 = ux * y - uy * x
            db = ux * dy - uy * dx
            spans.append((b0, b0 + db, k, b0, f) if db > 0 else (b0 + db, b0, k, b0, -f))
        for fixed, k1 in rows:
            x, y, dx, dy = segs[k1]
            a0 = vx * y - vy * x
            da = vx * dy - vy * dx
            lo1, hi1, step1 = (a0, a0 + da, f) if da > 0 else (a0 + da, a0, -f)
            K1, d1, r1 = scales[k1], depths[k1], rise[k1]
            for j in range(bisect_right(keys, lo1), bisect_left(keys, hi1)):
                lo, hi, k2, b0, step2 = spans[j]
                if lo < fixed < hi:
                    key1, key2 = (keys[j] - a0) * step1, (fixed - b0) * step2
                    K2 = scales[k2]
                    # the two depths at the crossing, both scaled by K1 * K2
                    here = (d1 * K1 + key1 * r1) * K2
                    there = (depths[k2] * K2 + key2 * rise[k2]) * K1
                    if here > there or (here == there and k2 < k1):
                        centres[k2].append(key2)
                    else:
                        centres[k1].append(key1)
    return scales, centres


def _screen(p: tuple[int, int, int]) -> tuple[int, int]:
    x, y, z = p
    return (_SCALE * x - 26 * y, 15 * y - _SCALE * z)


def _depth(p: tuple[int, int, int]) -> int:
    x, y, z = p
    return 26 * x + 30 * y + 15 * z


def render_svg(poly: LatticePolygon) -> str:
    """Isometric drawing with gaps cut into the strand passing behind."""
    verts = poly.vertices()
    pts = [_screen(v) for v in verts]
    # under-passage centres, each its parameter times the segment's scale.
    # Depths are never equal at a crossing: the screen-and-depth map has
    # determinant 54030, so equal depths would mean one 3-D point on two
    # non-adjacent sticks, which a polygon, valid by construction, does not have
    scales, centres = segment_crossings(pts, [_depth(v) for v in verts])

    lines = []
    for k, ((x1, y1), (x2, y2)) in enumerate(zip(pts, pts[1:] + pts[:1])):
        dx, dy = x2 - x1, y2 - y1
        # half-width p/q of each cut: the gap, but at most a third of the segment
        seg_len = isqrt(dx * dx + dy * dy)
        p, q = (_HALF_GAP, seg_len) if 3 * _HALF_GAP < seg_len else (1, 3)
        # every cut bound and drawn parameter is an integer over D = q * K:
        # the cut around centre c is (c*q - p*K, c*q + p*K)
        K = scales[k]
        D, half = q * K, p * K
        X, Y = x1 * D, y1 * D
        # one sweep over the cuts by centre; the empty cut at D draws the tail
        start = 0
        for lo, hi in [(c * q - half, c * q + half) for c in sorted(centres[k])] + [(D, D)]:
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
