"""SVG and OBJ exports of lattice polygons."""

import random
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings, strategies as st

import latticeknot as lk
from latticeknot import LatticePolygon, LatticeStick, jsonio
from latticeknot.certify import build_branch
from latticeknot.render import _SCALE, _depth, _screen, render_svg

from conftest import certified_polygon
from test_projection import reference_segment_crossings, reference_top_view

_GAP = Fraction(3, 10)  # lattice units of strand hidden on each side


def reference_render_svg(poly):
    """The Fraction SVG export that split every visible piece at every cut.

    It predates both the one sweep per segment and the integer cut bounds.
    """
    verts = poly.vertices()
    m = len(verts)
    pts = [_screen(v) for v in verts]
    depths = [_depth(v) for v in verts]
    segs = [(pts[k], pts[(k + 1) % m]) for k in range(m)]

    cuts = {k: [] for k in range(m)}
    for s1, s2, t1, t2, _ in reference_segment_crossings(pts):
        if not (0 < t1 < 1 and 0 < t2 < 1):
            continue
        h1 = depths[s1] + t1 * (depths[(s1 + 1) % m] - depths[s1])
        h2 = depths[s2] + t2 * (depths[(s2 + 1) % m] - depths[s2])
        if h1 == h2:
            continue
        under, t_under = (s1, t1) if h1 < h2 else (s2, t2)
        (ax, ay), (bx, by) = segs[under]
        seg_len = isqrt((bx - ax) ** 2 + (by - ay) ** 2)
        half_gap = int(_GAP * _SCALE)
        dt = min(Fraction(1, 3), Fraction(half_gap, max(seg_len, 1)))
        cuts[under].append((max(Fraction(0), t_under - dt), min(Fraction(1), t_under + dt)))

    lines = []
    for k in range(m):
        (x1, y1), (x2, y2) = segs[k]
        pieces = [(Fraction(0), Fraction(1))]
        for lo, hi in sorted(cuts[k]):
            nxt = []
            for plo, phi in pieces:
                if hi <= plo or lo >= phi:
                    nxt.append((plo, phi))
                    continue
                if plo < lo:
                    nxt.append((plo, lo))
                if hi < phi:
                    nxt.append((hi, phi))
            pieces = nxt
        for plo, phi in pieces:
            if plo >= phi:
                continue
            ax = float(x1 + plo * (x2 - x1))
            ay = float(y1 + plo * (y2 - y1))
            bx = float(x1 + phi * (x2 - x1))
            by = float(y1 + phi * (y2 - y1))
            lines.append(f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}"/>')

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = _SCALE
    vb = (min(xs) - pad, min(ys) - pad, max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)
    body = "\n".join(f"  {ln}" for ln in lines)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb[0]} {vb[1]} {vb[2]} {vb[3]}" '
        f'stroke="black" stroke-width="4" stroke-linecap="round">\n{body}\n</svg>\n'
    )


def test_one_sweep_draws_like_the_piece_splitting_reference():
    """Byte-equal SVG on the basic, reduced and certified polygons at a = 5..24 and 64,
    and on the certified ones at a = 48 and 56."""
    gaps = 0
    polys = []
    for a in [*range(5, 25), 64]:
        P = lk.random_presentation(a, random.Random(9000 + a))
        basic = lk.construct_basic(P)
        polys += [basic, lk.reduce_ends(P), build_branch(P, "auto")[1]]
    polys += [certified_polygon(48), certified_polygon(56)]
    for poly in polys:
        svg = render_svg(poly)
        assert svg == reference_render_svg(poly)
        gaps += svg.count("<line") - len(poly.sticks)
    assert gaps > 1000  # the gaps split segments into many pieces


def test_big_coordinates_draw_like_the_reference():
    """A certified a=64 polygon scaled by 2**34 reaches MAX_COORD; its cut denominators are big ints."""
    scale = 2**34
    poly = LatticePolygon(
        tuple(
            LatticeStick(s.axis, s.lo * scale, s.hi * scale, s.c1 * scale, s.c2 * scale)
            for s in certified_polygon(64).sticks
        )
    )
    assert max(abs(c) for v in poly.vertices() for c in v) == jsonio.MAX_COORD
    assert jsonio.polygon_from_obj(poly.to_json_obj()) == poly
    svg = render_svg(poly)
    assert svg == reference_render_svg(poly)
    assert svg.count("<line") > len(poly.sticks)


def placed(poly, scale, shift):
    """poly scaled by scale > 0, then translated by shift = (tx, ty, tz)."""
    sticks = []
    for s in poly.sticks:
        axis = "xyz".index(s.axis)
        t1, t2 = (shift[e] for e in range(3) if e != axis)
        t = shift[axis]
        sticks.append(
            LatticeStick(s.axis, s.lo * scale + t, s.hi * scale + t, s.c1 * scale + t1, s.c2 * scale + t2)
        )
    return LatticePolygon(tuple(sticks))


@st.composite
def placed_constructions(draw):
    """A construction at a = 5..14, scaled by s and translated, every coordinate within MAX_COORD."""
    a = draw(st.integers(5, 14))
    P = lk.random_presentation(a, random.Random(draw(st.integers(0, 2**32))))
    branch = draw(st.sampled_from(["basic", "reduced", "auto"]))
    poly = build_branch(P, branch)[1]
    # the constructions use coordinates 1..a; the extremes put a coordinate at +-MAX_COORD
    top = jsonio.MAX_COORD // a
    scale = draw(st.integers(1, top) | st.just(top))
    lo, hi = -jsonio.MAX_COORD - scale, jsonio.MAX_COORD - a * scale
    return placed(poly, scale, [draw(st.integers(lo, hi) | st.sampled_from([lo, hi])) for _ in range(3)])


@settings(max_examples=100, deadline=None)
@given(placed_constructions())
def test_placed_constructions_draw_and_project_like_the_references(poly):
    verts = poly.vertices()
    assert max(abs(c) for v in verts for c in v) <= jsonio.MAX_COORD
    assert render_svg(poly) == reference_render_svg(poly)
    D = lk.project_polygon(poly)
    assert D == reference_top_view(verts)
    # the top view is translation-invariant: moved to the first octant, the same diagram
    assert lk.project_polygon(placed(poly, 1, [-min(c) for c in zip(*verts)])) == D
