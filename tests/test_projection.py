"""Exact views of lattice polygons along integer directions: the top view
and the isometric one the SVG export draws, from one crossing kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import latticeknot as lk
from latticeknot import LatticePolygon, LatticeStick
from latticeknot.certify import _output_diagram, build_branch
from latticeknot.diagram import _assemble, _top_view, _view_crossings
from latticeknot.errors import InternalInvariantError
from latticeknot.render import _VIEW, _screen

from conftest import certified_polygon, faces, placed_constructions, reference_polygon


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _depth(p, w=_VIEW):
    """Depth along the view direction w: the larger, the nearer the viewer."""
    return sum(c * d for c, d in zip(p, w))


def reference_segment_crossings(pts):
    """The Fraction form of the segment-intersection kernel: (s1, s2, t1, t2, den)."""
    m = len(pts)
    dirs = [(pts[(k + 1) % m][0] - pts[k][0], pts[(k + 1) % m][1] - pts[k][1]) for k in range(m)]
    for s1 in range(m):
        d1 = dirs[s1]
        for s2 in range(s1 + 2, m if s1 else m - 1):
            d2 = dirs[s2]
            den = _cross2(d1, d2)
            if den == 0:
                continue
            rel = (pts[s2][0] - pts[s1][0], pts[s2][1] - pts[s1][1])
            n1, n2 = _cross2(rel, d2), _cross2(rel, d1)
            lo, hi = (0, den) if den > 0 else (den, 0)
            if lo <= n1 <= hi and lo <= n2 <= hi:
                yield s1, s2, Fraction(n1, den), Fraction(n2, den), den


def unit_square():
    return LatticePolygon(
        (
            LatticeStick("x", 0, 1, 0, 0),
            LatticeStick("y", 0, 1, 1, 0),
            LatticeStick("x", 0, 1, 1, 0),
            LatticeStick("y", 0, 1, 0, 0),
        )
    )


def valid_cycle(cycle):
    """cycle, after checking that its sticks make a valid polygon."""
    LatticePolygon(reference_polygon(cycle))
    return cycle


def tilted_top(verts, B):
    """The view along (1, B, B**2) and an image of it, (B*x - y, B**2*x - z)."""
    return (1, B, B * B), [(B * x - y, B * B * x - z) for x, y, z in verts]


def screen_along(w, verts):
    """An image of the view along w: two rows orthogonal to w whose cross
    product is a positive multiple of w, as _screen's rows are of _VIEW's."""
    w0, w1, w2 = w
    return [(w1 * x - w0 * y, w2 * (w0 * x + w1 * y) - (w0 * w0 + w1 * w1) * z) for x, y, z in verts]


def scales(verts, w):
    """Per stick, its length in the kernel's key units 1 / (w0 * w1 * w2)."""
    unit = w[0] * w[1] * w[2]
    return [unit * sum(abs(b - a) for a, b in zip(p, q)) for p, q in zip(verts, verts[1:] + verts[:1])]


def interior(meetings):
    """The meetings inside both segments: the crossings."""
    return [h for h in meetings if 0 < h[2] < 1 and 0 < h[3] < 1]


def assert_crossings_like_reference(verts, w, pts):
    """_view_crossings(verts, w) against the Fraction kernel on pts, an image
    of the view along w with the same orientation: the same meetings inside
    both sticks, the under stick the one with the smaller depth there, the
    sign that of cross(under, over) on screen, and each integer key over its
    stick's scale the Fraction parameter.  Returns the Fraction meetings."""
    m = len(verts)
    records = _view_crossings(verts, w)
    K = scales(verts, w)
    assert all(type(key) is int for r in records for key in (r[1], r[3]))
    got = {(o, Fraction(ko, K[o]), u, Fraction(ku, K[u]), sign) for o, ko, u, ku, sign in records}
    depths = [_depth(v, w) for v in verts]
    dirs = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:] + pts[:1])]
    meetings = list(reference_segment_crossings(pts))
    want = set()
    for s1, s2, t1, t2, _ in interior(meetings):
        here = depths[s1] + t1 * (depths[(s1 + 1) % m] - depths[s1])
        there = depths[s2] + t2 * (depths[(s2 + 1) % m] - depths[s2])
        assert here != there
        o, to, u, tu = (s1, t1, s2, t2) if here > there else (s2, t2, s1, t1)
        want.add((o, to, u, tu, 1 if _cross2(dirs[u], dirs[o]) > 0 else -1))
    assert len(records) == len(got) and got == want
    return meetings


@st.composite
def views_of_constructions(draw):
    """The corners of a construction at a = 5..8 and a view direction with components 1..9."""
    P = lk.random_presentation(draw(st.integers(5, 8)), random.Random(draw(st.integers(0, 2**32))))
    poly = build_branch(P, draw(st.sampled_from(["basic", "reduced", "auto"])))[1]
    return poly.vertices(), tuple(draw(st.integers(1, 9)) for _ in range(3))


class TestSegmentCrossings:
    """_view_crossings on lattice polygons, against the Fraction kernel on their images."""

    def test_transversal_hit_exact(self):
        # stick 0 runs along x at (y, z) = (2, 0), stick 4 along y at (x, z) =
        # (1, -1): n = 1, so stick 0 is over.  Along (26, 30, 15) they meet at
        # x = 1 + 26/15 and y = 2 - 30/15, keys 41/15 and 1 times 11700; along
        # (1, 2, 4), the top view, at x = 1 + 1/4 and y = 2 - 2/4, keys 5/4 and
        # 5/2 times 8.  The sign is det(e_y, e_x, w) < 0
        verts = valid_cycle(
            [(0, 2, 0), (4, 2, 0), (4, 2, -1), (4, -1, -1), (1, -1, -1), (1, 4, -1), (0, 4, -1), (0, 4, 0)]
        )
        assert _view_crossings(verts, _VIEW) == [(0, 31980, 4, 11700, -1)]
        assert _view_crossings(verts, (1, 2, 4)) == [(0, 10, 4, 20, -1)]
        assert_crossings_like_reference(verts, _VIEW, [_screen(v) for v in verts])
        assert_crossings_like_reference(verts, *tilted_top(verts, 2))

    def test_boundary_contact_gets_no_gap(self):
        # as above with stick 4 starting at y = 0: along _VIEW the images of
        # sticks 0 and 4 now meet at stick 4's first corner, and stick 1's
        # first corner, (4, 2, 0), lies on stick 3's image.  Contacts, not
        # crossings; the top view still sees the crossing of sticks 0 and 4
        verts = valid_cycle(
            [(0, 2, 0), (4, 2, 0), (4, 2, -1), (4, 0, -1), (1, 0, -1), (1, 4, -1), (0, 4, -1), (0, 4, 0)]
        )
        meetings = [h[:4] for h in reference_segment_crossings([_screen(v) for v in verts])]
        assert meetings == [(0, 4, Fraction(41, 60), 0), (1, 3, 0, Fraction(26, 45))]
        assert _view_crossings(verts, _VIEW) == []
        assert _view_crossings(verts, (1, 2, 4)) == [(0, 10, 4, 12, -1)]
        assert_crossings_like_reference(verts, _VIEW, [_screen(v) for v in verts])
        assert_crossings_like_reference(verts, *tilted_top(verts, 2))

    def test_adjacent_segments_never_paired(self):
        verts = unit_square().vertices()
        assert _view_crossings(verts, _VIEW) == _view_crossings(verts, (1, 2, 4)) == []

    def test_integer_kernel_meets_like_the_fraction_reference(self):
        """Both views of seeded polygons at a = 5..64, the isometric one and
        (1, B, B**2), like the Fraction kernel."""
        rng = random.Random(4040)
        crossings = 0
        for a in range(5, 65):
            verts = build_branch(lk.random_presentation(a, rng), "auto")[1].vertices()
            B = max(abs(c) for v in verts for c in v) + 2
            for w, pts in ((_VIEW, [_screen(v) for v in verts]), tilted_top(verts, B)):
                crossings += len(interior(assert_crossings_like_reference(verts, w, pts)))
        assert crossings > 10000

    @settings(max_examples=300, deadline=None)
    @given(views_of_constructions())
    def test_few_direction_polylines_like_the_fraction_reference(self, view):
        """A lattice polygon's image is a polyline in three directions: along
        any positive integer w, like the Fraction kernel."""
        verts, w = view
        assert_crossings_like_reference(verts, w, screen_along(w, verts))

    @settings(max_examples=40, deadline=None)
    @given(placed_constructions())
    def test_integer_kernel_at_coordinates_near_2_to_the_40(self, poly):
        """Constructions scaled and moved to coordinates up to 2**40, in both views."""
        verts = poly.vertices()
        z = [v[2] for v in verts]
        assert_crossings_like_reference(verts, _VIEW, [_screen(v) for v in verts])
        assert_crossings_like_reference(verts, *tilted_top(verts, max(z) - min(z) + 1))


class TestSegmentScales:
    def test_hits_closer_than_either_cross_get_distinct_integer_keys(self):
        """Stick 0 runs up the z-axis from 0 to 6.  Along _VIEW the x-stick 5
        at (y, z) = (-1, 2) crosses it at z = 2 + 1/2, under it, and the
        y-stick 2 at (x, z) = (6, 6) at z = 6 - 15 * 6 / 26, over it: 1/26
        apart, with denominators 2 and 26.  In units of 1 / 11700 both are
        integers, 450 apart."""
        verts = valid_cycle(
            [(0, 0, 0), (0, 0, 6), (6, 0, 6), (6, 8, 6), (6, 8, 2), (6, -1, 2), (-2, -1, 2), (-2, -1, 0), (-2, 0, 0)]
        )
        records = _view_crossings(verts, _VIEW)
        on_0 = sorted((r[1] if r[0] == 0 else r[3], r[0] == 0) for r in records if 0 in (r[0], r[2]))
        assert on_0 == [(29250, True), (29700, False)]
        assert_crossings_like_reference(verts, _VIEW, [_screen(v) for v in verts])

    @settings(max_examples=200, deadline=None)
    @given(views_of_constructions())
    def test_keys_of_few_direction_polylines_are_integers_in_parameter_order(self, view):
        """Reversed, a polygon has the same crossings and signs, each key
        measured from the stick's other end: key' = scale - key."""
        verts, w = view
        assert_crossings_like_reference(verts, w, screen_along(w, verts))
        m = len(verts)
        K = scales(verts, w)
        back = verts[::-1]  # stick k of back is stick m - 2 - k, reversed
        flip = {(m - 2 - s) % m: s for s in range(m)}
        mirrored = sorted((flip[o], K[flip[o]] - ko, flip[u], K[flip[u]] - ku, sign)
                          for o, ko, u, ku, sign in _view_crossings(back, w))
        assert mirrored == sorted(_view_crossings(verts, w))


class TestProjectPolygon:
    def test_square_no_crossings(self):
        D = lk.project_polygon(unit_square())
        assert D.n == 0
        assert lk.alexander(D) == lk.LaurentPolynomial.one()

    def test_deterministic(self, p6):
        poly = lk.construct_basic(p6)
        assert lk.project_polygon(poly) == lk.project_polygon(poly)

    def test_basic_pentagram_is_trefoil(self, p5):
        D = lk.project_polygon(lk.construct_basic(p5))
        assert lk.alexander(D) == lk.LaurentPolynomial.from_coeffs([1, -1, 1])

    def test_basic_figure8_alexander(self, p6):
        D = lk.project_polygon(lk.construct_basic(p6))
        assert lk.alexander(D) == lk.LaurentPolynomial.from_coeffs([1, -3, 1])

    def test_all_constructions_match_grid_oracle(self, p5, p6, p7):
        for P in (p5, p6, p7):
            want = lk.alexander(lk.arc_to_planar(P))
            polys = [
                lk.construct_basic(P),
                lk.reduce_ends(P),
            ]
            w = lk.find_nonstar_witness(P) if not lk.is_star_shaped(P) else None
            if w is not None:
                polys.append(lk.construct_nonstar(lk.normalize_for_nonstar(P, w)))
            for poly in polys:
                assert lk.alexander(lk.project_polygon(poly)) == want

    def test_every_bundled_entry_basic_and_reduced_match_grid(self):
        from latticeknot import dataset

        for name in dataset.names():
            P = dataset.get(name).arcs
            want = lk.alexander(lk.arc_to_planar(P))
            basic = lk.construct_basic(P)
            for poly in (basic, lk.reduce_ends(P)):
                assert lk.alexander(lk.project_polygon(poly)) == want, name

    def test_euler_faces_on_projections(self):
        rng = random.Random(60)
        for _ in range(20):
            P = lk.random_presentation(rng.randint(5, 8), rng)
            D = lk.project_polygon(lk.construct_basic(P))
            if D.n:
                assert len(faces(D)) == D.n + 2

    def test_rejects_invalid_polygon(self):
        """An invalid polygon never reaches project_polygon: constructing it raises."""
        with pytest.raises(lk.SelfIntersectionError) as info:
            LatticePolygon(
                (
                    LatticeStick("x", 0, 1, 0, 0),
                    LatticeStick("y", 0, 1, 5, 0),
                    LatticeStick("x", 0, 1, 1, 0),
                    LatticeStick("y", 0, 1, 0, 0),
                )
            )
        assert "corner" in {v.kind for v in info.value.violations}


def reference_try_projection(verts, B, fired):
    """The Fraction projection along (1, B, B**2) with its three-pass genericity test.

    It rejects B on distinct vertex images, a vertex inside another edge, a
    collinear overlap, and then any contact at an edge's end or triple
    point in the crossing scan; fired counts the check that rejected B
    first ("images", "vertex_on_edge", "overlap" or "scan").
    """
    m = len(verts)
    pts = [(B * p[0] - p[1], B * B * p[0] - p[2]) for p in verts]
    if len(set(pts)) != m:
        fired["images"] += 1
        return None

    seg = [(pts[k], pts[(k + 1) % m]) for k in range(m)]
    dirs = [(b[0] - a[0], b[1] - a[1]) for a, b in seg]

    for v in range(m):
        p = pts[v]
        for s in range(m):
            if s == v or (s + 1) % m == v:
                continue
            a, b = seg[s]
            d = dirs[s]
            if _cross2(d, (p[0] - a[0], p[1] - a[1])) != 0:
                continue
            t_num = (p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]
            t_den = d[0] * d[0] + d[1] * d[1]
            if 0 < t_num < t_den:
                fired["vertex_on_edge"] += 1
                return None

    for s1 in range(m):
        for s2 in range(s1 + 1, m):
            d1, d2 = dirs[s1], dirs[s2]
            if _cross2(d1, d2) != 0:
                continue
            a1, b1 = seg[s1]
            a2, b2 = seg[s2]
            if _cross2(d1, (a2[0] - a1[0], a2[1] - a1[1])) != 0:
                continue
            lo1, hi1 = sorted((a1[0] * d1[0] + a1[1] * d1[1], b1[0] * d1[0] + b1[1] * d1[1]))
            lo2, hi2 = sorted((a2[0] * d1[0] + a2[1] * d1[1], b2[0] * d1[0] + b2[1] * d1[1]))
            if max(lo1, lo2) < min(hi1, hi2):
                fired["overlap"] += 1
                return None

    hits = {k: [] for k in range(m)}
    seen_points = set()
    signs = {}
    depths = [p[0] + B * p[1] + B * B * p[2] for p in verts]
    for s1, s2, t1, t2, den in reference_segment_crossings(pts):
        if not (0 < t1 < 1 and 0 < t2 < 1):
            fired["scan"] += 1
            return None
        a1, d1 = pts[s1], dirs[s1]
        pt = (a1[0] + t1 * d1[0], a1[1] + t1 * d1[1])
        if pt in seen_points:
            fired["scan"] += 1
            return None
        seen_points.add(pt)
        here = depths[s1] + t1 * (depths[(s1 + 1) % m] - depths[s1])
        there = depths[s2] + t2 * (depths[(s2 + 1) % m] - depths[s2])
        assert here != there
        s1_over = here > there
        sign = 1 if den > 0 else -1
        signs[s1, s2] = -sign if s1_over else sign
        hits[s1].append((t1, s2, s1_over))
        hits[s2].append((t2, s1, not s1_over))

    events = []
    for s in range(m):
        for _, other, over in sorted(hits[s]):
            events.append(((min(s, other), max(s, other)), over))
    return _assemble(events, signs)


def reference_top_view(verts):
    """reference_try_projection at B = W + 1, W the largest range of one
    coordinate: above W the view is the top view tilted by an infinitesimal,
    and no genericity check may reject it."""
    W = max(max(c) - min(c) for c in zip(*verts))
    fired = dict.fromkeys(("images", "vertex_on_edge", "overlap", "scan"), 0)
    D = reference_try_projection(verts, W + 1, fired)
    assert not any(fired.values()), fired
    return D


def test_one_scan_decides_like_the_three_pass_reference():
    """project_polygon, and certify's view cycled to (z, x, y), equal the
    Fraction reference at B = W + 1 on constructions at a = 5..12 and on
    certified polygons at a = 48, 56 and 64."""
    rng = random.Random(5005)
    polys = []
    for a in range(5, 13):
        P = lk.random_presentation(a, rng)
        polys += [lk.construct_basic(P), lk.reduce_ends(P), build_branch(P, "auto")[1]]
    polys += [certified_polygon(a) for a in (48, 56, 64)]
    crossings = 0
    for poly in polys:
        verts = poly.vertices()
        D = lk.project_polygon(poly)
        assert D == reference_top_view(verts)
        assert _output_diagram(poly) == reference_top_view([(z, x, y) for x, y, z in verts])
        crossings += D.n
    assert crossings > 1000


def test_top_view_refuses_a_point_on_two_sticks():
    """Equal heights strictly inside both sticks are one point of space on
    two sticks, which a valid polygon cannot have: a bug, not a crossing,
    in the top view and in the SVG's view."""
    # sticks 0 and 3 meet at (1, 1, 0); the tie rules alone see a crossing
    verts = [(0, 1, 0), (2, 1, 0), (2, 2, 0), (1, 2, 0), (1, 0, 0), (0, 0, 0)]
    with pytest.raises(InternalInvariantError, match="equal depths"):
        _top_view(verts)
    # along _VIEW an x-y pair crosses only where the y range is above 30 / 15
    # and the x range above 26 / 15: sticks 0 and 3 meet at (1, 1, 0) again
    verts = [(0, 1, 0), (3, 1, 0), (3, 3, 0), (1, 3, 0), (1, 0, 0), (0, 0, 0)]
    with pytest.raises(InternalInvariantError, match="equal depths"):
        _view_crossings(verts, _VIEW)
