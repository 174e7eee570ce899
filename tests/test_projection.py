"""Exact top views of lattice polygons, and the segment kernel the SVG export uses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import latticeknot as lk
from latticeknot import LatticePolygon, LatticeStick
from latticeknot.certify import _output_diagram, build_branch
from latticeknot.diagram import _assemble, _top_view
from latticeknot.errors import InternalInvariantError
from latticeknot.render import _depth, _screen, segment_crossings

from conftest import certified_polygon, faces, reference_crossing_keys


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


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


# a handful of screen directions: antiparallel and scaled copies share a class
_DIRECTIONS = [(1, 0), (0, 1), (-3, 0), (2, 4), (-1, -2), (3, -1), (-6, 2), (1, 1)]


@st.composite
def few_direction_polylines(draw):
    """Closed polylines stepping along _DIRECTIONS on a small grid.

    Zero steps repeat a vertex (a zero-length segment); small steps on a
    few lines give collinear overlaps, endpoint contacts and crossings.
    """
    x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    pts = [(x, y)]
    for _ in range(draw(st.integers(2, 24))):
        dx, dy = draw(st.sampled_from(_DIRECTIONS))
        c = draw(st.integers(-2, 2))
        x, y = x + c * dx, y + c * dy
        pts.append((x, y))
    return pts


def reference_gaps(meetings, depths):
    """Per segment, the sorted parameters of the crossings it passes under,
    from the Fraction kernel's meetings: those inside both segments, the gap
    on the one with the smaller depth there, on a tie on the lower-numbered one."""
    m = len(depths)
    gaps = [[] for _ in depths]
    for s1, s2, t1, t2, _ in meetings:
        if 0 < t1 < 1 and 0 < t2 < 1:
            here = depths[s1] + t1 * (depths[(s1 + 1) % m] - depths[s1])
            there = depths[s2] + t2 * (depths[(s2 + 1) % m] - depths[s2])
            if here > there:
                gaps[s2].append(t2)
            else:
                gaps[s1].append(t1)
    return [sorted(row) for row in gaps]


def centres_from_crossing_keys(pts, depths):
    """(scales, centres) read off the kernel that reported every meeting,
    the way render_svg read them before the kernel returned only gaps."""
    scales, found = reference_crossing_keys(pts, depths)
    centres = [[] for _ in pts]
    for s1, s2, k1, k2, _, over in found:
        if 0 < k1 < scales[s1] and 0 < k2 < scales[s2]:
            s, c = (s2, k2) if over > 0 else (s1, k1)
            centres[s].append(c)
    return scales, centres


def assert_gaps_like_reference(pts, depths):
    """Integer scales and centres, each centre over its scale a gap of the
    Fraction kernel; returns the Fraction kernel's meetings."""
    scales, centres = segment_crossings(pts, depths)
    assert len(scales) == len(pts) and all(type(K) is int and K > 0 for K in scales)
    assert len(centres) == len(pts) and all(type(c) is int for row in centres for c in row)
    meetings = list(reference_segment_crossings(pts))
    got = [sorted(Fraction(c, K) for c in row) for row, K in zip(centres, scales)]
    assert got == reference_gaps(meetings, depths)
    return meetings


def interior(meetings):
    """The meetings inside both segments: the crossings, one gap each."""
    return [h for h in meetings if 0 < h[2] < 1 and 0 < h[3] < 1]


class TestSegmentCrossings:
    def test_transversal_hit_exact(self):
        # segments 0 and 2 cross at (4, 2), t1 = 2/3 and t2 = 1/3; the
        # classes (2, 1), (0, 1) and (1, -1) give C = lcm(2, 3, 1) = 6, so
        # the scales are 3 * 6 and 6 * 6.  Depths 2 and 1 there: segment 2
        # passes under, its gap centred at key 12 = 1/3 * 36.  Segments 1
        # and 3 are parallel
        pts = [(0, 0), (6, 3), (6, 0), (0, 6)]
        assert segment_crossings(pts, [0, 3, 0, 3]) == ([18, 18, 36, 36], [[], [], [12], []])
        assert_gaps_like_reference(pts, [0, 3, 0, 3])

    def test_boundary_contact_gets_no_gap(self):
        # vertex (2, 0) ends segment 2 on the interior of segment 0: t1 = 1/2
        # and t2 = 1, with C = 1, at equal depths.  A contact, not a
        # crossing, so no gap.  Segments 1 and 3 miss each other
        pts = [(0, 0), (4, 0), (4, 2), (2, 0)]
        assert [h[:4] for h in reference_segment_crossings(pts)] == [(0, 2, Fraction(1, 2), 1)]
        assert segment_crossings(pts, [0, 2, 2, 1]) == ([4, 2, 2, 2], [[], [], [], []])
        assert_gaps_like_reference(pts, [0, 2, 2, 1])

    def test_adjacent_segments_never_paired(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert segment_crossings(pts, [0, 0, 0, 0]) == ([2, 2, 2, 2], [[], [], [], []])

    def test_integer_kernel_meets_like_the_fraction_reference(self):
        """Both views of seeded polygons at a = 5..64, the isometric one and
        (1, B, B**2): the Fraction kernel's gaps, and the centres render_svg
        read off the kernel that reported every meeting."""
        rng = random.Random(4040)
        gaps = 0
        for a in range(5, 65):
            poly = build_branch(lk.random_presentation(a, rng), "auto")[1]
            verts = poly.vertices()
            B = max(abs(c) for v in verts for c in v) + 2
            for pts, depths in (
                ([_screen(v) for v in verts], [_depth(v) for v in verts]),
                ([(B * x - y, B * B * x - z) for x, y, z in verts],
                 [x + B * y + B * B * z for x, y, z in verts]),
            ):
                gaps += len(interior(assert_gaps_like_reference(pts, depths)))
                scales, centres = segment_crossings(pts, depths)
                old_scales, old_centres = centres_from_crossing_keys(pts, depths)
                assert scales == old_scales
                assert [sorted(row) for row in centres] == [sorted(row) for row in old_centres]
        assert gaps > 10000

    def test_zero_length_segment_skipped(self):
        # segment 1 repeats the vertex (4, 0): parallel to everything, never
        # paired, and scaled by C = 1.  Segment 2 starts where segment 0
        # ends (t1 = 1, t2 = 0), a contact; segment 3 crosses segment 0 at
        # (2, 0) below it (t1 = t2 = 1/2), and 2 and 4 are parallel
        pts = [(0, 0), (4, 0), (4, 0), (2, 2), (2, -2)]
        depths = [0, 4, 4, 1, -1]
        assert segment_crossings(pts, depths) == ([4, 1, 2, 4, 2], [[], [], [], [2], []])
        assert_gaps_like_reference(pts, depths)

    @settings(max_examples=300, deadline=None)
    @given(few_direction_polylines(), st.data())
    def test_few_direction_polylines_like_the_fraction_reference(self, pts, data):
        depths = data.draw(st.lists(st.integers(-3, 3), min_size=len(pts), max_size=len(pts)))
        assert_gaps_like_reference(pts, depths)

    def test_integer_kernel_at_coordinates_near_2_to_the_40(self):
        """Generic polylines, and grid ones with shared vertices and collinear overlaps."""
        rng = random.Random(4041)
        contacts = ties = 0
        for _ in range(40):
            m = rng.randint(4, 30)
            pts = [(rng.randint(-2**40, 2**40), rng.randint(-2**40, 2**40)) for _ in range(m)]
            assert_gaps_like_reference(pts, [rng.randint(-2**40, 2**40) for _ in range(m)])
            grid = [(rng.randint(-4, 4) << 38, rng.randint(-4, 4) << 38) for _ in range(m)]
            depths = [rng.randint(-2, 2) << 38 for _ in range(m)]
            meetings = assert_gaps_like_reference(grid, depths)
            contacts += len(meetings) - len(interior(meetings))
            for s1, s2, t1, t2, _ in interior(meetings):
                here = depths[s1] + t1 * (depths[(s1 + 1) % m] - depths[s1])
                there = depths[s2] + t2 * (depths[(s2 + 1) % m] - depths[s2])
                ties += here == there
        assert contacts > 0 and ties > 0


class TestSegmentScales:
    def test_hits_closer_than_either_cross_get_distinct_integer_keys(self):
        """Only three classes: (1, 0), (1, 2) and (1, 3), so C = lcm(2, 3, 1) = 6.

        Segment 0 runs along (1, 0) and is met by the (1, 2)-segment 3 at
        t = 1/2 and by the (1, 3)-segment 2 at t = 2/3.  The two differ by
        1/6, below 1/2 and 1/3, so a scale built from either cross alone
        leaves one key fractional.  At equal depths segment 0, the lower
        number, takes both gaps; raised above the others, it takes none and
        segments 2 and 3 take one each, at t = 2/3 and t = 1/4.
        """
        pts = [(0, 0), (1, 0), (0, -2), (1, 1), (-1, -3)]
        flat, raised = [0] * len(pts), [1, 1, 0, 0, 0]
        scales, centres = segment_crossings(pts, flat)
        assert scales == [6, 6, 6, 12, 6] and sorted(centres[0]) == [3, 4] and not any(centres[1:])
        assert segment_crossings(pts, raised) == ([6, 6, 6, 12, 6], [[], [], [4], [3], []])
        assert_gaps_like_reference(pts, flat)
        assert_gaps_like_reference(pts, raised)

    @settings(max_examples=200, deadline=None)
    @given(few_direction_polylines())
    def test_keys_of_few_direction_polylines_are_integers_in_parameter_order(self, pts):
        """At equal depths every gap goes to the lower-numbered segment, and
        reversing the polyline reverses that order, so both segments of most
        crossings have their keys checked."""
        assert_gaps_like_reference(pts, [0] * len(pts))
        assert_gaps_like_reference(pts[::-1], [0] * len(pts))


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
    two sticks, which a valid polygon cannot have: a bug, not a crossing."""
    # sticks 0 and 3 meet at (1, 1, 0); the tie rules alone see a crossing
    verts = [(0, 1, 0), (2, 1, 0), (2, 2, 0), (1, 2, 0), (1, 0, 0), (0, 0, 0)]
    with pytest.raises(InternalInvariantError, match="equal depths"):
        _top_view(verts)
