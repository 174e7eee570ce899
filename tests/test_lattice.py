"""Lattice polygon constructions and exact geometry validation."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import latticeknot as lk
import latticeknot.lattice as lattice_mod
from latticeknot import LatticePolygon, LatticeStick, cli, dataset
from latticeknot.lattice import Violation, _basic_cycle, _end_moves, _nonstar_cycle, _polygon

from conftest import (
    arc_presentations,
    generate_suite,
    lift_sweep,
    random_star_presentation,
    reference_overlap_points,
    reference_polygon,
    reference_violations,
    stick_endpoints,
    stick_ranges,
)


def unit_square():
    return LatticePolygon(
        (
            LatticeStick("x", 0, 1, 0, 0),
            LatticeStick("y", 0, 1, 1, 0),
            LatticeStick("x", 0, 1, 1, 0),
            LatticeStick("y", 0, 1, 0, 0),
        )
    )


def _violations(sticks):
    """validate_polygon's verdict on sticks: [], or the violations construction raises."""
    try:
        LatticePolygon(tuple(sticks))
    except lk.SelfIntersectionError as exc:
        return exc.violations
    return []


class TestStick:
    def test_zero_length_forbidden(self):
        with pytest.raises(ValueError):
            LatticeStick("x", 2, 2, 0, 0)

    def test_endpoints_per_axis(self):
        assert stick_endpoints(LatticeStick("x", 1, 4, 2, 3)) == ((1, 2, 3), (4, 2, 3))
        assert stick_endpoints(LatticeStick("y", 1, 4, 2, 3)) == ((2, 1, 3), (2, 4, 3))
        assert stick_endpoints(LatticeStick("z", 1, 4, 2, 3)) == ((2, 3, 1), (2, 3, 4))
        # the polygon's joints read each axis's endpoints the same way
        poly = lk.construct_basic(lk.validate([[1, 4], [2, 5], [1, 3], [2, 4], [3, 5]]))
        sticks = poly.sticks
        assert {s.axis for s in sticks} == {"x", "y", "z"}
        for prev, cur, joint in zip(sticks[-1:] + sticks[:-1], sticks, poly._joints):
            assert set(joint) == set(stick_endpoints(prev)) & set(stick_endpoints(cur))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            LatticeStick("w", 0, 1, 0, 0)


class TestValidatePolygon:
    def test_unit_square_ok(self):
        assert lk.validate_polygon(unit_square()) == []
        assert lk.stick_count(unit_square()) == 4

    def test_construction_outputs_ok(self, p5):
        assert lk.validate_polygon(lk.construct_basic(p5)) == []

    def test_nonadjacent_overlap_reported(self):
        # a planar loop whose last y-stick lands inside the bottom x-stick
        violations = _violations(
            (
                LatticeStick("x", 0, 4, 0, 0),
                LatticeStick("y", 0, 4, 4, 0),
                LatticeStick("x", 0, 4, 4, 0),
                LatticeStick("y", 2, 4, 0, 0),
                LatticeStick("x", 0, 2, 2, 0),
                LatticeStick("y", 0, 2, 2, 0),
                LatticeStick("x", 0, 2, 0, 0),
            )
        )
        kinds = {v.kind for v in violations}
        assert "overlap" in kinds

    def test_same_axis_consecutive_reported(self):
        violations = _violations(
            (
                LatticeStick("x", 0, 1, 0, 0),
                LatticeStick("x", 1, 2, 0, 0),
                LatticeStick("y", 0, 1, 2, 0),
                LatticeStick("x", 0, 2, 1, 0),
                LatticeStick("y", 0, 1, 0, 0),
            )
        )
        kinds = {v.kind for v in violations}
        assert "axis_repeat" in kinds

    def test_disconnected_corners_reported(self):
        violations = _violations(
            (
                LatticeStick("x", 0, 1, 0, 0),
                LatticeStick("y", 0, 1, 5, 0),
                LatticeStick("x", 0, 1, 1, 0),
                LatticeStick("y", 0, 1, 0, 0),
            )
        )
        kinds = {v.kind for v in violations}
        assert "corner" in kinds

    def test_too_few_sticks(self):
        violations = _violations((LatticeStick("x", 0, 1, 0, 0), LatticeStick("y", 0, 1, 1, 0)))
        kinds = {v.kind for v in violations}
        assert "too_few_sticks" in kinds


class TestConstructBasic:
    def test_pentagram_3a_sticks(self, p5):
        poly = lk.construct_basic(p5)
        assert lk.stick_count(poly) == 15
        assert lk.validate_polygon(poly) == []

    def test_figure8_18_sticks(self, p6):
        assert lk.stick_count(lk.construct_basic(p6)) == 18

    def test_z_sticks_on_diagonal(self, p5, p6, p7):
        for P in (p5, p6, p7):
            for s in lk.construct_basic(P).sticks:
                if s.axis == "z":
                    assert s.c1 == s.c2

    def test_coordinates_within_1_a(self):
        rng = random.Random(4)
        for _ in range(30):
            P = lk.random_presentation(rng.randint(5, 9), rng)
            for s in lk.construct_basic(P).sticks:
                for (lo, hi) in stick_ranges(s):
                    assert 1 <= lo <= hi <= P.a

    def test_rejects_small_a(self):
        P = lk.validate([[1, 2], [1, 2]])
        with pytest.raises(ValueError):
            lk.construct_basic(P)


class TestReduceEnds:
    def test_pentagram_13(self, p5):
        poly = lk.reduce_ends(p5)
        assert lk.stick_count(poly) == 13
        assert lk.validate_polygon(poly) == []

    def test_p7_19(self, p7):
        assert lk.stick_count(lk.reduce_ends(p7)) == 19

    def test_exactly_two_off_diagonal_z(self, p5, p6, p7):
        for P in (p5, p6, p7):
            poly = lk.reduce_ends(P)
            off = [s for s in poly.sticks if s.axis == "z" and s.c1 != s.c2]
            assert len(off) == 2

    def test_arc_1_a_never_deleted(self):
        # presentations containing the pair {1, a}: its sticks are the longer
        # ones at both reductions, so they are truncated, never removed
        rng = random.Random(14)
        checked = 0
        while checked < 40:
            a = rng.randint(5, 9)
            P = lk.random_presentation(a, rng)
            if (1, a) not in P.arcs:
                continue
            checked += 1
            page = P.arcs.index((1, a)) + 1
            poly = lk.reduce_ends(P)
            assert lk.validate_polygon(poly) == []
            xs = [s for s in poly.sticks if s.axis == "x" and s.c2 == page and s.c1 == 1]
            ys = [s for s in poly.sticks if s.axis == "y" and s.c2 == page and s.c1 == a]
            assert len(xs) == 1 and xs[0].hi == a  # truncated to [i, a]
            assert len(ys) == 1 and ys[0].lo == 1  # truncated to [1, j']

    def test_random_counts(self):
        rng = random.Random(15)
        for _ in range(50):
            P = lk.random_presentation(rng.randint(5, 9), rng)
            poly = lk.reduce_ends(P)
            assert lk.stick_count(poly) == 3 * P.a - 2
            assert lk.validate_polygon(poly) == []


def normalized(P):
    w = lk.find_nonstar_witness(P)
    assert w is not None
    return lk.normalize_for_nonstar(P, w)


class TestConstructNonstar:
    def test_figure8_14_sticks(self, p6):
        poly = lk.construct_nonstar(normalized(p6))
        assert lk.stick_count(poly) == 14
        assert lk.validate_polygon(poly) == []

    def test_random_counts_and_z_population(self):
        rng = random.Random(16)
        seen = 0
        while seen < 60:
            a = rng.randint(5, 9)
            P = lk.random_presentation(a, rng)
            if lk.is_star_shaped(P):
                continue
            seen += 1
            poly = lk.construct_nonstar(normalized(P))
            assert lk.stick_count(poly) == 3 * a - 4
            assert lk.validate_polygon(poly) == []
            assert sum(1 for s in poly.sticks if s.axis == "z") == a - 1


class TestLiftSweep:
    def test_figure8_sweep_valid(self, p6):
        nns = normalized(p6)
        sweep = lift_sweep(nns)
        assert len(sweep) == nns.lift_page
        for poly in sweep:
            assert lk.validate_polygon(poly) == []
        assert sweep[-1] == lk.construct_nonstar(nns)
        assert lk.stick_count(sweep[0]) == 3 * p6.a - 2

    def test_sweep_passes_intermediate_attachment_level(self):
        # find a case where the alpha-side neighbour page sits strictly
        # between 1 and lift_page, so the degenerate-connector snapshot runs
        rng = random.Random(17)
        exercised = 0
        trials = 0
        while exercised < 10 and trials < 4000:
            trials += 1
            P = lk.random_presentation(rng.randint(5, 9), rng)
            if lk.is_star_shaped(P):
                continue
            nns = normalized(P)
            q_alpha = next(
                p for p in nns.presentation.pages_at(nns.alpha) if p != 1
            )
            if not 1 < q_alpha < nns.lift_page:
                continue
            exercised += 1
            for poly in lift_sweep(nns):
                assert lk.validate_polygon(poly) == []
        assert exercised == 10


# The stick-surgery builders that the corner cycles replaced, kept as the
# reference the rewrite must reproduce stick for stick, order included.  They
# return stick tuples: an intermediate state need not be a valid polygon.


def reference_cyclic_order(sticks):
    by_point = {}
    for idx, s in enumerate(sticks):
        for p in stick_endpoints(s):
            by_point.setdefault(p, []).append(idx)
    assert all(len(ids) == 2 for ids in by_point.values())
    start = min(range(len(sticks)), key=lambda k: (sticks[k].axis, sticks[k].c1, sticks[k].c2, sticks[k].lo))
    order = [start]
    cursor = stick_endpoints(sticks[start])[1]
    while len(order) < len(sticks):
        s1, s2 = by_point[cursor]
        nxt = s2 if order[-1] == s1 else s1
        assert nxt not in order
        order.append(nxt)
        e1, e2 = stick_endpoints(sticks[nxt])
        cursor = e2 if e1 == cursor else e1
    assert cursor == stick_endpoints(sticks[start])[0]
    return tuple(sticks[k] for k in order)


def reference_merge_collinear(sticks):
    sticks = list(sticks)
    changed = True
    while changed and len(sticks) > 2:
        changed = False
        m = len(sticks)
        for k in range(m):
            s, t = sticks[k], sticks[(k + 1) % m]
            if s.axis == t.axis and (s.c1, s.c2) == (t.c1, t.c2):
                assert max(s.lo, t.lo) == min(s.hi, t.hi)
                merged = LatticeStick(s.axis, min(s.lo, t.lo), max(s.hi, t.hi), s.c1, s.c2)
                if (k + 1) % m == 0:
                    sticks = [merged] + sticks[1:k]
                else:
                    sticks = sticks[:k] + [merged] + sticks[k + 2:]
                changed = True
                break
    return tuple(sticks)


def reference_basic_sticks(P, flip_page=None):
    sticks = []
    for page, (i, j) in enumerate(P.arcs, start=1):
        if page == flip_page:
            sticks.append(LatticeStick("y", i, j, i, page))
            sticks.append(LatticeStick("x", i, j, j, page))
        else:
            sticks.append(LatticeStick("x", i, j, i, page))
            sticks.append(LatticeStick("y", i, j, j, page))
    for b in range(1, P.a + 1):
        k1, k2 = P.pages_at(b)
        sticks.append(LatticeStick("z", k1, k2, b, b))
    return sticks


def reference_replace(sticks, old, new):
    idx = sticks.index(old)
    if new is None:
        del sticks[idx]
    else:
        sticks[idx] = new


def reference_end_reductions(sticks, P):
    a = P.a
    (i1, i2), (k1, k2) = P.far_ends(1), P.pages_at(1)
    pages1 = dict(zip((i1, i2), (k1, k2)))
    i_short, i_long = min(i1, i2), max(i1, i2)
    k_short, k_long = pages1[i_short], pages1[i_long]
    reference_replace(sticks, LatticeStick("x", 1, i_short, 1, k_short), None)
    reference_replace(sticks, LatticeStick("x", 1, i_long, 1, k_long),
                      LatticeStick("x", i_short, i_long, 1, k_long))
    reference_replace(sticks, LatticeStick("z", min(k1, k2), max(k1, k2), 1, 1),
                      LatticeStick("z", min(k1, k2), max(k1, k2), i_short, 1))
    (j1, j2), (l1, l2) = P.far_ends(a), P.pages_at(a)
    pages_a = dict(zip((j1, j2), (l1, l2)))
    j_long, j_short = min(j1, j2), max(j1, j2)
    l_long, l_short = pages_a[j_long], pages_a[j_short]
    reference_replace(sticks, LatticeStick("y", j_short, a, a, l_short), None)
    reference_replace(sticks, LatticeStick("y", j_long, a, a, l_long),
                      LatticeStick("y", j_long, j_short, a, l_long))
    reference_replace(sticks, LatticeStick("z", min(l1, l2), max(l1, l2), a, a),
                      LatticeStick("z", min(l1, l2), max(l1, l2), a, j_short))


def reference_nonstar_sticks(nns, level):
    P = nns.presentation
    a = P.a
    alpha, beta, k = nns.alpha, nns.beta, nns.lift_page
    sticks = reference_basic_sticks(P, flip_page=1)
    reference_end_reductions(sticks, P)
    q_alpha = next(p for p in P.pages_at(alpha) if p != 1)
    if level == 1:
        return sticks
    reference_replace(sticks, LatticeStick("y", alpha, beta, alpha, 1),
                      LatticeStick("y", alpha, beta, alpha, level))
    flipped_x_new = LatticeStick("x", alpha, beta, beta, level)
    reference_replace(sticks, LatticeStick("x", alpha, beta, beta, 1), flipped_x_new)
    old = LatticeStick("z", 1, q_alpha, alpha, alpha)
    if level == q_alpha:
        reference_replace(sticks, old, None)
    else:
        reference_replace(sticks, old,
                          LatticeStick("z", min(level, q_alpha), max(level, q_alpha), alpha, alpha))
    old = LatticeStick("z", 1, k, beta, beta)
    if level == k:
        reference_replace(sticks, old, None)
        reference_replace(sticks, flipped_x_new, None)
        reference_replace(sticks, LatticeStick("x", beta, a, beta, k),
                          LatticeStick("x", alpha, a, beta, k))
    else:
        reference_replace(sticks, old, LatticeStick("z", min(level, k), max(level, k), beta, beta))
    return sticks


def reference_basic(P):
    return reference_cyclic_order(reference_basic_sticks(P))


def reference_reduced(P):
    sticks = reference_basic_sticks(P)
    reference_end_reductions(sticks, P)
    return reference_cyclic_order(sticks)


def reference_nonstar(nns, level):
    return reference_merge_collinear(reference_cyclic_order(reference_nonstar_sticks(nns, level)))


class TestCornerCycle:
    """The corner-cycle builders against the stick-surgery reference."""

    @staticmethod
    def presentations():
        for a in [*range(5, 13), 16, 24, 32, 48, 64]:
            rng = random.Random(6000 + a)
            yield from (lk.random_presentation(a, rng) for _ in range(4 if a <= 12 else 2))
            if a % 2:
                yield random_star_presentation(a, rng)

    def test_builds_equal_reference_sticks(self):
        nonstar = 0
        for P in self.presentations():
            basic = lk.construct_basic(P)
            assert basic.sticks == reference_basic(P)
            assert lk.reduce_ends(P).sticks == reference_reduced(P)
            if lk.is_star_shaped(P):
                continue
            nns = normalized(P)
            assert lk.construct_nonstar(nns).sticks == reference_nonstar(nns, nns.lift_page)
            nonstar += 1
        assert nonstar >= 40

    def test_lift_sweep_equals_reference_at_every_level(self):
        levels = 0
        for a in (5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 24):
            rng = random.Random(7000 + a)
            for _ in range(2):
                P = lk.random_presentation(a, rng)
                if lk.is_star_shaped(P):
                    continue
                nns = normalized(P)
                sweep = lift_sweep(nns)
                for level, poly in enumerate(sweep, start=1):
                    assert poly.sticks == reference_nonstar(nns, level)
                levels += len(sweep)
        assert levels >= 50

    def test_polygon_fuses_straight_corners_in_any_rotation_or_direction(self):
        # a 2x2 square with a repeated corner and two straight-through points
        cycle = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (2, 2, 0), (1, 2, 0), (0, 2, 0)]
        expected = _polygon([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)])
        assert len(expected.sticks) == 4
        for r in range(len(cycle)):
            assert _polygon(cycle[r:] + cycle[:r]) == expected
            assert _polygon((cycle[r:] + cycle[:r])[::-1]) == expected
        assert expected.sticks[0] == LatticeStick("x", 0, 2, 0, 0)

    @pytest.mark.parametrize(
        "cycle",
        [
            # a spike p -> q -> p off one corner of a square
            [(0, 0, 0), (2, 0, 0), (2, 2, 0), (2, 2, 1), (2, 2, 0), (0, 2, 0)],
            # an overshoot that doubles back along its own axis
            [(0, 0, 0), (3, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)],
        ],
        ids=["spike", "overshoot"],
    )
    def test_reversal_is_kept_and_rejected(self, cycle):
        from latticeknot.lattice import _checked

        with pytest.raises(lk.InternalInvariantError, match="axis_repeat"):
            _checked(cycle, len(cycle))


def reference_validate_polygon(sticks):
    """The three-pass validator that one consecutive and one non-adjacent pass replaced."""
    m = len(sticks)
    violations = []
    if m < 4:
        violations.append(Violation("too_few_sticks", tuple(range(m)), f"{m} sticks cannot close"))
        return violations

    shared_with_next = [None] * m
    for k in range(m):
        s, t = sticks[k], sticks[(k + 1) % m]
        if s.axis == t.axis:
            violations.append(
                Violation("axis_repeat", (k, (k + 1) % m), f"consecutive sticks both on {s.axis}")
            )
        common = reference_overlap_points(s, t)
        if common != 1:
            violations.append(
                Violation(
                    "corner",
                    (k, (k + 1) % m),
                    f"consecutive sticks share {common} points, expected exactly 1",
                )
            )
            continue
        shared = set(stick_endpoints(s)) & set(stick_endpoints(t))
        if len(shared) != 1:
            violations.append(
                Violation("corner", (k, (k + 1) % m), "shared point is not an endpoint of both sticks")
            )
        else:
            shared_with_next[k] = shared.pop()

    for k in range(m):
        p_prev = shared_with_next[(k - 1) % m]
        p_next = shared_with_next[k]
        if p_prev is not None and p_next is not None and p_prev == p_next:
            violations.append(
                Violation("open_chain", ((k - 1) % m, k, (k + 1) % m),
                          f"stick {k} meets both neighbours at {p_prev}")
            )

    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            common = reference_overlap_points(sticks[i], sticks[j])
            if common:
                violations.append(
                    Violation("overlap", (i, j), f"non-adjacent sticks share {common} points")
                )
    return violations


def random_closed_walk(rng, box=3, axes=3, steps=10):
    """Sticks of a closed rectilinear walk in [0, box]^3, in walk order.

    The walk takes 2..steps random steps along the first `axes` axes, then
    closes; with axes=2 every stick lies in one z-plane.  Folds, overlaps
    and straight-through corners are all allowed, so the walk may break any
    polygon invariant.  One time in four a spike goes in at a corner: a
    stick that has the corner as an endpoint and sits between the two
    sticks that meet there.
    """
    start = cur = tuple(rng.randint(0, box) for _ in range(3))
    corners = [start]
    for _ in range(rng.randint(2, steps)):
        d = rng.randrange(axes)
        cur = cur[:d] + (rng.choice([v for v in range(box + 1) if v != cur[d]]),) + cur[d + 1:]
        corners.append(cur)
    for d in rng.sample(range(3), 3):
        if cur[d] != start[d]:
            cur = cur[:d] + (start[d],) + cur[d + 1:]
            corners.append(cur)
    corners.pop()  # back at start
    sticks = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        d = next(e for e in range(3) if p[e] != q[e])
        c1, c2 = (p[e] for e in range(3) if e != d)
        sticks.append(LatticeStick("xyz"[d], min(p[d], q[d]), max(p[d], q[d]), c1, c2))
    if rng.random() < 0.25:
        k = rng.randrange(len(corners))
        p, d = corners[k], rng.randrange(axes)
        c1, c2 = (p[e] for e in range(3) if e != d)
        v = rng.choice([v for v in range(box + 1) if v != p[d]])
        sticks.insert(k, LatticeStick("xyz"[d], min(p[d], v), max(p[d], v), c1, c2))
    return tuple(sticks)


def reference_vertices(sticks):
    """Each stick's one endpoint shared with the stick before it, pair by pair."""
    out = []
    for prev, cur in zip(sticks[-1:] + sticks[:-1], sticks):
        (corner,) = set(stick_endpoints(prev)) & set(stick_endpoints(cur))
        out.append(corner)
    return out


def assert_validates_like_reference(sticks):
    new, old = _violations(sticks), reference_validate_polygon(sticks)
    assert new == reference_violations(sticks)
    assert (new == []) == (old == [])
    if not new:
        poly = LatticePolygon(sticks)
        got = poly.vertices()
        assert got == reference_vertices(sticks)
        got.reverse()
        got.append((-1, -1, -1))
        assert poly.vertices() == reference_vertices(sticks)
    assert [v for v in new if v.kind == "overlap"] == [v for v in old if v.kind == "overlap"]
    repeats = {v.sticks for v in new if v.kind == "axis_repeat"}
    assert repeats == {v.sticks for v in old if v.kind == "axis_repeat"}
    # a corner verdict may differ only where the two sticks share an axis
    assert {v.sticks for v in new if v.kind == "corner"} - repeats == {
        v.sticks for v in old if v.kind == "corner"
    } - repeats
    new_kinds = {v.kind for v in new}
    old_kinds = {v.kind for v in old} - {"open_chain"}
    if repeats:
        new_kinds, old_kinds = new_kinds - {"corner"}, old_kinds - {"corner"}
    assert new_kinds == old_kinds
    return old


class TestValidateAgainstReference:
    """Two passes give the three-pass validator's verdict and overlaps, and
    exactly the per-stick oracle's violation list."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_walks(self, rng):
        assert_validates_like_reference(random_closed_walk(rng))

    def test_seeded_walks_reach_every_verdict(self):
        rng = random.Random(8008)
        valid = open_chains = 0
        for _ in range(2000):
            old = assert_validates_like_reference(random_closed_walk(rng))
            valid += not old
            open_chains += any(v.kind == "open_chain" for v in old)
        assert valid >= 100 and open_chains >= 200

    def test_walks_in_a_larger_box(self):
        """Sticks spread over many planes, so most pairs are never compared."""
        rng = random.Random(8012)
        overlaps = 0
        for _ in range(1000):
            old = assert_validates_like_reference(random_closed_walk(rng, box=12, steps=30))
            overlaps += sum(v.kind == "overlap" for v in old)
        assert overlaps >= 1000

    def test_planar_walks(self):
        """Every stick in one z-plane: one bucket holds every pair, the all-pairs worst case."""
        rng = random.Random(8013)
        valid = overlaps = 0
        for _ in range(500):
            steps = rng.choice([4, 30])
            sticks = random_closed_walk(rng, box=rng.choice([3, 12]), axes=2, steps=steps)
            assert len({v[2] for s in sticks for v in stick_endpoints(s)}) == 1
            old = assert_validates_like_reference(sticks)
            valid += not old
            overlaps += sum(v.kind == "overlap" for v in old)
        assert valid >= 10 and overlaps >= 1000

    def test_spike_is_an_overlap_of_its_neighbours(self):
        # stick 1 runs up from (2, 0, 0) and meets sticks 0 and 2 only there
        sticks = (
            LatticeStick("x", 0, 2, 0, 0),
            LatticeStick("z", 0, 1, 2, 0),
            LatticeStick("y", 0, 2, 2, 0),
            LatticeStick("x", 0, 2, 2, 0),
            LatticeStick("y", 0, 2, 0, 0),
        )
        assert _violations(sticks) == [
            Violation("overlap", (0, 2), "non-adjacent sticks share 1 points")
        ]
        assert {v.kind for v in reference_validate_polygon(sticks)} == {"open_chain", "overlap"}


def construction_cycles(P):
    """The corner cycle of every construction of P: basic, reduced, and the
    nonstar one at every lift level, of P or, when P is star-shaped, of its
    dual."""
    basic = _basic_cycle(P)
    moves = _end_moves(P)
    yield basic
    yield [moves.get(p, p) for p in basic]
    Q = lk.dual(P) if lk.is_star_shaped(P) else P
    if not lk.is_star_shaped(Q):
        nns = normalized(Q)
        for level in range(1, nns.lift_page + 1):
            yield _nonstar_cycle(nns, level)


def assert_polygons_like_the_oracle(presentations):
    """_polygon gives reference_polygon's sticks on every construction cycle; returns the count."""
    built = 0
    for P in presentations:
        for cycle in construction_cycles(P):
            assert _polygon(cycle).sticks == reference_polygon(cycle)
            built += 1
    return built


@st.composite
def corner_cycles(draw):
    """Closed cycles of corners in [0, 3]^3, closed axis by axis like random_closed_walk.

    Repeats, straight-through corners, folds and overlaps are all allowed;
    one step in twenty moves along two axes, which no stick joins.
    """
    start = cur = tuple(draw(st.integers(0, 3)) for _ in range(3))
    cycle = [cur]
    for _ in range(draw(st.integers(1, 12))):
        axes = draw(st.sampled_from([[0], [1], [2], []] * 5 + [[0, 2]]))
        cur = tuple(draw(st.integers(0, 3)) if d in axes else c for d, c in enumerate(cur))
        cycle.append(cur)
    for d in draw(st.permutations(range(3))):
        cur = cur[:d] + (start[d],) + cur[d + 1:]
        cycle.append(cur)
    return cycle


class TestPolygonAgainstThePerStickOracle:
    """_polygon equals the per-stick normaliser it replaced; validate_polygon
    is held to its oracle by TestValidateAgainstReference."""

    def test_polygon_on_every_suite_construction(self):
        assert assert_polygons_like_the_oracle(generate_suite()) >= 1300

    def test_polygon_on_every_a5_presentation(self):
        assert assert_polygons_like_the_oracle(arc_presentations(5)) >= 1500

    @settings(max_examples=200, deadline=None)
    @given(corner_cycles())
    def test_polygon_on_random_corner_cycles(self, cycle):
        """The same sticks, or the same error, or the oracle's exact violations."""
        try:
            want = reference_polygon(cycle)
        except lk.InternalInvariantError as exc:
            with pytest.raises(lk.InternalInvariantError, match=f"^{re.escape(str(exc))}$"):
                _polygon(cycle)
            return
        try:
            got = _polygon(cycle).sticks
        except lk.SelfIntersectionError as exc:
            assert exc.violations == reference_violations(want) != []
        else:
            assert got == want and reference_violations(want) == []


def test_vertices_stay_correct_after_the_caller_changes_the_list(p6):
    poly = lk.reduce_ends(p6)
    got = poly.vertices()
    want = list(got)
    got.reverse()
    got[0] = (99, 99, 99)
    got.append((0, 0, 0))
    assert poly.vertices() == want
    assert poly.vertices() is not poly.vertices()
    assert LatticePolygon(poly.sticks).vertices() == want


def test_vertices_raise_on_every_call_for_a_broken_corner():
    """A polygon whose corners vertices() cannot read is never made: every construction raises."""
    # sticks 0 and 1 share no endpoint
    sticks = (
        LatticeStick("x", 0, 1, 0, 0),
        LatticeStick("y", 0, 1, 5, 0),
        LatticeStick("x", 0, 1, 1, 0),
        LatticeStick("y", 0, 1, 0, 0),
    )
    for _ in range(2):
        with pytest.raises(lk.SelfIntersectionError) as info:
            LatticePolygon(sticks)
        assert Violation(
            "corner", (0, 1), "consecutive sticks share 0 endpoints, expected exactly 1"
        ) in info.value.violations


@pytest.fixture
def validations(monkeypatch):
    """The polygons validate_polygon is called on, in call order."""
    seen = []
    real = lattice_mod.validate_polygon

    def counted(poly):
        seen.append(poly)
        return real(poly)

    monkeypatch.setattr(lattice_mod, "validate_polygon", counted)
    return seen


def test_one_validation_per_certify(validations):
    names = dataset.names()
    assert len(names) == 17
    for name in names:
        validations.clear()
        poly, _ = lk.construct_auto(dataset.get(name).arcs)
        assert validations == [poly], name


def test_one_validation_per_render(tmp_path, validations):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(lk.construct_auto(dataset.get("7_4").arcs)[0].to_json_obj()))
    validations.clear()
    assert cli.main(["render", str(path), "--svg", str(tmp_path / "out.svg")]) == 0
    assert len(validations) == 1
