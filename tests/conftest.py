"""Shared fixtures and test oracles: reference presentations, the seeded
random suite, helpers that only the tests use (faces, mirror, exact
division, the lift sweep, random and page-permuted star presentations, a
stick's points, constructions scaled and moved across the coordinate
range), the per-stick forms of the polygon normaliser and the validator
that the flat passes in src/ replaced, and the rescanning simplify loop
that the worklist pass replaced."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

import pytest
from hypothesis import strategies as st

import latticeknot as lk
from latticeknot import LaurentPolynomial, LatticePolygon, jsonio
from latticeknot.certify import build_branch
from latticeknot.diagram import _assemble
from latticeknot.errors import InternalInvariantError
from latticeknot.lattice import FIXED_COORDS, LatticeStick, Violation, _nonstar_cycle, _polygon

SUITE_SEED = 20260809
SUITE_SIZE = 200


@pytest.fixture(scope="session")
def p5():
    """Pentagram presentation of the trefoil, a=5."""
    return lk.validate([[1, 4], [2, 5], [1, 3], [2, 4], [3, 5]])


@pytest.fixture(scope="session")
def p6():
    """Figure-8 presentation, a=6 (bundled dataset entry)."""
    return lk.validate([[1, 3], [2, 5], [4, 6], [3, 5], [1, 4], [2, 6]])


@pytest.fixture(scope="session")
def p7():
    """Star presentation of the (4,3)-torus knot: chords {i, i+3 mod* 7}, pages in order."""
    return star_in_order(7)


def star_chords(a: int) -> list[tuple[int, int]]:
    """The a chords {i, mod*(i+n, a)} of a star presentation, n = (a-1) // 2, for i = 1..a."""
    n = (a - 1) // 2
    chords = []
    for i in range(1, a + 1):
        j = lk.mod_star(i + n, a)
        chords.append((min(i, j), max(i, j)))
    return chords


def star_in_order(a: int) -> lk.ArcPresentation:
    """Star presentation with page(c_i) = i; the (n+1, n)-torus knot."""
    return lk.validate(star_chords(a))


def star_presentations(a: int):
    """The star presentation under every order of its pages: a! presentations."""
    for pages in permutations(sorted(star_in_order(a).arcs)):
        yield lk.ArcPresentation(pages)


def random_star_presentation(a: int, rng: random.Random) -> lk.ArcPresentation:
    """Star-shaped presentation with a random page assignment; a must be odd."""
    if a < 3 or a % 2 == 0:
        raise ValueError("star-shaped presentations need odd a >= 3")
    edges = star_chords(a)
    rng.shuffle(edges)
    return lk.ArcPresentation(tuple(edges))


def arc_presentations(a: int):
    """Every arc presentation with a arcs, one per class under page rotation.

    The binding cycle is (1, *perm) with perm[0] < perm[-1], so each cycle
    is listed in one direction; page 1 holds its first edge {1, perm[0]}
    and pages 2..a every order of the other a - 1 edges.
    """
    for perm in permutations(range(2, a + 1)):
        if perm[0] > perm[-1]:
            continue
        cycle = (1, *perm)
        first, *rest = [tuple(sorted((cycle[k], cycle[(k + 1) % a]))) for k in range(a)]
        for pages in permutations(rest):
            yield lk.ArcPresentation((first, *pages))


def certified_polygon(a: int) -> lk.LatticePolygon:
    """The polygon certify builds for a seeded random presentation with a arcs."""
    return build_branch(lk.random_presentation(a, random.Random(9000 + a)), "auto")[1]


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Independent oracle: (t^{pq}-1)(t-1) / ((t^p-1)(t^q-1)), canonical."""

    def tn(k):
        return LaurentPolynomial({k: 1, 0: -1})

    return lk.canonicalize(div_exact(div_exact(tn(p * q) * tn(1), tn(p)), tn(q)))


def div_exact(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Exact division p / q; raises ValueError when the quotient is not integral."""
    if q.is_zero:
        raise lk.ZeroPolynomialError("division by the zero polynomial")
    if p.is_zero:
        return LaurentPolynomial.zero()
    shift = p.min_exp - q.min_exp
    num = dict(p.shifted(-p.min_exp).items())
    den = q.shifted(-q.min_exp)
    quot: dict[int, int] = {}
    den_deg = den.max_exp
    den_lead = den.coeff(den_deg)
    while num:
        deg = max(num)
        if deg < den_deg:
            raise ValueError("inexact polynomial division")
        lead = num[deg]
        if lead % den_lead:
            raise ValueError("inexact polynomial division")
        term = lead // den_lead
        quot[deg - den_deg] = term
        for e, c in den.items():
            ne = e + deg - den_deg
            num[ne] = num.get(ne, 0) - term * c
            if not num[ne]:
                del num[ne]
    return LaurentPolynomial(quot).shifted(shift)


def mirror(d: lk.PlanarDiagram) -> lk.PlanarDiagram:
    """Swap over and under everywhere (mirror image diagram)."""
    gauss = tuple([(ci, not passes_over) for ci, passes_over in d.gauss])
    return lk.PlanarDiagram(gauss, tuple([-s for s in d.signs]))


def faces(d: lk.PlanarDiagram) -> list[list[tuple[int, int]]]:
    """Faces of the 4-valent planar map as orbits of darts (crossing, slot)."""
    n = d.n
    if n == 0:
        return []
    at_label: dict[int, list[tuple[int, int]]] = {}
    for ci, labels in enumerate(d.pd):
        for slot, e in enumerate(labels):
            at_label.setdefault(e, []).append((ci, slot))
    # a consistent diagram has each edge label at exactly two darts
    alpha: dict[tuple[int, int], tuple[int, int]] = {}
    for first, second in at_label.values():
        alpha[first] = second
        alpha[second] = first

    def nxt(dart):
        ci, slot = alpha[dart]
        return (ci, (slot + 1) % 4)

    out = []
    todo = {(ci, s) for ci in range(n) for s in range(4)}
    while todo:
        start = min(todo)
        face = [start]
        todo.remove(start)
        cur = nxt(start)
        while cur != start:
            face.append(cur)
            todo.remove(cur)
            cur = nxt(cur)
        out.append(face)
    if len(out) != n + 2:
        raise InternalInvariantError(
            f"face count {len(out)} breaks Euler's formula for {n} crossings"
        )
    return out


def lift_sweep(nns: lk.NormalizedNonStar) -> list[lk.LatticePolygon]:
    """Snapshots of the flipped arc at every z-level 1..lift_page.

    Level 1 is the reduced pre-lift polygon and level lift_page the merged
    final one.  When the arc passes the level of its alpha-side neighbour
    the connecting z-stick degenerates away and collinear sticks fuse; each
    snapshot is a valid polygon, witnessing the free vertical slide.
    """
    return [_polygon(_nonstar_cycle(nns, level)) for level in range(1, nns.lift_page + 1)]


@dataclass
class SuiteItem:
    presentation: lk.ArcPresentation
    polygon: lk.LatticePolygon
    certificate: lk.ConstructionCertificate


def generate_suite(seed: int = SUITE_SEED, size: int = SUITE_SIZE) -> list[lk.ArcPresentation]:
    """The seeded random presentations used across the acceptance criteria."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        a = rng.randint(5, 9)
        if rng.random() < 0.3 and a % 2 == 1:
            out.append(random_star_presentation(a, rng))
        else:
            out.append(lk.random_presentation(a, rng))
    return out


@pytest.fixture(scope="session")
def random_suite() -> list[SuiteItem]:
    """200 seeded presentations run through the full pipeline once."""
    items = []
    for P in generate_suite():
        poly, cert = lk.construct_auto(P)
        items.append(SuiteItem(P, poly, cert))
    return items


# ---------------------------------------------------------------------------
# the rescanning simplify loop the worklist pass replaced


def rescan_simplify_diagram(d: lk.PlanarDiagram) -> lk.PlanarDiagram:
    """simplify_diagram as a rescanning loop: all kinks at once, then the
    first bigon in passage order, each round rebuilt from the whole word."""
    events = list(d.gauss)
    while events:
        kinks = {ci for j, (ci, _) in enumerate(events) if events[j - 1][0] == ci}
        if kinks:
            events = [ev for ev in events if ev[0] not in kinks]
            continue
        total = len(events)
        # sum of a crossing's two positions: position j's partner is spans[ci] - j
        spans: dict[int, int] = {}
        for j, (ci, _) in enumerate(events):
            spans[ci] = spans.get(ci, 0) + j
        bigon = None
        for j, (k1, over1) in enumerate(events):
            j2 = (j + 1) % total
            k2, over2 = events[j2]
            gap = (spans[k1] - j) - (spans[k2] - j2)
            if k1 != k2 and over1 == over2 and gap % total in (1, total - 1):
                bigon = (k1, k2)
                break
        if bigon is None:
            break
        events = [ev for ev in events if ev[0] not in bigon]
    return _assemble(events, d.signs)


# ---------------------------------------------------------------------------
# a stick's points, and the per-stick kernels the flat passes replaced


def stick_point_at(s: LatticeStick, value: int) -> tuple[int, int, int]:
    """The point of s's line whose varying coordinate is value."""
    if s.axis == "x":
        return (value, s.c1, s.c2)
    if s.axis == "y":
        return (s.c1, value, s.c2)
    return (s.c1, s.c2, value)


def stick_endpoints(s: LatticeStick) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    return (stick_point_at(s, s.lo), stick_point_at(s, s.hi))


def stick_ranges(s: LatticeStick) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Closed integer range of the stick in each of x, y, z."""
    if s.axis == "x":
        return ((s.lo, s.hi), (s.c1, s.c1), (s.c2, s.c2))
    if s.axis == "y":
        return ((s.c1, s.c1), (s.lo, s.hi), (s.c2, s.c2))
    return ((s.c1, s.c1), (s.c2, s.c2), (s.lo, s.hi))


def reference_overlap_points(s: LatticeStick, t: LatticeStick) -> int:
    """Number of lattice points on both sticks."""
    total = 1
    for (lo1, hi1), (lo2, hi2) in zip(stick_ranges(s), stick_ranges(t)):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return 0
        total *= hi - lo + 1
    return total


def reference_polygon(cycle: list[tuple[int, int, int]]) -> tuple[LatticeStick, ...]:
    """The sticks through a closed cycle of corner points, in canonical order,
    with one sign step per corner pair and one axis list per stick."""

    def step(p, q):
        return [(v > u) - (v < u) for u, v in zip(p, q)]

    pts = [p for k, p in enumerate(cycle) if p != cycle[k - 1]]
    steps = [step(p, q) for p, q in zip(pts, pts[1:] + pts[:1])]
    pts = [p for k, p in enumerate(pts) if steps[k - 1] != steps[k]]
    if len(pts) < 2:
        raise InternalInvariantError("corner cycle collapses to a point")
    sticks = []
    for p, q in zip(pts, pts[1:] + pts[:1]):
        axes = [d for d in range(3) if p[d] != q[d]]
        if len(axes) != 1:
            raise InternalInvariantError(f"corners {p} and {q} are not joined by one stick")
        d = axes[0]
        c1, c2 = (p[e] for e in range(3) if e != d)
        sticks.append(LatticeStick("xyz"[d], min(p[d], q[d]), max(p[d], q[d]), c1, c2))
    m = len(sticks)
    start = min(range(m), key=lambda k: (sticks[k].axis, sticks[k].c1, sticks[k].c2, sticks[k].lo))
    step = 1 if pts[start] == stick_endpoints(sticks[start])[0] else -1
    return tuple([sticks[(start + step * t) % m] for t in range(m)])


def reference_violations(sticks: tuple[LatticeStick, ...]) -> list[Violation]:
    """The two-pass validator with per-stick endpoint sets and range boxes,
    and the non-adjacent pairs collected into a set before any box test."""
    m = len(sticks)
    violations: list[Violation] = []
    if m < 4:
        violations.append(Violation("too_few_sticks", tuple(range(m)), f"{m} sticks cannot close"))
        return violations

    ends = [set(stick_endpoints(s)) for s in sticks]
    for k in range(m):
        s, t = sticks[k], sticks[(k + 1) % m]
        if s.axis == t.axis:
            violations.append(
                Violation("axis_repeat", (k, (k + 1) % m), f"consecutive sticks both on {s.axis}")
            )
        common = len(ends[k] & ends[(k + 1) % m])
        if common != 1:
            violations.append(
                Violation(
                    "corner",
                    (k, (k + 1) % m),
                    f"consecutive sticks share {common} endpoints, expected exactly 1",
                )
            )

    planes: dict[tuple[str, int], list[int]] = {}
    for k, s in enumerate(sticks):
        n1, n2 = FIXED_COORDS[s.axis]
        planes.setdefault((n1, s.c1), []).append(k)
        planes.setdefault((n2, s.c2), []).append(k)
    pairs = {
        (i, j)
        for ks in planes.values()
        for x, i in enumerate(ks)
        for j in ks[x + 1:]
        if j > i + 1 and (i, j) != (0, m - 1)
    }
    for i, j in sorted(pairs):
        common = reference_overlap_points(sticks[i], sticks[j])
        if common:
            violations.append(
                Violation("overlap", (i, j), f"non-adjacent sticks share {common} points")
            )
    return violations


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
