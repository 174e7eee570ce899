"""Axis-parallel stick polygons in the cubic lattice.

Builds explicit self-avoiding polygons from arc presentations.  Every
construction is one closed cycle of corner points plus a few point moves:
the 3a build walks the knot once; the two end reductions to 3a-2 slide
the corners at bindings 1 and a off the diagonal; the flip-and-lift to
3a-4 puts the page-1 arc above the diagonal and raises its three corners
to z = lift_page.  One normaliser turns a cycle into sticks in canonical
order, and every polygon is validated by exact integer interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arc import ArcPresentation, NormalizedNonStar
from .errors import InternalInvariantError

Point = tuple[int, int, int]

# fixed-coordinate names per axis, in the order (c1, c2)
FIXED_COORDS = {"x": ("y", "z"), "y": ("x", "z"), "z": ("x", "y")}


@dataclass(frozen=True)
class LatticeStick:
    """One axis-parallel segment: the varying coordinate runs lo..hi.

    For an x-stick, c1 is the fixed y and c2 the fixed z; for a y-stick,
    c1=x, c2=z; for a z-stick, c1=x, c2=y.  Zero length is forbidden.
    """

    axis: str
    lo: int
    hi: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.axis not in FIXED_COORDS:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")
        if self.lo >= self.hi:
            raise ValueError(f"stick needs lo < hi, got {self.lo}..{self.hi}")

    def point_at(self, value: int) -> Point:
        if self.axis == "x":
            return (value, self.c1, self.c2)
        if self.axis == "y":
            return (self.c1, value, self.c2)
        return (self.c1, self.c2, value)

    def endpoints(self) -> tuple[Point, Point]:
        return (self.point_at(self.lo), self.point_at(self.hi))

    def ranges(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """Closed integer range of the stick in each of x, y, z."""
        if self.axis == "x":
            return ((self.lo, self.hi), (self.c1, self.c1), (self.c2, self.c2))
        if self.axis == "y":
            return ((self.c1, self.c1), (self.lo, self.hi), (self.c2, self.c2))
        return ((self.c1, self.c1), (self.c2, self.c2), (self.lo, self.hi))

    def to_json_obj(self) -> dict:
        n1, n2 = FIXED_COORDS[self.axis]
        return {
            "axis": self.axis,
            "range": [self.lo, self.hi],
            "fixed": {n1: self.c1, n2: self.c2},
        }


@dataclass(frozen=True)
class LatticePolygon:
    """Closed self-avoiding cycle of sticks, stored in cyclic order."""

    sticks: tuple[LatticeStick, ...]

    def vertices(self) -> list[Point]:
        """Corner points in traversal order; stick k runs vertices[k] -> vertices[k+1]."""
        m = len(self.sticks)
        out = []
        for k in range(m):
            prev = self.sticks[(k - 1) % m]
            cur = self.sticks[k]
            shared = set(prev.endpoints()) & set(cur.endpoints())
            if len(shared) != 1:
                raise InternalInvariantError(
                    f"sticks {(k - 1) % m} and {k} share {len(shared)} endpoints"
                )
            out.append(shared.pop())
        return out

    def to_json_obj(self) -> dict:
        return {"sticks": [s.to_json_obj() for s in self.sticks]}


@dataclass(frozen=True)
class Violation:
    kind: str
    sticks: tuple[int, ...]
    detail: str


class SelfIntersectionError(RuntimeError):
    """A polygon failed validation; carries the violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(f"{v.kind}{list(v.sticks)}: {v.detail}" for v in violations))


def stick_count(poly: LatticePolygon) -> int:
    return len(poly.sticks)


def _overlap_points(box1: tuple, box2: tuple) -> int:
    """Number of lattice points in both of two ranges() boxes (exact, O(1))."""
    total = 1
    for (lo1, hi1), (lo2, hi2) in zip(box1, box2):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return 0
        total *= hi - lo + 1
    return total


def validate_polygon(poly: LatticePolygon) -> list[Violation]:
    """Check every polygon invariant; an empty list means the polygon is valid.

    Two passes.  Consecutive sticks must lie on different axes and share
    exactly one endpoint, the test vertices() makes; for perpendicular
    sticks that is the same as meeting in one point that ends both.
    Non-adjacent sticks must share no lattice point; only pairs in a common
    coordinate plane are compared, so the cost is quadratic only in the
    largest number of sticks that share one plane.  A stick that meets
    both neighbours at one point p needs no check of its own: its two
    neighbours both contain p and, for m >= 4, are not adjacent, so the
    second pass reports them as an overlap.
    """
    sticks = poly.sticks
    m = len(sticks)
    violations: list[Violation] = []
    if m < 4:
        violations.append(Violation("too_few_sticks", tuple(range(m)), f"{m} sticks cannot close"))
        return violations

    for k in range(m):
        s, t = sticks[k], sticks[(k + 1) % m]
        if s.axis == t.axis:
            violations.append(
                Violation("axis_repeat", (k, (k + 1) % m), f"consecutive sticks both on {s.axis}")
            )
        common = len(set(s.endpoints()) & set(t.endpoints()))
        if common != 1:
            violations.append(
                Violation(
                    "corner",
                    (k, (k + 1) % m),
                    f"consecutive sticks share {common} endpoints, expected exactly 1",
                )
            )

    # sticks that share a point share a plane: perpendicular ones the plane
    # of the third coordinate, parallel ones both planes of their axis
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
    boxes = [s.ranges() for s in sticks]
    for i, j in sorted(pairs):
        common = _overlap_points(boxes[i], boxes[j])
        if common:
            violations.append(
                Violation("overlap", (i, j), f"non-adjacent sticks share {common} points")
            )
    return violations


def require_valid(poly: LatticePolygon) -> LatticePolygon:
    """Return poly, or raise SelfIntersectionError with its violations."""
    violations = validate_polygon(poly)
    if violations:
        raise SelfIntersectionError(violations)
    return poly


def _step(p: Point, q: Point) -> list[int]:
    """Sign of q - p in each coordinate."""
    return [(v > u) - (v < u) for u, v in zip(p, q)]


def _polygon(cycle: list[Point]) -> LatticePolygon:
    """The sticks through a closed cycle of corner points, in canonical order.

    Repeated points and straight-through corners are dropped.  A reversal,
    where the path turns back along its own axis, is kept, so validation
    still rejects a fold.  The sticks start at the one with the least
    (axis, c1, c2, lo) and run so that this stick goes from lo to hi.
    """
    pts = [p for k, p in enumerate(cycle) if p != cycle[k - 1]]
    n = len(pts)
    pts = [p for k, p in enumerate(pts) if _step(pts[k - 1], p) != _step(p, pts[(k + 1) % n])]
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
    step = 1 if pts[start] == sticks[start].endpoints()[0] else -1
    # tuples from lists, not generators, on the certify path: tuple() of a
    # generator grows its result by resizing, and each resized tuple is later
    # parked on the free list of its final size until a full gc collection
    return LatticePolygon(tuple([sticks[(start + step * t) % m] for t in range(m)]))


def _checked(cycle: list[Point], sticks: int | None = None) -> LatticePolygon:
    """The validated polygon of a constructed cycle; any failure is a bug."""
    poly = _polygon(cycle)
    try:
        require_valid(poly)
    except SelfIntersectionError as exc:
        raise InternalInvariantError(f"constructed polygon is invalid: {exc}") from exc
    if sticks is not None and len(poly.sticks) != sticks:
        raise InternalInvariantError(
            f"construction produced {len(poly.sticks)} sticks, expected {sticks}"
        )
    return poly


def _basic_cycle(P: ArcPresentation, flip_page: int | None = None) -> list[Point]:
    """Corners of the 3a construction, in one walk along the knot.

    Each binding visit adds (b, b, k) for the page it arrives on and for
    the page it leaves on; the arc {i < j} at page k adds the corner
    (j, i, k) below the diagonal, or (i, j, k) above it when k == flip_page.
    """
    cycle: list[Point] = []
    b, page = 1, P.pages_at(1)[0]
    for _ in range(P.a):
        k1, k2 = P.pages_at(b)
        nxt = k2 if page == k1 else k1
        i, j = P.arcs[nxt - 1]
        corner = (i, j, nxt) if nxt == flip_page else (j, i, nxt)
        cycle += [(b, b, page), (b, b, nxt), corner]
        b, page = (j if b == i else i), nxt
    return cycle


def _end_moves(P: ArcPresentation) -> dict[Point, Point]:
    """Corner moves of the two end reductions (-2 sticks).

    Both arcs at binding 1 leave along x at y=1.  Its diagonal corners
    (1, 1, k) slide to x = i_short, the nearer far end, so the shorter
    x-stick vanishes and the z-stick moves off the diagonal.  Binding a
    mirrors this along y at x=a: (a, a, l) slides to y = j_short.
    """
    a = P.a
    i1, i2 = P.far_ends(1)
    if i1 == i2:
        raise InternalInvariantError("both arcs at binding 1 have the same far end")
    j1, j2 = P.far_ends(a)
    if j1 == j2:
        raise InternalInvariantError("both arcs at binding a have the same far end")
    i_short, j_short = min(i1, i2), max(j1, j2)  # larger lower endpoint = shorter stick
    moves = {(1, 1, k): (i_short, 1, k) for k in P.pages_at(1)}
    moves.update({(a, a, l): (a, j_short, l) for l in P.pages_at(a)})
    return moves


def construct_basic(P: ArcPresentation) -> LatticePolygon:
    """Two sticks per arc below the diagonal plus one z-stick per binding point.

    Returns a valid polygon with exactly 3a sticks; every z-stick sits on
    the x=y diagonal.
    """
    if P.a < 5:
        raise ValueError(f"construction needs a >= 5, got a={P.a}")
    return _checked(_basic_cycle(P), 3 * P.a)


def reduce_ends(poly: LatticePolygon, P: ArcPresentation) -> LatticePolygon:
    """Apply both end reductions to the basic construction: 3a-2 sticks."""
    cycle = _basic_cycle(P)
    if len(poly.sticks) != 3 * P.a or poly != _polygon(cycle):
        raise InternalInvariantError("reduce_ends expects the 3a-stick basic construction")
    moves = _end_moves(P)
    return _checked([moves.get(p, p) for p in cycle], 3 * P.a - 2)


def _nonstar_cycle(nns: NormalizedNonStar, level: int) -> list[Point]:
    """Reduced construction with the page-1 arc flipped and lifted to z = level.

    Level 1 is the pre-lift state.  The lift moves the flipped arc's three
    corners (alpha, alpha, 1), (alpha, beta, 1) and (beta, beta, 1) up to
    z = level; at level == lift_page the corner (beta, beta, lift_page)
    repeats and the flipped x-stick runs straight into the lift_page arc's.
    """
    P = nns.presentation
    a = P.a
    alpha, beta, k = nns.alpha, nns.beta, nns.lift_page
    if not (1 < alpha < beta < a):
        raise InternalInvariantError("normalized witness out of range")

    if not 1 < k <= a or P.arcs[k - 1] != (beta, a):
        raise InternalInvariantError(f"arc ({beta},{a}) is not at lift_page {k}")
    if k in P.pages_at(alpha):
        raise InternalInvariantError("both witness attachment pages coincide")

    moves = _end_moves(P)
    for x, y in ((alpha, alpha), (alpha, beta), (beta, beta)):
        moves[(x, y, 1)] = (x, y, level)
    return [moves.get(p, p) for p in _basic_cycle(P, flip_page=1)]


def construct_nonstar(nns: NormalizedNonStar) -> LatticePolygon:
    """Flip the page-1 arc above the diagonal, reduce both ends, lift it.

    The lift to z = lift_page removes the z-stick at (beta, beta) and merges
    two collinear x-sticks, giving a valid polygon with exactly 3a-4 sticks.
    """
    return _checked(_nonstar_cycle(nns, nns.lift_page), 3 * nns.presentation.a - 4)


def lift_sweep(nns: NormalizedNonStar) -> list[LatticePolygon]:
    """Snapshots of the flipped arc at every z-level 1..lift_page.

    Level 1 is the reduced pre-lift polygon and level lift_page the merged
    final one.  When the arc passes the level of its alpha-side neighbour
    the connecting z-stick degenerates away and collinear sticks fuse; each
    snapshot is a valid polygon, witnessing the free vertical slide.
    """
    return [_checked(_nonstar_cycle(nns, level)) for level in range(1, nns.lift_page + 1)]
