"""Axis-parallel stick polygons in the cubic lattice.

Builds explicit self-avoiding polygons from arc presentations.  Every
construction is one closed cycle of corner points plus a few point moves:
the 3a build walks the knot once; the two end reductions to 3a-2 slide
the corners at bindings 1 and a off the diagonal; the flip-and-lift to
3a-4 puts the page-1 arc above the diagonal and raises its three corners
to z = lift_page.  One normaliser turns a cycle into sticks in canonical
order.  A LatticePolygon is validated once, by exact integer interval
arithmetic, when it is made, and cannot exist invalid.  The joints of
consecutive sticks are found once per polygon: validation counts them
and vertices() reads the corners off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    def to_json_obj(self) -> dict:
        n1, n2 = FIXED_COORDS[self.axis]
        return {
            "axis": self.axis,
            "range": [self.lo, self.hi],
            "fixed": {n1: self.c1, n2: self.c2},
        }


@dataclass(frozen=True)
class LatticePolygon:
    """Closed self-avoiding cycle of sticks, stored in cyclic order.

    Construction validates it, so every polygon that exists is valid.
    """

    sticks: tuple[LatticeStick, ...]

    def __post_init__(self):
        violations = validate_polygon(self)
        if violations:
            raise SelfIntersectionError(violations)

    @cached_property
    def _joints(self) -> tuple[tuple[Point, ...], ...]:
        """For each stick, the endpoints it shares with the stick before it.

        Derived once, for validation's corner check and for vertices().
        """
        ends = []
        for s in self.sticks:
            axis, lo, hi, c1, c2 = s.axis, s.lo, s.hi, s.c1, s.c2
            if axis == "x":
                ends.append({(lo, c1, c2), (hi, c1, c2)})
            elif axis == "y":
                ends.append({(c1, lo, c2), (c1, hi, c2)})
            else:
                ends.append({(c1, c2, lo), (c1, c2, hi)})
        return tuple([tuple(ends[k - 1] & e) for k, e in enumerate(ends)])

    def vertices(self) -> list[Point]:
        """Corner points in traversal order; stick k runs vertices[k] -> vertices[k+1].

        Vertex k is stick k's one joint with stick k - 1, which validation
        checked.  A new list on every call, so a caller may change it freely.
        """
        return [corner for (corner,) in self._joints]

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


def validate_polygon(poly: LatticePolygon) -> list[Violation]:
    """Check every polygon invariant; an empty list means the polygon is valid.

    LatticePolygon runs it once, at construction, and raises
    SelfIntersectionError on a non-empty list.  Consecutive sticks must
    lie on different axes and share exactly one endpoint; the polygon's
    joint list holds the shared endpoints, and for a valid polygon its one
    entry per stick is the corner vertices() reads.  For perpendicular
    sticks sharing one endpoint is the same as meeting in one point that
    ends both.  These checks format no message unless a joint is bad.
    Non-adjacent sticks must share no lattice point.  Sticks that share a
    point share a plane: perpendicular ones the plane of the third
    coordinate, parallel ones both planes of their axis.  One pass files
    each stick under its two planes with its box in the plane's other two
    coordinates, and only pairs in a common plane are box-tested, so the
    cost is quadratic only in the largest number of sticks in one plane.
    A stick that meets both neighbours at one point p needs no check of
    its own: its two neighbours both contain p and, for m >= 4, are not
    adjacent, so they are reported as an overlap.  The consecutive
    violations come first, in stick order, then the overlaps by pair.
    """
    sticks = poly.sticks
    m = len(sticks)
    if m < 4:
        return [Violation("too_few_sticks", tuple(range(m)), f"{m} sticks cannot close")]

    # plane (fixed coordinate, value) -> (stick, box lo, hi in the plane's
    # first other coordinate, then lo, hi in its second)
    planes: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    repeat, last = False, sticks[-1].axis
    for k, s in enumerate(sticks):
        axis, lo, hi, c1, c2 = s.axis, s.lo, s.hi, s.c1, s.c2
        repeat = repeat or axis == last
        last = axis
        if axis == "x":
            planes.setdefault((1, c1), []).append((k, lo, hi, c2, c2))
            planes.setdefault((2, c2), []).append((k, lo, hi, c1, c1))
        elif axis == "y":
            planes.setdefault((0, c1), []).append((k, lo, hi, c2, c2))
            planes.setdefault((2, c2), []).append((k, c1, c1, lo, hi))
        else:
            planes.setdefault((0, c1), []).append((k, c2, c2, lo, hi))
            planes.setdefault((1, c2), []).append((k, c1, c1, lo, hi))

    violations: list[Violation] = []
    joints = poly._joints
    if repeat or {*map(len, joints)} != {1}:
        for k in range(m):
            pair, axis = (k, (k + 1) % m), sticks[k].axis
            if axis == sticks[pair[1]].axis:
                text = f"consecutive sticks both on {axis}"
                violations.append(Violation("axis_repeat", pair, text))
            common = len(joints[pair[1]])
            if common != 1:
                text = f"consecutive sticks share {common} endpoints, expected exactly 1"
                violations.append(Violation("corner", pair, text))

    # a pair in two common planes, two parallel sticks on one line, is found twice
    overlaps: dict[tuple[int, int], int] = {}
    for bucket in planes.values():
        for n, (i, alo, ahi, blo, bhi) in enumerate(bucket):
            for j, clo, chi, dlo, dhi in bucket[n + 1:]:
                if alo <= chi and clo <= ahi and blo <= dhi and dlo <= bhi and 1 < j - i < m - 1:
                    overlaps[i, j] = (
                        (min(ahi, chi) - max(alo, clo) + 1) * (min(bhi, dhi) - max(blo, dlo) + 1)
                    )
    for pair in sorted(overlaps):
        violations.append(
            Violation("overlap", pair, f"non-adjacent sticks share {overlaps[pair]} points")
        )
    return violations


def _polygon(cycle: list[Point]) -> LatticePolygon:
    """The sticks through a closed cycle of corner points, in canonical order.

    Repeated points and straight-through corners are dropped.  A reversal,
    where the path turns back along its own axis, is kept, so validation
    still rejects a fold.  The sticks start at the one with the least
    (axis, c1, c2, lo), the first such on a tie, and run so that this
    stick goes from lo to hi.
    """
    pts = [p for k, p in enumerate(cycle) if p != cycle[k - 1]]
    # the sign of q - p in each coordinate
    steps = [
        ((u > x) - (u < x), (v > y) - (v < y), (w > z) - (w < z))
        for (x, y, z), (u, v, w) in zip(pts, pts[1:] + pts[:1])
    ]
    pts = [p for k, p in enumerate(pts) if steps[k - 1] != steps[k]]
    if len(pts) < 2:
        raise InternalInvariantError("corner cycle collapses to a point")

    # per stick (axis, c1, c2, lo, index, hi, whether it runs lo -> hi)
    rows = []
    for k, ((x, y, z), (u, v, w)) in enumerate(zip(pts, pts[1:] + pts[:1])):
        if x != u and y == v and z == w:
            rows.append(("x", y, z, min(x, u), k, max(x, u), x < u))
        elif y != v and x == u and z == w:
            rows.append(("y", x, z, min(y, v), k, max(y, v), y < v))
        elif z != w and x == u and y == v:
            rows.append(("z", x, y, min(z, w), k, max(z, w), z < w))
        else:
            raise InternalInvariantError(
                f"corners {(x, y, z)} and {(u, v, w)} are not joined by one stick"
            )

    m = len(rows)
    start = min(rows)[4]
    step = 1 if rows[start][6] else -1
    order = [rows[(start + step * t) % m] for t in range(m)]
    # tuples from lists, not generators, on the certify path: tuple() of a
    # generator grows its result by resizing, and each resized tuple is later
    # parked on the free list of its final size until a full gc collection
    sticks = [LatticeStick(axis, lo, hi, c1, c2) for axis, c1, c2, lo, _, hi, _ in order]
    return LatticePolygon(tuple(sticks))


def _checked(cycle: list[Point], sticks: int) -> LatticePolygon:
    """The polygon of a constructed cycle; an invalid one is a bug."""
    try:
        poly = _polygon(cycle)
    except SelfIntersectionError as exc:
        raise InternalInvariantError(f"constructed polygon is invalid: {exc}") from exc
    if len(poly.sticks) != sticks:
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
    mirrors this along y at x=a: (a, a, l) slides to y = j_short.  The two
    far ends differ: a doubled pair is a 2-cycle, which a valid presentation
    with a >= 3 cannot hold.
    """
    a = P.a
    i1, i2 = P.far_ends(1)
    j1, j2 = P.far_ends(a)
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


def reduce_ends(P: ArcPresentation) -> LatticePolygon:
    """The basic construction with both end reductions applied: 3a-2 sticks."""
    if P.a < 5:
        raise ValueError(f"construction needs a >= 5, got a={P.a}")
    moves = _end_moves(P)
    return _checked([moves.get(p, p) for p in _basic_cycle(P)], 3 * P.a - 2)


def _nonstar_cycle(nns: NormalizedNonStar, level: int) -> list[Point]:
    """Reduced construction with the page-1 arc flipped and lifted to z = level.

    Level 1 is the pre-lift state.  The lift moves the flipped arc's three
    corners (alpha, alpha, 1), (alpha, beta, 1) and (beta, beta, 1) up to
    z = level; at level == lift_page the corner (beta, beta, lift_page)
    repeats and the flipped x-stick runs straight into the lift_page arc's.
    NormalizedNonStar checked that configuration when it was made.
    """
    P, alpha, beta = nns.presentation, nns.alpha, nns.beta
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
