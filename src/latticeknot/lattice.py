"""Axis-parallel stick polygons in the cubic lattice.

Builds explicit self-avoiding polygons from arc presentations: the plain
3a construction, the two end reductions bringing it to 3a-2, and the
flip-and-lift construction reaching 3a-4 for non-star presentations.
All geometry is exact integer interval arithmetic.
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
    """A constructed polygon failed validation; carries the violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(f"{v.kind}{list(v.sticks)}: {v.detail}" for v in violations))


def stick_count(poly: LatticePolygon) -> int:
    return len(poly.sticks)


def _overlap_points(s: LatticeStick, t: LatticeStick) -> int:
    """Number of lattice points shared by two sticks (exact, O(1))."""
    total = 1
    for (lo1, hi1), (lo2, hi2) in zip(s.ranges(), t.ranges()):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return 0
        total *= hi - lo + 1
    return total


def validate_polygon(poly: LatticePolygon) -> list[Violation]:
    """Check every polygon invariant; an empty list means the polygon is valid."""
    sticks = poly.sticks
    m = len(sticks)
    violations: list[Violation] = []
    if m < 4:
        violations.append(Violation("too_few_sticks", tuple(range(m)), f"{m} sticks cannot close"))
        return violations

    shared_with_next: list[Point | None] = [None] * m
    for k in range(m):
        s, t = sticks[k], sticks[(k + 1) % m]
        if s.axis == t.axis:
            violations.append(
                Violation("axis_repeat", (k, (k + 1) % m), f"consecutive sticks both on {s.axis}")
            )
        common = _overlap_points(s, t)
        if common != 1:
            violations.append(
                Violation(
                    "corner",
                    (k, (k + 1) % m),
                    f"consecutive sticks share {common} points, expected exactly 1",
                )
            )
            continue
        shared = set(s.endpoints()) & set(t.endpoints())
        if len(shared) != 1:
            violations.append(
                Violation(
                    "corner",
                    (k, (k + 1) % m),
                    "shared point is not an endpoint of both sticks",
                )
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
            common = _overlap_points(sticks[i], sticks[j])
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


def _cyclic_order(sticks: list[LatticeStick]) -> LatticePolygon:
    """Arrange an unordered stick set into traversal order by endpoint matching."""
    by_point: dict[Point, list[int]] = {}
    for idx, s in enumerate(sticks):
        for p in s.endpoints():
            by_point.setdefault(p, []).append(idx)
    bad = {p: ids for p, ids in by_point.items() if len(ids) != 2}
    if bad:
        raise SelfIntersectionError(
            [Violation("open_chain", tuple(ids), f"endpoint {p} touches {len(ids)} sticks")
             for p, ids in sorted(bad.items())]
        )

    start = min(range(len(sticks)), key=lambda k: (sticks[k].axis, sticks[k].c1, sticks[k].c2, sticks[k].lo))
    order = [start]
    cursor = sticks[start].endpoints()[1]
    used = {start}
    while len(order) < len(sticks):
        s1, s2 = by_point[cursor]
        if order[-1] == s1:
            nxt = s2
        elif order[-1] == s2:
            nxt = s1
        else:
            raise InternalInvariantError(f"walk lost at {cursor}")
        if nxt in used:
            raise SelfIntersectionError(
                [Violation("open_chain", (order[-1], nxt), "stick chain closed early")]
            )
        order.append(nxt)
        used.add(nxt)
        e1, e2 = sticks[nxt].endpoints()
        cursor = e2 if e1 == cursor else e1
    if cursor != sticks[start].endpoints()[0]:
        raise SelfIntersectionError(
            [Violation("open_chain", (order[-1], start), "stick chain does not close")]
        )
    return LatticePolygon(tuple(sticks[k] for k in order))


def _merge_collinear(poly: LatticePolygon) -> LatticePolygon:
    """Fuse cyclically consecutive same-axis sticks into single sticks."""
    sticks = list(poly.sticks)
    changed = True
    while changed and len(sticks) > 2:
        changed = False
        m = len(sticks)
        for k in range(m):
            s, t = sticks[k], sticks[(k + 1) % m]
            if s.axis == t.axis and (s.c1, s.c2) == (t.c1, t.c2):
                if max(s.lo, t.lo) != min(s.hi, t.hi):
                    raise InternalInvariantError("same-axis neighbours are not end-to-end")
                merged = LatticeStick(s.axis, min(s.lo, t.lo), max(s.hi, t.hi), s.c1, s.c2)
                if (k + 1) % m == 0:
                    sticks = [merged] + sticks[1:k]
                else:
                    sticks = sticks[:k] + [merged] + sticks[k + 2:]
                changed = True
                break
    return LatticePolygon(tuple(sticks))


def _basic_sticks(P: ArcPresentation, flip_page: int | None = None) -> list[LatticeStick]:
    """Sticks of the 3a construction; one arc optionally flipped above y=x."""
    sticks: list[LatticeStick] = []
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


def _replace(sticks: list[LatticeStick], old: LatticeStick, new: LatticeStick | None) -> None:
    try:
        idx = sticks.index(old)
    except ValueError:
        raise InternalInvariantError(f"expected stick {old} not present") from None
    if new is None:
        del sticks[idx]
    else:
        sticks[idx] = new


def _end_reductions(sticks: list[LatticeStick], P: ArcPresentation) -> None:
    """Apply the y-level-1 and x-level-a reductions in place (-2 sticks)."""
    a = P.a

    # binding index 1: two x-sticks at y=1; drop the shorter, reroute the z-stick
    (i1, i2), (k1, k2) = P.far_ends(1), P.pages_at(1)
    pages1 = dict(zip((i1, i2), (k1, k2)))
    if i1 == i2:
        raise InternalInvariantError("both arcs at binding 1 have the same far end")
    i_short, i_long = min(i1, i2), max(i1, i2)
    k_short, k_long = pages1[i_short], pages1[i_long]
    _replace(sticks, LatticeStick("x", 1, i_short, 1, k_short), None)
    _replace(
        sticks,
        LatticeStick("x", 1, i_long, 1, k_long),
        LatticeStick("x", i_short, i_long, 1, k_long),
    )
    _replace(
        sticks,
        LatticeStick("z", min(k1, k2), max(k1, k2), 1, 1),
        LatticeStick("z", min(k1, k2), max(k1, k2), i_short, 1),
    )

    # binding index a: two y-sticks at x=a; mirrored reduction
    (j1, j2), (l1, l2) = P.far_ends(a), P.pages_at(a)
    pages_a = dict(zip((j1, j2), (l1, l2)))
    if j1 == j2:
        raise InternalInvariantError("both arcs at binding a have the same far end")
    j_long, j_short = min(j1, j2), max(j1, j2)  # larger lower endpoint = shorter stick
    l_long, l_short = pages_a[j_long], pages_a[j_short]
    _replace(sticks, LatticeStick("y", j_short, a, a, l_short), None)
    _replace(
        sticks,
        LatticeStick("y", j_long, a, a, l_long),
        LatticeStick("y", j_long, j_short, a, l_long),
    )
    _replace(
        sticks,
        LatticeStick("z", min(l1, l2), max(l1, l2), a, a),
        LatticeStick("z", min(l1, l2), max(l1, l2), a, j_short),
    )


def construct_basic(P: ArcPresentation) -> LatticePolygon:
    """Two sticks per arc below the diagonal plus one z-stick per binding point.

    Returns a valid polygon with exactly 3a sticks; every z-stick sits on
    the x=y diagonal.
    """
    if P.a < 5:
        raise ValueError(f"construction needs a >= 5, got a={P.a}")
    poly = _cyclic_order(_basic_sticks(P))
    require_valid(poly)
    if len(poly.sticks) != 3 * P.a:
        raise InternalInvariantError(f"basic construction produced {len(poly.sticks)} sticks")
    return poly


def reduce_ends(poly: LatticePolygon, P: ArcPresentation) -> LatticePolygon:
    """Apply both end reductions to the basic construction: 3a-2 sticks."""
    sticks = list(poly.sticks)
    if len(sticks) != 3 * P.a:
        raise InternalInvariantError("reduce_ends expects the 3a-stick basic construction")
    _end_reductions(sticks, P)
    out = _cyclic_order(sticks)
    require_valid(out)
    if len(out.sticks) != 3 * P.a - 2:
        raise InternalInvariantError(f"end reductions produced {len(out.sticks)} sticks")
    return out


def _nonstar_sticks(nns: NormalizedNonStar, level: int) -> list[LatticeStick]:
    """Reduced construction with the flipped arc placed at z-level `level`.

    level 1 is the pre-lift state; level == lift_page triggers the merge of
    the flipped arc's x-stick with the x-stick of the lift_page arc.
    """
    P = nns.presentation
    a = P.a
    alpha, beta, k = nns.alpha, nns.beta, nns.lift_page
    if not (1 < alpha < beta < a):
        raise InternalInvariantError("normalized witness out of range")

    sticks = _basic_sticks(P, flip_page=1)
    _end_reductions(sticks, P)

    q_alpha = next(p for p in P.pages_at(alpha) if p != 1)
    k_check = next(p for p in P.pages_at(beta) if p != 1)
    if k_check != k:
        raise InternalInvariantError(
            f"arc ({beta},{a}) sits at page {k_check}, lift_page says {k}"
        )
    if q_alpha == k:
        raise InternalInvariantError("both witness attachment pages coincide")

    if level == 1:
        return sticks

    # move the flipped arc to z = level
    _replace(sticks, LatticeStick("y", alpha, beta, alpha, 1),
             LatticeStick("y", alpha, beta, alpha, level))
    flipped_x_new = LatticeStick("x", alpha, beta, beta, level)
    _replace(sticks, LatticeStick("x", alpha, beta, beta, 1), flipped_x_new)

    # attachment z-stick at (alpha, alpha): now spans level..q_alpha
    old = LatticeStick("z", 1, q_alpha, alpha, alpha)
    if level == q_alpha:
        _replace(sticks, old, None)
    else:
        _replace(sticks, old,
                 LatticeStick("z", min(level, q_alpha), max(level, q_alpha), alpha, alpha))

    # attachment z-stick at (beta, beta): spans level..k, gone at the top
    old = LatticeStick("z", 1, k, beta, beta)
    if level == k:
        _replace(sticks, old, None)
        # the two collinear x-sticks at y=beta, z=k fuse into one
        _replace(sticks, flipped_x_new, None)
        _replace(sticks, LatticeStick("x", beta, a, beta, k),
                 LatticeStick("x", alpha, a, beta, k))
    else:
        _replace(sticks, old, LatticeStick("z", min(level, k), max(level, k), beta, beta))
    return sticks


def construct_nonstar(nns: NormalizedNonStar) -> LatticePolygon:
    """Flip the page-1 arc above the diagonal, reduce both ends, lift it.

    The lift to z = lift_page removes the z-stick at (beta, beta) and merges
    two collinear x-sticks, giving a valid polygon with exactly 3a-4 sticks.
    """
    P = nns.presentation
    out = _merge_collinear(_cyclic_order(_nonstar_sticks(nns, nns.lift_page)))
    require_valid(out)
    if len(out.sticks) != 3 * P.a - 4:
        raise InternalInvariantError(f"non-star construction produced {len(out.sticks)} sticks")
    return out


def lift_sweep(nns: NormalizedNonStar) -> list[LatticePolygon]:
    """Snapshots of the flipped arc at every z-level 1..lift_page.

    Level 1 is the reduced pre-lift polygon and level lift_page the merged
    final one.  When the arc passes the level of its alpha-side neighbour
    the connecting z-stick degenerates away and collinear sticks fuse; each
    snapshot is a valid polygon, witnessing the free vertical slide.
    """
    out = []
    for level in range(1, nns.lift_page + 1):
        poly = _merge_collinear(_cyclic_order(_nonstar_sticks(nns, level)))
        require_valid(poly)
        out.append(poly)
    return out
