"""Planar knot diagrams and the invariants used as the knot-type oracle.

Diagrams come from two sources: the grid picture of an arc presentation
(vertical strands over horizontal, the standard grid convention) and exact
generic projections of 3-D lattice polygons.  Invariants: Alexander
polynomial of a Wirtinger minor, the knot determinant, and an optional
Kauffman-bracket Jones polynomial.  Reidemeister simplification and the
Wirtinger minor read only the Gauss word (the passages in traversal order)
and the crossing signs; faces() walks the planar map but is not on the
certify path.  The Wirtinger minor is written straight from the Gauss
word as sparse integer rows {column: {exponent: coeff}}, at most 3
nonzeros a row, and the Alexander determinant is one sparse fraction-free
Bareiss elimination over Z after Kronecker substitution: the entries are
packed into integers at t = 2**bits, where bits comes from a Hadamard
bound on the coefficients of every minor, and the polynomial is read back
from the balanced base-2**bits digits.  Pivots follow Markowitz's rule and
a step rewrites only the rows with a nonzero in the pivot column; the
others are rescaled lazily, when they are next touched.  A
LaurentPolynomial is built only for the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from itertools import combinations
from math import gcd, isqrt, lcm

from .arc import ArcPresentation
from .errors import InternalInvariantError
from .lattice import LatticePolygon, require_valid
from .laurent import LaurentPolynomial, canonicalize


class NoGenericDirectionError(RuntimeError):
    """All candidate projection directions failed the genericity checks."""


class CrossingCapExceededError(ValueError):
    """The diagram has more crossings than the state-sum cap allows."""


JONES_CAP = 20  # the Kauffman state sum visits 2**n states


@dataclass(frozen=True)
class Crossing:
    """One crossing; fields are 1-based edge labels of the four strand ends.

    sign is +1 when the over direction is the under direction rotated 90
    degrees counterclockwise.  The counterclockwise slot order starting at
    the incoming under strand is determined by the sign (see pd).
    """

    over_in: int
    over_out: int
    under_in: int
    under_out: int
    sign: int

    @property
    def pd(self) -> tuple[int, int, int, int]:
        """Edge labels counterclockwise from the incoming under strand."""
        if self.sign > 0:
            return (self.under_in, self.over_in, self.under_out, self.over_out)
        return (self.under_in, self.over_out, self.under_out, self.over_in)


@dataclass(frozen=True)
class PlanarDiagram:
    """Crossing list plus the closed traversal that produced it.

    Edges are numbered 1..n_edges along the traversal; gauss holds
    (crossing index, "O" or "U") per passage, in traversal order.
    """

    crossings: tuple[Crossing, ...]
    n_edges: int
    gauss: tuple[tuple[int, str], ...]

    @property
    def n(self) -> int:
        return len(self.crossings)

    def check(self) -> list[str]:
        """Diagram invariant violations; empty when consistent."""
        problems = []
        n = self.n
        if n == 0:
            if self.gauss:
                problems.append("crossing-free diagram has gauss events")
            return problems
        if self.n_edges != 2 * n:
            problems.append(f"n_edges {self.n_edges} != 2n = {2 * n}")
        if len(self.gauss) != 2 * n:
            problems.append(f"gauss length {len(self.gauss)} != 2n = {2 * n}")
        seen: dict[int, int] = {}
        for c in self.crossings:
            for e in (c.over_in, c.over_out, c.under_in, c.under_out):
                seen[e] = seen.get(e, 0) + 1
        bad = {e: k for e, k in seen.items() if k != 2}
        if bad or set(seen) != set(range(1, 2 * n + 1)):
            problems.append(f"edge labels not each used twice: {sorted(bad.items())}")
        roles: dict[int, set[str]] = {}
        for ci, role in self.gauss:
            roles.setdefault(ci, set()).add(role)
        if any(roles.get(ci) != {"O", "U"} for ci in range(n)):
            problems.append("each crossing must be passed once over and once under")
        return problems

    def mirror(self) -> "PlanarDiagram":
        """Swap over and under everywhere (mirror image diagram)."""
        flipped = tuple(
            Crossing(
                over_in=c.under_in,
                over_out=c.under_out,
                under_in=c.over_in,
                under_out=c.over_out,
                sign=-c.sign,
            )
            for c in self.crossings
        )
        gauss = tuple((ci, "U" if role == "O" else "O") for ci, role in self.gauss)
        return PlanarDiagram(flipped, self.n_edges, gauss)

    def pd_code_text(self) -> str:
        return "\n".join("X({},{},{},{})".format(*c.pd) for c in self.crossings)


# ---------------------------------------------------------------------------
# assembling diagrams from traversal events


def _assemble(events: list[tuple[object, bool]], signs: dict) -> PlanarDiagram:
    """Build a diagram from traversal events (key, passes_over) and crossing signs.

    Every key must occur exactly twice, once over and once under; signs
    maps it to the crossing's sign.  Crossings are numbered in order of
    first passage.  Edge j follows event j; the edge entering event 1 is
    edge 2n.
    """
    total = len(events)
    if total == 0:
        return PlanarDiagram((), 1, ())
    if total % 2:
        raise InternalInvariantError("odd number of crossing passages")

    def in_edge(j: int) -> int:
        return j - 1 if j > 1 else total

    passages: dict[object, list[tuple[bool, int]]] = {}
    for j, (key, over) in enumerate(events, start=1):
        passages.setdefault(key, []).append((over, j))

    crossings = []
    for key, ps in passages.items():
        if len(ps) != 2 or ps[0][0] == ps[1][0]:
            raise InternalInvariantError(f"crossing {key} needs one over and one under passage")
        (_, ju), (_, jo) = sorted(ps)
        crossings.append(
            Crossing(
                over_in=in_edge(jo),
                over_out=jo,
                under_in=in_edge(ju),
                under_out=ju,
                sign=signs[key],
            )
        )
    index_of = {key: k for k, key in enumerate(passages)}
    # a tuple from a list, not a generator; see lattice._polygon
    gauss = tuple([(index_of[key], "O" if over else "U") for key, over in events])
    return PlanarDiagram(tuple(crossings), total, gauss)


def segment_crossings(pts: list[tuple[int, int]]) -> list[tuple[int, int, int, int, int]]:
    """Meeting points of non-adjacent segments of the closed polyline pts.

    Segment k runs from pts[k] to pts[k+1 mod m].  Returns (s1, s2, n1, n2,
    den), all plain ints, for every pair s1 < s2 of non-parallel segments
    that meet, in order of s1 then s2.  They meet at the parameters
    t1 = n1/den along s1 and t2 = n2/den along s2, with 0 <= t1, t2 <= 1;
    no rational is built.  den is the cross product of the two directions;
    it is positive when segment s2 crosses segment s1 from right to left.
    Parallel pairs are skipped, and so is a zero-length segment, which is
    parallel to everything.

    Only candidate pairs are visited.  Segments are grouped by primitive
    direction up to sign, and for two classes with directions u and v the
    skew coordinates alpha = cross(p, v) and beta = cross(u, p) are an
    invertible integer map of the plane (its determinant is cross(u, v)
    != 0).  A u-segment maps to an alpha-interval at one beta and a
    v-segment to a beta-interval at one alpha, so the two closed segments
    meet exactly when each one's fixed coordinate lies in the other's
    interval, bounds included.  The v-segments sorted by alpha are bisected
    for each u-segment's interval and the survivors' beta is compared.
    With c classes this costs O(c * m log m) plus one comparison per pair
    whose alpha matches, instead of m**2 / 2 pair tests; a lattice
    polygon's linear views have c = 3.
    """
    m = len(pts)
    segs = [(x, y, u - x, v - y) for (x, y), (u, v) in zip(pts, pts[1:] + pts[:1])]
    classes: dict[tuple[int, int], list[int]] = {}
    for k, (_, _, dx, dy) in enumerate(segs):
        g = gcd(dx, dy)
        if g:
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            classes.setdefault((dx // g, dy // g), []).append(k)
    found = []
    for ((ux, uy), group1), ((vx, vy), group2) in combinations(classes.items(), 2):
        # the v-segments by alpha, each with its beta interval
        column = []
        for k in group2:
            x, y, dx, dy = segs[k]
            b0 = ux * y - uy * x
            b1 = b0 + ux * dy - uy * dx
            column.append((x * vy - y * vx, min(b0, b1), max(b0, b1), k))
        column.sort()
        alphas = [c[0] for c in column]
        for k1 in group1:
            x, y, dx, dy = segs[k1]
            a0 = x * vy - y * vx
            a1 = a0 + dx * vy - dy * vx
            if a0 > a1:
                a0, a1 = a1, a0
            beta = ux * y - uy * x
            for j in range(bisect_left(alphas, a0), bisect_right(alphas, a1)):
                _, lo, hi, k2 = column[j]
                if not lo <= beta <= hi:
                    continue
                s1, s2 = (k1, k2) if k1 < k2 else (k2, k1)
                if s2 - s1 == 1 or s2 - s1 == m - 1:
                    continue  # adjacent
                px, py, pdx, pdy = segs[s1]
                qx, qy, qdx, qdy = segs[s2]
                rx, ry = qx - px, qy - py
                found.append(
                    (s1, s2, rx * qdy - ry * qdx, rx * pdy - ry * pdx, pdx * qdy - pdy * qdx)
                )
    found.sort()
    return found


# ---------------------------------------------------------------------------
# grid diagram of an arc presentation


def arc_to_planar(P: ArcPresentation) -> PlanarDiagram:
    """Grid diagram: row k spans the page-k arc, column i the binding jumps.

    A crossing appears wherever a vertical segment passes strictly through
    a horizontal one; the vertical strand is always over.  Traversal starts
    on the page-1 arc heading toward its smaller binding index.
    """
    a = P.a
    rows = {k: pair for k, pair in enumerate(P.arcs, start=1)}
    cols = {i: P.pages_at(i) for i in range(1, a + 1)}

    # the under strand runs horizontally and the over strand vertically, so
    # a crossing's sign is the product of the two steps through it
    events: list[tuple[object, bool]] = []
    signs: dict[tuple[int, int], int] = {}
    col, row = rows[1][1], 1
    start = (col, row)
    for _ in range(a):
        # horizontal run in `row` from `col` to the other endpoint
        i, j = rows[row]
        dest = i if col == j else j
        step = 1 if dest > col else -1
        for m in range(col + step, dest, step):
            lo, hi = cols[m]
            if lo < row < hi:
                events.append(((m, row), False))
                signs[m, row] = signs.get((m, row), 1) * step
        col = dest
        # vertical run in `col` from `row` to its other incident page
        k1, k2 = cols[col]
        vdest = k1 if row == k2 else k2
        vstep = 1 if vdest > row else -1
        for r in range(row + vstep, vdest, vstep):
            ri, rj = rows[r]
            if ri < col < rj:
                events.append(((col, r), True))
                signs[col, r] = signs.get((col, r), 1) * vstep
        row = vdest
    if (col, row) != start:
        raise InternalInvariantError("grid traversal did not close")
    return _assemble(events, signs)


# ---------------------------------------------------------------------------
# exact generic projection of a lattice polygon


def project_polygon(poly: LatticePolygon) -> PlanarDiagram:
    """Project along the first generic direction (1, B, B**2), B = M+2, M+3, ...

    M is the largest coordinate magnitude.  Genericity is decided in
    exact integer arithmetic: distinct vertex images, then one
    segment_crossings scan that rejects any contact at an edge's end, which
    covers vertices on edges and collinear overlaps since consecutive sticks
    never project to parallel edges, and last a triple point, seen as two
    equal parameters in one segment's sorted hits.  A crossing's two
    parameters share one denominator d, so each side compares integers:
    hits sort by numerators brought over the lcm of their segment's
    denominators, and over/under compares the exact depths along the
    projection direction scaled by d (larger depth is nearer the viewer).
    """
    verts = require_valid(poly).vertices()
    M = max(1, max(abs(c) for v in verts for c in v))
    for B in range(M + 2, M + 2 + 64):
        result = _try_projection(verts, B)
        if result is not None:
            return result
    raise NoGenericDirectionError(f"no generic direction among B={M + 2}..{M + 65}")


def _try_projection(verts: list[tuple[int, int, int]], B: int) -> PlanarDiagram | None:
    m = len(verts)

    def proj(p):
        return (B * p[0] - p[1], B * B * p[0] - p[2])

    def depth(p):
        return p[0] + B * p[1] + B * B * p[2]

    pts = [proj(v) for v in verts]
    if len(set(pts)) != m:
        return None

    # transversal interior intersections, one per non-adjacent pair at most;
    # the strand with the larger depth passes over.  Axis images x -> (B, B**2),
    # y -> (-1, 0), z -> (0, -1) are pairwise non-parallel, so consecutive
    # edge images never are; a vertex inside an edge s it does not bound thus
    # has an edge neither parallel nor adjacent to s, reported here at t = 0
    # or 1, and a collinear overlap puts a vertex inside an edge or repeats a
    # vertex image.  Equal depths would be one 3-D point on two sticks.
    hits: dict[int, list[tuple[int, int, int, bool]]] = {k: [] for k in range(m)}
    signs: dict[tuple[int, int], int] = {}
    depths = [depth(v) for v in verts]
    for s1, s2, n1, n2, den in segment_crossings(pts):
        # both parameters over one positive denominator: t1 = n1/d, t2 = n2/d
        d = abs(den)
        if den < 0:
            n1, n2 = -n1, -n2
        if not (0 < n1 < d and 0 < n2 < d):
            return None  # a vertex on another edge, or a collinear overlap
        # the two depths at the crossing, both scaled by d
        here = depths[s1] * d + n1 * (depths[(s1 + 1) % m] - depths[s1])
        there = depths[s2] * d + n2 * (depths[(s2 + 1) % m] - depths[s2])
        if here == there:
            raise InternalInvariantError("equal depths at a projected crossing")
        s1_over = here > there
        # positive when the over direction is the under one turned counterclockwise
        sign = 1 if den > 0 else -1
        signs[s1, s2] = -sign if s1_over else sign
        hits[s1].append((n1, d, s2, s1_over))
        hits[s2].append((n2, d, s1, not s1_over))

    # a segment's hits sort by the integer n * (L // d), L the lcm of their
    # denominators.  A triple point shows as two equal keys on one segment:
    # with no contact at an edge's end, three edges through one point are
    # pairwise non-adjacent and non-parallel, so each meets the other two there
    events: list[tuple[object, bool]] = []
    for s in range(m):
        L = lcm(*(d for _, d, _, _ in hits[s]))
        row = sorted((n * (L // d), other, over) for n, d, other, over in hits[s])
        if any(u[0] == v[0] for u, v in zip(row, row[1:])):
            return None  # triple point
        events += [((min(s, other), max(s, other)), over) for _, other, over in row]
    return _assemble(events, signs)


# ---------------------------------------------------------------------------
# faces and Reidemeister simplification


def faces(d: PlanarDiagram) -> list[list[tuple[int, int]]]:
    """Faces of the 4-valent planar map as orbits of darts (crossing, slot)."""
    n = d.n
    if n == 0:
        return []
    at_label: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for slot, e in enumerate(c.pd):
            at_label.setdefault(e, []).append((ci, slot))
    alpha: dict[tuple[int, int], tuple[int, int]] = {}
    for e, darts in at_label.items():
        if len(darts) != 2:
            raise InternalInvariantError(f"edge {e} has {len(darts)} ends")
        alpha[darts[0]] = darts[1]
        alpha[darts[1]] = darts[0]

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


def simplify_diagram(d: PlanarDiagram) -> PlanarDiagram:
    """Remove kinks and reducible bigons, reading only the Gauss word.

    The word is the passages (crossing, passes_over) in traversal order;
    the edge after passage j joins it to passage j+1, cyclically.  A kink
    is a crossing whose two passages are cyclically consecutive: the edge
    between them is a loop with no crossing on it (Reidemeister I).  All
    kinks go first, and again after every other move.

    A reducible bigon is a pair of consecutive passages j, j+1 of distinct
    crossings k1, k2 with the same role whose other passages are cyclically
    consecutive too.  The two edges joining k1 and k2 then form a closed
    curve with no crossing on it.  At each corner that curve turns from one
    strand to the other, so the two strand ends it leaves there lie in one
    angle, on one side.  The rest of the knot joins k1 to k2 off the curve,
    so all of it lies on that side; the other side is an empty face, and as
    the roles are equal one strand is over at both of its corners
    (Reidemeister II).  The first such pair in passage order goes, and the
    search starts again.  The diagram is assembled once, at the end.
    """
    events = [(ci, role == "O") for ci, role in d.gauss]
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
    return _assemble(events, {ci: c.sign for ci, c in enumerate(d.crossings)})


# ---------------------------------------------------------------------------
# Alexander polynomial, determinant, Kauffman bracket


def _bareiss_det(rows: list[dict[int, dict[int, int]]]) -> LaurentPolynomial:
    """Determinant by one sparse fraction-free elimination over Z at t = 2**bits.

    The n x n matrix comes as n sparse rows {column: {exponent: coeff}}
    over columns 0..n-1; an absent column is a zero entry, and every entry
    present must hold a nonzero coefficient (an empty entry is a caller
    bug).  Kronecker substitution: each row is shifted by its minimal
    exponent (det picks up t**s, s the total shift), every entry is packed
    into the integer a_ij(X) with X = 2**bits, the elimination runs on
    plain ints held as one dict (column -> entry) per row, in increasing
    column order whatever order the input row lists them in, and the
    coefficients of the polynomial determinant are read back as balanced
    base-X digits; that result is the only LaurentPolynomial built.

    Coefficient bound.  Let H2 = prod_i sum_j |a_ij|_1**2, with |a|_1 the sum
    of the absolute coefficients.  On |t| = 1, |a_ij(t)| <= |a_ij|_1, so
    Hadamard's inequality gives |det(t)|**2 <= H2; by Parseval the sum of the
    squared coefficients of det is the mean of |det(t)|**2 over the circle,
    hence every coefficient has magnitude at most isqrt(H2).  The same
    argument bounds every minor of the shifted matrix, whatever the order
    of its rows and columns (a row factor is >= 1 once zero rows are
    excluded).  With 2**bits > 2*isqrt(H2) every such coefficient lies
    strictly inside (-X/2, X/2), so the balanced base-X digits of an integer
    minor are exactly the coefficients of the polynomial minor; in
    particular a minor is zero as an integer iff it is zero as a polynomial.

    Pivot order.  Step k takes, among the nonzeros of the rows not yet
    used, one of least Markowitz cost (r-1)(c-1), r and c the nonzero counts
    of its row and of its column among those rows (Markowitz 1957), so few
    new nonzeros appear.  This is Bareiss on the matrix with rows and
    columns permuted into pivot order: pivot p_k is a leading k x k minor
    of it and every entry held after step k is a (k+1) x (k+1) minor, all
    covered by the bound.  So a pivot picked nonzero at X is a nonzero
    polynomial and no row swap is needed; a row whose entries all vanish
    makes det zero; otherwise det is p_n times the parities of the row
    order and the column order.

    Lazy scaling.  A row with a zero in the pivot column only gets
    multiplied by p_k / p_{k-1}, so it is left alone.  With p_0 = 1, row i
    is stored as S_i with a tag l_i, and its Bareiss row before step k is
    S_i * p_{k-1} / p_{l_i}.  Step k first brings the pivot row r up to
    date, T = S_r * p_{k-1} / p_{l_r} and p_k = T[c], then rewrites only
    the rows with a nonzero in column c: S_i[j] <- (S_i[j] * p_k - S_i[c] *
    T[j]) / p_{l_i}, and l_i <- k.  Every division is exact by Sylvester's
    identity; a remainder raises InternalInvariantError.
    """
    n = len(rows)
    if n == 0:
        return LaurentPolynomial.one()
    shift = 0
    h2 = 1
    lows = []
    for row in rows:
        if not row:
            return LaurentPolynomial.zero()
        low = min(min(entry) for entry in row.values())
        shift += low
        h2 *= sum(sum(abs(c) for c in entry.values()) ** 2 for entry in row.values())
        lows.append(low)
    bits = (2 * isqrt(h2)).bit_length()
    # the rows not yet used as pivot rows, each a dict column -> packed entry
    live = {
        i: {j: sum(c << bits * (e - low) for e, c in row[j].items()) for j in sorted(row)}
        for i, (row, low) in enumerate(zip(rows, lows))
    }

    def exact(num: int, den: int) -> int:
        q, r = divmod(num, den)
        if r:
            raise InternalInvariantError(f"Bareiss division by pivot {den} is not exact")
        return q

    where: dict[int, set[int]] = {}  # column -> rows in `live` with a nonzero there
    for i, row in live.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    tags = [0] * n
    pivots = [1]
    row_order, col_order = [], []
    for k in range(1, n + 1):
        cost = n * n
        for i, row in live.items():
            fill = len(row) - 1
            for j in row:
                here = fill * (len(where[j]) - 1)
                if here < cost:
                    cost, r, c = here, i, j
            if cost == 0:
                break
        row_order.append(r)
        col_order.append(c)
        top = live.pop(r)
        for j in top:
            where[j].discard(r)
        if tags[r] != k - 1:  # catch up: T = S_r * p_{k-1} / p_{l_r}
            prev, lag = pivots[k - 1], pivots[tags[r]]
            top = {j: exact(v * prev, lag) for j, v in top.items()}
        pivot = top.pop(c)
        for i in where.pop(c):
            s = live[i].pop(c)
            new = {j: v * pivot for j, v in live[i].items()}
            for j, v in top.items():
                if j in new:
                    new[j] -= s * v
                else:
                    new[j] = -s * v
                    where[j].add(i)
            lag = pivots[tags[i]]
            row = {}
            for j, v in new.items():
                q = exact(v, lag)
                if q:
                    row[j] = q
                else:
                    where[j].discard(i)
            if not row:
                return LaurentPolynomial.zero()
            live[i] = row
            tags[i] = k
        pivots.append(pivot)
    value = -pivots[n] if _is_odd(row_order) != _is_odd(col_order) else pivots[n]

    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    coeffs = {}
    e = shift
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        coeffs[e] = digit
        value = (value - digit) >> bits
        e += 1
    return LaurentPolynomial(coeffs)


def _is_odd(perm: list[int]) -> bool:
    """Whether a permutation of range(len(perm)) is odd: length minus cycle count."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return (len(perm) - cycles) % 2 == 1


def _wirtinger_minor(d: PlanarDiagram) -> list[dict[int, dict[int, int]]]:
    """Wirtinger matrix of a diagram with n >= 2 crossings, last row and column
    dropped, as n-1 sparse rows {column: {exponent: coeff}} for _bareiss_det.

    One walk over the Gauss word.  Arcs break at under passages: arc k
    (0-based) starts after the (k+1)-th one, so the edges before the first
    under passage close up with the last arc and the counter starts at n-1.
    Row r is crossing r's relation.  A positive crossing puts 1-t on the
    over arc, t on the incoming under arc and -1 on the outgoing one;
    negative rows use the inverse relation (scaled by t to stay integral).
    A kink puts its over arc on one of its under arcs; the term that
    cancels there is dropped, so every emitted entry is nonzero with only
    nonzero coefficients.
    """
    n = d.n
    last = n - 1
    rows: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]

    def add(row: dict[int, dict[int, int]], j: int, e: int, c: int) -> None:
        entry = row.setdefault(j, {})
        c += entry.get(e, 0)
        if c:
            entry[e] = c
        else:
            # a kink's t or 1 term; the entry keeps its other term, since
            # a crossing's over, in and out arcs coincide only when n = 1
            del entry[e]

    positive = [c.sign > 0 for c in d.crossings]
    arc = last
    for ci, role in d.gauss:
        row = rows[ci]
        if role == "O":
            up = 1 if positive[ci] else -1  # 1-t, or t-1
            add(row, arc, 0, up)
            add(row, arc, 1, -up)
        else:
            add(row, arc, 1 if positive[ci] else 0, 1)
            arc = (arc + 1) % n
            add(row, arc, 0 if positive[ci] else 1, -1)
    minor = rows[:last]
    for row in minor:
        row.pop(last, None)
    return minor


def alexander(D: PlanarDiagram, *, presimplify: bool = True) -> LaurentPolynomial:
    """Canonical Alexander polynomial via a Wirtinger matrix minor.

    The minor comes as sparse integer rows straight from the Gauss word
    (_wirtinger_minor).  Its determinant is one sparse fraction-free
    Bareiss elimination over the integers after Kronecker substitution
    t = 2**bits, with pivots in Markowitz order and lazily scaled rows;
    bits is fixed by the Hadamard bound on the coefficients of every minor,
    so the polynomial is recovered exactly (_bareiss_det).  The diagram is
    first reduced by simplify_diagram unless presimplify is False.
    """
    d = simplify_diagram(D) if presimplify else D
    if d.n <= 1:
        return LaurentPolynomial.one()
    poly = _bareiss_det(_wirtinger_minor(d))
    if poly.is_zero:
        raise InternalInvariantError("Alexander minor vanished; diagram is not a knot")
    return canonicalize(poly)


def determinant(D: PlanarDiagram) -> int:
    """|Alexander at t = -1|; odd for every knot."""
    return abs(alexander(D).evaluate(-1))


def jones_kauffman(D: PlanarDiagram) -> LaurentPolynomial:
    """Writhe-corrected Kauffman bracket by full state sum, in the bracket
    variable A, canonicalized.  Refuses diagrams above JONES_CAP crossings."""
    n = D.n
    if n > JONES_CAP:
        raise CrossingCapExceededError(f"{n} crossings exceeds cap {JONES_CAP}")
    if n == 0:
        return LaurentPolynomial.one()
    writhe = sum(c.sign for c in D.crossings)
    delta = LaurentPolynomial({2: -1, -2: -1})
    delta_pow = [LaurentPolynomial.one()]
    for _ in range(n + 1):
        delta_pow.append(delta_pow[-1] * delta)
    pds = [c.pd for c in D.crossings]
    n_edges = D.n_edges
    bracket = LaurentPolynomial.zero()
    for state in range(1 << n):
        parent = list(range(n_edges + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        a_count = 0
        for k, (ea, eb, ec, ed) in enumerate(pds):
            if state >> k & 1:
                a_count += 1
                union(ea, eb)
                union(ec, ed)
            else:
                union(ea, ed)
                union(eb, ec)
        loops = sum(1 for e in range(1, n_edges + 1) if find(e) == e)
        term = LaurentPolynomial.t_power(a_count - (n - a_count))
        bracket = bracket + term * delta_pow[loops - 1]
    corrected = bracket.shifted(-3 * writhe)
    if writhe % 2:
        corrected = -corrected
    return canonicalize(corrected)
