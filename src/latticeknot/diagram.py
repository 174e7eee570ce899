"""Planar knot diagrams and the invariants used as the knot-type oracle.

Diagrams come from two sources: the grid picture of an arc presentation
(vertical strands over horizontal, the standard grid convention) and exact
top views of 3-D lattice polygons.  Every view of a polygon along an
integer direction has its crossings from one exact integer kernel,
_view_crossings: the top view here and the SVG export's isometric view
(render.py) both read it.  Invariants: Alexander
polynomial of an overpass minor and an optional Kauffman-bracket Jones
polynomial.  A PlanarDiagram stores only its Gauss word (the passages in
traversal order) and its crossing signs; passage j leaves on edge j, and
edge 2n enters passage 1.  Simplification and the overpass minor read
only these.  Simplification is one worklist pass: the passages linked in
a cycle, a stack of kinks and a min-heap of bigon positions, so each
removal touches only its neighbours and a word of n passages takes
O(n log n).  Each passage is a pair (crossing, passes_over), and
construction checks that every crossing is passed once over and once
under.  The PD code, one tuple of four edge labels per crossing, is
derived on demand for pd_code_text() and the Kauffman bracket, off the
certify path.  The overpass minor, one row per under-run of the Gauss
word but one, is written straight from the word as sparse integer rows
{column: {exponent: coeff}}, and the Alexander determinant is one sparse
fraction-free Bareiss elimination over Z after Kronecker substitution:
the entries are packed into integers at t = 2**bits, where bits comes
from a Hadamard bound on the coefficients of every minor, and the
polynomial is read back from the balanced base-2**bits digits.  Pivots
follow Markowitz's rule and a step rewrites only the rows with a nonzero
in the pivot column; the others are rescaled lazily, when they are next
touched.  A LaurentPolynomial is built only for the result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from math import isqrt
from operator import sub

from .arc import ArcPresentation
from .errors import InternalInvariantError
from .lattice import LatticePolygon
from .laurent import LaurentPolynomial, canonicalize


class CrossingCapExceededError(ValueError):
    """The diagram has more crossings than the state-sum cap allows."""


JONES_CAP = 20  # the Kauffman state sum visits 2**n states


@dataclass(frozen=True)
class PlanarDiagram:
    """A knot diagram stored as its Gauss word and its crossing signs.

    gauss holds (crossing index, passes_over) per passage, in traversal
    order, and signs[k] is crossing k's sign.  Edges are numbered 1..2n
    along the traversal: passage j (1-based) leaves on edge j, and edge 2n
    enters passage 1.  A diagram is consistent by construction: each
    crossing 0..n-1 is passed exactly once over and once under, or
    InternalInvariantError is raised.  pd derives the edge labels.
    """

    gauss: tuple[tuple[int, bool], ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.signs)
        over, under = [0] * n, [0] * n
        for ci, passes_over in self.gauss:
            if not 0 <= ci < n:
                break
            (over if passes_over else under)[ci] += 1
        else:
            if over == under == [1] * n:
                return
        raise InternalInvariantError("each crossing must be passed once over and once under")

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def pd(self) -> tuple[tuple[int, int, int, int], ...]:
        """Edge labels of each crossing, counterclockwise from the incoming under strand.

        A crossing's sign is +1 when the over direction is the under
        direction rotated 90 degrees counterclockwise; it then reads (under
        in, over in, under out, over out), and with sign -1 (under in, over
        out, under out, over in).
        """
        total = len(self.gauss)
        over, under = [0] * self.n, [0] * self.n
        for j, (ci, passes_over) in enumerate(self.gauss, start=1):
            (over if passes_over else under)[ci] = j
        pd = []
        for jo, ju, s in zip(over, under, self.signs):
            over_in, under_in = jo - 1 or total, ju - 1 or total
            pd.append((under_in, over_in, ju, jo) if s > 0 else (under_in, jo, ju, over_in))
        return tuple(pd)

    def pd_code_text(self) -> str:
        return "\n".join("X({},{},{},{})".format(*labels) for labels in self.pd)


# ---------------------------------------------------------------------------
# assembling diagrams from traversal events


def _assemble(
    events: list[tuple[object, bool]], signs: dict | list[int] | tuple[int, ...]
) -> PlanarDiagram:
    """Build a diagram from traversal events (key, passes_over) and crossing signs.

    signs[key] is the key's crossing's sign.  Crossings are numbered in
    order of first passage; the diagram itself checks that every key is
    passed once over and once under.
    """
    index: dict[object, int] = {}
    gauss = tuple([(index.setdefault(key, len(index)), over) for key, over in events])
    return PlanarDiagram(gauss, tuple([signs[key] for key in index]))


# ---------------------------------------------------------------------------
# grid diagram of an arc presentation


def arc_to_planar(P: ArcPresentation) -> PlanarDiagram:
    """Grid diagram: row k spans the page-k arc, column i the binding jumps.

    A crossing appears wherever a vertical segment passes strictly through
    a horizontal one; the vertical strand is always over.  Traversal starts
    on the page-1 arc heading toward its smaller binding index, and a runs
    close it, since a presentation is one cycle of a arcs.
    """
    a = P.a
    rows = {k: pair for k, pair in enumerate(P.arcs, start=1)}
    cols = {i: P.pages_at(i) for i in range(1, a + 1)}

    # the under strand runs horizontally and the over strand vertically, so
    # a crossing's sign is the product of the two steps through it
    events: list[tuple[object, bool]] = []
    signs: dict[tuple[int, int], int] = {}
    col, row = rows[1][1], 1
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
    return _assemble(events, signs)


# ---------------------------------------------------------------------------
# exact views of a lattice polygon along integer directions


def project_polygon(poly: LatticePolygon) -> PlanarDiagram:
    """The polygon seen from above, z up (_top_view).

    The polygon was validated when it was made, so no check repeats here.
    The constructions put their pages on z, so this view stacks every
    page's arc on every other's.  `invariant` keeps it, because the
    benchmark digests pin its PD output.  certify looks along y, a binding
    axis, with fewer over-runs: it passes the vertices cycled to (z, x, y)
    (certify._output_diagram), a cyclic permutation because a swap of two
    axes would mirror the diagram.
    """
    return _top_view(poly.vertices())


def _top_view(verts: list[tuple[int, int, int]]) -> PlanarDiagram:
    """Diagram of a valid polygon, given by its corners in cyclic order, seen
    along z tilted by an infinitesimal: the view along (1, B, B**2) for every
    B above the range of z, taken at B = range + 1 (_view_crossings).

    Only x-y stick pairs cross there (_view_crossings).  An x-stick at
    (y, z) = (yx, zx) and a y-stick at (x, z) = (a, zy) have images that
    meet at x = a + n / B**2 and y = yx - n / B, n = zx - zy, |n| < B: less
    than one unit from the integers a and yx, on the side sgn(n) gives.  So
    which pairs cross, and in what order along each stick, is the same for
    every B above the range: the symbolic tilt of Edelsbrunner and Muecke
    ("Simulation of Simplicity", ACM Trans. Graphics 9, 1990), evaluated
    at one B.

    Each crossing's id is its index in signs.  A stick's hits sort by key,
    then id: two hits at one place on a stick would put one point of space
    on two other sticks, so the id never decides.  _assemble renumbers the
    crossings by first passage.
    """
    z = [v[2] for v in verts]
    B = max(z) - min(z) + 1
    hits: list[list[tuple[int, int, bool]]] = [[] for _ in verts]
    signs: list[int] = []
    for c, (over, key_over, under, key_under, sign) in enumerate(_view_crossings(verts, (1, B, B * B))):
        hits[over].append((key_over, c, True))
        hits[under].append((key_under, c, False))
        signs.append(sign)
    events: list[tuple[object, bool]] = []
    for row in hits:
        row.sort()
        events += [(c, over) for _, c, over in row]
    return _assemble(events, signs)


def _view_crossings(
    verts: list[tuple[int, int, int]], w: tuple[int, int, int]
) -> list[tuple[int, int, int, int, int]]:
    """The crossings of a valid polygon, given by its corners in cyclic
    order, seen along w, a direction with positive integer components.

    Returns one record (over stick, key, under stick, key, sign) per
    crossing, in no particular order; stick k runs from verts[k] to
    verts[k + 1 mod m].  A key is the distance of the crossing from the
    stick's first corner, along its direction of travel, in units of
    1 / (w0 * w1 * w2): an integer, so a stick's crossings sort exactly.
    The sign is that of det(under, over, w) for the two travel
    directions: +1 when, seen along w, the over direction is the under one
    turned counterclockwise.

    Parallel sticks have parallel images, so only sticks along two
    different axes can cross.  Take A along e_i and B along e_j, k the third
    axis, and n = A_k - B_k.  A point of A and a point of B have one image
    when they differ by (n / w_k) * w, so the images meet where A's
    coordinate i is B_i + w_i * n / w_k and B's coordinate j is A_j - w_j *
    n / w_k, and A is in front, over, when n > 0.  It is a crossing when
    both lie strictly inside their sticks: a meeting at a stick's end is a
    corner or a contact.  n = 0 there would be one point of space on two
    sticks, which a valid polygon does not have: InternalInvariantError.

    Times w_k, B's condition reads lo_j * w_k < off(A) + w_j * B_k < hi_j *
    w_k with off(A) = A_j * w_k - w_j * A_k, so the A-sticks are sorted by
    that offset once and bisected once per B-stick.  As |n| >= 1 and both
    fixed coordinates lie in the polygon's ranges, a pair of axes with w_i >=
    span_i * w_k or w_j >= span_j * w_k has no crossing and is skipped; at w
    = (1, B, B**2) with B above the range of z only x-y pairs are left.
    """
    by_axis: tuple[list, list, list] = ([], [], [])
    for s, (p, q) in enumerate(zip(verts, verts[1:] + verts[:1])):
        axis = 0 if p[0] != q[0] else 1 if p[1] != q[1] else 2
        by_axis[axis].append((s, p, q[axis]))
    span = [max(c) - min(c) for c in zip(*verts)]
    found = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        wi, wj, wk = w[i], w[j], w[k]
        if wi >= span[i] * wk or wj >= span[j] * wk:
            continue
        f = wi * wj  # w0 * w1 * w2 / w_k: a key is a distance times w_k, times f
        rows = []
        for s, p, stop in by_axis[i]:
            start, stop = p[i] * wk, stop * wk
            lo, hi = (start, stop) if start < stop else (stop, start)
            rows.append((p[j] * wk - wj * p[k], s, p[k], lo, hi, start, 1 if stop > start else -1))
        rows.sort()
        offsets = [row[0] for row in rows]
        for t, q, stop in by_axis[j]:
            start, stop, base = q[j] * wk, stop * wk, wj * q[k]
            lo, hi = (start, stop) if start < stop else (stop, start)
            step = 1 if stop > start else -1
            at_i = q[i] * wk
            for off, s, Ak, lo_i, hi_i, start_i, step_i in rows[
                bisect_right(offsets, lo - base) : bisect_left(offsets, hi - base)
            ]:
                n = Ak - q[k]
                here = at_i + wi * n  # A's coordinate i at the meeting, times w_k
                if not lo_i < here < hi_i:
                    continue
                if not n:
                    raise InternalInvariantError("equal depths at a projected crossing")
                key_a = step_i * (here - start_i) * f
                key_b = step * (off + base - start) * f
                if n > 0:
                    found.append((s, key_a, t, key_b, -step_i * step))
                else:
                    found.append((t, key_b, s, key_a, step_i * step))
    return found


# ---------------------------------------------------------------------------
# Reidemeister simplification


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
    (Reidemeister II).  The first such pair in passage order goes, then the
    kinks again.  The diagram is assembled once, at the end.

    One worklist pass does this.  The passages keep their positions in the
    word, linked cyclically (nxt, prv) and unlinked as they go, and
    partner[j] is the other passage of j's crossing.  Removing passages
    never separates two that are consecutive, so a kink stays a kink and a
    bigon a bigon until one of its passages goes, and a new one can only
    appear where a removal makes u -> v consecutive: a kink when v is u's
    partner, else a bigon at u, or on the far side at partner[u] or
    partner[v] when those two are now consecutive as well.  So a first scan
    seeds a stack of kinks and a min-heap of bigon positions, and each
    removal pushes only what its new links open.  Kinks go in any order,
    all of them, before the next bigon, since which crossings they remove
    does not depend on the order.  The heap's smallest position that is
    still a bigon is the first bigon in passage order, as the survivors
    keep their order; the wrap pair counts at the last survivor.  Every
    removal pushes a bounded number of positions and each is popped at
    most once, so a word of n passages takes O(n log n).
    """
    gauss = d.gauss
    total = len(gauss)
    over = [o for _, o in gauss]
    partner = [0] * total
    first = [-1] * d.n
    kinks = []  # each kink by its first passage, whose nxt is its partner
    for j, (ci, _) in enumerate(gauss):
        i = first[ci]
        if i < 0:
            first[ci] = j
        else:
            partner[i], partner[j] = j, i
            if j == i + 1:
                kinks.append(i)
    if total and partner[-1] == 0:
        kinks.append(total - 1)
    nxt, prv = list(range(1, total + 1)), list(range(-1, total - 1))
    if total:
        nxt[-1], prv[0] = 0, total - 1
    # a bigon at j: the partners of j and j+1 are consecutive and the roles
    # equal (over[j + 1 - total] is over[j + 1], cyclically); built in
    # increasing j, the list is already a heap
    near = {1, -1, total - 1, 1 - total}
    heap = [
        j
        for j, gap in enumerate(map(sub, partner, partner[1:] + partner[:1]))
        if gap in near and over[j] == over[j + 1 - total]
    ]
    alive = [True] * total
    while True:
        if kinks:
            j = kinks.pop()
            if not alive[j]:
                continue
            k = partner[j]
            alive[j] = alive[k] = False
            u, w = prv[j], nxt[k]
            nxt[u], prv[w] = w, u
            ends: tuple[int, ...] = (u,)
        else:
            while heap:
                j = heappop(heap)
                if alive[j]:
                    v = nxt[j]
                    pj, pv = partner[j], partner[v]
                    if over[j] == over[v]:
                        if nxt[pj] == pv:
                            break
                        if nxt[pv] == pj:
                            pj, pv = pv, pj
                            break
            else:
                break
            # cut the pair j -> v, then the far pair, now pj -> pv
            alive[j] = alive[v] = alive[pj] = alive[pv] = False
            u, w = prv[j], nxt[v]
            nxt[u], prv[w] = w, u
            x, w = prv[pj], nxt[pv]
            nxt[x], prv[w] = w, x
            ends = (u, x)
        for u in ends:
            if not alive[u]:
                continue
            v = nxt[u]
            pu, pv = partner[u], partner[v]
            if pu == v:
                kinks.append(u)
            elif over[u] == over[v]:  # so over[pu] == over[pv] as well
                if nxt[pu] == pv:
                    heappush(heap, u)
                    heappush(heap, pu)
                if nxt[pv] == pu:
                    heappush(heap, u)
                    heappush(heap, pv)
    return _assemble(list(compress(gauss, alive)), d.signs)


# ---------------------------------------------------------------------------
# Alexander polynomial and Kauffman bracket


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


def _overpass_minor(d: PlanarDiagram) -> list[dict[int, dict[int, int]]]:
    """Alexander matrix of the over presentation of a diagram's knot group,
    last row and column dropped, as sparse rows {column: {exponent: coeff}}
    for _bareiss_det (Crowell-Fox, Introduction to Knot Theory, ch. VI).

    The word is rotated to start at an over passage after an under one.
    Its maximal cyclic over-runs are numbered 0..b-1, generator x_r is the
    Wirtinger arc holding over-run r, and the under-run after it passes
    under c_1..c_L, with signs e_i, to reach x_{r+1}.  A Wirtinger relation
    x_out = t**e x_in + (1 - t**e) x_over per crossing gives, along the run,
    x_{r+1} = t**E x_r + sum_i t**E_i (1 - t**e_i) x_over(c_i), with E the sum
    of the e_i and E_i that of the e_j with j > i.  Row r is this relation.

    An arc strictly inside an under-run holds no over passage, so it sits
    only in the Wirtinger rows of the two crossings it joins, with
    coefficients +-t**k.  Eliminating those arcs along each run is a Schur
    complement over a bidiagonal block with units +-t**k on its diagonal,
    so this minor is the Wirtinger minor times +-t**k, which canonicalize
    removes.  Each row sums to zero (the sum over i telescopes to
    1 - t**E), so the dropped column loses nothing.  An over-run passed
    twice by one under-run can cancel: only nonzero coefficients and
    non-empty entries are emitted.  With b <= 1 there are no rows.
    """
    gauss = d.gauss
    start = next(j for j, (_, over) in enumerate(gauss) if over and not gauss[j - 1][1])
    word = gauss[start:] + gauss[:start]
    run_of = [0] * d.n  # the over-run holding each crossing's over passage
    runs: list[list[int]] = []  # the crossings each under-run passes under
    for j, (ci, passes_over) in enumerate(word):
        if not passes_over:
            runs[-1].append(ci)
            continue
        if not word[j - 1][1]:
            runs.append([])
        run_of[ci] = len(runs) - 1
    last = len(runs) - 1
    rows = []
    for r in range(last):
        terms = {(r + 1, 0): -1}  # (column, exponent) -> coefficient
        e = 0
        for ci in reversed(runs[r]):
            o, eps = run_of[ci], d.signs[ci]
            terms[o, e] = terms.get((o, e), 0) + 1
            terms[o, e + eps] = terms.get((o, e + eps), 0) - 1
            e += eps
        terms[r, e] = terms.get((r, e), 0) + 1
        row: dict[int, dict[int, int]] = {}
        for (j, k), c in terms.items():
            if c and j != last:
                row.setdefault(j, {})[k] = c
        rows.append(row)
    return rows


def alexander(d: PlanarDiagram) -> LaurentPolynomial:
    """Canonical Alexander polynomial via an overpass matrix minor.

    The minor comes as sparse integer rows straight from the Gauss word,
    one per under-run but one (_overpass_minor).  Its determinant is one
    sparse fraction-free Bareiss elimination over the integers after
    Kronecker substitution t = 2**bits, with pivots in Markowitz order and
    lazily scaled rows; bits is fixed by the Hadamard bound on the
    coefficients of every minor, so the polynomial is recovered exactly
    (_bareiss_det).  The diagram is taken as given: callers pass it through
    simplify_diagram first, so the minor has fewer rows.
    """
    if d.n <= 1:
        return LaurentPolynomial.one()
    poly = _bareiss_det(_overpass_minor(d))
    if poly.is_zero:
        raise InternalInvariantError("Alexander minor vanished; diagram is not a knot")
    return canonicalize(poly)


def jones_kauffman(D: PlanarDiagram) -> LaurentPolynomial:
    """Writhe-corrected Kauffman bracket by full state sum, in the bracket
    variable A, canonicalized.  Refuses diagrams above JONES_CAP crossings."""
    n = D.n
    if n > JONES_CAP:
        raise CrossingCapExceededError(f"{n} crossings exceeds cap {JONES_CAP}")
    if n == 0:
        return LaurentPolynomial.one()
    writhe = sum(D.signs)
    delta = LaurentPolynomial({2: -1, -2: -1})
    delta_pow = [LaurentPolynomial.one()]
    for _ in range(n + 1):
        delta_pow.append(delta_pow[-1] * delta)
    pds = D.pd
    bracket = LaurentPolynomial.zero()
    for state in range(1 << n):
        parent = list(range(2 * n + 1))

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
        loops = sum(1 for e in range(1, 2 * n + 1) if find(e) == e)
        term = LaurentPolynomial.t_power(a_count - (n - a_count))
        bracket = bracket + term * delta_pow[loops - 1]
    corrected = bracket.shifted(-3 * writhe)
    if writhe % 2:
        corrected = -corrected
    return canonicalize(corrected)
