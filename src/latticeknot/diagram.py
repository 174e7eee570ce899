"""Planar knot diagrams and the invariants used as the knot-type oracle.

Diagrams come from two sources: the grid picture of an arc presentation
(vertical strands over horizontal, the standard grid convention) and exact
top views of 3-D lattice polygons.  Invariants: Alexander
polynomial of an overpass minor and an optional Kauffman-bracket Jones
polynomial.  A PlanarDiagram stores only its Gauss word (the passages in
traversal order) and its crossing signs; passage j leaves on edge j, and
edge 2n enters passage 1.  Simplification and the overpass minor read
only these.  Each passage is a pair (crossing, passes_over), and
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

from dataclasses import dataclass
from math import isqrt

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


def _assemble(events: list[tuple[object, bool]], signs: dict) -> PlanarDiagram:
    """Build a diagram from traversal events (key, passes_over) and crossing signs.

    signs maps each key to its crossing's sign.  Crossings are numbered in
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
# exact top view of a lattice polygon


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
    B above the range of z.

    In the screen coordinates (x - z / B**2, y - z / B), an
    orientation-preserving image of that view, two points lie apart by
    their integer (x, y) offset up to less than one unit, so every strict
    order of integers is kept and the ties are broken symbolically
    (Edelsbrunner and Muecke, "Simulation of Simplicity", ACM Trans.
    Graphics 9, 1990).  A z-stick's image is shorter than one unit
    and meets another stick's only where the two share a corner; x-sticks
    are parallel to each other, and so are y-sticks.  So only x-y pairs
    cross.  For an x-stick at (y, z) = (yx, zx) from x0 to x1 and a y-stick
    at (x, z) = (a, zy) from y0 to y1, with d = zx - zy, the meeting point
    lies at x = a + d / B**2 and y = yx - d / B, exactly ordered as the
    pairs (a, d) and (yx, -d).  The pair crosses iff (x0, 0) < (a, d) <
    (x1, 0) and (y0, 0) < (yx, -d) < (y1, 0), and those pairs sort each
    stick's hits.  A tie with d = 0 at an end of a stick is the corner of
    two adjacent sticks, which do not cross; d = 0 inside both sticks would
    be a point of space on both.  The depth along the view differs by a
    positive multiple of d, so the higher stick is over, and the sign is
    -sgn(dx) * sgn(dy) * sgn(d) for travel directions dx and dy: +1 when the
    over direction is the under one turned counterclockwise.
    """
    xs, ys = [], []
    for k, ((x, y, z), (u, v, _)) in enumerate(zip(verts, verts[1:] + verts[:1])):
        if x != u:
            xs.append((k, min(x, u), max(x, u), y, z, 1 if u > x else -1))
        elif y != v:
            ys.append((k, x, z, min(y, v), max(y, v), 1 if v > y else -1))
    hits: list[list[tuple[tuple[int, int], tuple[int, int], bool]]] = [[] for _ in verts]
    signs: dict[tuple[int, int], int] = {}
    for i, x0, x1, yx, zx, dx in xs:
        for j, a, zy, y0, y1, dy in ys:
            if not (x0 <= a <= x1 and y0 <= yx <= y1):
                continue
            d = zx - zy
            if not ((x0, 0) < (a, d) < (x1, 0) and (y0, 0) < (yx, -d) < (y1, 0)):
                continue  # the tilt moves one image off the other's end
            if not d:
                raise InternalInvariantError("equal depths at a projected crossing")
            pair = (i, j)
            signs[pair] = -dx * dy if d > 0 else dx * dy
            hits[i].append(((dx * a, dx * d), pair, d > 0))
            hits[j].append(((dy * yx, -dy * d), pair, d < 0))
    events: list[tuple[object, bool]] = []
    for row in hits:
        row.sort()
        events += [(pair, over) for _, pair, over in row]
    return _assemble(events, signs)


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
    (Reidemeister II).  The first such pair in passage order goes, and the
    search starts again.  The diagram is assembled once, at the end.
    """
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
    return _assemble(events, dict(enumerate(d.signs)))


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
