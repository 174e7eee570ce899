"""Arc presentations: validation, rotations, duality, and star-shape analysis.

An arc presentation pairs up binding indices 1..a, one pair per page.  The
pairing must form a single closed cycle through all binding indices.  The
page number of a pair is its 1-based position in the list.  An
ArcPresentation checks this when it is made, so nothing downstream does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InternalInvariantError


class PresentationError(ValueError):
    """Invalid arc presentation; carries every violated invariant.

    Each violation is a (code, message) pair with code in
    {"index_out_of_range", "degenerate_arc", "binding_degree", "disconnected"}.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in violations))


class NotStarShapedError(ValueError):
    """A star-shaped presentation was required."""


def mod_star(x: int, y: int) -> int:
    """Residue of x modulo y taken in 1..y (y stands in for 0)."""
    if y < 1:
        raise ValueError(f"modulus must be positive, got {y}")
    return (x - 1) % y + 1


@dataclass(frozen=True)
class ArcPresentation:
    """Pages 1..a, each holding one unordered pair of binding indices.

    arcs[p-1] is the pair at page p, stored smaller index first.
    Construction checks every invariant and raises PresentationError, so
    every presentation that exists is valid.
    """

    arcs: tuple[tuple[int, int], ...]
    # binding b's two pages, ascending, at 2b-2 and 2b-1
    _pages: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Report every violated invariant at once; sort each pair if valid.

        Out-of-range and degenerate pairs are reported page by page, in the
        order given, then bindings not used twice, ascending.  Only a
        pairing without those is walked, from binding 1 until it closes.
        """
        arcs, a = self.arcs, len(self.arcs)
        if a < 2:
            raise PresentationError([("binding_degree", f"need at least 2 arcs, got {a}")])
        violations: list[tuple[str, str]] = []
        pages = [0] * (2 * a)
        degree = [0] * (a + 1)
        for p, (i, j) in enumerate(arcs, start=1):
            for idx in (i, j):
                if not 1 <= idx <= a:
                    violations.append(("index_out_of_range", f"page {p}: index {idx} outside 1..{a}"))
                    continue
                if degree[idx] < 2:
                    pages[2 * idx - 2 + degree[idx]] = p
                degree[idx] += 1
            if i == j:
                violations.append(("degenerate_arc", f"page {p}: arc {i},{j} has equal ends"))
        for b in range(1, a + 1):
            if degree[b] != 2:
                violations.append(("binding_degree", f"index {b} used {degree[b]} times, expected 2"))

        if not violations:
            b, page, walked = 1, pages[0], 1
            while True:
                i, j = arcs[page - 1]
                b = j if b == i else i
                if b == 1:
                    break
                k1, k2 = pages[2 * b - 2], pages[2 * b - 1]
                page = k2 if page == k1 else k1
                walked += 1
            if walked != a:
                violations.append(
                    ("disconnected", f"pairing splits into cycles; walk covered {walked} of {a} arcs")
                )
        if violations:
            raise PresentationError(violations)
        if any(i > j for i, j in arcs):
            # a tuple from a list, not a generator; see lattice._polygon
            object.__setattr__(self, "arcs", tuple([(min(p), max(p)) for p in arcs]))
        object.__setattr__(self, "_pages", tuple(pages))

    @property
    def a(self) -> int:
        return len(self.arcs)

    def pages_at(self, binding: int) -> tuple[int, int]:
        """The two page numbers incident to a binding index, sorted."""
        if not 1 <= binding <= self.a:
            raise InternalInvariantError(f"binding index {binding} outside 1..{self.a}")
        return (self._pages[2 * binding - 2], self._pages[2 * binding - 1])

    def far_ends(self, binding: int) -> tuple[int, int]:
        """Far endpoints of the two arcs meeting a binding index, page order."""
        (i1, j1), (i2, j2) = (self.arcs[p - 1] for p in self.pages_at(binding))
        return (j1 if i1 == binding else i1, j2 if i2 == binding else i2)

    def to_json_obj(self) -> dict:
        return {"arcs": [list(pair) for pair in self.arcs]}


def validate(raw_pairs) -> ArcPresentation:
    """The presentation of raw pairs; PresentationError lists every violation.

    raw_pairs must be a list or tuple of 2-element lists or tuples of ints;
    nothing is coerced, so floats, bools and strings are rejected.
    ArcPresentation checks the invariants and stores each pair sorted.
    """
    if not isinstance(raw_pairs, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(type(i) is int for i in p)
        for p in raw_pairs
    ):
        raise PresentationError(
            [("index_out_of_range", "input is not a list of integer index pairs")]
        )
    return ArcPresentation(tuple([(p[0], p[1]) for p in raw_pairs]))


def rotate(P: ArcPresentation, pages: int = 0, bindings: int = 0) -> ArcPresentation:
    """Both relabellings in one pass, constructing the result once.

    The arc at page p moves to page mod*(p+pages, a), and binding index i
    becomes mod*(i+bindings, a).  The two commute, so this equals rotating
    the pages and the bindings one after the other, in either order.
    """
    a = P.a
    arcs: list[tuple[int, int] | None] = [None] * a
    for p, (i, j) in enumerate(P.arcs, start=1):
        ni, nj = mod_star(i + bindings, a), mod_star(j + bindings, a)
        arcs[mod_star(p + pages, a) - 1] = (ni, nj) if ni < nj else (nj, ni)
    return ArcPresentation(tuple(arcs))  # type: ignore[arg-type]


def dual(P: ArcPresentation) -> ArcPresentation:
    """Exchange the roles of binding indices and page numbers.

    The arc at page m of the dual joins the two page numbers incident to
    binding index m in P.  An involution representing the same knot.
    """
    try:
        return ArcPresentation(tuple([P.pages_at(m) for m in range(1, P.a + 1)]))
    except PresentationError as exc:
        raise InternalInvariantError(f"dual of a valid presentation failed: {exc}") from exc


def is_star_shaped(P: ArcPresentation) -> bool:
    """Odd a and every pair (i, j), i<j, has j-i equal to n or n+1, n=(a-1)/2."""
    a = P.a
    if a % 2 == 0:
        return False
    n = (a - 1) // 2
    return all(j - i in (n, n + 1) for (i, j) in P.arcs)


@dataclass(frozen=True)
class NonStarWitness:
    """Two arcs sharing beta_raw whose far ends break the star distance rule.

    alpha_raw < gamma_raw by construction; the final labeling of which far
    end plays which role is settled by normalize_for_nonstar.
    """

    beta_raw: int
    alpha_raw: int
    gamma_raw: int


def find_nonstar_witness(P: ArcPresentation) -> NonStarWitness | None:
    """First binding index whose far-end pair has cyclic difference not in {1, a-1}.

    Scans beta' = 1..a ascending, so the result is deterministic.  Returns
    None exactly when the presentation is star shaped.
    """
    a = P.a
    if a < 5:
        raise ValueError(f"witness search needs a >= 5, got a={a}")
    for beta in range(1, a + 1):
        f1, f2 = P.far_ends(beta)
        diff = (f1 - f2) % a
        if diff not in (1, a - 1):
            return NonStarWitness(
                beta_raw=beta,
                alpha_raw=min(f1, f2),
                gamma_raw=max(f1, f2),
            )
    return None


@dataclass(frozen=True)
class NormalizedNonStar:
    """Witness configuration after the relabelling of pages and bindings.

    The arc (alpha, beta) sits at page 1, the arc (beta, a) at page
    lift_page >= 2, and 1 < alpha < beta < a.  Construction checks this
    and raises InternalInvariantError, since only a bug can break it.
    """

    presentation: ArcPresentation
    alpha: int
    beta: int
    lift_page: int

    def __post_init__(self):
        arcs, a = self.presentation.arcs, self.presentation.a
        alpha, beta, k = self.alpha, self.beta, self.lift_page
        if not (
            1 < alpha < beta < a
            and arcs[0] == (alpha, beta)
            and 2 <= k <= a
            and arcs[k - 1] == (beta, a)
        ):
            raise InternalInvariantError(
                f"witness configuration alpha={alpha}, beta={beta}, lift_page={k} "
                f"does not hold in {arcs}"
            )


def normalize_for_nonstar(P: ArcPresentation, w: NonStarWitness) -> NormalizedNonStar:
    """Relabel so the witness becomes (alpha, beta, a), with (alpha, beta) at page 1.

    gamma' is the far end met first going up cyclically from beta', and
    rotating by a - gamma' sends gamma' to a, alpha' to alpha' + a - gamma'
    and beta' to beta' + a - gamma' (mod*).  Going up from gamma' meets
    alpha' before beta', so alpha < beta < a, and 1 < alpha because the
    far ends are not cyclically adjacent.  Both page numbers are the two
    pages at beta', told apart by their far ends: rotating pages by
    1 - first, first the page of (alpha', beta'), brings that arc to page 1
    and (beta', gamma') to lift_page.
    """
    a, beta_raw = P.a, w.beta_raw
    gamma_raw, alpha_raw = sorted((w.alpha_raw, w.gamma_raw), key=lambda f: (f - beta_raw) % a)
    shift = a - gamma_raw
    k1, k2 = P.pages_at(beta_raw)
    first, last = (k1, k2) if P.far_ends(beta_raw)[0] == alpha_raw else (k2, k1)
    return NormalizedNonStar(
        presentation=rotate(P, 1 - first, shift),
        alpha=mod_star(alpha_raw + shift, a),
        beta=mod_star(beta_raw + shift, a),
        lift_page=mod_star(last + 1 - first, a),
    )


@dataclass(frozen=True)
class TorusClassification:
    """Star presentation whose chord pages advance cyclically.

    Such a presentation is the (n+1, n)-torus knot; direction records
    whether pages follow the chord indices forward or reversed, and
    rotation_offset is the m realizing page(c_i) = mod*(i+m, a) or
    mod*(m-i, a).
    """

    n: int
    direction: str  # "in-order" | "reverse-order"
    rotation_offset: int


def torus_order_check(P: ArcPresentation) -> TorusClassification | None:
    """Classify a star-shaped presentation as torus-ordered, if it is.

    The chord c_i joins i to mod*(i+n, a).  The page of c_1 fixes the
    offset of each direction: page(c_1) = mod*(1+m, a) in order and
    mod*(m-1, a) reversed.  Each direction then checks the other chords.
    """
    if not is_star_shaped(P):
        raise NotStarShapedError("torus order check needs a star-shaped presentation")
    a = P.a
    n = (a - 1) // 2
    page_by_pair = {pair: p for p, pair in enumerate(P.arcs, start=1)}
    # at odd a exactly a pairs have difference n or n+1, and a valid
    # presentation holds a distinct pairs, so every chord is present
    pages = []
    for i in range(1, a + 1):
        j = mod_star(i + n, a)
        pages.append(page_by_pair[(min(i, j), max(i, j))])
    for direction, step in (("in-order", 1), ("reverse-order", -1)):
        m = (pages[0] - step) % a
        if all(pages[i - 1] == mod_star(m + step * i, a) for i in range(2, a + 1)):
            return TorusClassification(n=n, direction=direction, rotation_offset=m)
    return None


def random_presentation(a: int, rng: random.Random) -> ArcPresentation:
    """Uniformly random single-cycle pairing with a shuffled page order."""
    if a < 2:
        raise ValueError("need a >= 2")
    order = list(range(2, a + 1))
    rng.shuffle(order)
    cycle = [1] + order
    edges = [
        (min(cycle[k], cycle[(k + 1) % a]), max(cycle[k], cycle[(k + 1) % a]))
        for k in range(a)
    ]
    rng.shuffle(edges)
    return ArcPresentation(tuple(edges))
