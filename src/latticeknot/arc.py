"""Arc presentations: validation, rotations, duality, and star-shape analysis.

An arc presentation pairs up binding indices 1..a, one pair per page.  The
pairing must form a single closed cycle through all binding indices.  The
page number of a pair is its 1-based position in the list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    Construct through validate(); direct construction skips checking.
    """

    arcs: tuple[tuple[int, int], ...]

    @property
    def a(self) -> int:
        return len(self.arcs)

    def page_of(self, pair: tuple[int, int]) -> int:
        """Page number of a given (sorted) pair; raises KeyError if absent."""
        want = (min(pair), max(pair))
        for p, arc in enumerate(self.arcs, start=1):
            if arc == want:
                return p
        raise KeyError(f"no arc {want} in presentation")

    def pages_at(self, binding: int) -> tuple[int, int]:
        """The two page numbers incident to a binding index, sorted."""
        pages = [p for p, (i, j) in enumerate(self.arcs, start=1) if binding in (i, j)]
        if len(pages) != 2:
            raise InternalInvariantError(
                f"binding index {binding} is incident to {len(pages)} pages"
            )
        return (pages[0], pages[1])

    def far_ends(self, binding: int) -> tuple[int, int]:
        """Far endpoints of the two arcs meeting a binding index, page order."""
        ends = []
        for (i, j) in self.arcs:
            if binding == i:
                ends.append(j)
            elif binding == j:
                ends.append(i)
        if len(ends) != 2:
            raise InternalInvariantError(
                f"binding index {binding} is incident to {len(ends)} arcs"
            )
        return (ends[0], ends[1])

    def to_json_obj(self) -> dict:
        return {"arcs": [list(pair) for pair in self.arcs]}


def validate(raw_pairs) -> ArcPresentation:
    """Check all presentation invariants; report every violation at once.

    raw_pairs must be a list or tuple of 2-element lists or tuples of ints;
    nothing is coerced, so floats, bools and strings are rejected.
    """
    violations: list[tuple[str, str]] = []
    if not isinstance(raw_pairs, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(type(i) is int for i in p)
        for p in raw_pairs
    ):
        raise PresentationError(
            [("index_out_of_range", "input is not a list of integer index pairs")]
        )
    pairs = [(p[0], p[1]) for p in raw_pairs]
    a = len(pairs)
    if a < 2:
        raise PresentationError(
            [("binding_degree", f"need at least 2 arcs, got {a}")]
        )

    for p, (i, j) in enumerate(pairs, start=1):
        for idx in (i, j):
            if not 1 <= idx <= a:
                violations.append(
                    ("index_out_of_range", f"page {p}: index {idx} outside 1..{a}")
                )
        if i == j:
            violations.append(("degenerate_arc", f"page {p}: arc {i},{j} has equal ends"))

    degree = {i: 0 for i in range(1, a + 1)}
    for (i, j) in pairs:
        for idx in (i, j):
            if idx in degree:
                degree[idx] += 1
    bad_degree = {i: d for i, d in degree.items() if d != 2}
    for i, d in sorted(bad_degree.items()):
        violations.append(("binding_degree", f"index {i} used {d} times, expected 2"))

    if not violations:
        # Walk the 2-regular multigraph; a single cycle must cover all indices.
        incident: dict[int, list[int]] = {i: [] for i in range(1, a + 1)}
        for p, (i, j) in enumerate(pairs):
            incident[i].append(p)
            incident[j].append(p)
        seen_edges = set()
        vertex = 1
        edge = incident[1][0]
        for _ in range(a):
            seen_edges.add(edge)
            i, j = pairs[edge]
            vertex = j if vertex == i else i
            nxt = [e for e in incident[vertex] if e not in seen_edges]
            if not nxt:
                break
            edge = nxt[0]
        if len(seen_edges) != a:
            violations.append(
                ("disconnected", f"pairing splits into cycles; walk covered {len(seen_edges)} of {a} arcs")
            )

    if violations:
        raise PresentationError(violations)
    # a tuple from a list, not a generator; see lattice._polygon
    return ArcPresentation(tuple([(min(i, j), max(i, j)) for i, j in pairs]))


def rotate_pages(P: ArcPresentation, m: int) -> ArcPresentation:
    """Send the arc at page p to page mod*(p+m, a); endpoint pairs unchanged."""
    a = P.a
    arcs: list[tuple[int, int] | None] = [None] * a
    for p, pair in enumerate(P.arcs, start=1):
        arcs[mod_star(p + m, a) - 1] = pair
    return ArcPresentation(tuple(arcs))  # type: ignore[arg-type]


def rotate_bindings(P: ArcPresentation, m: int) -> ArcPresentation:
    """Replace every binding index i by mod*(i+m, a); page order unchanged."""
    a = P.a
    arcs = []
    for (i, j) in P.arcs:
        ni, nj = mod_star(i + m, a), mod_star(j + m, a)
        arcs.append((min(ni, nj), max(ni, nj)))
    return ArcPresentation(tuple(arcs))


def dual(P: ArcPresentation) -> ArcPresentation:
    """Exchange the roles of binding indices and page numbers.

    The arc at page m of the dual joins the two page numbers incident to
    binding index m in P.  An involution representing the same knot.
    """
    pairs = [P.pages_at(m) for m in range(1, P.a + 1)]
    try:
        return validate(pairs)
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
    """Witness configuration after both rotations.

    The arc (alpha, beta) sits at page 1, the arc (beta, a) at page
    lift_page >= 2, and 1 < alpha < beta < a.
    """

    presentation: ArcPresentation
    alpha: int
    beta: int
    lift_page: int


def normalize_for_nonstar(P: ArcPresentation, w: NonStarWitness) -> NormalizedNonStar:
    """Rotate bindings so the witness becomes (alpha, beta, a), then pages.

    Rotating by a - gamma' sends gamma' to a, alpha' to alpha' + a - gamma'
    and beta' to beta' + a - gamma' (mod*).  Exactly one labeling of the two
    far ends yields 1 < alpha < beta < a; both are tried.
    """
    a = P.a
    candidates = []
    for alpha_raw, gamma_raw in (
        (w.alpha_raw, w.gamma_raw),
        (w.gamma_raw, w.alpha_raw),
    ):
        shift = a - gamma_raw
        alpha = mod_star(alpha_raw + shift, a)
        beta = mod_star(w.beta_raw + shift, a)
        if 1 < alpha < beta < a:
            candidates.append((alpha, beta, shift))
    if not candidates:
        raise InternalInvariantError(
            f"no far-end labeling of witness {w} normalizes to 1 < alpha < beta < a"
        )
    alpha, beta, shift = min(candidates)
    rotated = rotate_bindings(P, shift)
    page_ab = rotated.page_of((alpha, beta))
    rotated = rotate_pages(rotated, 1 - page_ab)
    lift_page = rotated.page_of((beta, a))
    if rotated.page_of((alpha, beta)) != 1 or lift_page < 2:
        raise InternalInvariantError("normalization postcondition failed")
    return NormalizedNonStar(
        presentation=rotated, alpha=alpha, beta=beta, lift_page=lift_page
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

    The chord c_i joins i to mod*(i+n, a).  Every rotation offset and both
    directions are tried by brute force; a is small so clarity wins.
    """
    if not is_star_shaped(P):
        raise NotStarShapedError("torus order check needs a star-shaped presentation")
    a = P.a
    n = (a - 1) // 2
    page_by_pair = {pair: p for p, pair in enumerate(P.arcs, start=1)}
    pages = []
    for i in range(1, a + 1):
        j = mod_star(i + n, a)
        pair = (min(i, j), max(i, j))
        if pair not in page_by_pair:
            raise InternalInvariantError(f"star presentation lacks chord {pair}")
        pages.append(page_by_pair[pair])
    for m in range(a):
        if all(pages[i - 1] == mod_star(i + m, a) for i in range(1, a + 1)):
            return TorusClassification(n=n, direction="in-order", rotation_offset=m)
    for m in range(a):
        if all(pages[i - 1] == mod_star(m - i, a) for i in range(1, a + 1)):
            return TorusClassification(n=n, direction="reverse-order", rotation_offset=m)
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


def random_star_presentation(a: int, rng: random.Random) -> ArcPresentation:
    """Star-shaped presentation with a random page assignment; a must be odd."""
    if a < 3 or a % 2 == 0:
        raise ValueError("star-shaped presentations need odd a >= 3")
    n = (a - 1) // 2
    edges = []
    for i in range(1, a + 1):
        j = mod_star(i + n, a)
        edges.append((min(i, j), max(i, j)))
    rng.shuffle(edges)
    return ArcPresentation(tuple(edges))
