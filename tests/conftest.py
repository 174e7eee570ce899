"""Shared fixtures and test oracles: reference presentations, the seeded
random suite, and helpers that only the tests use (faces, mirror, exact
division, the lift sweep, random star presentations)."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

import latticeknot as lk
from latticeknot import LaurentPolynomial
from latticeknot.certify import build_branch
from latticeknot.errors import InternalInvariantError
from latticeknot.lattice import _nonstar_cycle, _polygon

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


def random_star_presentation(a: int, rng: random.Random) -> lk.ArcPresentation:
    """Star-shaped presentation with a random page assignment; a must be odd."""
    if a < 3 or a % 2 == 0:
        raise ValueError("star-shaped presentations need odd a >= 3")
    edges = star_chords(a)
    rng.shuffle(edges)
    return lk.ArcPresentation(tuple(edges))


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
