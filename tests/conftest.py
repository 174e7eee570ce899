"""Shared fixtures: reference presentations and the seeded random suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

import latticeknot as lk
from latticeknot import LaurentPolynomial
from latticeknot.certify import build_branch

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
    arcs = []
    for i in range(1, 8):
        j = lk.mod_star(i + 3, 7)
        arcs.append((min(i, j), max(i, j)))
    return lk.validate(arcs)


def star_in_order(a: int) -> lk.ArcPresentation:
    """Star presentation with page(c_i) = i; the (n+1, n)-torus knot."""
    n = (a - 1) // 2
    arcs = []
    for i in range(1, a + 1):
        j = lk.mod_star(i + n, a)
        arcs.append((min(i, j), max(i, j)))
    return lk.validate(arcs)


def certified_polygon(a: int) -> lk.LatticePolygon:
    """The polygon certify builds for a seeded random presentation with a arcs."""
    return build_branch(lk.random_presentation(a, random.Random(9000 + a)), "auto")[1]


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Independent oracle: (t^{pq}-1)(t-1) / ((t^p-1)(t^q-1)), canonical."""

    def tn(k):
        return LaurentPolynomial({k: 1, 0: -1})

    return lk.canonicalize((tn(p * q) * tn(1)).div_exact(tn(p)).div_exact(tn(q)))


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
            out.append(lk.random_star_presentation(a, rng))
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
