"""Exact generic projection of lattice polygons to diagrams."""

import random
from fractions import Fraction

import latticeknot as lk
from latticeknot import LatticePolygon, LatticeStick
from latticeknot.diagram import segment_crossings


def unit_square():
    return LatticePolygon(
        (
            LatticeStick("x", 0, 1, 0, 0),
            LatticeStick("y", 0, 1, 1, 0),
            LatticeStick("x", 0, 1, 1, 0),
            LatticeStick("y", 0, 1, 0, 0),
        )
    )


class TestSegmentCrossings:
    def test_transversal_hit_exact(self):
        # segments 0 and 2 cross at (4, 2); segments 1 and 3 are parallel
        pts = [(0, 0), (6, 3), (6, 0), (0, 6)]
        assert list(segment_crossings(pts)) == [(0, 2, Fraction(2, 3), Fraction(1, 3), 54)]

    def test_boundary_contact_reported(self):
        # vertex (2, 0) ends segment 2 on the interior of segment 0;
        # segments 1 and 3 miss each other
        pts = [(0, 0), (4, 0), (4, 2), (2, 0)]
        assert list(segment_crossings(pts)) == [(0, 2, Fraction(1, 2), Fraction(1), -8)]

    def test_adjacent_segments_never_paired(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert list(segment_crossings(pts)) == []


class TestProjectPolygon:
    def test_square_no_crossings(self):
        D = lk.project_polygon(unit_square())
        assert D.n == 0
        assert lk.alexander(D) == lk.LaurentPolynomial.one()

    def test_deterministic(self, p6):
        poly = lk.construct_basic(p6)
        assert lk.project_polygon(poly) == lk.project_polygon(poly)

    def test_basic_pentagram_is_trefoil(self, p5):
        D = lk.project_polygon(lk.construct_basic(p5))
        assert D.check() == []
        assert lk.alexander(D) == lk.LaurentPolynomial.from_coeffs([1, -1, 1])

    def test_basic_figure8_alexander(self, p6):
        D = lk.project_polygon(lk.construct_basic(p6))
        assert lk.alexander(D) == lk.LaurentPolynomial.from_coeffs([1, -3, 1])

    def test_all_constructions_match_grid_oracle(self, p5, p6, p7):
        for P in (p5, p6, p7):
            want = lk.alexander(lk.arc_to_planar(P))
            polys = [
                lk.construct_basic(P),
                lk.reduce_ends(lk.construct_basic(P), P),
            ]
            w = lk.find_nonstar_witness(P) if not lk.is_star_shaped(P) else None
            if w is not None:
                polys.append(lk.construct_nonstar(lk.normalize_for_nonstar(P, w)))
            for poly in polys:
                assert lk.alexander(lk.project_polygon(poly)) == want

    def test_every_bundled_entry_basic_and_reduced_match_grid(self):
        from latticeknot import dataset

        for name in dataset.names():
            P = dataset.get(name).arcs
            want = lk.alexander(lk.arc_to_planar(P))
            basic = lk.construct_basic(P)
            for poly in (basic, lk.reduce_ends(basic, P)):
                assert lk.alexander(lk.project_polygon(poly)) == want, name

    def test_euler_faces_on_projections(self):
        rng = random.Random(60)
        for _ in range(20):
            P = lk.random_presentation(rng.randint(5, 8), rng)
            D = lk.project_polygon(lk.construct_basic(P))
            assert D.check() == []
            if D.n:
                assert len(lk.faces(D)) == D.n + 2

    def test_rejects_invalid_polygon(self):
        poly = LatticePolygon(
            (
                LatticeStick("x", 0, 1, 0, 0),
                LatticeStick("y", 0, 1, 5, 0),
                LatticeStick("x", 0, 1, 1, 0),
                LatticeStick("y", 0, 1, 0, 0),
            )
        )
        try:
            lk.project_polygon(poly)
        except lk.SelfIntersectionError as exc:
            assert exc.violations
        else:
            raise AssertionError("invalid polygon accepted")
