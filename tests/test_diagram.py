"""Grid diagrams, simplification, Alexander, determinant, Kauffman bracket."""

import random

import pytest

import latticeknot as lk
from latticeknot import LaurentPolynomial as LP
from latticeknot.diagram import _bareiss_det

from conftest import star_in_order, torus_alexander

TREFOIL = LP.from_coeffs([1, -1, 1])
FIG8 = LP.from_coeffs([1, -3, 1])


class TestArcToPlanar:
    def test_doubled_pair_no_crossings(self):
        D = lk.arc_to_planar(lk.validate([[1, 2], [1, 2]]))
        assert D.n == 0
        assert lk.alexander(D) == LP.one()

    def test_pentagram_trefoil(self, p5):
        D = lk.arc_to_planar(p5)
        assert D.check() == []
        assert lk.alexander(D) == TREFOIL

    def test_figure8_determinant(self, p6):
        assert lk.determinant(lk.arc_to_planar(p6)) == 5

    def test_diagrams_check_clean(self):
        rng = random.Random(40)
        for _ in range(50):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(2, 9), rng))
            assert D.check() == []

    def test_euler_face_count(self):
        rng = random.Random(41)
        for _ in range(50):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            if D.n:
                assert len(lk.faces(D)) == D.n + 2


class TestSimplify:
    def test_preserves_alexander(self):
        rng = random.Random(42)
        for _ in range(30):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 8), rng))
            plain = lk.alexander(D, presimplify=False)
            assert lk.alexander(D, presimplify=True) == plain

    def test_shrinks_or_keeps(self):
        rng = random.Random(43)
        for _ in range(30):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            S = lk.simplify_diagram(D)
            assert S.n <= D.n
            assert S.check() == []

    def test_idempotent_on_grid_and_projected_diagrams(self):
        # simplify reassembles crossings from gauss events and stored signs;
        # a second pass must reproduce the first exactly, signs included
        rng = random.Random(44)
        for _ in range(20):
            P = lk.random_presentation(rng.randint(5, 9), rng)
            poly, _ = lk.construct_auto(P, check_invariant=False)
            for D in (lk.arc_to_planar(P), lk.project_polygon(poly)):
                S = lk.simplify_diagram(D)
                again = lk.simplify_diagram(S)
                assert again.crossings == S.crossings
                assert again.gauss == S.gauss

    def test_unknot_collapses(self):
        # trivial a=3 cycle: three arcs, unknotted
        D = lk.arc_to_planar(lk.validate([[1, 2], [2, 3], [1, 3]]))
        assert lk.simplify_diagram(D).n == 0


class TestAlexander:
    def test_torus_formula_oracle_p5(self, p5):
        assert lk.alexander(lk.arc_to_planar(p5)) == torus_alexander(3, 2)

    def test_torus_formula_oracle_p7(self, p7):
        got = lk.alexander(lk.arc_to_planar(p7))
        assert got == torus_alexander(4, 3)
        assert got == LP.from_coeffs([1, -1, 0, 1, 0, -1, 1])

    def test_torus_formula_oracle_t54(self):
        P = star_in_order(9)
        assert lk.alexander(lk.arc_to_planar(P)) == torus_alexander(5, 4)

    @pytest.mark.parametrize("a", [11, 13, 15])
    def test_torus_formula_oracle_past_a9(self, a):
        n = (a - 1) // 2
        assert lk.alexander(lk.arc_to_planar(star_in_order(a))) == torus_alexander(n + 1, n)

    def test_mirror_insensitive(self):
        rng = random.Random(44)
        for _ in range(20):
            D = lk.arc_to_planar(lk.random_presentation(rng.randint(5, 8), rng))
            assert lk.alexander(D.mirror()) == lk.alexander(D)

    def test_palindromic_coefficients(self):
        rng = random.Random(45)
        for _ in range(30):
            coeffs = lk.alexander(
                lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            ).coeff_list()
            assert coeffs == coeffs[::-1]

    def test_value_at_1_is_unit(self):
        rng = random.Random(46)
        for _ in range(30):
            p = lk.alexander(lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng)))
            assert abs(p.evaluate(1)) == 1


def cofactor_det(mat):
    """Reference determinant by expansion along the first row."""
    if not mat:
        return LP.one()
    total = LP.zero()
    for j, entry in enumerate(mat[0]):
        term = entry * cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        total = total - term if j % 2 else total + term
    return total


def sparse_poly(rng):
    if rng.random() < 0.4:
        return LP.zero()
    return LP({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


class TestBareiss:
    def random_matrix(self, rng, size):
        return [[sparse_poly(rng) for _ in range(size)] for _ in range(size)]

    def test_matches_cofactor_expansion(self):
        rng = random.Random(48)
        for size in range(6):
            for _ in range(15):
                mat = self.random_matrix(rng, size)
                assert _bareiss_det(mat) == cofactor_det(mat)

    def test_zero_leading_pivot_swaps_rows(self):
        rng = random.Random(49)
        for size in range(2, 6):
            for _ in range(10):
                mat = self.random_matrix(rng, size)
                mat[0][0] = LP.zero()
                mat[1][0] = LP.t_power(-1) - LP.one()  # a nonzero pivot below
                want = cofactor_det(mat)
                assert _bareiss_det(mat) == want
                assert _bareiss_det(mat[1:2] + mat[:1] + mat[2:]) == -want

    def test_singular_is_zero(self):
        rng = random.Random(50)
        for size in range(2, 6):
            for _ in range(10):
                mat = self.random_matrix(rng, size)
                zero_column = [[LP.zero()] + row[1:] for row in mat]
                multiple = LP({1: 2, -1: -1})
                last_row_scaled = mat[:-1] + [[multiple * e for e in mat[0]]]
                for singular in (zero_column, last_row_scaled):
                    assert cofactor_det(singular).is_zero
                    assert _bareiss_det(singular).is_zero


class TestDeterminant:
    def test_unknot_1(self):
        assert lk.determinant(lk.arc_to_planar(lk.validate([[1, 2], [1, 2]]))) == 1

    def test_trefoil_3(self, p5):
        assert lk.determinant(lk.arc_to_planar(p5)) == 3

    def test_odd_always(self):
        rng = random.Random(47)
        for _ in range(40):
            d = lk.determinant(
                lk.arc_to_planar(lk.random_presentation(rng.randint(5, 9), rng))
            )
            assert d % 2 == 1


class TestJones:
    def test_unknot_1(self):
        assert lk.jones_kauffman(lk.arc_to_planar(lk.validate([[1, 2], [1, 2]]))) == LP.one()

    def test_trefoil_textbook_pair(self, p5):
        D = lk.simplify_diagram(lk.arc_to_planar(p5))
        j = lk.jones_kauffman(D).coeff_list()
        jm = lk.jones_kauffman(D.mirror()).coeff_list()
        left = [-1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1]
        right = [-1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert sorted([j, jm]) == sorted([left, right])
        assert j != jm

    def test_invariant_under_simplification(self, p6):
        D = lk.arc_to_planar(p6)
        assert lk.jones_kauffman(D) == lk.jones_kauffman(lk.simplify_diagram(D))

    def test_cap_exceeded(self):
        D = lk.arc_to_planar(star_in_order(11))
        assert D.n == 24
        with pytest.raises(lk.CrossingCapExceededError):
            lk.jones_kauffman(D)

    def test_amphichiral_figure8(self, p6):
        D = lk.simplify_diagram(lk.arc_to_planar(p6))
        assert lk.jones_kauffman(D) == lk.jones_kauffman(D.mirror())


class TestPDCode:
    def test_trefoil_pd_text(self, p5):
        D = lk.simplify_diagram(lk.arc_to_planar(p5))
        lines = D.pd_code_text().splitlines()
        assert len(lines) == D.n
        for line in lines:
            assert line.startswith("X(") and line.endswith(")")
            labels = [int(v) for v in line[2:-1].split(",")]
            assert all(1 <= v <= 2 * D.n for v in labels)
        # every edge label appears exactly twice across the code
        counts = {}
        for line in lines:
            for v in line[2:-1].split(","):
                counts[v] = counts.get(v, 0) + 1
        assert set(counts.values()) == {2}

    def test_mirror_flips_signs(self, p5):
        D = lk.arc_to_planar(p5)
        M = D.mirror()
        assert [c.sign for c in M.crossings] == [-c.sign for c in D.crossings]
        assert M.mirror() == D
