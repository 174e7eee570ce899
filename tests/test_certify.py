"""Pipeline orchestration, certificates, and bound checks."""

import random
from collections import Counter

import pytest

import latticeknot as lk
import latticeknot.certify as certify_mod
from latticeknot import LaurentPolynomial as LP
from latticeknot import dataset

from conftest import arc_presentations, random_star_presentation, star_in_order


def scrambled_star(a):
    """Star-shaped, provably not torus-order (pages of first two chords swapped)."""
    base = star_in_order(a)
    chords = list(base.arcs)
    chords[0], chords[1] = chords[1], chords[0]
    P = lk.ArcPresentation(tuple(chords))
    assert lk.is_star_shaped(P) and lk.torus_order_check(P) is None
    return P


class TestConstructAuto:
    def test_figure8_nonstar_14(self, p6):
        poly, cert = lk.construct_auto(p6)
        assert cert.branch == "nonstar"
        assert cert.stick_count == 14 == lk.stick_count(poly)
        assert cert.invariant_match.status == "matched"

    def test_pentagram_torus_star_13(self, p5):
        poly, cert = lk.construct_auto(p5)
        assert cert.branch == "torus-star"
        assert cert.torus_params == (3, 2)
        assert cert.stick_count == 13

    def test_p7_torus_star_19(self, p7):
        _, cert = lk.construct_auto(p7)
        assert cert.branch == "torus-star"
        assert cert.torus_params == (4, 3)
        assert cert.stick_count == 19

    def test_dual_nonstar_branch(self):
        P = scrambled_star(5)
        poly, cert = lk.construct_auto(P)
        assert cert.branch == "dual-nonstar"
        assert cert.stick_count == 3 * 5 - 4
        assert cert.invariant_match.status == "matched"

    def test_branch_total_function(self):
        rng = random.Random(70)
        for _ in range(60):
            a = rng.randint(5, 9)
            P = (
                random_star_presentation(a, rng)
                if a % 2 and rng.random() < 0.5
                else lk.random_presentation(a, rng)
            )
            _, cert = lk.construct_auto(P, check_invariant=False)
            assert cert.branch in ("nonstar", "dual-nonstar", "torus-star")
            want = 3 * a - 2 if cert.branch == "torus-star" else 3 * a - 4
            assert cert.stick_count == want

    @pytest.mark.parametrize("a", [16, 20, 24, 28, 32])
    def test_stick_law_and_match_past_a9(self, a):
        rng = random.Random(7000 + a)
        for _ in range(3):
            _, cert = lk.construct_auto(lk.random_presentation(a, rng))
            assert cert.invariant_match.status == "matched"
            assert cert.stick_count == 3 * a - 4

    def test_every_a5_presentation_is_certified(self):
        """All 288 presentations with five arcs, up to page rotation: the stick
        law and a matched Alexander polynomial on each."""
        branches = Counter()
        for P in arc_presentations(5):
            _, cert = lk.construct_auto(P)
            assert cert.invariant_match.status == "matched", P.arcs
            assert cert.stick_count == (13 if cert.branch == "torus-star" else 11), P.arcs
            branches[cert.branch] += 1
        assert branches == {"nonstar": 264, "dual-nonstar": 22, "torus-star": 2}

    def test_arc_count_gate(self):
        with pytest.raises(lk.ArcCountOutOfRangeError):
            lk.construct_auto(lk.validate([[1, 2], [1, 2]]))
        big = lk.validate(
            [[i, i + 1] for i in range(1, 65)] + [[1, 65]]
        )
        assert big.a == 65
        with pytest.raises(lk.ArcCountOutOfRangeError):
            lk.construct_auto(big)

    def test_skip_invariant(self, p6):
        _, cert = lk.construct_auto(p6, check_invariant=False)
        assert cert.invariant_match.status == "skipped"
        assert cert.invariant_match.input_alexander is None


def certify_output_diagram(P, monkeypatch):
    """construct_auto's polygon and the simplified output-side diagram it
    hands to alexander, which is stubbed out: the callers compare diagrams,
    not determinants."""
    seen = []
    monkeypatch.setattr(certify_mod, "alexander", lambda d: seen.append(d) or LP.one())
    poly, _ = lk.construct_auto(P)
    assert len(seen) == 2  # the input side, then the output side
    return poly, seen[1]


def over_runs(d):
    """b, the number of maximal cyclic over-runs in the Gauss word."""
    g = d.gauss
    return sum(1 for j, (_, over) in enumerate(g) if over and not g[j - 1][1])


class TestOutputView:
    """certify projects the polygon cycled to (z, x, y), not project_polygon's view."""

    def test_view_keeps_handedness_on_the_dataset(self, monkeypatch):
        # a cyclic permutation of the axes is a rotation; the swap (x, z, y)
        # would mirror the diagram and change Jones on the chiral knots
        for name in dataset.names():
            poly, S = certify_output_diagram(dataset.get(name).arcs, monkeypatch)
            want = lk.jones_kauffman(lk.simplify_diagram(lk.project_polygon(poly)))
            assert lk.jones_kauffman(S) == want, name

    @pytest.mark.parametrize("a", [48, 56, 64])
    def test_fewer_over_runs_than_the_page_axis_view(self, a, monkeypatch):
        # counts only: the page-axis view's determinant takes seconds to
        # minutes at a = 64
        ours = theirs = 0
        for s in range(3):
            P = lk.random_presentation(a, random.Random(1000 * a + s))
            poly, S = certify_output_diagram(P, monkeypatch)
            ours += over_runs(S)
            theirs += over_runs(lk.simplify_diagram(lk.project_polygon(poly)))
        assert ours < theirs


class TestCheckBounds:
    def test_figure8_equality(self, p6):
        _, cert = lk.construct_auto(p6)
        cert = lk.check_bounds(cert, 4)
        by_name = {b.name: b for b in cert.bound_checks}
        assert by_name["3c+2"].holds and by_name["3c+2"].rhs == 14
        assert cert.crossing_number == 4
        assert cert.all_hold()

    def test_trefoil_expected_failure(self, p5):
        _, cert = lk.construct_auto(p5)
        cert = lk.check_bounds(cert, 3)
        by_name = {b.name: b for b in cert.bound_checks}
        assert by_name["3c+2"].lhs == 13 and by_name["3c+2"].rhs == 11
        assert not by_name["3c+2"].holds
        assert not cert.all_hold()
        # trefoil is the n=2 torus case, so no 3c-5 check is added
        assert "3c-5" not in by_name
        assert cert.torus_c_check is None

    def test_p7_torus_bounds(self, p7):
        _, cert = lk.construct_auto(p7)
        cert = lk.check_bounds(cert, 8)
        by_name = {b.name: b for b in cert.bound_checks}
        assert by_name["3c-5"].holds and by_name["3c-5"].rhs == 19
        assert cert.torus_c_check is not None and cert.torus_c_check.holds
        assert cert.torus_c_check.expected == 8

    def test_torus_parameter_mismatch_reported_not_fatal(self, p7):
        _, cert = lk.construct_auto(p7)
        cert = lk.check_bounds(cert, 9)
        assert cert.torus_c_check is not None
        assert not cert.torus_c_check.holds
        assert not cert.all_hold()

    def test_non_alternating_prime_bound(self):
        e = dataset.get("8_20")
        _, cert = lk.construct_auto(e.arcs)
        cert = lk.check_bounds(cert, e.crossing_number, non_alternating_prime=True)
        by_name = {b.name: b for b in cert.bound_checks}
        assert by_name["3c-4"].holds
        assert by_name["3c-4"].lhs == by_name["3c-4"].rhs == 20

    def test_checks_reevaluate_from_stored_numbers(self, p6):
        _, cert = lk.construct_auto(p6)
        cert = lk.check_bounds(cert, 4)
        for b in cert.bound_checks:
            assert b.holds == (b.lhs <= b.rhs)

    def test_bad_crossing_number(self, p6):
        _, cert = lk.construct_auto(p6)
        with pytest.raises(ValueError):
            lk.check_bounds(cert, 0)


class TestCertificateJson:
    def test_stick_count_equals_polygon(self):
        rng = random.Random(71)
        for _ in range(20):
            P = lk.random_presentation(rng.randint(5, 9), rng)
            poly, cert = lk.construct_auto(P, check_invariant=False)
            assert cert.stick_count == lk.stick_count(poly)
