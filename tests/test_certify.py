"""Pipeline orchestration, certificates, and bound checks."""

import random

import pytest

import latticeknot as lk
from latticeknot import dataset

from conftest import random_star_presentation, star_in_order


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
