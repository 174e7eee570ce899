"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they happen; a plain `pytest` run shows them for failures only.
"""

import random
from contextlib import contextmanager

import latticeknot as lk
from latticeknot import dataset, jsonio

from conftest import lift_sweep, star_presentations


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_figure8_equality():
    with criterion(1, "figure-8: nonstar branch, exactly 14 sticks, 14 <= 3*4+2 with equality"):
        e = dataset.get("4_1")
        poly, cert = lk.construct_auto(e.arcs)
        cert = lk.check_bounds(cert, 4)
        assert cert.branch == "nonstar"
        assert cert.stick_count == 14
        assert lk.stick_count(poly) == 14
        check = {b.name: b for b in cert.bound_checks}["3c+2"]
        assert check.holds and check.lhs == check.rhs == 14
        assert cert.invariant_match.status == "matched"


def test_criterion_2_torus_branch(p7):
    with criterion(2, "P7: (4,3)-torus, 19 sticks, 19 <= 3*8-5 with equality, c = n^2-1 = 8"):
        poly, cert = lk.construct_auto(p7)
        cert = lk.check_bounds(cert, 8)
        assert cert.branch == "torus-star"
        assert cert.torus_params == (4, 3)
        assert cert.stick_count == 19
        check = {b.name: b for b in cert.bound_checks}["3c-5"]
        assert check.holds and check.lhs == check.rhs == 19
        assert cert.torus_c_check is not None
        assert cert.torus_c_check.expected == 8 and cert.torus_c_check.holds


def test_criterion_3_trefoil_exception(p5):
    with criterion(3, "trefoil: torus-star branch, 13 sticks, 3c+2 check fails as expected"):
        poly, cert = lk.construct_auto(p5)
        cert = lk.check_bounds(cert, 3)
        assert cert.branch == "torus-star"
        assert cert.stick_count == 13
        check = {b.name: b for b in cert.bound_checks}["3c+2"]
        assert not check.holds
        assert check.lhs == 13 and check.rhs == 11


def test_criterion_4_stick_count_law(random_suite):
    with criterion(4, "200 seeded random presentations: 3a-4 / 3a-2 by branch, all polygons valid"):
        branch_seen = {"nonstar": 0, "dual-nonstar": 0, "torus-star": 0}
        for item in random_suite:
            a = item.presentation.a
            cert = item.certificate
            branch_seen[cert.branch] += 1
            want = 3 * a - 2 if cert.branch == "torus-star" else 3 * a - 4
            assert cert.stick_count == want
            assert lk.validate_polygon(item.polygon) == []
        assert len(random_suite) == 200
        assert all(v > 0 for v in branch_seen.values()), branch_seen
        assert branch_seen["nonstar"] >= 100


def test_criterion_5_knot_type_oracle(random_suite):
    with criterion(5, "Alexander of projected output equals Alexander of input grid, everywhere"):
        for name in dataset.names():
            e = dataset.get(name)
            poly, cert = lk.construct_auto(e.arcs)
            assert cert.invariant_match.status == "matched", name
            assert cert.invariant_match.input_alexander == e.expected_alexander
        for item in random_suite:
            assert item.certificate.invariant_match.status == "matched"
            im = item.certificate.invariant_match
            assert im.input_alexander == im.output_alexander


def test_criterion_6_star_dual_assertion(random_suite):
    with criterion(6, "every star-shaped presentation failing torus order has a non-star dual"):
        for item in random_suite:
            P = item.presentation
            if lk.is_star_shaped(P) and lk.torus_order_check(P) is None:
                assert not lk.is_star_shaped(lk.dual(P))
        for a in (5, 7):
            for P in star_presentations(a):
                if lk.torus_order_check(P) is None:
                    assert not lk.is_star_shaped(lk.dual(P))


def test_criterion_7_algebraic_invariants(random_suite):
    with criterion(7, "dual involution byte-exact, rotation-invariant Alexander, palindromes, odd determinants"):
        rng = random.Random(99)
        for item in random_suite:
            P = item.presentation
            assert jsonio.canonical_dumps(lk.dual(lk.dual(P)).to_json_obj()) == jsonio.canonical_dumps(
                P.to_json_obj()
            )
            coeffs = list(item.certificate.invariant_match.input_alexander)
            assert coeffs == coeffs[::-1]
            det = abs(lk.LaurentPolynomial.from_coeffs(coeffs).evaluate(-1))
            assert det % 2 == 1
            m = rng.randint(1, P.a)
            rotated = lk.rotate(P, m, P.a - m)
            assert lk.alexander(lk.arc_to_planar(rotated)).coeff_list() == coeffs


def test_criterion_8_non_alternating_bound():
    with criterion(8, "8_20 and 8_21: 20 sticks, 20 <= 3c-4 = 20 with equality"):
        for name in ("8_20", "8_21"):
            e = dataset.get(name)
            assert e.non_alternating_prime and e.crossing_number == 8 and e.arcs.a == 8
            poly, cert = lk.construct_auto(e.arcs)
            cert = lk.check_bounds(cert, 8, non_alternating_prime=True)
            assert cert.stick_count == 20
            check = {b.name: b for b in cert.bound_checks}["3c-4"]
            assert check.holds and check.lhs == check.rhs == 20
            assert cert.invariant_match.status == "matched"


def test_criterion_9_lift_sweep():
    with criterion(9, "discrete z-level sweep of the flipped arc validates at every level, all bundled non-star builds"):
        swept = 0
        for name in dataset.names():
            P = dataset.get(name).arcs
            if lk.is_star_shaped(P):
                if lk.torus_order_check(P) is not None:
                    continue  # torus-star branch has no lift
                P = lk.dual(P)
            w = lk.find_nonstar_witness(P)
            assert w is not None
            nns = lk.normalize_for_nonstar(P, w)
            sweep = lift_sweep(nns)
            assert len(sweep) == nns.lift_page
            for poly in sweep:
                assert lk.validate_polygon(poly) == []
            assert sweep[-1] == lk.construct_nonstar(nns)
            swept += 1
        assert swept == 15  # all entries except the two torus-order ones
