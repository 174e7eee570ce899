"""Bundled knot entries: every one re-verified by the Alexander oracle."""

import latticeknot as lk
from latticeknot import dataset

from conftest import torus_alexander


class TestEntries:
    def test_names_complete(self):
        expected = {
            "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3",
            "7_1", "7_2", "7_3", "7_4", "7_5", "7_6", "7_7",
            "8_19", "8_20", "8_21",
        }
        assert set(dataset.names()) == expected

    def test_every_entry_validates(self):
        for name in dataset.names():
            e = dataset.get(name)
            P = lk.validate([list(p) for p in e.arcs.arcs])
            assert P == e.arcs

    def test_every_entry_alexander_verified(self):
        for name in dataset.names():
            e = dataset.get(name)
            got = lk.alexander(lk.arc_to_planar(e.arcs))
            assert tuple(got.coeff_list()) == e.expected_alexander, name

    def test_arc_counts(self):
        assert dataset.get("3_1").arcs.a == 5
        assert dataset.get("4_1").arcs.a == 6
        assert dataset.get("8_19").arcs.a == 7
        for name in ("5_1", "5_2"):
            assert dataset.get(name).arcs.a == 7
        for name in ("6_1", "6_2", "6_3", "8_20", "8_21"):
            assert dataset.get(name).arcs.a == 8
        for k in range(1, 8):
            assert dataset.get(f"7_{k}").arcs.a == 9

    def test_structural_torus_entries(self):
        tc = lk.torus_order_check(dataset.get("3_1").arcs)
        assert tc is not None and (tc.n + 1, tc.n) == (3, 2)
        tc = lk.torus_order_check(dataset.get("8_19").arcs)
        assert tc is not None and (tc.n + 1, tc.n) == (4, 3)
        # torus-knot Alexander formula as an independent identity check
        assert lk.alexander(lk.arc_to_planar(dataset.get("8_19").arcs)) == torus_alexander(4, 3)

    def test_unknown_name(self):
        try:
            dataset.get("9_99")
        except KeyError:
            pass
        else:
            raise AssertionError("unknown name accepted")

    def test_determinants_odd_and_known(self):
        known = {
            "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9, "6_2": 11,
            "6_3": 13, "7_1": 7, "7_2": 11, "7_3": 13, "7_4": 15, "7_5": 17,
            "7_6": 19, "7_7": 21, "8_19": 3, "8_20": 9, "8_21": 15,
        }
        for name, want in known.items():
            e = dataset.get(name)
            poly = lk.LaurentPolynomial.from_coeffs(list(e.expected_alexander))
            assert abs(poly.evaluate(-1)) == want, name
