"""Laurent polynomial arithmetic and canonical form."""

import random

import pytest

from latticeknot import LaurentPolynomial as LP
from latticeknot import ZeroPolynomialError, canonicalize

from conftest import div_exact


def rand_poly(rng, terms=4, span=6):
    return LP({rng.randint(-span, span): rng.randint(-5, 5) for _ in range(terms)})


class TestArithmetic:
    def test_zero_and_one(self):
        assert LP.zero().is_zero
        assert LP.one().coeff(0) == 1
        assert (LP.one() - LP.one()).is_zero

    def test_zero_coefficients_dropped(self):
        p = LP({3: 0, 1: 2})
        assert p.items() == [(1, 2)]

    def test_add_mul_commute_with_eval(self):
        rng = random.Random(7)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            for x in (2, -3):
                assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
                assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)

    def test_shift_is_multiplication_by_power(self):
        p = LP({0: 1, 2: -4})
        assert p.shifted(3) == p * LP.t_power(3)
        assert p.shifted(-2) == p * LP.t_power(-2)

    def test_div_exact_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            if q.is_zero:
                continue
            assert div_exact(p * q, q) == p

    def test_div_exact_rejects_inexact(self):
        with pytest.raises(ValueError):
            div_exact(LP.from_coeffs([1, 1, 1]), LP.from_coeffs([1, 1]))

    def test_coeff_list(self):
        assert LP({-1: 2, 1: 3}).coeff_list() == [2, 0, 3]
        assert LP.zero().coeff_list() == []

    def test_str(self):
        assert str(LP.from_coeffs([1, -1, 1])) == "1 - t + t^2"
        assert str(LP.zero()) == "0"


class TestCanonicalize:
    def test_unit_normalization(self):
        # -t^-1 + 1 - t  ->  1 - t + t^2
        p = LP({-1: -1, 0: 1, 1: -1})
        assert canonicalize(p) == LP.from_coeffs([1, -1, 1])

    def test_one_fixed(self):
        assert canonicalize(LP.one()) == LP.one()

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rand_poly(rng)
            if p.is_zero:
                continue
            c = canonicalize(p)
            assert canonicalize(c) == c
            assert c.min_exp == 0
            assert c.coeff(c.max_exp) > 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            canonicalize(LP.zero())
