"""Integer Laurent polynomials in one variable t.

Exponents may be negative; coefficients are plain Python integers, so all
arithmetic is exact.  The canonical form used throughout the package has
minimal exponent 0 and a positive leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        d = {e: c for e, c in coeffs.items() if c} if coeffs else {}
        object.__setattr__(self, "_coeffs", d)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def t_power(cls, exponent: int) -> "LaurentPolynomial":
        return cls({exponent: 1})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "LaurentPolynomial":
        """Dense constructor: coeffs[k] is the coefficient of t**k."""
        return cls(dict(enumerate(coeffs)))

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return max(self._coeffs)

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def coeff_list(self) -> list[int]:
        """Dense coefficients from min_exp up to max_exp; [] for zero."""
        if not self._coeffs:
            return []
        lo, hi = self.min_exp, self.max_exp
        return [self._coeffs.get(e, 0) for e in range(lo, hi + 1)]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d = dict(self._coeffs)
        for e, c in other._coeffs.items():
            d[e] = d.get(e, 0) + c
        return LaurentPolynomial(d)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d = dict(self._coeffs)
        for e, c in other._coeffs.items():
            d[e] = d.get(e, 0) - c
        return LaurentPolynomial(d)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPolynomial(d)

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        return LaurentPolynomial({e + k: c for e, c in self._coeffs.items()})

    def evaluate(self, x):
        """Evaluate at an int or Fraction; negative exponents need x != 0."""
        total: int | Fraction = 0
        for e, c in self._coeffs.items():
            if e >= 0:
                total += c * x**e
            else:
                total += Fraction(c, 1) / Fraction(x) ** (-e)
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    # -- comparison / display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "t" if e == 1 else f"t^{e}"
                term = f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self.items())!r})"


def canonicalize(p: LaurentPolynomial) -> LaurentPolynomial:
    """Normalize up to units: minimal exponent 0, positive leading coefficient."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot canonicalize the zero polynomial")
    q = p.shifted(-p.min_exp)
    if q.coeff(q.max_exp) < 0:
        q = -q
    return q
