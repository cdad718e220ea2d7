"""A sparse polynomial ring over the rationals, for proving identities in the family parameters.

A `Poly` maps monomials to nonzero Fraction coefficients; a monomial is a
sorted tuple of (variable, exponent) pairs, () for the constant monomial.  It
offers what the library's ring-generic code uses, +, -, unary -, *, == and
truthiness, with ints and Fractions (bools excluded) as scalars on either side,
so a table built from `Poly` parameters is the table of every parameter value
at once.  A polynomial is zero iff it has no terms, so `==` and truthiness are
exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def _monomial_product(m1: tuple, m2: tuple) -> tuple:
    exponents = dict(m1)
    for var, exp in m2:
        exponents[var] = exponents.get(var, 0) + exp
    return tuple(sorted(exponents.items()))


class Poly:
    """A polynomial with rational coefficients in named variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction | int] | None = None):
        self.terms = {monomial: Fraction(c) for monomial, c in (terms or {}).items() if c}

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    @staticmethod
    def _lift(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        return Poly({(): value}) if type(value) in (int, Fraction) else None

    def __add__(self, other):
        other = Poly._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for monomial, c in other.terms.items():
            terms[monomial] = terms.get(monomial, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({monomial: -c for monomial, c in self.terms.items()})

    def __sub__(self, other):
        other = Poly._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = Poly._lift(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        other = Poly._lift(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                monomial = _monomial_product(m1, m2)
                terms[monomial] = terms.get(monomial, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = Poly._lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def __call__(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """The value at a point, which gives every variable of the polynomial a rational value."""
        total = Fraction(0)
        for monomial, c in self.terms.items():
            for var, exp in monomial:
                c *= Fraction(point[var]) ** exp
            total += c
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        shown = (
            f"{c}" + "".join(f"*{var}" + (f"^{exp}" if exp > 1 else "") for var, exp in monomial)
            for monomial, c in sorted(self.terms.items())
        )
        return "Poly(" + " + ".join(shown) + ")"
