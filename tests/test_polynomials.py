"""The test-side polynomial ring agrees with Fraction arithmetic at every point.

The Jacobi certificate (tests/test_family_jacobi_certificate.py) reads its
verdicts off `polynomials.Poly`, so the ring itself is checked here: each
operation, evaluated at a rational point, must give the Fraction result, and
`==` and truthiness must be exactly the test against the zero polynomial.
"""

import random
from fractions import Fraction

import pytest

from polynomials import Poly

F = Fraction
VARIABLES = ("x", "y", "z")


def random_scalar(rng: random.Random):
    """An int or a Fraction, zero included."""
    return rng.choice((rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))))


def random_poly(rng: random.Random) -> Poly:
    """A sum of up to four terms of degree up to 3, cancellations and the zero polynomial included."""
    total = Poly()
    for _ in range(rng.randint(0, 4)):
        term = Poly({(): random_scalar(rng)})
        for _ in range(rng.randint(0, 3)):
            term = term * Poly.variable(rng.choice(VARIABLES))
        total = total + term
    return total


def random_point(rng: random.Random) -> dict:
    return {name: F(rng.randint(-6, 6), rng.randint(1, 5)) for name in VARIABLES}


CASES = 300


class TestEvaluation:
    def test_ring_operations_commute_with_evaluation(self):
        rng = random.Random("poly-ring")
        for _ in range(CASES):
            p, q, s = random_poly(rng), random_poly(rng), random_scalar(rng)
            point = random_point(rng)
            pv, qv = p(point), q(point)
            assert (p + q)(point) == pv + qv
            assert (p - q)(point) == pv - qv
            assert (p * q)(point) == pv * qv
            assert (-p)(point) == -pv
            assert (p * s)(point) == (s * p)(point) == pv * s
            assert (p + s)(point) == (s + p)(point) == pv + s
            assert (p - s)(point) == pv - s
            assert (s - p)(point) == s - pv

    def test_variable_and_constant_values(self):
        point = {"x": F(2, 3), "y": F(-1), "z": F(5)}
        assert Poly.variable("x")(point) == F(2, 3)
        assert Poly({(): F(7, 2)})(point) == F(7, 2)
        assert Poly()(point) == 0
        assert (Poly.variable("x") * Poly.variable("x") * Poly.variable("y"))(point) == F(-4, 9)


class TestZero:
    def test_equality_and_truthiness_are_the_zero_test(self):
        rng = random.Random("poly-zero")
        zeros = 0
        for _ in range(CASES):
            p, q = random_poly(rng), random_poly(rng)
            zero = not p.terms
            zeros += zero
            assert bool(p) is not zero
            assert (p == 0) is zero and (p == Poly()) is zero
            assert (p == q) is (not (p - q))
            assert not (p - p) and p - p == 0
            if p:
                # A nonzero polynomial of degree <= 3 in three variables is
                # nonzero at some point of a 4 x 4 x 4 grid.
                grid = range(4)
                assert any(p({"x": a, "y": b, "z": c}) for a in grid for b in grid for c in grid)
        assert 0 < zeros < CASES

    def test_scalar_equality_both_ways(self):
        assert Poly({(): 3}) == 3 and 3 == Poly({(): 3})
        assert Poly({(): F(1, 2)}) == F(1, 2) and F(1, 2) == Poly({(): F(1, 2)})
        assert Poly.variable("x") != 1 and not (Poly.variable("x") == 0)

    def test_cancellation_leaves_no_zero_terms(self):
        x, y = Poly.variable("x"), Poly.variable("y")
        assert ((x + y) * (x - y) - x * x + y * y).terms == {}
        assert (x * F(1, 2) + x * F(1, 2)) == x

    @pytest.mark.parametrize("other", [1.5, True, "x", None])
    def test_non_ring_operands_are_refused(self, other):
        x = Poly.variable("x")
        assert x != other
        for operation in (lambda: x + other, lambda: other - x, lambda: x * other):
            with pytest.raises(TypeError):
                operation()
