"""The table builders and the frame-free forms use ring operations only.

Every classification statement of the paper is a polynomial identity in the
family parameters, so the code that turns parameters into bracket rows,
theta, the circle relations, the totally-geodesic conditions and the
frame-free forms must run unchanged on entries of any commutative ring.
`Opaque` stands in for such a ring: it wraps a Fraction and offers only +, -,
unary -, *, == and truthiness.  Any other use (division, ordering, hashing,
.numerator) raises, and unwrapped every result must equal the Fraction
pipeline's.
"""

import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from liefol import families
from liefol.algebra import StructureTensor
from liefol.families import (
    CIRCLE_FAMILIES,
    FamilyId,
    FamilySpec,
    build_family,
    build_so2_raw_setup,
    closed_form_theta,
    family_dimension,
    nonzero_tg_conditions,
    so2_failed_relation,
)
from liefol.geometry import FrameFreeHorizontal, FrameFreeVertical
from liefol.verifier import _draw_params

F = Fraction


def _plain(value):
    """The Fraction or int behind an operand, or None for any other type (bools included)."""
    if isinstance(value, Opaque):
        return value._value
    return value if type(value) in (int, Fraction) else None


def _operation(function):
    def method(self, other):
        other = _plain(other)
        return NotImplemented if other is None else Opaque(function(self._value, other))

    return method


class Opaque:
    """A ring element with nothing but +, -, unary -, *, == and truthiness."""

    __slots__ = ("_value",)

    def __init__(self, value: Fraction):
        self._value = value

    __add__ = _operation(operator.add)
    __radd__ = _operation(lambda a, b: b + a)
    __sub__ = _operation(operator.sub)
    __rsub__ = _operation(lambda a, b: b - a)
    __mul__ = _operation(operator.mul)
    __rmul__ = _operation(lambda a, b: b * a)

    def __neg__(self):
        return Opaque(-self._value)

    def __eq__(self, other):
        other = _plain(other)
        return NotImplemented if other is None else self._value == other

    __hash__ = None

    def __bool__(self):
        return bool(self._value)

    def __repr__(self):
        return f"Opaque({self._value})"


def unwrap(value):
    """value with every Opaque replaced by its Fraction, through tuples, named tuples, lists and dicts."""
    if isinstance(value, Opaque):
        return value._value
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return type(value)(*map(unwrap, value))
    if isinstance(value, (tuple, list)):
        return type(value)(map(unwrap, value))
    if isinstance(value, dict):
        return {key: unwrap(item) for key, item in value.items()}
    return value


def dense_setup(dim: int, rows: dict, vertical: tuple, horizontal: tuple) -> SimpleNamespace:
    """An object with tensor.c, dim, vertical and horizontal, c filled from the rows i < j by antisymmetry."""
    zero_row = (F(0),) * dim
    c = [[zero_row] * dim for _ in range(dim)]
    for (i, j), row in rows.items():
        c[i][j] = tuple(row)
        c[j][i] = tuple(-v for v in row)
    return SimpleNamespace(tensor=SimpleNamespace(c=c), dim=dim, vertical=vertical, horizontal=horizontal)


def seeded_specs(family: FamilyId, count: int):
    rng = random.Random(f"ring-generic-{family.value}")
    dim = family_dimension(family)
    for _ in range(count):
        sig = tuple(rng.choice((1, -1)) for _ in range(dim))
        [(params, _)], _ = _draw_params(rng, family, 6, (sig[-2] * sig[-1],))
        yield FamilySpec.create(family, params, sig)


class TestRingGeneric:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_family_pipeline_on_opaque_parameters(self, family):
        dim = family_dimension(family)
        split = (tuple(range(dim - 2)), (dim - 2, dim - 1))
        for spec in seeded_specs(family, 4):
            wrapped = {name: Opaque(value) for name, value in spec.params.items()}
            theta = closed_form_theta(SimpleNamespace(family=family, params=wrapped))
            assert unwrap(theta) == closed_form_theta(spec)
            rows = families._family_rows(family, wrapped, theta)
            assert unwrap(rows) == families._family_rows(family, spec.params, closed_form_theta(spec))
            setup = build_family(spec)
            assert StructureTensor.from_rows(dim, unwrap(rows)) == setup.tensor
            assert unwrap(list(nonzero_tg_conditions(family, wrapped))) == list(
                nonzero_tg_conditions(family, spec.params)
            )
            if family in CIRCLE_FAMILIES:
                # Both eps_X*eps_Y classes, so that some relation fails on the other one.
                for eps_x, eps_y in ((1, 1), (1, -1)):
                    assert unwrap(so2_failed_relation(wrapped, eps_x, eps_y)) == so2_failed_relation(
                        spec.params, eps_x, eps_y
                    )
            duck = dense_setup(dim, rows, *split)
            assert unwrap(FrameFreeVertical.from_setup(duck)) == FrameFreeVertical.from_setup(setup)
            assert unwrap(FrameFreeHorizontal.from_setup(duck)) == FrameFreeHorizontal.from_setup(setup)

    @pytest.mark.parametrize("family", sorted(CIRCLE_FAMILIES))
    def test_raw_ansatz_on_opaque_coefficients(self, family):
        rng = random.Random(f"ring-generic-raw-{family.value}")
        flags = set()
        for _ in range(6):
            coeffs = {name: F(rng.randint(-2, 2), rng.randint(1, 3)) for name in families._RAW_SO2_COEFFS}
            # Half the draws meet x1 = y2 and x2 = +-y1, so both conformality outcomes occur.
            if rng.random() < 0.5:
                coeffs["y2"] = coeffs["x1"]
                coeffs["x2"] = rng.choice((1, -1)) * coeffs["y1"]
            wrapped = {name: Opaque(value) for name, value in coeffs.items()}
            rows = families._raw_so2_rows(family, wrapped)
            assert unwrap(rows) == families._raw_so2_rows(family, coeffs)
            horizontal = FrameFreeHorizontal.from_setup(dense_setup(6, rows, (0, 1, 2, 3), (4, 5)))
            expected = FrameFreeHorizontal.from_setup(build_so2_raw_setup(family, (1,) * 6, coeffs))
            assert unwrap(horizontal) == expected
            for eps_x, eps_y in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                eps = (1, 1, 1, 1, eps_x, eps_y)
                assert horizontal.flags(eps) == expected.flags(eps)
                flags.add(expected.flags(eps))
        assert {conformal for conformal, _, _ in flags} == {True, False}
