"""Constructors for the six classified foliation families and their closed-form predicates.

Each family fixes a basis (A, B, C[, R, S, T | , T], X, Y) with the vertical
subalgebra spanned by everything except the horizontal pair {X, Y}.  The two
simple 3-dimensional block types, su2 and sl2r, differ in one bracket sign,
[B,C] = 2*sigma*A with sigma = +1 resp. -1 (see _BLOCKS); sigma also fixes the
sign of the [A, X]-type mixed rows, the theta closed form, the
totally-geodesic conditions and the [T, X]-type rows of sl2r x so2.  The theta
coefficients of [X, Y] are determined by the Jacobi identity.

For the families with a central circle factor T, the Jacobi identity imposes
three relations beyond the conformality constraint (x1 = y2 and
eps_X x2 + eps_Y y1 = 0):

    t14*x2 + rho*y2 - t24*x1 = 0
    t14*y2 - (rho + t24)*y1 = 0
    (x1 + y2)*theta4 = rho*t14

Constructors reject parameter sets violating any of these, naming the relation, so
every table build_family returns is a Lie algebra (tests/test_family_jacobi_certificate.py).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import (
    HALF,
    ZERO,
    ConstraintError,
    FoliationSetup,
    MetricFrame,
    ScalarLike,
    StructureError,
    StructureTensor,
    as_scalar,
    format_scalar,
)

TWO = Fraction(2)
MINUS_TWO = -TWO


class FamilyId(str, Enum):
    SU2 = "su2"
    SL2R = "sl2r"
    SU2xSU2 = "su2xsu2"
    SU2xSL2R = "su2xsl2r"
    SU2xSO2 = "su2xso2"
    SL2RxSO2 = "sl2rxso2"

    @classmethod
    def parse(cls, text: str) -> "FamilyId":
        try:
            return cls(text.lower())
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise StructureError(f"unknown family {reprlib.repr(text)}; known families: {known}") from None


# Per family: the sign sigma of each simple block, [B, C] = 2*sigma*A with
# +1 for su2 and -1 for sl2r, and whether a central circle factor T follows.
# Block k spans indices 3k..3k+2, then come T and the horizontal pair X, Y.
# Every other sign and name of a family is derived from this table.
_BLOCKS = {
    FamilyId.SU2: ((1,), False),
    FamilyId.SL2R: ((-1,), False),
    FamilyId.SU2xSU2: ((1, 1), False),
    FamilyId.SU2xSL2R: ((1, -1), False),
    FamilyId.SU2xSO2: ((1,), True),
    FamilyId.SL2RxSO2: ((-1,), True),
}

_BASIS_NAMES = {
    family: ("A", "B", "C") + ("R", "S", "T") * (len(signs) - 1) + ("T",) * circle + ("X", "Y")
    for family, (signs, circle) in _BLOCKS.items()
}

# The families with a central circle factor; the others have a semisimple vertical subalgebra.
CIRCLE_FAMILIES = frozenset(family for family, (_, circle) in _BLOCKS.items() if circle)
# The semisimple families whose blocks are all su2: their vertical Killing form is negative definite.
COMPACT_FAMILIES = frozenset(
    family for family, (signs, circle) in _BLOCKS.items() if not circle and min(signs) > 0
)

_BLOCK1_PARAMS = ("b11", "b21", "c11", "c12", "c21", "c22")
_BLOCK2_PARAMS = ("s14", "s24", "t14", "t15", "t24", "t25")
_SO2_PARAMS = ("x1", "x2", "y1", "y2", "t14", "t24", "theta4")


def family_dimension(family: FamilyId) -> int:
    return len(_BASIS_NAMES[family])


def family_basis_names(family: FamilyId) -> tuple[str, ...]:
    return _BASIS_NAMES[family]


def family_parameter_names(family: FamilyId) -> tuple[str, ...]:
    blocks, has_so2 = _BLOCKS[family]
    names = _BLOCK1_PARAMS + (_BLOCK2_PARAMS if len(blocks) == 2 else ())
    names = names + ("rho",)
    if has_so2:
        names = names + _SO2_PARAMS
    return names


@dataclass(frozen=True)
class FamilySpec:
    """A family id, its free coefficients, and a signature for the full algebra."""

    family: FamilyId
    params: dict[str, Fraction]
    signature: MetricFrame

    def __post_init__(self):
        expected = family_parameter_names(self.family)
        if tuple(self.params.keys()) != expected:
            extra = set(self.params) - set(expected)
            missing = set(expected) - set(self.params)
            raise StructureError(
                f"{self.family.value} parameters must be exactly {expected} in order"
                + (f"; unexpected {sorted(extra)}" if extra else "")
                + (f"; missing {sorted(missing)}" if missing else "")
            )
        if any(not isinstance(v, Fraction) for v in self.params.values()):
            raise StructureError("parameters must be exact rationals; use FamilySpec.create")
        if self.signature.dim != family_dimension(self.family):
            raise StructureError(
                f"signature has dim {self.signature.dim}, "
                f"{self.family.value} needs {family_dimension(self.family)}"
            )

    @classmethod
    def create(
        cls,
        family: FamilyId | str,
        params: Mapping[str, ScalarLike] | None = None,
        signature: Sequence[int] | None = None,
    ) -> "FamilySpec":
        """Normalize: unknown names rejected, missing names default to zero.

        The signature is a sequence of +-1 causal characters, all +1 if None.
        For the circle-factor families theta4 defaults to its determined value
        rho*t14/(x1 + y2) when x1 + y2 != 0, and to 0 (the free direction)
        otherwise.
        """
        fam = FamilyId.parse(family) if isinstance(family, str) else family
        frame = MetricFrame((1,) * family_dimension(fam) if signature is None else tuple(signature))
        given = dict(params or {})
        expected = family_parameter_names(fam)
        unknown = set(given) - set(expected)
        if unknown:
            raise StructureError(
                f"unknown parameter(s) {reprlib.repr(sorted(unknown))} for family {fam.value}; "
                f"expected a subset of {expected}"
            )
        values = {
            name: as_scalar(given[name]) if name in given else ZERO
            for name in expected
        }
        if "theta4" in expected and "theta4" not in given:
            span = values["x1"] + values["y2"]
            if span:
                values["theta4"] = values["rho"] * values["t14"] / span
        return cls(fam, values, frame)


def _block_params(params: Mapping[str, Fraction], block_index: int) -> tuple[Fraction, ...]:
    names = _BLOCK1_PARAMS if block_index == 0 else _BLOCK2_PARAMS
    b_x, b_y, c1_x, c2_x, c1_y, c2_y = (params[n] for n in names)
    return b_x, c1_x, c2_x, b_y, c1_y, c2_y


def _signed(sign: int, value):
    """sign*value for sign = +-1, by negation; a zero is returned as it is (negating one builds a Fraction)."""
    return value if sign > 0 or not value else -value


def _sum_of_products(terms):
    """The sum of sign*a*b over the (sign, a, b) terms, each sign +-1; ZERO if every product has a zero factor.

    A product with a zero factor is skipped and a sign is applied by
    negation, so no Fraction operation has a zero operand or a sign as one.
    Only +, -, * and truthiness are used, so the entries may come from any
    ring that has them.
    """
    total = ZERO
    for sign, a, b in terms:
        if a and b:
            product = a * b
            if not total:
                total = product if sign > 0 else -product
            else:
                total = total + product if sign > 0 else total - product
    return total


def _half_sum(terms):
    """_sum_of_products(terms)/2, ZERO when that sum is zero."""
    total = _sum_of_products(terms)
    return total * HALF if total else ZERO


def closed_form_theta(spec: FamilySpec) -> tuple[Fraction, ...]:
    """The [X, Y] vertical coefficients: 3 per simple block, plus theta4 for circle factors.

    For a block of sign sigma (see _BLOCKS):
    theta_A = (-rho*c2x + sigma*(bx*c1y - by*c1x))/2,
    theta_B = sigma*(rho*c1x + bx*c2y - by*c2x)/2,
    theta_C = sigma*(-rho*bx + c1x*c2y - c1y*c2x)/2.
    """
    signs, has_so2 = _BLOCKS[spec.family]
    rho = spec.params["rho"]
    theta: list[Fraction] = []
    for idx, sigma in enumerate(signs):
        bx, c1x, c2x, by, c1y, c2y = _block_params(spec.params, idx)
        theta.append(_half_sum(((sigma, bx, c1y), (-sigma, by, c1x), (-1, rho, c2x))))
        theta.append(_half_sum(((sigma, rho, c1x), (sigma, bx, c2y), (-sigma, by, c2x))))
        theta.append(_half_sum(((sigma, c1x, c2y), (-sigma, c1y, c2x), (-sigma, rho, bx))))
    if has_so2:
        theta.append(spec.params["theta4"])
    return tuple(theta)


def _difference(a, b):
    """a - b for a != b, without a zero operand."""
    return a - b if a and b else a or -b


def so2_failed_relation(
    params: Mapping[str, Fraction | int], eps_x: int, eps_y: int
) -> tuple[str, Fraction | int] | None:
    """The first circle-family relation the parameters violate, as (relation, residual).

    Checks the conformality constraint, then the three residual Jacobi
    relations (module docstring), in that order; None when all hold.  A
    relation is evaluated only if every earlier one holds.

    Values may be ints: each relation is homogeneous of degree 1 or 2 in the
    parameters (theta4 counting as degree 1), so multiplying all of them by one
    nonzero number, such as a common denominator, keeps each relation true or
    false; the residual is then in their units.  The circle sampler tests its
    draws that way.
    """
    x1, x2, y1, y2 = params["x1"], params["x2"], params["y1"], params["y2"]
    if x1 != y2:
        return "x1 = y2", x1 - y2
    # eps = +-1, so sign flips stand in for the products eps_X*x2 and -eps_Y*y1.
    lhs, rhs = (x2 if eps_x > 0 else -x2), (-y1 if eps_y > 0 else y1)
    if lhs != rhs:
        return "eps_X*x2 + eps_Y*y1 = 0", lhs - rhs
    t14, t24, rho, theta4 = params["t14"], params["t24"], params["rho"], params["theta4"]
    # Accepted draws lie on degenerate strata, where most of these factors are
    # zero.  A product with a zero factor is not formed, 0 standing for it, nor
    # a sum or difference with a zero term: each would build a Fraction.
    first, second = t14 * x2 if t14 and x2 else 0, rho * y2 if rho and y2 else 0
    lhs = first + second if first and second else first or second
    rhs = t24 * x1 if t24 and x1 else 0
    if lhs != rhs:
        return "t14*x2 + rho*y2 - t24*x1 = 0", _difference(lhs, rhs)
    span = rho + t24 if rho and t24 else rho or t24
    lhs = t14 * y2 if t14 and y2 else 0
    rhs = span * y1 if span and y1 else 0
    if lhs != rhs:
        return "t14*y2 - (rho + t24)*y1 = 0", _difference(lhs, rhs)
    span = x1 + y2 if x1 and y2 else x1 or y2
    lhs = span * theta4 if span and theta4 else 0
    rhs = rho * t14 if rho and t14 else 0
    if lhs != rhs:
        return "(x1 + y2)*theta4 = rho*t14", _difference(lhs, rhs)
    return None


def _row(dim: int, entries) -> list[Fraction]:
    """A bracket row of length dim with the given (index, value) entries."""
    out = [ZERO] * dim
    for idx, val in entries:
        out[idx] = val
    return out


def _simple_block_rows(
    rows: dict, dim: int, sigma: int, offset: int, h_index: int, beta, gamma1, gamma2
) -> None:
    """Mixed rows [A,h], [B,h], [C,h] of one simple block; the [A,h] row carries -sigma."""
    a, b, c = offset, offset + 1, offset + 2
    rows[(a, h_index)] = _row(dim, ((b, _signed(-sigma, beta)), (c, _signed(-sigma, gamma1))))
    rows[(b, h_index)] = _row(dim, ((a, beta), (c, _signed(-1, gamma2))))
    rows[(c, h_index)] = _row(dim, ((a, gamma1), (b, gamma2)))


def _base_block_rows(rows: dict, dim: int, sigma: int, offset: int) -> None:
    a, b, c = offset, offset + 1, offset + 2
    rows[(a, b)] = _row(dim, ((c, TWO),))
    rows[(a, c)] = _row(dim, ((b, MINUS_TWO),))  # [C, A] = 2B
    rows[(b, c)] = _row(dim, ((a, TWO if sigma > 0 else MINUS_TWO),))


def _family_rows(family: FamilyId, params: Mapping[str, Fraction], theta: Sequence[Fraction]) -> dict:
    """The bracket rows {(i, j): row}, i < j, of a member whose [X, Y] vertical coefficients are theta.

    The B and C components of the [T, X] / [T, Y] rows are scaled by the block
    sign sigma, the pattern the Jacobi identity selects (the unscaled one
    fails it for sl2r x so2).  Only +, -, * and truthiness touch the
    parameters, so they may come from any ring that has them.
    """
    signs, has_so2 = _BLOCKS[family]
    dim = family_dimension(family)
    rows: dict = {}
    x_index, y_index = dim - 2, dim - 1
    for idx, sigma in enumerate(signs):
        offset = 3 * idx
        _base_block_rows(rows, dim, sigma, offset)
        bx, c1x, c2x, by, c1y, c2y = _block_params(params, idx)
        _simple_block_rows(rows, dim, sigma, offset, x_index, bx, c1x, c2x)
        _simple_block_rows(rows, dim, sigma, offset, y_index, by, c1y, c2y)
    rows[(x_index, y_index)] = _row(dim, [*enumerate(theta), (x_index, params["rho"])])
    if has_so2:
        t_index, sigma = 3, signs[0]
        for h_index, (u, v, t_diag) in (
            (x_index, (params["x1"], params["y1"], params["t14"])),
            (y_index, (params["x2"], params["y2"], params["t24"])),
        ):
            pa = _half_sum(((-1, u, params["c12"]), (-1, v, params["c22"])))
            qb = _half_sum(((sigma, u, params["c11"]), (sigma, v, params["c21"])))
            rc = _half_sum(((-sigma, u, params["b11"]), (-sigma, v, params["b21"])))
            rows[(t_index, h_index)] = _row(
                dim, ((0, pa), (1, qb), (2, rc), (t_index, t_diag), (x_index, u), (y_index, v))
            )
    return rows


def assemble_family_table(spec: FamilySpec) -> StructureTensor:
    """The table of _family_rows with the closed-form theta, without any Jacobi or constraint validation."""
    rows = _family_rows(spec.family, spec.params, closed_form_theta(spec))
    return StructureTensor.from_rows(family_dimension(spec.family), rows)


def build_family(spec: FamilySpec) -> FoliationSetup:
    """Build the foliation setup for a family spec; the result satisfies Jacobi.

    Circle-factor families are validated against the conformality constraint
    (x1 = y2, eps_X x2 + eps_Y y1 = 0) and the three residual Jacobi relations;
    violations raise ConstraintError carrying the failed relation, its
    residual echoed shortened (reprlib).  The table is assemble_family_table's, not
    Jacobi-checked: tests/test_family_jacobi_certificate.py proves it a Lie algebra.
    """
    if spec.family in CIRCLE_FAMILIES:
        if failed := so2_failed_relation(spec.params, *spec.signature.epsilon[-2:]):
            relation, residual = failed
            raise ConstraintError(
                relation,
                f"circle-family relation {relation} fails (residual {reprlib.repr(format_scalar(residual))})",
            )
    dim = family_dimension(spec.family)
    return FoliationSetup(assemble_family_table(spec), spec.signature, tuple(range(dim - 2)), (dim - 2, dim - 1))


def closed_form_minimal(spec: FamilySpec) -> bool:
    """Minimality criterion: unconditional for semisimple verticals, t14 = t24 = 0 otherwise."""
    if spec.family not in CIRCLE_FAMILIES:
        return True
    return spec.params["t14"] == 0 and spec.params["t24"] == 0


def _tg_block_rows(family: FamilyId) -> tuple[tuple[str, int, int, int, str], ...]:
    """(label, i, s, j, parameter) per block condition (eps_i + s*eps_j) * parameter."""
    signs, _ = _BLOCKS[family]
    names = _BASIS_NAMES[family]
    rows = []
    for idx, sigma in enumerate(signs):
        a, b, c = 3 * idx, 3 * idx + 1, 3 * idx + 2
        bx, by, c1x, c2x, c1y, c2y = _BLOCK1_PARAMS if idx == 0 else _BLOCK2_PARAMS
        # su2-type rows pair with differences of causal characters, the sl2r-type
        # [A,.] rows flip to sums; the gamma2 pair keeps the difference either way.
        s = -sigma
        for i, sign, j, param in (
            (b, s, a, bx), (b, s, a, by), (c, s, a, c1x), (c, s, a, c1y), (c, -1, b, c2x), (c, -1, b, c2y)
        ):
            op = "-" if sign < 0 else "+"
            rows.append((f"(eps_{names[i]} {op} eps_{names[j]}) * {param}", i, sign, j, param))
    return tuple(rows)


# Circle-factor conditions (u*lhs + v*rhs), after t14 and t24 themselves.
_TG_CIRCLE_ROWS = tuple(
    (f"{u}*{lhs} + {v}*{rhs}", u, lhs, v, rhs)
    for u, v in (("x1", "y1"), ("x2", "y2"))
    for lhs, rhs in (("c12", "c22"), ("c11", "c21"), ("b11", "b21"))
)

# The block rows of the totally-geodesic condition table, per family.
_TG_BLOCK_ROWS = {family: _tg_block_rows(family) for family in FamilyId}


def _tg_terms(
    family: FamilyId, params: Mapping[str, Fraction]
) -> Iterator[tuple[str, tuple[int, int, int] | None, Fraction]]:
    """(label, eps factor, parameter factor) per totally-geodesic condition, lazily.

    The value is (eps_i + s*eps_j) * parameter factor for eps factor (i, s, j),
    and the parameter factor itself for None (the circle conditions).
    """
    for label, i, s, j, param in _TG_BLOCK_ROWS[family]:
        yield label, (i, s, j), params[param]
    if family in CIRCLE_FAMILIES:
        yield "t14", None, params["t14"]
        yield "t24", None, params["t24"]
        for label, u, lhs, v, rhs in _TG_CIRCLE_ROWS:
            yield label, None, _sum_of_products(((1, params[u], params[lhs]), (1, params[v], params[rhs])))


def _eps_scale(factor: tuple[int, int, int] | None, eps: Sequence[int]) -> int:
    return 1 if factor is None else eps[factor[0]] + factor[1] * eps[factor[2]]


def _first_failures(conditions: Iterable[tuple], minus: Sequence[int], within: int):
    """Yield (label, bits) per one of nonzero_tg_conditions, the signatures of within where it is the first to fail.

    minus[k] is the mask of the signatures with eps_k = -1, so eps_i != eps_j
    exactly on minus[i] ^ minus[j].  The eps factor eps_i + s*eps_j of a
    condition (see _eps_scale) is nonzero, and the condition fails, exactly
    where (eps_i = eps_j) == (s > 0); a circle condition (None) has no eps
    factor and fails everywhere.  The bits of within that no condition takes
    are the signatures where every condition holds.
    """
    for label, factor in conditions:
        if factor is None:
            bits = within
        else:
            i, s, j = factor
            opposite = minus[i] ^ minus[j]
            bits = within & (~opposite if s > 0 else opposite)
        if bits:
            yield label, bits
            within ^= bits
            if not within:
                return


def _conditions_hold(conditions: Iterable[tuple], minus: Sequence[int], within: int) -> int:
    """The signatures of the mask within where every one of nonzero_tg_conditions holds, as a mask."""
    for failure in _first_failures(conditions, minus, within):
        within ^= failure[1]
    return within


def nonzero_tg_conditions(family: FamilyId, params: Mapping[str, Fraction]) -> Iterator[tuple]:
    """(label, eps factor) of the conditions with a nonzero parameter factor, lazily.

    They depend on the parameters only, so a sweep finds them once per draw.
    """
    return ((label, factor) for label, factor, coeff in _tg_terms(family, params) if coeff)


def first_violated_condition(conditions: Iterable[tuple], eps: Sequence[int]) -> str | None:
    """Label of the first of nonzero_tg_conditions that fails for causal characters eps, else None."""
    return next((label for label, factor in conditions if _eps_scale(factor, eps)), None)


def totally_geodesic_conditions(spec: FamilySpec) -> list[tuple[str, Fraction]]:
    """The family's exact condition list: totally geodesic iff every value is zero."""
    eps = spec.signature.epsilon
    return [
        (label, scale * coeff if (scale := _eps_scale(factor, eps)) and coeff else ZERO)
        for label, factor, coeff in _tg_terms(spec.family, spec.params)
    ]


def closed_form_totally_geodesic(spec: FamilySpec) -> bool:
    """True iff every totally_geodesic_conditions value vanishes (stops at the first that does not)."""
    conditions = nonzero_tg_conditions(spec.family, spec.params)
    return first_violated_condition(conditions, spec.signature.epsilon) is None


_RAW_SO2_COEFFS = (
    "a11", "a12", "a13", "a14", "a21", "a22", "a23", "a24",
    "b11", "b12", "b13", "b14", "b21", "b22", "b23", "b24",
    "c11", "c12", "c13", "c14", "c21", "c22", "c23", "c24",
    "t11", "t12", "t13", "t14", "t21", "t22", "t23", "t24",
    "x1", "x2", "y1", "y2", "rho", "theta1", "theta2", "theta3", "theta4",
)


def _raw_so2_rows(family: FamilyId, coeffs: Mapping[str, Fraction]) -> dict:
    """The raw circle ansatz's bracket rows, given every coefficient of _RAW_SO2_COEFFS from any ring."""
    dim = 6
    rows: dict = {}
    _base_block_rows(rows, dim, _BLOCKS[family][0][0], 0)
    for row_idx, prefix in ((0, "a"), (1, "b"), (2, "c"), (3, "t")):
        rows[(row_idx, 4)] = _row(dim, [(k, coeffs[f"{prefix}1{k + 1}"]) for k in range(4)])
        rows[(row_idx, 5)] = _row(dim, [(k, coeffs[f"{prefix}2{k + 1}"]) for k in range(4)])
    rows[(3, 4)][4:] = coeffs["x1"], coeffs["y1"]
    rows[(3, 5)][4:] = coeffs["x2"], coeffs["y2"]
    rows[(4, 5)] = _row(dim, [*enumerate(coeffs[f"theta{k}"] for k in range(1, 5)), (4, coeffs["rho"])])
    return rows


def build_so2_raw_setup(
    family: FamilyId,
    signature: Sequence[int],
    coeffs: Mapping[str, ScalarLike],
) -> FoliationSetup:
    """The unreduced circle-factor ansatz: generic vertical-valued mixed rows, signature six +-1 causal characters.

    No Jacobi constraints are imposed (the result is usually not a Lie
    algebra); this is the table on which the conformality criterion
    x1 = y2, eps_X x2 + eps_Y y1 = 0 is a biconditional.  Classify it with
    require_jacobi=False.
    """
    if family not in CIRCLE_FAMILIES:
        raise StructureError("raw ansatz only exists for the circle-factor families")
    unknown = set(coeffs) - set(_RAW_SO2_COEFFS)
    if unknown:
        raise StructureError(f"unknown raw coefficients {sorted(unknown)}")
    v = {name: as_scalar(coeffs.get(name, ZERO)) for name in _RAW_SO2_COEFFS}
    frame = MetricFrame(tuple(signature))
    if frame.dim != 6:
        raise StructureError("circle-factor families are six dimensional")
    return FoliationSetup(StructureTensor.from_rows(6, _raw_so2_rows(family, v)), frame, (0, 1, 2, 3), (4, 5))
