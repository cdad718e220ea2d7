"""Exact structure-constant algebra: bracket tables, Jacobi residuals, Killing forms.

Everything here is exact rational arithmetic (`fractions.Fraction`).  The
classification predicates downstream are algebraic identities, so no floats
enter the core: :func:`as_scalar`, the one parser of exact scalars, takes
Fractions, ints and "p/q" strings and rejects floats and bools.
"""

from __future__ import annotations

import decimal
import re
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

ScalarLike = Union[Fraction, int, str]

ZERO = Fraction(0)
HALF = Fraction(1, 2)

# The accepted string forms: an integer or "p/q", ASCII digits only.
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class StructureError(ValueError):
    """Invalid algebraic input: bad shapes, antisymmetry or partition violations."""


class ConstraintError(StructureError):
    """A family constraint is violated; `relation` names the failed relation."""

    def __init__(self, relation: str, message: str):
        super().__init__(message)
        self.relation = relation


class JacobiError(ConstraintError):
    """The table fails the Jacobi identity; `report` holds the residual, the message its max shortened."""

    def __init__(self, report: JacobiReport):
        super().__init__(
            "jacobi residual = 0",
            f"bracket table is not a Lie algebra: max Jacobi residual "
            f"{reprlib.repr(format_scalar(report.max_abs))} at triple {report.worst_triple}",
        )
        self.report = report


def as_scalar(value: ScalarLike) -> Fraction:
    """Convert a value to an exact rational.

    Strings must be integer or "p/q" literals.  Floats, bools and anything
    else raise StructureError, whose message echoes the value shortened
    (reprlib), so a huge input gives a short message.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise StructureError(f"not a scalar: {reprlib.repr(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_LITERAL.fullmatch(text):
            raise StructureError(f"not an exact rational literal: {reprlib.repr(value)}")
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise StructureError(f"not an exact rational literal: {reprlib.repr(value)}") from exc
        except ValueError as exc:  # more digits than int() converts
            raise StructureError(
                f"not an exact rational literal: a numeral of more than {sys.get_int_max_str_digits()} digits"
            ) from exc
    if isinstance(value, float):
        raise StructureError(f"floating literal {reprlib.repr(value)} not allowed; use an exact 'p/q' string")
    raise StructureError(f"not a scalar: {reprlib.repr(value)}")


def format_scalar(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (the canonical exact text form), of any length."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        # str() refuses integers of more than sys.get_int_max_str_digits()
        # digits; decimal converts them exactly, without that limit.
        text = str(decimal.Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{decimal.Decimal(value.denominator)}"


def _echo(value: Fraction) -> str:
    """value's exact text for an error message, shortened as reprlib shortens a long string."""
    return reprlib.repr(format_scalar(value))[1:-1]


class _ShortRepr(reprlib.Repr):
    """reprlib's shortening, with ints of any length: repr() refuses an int of
    more than sys.get_int_max_str_digits() digits, and decimal does not."""

    def repr_int(self, x, level):
        text = str(decimal.Decimal(x))
        if len(text) <= self.maxlong:
            return text
        head = (self.maxlong - 3) // 2
        return text[:head] + "..." + text[len(text) - (self.maxlong - 3 - head):]


# An index, epsilon or split tuple for an error message, shortened as reprlib.repr shortens it.
_echo_tuple = _ShortRepr().repr


# The entry types of a row that needs no as_scalar.
_FRACTION_ONLY = {Fraction}


def _as_vector(entries: Iterable[ScalarLike], dim: int, what: str) -> tuple[Fraction, ...]:
    vec = tuple(map(as_scalar, entries))
    if len(vec) != dim:
        raise StructureError(f"{what} has length {len(vec)}, expected {dim}")
    return vec


@dataclass(frozen=True, init=False)
class StructureTensor:
    """Antisymmetric bracket coefficients c[i][j][k]: [e_i, e_j] = sum_k c[i][j][k] e_k.

    Built only by from_rows, from the rows i < j; every entry is a Fraction.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @classmethod
    def from_rows(cls, dim: int, rows: Mapping[tuple[int, int], Sequence[ScalarLike]]) -> "StructureTensor":
        """Build from bracket rows for pairs i < j; the mirror rows are implied.

        A row of Fractions only is taken as it is; any other row goes through
        as_scalar, entry by entry.
        """
        if type(dim) is not int or dim < 1:
            raise StructureError(f"dim must be a positive int, got {reprlib.repr(dim)}")
        # Every absent pair shares one all-zero row.
        zero_row = (ZERO,) * dim
        table = [[zero_row] * dim for _ in range(dim)]
        for pair, coeffs in rows.items():
            i, j = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
            if not type(i) is type(j) is int:
                raise StructureError(f"bracket pair {_echo_tuple(pair)} is not two int indices")
            if not (0 <= i < dim and 0 <= j < dim):
                raise StructureError(f"bracket pair ({i}, {j}) out of range for dim {dim}")
            if i >= j:
                raise StructureError(f"bracket pair ({i}, {j}) must have i < j")
            vec = tuple(coeffs)
            if len(vec) != dim or set(map(type, vec)) != _FRACTION_ONLY:
                vec = _as_vector(vec, dim, f"bracket [e_{i}, e_{j}]")
            table[i][j] = vec
            # Negating a zero still builds a Fraction; the shared ZERO is found by identity.
            table[j][i] = tuple(v if v is ZERO else -v if v else ZERO for v in vec)
        # The table is dim x dim x dim, all Fraction and antisymmetric by construction.
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "dim", dim)
        object.__setattr__(tensor, "c", tuple(map(tuple, table)))
        return tensor


@dataclass(frozen=True)
class JacobiReport:
    """Jacobi residual of a bracket table: per-triple cyclic sums, their max and the first triple reaching it."""

    max_abs: Fraction
    violations: tuple[tuple[tuple[int, int, int], tuple[Fraction, ...]], ...]
    worst_triple: tuple[int, int, int] | None

    @property
    def is_zero(self) -> bool:
        return self.max_abs == 0


def jacobi_residual(tensor: StructureTensor) -> JacobiReport:
    """Residual R(i,j,k) = [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].

    Zero on every triple iff the table is a Lie algebra.  Only nonzero triples
    (i < j < k) are materialized in the report.  Each cyclic term is a bracket
    [u, e_e] = sum_m u_m [e_m, e_e] of a bracket row u with a basis vector; its
    products u_m c[m][e][t] go straight into the residual.  Most bracket
    components are zero, so Fraction arithmetic runs only where both operands
    are nonzero, and a zero entry takes the other operand as it is.
    """
    dim = tensor.dim
    c = tensor.c
    max_abs = ZERO
    worst = None
    violations = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                res = [ZERO] * dim
                for u, e in ((c[i][j], k), (c[j][k], i), (c[k][i], j)):
                    for m, um in enumerate(u):
                        if um:
                            for t, cmet in enumerate(c[m][e]):
                                if cmet:
                                    term = um * cmet
                                    res[t] = res[t] + term if res[t] else term
                if any(res):
                    violations.append(((i, j, k), tuple(res)))
                    local = max(abs(x) for x in res)
                    if local > max_abs:  # strictly: the first triple wins a tie
                        max_abs, worst = local, (i, j, k)
    return JacobiReport(max_abs, tuple(violations), worst)


def require_lie_algebra(tensor: StructureTensor) -> None:
    """The Jacobi gate: raise JacobiError unless the table is a Lie algebra."""
    report = jacobi_residual(tensor)
    if not report.is_zero:
        raise JacobiError(report)


def _check_subalgebra(tensor: StructureTensor, indices: Sequence[int]) -> tuple[int, ...]:
    """indices as a tuple; StructureError unless they are distinct, in range and span a subalgebra."""
    idx = tuple(indices)
    inside = set(idx)
    if len(inside) != len(idx):
        raise StructureError(f"duplicate indices in {_echo_tuple(idx)}")
    if any(not (0 <= i < tensor.dim) for i in idx):
        raise StructureError(f"indices {_echo_tuple(idx)} out of range for dim {tensor.dim}")
    outside = [k for k in range(tensor.dim) if k not in inside]
    c = tensor.c
    for a in idx:
        for b in idx:
            cab = c[a][b]
            for k in outside:
                if cab[k]:
                    raise StructureError(
                        f"indices {_echo_tuple(idx)} not closed under bracket: "
                        f"[e_{a}, e_{b}] has e_{k} component {_echo(cab[k])}, so they span no subalgebra"
                    )
    return idx


def killing_form(tensor: StructureTensor, indices: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """K(a, b) = trace(ad_a . ad_b) of the subalgebra spanned by `indices`.

    The indices must be closed under the bracket; the trace runs over the
    subalgebra basis only.
    """
    idx = _check_subalgebra(tensor, indices)
    c = tensor.c
    matrix = []
    for a in idx:
        row = []
        for b in idx:
            total = ZERO
            for m in idx:
                # ad_b e_m = [e_b, e_m], then the e_m-component of ad_a of that;
                # as in jacobi_residual, only nonzero operands enter the sum.
                for t, wt in enumerate(c[b][m]):
                    if wt:
                        catm = c[a][t][m]
                        if catm:
                            term = wt * catm
                            total = total + term if total else term
            row.append(total)
        matrix.append(tuple(row))
    return tuple(matrix)


@dataclass(frozen=True)
class MetricFrame:
    """Orthonormal frame of a nondegenerate diagonal metric; epsilon[i] = g(e_i, e_i) = +-1."""

    epsilon: tuple[int, ...]

    def __post_init__(self):
        if not self.epsilon:
            raise StructureError("metric frame must have positive dimension")
        if any(type(e) is not int or e not in (1, -1) for e in self.epsilon):
            raise StructureError(f"causal characters must be +1 or -1, got {_echo_tuple(self.epsilon)}")

    @property
    def dim(self) -> int:
        return len(self.epsilon)


@dataclass(frozen=True)
class FoliationSetup:
    """A bracket table + metric + split into a vertical subalgebra and a horizontal pair."""

    tensor: StructureTensor
    frame: MetricFrame
    vertical: tuple[int, ...]
    horizontal: tuple[int, int]

    def __post_init__(self):
        dim = self.tensor.dim
        if dim < 3:
            raise StructureError(f"setup needs dim >= 3 (codimension two with leaves), got {dim}")
        if self.frame.dim != dim:
            raise StructureError(
                f"metric frame dim {self.frame.dim} does not match tensor dim {dim}"
            )
        if len(self.horizontal) != 2:
            raise StructureError("horizontal part must be exactly two indices")
        combined = tuple(self.vertical) + tuple(self.horizontal)
        if sorted(combined) != list(range(dim)):
            raise StructureError(
                f"vertical {_echo_tuple(self.vertical)} + horizontal {_echo_tuple(self.horizontal)} "
                f"must partition 0..{dim - 1}"
            )
        if not self.vertical:
            raise StructureError("vertical part must be nonempty")
        _check_subalgebra(self.tensor, self.vertical)

    @property
    def dim(self) -> int:
        return self.tensor.dim

