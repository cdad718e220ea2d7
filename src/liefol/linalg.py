"""Exact rational linear algebra: Gaussian elimination, determinants, definiteness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import ZERO

ONE = Fraction(1)


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    m = [list(row) for row in matrix]
    det = ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor:
                for k in range(col, n):
                    m[r][k] -= factor * m[col][k]
    return det


def is_negative_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester's criterion on -M: leading principal minors of -M all positive."""
    n = len(matrix)
    neg = [[-x for x in row] for row in matrix]
    for k in range(1, n + 1):
        minor = [row[:k] for row in neg[:k]]
        if determinant(minor) <= 0:
            return False
    return True


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of A x = b over the rationals."""

    status: str  # "unique" | "affine" | "infeasible"
    particular: tuple[Fraction, ...] | None
    nullspace: tuple[tuple[Fraction, ...], ...]


def solve_linear_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> LinearSolution:
    """Solve A x = b exactly; reports the full affine solution set.

    The particular solution sets all free variables to zero; `nullspace` holds
    one basis vector per free variable.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side row counts differ")
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if any(len(row) != ncols + 1 for row in aug):
        raise ValueError("ragged matrix")

    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][col]
        aug[r] = [x / pivot for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols]:
            return LinearSolution("infeasible", None, ())

    free_cols = [c for c in range(ncols) if c not in pivots]
    particular = [ZERO] * ncols
    for row_idx, col in enumerate(pivots):
        particular[col] = aug[row_idx][ncols]
    basis = []
    for free in free_cols:
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row_idx, col in enumerate(pivots):
            vec[col] = -aug[row_idx][free]
        basis.append(tuple(vec))
    status = "unique" if not free_cols else "affine"
    return LinearSolution(status, tuple(particular), tuple(basis))
