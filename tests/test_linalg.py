"""Exact rational Gaussian elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefol.linalg import determinant, is_negative_definite, solve_linear_system

F = Fraction


class TestDeterminant:
    def test_small_cases(self):
        assert determinant([[F(2)]]) == F(2)
        assert determinant([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
        assert determinant([[F(1), F(2)], [F(2), F(4)]]) == F(0)

    def test_rational_entries(self):
        m = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
        assert determinant(m) == F(1, 2) * F(1, 7) - F(1, 3) * F(1, 5)

    def test_row_swap_sign(self):
        m = [[F(0), F(1)], [F(1), F(0)]]
        assert determinant(m) == F(-1)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant([[F(1), F(2)]])


class TestSolve:
    def test_unique(self):
        sol = solve_linear_system([[F(2), F(0)], [F(0), F(3)]], [F(4), F(6)])
        assert sol.status == "unique"
        assert sol.particular == (F(2), F(2))
        assert sol.nullspace == ()

    def test_infeasible(self):
        sol = solve_linear_system([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
        assert sol.status == "infeasible"

    def test_affine_space(self):
        sol = solve_linear_system([[F(1), F(1), F(0)]], [F(3)])
        assert sol.status == "affine"
        assert len(sol.nullspace) == 2
        # Particular plus any null direction still solves the system.
        for direction in sol.nullspace:
            v = [p + d for p, d in zip(sol.particular, direction)]
            assert v[0] + v[1] == F(3)

    def test_overdetermined_consistent(self):
        rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
        sol = solve_linear_system(rows, [F(2), F(5), F(7)])
        assert sol.status == "unique"
        assert sol.particular == (F(2), F(5))

    @given(
        x=st.lists(st.fractions(max_denominator=8), min_size=3, max_size=3),
        rows=st.lists(
            st.lists(st.fractions(max_denominator=5), min_size=3, max_size=3),
            min_size=3,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_constructed_systems_are_solved(self, x, rows):
        rhs = [sum(r[k] * x[k] for k in range(3)) for r in rows]
        sol = solve_linear_system(rows, rhs)
        assert sol.status in ("unique", "affine")
        for r, b in zip(rows, rhs):
            assert sum(r[k] * sol.particular[k] for k in range(3)) == b


class TestNegativeDefinite:
    def test_diagonal(self):
        assert is_negative_definite([[F(-8), F(0)], [F(0), F(-8)]])
        assert not is_negative_definite([[F(-8), F(0)], [F(0), F(8)]])
        assert not is_negative_definite([[F(0)]])

    def test_off_diagonal(self):
        # -[[2, 1], [1, 2]] is negative definite, -[[1, 2], [2, 1]] is not.
        assert is_negative_definite([[F(-2), F(-1)], [F(-1), F(-2)]])
        assert not is_negative_definite([[F(-1), F(-2)], [F(-2), F(-1)]])
