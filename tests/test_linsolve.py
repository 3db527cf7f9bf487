"""Fraction-free elimination over parameter polynomials."""

from fractions import Fraction

import pytest

from onsaw import linsolve
from onsaw.exactnum import ExactDivisionError, ParamPoly
from onsaw.linsolve import (
    SparseEliminator,
    matrix_rank,
    poly_gcd,
    solve_polynomial,
)

A = ParamPoly.variable("alpha")
ONE = ParamPoly.one()


def c(v):
    return ParamPoly.const(v)


def test_poly_gcd():
    p = (A + 1) * (A - 1)
    q = (A + 1) * (A + 2)
    g = poly_gcd(p, q)
    assert g == A + 1
    assert poly_gcd(p, c(3)) == ONE or poly_gcd(p, c(3)).is_const()


def test_simple_solve():
    # x0 + x1 = [1, 0];  x0 - x1 = [0, 1]
    elim = SparseEliminator()
    elim.add_row({0: ONE, 1: ONE}, {0: ONE})
    elim.add_row({0: ONE, 1: -ONE}, {1: ONE})
    res = elim.solve([0, 1])
    sols, trouble = solve_polynomial(res)
    assert not trouble and not res.inconsistent and not res.free_cols
    assert sols[0] == {0: c(Fraction(1, 2)), 1: c(Fraction(1, 2))}
    assert sols[1] == {0: c(Fraction(1, 2)), 1: c(Fraction(-1, 2))}


def test_parametric_solve():
    # alpha * x0 = alpha^2  => x0 = alpha (polynomial quotient)
    elim = SparseEliminator()
    elim.add_row({0: A}, {0: A * A})
    res = elim.solve([0])
    sols, trouble = solve_polynomial(res)
    assert not trouble
    assert sols[0] == {0: A}


def test_redundant_rows_collapse():
    elim = SparseEliminator()
    elim.add_row({0: ONE, 1: A}, {0: A})
    elim.add_row({0: c(2), 1: A * 2}, {0: A * 2})  # scalar multiple
    assert elim.rank() == 1
    assert not elim.inconsistent


def test_inconsistent_detected():
    elim = SparseEliminator()
    elim.add_row({0: ONE}, {0: ONE})
    elim.add_row({0: ONE}, {0: c(2)})
    assert elim.inconsistent


def test_free_columns_reported():
    elim = SparseEliminator()
    elim.add_row({0: ONE, 1: ONE}, {0: ONE})
    res = elim.solve([0, 1, 2])
    assert 2 in res.free_cols
    # column 0's pivot row touches the never-pinned column 1
    assert 0 in res.entangled or 1 in res.free_cols


def test_matrix_rank():
    rows = [
        {0: ONE, 1: A},
        {0: A, 1: A * A},      # alpha * row0
        {1: ONE, 2: ONE},
    ]
    assert matrix_rank(rows) == 2
    assert matrix_rank([{0: ONE}, {1: ONE}, {2: ONE}]) == 3


def test_fill_in_back_substitution():
    # x0 + x1 = 0; x1 + x2 = 0; x2 = alpha  => x1 = -alpha, x0 = alpha
    elim = SparseEliminator()
    elim.add_row({0: ONE, 1: ONE}, {})
    elim.add_row({1: ONE, 2: ONE}, {})
    elim.add_row({2: ONE}, {0: A})
    res = elim.solve([0, 1, 2])
    sols, trouble = solve_polynomial(res)
    assert not trouble
    assert sols[2] == {0: A}
    assert sols[1] == {0: -A}
    assert sols[0] == {0: A}


def test_inexact_gcd_is_not_swallowed(monkeypatch):
    # a gcd that does not divide cannot happen; if it does, it must raise
    elim = SparseEliminator()
    elim.add_row({0: A}, {0: A + 1})
    monkeypatch.setattr(linsolve, "poly_gcd", lambda a, b: A + 7)
    with pytest.raises(ExactDivisionError):  # row content reduction
        SparseEliminator().add_row({0: A + 1, 1: A}, {})
    with pytest.raises(ExactDivisionError):  # reduction of a solution fraction
        elim.solve([0])
