"""Sparse elimination over Q with parametric right-hand sides."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsaw import linsolve
from onsaw.exactnum import ParamPoly, plain
from onsaw.linsolve import SparseEliminator, matrix_rank

A = ParamPoly.variable("alpha")
ONE = 1


def c(v):
    return plain(v)


def test_simple_solve():
    # x0 + x1 = [1, 0];  x0 - x1 = [0, 1]
    elim = SparseEliminator()
    elim.add_row({0: 1, 1: 1}, {0: ONE})
    elim.add_row({0: 1, 1: -1}, {1: ONE})
    res = elim.solve([0, 1])
    assert not res.inconsistent and not res.free_cols and not res.entangled
    assert res.solutions[0] == {0: c(Fraction(1, 2)), 1: c(Fraction(1, 2))}
    assert res.solutions[1] == {0: c(Fraction(1, 2)), 1: c(Fraction(-1, 2))}


def test_parametric_solve():
    # 2 x0 + x1 = alpha^2;  3 x1 = [3 alpha, 1]  => x1 = [alpha, 1/3],
    # x0 = [(alpha^2 - alpha)/2, -1/6]
    elim = SparseEliminator()
    elim.add_row({0: 2, 1: 1}, {0: A * A})
    elim.add_row({1: Fraction(3)}, {0: A * 3, 1: ONE})
    res = elim.solve([0, 1])
    assert res.solutions[1] == {0: A, 1: c(Fraction(1, 3))}
    assert res.solutions[0] == {0: (A * A - A) * Fraction(1, 2), 1: c(Fraction(-1, 6))}


def test_parametric_coefficient_raises():
    # alpha enters only on the right-hand side; in a coefficient it is an
    # error, raised before the row is keyed (a ParamPoly is unhashable)
    with pytest.raises(TypeError, match="^coefficient alpha is not rational$"):
        SparseEliminator().add_row({0: A}, {0: A * A})
    with pytest.raises(TypeError, match="^coefficient 1 is not rational$"):
        SparseEliminator().add_row({0: ParamPoly({(): 1})}, {})


def test_redundant_rows_collapse():
    elim = SparseEliminator()
    elim.add_row({0: 1, 1: Fraction(1, 3)}, {0: A})
    elim.add_row({0: 3, 1: 1}, {0: A * 3})  # three times the first row
    assert elim.rank() == 1
    assert not elim.inconsistent


def test_inconsistent_detected():
    elim = SparseEliminator()
    elim.add_row({0: 1}, {0: A})
    elim.add_row({0: 2}, {0: A * 2 + 1})
    assert elim.rank() == 1
    assert elim.inconsistent == [{0: ONE}]


def test_inconsistent_copies_each_reported():
    elim = SparseEliminator()
    elim.add_row({0: 1}, {0: A})
    elim.add_row({0: 2}, {0: A * 2 + 1})
    elim.add_row({0: 2}, {0: A * 2 + 1})
    assert elim.inconsistent == [{0: ONE}, {0: ONE}]


def test_spanned_row_is_skipped(monkeypatch):
    elim = SparseEliminator()
    elim.add_row({0: 1, 1: 1}, {0: ONE})
    elim.add_row({0: 1, 1: -1}, {1: ONE})
    elim.add_row({0: 2, 1: 2}, {0: c(2)})  # reduces to zero
    calls = []
    monkeypatch.setattr(linsolve, "_sub",
                        lambda *args: calls.append(args))
    # the same rows again, zero coefficients and entries included
    elim.add_row({1: -1, 0: 1, 2: 0}, {1: ONE, 0: 0})
    elim.add_row({0: Fraction(2), 1: 2}, {0: c(2)})
    assert not calls
    assert elim.rank() == 2 and not elim.inconsistent


def test_free_columns_reported():
    elim = SparseEliminator()
    elim.add_row({0: 1, 1: 1}, {0: ONE})
    res = elim.solve([0, 1, 2])
    assert res.free_cols == [1, 2]
    # column 0's pivot row touches the never-pinned column 1
    assert res.entangled == [0]
    assert 0 not in res.solutions


def test_matrix_rank():
    rows = [
        {0: ONE, 1: c(2)},
        {0: c(3), 1: c(6)},      # three times row 0
        {1: ONE, 2: ONE},
    ]
    assert matrix_rank(rows) == 2
    assert matrix_rank([{0: ONE}, {1: ONE}, {2: ONE}]) == 3
    assert matrix_rank([{}, {0: 0}]) == 0


def test_matrix_rank_over_a_parameter():
    # rank over Q(alpha): row 1 is alpha times row 0
    assert matrix_rank([{0: ONE, 1: A}, {0: A, 1: A * A}]) == 1
    # the generic rank 2 drops at alpha = 0 and alpha = 1, not at alpha = 2
    assert matrix_rank([{0: A}, {1: A * A - A}]) == 2
    assert matrix_rank([{0: A, 1: ONE}, {0: ONE, 1: A}]) == 2
    with pytest.raises(ValueError):
        matrix_rank([{0: A, 1: ParamPoly.variable("mu")}])
    with pytest.raises(ValueError):
        matrix_rank([{0: ParamPoly.variable("eps")}])


def test_fill_in_back_substitution():
    # x0 + x1 = 0; x1 + x2 = 0; x2 = alpha  => x1 = -alpha, x0 = alpha
    elim = SparseEliminator()
    elim.add_row({0: 1, 1: 1}, {})
    elim.add_row({1: 1, 2: 1}, {})
    elim.add_row({2: 1}, {0: A})
    res = elim.solve([0, 1, 2])
    assert res.solutions == {2: {0: A}, 1: {0: -A}, 0: {0: A}}
    # x0 + x2 = 0; x0 + x1 = alpha: reducing the second row by the first
    # fills in column 2, which the row did not have
    elim = SparseEliminator()
    elim.add_row({0: 1, 2: 1}, {})
    elim.add_row({0: 1, 1: 1}, {0: A})
    assert elim.pivots[1] == ({2: -1}, {0: A})
    elim.add_row({2: 2}, {0: c(2)})
    res = elim.solve([0, 1, 2])
    assert res.solutions == {2: {0: ONE}, 1: {0: A + 1}, 0: {0: -ONE}}


def _random_invertible(rng: random.Random, n: int) -> list:
    """Rows of P·L·U: L unit lower, U upper with nonzero diagonal, P a
    row permutation; each row a dict column -> Fraction."""
    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    low = [[Fraction(int(i == j)) if j >= i else q() for j in range(n)] for i in range(n)]
    up = [[q() if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        up[i][i] = Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
    mat = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rng.shuffle(mat)
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_random_invertible_systems_solve_exactly(n, seed):
    rng = random.Random(seed)
    rows = _random_invertible(rng, n)
    rhs = [{k: A * rng.randint(-4, 4) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for k in range(2)} for _ in range(n)]
    elim = SparseEliminator()
    for row, b in zip(rows, rhs):
        elim.add_row(row, b)
    # a redundant row: the sum of the first and the last
    elim.add_row({j: rows[0].get(j, 0) + rows[-1].get(j, 0) for j in range(n)},
                 {k: rhs[0][k] + rhs[-1][k] for k in range(2)})
    res = elim.solve(range(n))
    assert elim.rank() == n
    assert not res.inconsistent and not res.free_cols and not res.entangled
    for row, b in zip(rows, rhs):
        for k in range(2):
            lhs = 0
            for j, v in row.items():
                lhs = lhs + res.solutions[j].get(k, 0) * v
            assert lhs == b[k]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_rows_fed_twice_solve_as_once(n, seed):
    rng = random.Random(seed)
    rows = _random_invertible(rng, n)
    rhs = [{k: A * rng.randint(-4, 4) + rng.randint(-5, 5) for k in range(2)}
           for _ in range(n)]
    once, twice = SparseEliminator(), SparseEliminator()
    for row, b in zip(rows, rhs):
        once.add_row(row, b)
    # each row, then the one before it again: 0, 1, 0, 2, 1, ..., n-1
    order = [k for i in range(n) for k in (i, i - 1) if k >= 0] + [n - 1]
    for k in order:
        twice.add_row(rows[k], rhs[k])
    assert twice.pivots == once.pivots
    assert twice.rank() == once.rank() == n
    assert twice.solve(range(n)).solutions == once.solve(range(n)).solutions
