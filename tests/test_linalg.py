import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rspinrel.linalg import primitive_int_vector, rref
from rspinrel.oracles import RationalMatrix, determinant, rank_and_solve
from rspinrel.rpoly import RPoly

entries = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def square_matrices(max_size=5):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda k: st.lists(
            st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k
        )
    )


def rect_matrices(max_size=5):
    return st.tuples(
        st.integers(min_value=1, max_value=max_size),
        st.integers(min_value=1, max_value=max_size),
    ).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def fraction_rref(grid):
    """Oracle for rref: plain Gauss-Jordan over Fraction, each pivot scaled
    to 1.  Returns the nonzero rows and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in grid]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


@st.composite
def deficient_matrices(draw, max_size=6):
    """Rectangular Fraction matrices whose rows are drawn from a few base
    rows: copies, zero rows, multiples and combinations, so that the rank is
    often below both dimensions."""
    width = draw(st.integers(min_value=1, max_value=max_size))
    base = draw(st.lists(
        st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=3
    ))
    scalars = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    kinds = st.sampled_from(("base", "zero", "repeat", "combination"))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_size + 2))):
        kind = draw(kinds)
        if kind == "zero":
            rows.append([Fraction(0)] * width)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            coeffs = draw(st.lists(scalars, min_size=len(base), max_size=len(base)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(width)])
        else:
            rows.append(list(draw(st.sampled_from(base))))
    return rows


def naive_gauss_det(grid):
    """Pivot-product oracle: plain rational elimination."""
    m = [list(map(Fraction, row)) for row in grid]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


class TestRankAndSolve:
    def test_identity(self):
        rank, nullspace = rank_and_solve([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank == 3 and nullspace == []

    def test_zero_matrix(self):
        rank, nullspace = rank_and_solve([[0, 0, 0, 0], [0, 0, 0, 0]])
        assert rank == 0 and len(nullspace) == 4

    def test_golden_relation_matrix(self):
        # The three relations on the two-marked genus-1 space, over
        # (psi_1, psi_2, kappa_1, delta_sep, delta_irr): rank 3.
        rows = [
            [1, -1, 0, 0, 0],
            [2, 0, -1, -1, 0],
            [12, 0, 0, -12, -1],
        ]
        rank, _ = rank_and_solve(rows)
        assert rank == 3

    @given(rect_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_and_rank_nullity(self, grid):
        rank, nullspace = rank_and_solve(grid)
        assert rank + len(nullspace) == len(grid[0])
        for v in nullspace:
            for row in grid:
                assert sum(a * x for a, x in zip(row, v)) == 0

    def test_rejects_polynomial_entries(self):
        with pytest.raises(ValueError):
            rank_and_solve([[RPoly((1, 1))]])


class TestDeterminant:
    def test_identity(self):
        assert determinant([[1, 0], [0, 1]]) == 1

    def test_repeated_row(self):
        assert determinant([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0

    def test_non_square(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_pivot_product(self, grid):
        assert determinant(grid) == naive_gauss_det(grid)

    def test_polynomial_determinant(self):
        r = RPoly.variable()
        grid = [[r, RPoly((1,))], [RPoly((1,)), r]]
        assert determinant(grid) == r * r - 1

    @given(square_matrices(max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_polynomial_path_agrees_on_constants(self, grid):
        poly_grid = [[RPoly((x,)) for x in row] for row in grid]
        got = determinant(poly_grid)
        expected = determinant(grid)
        assert got == RPoly((expected,))


class TestRref:
    def test_pivots(self):
        rows, pivots = rref([[0, 2, 4], [0, 1, 2], [1, 0, 1]])
        assert pivots == [0, 1]
        assert rows == [(1, 0, 1), (0, 1, 2)]

    def test_primitive_rows_with_positive_pivot(self):
        rows, pivots = rref([[Fraction(-2, 3), 0, Fraction(4, 9)], [0, 0, 0]])
        assert pivots == [0] and rows == [(3, 0, -2)]

    def test_empty_and_zero(self):
        assert rref([]) == ([], [])
        assert rref([[0, 0], [0, 0]]) == ([], [])

    def test_rejects_polynomial_and_ragged(self):
        with pytest.raises(ValueError):
            rref([[RPoly((1, 1))]])
        with pytest.raises(ValueError):
            rref([[1, 2], [3]])

    @given(st.one_of(rect_matrices(max_size=6), deficient_matrices()))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, grid):
        rows, pivots = rref(grid)
        oracle_rows, oracle_pivots = fraction_rref(grid)
        assert pivots == oracle_pivots
        assert rows == [primitive_int_vector(row) for row in oracle_rows]
        assert all(row[col] > 0 for row, col in zip(rows, pivots))
        assert rref(RationalMatrix(grid).entries) == (rows, pivots)

    @given(deficient_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_of_deficient_matrices(self, grid):
        rank, nullspace = rank_and_solve(grid)
        assert rank == len(fraction_rref(grid)[1])
        assert rank + len(nullspace) == len(grid[0])
        for v in nullspace:
            for row in grid:
                assert sum(a * x for a, x in zip(row, v)) == 0


class TestPrimitiveIntVector:
    def test_clears_denominators_and_sign(self):
        assert primitive_int_vector([0, Fraction(-1, 2), Fraction(3, 4)]) == (0, 2, -3)
        assert primitive_int_vector([Fraction(0), 0]) == (0, 0)
        assert primitive_int_vector([]) == ()

    @given(st.lists(entries, min_size=1, max_size=6),
           st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7))
    @settings(max_examples=80, deadline=None)
    def test_primitive_positive_multiple(self, row, scale):
        vec = primitive_int_vector(row)
        assert primitive_int_vector([scale * x for x in row]) == vec
        if any(row):
            lead = next(j for j, x in enumerate(row) if x)
            assert vec[lead] > 0 and math.gcd(*vec) == 1
            assert all(v * row[lead] == x * vec[lead] for v, x in zip(vec, row))
        else:
            assert vec == (0,) * len(row)

    def test_rejects_inexact_entries(self):
        with pytest.raises(ValueError):
            primitive_int_vector([0.5, 1])
