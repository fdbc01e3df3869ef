import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rspinrel.linalg import primitive_int_vector, rref
from rspinrel.matrix_oracles import determinant
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


def polynomial_matrices(max_size=4):
    """Square matrices of RPoly entries of degree <= 2, at least one of them,
    mixed with ints; zeros are common, so pivots often need a row swap."""
    small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    entry = st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.lists(small, max_size=3).map(RPoly),
    )
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda k: st.lists(
            st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k
        )
    ).filter(lambda grid: any(isinstance(x, RPoly) for row in grid for x in row))


def sparse_square_matrices(max_size=6):
    """Square rational matrices from 0x0 up, about two entries in three zero,
    so that pivots often need a row swap and many grids are singular."""
    entry = st.one_of(st.just(Fraction(0)), st.just(0), entries)
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda k: st.lists(
            st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k
        )
    )


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
            determinant([[1, 2], [3]])

    def test_empty_matrix(self):
        assert determinant([]) == 1

    def test_plain_integer_rows(self):
        # Rows are taken as they are: tuples of ints, an exact Fraction back.
        det = determinant(((2, 1), (1, 1)))
        assert det == 1 and isinstance(det, Fraction)
        assert determinant([(0, 1), (1, 0)]) == -1

    @given(square_matrices() | sparse_square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_pivot_product(self, grid):
        det = determinant(grid)
        assert det == naive_gauss_det(grid) and type(det) is Fraction

    # Rational rows run in integers, each scaled by the lcm of its
    # denominators; the result is still an exact Fraction.
    @pytest.mark.parametrize("grid", [
        [],
        [[Fraction(-3, 7)]],
        [[0]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]],
        [[0, Fraction(2, 3), 0], [0, 0, Fraction(5, 4)], [Fraction(-1, 6), 0, 0]],
        [[0, 0, 1], [0, Fraction(1, 2), 3], [Fraction(2, 9), 7, 1]],
        [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, Fraction(3, 2), 0]],
        [[Fraction(1, 2), 1, 0], [Fraction(1, 3), Fraction(2, 3), 0], [0, 0, Fraction(1, 5)]],
        [[0, Fraction(1, 2), 1], [0, Fraction(1, 3), 4], [0, 5, Fraction(7, 8)]],
        [[2, 3, 5, 7], [11, 13, 17, 19], [23, 29, 31, 37], [41, 43, 47, 53]],
        [[Fraction(3, 2), Fraction(5, 3), 1], [Fraction(7, 4), 2, Fraction(9, 5)],
         [Fraction(11, 6), Fraction(13, 7), Fraction(15, 8)]],
    ], ids=["empty", "1x1", "1x1-zero", "2x2", "cyclic-swaps", "anti-triangular",
            "permutation", "singular-block", "zero-column", "primes", "dense-fractions"])
    def test_rational_grid_is_an_exact_fraction(self, grid):
        det = determinant(grid)
        assert det == naive_gauss_det(grid) and type(det) is Fraction

    def test_polynomial_determinant(self):
        r = RPoly.variable()
        grid = [[r, RPoly((1,))], [RPoly((1,)), r]]
        assert determinant(grid) == r * r - 1

    def test_polynomial_pivot_swap_and_singular(self):
        r = RPoly.variable()
        assert determinant([[0, r], [1, 0]]) == -r
        det = determinant([[r, r + 1], [r, r + 1]])
        assert det == 0 and isinstance(det, RPoly)

    @given(polynomial_matrices())
    @settings(max_examples=60, deadline=None)
    def test_polynomial_determinant_matches_evaluations(self, grid):
        # Entries have degree <= 2, so the determinant has degree <= 2n and
        # is fixed by its values at 2n + 1 points.
        det = determinant(grid)
        assert isinstance(det, RPoly) and det.degree <= 2 * len(grid)
        for x in range(-len(grid), len(grid) + 1):
            values = [[p(x) if isinstance(p, RPoly) else p for p in row] for row in grid]
            assert det(x) == naive_gauss_det(values)

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

    def test_golden_relation_matrix(self):
        # The three relations on the two-marked genus-1 space, over
        # (psi_1, psi_2, kappa_1, delta_sep, delta_irr): rank 3.
        rows = [
            [1, -1, 0, 0, 0],
            [2, 0, -1, -1, 0],
            [12, 0, 0, -12, -1],
        ]
        assert rref(rows) == (
            [(12, 0, 0, -12, -1), (0, 12, 0, -12, -1), (0, 0, 6, -6, -1)],
            [0, 1, 2],
        )

    @given(deficient_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_of_deficient_matrices(self, grid):
        # Without the oracle: the nullspace read off the reduced rows, one
        # vector per free column, is killed by every row of the input.
        rows, pivots = rref(grid)
        width = len(grid[0])
        free = [col for col in range(width) if col not in pivots]
        assert len(rows) == len(pivots) and len(pivots) + len(free) == width
        for f in free:
            v = [Fraction(0)] * width
            v[f] = Fraction(1)
            for row, col in zip(rows, pivots):
                v[col] = Fraction(-row[f], row[col])
            for row in grid:
                assert sum(a * x for a, x in zip(row, v)) == 0

    @given(st.one_of(rect_matrices(max_size=6), deficient_matrices()))
    @settings(max_examples=60, deadline=None)
    def test_input_rows_lie_in_the_reduced_span(self, grid):
        # Each reduced row is zero at the other pivots, so a row of the
        # input in their span is its pivot entries times the reduced rows.
        rows, pivots = rref(grid)
        for v in grid:
            combination = [Fraction(0)] * len(v)
            for row, col in zip(rows, pivots):
                c = Fraction(v[col]) / row[col]
                combination = [x + c * y for x, y in zip(combination, row)]
            assert combination == [Fraction(x) for x in v]


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
