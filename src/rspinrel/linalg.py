"""Exact dense linear algebra over the rationals (and polynomial entries).

Rank, nullspace and reduced row echelon form come from one fraction-free
Gauss-Jordan elimination in integers (:func:`rref`): every row is scaled to a
primitive integer vector, each update is a cross-multiplication, and each
updated row is divided by its content again, so entries stay as small as the
reduced rows themselves.  This is what compares the spans of divisor
relations, with one column per divisor class (thousands of columns for 12
markings).  Determinants use fraction-free Bareiss elimination for rational
entries and memoized minor expansion for matrices with polynomial entries;
row reduction refuses polynomial entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .rpoly import RPoly


class RationalMatrix:
    """Rectangular matrix with homogeneous entries: all Fraction or all RPoly."""

    def __init__(self, entries: Sequence[Sequence]):
        rows = [list(row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("matrix rows have unequal lengths")
        else:
            width = 0
        has_poly = any(isinstance(x, RPoly) for row in rows for x in row)
        if has_poly:
            coerced = []
            for row in rows:
                coerced.append(
                    [x if isinstance(x, RPoly) else RPoly((x,)) for x in row]
                )
            self.entries: tuple[tuple, ...] = tuple(tuple(r) for r in coerced)
            self.is_polynomial = True
        else:
            self.entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
            self.is_polynomial = False
        self.rows = len(rows)
        self.cols = width

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _as_matrix(m) -> RationalMatrix:
    return m if isinstance(m, RationalMatrix) else RationalMatrix(m)


def primitive_int_vector(row: Sequence) -> tuple[int, ...]:
    """The primitive integer multiple of a rational row whose first nonzero
    entry is positive; a zero row stays zero."""
    try:
        denom = math.lcm(*[x.denominator for x in row])
    except AttributeError:
        raise ValueError("rational entries required") from None
    ints = [x.numerator * (denom // x.denominator) for x in row]
    content = math.gcd(*ints)
    if content == 0:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        content = -content
    return tuple(ints) if content == 1 else tuple([x // content for x in ints])


def rref(m) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form of a rational matrix, as primitive integer
    rows with a positive pivot (nonzero rows only), and the pivot columns.

    ``m`` is a :class:`RationalMatrix` or a sequence of rows of ints and
    Fractions.  Each row of the result is the unique primitive integer
    multiple of the corresponding row of the rational reduced form.
    """
    if isinstance(m, RationalMatrix):
        if m.is_polynomial:
            raise ValueError("rref requires rational entries")
        m = m.entries
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows have unequal lengths")
    rows = [list(row) for row in map(primitive_int_vector, m) if any(row)]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank]
        pv = piv[col]
        if pv < 0:
            piv = rows[rank] = [-y for y in piv]
            pv = -pv
        dependent = False
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                row = [pv * x - f * y for x, y in zip(row, piv)]
                content = math.gcd(*row)
                rows[i] = [x // content for x in row] if content > 1 else row
                dependent = dependent or content == 0
        pivots.append(col)
        if dependent:  # rows that cancelled to zero: drop them
            rows[rank + 1:] = [row for row in rows[rank + 1:] if any(row)]
    return [tuple(row) for row in rows], pivots


def rank_and_solve(m) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact rank and a basis of the right nullspace of a rational matrix.

    Each basis vector v satisfies M v = 0 exactly, and
    rank + len(basis) == cols.  Both are read off :func:`rref`.
    """
    mat = _as_matrix(m)
    rows, pivots = rref(mat)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(mat.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * mat.cols
        v[free] = Fraction(1)
        for row, piv_col in zip(rows, pivots):
            v[piv_col] = Fraction(-row[free], row[piv_col])
        basis.append(tuple(v))
    return len(pivots), basis


def determinant(m):
    """Exact determinant; Bareiss for rational entries, minor expansion for RPoly."""
    mat = _as_matrix(m)
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    if mat.is_polynomial:
        return _minor_expansion_det(mat.entries)
    return _bareiss_det(mat.entries)


def _bareiss_det(entries: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    n = len(entries)
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in entries]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: exact division by the previous pivot.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor_expansion_det(entries) -> RPoly:
    """Cofactor expansion along the rows, memoized on the columns left."""
    n = len(entries)
    cache = {(): RPoly((1,))}

    def minor(cols: tuple[int, ...]) -> RPoly:
        if cols not in cache:
            row = entries[n - len(cols)]
            total = RPoly()
            for pos, col in enumerate(cols):
                if row[col]:
                    term = row[col] * minor(cols[:pos] + cols[pos + 1:])
                    total = total - term if pos % 2 else total + term
            cache[cols] = total
        return cache[cols]

    return minor(tuple(range(n)))
