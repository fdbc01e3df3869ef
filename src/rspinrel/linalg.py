"""Exact dense linear algebra over the rationals.

Rank and reduced row echelon form come from one fraction-free
Gauss-Jordan elimination in integers (:func:`rref`): every row is scaled to a
primitive integer vector, each update is a cross-multiplication, and each
updated row is divided by its content again, so entries stay as small as the
reduced rows themselves.  This is what compares the spans of divisor
relations, over a few features or with one column per divisor class
(thousands of columns for 12 markings).  Row reduction refuses polynomial
entries; the matrix type, the determinants, and the nullspace read off
:func:`rref` live in :mod:`rspinrel.oracles`.
"""

from __future__ import annotations

import math
from typing import Sequence


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


def rref(m: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form of a rational matrix, as primitive integer
    rows with a positive pivot (nonzero rows only), and the pivot columns.

    ``m`` is a sequence of rows of ints and Fractions.  Each row of the
    result is the unique primitive integer multiple of the corresponding row
    of the rational reduced form.
    """
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
