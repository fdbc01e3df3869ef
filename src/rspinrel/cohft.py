"""Shifted r-spin field theory data.

For an integer r >= 3 the state space has basis indices 0..r-2, the metric is
the anti-diagonal pairing eta(a, b) = [a + b == r - 2], and the theory is
taken at the semisimple shift point along the second basis direction.  This
module holds everything that is a pure function of r:

* the coefficient polynomials P_m(r, a) defined by a two-sum recursion,
  numerically and symbolically in r; the numeric table is built bottom up
  by :func:`p_row`, one row of integer numerators over a common denominator
  per m, at O(r) big-integer operations per row and so O(m r) up to m.
  ``pm-table``, ``selftest`` and :mod:`rspinrel.oracles` read the recursion;
  :mod:`rspinrel.relations` reads P_1 in closed form,
* the entries of the inverse R-matrix of the theory (without the uniform
  scalar factor, which scales a relation as a whole),
* degree-zero (topological) values of the theory.

Each function of r takes it as a plain int and refuses one below 3 before
dividing by r - 1; :func:`check_index` refuses r, then a basis index outside
0..r-2.

``pm-table`` and ``selftest`` load this module once their arguments pass, so
it loads no other at module level: :func:`p_polynomial_symbolic` imports
``rpoly``.  Nor does it load ``fractions`` (with the ``decimal`` and
``numbers`` it pulls in) there: each function that builds a ``Fraction``
imports it, so ``pm-table``, which prints from :func:`p_row`'s integer rows,
never loads it.
The metric matrix, the forward R-matrix and the quantum product live in
:mod:`rspinrel.oracles`.

For the record: the Euler field of the underlying Frobenius structure at the
shift point is (r-1) phi^(r/(r-1)) along the second rescaled basis vector.
Nothing here consumes it; the closed coefficient formulas below replace the
recursion it would drive.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from .rpoly import RPoly


def check_index(a: int, r: int) -> None:
    """Refuse an r below 3, then a basis index a outside 0..r-2; index 0
    checks r alone."""
    if r < 3:
        raise ValueError("r must be at least 3")
    if not 0 <= a <= r - 2:
        raise ValueError(f"basis index {a} out of range 0..{r - 2}")


# Last table row built for each r, as r -> (m, numerators, denominator) with
# P_m(r, a) = numerators[a] / denominator.  An entry is replaced whole, never
# mutated, so a reader always sees one consistent row.
_last_rows: dict[int, tuple[int, tuple[int, ...], int]] = {}


def p_row(m: int, r: int) -> tuple[tuple[int, ...], int]:
    """Row m of the P table for r, as integer numerators over one denominator.

    Continues from the stored row when it is not past m, else from P_0 = 1.
    Row k is D_k P_k(r, a) with D_k = D_{k-1} 4kr(r-1), divided by the gcd of
    its numerators and D_k: times D_k, the recursion's first sum becomes
    2kr(r-1) times a prefix sum over b <= a, and its second sum, which does
    not depend on a, becomes one integer subtracted from every entry.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if m < 0:
        raise ValueError("m must be nonnegative")
    stored = _last_rows.get(r)
    start, row, den = stored if stored and stored[0] <= m else (0, (1,) * (r - 1), 1)
    for k in range(start + 1, m + 1):
        two_kr = 2 * k * r
        second = sum(
            (r - 1 - b) * (two_kr - b) * (two_kr - r - 2 * b) * row[b - 1]
            for b in range(1, r - 1)
        )
        scale = two_kr * (r - 1)
        prefix = 0
        numerators = [-second]
        for b in range(1, r - 1):
            prefix += (two_kr - r - 2 * b) * row[b - 1]
            numerators.append(scale * prefix - second)
        den *= 2 * scale
        common = gcd(den, *numerators)
        row = tuple(x // common for x in numerators)
        den //= common
    _last_rows[r] = (m, row, den)
    return row, den


@lru_cache(maxsize=1024)
def p_polynomial(m: int, a: int, r: int) -> Fraction:
    """P_m(r, a), defined by P_0 = 1 and, for m >= 1, the two-sum recursion

        P_m(r,a) = 1/2 sum_{b=1}^{a} (2mr - r - 2b) P_{m-1}(r, b-1)
                 - 1/(4mr(r-1)) sum_{b=1}^{r-2}
                       (r-1-b)(2mr - b)(2mr - r - 2b) P_{m-1}(r, b-1)

    The value is read from the integer row that :func:`p_row` builds.  Only
    the last row built for each r is kept; a request for an earlier m
    rebuilds from P_0, and the bounded LRU cache in front absorbs repeated
    lookups.  Both are safe under concurrent sweeps over r: the standard
    library's LRU cache locks internally, and the row store only ever swaps
    in a finished immutable row, so racing callers can cost one another a
    rebuild but never see a wrong or partial row.
    """
    from fractions import Fraction

    if r >= 3 and m >= 0 and not 0 <= a <= r - 2:  # p_row refuses a bad r or m first
        raise ValueError(f"index a={a} out of range 0..{r - 2}")
    numerators, den = p_row(m, r)
    return Fraction(numerators[a], den)


def p_polynomial_symbolic(m: int, a: int) -> RPoly:
    """P_m(r, a) as a polynomial in r of degree at most 2m, for fixed a.

    Interpolated from numeric values at 2m + 2 consecutive r (one more than
    the degree bound needs); the extra sample is a consistency check, and a
    failure surfaces as an InterpolationError rather than a silently raised
    bound.  Sampled r start above a + 1 so that a is a valid index.
    """
    from fractions import Fraction

    from .rpoly import poly_interpolate

    if m < 0 or a < 0:
        raise ValueError("m and a must be nonnegative")
    r_start = max(3, a + 2)
    samples = [
        (Fraction(r), p_polynomial(m, a, r))
        for r in range(r_start, r_start + 2 * m + 2)
    ]
    return poly_interpolate(samples, degree_bound=2 * m)


def r_inverse_entry(m: int, a: int, b: int, r: int) -> Fraction:
    """Entry of the inverse R-matrix (upper index b, lower index a) at order m.

    Equals P_m(r, a) when b + m = a mod r - 1 and 0 otherwise.  The uniform
    scalar [r(r-1) phi^(r/(r-1))]^(-m) is not folded in.
    """
    from fractions import Fraction

    if m < 0:
        raise ValueError("m must be nonnegative")
    check_index(a, r)
    check_index(b, r)
    if (b + m - a) % (r - 1) != 0:
        return Fraction(0)
    return p_polynomial(m, a, r)


def topological_value(g: int, insertions: Sequence[int], r: int) -> Fraction:
    """Degree-zero value of the shifted theory on one vertex: (r-1)^g when
    g - 1 - sum(insertions) is divisible by r - 1, and 0 otherwise."""
    from fractions import Fraction

    check_index(0, r)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    n = len(insertions)
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"unstable vertex (g={g}, n={n})")
    for a in insertions:
        check_index(a, r)
    if (g - 1 - sum(insertions)) % (r - 1) == 0:
        return Fraction((r - 1) ** g)
    return Fraction(0)
