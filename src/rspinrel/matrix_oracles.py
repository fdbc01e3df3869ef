"""Matrix oracles, run by ``selftest`` and the tests: the metric, the
R-matrices, the quantum product and the determinants.

Like :mod:`rspinrel.oracles`, which holds the divisor classes, the graphs and
the contraction, the CLI's ``relations``, ``verify-ac`` and ``pm-table`` never
import this module, and it imports nothing from :mod:`rspinrel.relations`.  It
holds :func:`metric_matrix`, the forward and inverse R-matrices; the quantum
product with its idempotent check in exact cyclotomic arithmetic (``RPoly``
remainders modulo :func:`cyclotomic_polynomial`); the determinant, by Bareiss
elimination in integers for rational rows and over polynomials in r; and the
genus-1 system determinant.  Each function of r takes it as a plain int and
refuses one below 3 through ``cohft.check_index``.  Whatever reads
P_m(r, a) here looks up ``cohft.p_polynomial`` when called, so a patched
table is seen.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import floordiv, truediv
from typing import NamedTuple, Union

from . import cohft
from .cohft import check_index, r_inverse_entry
from .rpoly import RPoly

Coefficient = Union[Fraction, RPoly]
SYMBOLIC = "symbolic"


# ---------------------------------------------------------------------------
# The metric, R-matrices and the quantum product
# ---------------------------------------------------------------------------


def metric_matrix(r: int) -> list[list[Fraction]]:
    """The anti-diagonal pairing eta(a, b) = [a + b == r - 2] on 0..r-2."""
    check_index(0, r)
    return [[Fraction(1 if a + b == r - 2 else 0) for b in range(r - 1)] for a in range(r - 1)]


def r_forward_entry(m: int, a: int, b: int, r: int) -> Fraction:
    """Entry of the R-matrix itself: (-1)^m P_m(r, r-2-b) under b + m = a mod r-1.

    The sign comes from the bracket of the omitted scalar being negated for
    the forward series.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    check_index(a, r)
    check_index(b, r)
    if (b + m - a) % (r - 1) != 0:
        return Fraction(0)
    return (-1) ** m * cohft.p_polynomial(m, r - 2 - b, r)


def r_inverse_matrix(m: int, r: int) -> list[list[Fraction]]:
    """Order-m inverse R-matrix; rows are the upper (output) index."""
    check_index(0, r)
    return [[r_inverse_entry(m, a, b, r) for a in range(r - 1)] for b in range(r - 1)]


def r_forward_matrix(m: int, r: int) -> list[list[Fraction]]:
    """Order-m R-matrix; rows are the upper (output) index."""
    check_index(0, r)
    return [[r_forward_entry(m, a, b, r) for a in range(r - 1)] for b in range(r - 1)]


class StructureConstants(NamedTuple):
    """Quantum product at the shift point in the rescaled basis.

    The product of basis vectors a and b is the single basis vector with
    index a + b mod r - 1, so the table stores that index; the structure
    constant c^i_ab is 1 when i equals table[a][b] and 0 otherwise.
    """

    r: int
    table: tuple[tuple[int, ...], ...]

    def product_index(self, a: int, b: int) -> int:
        return self.table[a][b]

    def coefficient(self, i: int, a: int, b: int) -> int:
        return 1 if self.table[a][b] == i else 0


def quantum_structure_constants(r: int) -> StructureConstants:
    """Structure constants of the quantum product at the shift point."""
    check_index(0, r)
    table = tuple(tuple((a + b) % (r - 1) for b in range(r - 1)) for a in range(r - 1))
    return StructureConstants(r=r, table=table)


class IdempotentReport(NamedTuple):
    r: int
    ok: bool
    geometric_sums_ok: bool
    idempotent_identity_ok: bool
    failures: tuple[str, ...]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> RPoly:
    """The m-th cyclotomic polynomial: x^m - 1 over the Phi_d of m's proper
    divisors, each division exact."""
    if m < 1:
        raise ValueError("m must be positive")
    phi = RPoly((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            phi = phi / cyclotomic_polynomial(d)
    return phi


def idempotent_check(r: int) -> IdempotentReport:
    """Verify the discrete-Fourier basis diagonalizes the quantum product.

    With zeta a primitive (r-1)-th root of unity and f_i = sum_a zeta^(a*i) v_a
    over the rescaled basis v_a, checks f_i . f_j = (r-1) delta_ij f_j in exact
    cyclotomic arithmetic, along with the geometric-sum identity
    1 + zeta^x + ... + zeta^((r-2)x) = 0 for x != 0 mod r-1 that drives it.
    An element of Q(zeta) is its polynomial in zeta reduced modulo Phi_(r-1).
    """
    check_index(0, r)
    m = r - 1
    phi = cyclotomic_polynomial(m)
    powers = [divmod(RPoly((0,) * k + (1,)), phi)[1] for k in range(m)]
    failures: list[str] = []

    geometric_ok = True
    for x in range(1, m):
        if sum((powers[k * x % m] for k in range(m)), RPoly()):
            geometric_ok = False
            failures.append(f"geometric sum nonzero for x={x}")

    product_ok = True
    for i in range(m):
        for j in range(m):
            for c in range(m):
                # Coefficient of v_c in f_i . f_j: sum over a+b = c mod r-1
                # of zeta^(a i + b j).
                coeff = sum((powers[(a * i + (c - a) * j) % m] for a in range(m)), RPoly())
                expected = powers[c * j % m] * m if i == j else RPoly()
                if coeff != expected:
                    product_ok = False
                    failures.append(f"product mismatch at i={i} j={j} c={c}")

    return IdempotentReport(
        r=r,
        ok=geometric_ok and product_ok,
        geometric_sums_ok=geometric_ok,
        idempotent_identity_ok=product_ok,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Determinants, and the genus-1 leg/kappa system determinant
# ---------------------------------------------------------------------------


def determinant(rows):
    """Exact determinant of a square matrix given as rows, by Bareiss
    elimination.  When any entry is an RPoly, every entry is lifted to one,
    each Bareiss division is exact in Q[r], and the result is an RPoly.
    Otherwise the entries are rationals (ints or Fractions): each row is
    multiplied by the lcm of its denominators, the elimination runs in
    integers, where each Bareiss division is an exact floor division, and
    the integer determinant over the product of those lcms is returned as a
    Fraction."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if any(isinstance(x, RPoly) for row in rows for x in row):
        m = [[x if isinstance(x, RPoly) else RPoly.constant(x) for x in row] for row in rows]
        divide, scale = truediv, None
    else:
        m, scale = [], 1
        for row in rows:
            d = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (d // x.denominator) for x in row])
            scale *= d
        divide = floordiv
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:  # column k is zero from row k down
                sign = 0
                break
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: exact division by the previous pivot.
                m[i][j] = divide(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    det = sign * m[n - 1][n - 1] if n else 1
    return det if scale is None else Fraction(det, scale)


class SystemDetReport(NamedTuple):
    """Determinant of the (n+1)x(n+1) genus-1 system matrix and comparisons.

    reference_value is the closed form -(1-r)^n (2-r)^2 / 4; product_form is
    -((r-1)(r-2)/2)^n, which is what elimination actually yields.  The two
    agree only at n = 2 (and for even n at r = 4).
    """

    n: int
    r_mode: int | str
    det: Coefficient
    reference_value: Coefficient
    residual: Coefficient
    matches_reference: bool
    product_form_value: Coefficient
    matches_product_form: bool


def system_matrix_det(
    n: int, r: int | None = None, *, symbolic: bool = False
) -> SystemDetReport:
    """Determinant of the genus-1 system expressing each psi and kappa_1 in
    boundary terms: rows i = 1..n carry (r-1) P_1(r,1) on the diagonal,
    (r-1) P_1(r,0) off it and minus that in the kappa column; the last row is
    (1, ..., 1, -1).  With ``symbolic=True`` every entry is a polynomial in r."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if symbolic:
        x, r_mode = RPoly.variable(), SYMBOLIC
        p1_1, p1_0 = cohft.p_polynomial_symbolic(1, 1), cohft.p_polynomial_symbolic(1, 0)
    else:
        if r is None or r < 3:
            raise ValueError("numeric mode needs r >= 3")
        x, r_mode = Fraction(r), r
        p1_1, p1_0 = cohft.p_polynomial(1, 1, r), cohft.p_polynomial(1, 0, r)
    diag, off = (x - 1) * p1_1, (x - 1) * p1_0
    rows = [[diag if j == i else off for j in range(n)] + [-off] for i in range(n)]
    det = determinant(rows + [[1] * n + [-1]])
    reference = (1 - x) ** n * (2 - x) ** 2 * Fraction(-1, 4)
    product_form = -(((x - 1) * (x - 2) * Fraction(1, 2)) ** n)
    residual = det - reference
    return SystemDetReport(
        n=n,
        r_mode=r_mode,
        det=det,
        reference_value=reference,
        residual=residual,
        matches_reference=not residual,
        product_form_value=product_form,
        matches_product_form=not (det - product_form),
    )
