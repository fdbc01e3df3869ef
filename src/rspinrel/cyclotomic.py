"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are represented as coefficient tuples of polynomials in a primitive
m-th root of unity, reduced modulo the m-th cyclotomic polynomial.  No
floating point anywhere; this backs the semisimplicity checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _poly_divmod(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Exact quotient and remainder of dense Fraction polynomials."""
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    dn = len(den) - 1
    quot = [Fraction(0)] * max(0, len(num) - dn)
    while True:
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dn:
            break
        shift = len(num) - 1 - dn
        factor = num[-1] / den[-1]
        quot[shift] = factor
        for i in range(dn + 1):
            num[shift + i] -= factor * den[i]
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be positive")
    # (x^m - 1) divided by the cyclotomic polynomials of all proper divisors.
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            quot, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert all(c == 0 for c in rem)
            num = quot
    return tuple(num)


class CyclotomicField:
    """Q(zeta_m) with elements as Fraction tuples of length phi(m)."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("order of the root of unity must be positive")
        self.m = m
        self.modulus = list(cyclotomic_polynomial(m))
        self.degree = len(self.modulus) - 1

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        _, rem = _poly_divmod(coeffs, self.modulus)
        rem = rem + [Fraction(0)] * (self.degree - len(rem))
        return tuple(rem[: self.degree])

    def zero(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(0)] * self.degree)

    def root_power(self, k: int) -> tuple[Fraction, ...]:
        """zeta^k as a reduced element."""
        k %= self.m
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return self._reduce(coeffs)

    def add(self, u, v) -> tuple[Fraction, ...]:
        return tuple(a + b for a, b in zip(u, v))

    def scale(self, u, c) -> tuple[Fraction, ...]:
        c = Fraction(c)
        return tuple(a * c for a in u)

    def is_zero(self, u) -> bool:
        return all(a == 0 for a in u)
