"""Exact univariate polynomials over the rationals.

Coefficient arithmetic everywhere in this library is exact: scalars are
``fractions.Fraction`` (re-exported as :data:`Rational`) and symbolic
quantities are dense polynomials in the single formal variable ``r``.

A polynomial is stored as a tuple of Fractions indexed by degree with no
trailing zeros; the zero polynomial is the empty tuple.  Besides the ring
operations there are exact long division, evaluation and interpolation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

# Arbitrary-precision rationals, always in lowest terms with positive
# denominator (0 is represented as 0/1).  This is the coefficient field.
Rational = Fraction

Scalar = Union[int, Fraction]


class InterpolationError(ValueError):
    """Raised for duplicate abscissae or data inconsistent with the bound."""


class RPoly:
    """Dense polynomial in the formal variable r with Fraction coefficients.

    Instances are immutable by convention; all operations return new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "RPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "RPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "RPoly":
        """The polynomial r."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _coerce(self, other) -> "RPoly | None":
        if isinstance(other, RPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RPoly((other,))
        return None

    def __add__(self, other) -> "RPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RPoly":
        return RPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "RPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return RPoly()
        # Convolve integer numerators over each factor's common denominator:
        # one Fraction, so one gcd, per coefficient of the product.
        (left, left_den), (right, right_den) = _numerators(self.coeffs), _numerators(o.coeffs)
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                out[i + j] += a * b
        den = left_den * right_den
        return RPoly(Fraction(c, den) for c in out)

    __rmul__ = __mul__

    def __divmod__(self, other) -> "tuple[RPoly, RPoly]":
        """Quotient and remainder, the remainder of lower degree than other."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem, dn, lead = list(self.coeffs), o.degree, o.coeffs[-1]
        quot = [Fraction(0)] * max(0, len(rem) - dn)
        for shift in reversed(range(len(quot))):
            factor = quot[shift] = rem[shift + dn] / lead
            if factor:
                for i, c in enumerate(o.coeffs):
                    rem[shift + i] -= factor * c
        return RPoly(quot), RPoly(rem[:dn])

    def __truediv__(self, other) -> "RPoly":
        """Exact quotient; a nonzero remainder raises ValueError."""
        result = self.__divmod__(other)
        if result is NotImplemented:
            return result
        quot, rem = result
        if rem:
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return quot

    def __pow__(self, exponent: int) -> "RPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        out = RPoly((1,))
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash as that scalar.
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __call__(self, r: Scalar) -> Fraction:
        """Evaluate at r by Horner's scheme; exact."""
        r = Fraction(r)
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * r + c
        return value

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*r")
            else:
                terms.append(f"{c}*r^{i}")
        return "RPoly(" + " + ".join(terms) + ")"


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """The integer numerators of ``coeffs`` over their least common
    denominator, and that denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def poly_interpolate(
    samples: Sequence[tuple[Scalar, Scalar]], degree_bound: int
) -> RPoly:
    """The unique polynomial of degree <= degree_bound through the samples.

    The first degree_bound+1 samples determine the polynomial (Newton's
    divided differences); every remaining sample is checked against it, so
    overdetermined data that does not fit the bound raises
    :class:`InterpolationError` instead of being silently averaged.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    xs = [Fraction(x) for x, _ in samples]
    ys = [Fraction(y) for _, y in samples]
    if len(set(xs)) != len(xs):
        raise InterpolationError("duplicate abscissae in interpolation samples")
    if len(xs) < degree_bound + 1:
        raise InterpolationError(
            f"need at least {degree_bound + 1} samples for degree bound {degree_bound}"
        )
    k = degree_bound + 1
    # Divided-difference table on the first k nodes.
    diffs = list(ys[:k])
    newton = [diffs[0]]
    for level in range(1, k):
        diffs = [
            (diffs[i + 1] - diffs[i]) / (xs[i + level] - xs[i])
            for i in range(k - level)
        ]
        newton.append(diffs[0])
    # Expand the Newton form into monomial coefficients.
    poly = RPoly()
    basis = RPoly((1,))
    for j, c in enumerate(newton):
        poly = poly + basis * c
        basis = basis * RPoly((-xs[j], 1))
    for x, y in zip(xs, ys):
        if poly(x) != y:
            raise InterpolationError(
                f"samples exceed degree bound {degree_bound}: "
                f"mismatch at r={x} (expected {y}, interpolant gives {poly(x)})"
            )
    return poly
