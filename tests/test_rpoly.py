import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rspinrel.rpoly import (
    InterpolationError,
    Rational,
    RPoly,
    poly_interpolate,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
small_polys = st.lists(rationals, max_size=6).map(RPoly)


class TestRationalArithmetic:
    def test_exact_addition(self):
        assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)

    def test_absorbing_zero(self):
        assert Rational(7, 24) * 0 == 0

    def test_exact_division(self):
        assert Rational(-5, 24) / Rational(1, 12) == Rational(-5, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1, 2) / Rational(0)

    @given(rationals, rationals)
    def test_canonical_after_ops(self, a, b):
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


class TestRPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert RPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert RPoly((0, 0)).coeffs == ()
        assert RPoly().is_zero()

    def test_degree(self):
        assert RPoly().degree == -1
        assert RPoly((5,)).degree == 0
        assert RPoly((0, 0, 1)).degree == 2

    def test_eval_known_polynomial(self):
        # (r - 1)(r - 2) / 24 at r = 3
        r = RPoly.variable()
        p = (r - 1) * (r - 2) * Fraction(1, 24)
        assert p(3) == Fraction(1, 12)

    def test_eval_zero(self):
        assert RPoly()(Fraction(17, 5)) == 0

    def test_eval_reference_determinant_form(self):
        # -(1 - r)^n (2 - r)^2 / 4 with n = 2 at r = 3 evaluates to -1.
        r = RPoly.variable()
        p = (1 - r) ** 2 * (2 - r) ** 2 * Fraction(-1, 4)
        assert p(3) == Fraction(-1)


class TestRPolyRingLaws:
    @given(small_polys, small_polys, small_polys)
    def test_add_mul_laws(self, p, q, s):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + s == p + (q + s)
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s

    @given(small_polys, small_polys, rationals)
    def test_eval_is_ring_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)

    @given(small_polys, st.one_of(small_polys, st.integers(-5, 5), rationals))
    def test_product_matches_fraction_convolution(self, p, q):
        # The product convolves integer numerators; the coefficients must be
        # those of the Fraction-by-Fraction convolution, each in lowest terms.
        other = q.coeffs if isinstance(q, RPoly) else (Fraction(q),)
        expected = [Fraction(0)] * max(len(p.coeffs) + len(other) - 1, 0)
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(other):
                expected[i + j] += a * b
        while expected and expected[-1] == 0:
            expected.pop()
        for product in (p * q, q * p):
            assert product.coeffs == tuple(expected)
            assert all(type(c) is Fraction for c in product.coeffs)

    @given(small_polys, rationals)
    def test_horner_matches_naive(self, p, x):
        naive = sum((c * x**i for i, c in enumerate(p.coeffs)), Fraction(0))
        assert p(x) == naive


class TestRPolyHash:
    def test_constant_and_zero_hash_as_their_scalar(self):
        assert RPoly((3,)) == 3 and hash(RPoly((3,))) == hash(3)
        assert RPoly() == 0 and hash(RPoly()) == hash(0)
        assert len({3, RPoly((3,))}) == 1
        assert {3: "x"}.get(RPoly((3,))) == "x"
        assert {Fraction(1, 2): "half"}.get(RPoly((Fraction(1, 2),))) == "half"

    @given(small_polys, st.one_of(st.integers(-5, 5), rationals))
    def test_equal_means_equal_hash(self, p, x):
        for poly, scalar in ((p, x), (p, p.coefficient(0)), (RPoly((x,)), x)):
            if poly == scalar:
                assert hash(poly) == hash(scalar)


nonzero_polys = small_polys.filter(bool)


class TestDivision:
    @given(small_polys, nonzero_polys)
    def test_divmod(self, a, b):
        q, s = divmod(a, b)
        assert a == q * b + s
        assert s.degree < b.degree

    @given(small_polys, nonzero_polys)
    def test_exact_quotient(self, a, b):
        assert (a * b) / b == a

    def test_remainder_raises(self):
        r = RPoly.variable()
        with pytest.raises(ValueError):
            (r * r + 1) / (r - 1)
        assert divmod(r * r + 1, r - 1) == (r + 1, RPoly((2,)))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            RPoly((1, 2)) / RPoly()
        with pytest.raises(ZeroDivisionError):
            divmod(RPoly((1, 2)), 0)

    def test_scalar_divisor(self):
        r = RPoly.variable()
        assert (r * 3 + 1) / Fraction(1, 2) == r * 6 + 2
        assert divmod(r * 3 + 1, 2) == (r * Fraction(3, 2) + Fraction(1, 2), RPoly())
        assert RPoly((4,)) / 2 == 2

    def test_lower_degree_dividend(self):
        r = RPoly.variable()
        assert divmod(r + 1, r * r) == (RPoly(), r + 1)
        assert divmod(RPoly(), r) == (RPoly(), RPoly())


class TestInterpolation:
    def test_constant_data(self):
        samples = [(0, 1), (1, 1), (2, 1)]
        assert poly_interpolate(samples, 2) == RPoly((1,))

    def test_closed_form_from_samples(self):
        # a(r-1-a)/2 - (2r-1)(r-2)/24 at a = 1, sampled over r = 3..7.
        def f(r):
            return Fraction(r - 2, 2) - Fraction((2 * r - 1) * (r - 2), 24)

        samples = [(r, f(r)) for r in range(3, 8)]
        got = poly_interpolate(samples, 2)
        r = RPoly.variable()
        expected = (r - 2) * Fraction(1, 2) - (2 * r - 1) * (r - 2) * Fraction(1, 24)
        assert got == expected

    def test_inconsistent_bound(self):
        samples = [(1, 1), (2, 4), (3, 9)]
        with pytest.raises(InterpolationError):
            poly_interpolate(samples, 1)

    def test_duplicate_abscissae(self):
        with pytest.raises(InterpolationError):
            poly_interpolate([(1, 1), (1, 2), (2, 3)], 1)

    def test_too_few_samples(self):
        with pytest.raises(InterpolationError):
            poly_interpolate([(1, 1), (2, 4)], 2)

    @given(st.lists(rationals, min_size=1, max_size=5))
    def test_round_trip(self, coeffs):
        p = RPoly(coeffs)
        bound = max(p.degree, 0)
        samples = [(x, p(x)) for x in range(bound + 2)]
        assert poly_interpolate(samples, bound) == p
