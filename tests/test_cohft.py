import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from rspinrel import cohft
from rspinrel.cohft import (
    RSpinTheory,
    p_polynomial,
    p_polynomial_symbolic,
    p_row,
    phi_degree,
    r_inverse_entry,
    topological_value,
    witten_degree,
)
from rspinrel.oracles import (
    idempotent_check,
    quantum_structure_constants,
    r_forward_entry,
    r_forward_matrix,
    r_inverse_matrix,
)
from rspinrel.rpoly import RPoly


def p1_closed(a, r):
    return Fraction(a * (r - 1 - a), 2) - Fraction((2 * r - 1) * (r - 2), 24)


@lru_cache(maxsize=None)
def p_by_recursion(m, a, r):
    """Oracle: the memoised two-sum recursion in Fractions, entry by entry."""
    if m == 0:
        return Fraction(1)
    first = Fraction(0)
    for b in range(1, a + 1):
        first += (2 * m * r - r - 2 * b) * p_by_recursion(m - 1, b - 1, r)
    first /= 2
    second = Fraction(0)
    for b in range(1, r - 1):
        second += (
            (r - 1 - b)
            * (2 * m * r - b)
            * (2 * m * r - r - 2 * b)
            * p_by_recursion(m - 1, b - 1, r)
        )
    second /= 4 * m * r * (r - 1)
    return first - second


class TestPPolynomial:
    def test_order_zero_is_one(self):
        for r in range(3, 8):
            for a in range(r - 1):
                assert p_polynomial(0, a, r) == 1

    def test_first_order_values(self):
        assert p_polynomial(1, 0, 3) == Fraction(-5, 24)
        assert p_polynomial(1, 1, 3) == Fraction(7, 24)

    def test_second_order_frozen_values(self):
        # Frozen from the direct double-sum of the recursion.
        assert p_polynomial(2, 0, 3) == Fraction(385, 1152)
        assert p_polynomial(2, 1, 3) == Fraction(-455, 1152)

    def test_closed_form_everywhere(self):
        for r in range(3, 13):
            for a in range(r - 1):
                assert p_polynomial(1, a, r) == p1_closed(a, r)

    def test_symmetry(self):
        for r in range(3, 13):
            for a in range(r - 1):
                partner = (r - 1 - a) % (r - 1)
                assert p_polynomial(1, a, r) == p_polynomial(1, partner, r)

    def test_row_sum_identity(self):
        for r in range(3, 13):
            total = sum(p_polynomial(1, a, r) for a in range(r - 1))
            assert total == Fraction((r - 1) * (r - 2), 24)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            p_polynomial(1, 5, 3)
        with pytest.raises(ValueError):
            p_polynomial(1, -1, 4)


class TestPTableOracle:
    """The bottom-up integer rows against the Fraction recursion."""

    @pytest.mark.parametrize("r", range(3, 13))
    def test_every_entry_up_to_m_300(self, r):
        for m in range(301):
            for a in range(r - 1):
                assert p_polynomial(m, a, r) == p_by_recursion(m, a, r), (m, a)

    @pytest.mark.parametrize("m,r", [(200, 24), (100, 40)])
    def test_deep_rows_at_wide_r(self, m, r):
        for a in range(r - 1):
            assert p_polynomial(m, a, r) == p_by_recursion(m, a, r), a

    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(st.integers(0, 60), st.integers(3, 30), st.integers(0, 28)),
            min_size=1,
            max_size=12,
        ),
        order=st.sampled_from(("drawn", "ascending", "descending")),
    )
    def test_any_call_order(self, calls, order):
        # A cold LRU cache sends every call to the row store, so an earlier m
        # than the stored row's forces the rebuild from P_0.
        if order != "drawn":
            calls = sorted(calls, reverse=order == "descending")
        p_polynomial.cache_clear()
        for m, r, a in calls:
            a %= r - 1
            assert p_polynomial(m, a, r) == p_by_recursion(m, a, r), (m, a, r)

    def test_concurrent_callers_share_the_row_store(self):
        # Threads sweep m in opposite directions over the same r values, so
        # they keep replacing one another's stored rows.
        calls = [(m, r, a) for r in (3, 5, 8) for m in range(41) for a in range(r - 1)]
        expected = {call: p_by_recursion(call[0], call[2], call[1]) for call in calls}
        wrong = []

        def sweep(order):
            for m, r, a in order:
                if p_polynomial(m, a, r) != expected[m, r, a]:
                    wrong.append((m, r, a))

        p_polynomial.cache_clear()
        orders = [calls, calls[::-1], calls[1::2] + calls[::2], calls[::-2]]
        threads = [threading.Thread(target=sweep, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("m,r,a,message", [
        (1, 2, 0, "r must be at least 3"),
        (1, 2, 5, "r must be at least 3"),
        (-1, 5, 0, "m must be nonnegative"),
        (-1, 5, 9, "m must be nonnegative"),
        (1, 5, 4, "index a=4 out of range 0..3"),
    ])
    def test_invalid_arguments_refused_in_order(self, m, r, a, message):
        # r, then m, then a, whatever else is wrong.
        with pytest.raises(ValueError, match=message):
            p_polynomial(m, a, r)

    def test_refused_row_leaves_the_row_store_intact(self):
        # A negative m stored as the last row would start the next build at
        # k = 0, whose factor is 0.
        expected = p_by_recursion(2, 1, 5)
        for m, r in ((-1, 5), (2, 2)):
            with pytest.raises(ValueError):
                p_row(m, r)
        p_polynomial.cache_clear()
        assert p_polynomial(2, 1, 5) == expected

    def test_deep_row_on_cold_cache_returns(self):
        # The recursion overflowed the interpreter stack here.
        p_polynomial.cache_clear()
        cohft._last_rows.pop(3, None)
        assert isinstance(p_polynomial(1500, 0, 3), Fraction)


class TestPSymbolic:
    def test_order_zero(self):
        assert p_polynomial_symbolic(0, 3) == RPoly((1,))

    def test_first_order_closed_form(self):
        r = RPoly.variable()
        for a in range(5):
            expected = (
                Fraction(a, 2) * (r - 1 - a)
                - (2 * r - 1) * (r - 2) * Fraction(1, 24)
            )
            assert p_polynomial_symbolic(1, a) == expected

    def test_second_order_degree_bound_holds(self):
        # The interpolation consistency sample would raise if degree 2m failed.
        poly = p_polynomial_symbolic(2, 1)
        assert poly.degree <= 4
        assert poly(3) == p_polynomial(2, 1, 3)


class TestRMatrixEntries:
    def test_order_zero_is_identity(self):
        theory = RSpinTheory(5)
        for a in range(4):
            for b in range(4):
                expected = Fraction(1 if a == b else 0)
                assert r_inverse_entry(0, a, b, theory) == expected
                assert r_forward_entry(0, a, b, theory) == expected

    def test_inverse_entry_values(self):
        theory = RSpinTheory(3)
        assert r_inverse_entry(1, 1, 0, theory) == Fraction(7, 24)
        assert r_inverse_entry(1, 0, 0, theory) == 0  # congruence fails

    def test_forward_entry_sign(self):
        theory = RSpinTheory(3)
        assert r_forward_entry(1, 1, 0, theory) == Fraction(-7, 24)

    def test_unit_column_vanishing_used_in_genus_3(self):
        # The entry with both indices 0 at order 1 is zero; this is what
        # kills the genus 1+2 separating graph.
        assert r_inverse_entry(1, 0, 0, RSpinTheory(3)) == 0

    def test_index_range_checked(self):
        theory = RSpinTheory(3)
        with pytest.raises(ValueError):
            r_inverse_entry(1, 2, 0, theory)


def matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestRMatrixIdentities:
    def test_truncated_product_is_identity(self):
        # The uniform scalar factors out of each order, so the bare entries
        # must already satisfy sum_k R_k R^{-1}_{m-k} = 0 for m >= 1 (and
        # the order-0 product is the identity).
        for r in range(3, 9):
            theory = RSpinTheory(r)
            d = theory.dimension
            order_zero = matmul(r_forward_matrix(0, theory), r_inverse_matrix(0, theory))
            assert order_zero == [
                [Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)
            ]
            for m in (1, 2):
                total = [[Fraction(0)] * d for _ in range(d)]
                for k in range(m + 1):
                    prod = matmul(
                        r_forward_matrix(k, theory), r_inverse_matrix(m - k, theory)
                    )
                    for i in range(d):
                        for j in range(d):
                            total[i][j] += prod[i][j]
                assert all(x == 0 for row in total for x in row), (r, m)

    def test_symplectic_through_order_two(self):
        for r in range(3, 9):
            theory = RSpinTheory(r)
            d = theory.dimension
            eta = theory.metric_matrix()
            for m in (1, 2):
                total = [[Fraction(0)] * d for _ in range(d)]
                for k in range(m + 1):
                    sign = (-1) ** (m - k)
                    left = r_forward_matrix(k, theory)
                    right = r_forward_matrix(m - k, theory)
                    for a in range(d):
                        for b in range(d):
                            total[a][b] += sign * sum(
                                left[i][a] * eta[i][j] * right[j][b]
                                for i in range(d)
                                for j in range(d)
                            )
                assert all(x == 0 for row in total for x in row), (r, m)


class TestTopologicalValue:
    def test_genus_zero_triple(self):
        for r in (3, 4, 5):
            theory = RSpinTheory(r)
            value = topological_value(0, (1, 0, r - 3), theory)
            assert value == 1

    def test_genus_one_values(self):
        theory = RSpinTheory(3)
        assert topological_value(1, (0, 0), theory) == 2
        assert topological_value(1, (1, 0), theory) == 0

    def test_returns_value_only(self):
        # (r-1)^g for an admissible insertion sum, as one exact rational.
        value = topological_value(2, (1,), RSpinTheory(5))
        assert type(value) is Fraction and value == 16

    def test_unstable_raises(self):
        with pytest.raises(ValueError):
            topological_value(0, (0, 0), RSpinTheory(3))

    def test_separating_contraction(self):
        # Value of the glued vertex equals the metric contraction of the two pieces.
        for r in (3, 4, 5):
            theory = RSpinTheory(r)
            cases = [
                (1, (0,), 1, (0,)),
                (1, (1, 0), 1, ()),
                (2, (0,), 1, (1,)),
            ]
            for g1, a1, g2, a2 in cases:
                if 2 * g1 - 2 + len(a1) + 1 <= 0 or 2 * g2 - 2 + len(a2) + 1 <= 0:
                    continue
                whole = topological_value(g1 + g2, tuple(a1) + tuple(a2), theory)
                contraction = Fraction(0)
                for j in range(r - 1):
                    left = topological_value(g1, tuple(a1) + (j,), theory)
                    right = topological_value(g2, tuple(a2) + (r - 2 - j,), theory)
                    contraction += left * right
                assert contraction == whole

    def test_nonseparating_contraction(self):
        for r in (3, 4):
            theory = RSpinTheory(r)
            for g, a_vec in ((2, (0,)), (2, (1,)), (3, (0,))):
                whole = topological_value(g, a_vec, theory)
                contraction = Fraction(0)
                for j in range(r - 1):
                    value = topological_value(g - 1, tuple(a_vec) + (j, r - 2 - j), theory)
                    contraction += value
                assert contraction == whole


class TestQuantumProduct:
    def test_unit(self):
        for r in range(3, 7):
            sc = quantum_structure_constants(RSpinTheory(r))
            for b in range(r - 1):
                assert sc.product_index(0, b) == b
                assert sc.coefficient(b, 0, b) == 1

    def test_r3_square(self):
        sc = quantum_structure_constants(RSpinTheory(3))
        assert sc.product_index(1, 1) == 0

    def test_associative_commutative(self):
        for r in range(3, 7):
            sc = quantum_structure_constants(RSpinTheory(r))
            d = r - 1
            for a in range(d):
                for b in range(d):
                    assert sc.product_index(a, b) == sc.product_index(b, a)
                    for c in range(d):
                        assert sc.product_index(
                            sc.product_index(a, b), c
                        ) == sc.product_index(a, sc.product_index(b, c))


class TestIdempotents:
    def test_all_small_r(self):
        for r in range(3, 7):
            report = idempotent_check(RSpinTheory(r))
            assert report.ok, report.failures
            assert report.geometric_sums_ok and report.idempotent_identity_ok

    def test_r3_by_hand(self):
        # With the primitive square root of unity -1: f_0 = v_0 + v_1 and
        # f_1 = v_0 - v_1 multiply to zero, squares have coefficient 2.
        report = idempotent_check(RSpinTheory(3))
        assert report.ok


class TestDegrees:
    def test_witten_degree_values(self):
        assert witten_degree(2, 0, (), 3) == Fraction(1, 3)
        assert witten_degree(4, 0, (), 3) == 1
        assert witten_degree(1, 2, (1, 0), 3) == Fraction(1, 3)

    def test_witten_degree_validation(self):
        with pytest.raises(ValueError):
            witten_degree(1, 2, (1,), 3)
        with pytest.raises(ValueError):
            witten_degree(1, 1, (5,), 3)

    def test_phi_degree_examples(self):
        report = phi_degree(1, 1, (1, 0), 3)
        assert report.value == -2 and report.relation_exists and report.d_integral
        report = phi_degree(2, 1, (), 3)
        assert report.value == -2 and report.relation_exists and report.d_integral
        report = phi_degree(4, 1, (), 3)
        assert report.value == 0 and not report.relation_exists
        report = phi_degree(3, 1, (), 3)
        assert report.value == -1 and report.relation_exists and not report.d_integral


class TestDataTypes:
    def test_theory_validation(self):
        with pytest.raises(ValueError):
            RSpinTheory(2)
        theory = RSpinTheory(4)
        assert theory.dimension == 3
        assert theory.metric(0, 2) == 1
        assert theory.metric(0, 0) == 0

    def test_theory_is_an_immutable_value(self):
        theory = RSpinTheory(3)
        with pytest.raises(AttributeError):
            theory.r = 4
        with pytest.raises(AttributeError):
            del theory.r
        with pytest.raises(AttributeError):
            theory.extra = 1
        assert theory.r == 3
        assert theory == RSpinTheory(3) and theory != RSpinTheory(4)
        assert hash(theory) == hash(RSpinTheory(3)) == hash((3,))
        assert repr(theory) == "RSpinTheory(r=3)"
