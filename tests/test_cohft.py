import copy
import pickle
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from rspinrel import cohft
from rspinrel.cohft import (
    p_polynomial,
    p_polynomial_symbolic,
    p_row,
    r_inverse_entry,
    topological_value,
)
from rspinrel import oracles
from rspinrel.oracles import (
    cyclotomic_polynomial,
    idempotent_check,
    metric_matrix,
    quantum_structure_constants,
    r_forward_entry,
    r_forward_matrix,
    r_inverse_matrix,
)
from rspinrel.rpoly import RPoly
from rspinrel.strata import DegreeGateError, phi_degree, witten_degree


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

    @pytest.mark.parametrize("r", [3, 4, 7, 24])
    def test_rows_are_in_lowest_terms(self, r):
        # Unreduced rows keep their values, so only this sees a skipped gcd.
        for m in range(61):
            numerators, den = p_row(m, r)
            assert gcd(den, *numerators) == 1, m

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

    def test_bad_index_refused_before_any_row(self, monkeypatch):
        # The index is checked before the row is built, so a bad one neither
        # pays for rows 1..m nor replaces the stored row.
        p_row(3, 3)
        before = dict(cohft._last_rows)
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(cohft, "p_row", lambda m, r: built.append((m, r)))
            for m, a, r in ((5000, -1, 3), (7, 2, 3), (0, 9, 5)):
                with pytest.raises(ValueError, match=f"index a={a} out of range"):
                    p_polynomial(m, a, r)
        assert built == []
        with pytest.raises(ValueError, match="index a=-1 out of range"):
            p_polynomial(50, -1, 3)
        assert cohft._last_rows == before

    def test_deep_row_on_cold_cache_returns(self):
        # The recursion overflowed the interpreter stack here.
        p_polynomial.cache_clear()
        cohft._last_rows.pop(3, None)
        assert isinstance(p_polynomial(1500, 0, 3), Fraction)


def three_spin_row(m):
    """P_m(3, 0) and P_m(3, 1) from PPZ's 3-spin series: (6m)!/((3m)!(2m)!)
    times (-1/288)^m, and -(6m+1)/(6m-1) times that."""
    zero = Fraction(factorial(6 * m), factorial(3 * m) * factorial(2 * m)) * Fraction(-1, 288) ** m
    return [zero, -Fraction(6 * m + 1, 6 * m - 1) * zero]


class TestThreeSpinClosedForm:
    """At r = 3 the table is PPZ's 3-spin series in closed form, an oracle
    that shares no code with the recursion."""

    M_MAX = 300

    def test_p_row_up_to_m_300(self):
        for m in range(self.M_MAX + 1):
            numerators, den = p_row(m, 3)
            assert [Fraction(x, den) for x in numerators] == three_spin_row(m), m

    def test_p_polynomial_up_to_m_300(self):
        p_polynomial.cache_clear()
        for m in range(self.M_MAX + 1):
            assert [p_polynomial(m, a, 3) for a in (0, 1)] == three_spin_row(m), m

    @staticmethod
    def closed_form_r_inverse(m):
        """R^-1_m at r = 3 from the closed form: P_m(3, a) in row b, column
        a, where b + m = a mod 2, as ``r_inverse_matrix`` lays it out."""
        row = three_spin_row(m)
        return [[row[a] if (b + m - a) % 2 == 0 else 0 for a in range(2)] for b in range(2)]

    @pytest.mark.parametrize("source", ["closed form", "r_inverse_matrix"])
    def test_symplectic_up_to_order_40(self, source):
        # The sum over j + k = m of (-1)^k R^-1_j eta (R^-1_k)^T vanishes.
        eta = metric_matrix(3)
        inverse = [self.closed_form_r_inverse(m) if source == "closed form"
                   else r_inverse_matrix(m, 3) for m in range(41)]
        for m in range(1, 41):
            total = [[0, 0], [0, 0]]
            for k in range(m + 1):
                product = matmul(matmul(inverse[m - k], eta), [list(c) for c in zip(*inverse[k])])
                for i in range(2):
                    for j in range(2):
                        total[i][j] += (-1) ** k * product[i][j]
            assert total == [[0, 0], [0, 0]], m

    def test_r_inverse_matrix_is_the_closed_form(self):
        for m in range(41):
            assert r_inverse_matrix(m, 3) == self.closed_form_r_inverse(m), m


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
        for a in range(4):
            for b in range(4):
                expected = Fraction(1 if a == b else 0)
                assert r_inverse_entry(0, a, b, 5) == expected
                assert r_forward_entry(0, a, b, 5) == expected

    def test_inverse_entry_values(self):
        assert r_inverse_entry(1, 1, 0, 3) == Fraction(7, 24)
        assert r_inverse_entry(1, 0, 0, 3) == 0  # congruence fails

    def test_forward_entry_sign(self):
        assert r_forward_entry(1, 1, 0, 3) == Fraction(-7, 24)

    def test_unit_column_vanishing_used_in_genus_3(self):
        # The entry with both indices 0 at order 1 is zero; this is what
        # kills the genus 1+2 separating graph.
        assert r_inverse_entry(1, 0, 0, 3) == 0

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            r_inverse_entry(1, 2, 0, 3)


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
            d = r - 1
            order_zero = matmul(r_forward_matrix(0, r), r_inverse_matrix(0, r))
            assert order_zero == [
                [Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)
            ]
            for m in (1, 2):
                total = [[Fraction(0)] * d for _ in range(d)]
                for k in range(m + 1):
                    prod = matmul(
                        r_forward_matrix(k, r), r_inverse_matrix(m - k, r)
                    )
                    for i in range(d):
                        for j in range(d):
                            total[i][j] += prod[i][j]
                assert all(x == 0 for row in total for x in row), (r, m)

    def test_symplectic_through_order_two(self):
        for r in range(3, 9):
            d = r - 1
            eta = metric_matrix(r)
            for m in (1, 2):
                total = [[Fraction(0)] * d for _ in range(d)]
                for k in range(m + 1):
                    sign = (-1) ** (m - k)
                    left = r_forward_matrix(k, r)
                    right = r_forward_matrix(m - k, r)
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
            value = topological_value(0, (1, 0, r - 3), r)
            assert value == 1

    def test_genus_one_values(self):
        assert topological_value(1, (0, 0), 3) == 2
        assert topological_value(1, (1, 0), 3) == 0

    def test_returns_value_only(self):
        # (r-1)^g for an admissible insertion sum, as one exact rational.
        value = topological_value(2, (1,), 5)
        assert type(value) is Fraction and value == 16

    def test_unstable_raises(self):
        with pytest.raises(ValueError):
            topological_value(0, (0, 0), 3)

    def test_separating_contraction(self):
        # Value of the glued vertex equals the metric contraction of the two pieces.
        for r in (3, 4, 5):
            cases = [
                (1, (0,), 1, (0,)),
                (1, (1, 0), 1, ()),
                (2, (0,), 1, (1,)),
            ]
            for g1, a1, g2, a2 in cases:
                if 2 * g1 - 2 + len(a1) + 1 <= 0 or 2 * g2 - 2 + len(a2) + 1 <= 0:
                    continue
                whole = topological_value(g1 + g2, tuple(a1) + tuple(a2), r)
                contraction = Fraction(0)
                for j in range(r - 1):
                    left = topological_value(g1, tuple(a1) + (j,), r)
                    right = topological_value(g2, tuple(a2) + (r - 2 - j,), r)
                    contraction += left * right
                assert contraction == whole

    def test_nonseparating_contraction(self):
        for r in (3, 4):
            for g, a_vec in ((2, (0,)), (2, (1,)), (3, (0,))):
                whole = topological_value(g, a_vec, r)
                contraction = Fraction(0)
                for j in range(r - 1):
                    value = topological_value(g - 1, tuple(a_vec) + (j, r - 2 - j), r)
                    contraction += value
                assert contraction == whole


class TestQuantumProduct:
    def test_unit(self):
        for r in range(3, 7):
            sc = quantum_structure_constants(r)
            for b in range(r - 1):
                assert sc.product_index(0, b) == b
                assert sc.coefficient(b, 0, b) == 1

    def test_r3_square(self):
        sc = quantum_structure_constants(3)
        assert sc.product_index(1, 1) == 0

    def test_associative_commutative(self):
        for r in range(3, 7):
            sc = quantum_structure_constants(r)
            d = r - 1
            for a in range(d):
                for b in range(d):
                    assert sc.product_index(a, b) == sc.product_index(b, a)
                    for c in range(d):
                        assert sc.product_index(
                            sc.product_index(a, b), c
                        ) == sc.product_index(a, sc.product_index(b, c))


def x_power_minus_one(m):
    return RPoly((-1,) + (0,) * (m - 1) + (1,))


class TestIdempotents:
    def test_all_small_r(self):
        for r in range(3, 7):
            report = idempotent_check(r)
            assert report.ok, report.failures
            assert report.geometric_sums_ok and report.idempotent_identity_ok

    def test_r3_by_hand(self):
        # With the primitive square root of unity -1: f_0 = v_0 + v_1 and
        # f_1 = v_0 - v_1 multiply to zero, squares have coefficient 2.
        report = idempotent_check(3)
        assert report.ok

    def test_a_reducible_modulus_fails(self, monkeypatch):
        # Modulo x^m - 1 the powers of x are not roots of Phi_m, so the
        # geometric sums stay nonzero.
        monkeypatch.setattr(oracles, "cyclotomic_polynomial", x_power_minus_one)
        report = idempotent_check(5)
        assert not report.ok and not report.geometric_sums_ok


class TestCyclotomicPolynomial:
    BY_HAND = {
        1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
        6: (1, -1, 1), 7: (1,) * 7, 8: (1, 0, 0, 0, 1), 9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1), 11: (1,) * 11, 12: (1, 0, -1, 0, 1),
    }

    @pytest.mark.parametrize("m", sorted(BY_HAND))
    def test_by_hand(self, m):
        assert cyclotomic_polynomial(m) == RPoly(self.BY_HAND[m])

    def test_divisor_product_is_x_power_minus_one(self):
        for m in range(1, 41):
            product = RPoly((1,))
            for d in range(1, m + 1):
                if m % d == 0:
                    product = product * cyclotomic_polynomial(d)
            assert product == x_power_minus_one(m)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    def test_prime_is_the_geometric_sum(self, p):
        assert cyclotomic_polynomial(p) == RPoly((1,) * p)

    def test_nonpositive_order(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


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

    def test_gate_refusal_carries_the_class_degree(self):
        # The refusal reads only sum(a), so it builds no n-long vector.
        for g, r in ((1, 3), (2, 5), (4, 3), (3, 4)):
            for a_vec in ((), (0,), (1, 0), (r - 2, 1, 0)):
                error = DegreeGateError(g, len(a_vec), sum(a_vec), r)
                assert error.witten_degree == witten_degree(g, len(a_vec), a_vec, r)
                assert f"with sum(a) = {sum(a_vec)}: " in str(error)

    @pytest.mark.parametrize("clone", [
        lambda error: pickle.loads(pickle.dumps(error)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_gate_refusal_pickles_and_copies(self, clone):
        error = DegreeGateError(4, 0, 0, 3)
        twin = clone(error)
        assert type(twin) is DegreeGateError and twin is not error
        assert str(twin) == str(error)
        assert twin.witten_degree == error.witten_degree == 1

    def test_refusal_writes_the_class_degree_as_a_fraction_would(self):
        # Every sum the gate refuses, up to 3r, so every residue of the
        # degree's numerator mod r; each sum is that of a valid leg vector.
        for g in range(1, 9):
            for r in range(3, 13):
                for a_sum in range(3 * r):
                    a_vec = (r - 2,) * (a_sum // (r - 2)) + (a_sum % (r - 2),)
                    if phi_degree(g, a_vec, r).relation_exists:
                        continue
                    message = str(DegreeGateError(g, len(a_vec), a_sum, r))
                    degree = message.split(" has degree ")[1].split(" ")[0]
                    assert degree == str(witten_degree(g, len(a_vec), a_vec, r)), (g, r, a_sum)

    def test_phi_degree_examples(self):
        report = phi_degree(1, (1, 0), 3)
        assert report.value == -2 and report.relation_exists and report.d_integral
        report = phi_degree(2, (), 3)
        assert report.value == -2 and report.relation_exists and report.d_integral
        report = phi_degree(4, (), 3)
        assert report.value == 0 and not report.relation_exists
        report = phi_degree(3, (), 3)
        assert report.value == -1 and report.relation_exists and not report.d_integral


# One call of each function of r, every other argument valid at r = 3.
CALLS_OF_R = {
    "check_index": lambda r: cohft.check_index(0, r),
    "r_inverse_entry": lambda r: r_inverse_entry(0, 0, 0, r),
    "topological_value": lambda r: topological_value(2, (), r),
    "graph_contribution_terms": lambda r: oracles.graph_contribution_terms(2, 0, (), r),
    "edge_constant_term": lambda r: oracles.edge_constant_term(0, 0, r),
    "r_forward_entry": lambda r: r_forward_entry(0, 0, 0, r),
    "r_forward_matrix": lambda r: r_forward_matrix(0, r),
    "r_inverse_matrix": lambda r: r_inverse_matrix(0, r),
    "metric_matrix": metric_matrix,
    "quantum_structure_constants": quantum_structure_constants,
    "idempotent_check": idempotent_check,
    "witten_degree": lambda r: witten_degree(1, 0, (), r),
}


class TestPlainR:
    # Refused before any division by r - 1 or loop over 0..r-2, so neither a
    # ZeroDivisionError nor an empty result gets out.
    @pytest.mark.parametrize("r", [-1, 0, 1, 2])
    @pytest.mark.parametrize("name", sorted(CALLS_OF_R))
    def test_refuses_r_below_three(self, name, r):
        CALLS_OF_R[name](3)
        with pytest.raises(ValueError, match="^r must be at least 3$"):
            CALLS_OF_R[name](r)

    def test_check_index_refuses_r_then_the_index(self):
        with pytest.raises(ValueError, match="^r must be at least 3$"):
            cohft.check_index(5, 2)
        with pytest.raises(ValueError, match=r"^basis index 3 out of range 0\.\.2$"):
            cohft.check_index(3, 4)
        cohft.check_index(2, 4)

    def test_metric_is_the_anti_diagonal(self):
        assert metric_matrix(4) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    @pytest.mark.parametrize("entry", [r_inverse_entry, r_forward_entry])
    def test_entry_refuses_negative_order_first(self, entry):
        # At (m, a, b) = (-1, 0, 0) the congruence fails, so a check made
        # after it would return 0.
        with pytest.raises(ValueError, match="^m must be nonnegative$"):
            entry(-1, 0, 0, 3)

    def test_topological_value_refuses_negative_genus(self):
        # 2g - 2 + n > 0 alone admits g = -1 with five insertions.
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            topological_value(-1, (0,) * 5, 3)
