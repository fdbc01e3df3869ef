"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

All comparisons are exact.  Criterion 5 asserts the stated determinant closed
form verbatim; the determinant provably equals -((r-1)(r-2)/2)^n instead, so
that single criterion fails by design rather than being weakened (see the
adjacent product-form tests in test_relations.py for the identity that does
hold).
"""

import pytest

from rspinrel.selftest import run_acceptance


@pytest.fixture(scope="module")
def results():
    res = {r.id: r for r in run_acceptance()}
    for r in sorted(res.values(), key=lambda x: x.id):
        print(r.line())
    return res


def _check(results, cid, max_seconds=None):
    result = results[cid]
    print(result.line())
    if max_seconds is not None:
        assert result.elapsed_s < max_seconds, (
            f"criterion {cid} exceeded its runtime budget: "
            f"{result.elapsed_s:.2f}s >= {max_seconds}s"
        )
    assert result.passed, result.detail


def test_criterion_01_golden_span_two_marked_genus_one(results):
    _check(results, 1, max_seconds=1.0)


def test_criterion_02_genus_one_family(results):
    _check(results, 2, max_seconds=10.0)


def test_criterion_03_r_independence(results):
    _check(results, 3)


def test_criterion_04_symbolic_extraction(results):
    _check(results, 4)


def test_criterion_05_determinant_closed_form(results):
    _check(results, 5, max_seconds=5.0)


def test_criterion_06_genus_two(results):
    _check(results, 6)


def test_criterion_07_degree_gates(results):
    _check(results, 7)


def test_criterion_08_coefficient_identities(results):
    _check(results, 8)


def test_criterion_09_quantum_structure(results):
    _check(results, 9)


def test_criterion_10_r_matrix_properties(results):
    _check(results, 10)


def test_criterion_11_oracle_equivalence(results):
    _check(results, 11)


class TestMutationSensitivity:
    """Corrupting the first-order coefficient must break the checks."""

    def _patch(self, monkeypatch, corrupted):
        import rspinrel.cohft as cohft_module
        import rspinrel.selftest as selftest_module

        monkeypatch.setattr(cohft_module, "p_polynomial", corrupted)
        monkeypatch.setattr(selftest_module, "p_polynomial", corrupted)

    def test_global_sign_flip_detected_by_determinant(self, monkeypatch):
        # Relations are projective, so flipping the sign of every
        # first-order value rescales them invisibly; the determinant check
        # and the sum identity are the detectors for this fault.
        import rspinrel.cohft as cohft_module
        from rspinrel.oracles import system_matrix_det
        from rspinrel.selftest import _criterion_8

        original = cohft_module.p_polynomial

        def corrupted(m, a, r):
            value = original(m, a, r)
            return -value if m == 1 else value

        self._patch(monkeypatch, corrupted)
        assert not system_matrix_det(1, 3).matches_product_form
        assert not _criterion_8()[0]

    def test_partial_sign_flip_detected_by_golden_span(self, monkeypatch):
        import rspinrel.cohft as cohft_module
        from rspinrel.selftest import _criterion_1

        original = cohft_module.p_polynomial

        def corrupted(m, a, r):
            value = original(m, a, r)
            return -value if m == 1 and a == 0 else value

        self._patch(monkeypatch, corrupted)
        assert not _criterion_1()[0]

    def test_partial_sign_flip_detected_by_r_matrix_identities(self, monkeypatch):
        # Criterion 10 skips the zero entries of its factors; a corrupted
        # coefficient must still leave R * inverse R nonzero.
        import rspinrel.cohft as cohft_module
        from rspinrel.selftest import _criterion_10

        original = cohft_module.p_polynomial

        def corrupted(m, a, r):
            value = original(m, a, r)
            return -value if m == 1 and a == 0 else value

        self._patch(monkeypatch, corrupted)
        assert _criterion_10() == (False, "R * inverse R nonzero at order 2, r=3")
