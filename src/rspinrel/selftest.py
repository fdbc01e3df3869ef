"""Acceptance checks, runnable from the CLI and from the test suite.

Every check is exact (tolerance zero); each returns a verdict with timing so
the CLI can print one pass/fail line per criterion.  The two oracle checks
near the end use independently coded baselines: a from-scratch one-edge graph
generator and a direct, uncached transcription of the coefficient recursion.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .cohft import p_polynomial
from .linalg import primitive_int_vector, rref
from .matrix_oracles import (
    idempotent_check,
    metric_matrix,
    quantum_structure_constants,
    r_forward_matrix,
    r_inverse_matrix,
    system_matrix_det,
)
from .oracles import (
    delta_irr,
    delta_sep,
    divisor_class_of,
    divisor_generators,
    enumerate_contributing_graphs,
    graph_contribution_terms,
    kappa1,
    psi,
)
from .relations import (
    ac_relations,
    assembled_relation_set,
    ppz_relation_set,
    relation_row,
    spans_equal,
)
from .strata import DegreeGateError


class CriterionResult(NamedTuple):
    id: int
    title: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.id}: {self.title} ({self.elapsed_s:.2f}s) {self.detail}"

    def record(self) -> dict:
        """The verdict record ``selftest`` prints in JSON."""
        return {"id": self.id, "title": self.title, "verdict": "PASS" if self.passed else "FAIL",
                "detail": self.detail, "elapsed_s": round(self.elapsed_s, 3)}


def _target(g, n, coeffs) -> tuple[int, ...]:
    """The primitive integer row, first nonzero entry positive, of the
    relation with these class coefficients over the (g, n) basis."""
    return primitive_int_vector([coeffs.get(d, 0) for d in divisor_generators(g, n)])


def _criterion_1() -> tuple[bool, str]:
    """Genus 1, two markings, r = 3: span equals the three golden relations."""
    computed = ppz_relation_set(1, 2, 3).reduced_rows()
    targets = rref([
        _target(1, 2, {psi(1): 1, psi(2): -1}),
        _target(1, 2, {psi(1): 2, delta_sep(0, {1, 2}): -1, kappa1(): -1}),
        _target(1, 2, {psi(1): 12, delta_irr(): -1, delta_sep(0, {1, 2}): -12}),
    ])[0]
    ranks = len(computed), len(targets), len(rref(computed + targets)[1])
    reduced_match = computed == targets
    ok = ranks[0] == ranks[1] == ranks[2] and reduced_match
    return ok, f"ranks {ranks[0]}/{ranks[1]}/{ranks[2]}, row-reduced match: {reduced_match}"


def _criterion_2() -> tuple[bool, str]:
    """Genus 1, n = 1..6 at r = 3: span equals the known complete set."""
    failures = []
    for n in range(1, 7):
        report = spans_equal(ppz_relation_set(1, n, 3), ac_relations(1, n))
        if not (report.equal and report.rank_left == n + 1):
            failures.append(f"n={n}: {report}")
    return not failures, "; ".join(failures) or "ranks n+1, spans equal for n=1..6"


def _criterion_3() -> tuple[bool, str]:
    """Genus 1, n = 3: spans at r = 3, 4, 5 coincide pairwise."""
    sets = {r: ppz_relation_set(1, 3, r) for r in (3, 4, 5)}
    failures = []
    for ra, rb in ((3, 4), (3, 5), (4, 5)):
        report = spans_equal(sets[ra], sets[rb])
        if not report.equal:
            failures.append(f"r={ra} vs r={rb}: {report}")
    return not failures, "; ".join(failures) or "pairwise equal spans at r=3,4,5"


def _criterion_4() -> tuple[bool, str]:
    """Symbolic extraction for genus 1, n = 3 at powers r^3 and r^2."""
    extracted = assembled_relation_set(1, 3, [(1, 0, 0)])
    rows = {prov.r_mode: row for prov, row in zip(extracted.provenances, extracted.rows)}
    seps = [d for d in divisor_generators(1, 3) if d.kind == "delta_sep"]
    target_r3 = _target(1, 3, {kappa1(): 1, **{psi(i): -1 for i in range(1, 4)},
                               **{d: 1 for d in seps}})
    target_r2 = _target(1, 3, {psi(1): 19, psi(2): 7, psi(3): 7, kappa1(): -7, delta_irr(): -1,
                               **{d: -19 if 1 in d.markings else -7 for d in seps}})
    ok3, ok2 = rows.get("r^3") == target_r3, rows.get("r^2") == target_r2
    return ok3 and ok2, f"r^3 match: {ok3}, r^2 match: {ok2}"


def _criterion_5() -> tuple[bool, str]:
    """Determinant of the genus-1 system vs the closed form -(1-r)^n (2-r)^2/4.

    The matrix determinant provably equals -((r-1)(r-2)/2)^n (the product
    form), which agrees with the closed form only at n = 2 and, for even n,
    at r = 4; this check therefore fails honestly on the other cases while
    the product form is confirmed everywhere.
    """
    mismatches = 0
    product_ok = 0
    total = 0
    for n in range(1, 9):
        for r in range(3, 11):
            report = system_matrix_det(n, r)
            total += 1
            if not report.matches_reference:
                mismatches += 1
            if report.matches_product_form:
                product_ok += 1
    sym_mismatch = 0
    for n in range(1, 5):
        report = system_matrix_det(n, symbolic=True)
        total += 1
        if not report.matches_reference:
            sym_mismatch += 1
        if report.matches_product_form:
            product_ok += 1
    ok = mismatches == 0 and sym_mismatch == 0
    return ok, (
        f"{mismatches + sym_mismatch}/{total} cases disagree with the closed form; "
        f"determinant equals -((r-1)(r-2)/2)^n in {product_ok}/{total} cases"
    )


def _criterion_6() -> tuple[bool, str]:
    """Genus 2: the unmarked relation and its two-marking pullback.  The
    sets' rows are written out primitive, first nonzero entry positive."""
    ok0 = ppz_relation_set(2, 0, 3).rows == [
        _target(2, 0, {kappa1(): 5, delta_irr(): -1, delta_sep(1, ()): -7})
    ]
    target = _target(2, 2, {
        kappa1(): 5,
        psi(1): -5,
        psi(2): -5,
        delta_sep(0, {1, 2}): 5,
        delta_irr(): -1,
        delta_sep(1, ()): -7,
        delta_sep(1, {1}): -7,
    })
    ok2 = ppz_relation_set(2, 2, 3).rows == [target]
    return ok0 and ok2, f"unmarked: {ok0}, two markings: {ok2}"


def _criterion_7() -> tuple[bool, str]:
    """Degree gates: genus 4 refuses, genus 3 gives an all-zero assembly."""
    try:
        relation_row(4, 0, (), 3)
        gate_ok = False
        gate_detail = "no refusal"
    except DegreeGateError as exc:
        gate_ok = exc.witten_degree == 1
        gate_detail = f"refused with class degree {exc.witten_degree}"
    terms = graph_contribution_terms(3, 0, (), 3)
    all_zero = all(t.coefficient == 0 for t in terms)
    zero = not any(relation_row(3, 0, (), 3))
    return gate_ok and all_zero and zero, (
        f"{gate_detail}; genus 3 contributions all zero: {all_zero} "
        f"({len(terms)} graph terms)"
    )


def _criterion_8() -> tuple[bool, str]:
    """Coefficient identities: row sums and the closed form for P_1."""
    for r in range(3, 13):
        total = sum(p_polynomial(1, a, r) for a in range(r - 1))
        if total != Fraction((r - 1) * (r - 2), 24):
            return False, f"sum identity fails at r={r}"
        for a in range(r - 1):
            closed = Fraction(a * (r - 1 - a), 2) - Fraction((2 * r - 1) * (r - 2), 24)
            if p_polynomial(1, a, r) != closed:
                return False, f"closed form fails at r={r}, a={a}"
    return True, "sum and closed-form identities hold for r=3..12"


def _criterion_9() -> tuple[bool, str]:
    """Quantum product structure and idempotents, exactly, for r <= 6."""
    for r in range(3, 7):
        sc = quantum_structure_constants(r)
        d = r - 1
        for a in range(d):
            if sc.product_index(0, a) != a:
                return False, f"unit axiom fails at r={r}"
            for b in range(d):
                if sc.product_index(a, b) != sc.product_index(b, a):
                    return False, f"commutativity fails at r={r}"
                for c in range(d):
                    left = sc.product_index(sc.product_index(a, b), c)
                    right = sc.product_index(a, sc.product_index(b, c))
                    if left != right:
                        return False, f"associativity fails at r={r}"
        report = idempotent_check(r)
        if not report.ok:
            return False, f"idempotent check fails at r={r}: {report.failures[:3]}"
    return True, "product axioms and idempotent identity hold for r=3..6"


def _criterion_10() -> tuple[bool, str]:
    """Truncated inverse and symplectic identities through order 2, r <= 8."""
    # The products skip zeros: each column of an R-matrix or of eta has one
    # nonzero entry.
    for r in range(3, 9):
        d = r - 1
        eta = metric_matrix(r)
        fwd = {m: r_forward_matrix(m, r) for m in range(3)}
        inv = {m: r_inverse_matrix(m, r) for m in range(3)}
        for m in (1, 2):
            total = [[Fraction(0)] * d for _ in range(d)]
            for k in range(m + 1):
                left, right = fwd[k], inv[m - k]
                for i in range(d):
                    for t in range(d):
                        if left[i][t]:
                            for j in range(d):
                                total[i][j] += left[i][t] * right[t][j]
            if any(x != 0 for row in total for x in row):
                return False, f"R * inverse R nonzero at order {m}, r={r}"
        for m in (1, 2):
            total = [[Fraction(0)] * d for _ in range(d)]
            for k in range(m + 1):
                sign = (-1) ** (m - k)
                left, right = fwd[k], fwd[m - k]
                for i in range(d):
                    for j in range(d):
                        if eta[i][j]:
                            for a in range(d):
                                if left[i][a]:
                                    scale = sign * left[i][a] * eta[i][j]
                                    for b in range(d):
                                        total[a][b] += scale * right[j][b]
            if any(x != 0 for row in total for x in row):
                return False, f"symplectic condition fails at order {m}, r={r}"
    return True, "identity and symplectic checks hold through order 2 for r=3..8"


def _one_edge_classes_brute_force(g: int, n: int) -> set:
    """Independent generator of one-edge stable graph classes: partition the
    genus and the marking set directly, plus the loop."""
    classes = set()
    marks = set(range(1, n + 1))
    if 2 * (g - 1) - 2 + n + 2 > 0:
        classes.add(delta_irr())
    for h in range(0, g + 1):
        for size in range(0, n + 1):
            for S in combinations(sorted(marks), size):
                other = g - h
                if 2 * h - 2 + len(S) + 1 <= 0:
                    continue
                if 2 * other - 2 + (n - len(S)) + 1 <= 0:
                    continue
                Sc = tuple(sorted(marks - set(S)))
                key, key_c = (h, tuple(S)), (other, Sc)
                label = key if key <= key_c else key_c
                classes.add(delta_sep(label[0], label[1]))
    return classes


def _p_by_direct_summation(m: int, a: int, r: int) -> Fraction:
    """Independent transcription of the recursion (no caching, no reuse)."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    b = 1
    while b <= a:
        acc += Fraction(2 * m * r - r - 2 * b, 2) * _p_by_direct_summation(m - 1, b - 1, r)
        b += 1
    b = 1
    while b <= r - 2:
        weight = Fraction((r - 1 - b) * (2 * m * r - b) * (2 * m * r - r - 2 * b),
                          4 * m * r * (r - 1))
        acc -= weight * _p_by_direct_summation(m - 1, b - 1, r)
        b += 1
    return acc


def _criterion_11() -> tuple[bool, str]:
    """Oracle equivalence: enumeration vs brute force, recursion vs re-coding."""
    for n in (1, 2, 3):
        enumerated = {
            divisor_class_of(c.graph, 1, n)
            for c in enumerate_contributing_graphs(1, n)
            if c.graph.edges
        }
        brute = _one_edge_classes_brute_force(1, n)
        if enumerated != brute:
            return False, f"one-edge classes differ at n={n}: {enumerated ^ brute}"
    for r in range(3, 7):
        for a in range(r - 1):
            if p_polynomial(2, a, r) != _p_by_direct_summation(2, a, r):
                return False, f"recursion mismatch at m=2, a={a}, r={r}"
    return True, "enumeration and recursion match their independent baselines"


_CRITERIA = (
    (1, "golden relation span on the two-marked genus-1 space", _criterion_1),
    (2, "genus-1 family matches the known complete set, n = 1..6", _criterion_2),
    (3, "genus-1 spans are independent of r", _criterion_3),
    (4, "symbolic extraction at powers r^3 and r^2", _criterion_4),
    (5, "system determinant closed form", _criterion_5),
    (6, "genus-2 relation and its pullback", _criterion_6),
    (7, "degree gates in genus 3 and 4", _criterion_7),
    (8, "coefficient sum and closed-form identities", _criterion_8),
    (9, "quantum product axioms and idempotents", _criterion_9),
    (10, "inverse and symplectic identities through order 2", _criterion_10),
    (11, "independent oracle equivalence", _criterion_11),
)


def run_acceptance() -> list[CriterionResult]:
    """Run every acceptance criterion; exact comparisons throughout."""
    results = []
    for cid, title, fn in _CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(cid, title, passed, detail, elapsed))
    return results
