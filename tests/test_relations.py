import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from rspinrel.cohft import RSpinTheory, phi_degree, r_inverse_entry, topological_value
from rspinrel.linalg import primitive_int_vector, rref
from rspinrel.relations import (
    AssemblyError,
    BasisMismatchError,
    DegreeGateError,
    RelationSet,
    Provenance,
    _contract,
    _edge_entries,
    _expand,
    _leg_sum,
    ac_relations,
    admissible_leg_vectors,
    assembled_relation_set,
    edge_constant_term,
    ppz_relation_set,
    relation_row,
    spans_equal,
)
from rspinrel.oracles import (
    DenseRelationSet,
    RationalMatrix,
    Relation,
    assemble_relation,
    canonical_divisor,
    enumerate_contributing_graphs,
    extract_r_coefficients,
    graph_contribution_terms,
    pullback_genus2,
    rank_and_solve,
    system_matrix_det,
)
from rspinrel.rpoly import RPoly, poly_interpolate
from rspinrel.strata import (
    delta_irr,
    delta_sep,
    divisor_generators,
    kappa1,
    psi,
)
from test_linalg import fraction_rref

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from perfbench import workloads  # noqa: E402
from perfbench.workloads import G1_NR  # noqa: E402


def scan_admissible_leg_vectors(g, n, r):
    """Oracle for admissible_leg_vectors: the full scan of all (r-1)^n
    vectors, each checked against the gate and the parity condition."""
    out = []
    for a_vec in product(range(r - 1), repeat=n):
        if not phi_degree(g, 1, a_vec, r).relation_exists:
            continue
        if (sum(a_vec) - g) % (r - 1) != 0:
            continue
        out.append(a_vec)
    return out


def per_graph_coefficients(g, n, a_vec, r):
    """Oracle for assemble_relation: r^(g-1) times the per-divisor sum of
    the per-graph terms, zero coefficients dropped."""
    sums = {}
    for term in graph_contribution_terms(g, n, a_vec, RSpinTheory(r)):
        sums[term.divisor] = sums.get(term.divisor, Fraction(0)) + term.coefficient
    return {d: c * r ** (g - 1) for d, c in sums.items() if c != 0}


SAMPLE_RS = (3, 4, 5, 6, 7, 8)


@lru_cache(maxsize=None)
def per_class_symbolic(n, a_vec):
    """Oracle for the keyed symbolic assembly: every genus-1 class's column
    of per-graph values at the six sample r, interpolated on its own; zero
    polynomials dropped."""
    numeric = [per_graph_coefficients(1, n, a_vec, r) for r in SAMPLE_RS]
    coefficients = {}
    for divisor in divisor_generators(1, n):
        samples = [(r, c.get(divisor, 0)) for r, c in zip(SAMPLE_RS, numeric)]
        poly = poly_interpolate(samples, degree_bound=3)
        if poly:
            coefficients[divisor] = poly
    return coefficients


def per_class_extract(n, coefficients):
    """Oracle for the keyed extraction: (r_mode, row) for each power of r,
    highest first, each row the primitive integer vector of every class's
    coefficient of that power; zero rows skipped."""
    columns = [coefficients.get(d, RPoly.zero()).coeffs for d in divisor_generators(1, n)]
    found = []
    for power in range(max(map(len, columns), default=0) - 1, -1, -1):
        row = primitive_int_vector(
            [col[power] if power < len(col) else Fraction(0) for col in columns]
        )
        if any(row):
            found.append((f"r^{power}", row))
    return found


def per_class_relation_rows(n, r):
    """Oracle for ppz_relation_set(1, n, r): (a, r_mode, row) for each
    admissible leg vector's numeric relation and then its extracted ones."""
    basis = divisor_generators(1, n)
    found = []
    for a_vec in admissible_leg_vectors(1, n, r):
        numeric = per_graph_coefficients(1, n, a_vec, r)
        row = primitive_int_vector([numeric.get(d, Fraction(0)) for d in basis])
        if any(row):
            found.append((a_vec, r, row))
        extracted = per_class_extract(n, per_class_symbolic(n, a_vec))
        found += [(a_vec, r_mode, row) for r_mode, row in extracted]
    return found


def labelled_rows(relation_set):
    return [
        (prov.a_vec, prov.r_mode, row)
        for prov, row in zip(relation_set.provenances, relation_set.rows)
    ]


def loop_edge_numerator_coefficient(mp, mq, p, q, theory):
    """Coefficient of psi'^mp psi''^mq in the edge numerator
    eta - (inverse R) eta (inverse R transposed) for the insertion pair
    (p, q), as the full sum over the middle index j: the oracle for
    edge_constant_term at orders (1, 0) and (0, 1)."""
    if mp == 0 and mq == 0:
        return Fraction(0)
    total = Fraction(0)
    for j in range(theory.dimension):
        left = r_inverse_entry(mp, j, p, theory) if mp else Fraction(1 if j == p else 0)
        if left == 0:
            continue
        jj = theory.r - 2 - j
        right = r_inverse_entry(mq, jj, q, theory) if mq else Fraction(1 if jj == q else 0)
        total += left * right
    return -total


def loop_leg_sum(g, insertions, i, theory):
    """Oracle for _leg_sum: the full sum over every index b of leg i."""
    total = Fraction(0)
    for b in range(theory.dimension):
        entry = r_inverse_entry(1, insertions[i], b, theory)
        if entry == 0:
            continue
        moved = list(insertions)
        moved[i] = b
        total += entry * topological_value(g, moved, theory)
    return total


def reference(g, n, coeffs):
    return Relation(
        coefficients={k: Fraction(v) for k, v in coeffs.items()},
        provenance=Provenance(g=g, n=n, a_vec=None, r_mode="reference"),
    )


def dict_ac_relations_genus_one(n):
    """Oracle for ac_relations(1, n): each Arbarello-Cornalba relation as a
    class-keyed dict, read back over the basis by DenseRelationSet.of."""
    basis = tuple(divisor_generators(1, n))
    seps = [d for d in basis if d.kind == "delta_sep"]
    relations = []
    for i in range(1, n + 1):
        coeffs = {psi(i): 12, delta_irr(): -1}
        coeffs.update({d: -12 for d in seps if i in d.markings})
        relations.append(reference(1, n, coeffs))
    coeffs = {kappa1(): 1, **{psi(i): -1 for i in range(1, n + 1)}, **{d: 1 for d in seps}}
    relations.append(reference(1, n, coeffs))
    return DenseRelationSet.of(basis, relations)


def dict_pullback_genus2(rel, n):
    """Oracle for pullback_genus2: the pulled-back relation built one class at
    a time into a class-keyed dict, scanning the basis for the separating
    classes."""
    if n == 0:
        return rel
    zero = Fraction(0)
    k = rel.coefficients.get(kappa1(), zero)
    irr = rel.coefficients.get(delta_irr(), zero)
    d1 = rel.coefficients.get(delta_sep(1, frozenset()), zero)
    coeffs = {}

    def add(d, value):
        if value != 0:
            coeffs[d] = coeffs.get(d, zero) + value

    add(kappa1(), k)
    for i in range(1, n + 1):
        add(psi(i), -k)
    add(delta_irr(), irr)
    for divisor in divisor_generators(2, n):
        if divisor.kind == "delta_sep":
            add(divisor, k if divisor.h == 0 else d1)
    return Relation(coefficients=coeffs, provenance=rel.provenance._replace(n=n))


class TestAssemblyGoldens:
    def test_two_marked_genus_one(self):
        basis = tuple(divisor_generators(1, 2))
        rel = assemble_relation(1, 2, (1, 0), 3)
        assert rel.normalized_vector(basis) == (7, -5, 5, -1, -7)

    def test_leg_vector_swap(self):
        basis = tuple(divisor_generators(1, 2))
        rel = assemble_relation(1, 2, (0, 1), 3)
        assert rel.normalized_vector(basis) == (5, -7, -5, 1, 7)

    def test_unmarked_genus_two(self):
        basis = tuple(divisor_generators(2, 0))
        rel = assemble_relation(2, 0, (), 3)
        assert rel.normalized_vector(basis) == (5, -1, -7)

    def test_genus_two_vanishes_beyond_r3(self):
        assert assemble_relation(2, 0, (), 4).is_zero()
        assert assemble_relation(2, 0, (), 5).is_zero()

    def test_genus_three_zero_with_all_terms_zero(self):
        terms = graph_contribution_terms(3, 0, (), RSpinTheory(3))
        assert terms, "expected graph terms to be listed"
        assert all(t.coefficient == 0 for t in terms)
        assert assemble_relation(3, 0, (), 3).is_zero()

    def test_one_marked_genus_one(self):
        basis = tuple(divisor_generators(1, 1))
        rel = assemble_relation(1, 1, (1,), 3)
        # 7 psi + 5 kappa - delta_irr; equivalent to 12 psi = delta_irr
        # given kappa = psi on the one-marked space.
        assert rel.normalized_vector(basis) == (7, 5, -1)


class TestSymbolicAssembly:
    def test_coefficients_match_closed_forms(self):
        rel = assemble_relation(1, 2, (1, 0), symbolic=True)
        r = RPoly.variable()
        p1_at = lambda a: Fraction(a, 2) * (r - 1 - a) - (2 * r - 1) * (r - 2) * Fraction(1, 24)
        assert rel.coefficients[psi(1)] == (r - 1) * p1_at(1)
        assert rel.coefficients[psi(2)] == (r - 1) * p1_at(0)
        assert rel.coefficients[kappa1()] == -(r - 1) * p1_at(0)
        assert rel.coefficients[delta_sep(0, {1, 2})] == -(r - 1) * p1_at(1)
        assert rel.coefficients[delta_irr()] == -(r - 1) * (r - 2) * Fraction(1, 24)

    def test_symbolic_requires_genus_one(self):
        with pytest.raises(Exception):
            assemble_relation(2, 0, (), symbolic=True)

    def test_symbolic_and_numeric_agree(self):
        rel = assemble_relation(1, 3, (0, 1, 0), symbolic=True)
        for r in (3, 4, 5, 9, 11):
            numeric = assemble_relation(1, 3, (0, 1, 0), r)
            for divisor, poly in rel.coefficients.items():
                assert poly(r) == numeric.coefficients.get(divisor, Fraction(0))


class TestExtraction:
    def test_powers_for_three_markings(self):
        basis = tuple(divisor_generators(1, 3))
        symbolic = assemble_relation(1, 3, (1, 0, 0), symbolic=True)
        extracted = {
            rel.provenance.r_mode: rel
            for rel in extract_r_coefficients(symbolic).relations
        }
        target_r3 = reference(
            1, 3,
            {
                kappa1(): 1, psi(1): -1, psi(2): -1, psi(3): -1,
                delta_sep(0, {1, 2}): 1, delta_sep(0, {1, 3}): 1,
                delta_sep(0, {2, 3}): 1, delta_sep(0, {1, 2, 3}): 1,
            },
        )
        target_r2 = reference(
            1, 3,
            {
                psi(1): 19, psi(2): 7, psi(3): 7, kappa1(): -7, delta_irr(): -1,
                delta_sep(0, {1, 2}): -19, delta_sep(0, {1, 3}): -19,
                delta_sep(0, {1, 2, 3}): -19, delta_sep(0, {2, 3}): -7,
            },
        )
        assert extracted["r^3"].normalized_vector(basis) == target_r3.normalized_vector(basis)
        assert extracted["r^2"].normalized_vector(basis) == target_r2.normalized_vector(basis)

    def test_lower_powers_are_consequences(self):
        symbolic = assemble_relation(1, 2, (1, 0), symbolic=True)
        extracted = extract_r_coefficients(symbolic)
        high = DenseRelationSet.of(
            extracted.basis,
            [
                rel for rel in extracted.relations
                if rel.provenance.r_mode in ("r^3", "r^2")
            ],
        )
        assert spans_equal(high, extracted).equal

    def test_scale_independence(self):
        symbolic = assemble_relation(1, 2, (1, 0), symbolic=True)
        scaled = Relation(
            {d: c * Fraction(3, 7) for d, c in symbolic.coefficients.items()},
            symbolic.provenance,
        )
        report = spans_equal(
            extract_r_coefficients(symbolic), extract_r_coefficients(scaled)
        )
        assert report.equal

    def test_numeric_mode_rejected(self):
        numeric = assemble_relation(1, 2, (1, 0), 3)
        with pytest.raises(ValueError):
            extract_r_coefficients(numeric)

    def test_symbolic_relation_has_no_normalized_vector(self):
        symbolic = assemble_relation(1, 2, (1, 0), symbolic=True)
        with pytest.raises(ValueError, match="requires a numeric relation"):
            symbolic.normalized_vector(divisor_generators(1, 2))
        # Zero polynomials are dropped like zero rationals.
        rel = Relation({psi(1): RPoly.zero(), psi(2): RPoly.variable()}, symbolic.provenance)
        assert rel.coefficients == {psi(2): RPoly.variable()}


class TestRecordTypes:
    def test_provenance_replace(self):
        prov = Provenance(g=1, n=3, a_vec=(1, 0, 0), r_mode="symbolic")
        moved = prov._replace(r_mode="r^2")
        assert moved == Provenance(1, 3, (1, 0, 0), "r^2")
        assert prov.r_mode == "symbolic"
        assert prov._replace(n=5) == Provenance(g=1, n=5, a_vec=(1, 0, 0), r_mode="symbolic")
        with pytest.raises(AttributeError):
            prov.g = 2

    def test_span_report_fields(self):
        report = spans_equal(ppz_relation_set(1, 3, 3), ac_relations(1, 3))
        assert report._fields == ("equal", "rank_left", "rank_right", "rank_union")
        assert (report.equal, report.rank_left, report.rank_right, report.rank_union) == (
            True, 4, 4, 4
        )
        assert repr(report) == (
            "SpanReport(equal=True, rank_left=4, rank_right=4, rank_union=4)"
        )

    def test_relation_equality_and_zero_filter(self):
        rel = reference(1, 2, {psi(1): 1, psi(2): 0})
        assert rel.coefficients == {psi(1): Fraction(1)}
        assert rel == reference(1, 2, {psi(1): 1})
        assert rel != reference(1, 2, {psi(1): 2})
        assert repr(rel) == (
            "Relation(coefficients={psi_1: Fraction(1, 1)}, provenance=Provenance("
            "g=1, n=2, a_vec=None, r_mode='reference'))"
        )

    def test_relation_set_equality(self):
        assert ppz_relation_set(1, 3, 3) == ppz_relation_set(1, 3, 3)
        assert ppz_relation_set(1, 3, 3) != ppz_relation_set(1, 3, 4)
        assert ppz_relation_set(1, 3, 3) != ac_relations(1, 3)
        assert repr(RelationSet((1, 2), [(1,) * 7], [])) == (
            "RelationSet(space=(1, 2), features=[(1, 1, 1, 1, 1, 1, 1)], provenances=[])"
        )


class TestPullback:
    def test_no_markings_is_identity(self):
        rel = assemble_relation(2, 0, (), 3)
        assert pullback_genus2(rel, 0) is rel

    def test_zero_relation(self):
        zero = assemble_relation(2, 0, (), 4)
        assert pullback_genus2(zero, 3).is_zero()

    def test_two_markings(self):
        basis = tuple(divisor_generators(2, 2))
        rel = pullback_genus2(assemble_relation(2, 0, (), 3), 2)
        target = reference(
            2, 2,
            {
                kappa1(): 5, psi(1): -5, psi(2): -5, delta_sep(0, {1, 2}): 5,
                delta_irr(): -1, delta_sep(1, ()): -7, delta_sep(1, {1}): -7,
            },
        )
        assert rel.normalized_vector(basis) == target.normalized_vector(basis)

    def test_wrong_source_basis(self):
        bad = reference(1, 1, {psi(1): 1})
        with pytest.raises(BasisMismatchError):
            pullback_genus2(bad, 2)

    def test_direct_assembly_matches_pullback(self):
        # The engine can also assemble directly on the marked genus-2 space;
        # the official route is the pullback, and they must agree projectively.
        for n in (1, 2):
            basis = tuple(divisor_generators(2, n))
            direct = assemble_relation(2, n, (0,) * n, 3)
            pulled = pullback_genus2(assemble_relation(2, 0, (), 3), n)
            assert direct.normalized_vector(basis) == pulled.normalized_vector(basis)


class TestGenusTwoRowOracle:
    """The genus-2 rows written in closed form against the class-keyed
    pullback read back through DenseRelationSet.of.  The relation set writes
    its row as the primitive integer row, first nonzero entry positive."""

    @pytest.mark.parametrize("n", range(11))
    def test_ppz_rows_match_dict_pullback(self, n):
        basis = tuple(divisor_generators(2, n))
        for r in (3, 4, 5):
            base = assemble_relation(2, 0, (), r)
            relations = [] if base.is_zero() else [dict_pullback_genus2(base, n)]
            oracle, direct = DenseRelationSet.of(basis, relations), ppz_relation_set(2, n, r)
            assert direct.basis == oracle.basis
            assert direct.rows == [primitive_int_vector(row) for row in oracle.rows], (n, r)
            assert direct.provenances == oracle.provenances, (n, r)
            assert pullback_genus2(base, n) == dict_pullback_genus2(base, n), (n, r)

    @pytest.mark.parametrize("n", range(11))
    def test_ac_rows_match_dict_pullback(self, n):
        base = reference(2, 0, {kappa1(): 5, delta_irr(): -1, delta_sep(1, ()): -7})
        basis = tuple(divisor_generators(2, n))
        oracle = DenseRelationSet.of(basis, [dict_pullback_genus2(base, n)])
        direct = ac_relations(2, n)
        assert direct.basis == oracle.basis
        assert direct.rows == oracle.rows
        assert direct.provenances == oracle.provenances


class TestDegreeGate:
    def test_genus_four_refused_with_degree_report(self):
        with pytest.raises(DegreeGateError) as excinfo:
            assemble_relation(4, 0, (), 3)
        assert excinfo.value.witten_degree == 1
        assert "degree" in str(excinfo.value)

    def test_gate_matches_phi_degree_exactly(self):
        for g in (1, 2, 3):
            for n in range(0, 3):
                if 2 * g - 2 + n <= 0:
                    continue
                for r in (3, 4):
                    for a_vec in product(range(r - 1), repeat=n):
                        expected = phi_degree(g, 1, a_vec, r).relation_exists
                        if expected:
                            assemble_relation(g, n, a_vec, r)  # must not raise
                        else:
                            with pytest.raises(DegreeGateError):
                                assemble_relation(g, n, a_vec, r)

    def test_admissible_vectors_genus_one(self):
        for n in (1, 2, 3):
            for r in (3, 4, 5):
                expected = sorted(
                    tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
                )
                assert sorted(admissible_leg_vectors(1, n, r)) == expected

    def test_admissible_vectors_match_full_scan(self):
        for g in range(1, 5):
            for n in range(0, 6):
                for r in range(3, 8):
                    assert admissible_leg_vectors(g, n, r) == (
                        scan_admissible_leg_vectors(g, n, r)
                    ), (g, n, r)

    def test_every_allowed_sum_is_zero_or_one(self):
        # The closed form of admissible_leg_vectors rests on this: the gate
        # and the parity condition leave at most the sums 0 and 1.
        for g in range(1, 7):
            for r in range(3, 61):
                allowed = [
                    s for s in range(10 * r)
                    if phi_degree(g, 1, (s,), r).relation_exists and (s - g) % (r - 1) == 0
                ]
                assert set(allowed) <= {0, 1}, (g, r, allowed)

    def test_admissible_vectors_higher_genus(self):
        assert admissible_leg_vectors(2, 0, 3) == [()]
        assert admissible_leg_vectors(2, 0, 4) == []
        assert admissible_leg_vectors(3, 0, 3) == []


class TestOracleEquivalence:
    def test_numeric_assembly_matches_per_graph_sum(self):
        # Every gate-passing leg vector, admissible or not: the zero
        # relations must come out zero on both sides.
        seen_zero = seen_nonzero = 0
        for g in (1, 2, 3):
            for n in range(0, 6):
                if 2 * g - 2 + n <= 0:
                    continue
                for r in range(3, 8):
                    for a_vec in product(range(r - 1), repeat=n):
                        if not phi_degree(g, 1, a_vec, r).relation_exists:
                            continue
                        rel = assemble_relation(g, n, a_vec, r)
                        expected = per_graph_coefficients(g, n, a_vec, r)
                        assert rel.coefficients == expected, (g, n, a_vec, r)
                        seen_zero += not expected
                        seen_nonzero += bool(expected)
        assert seen_zero and seen_nonzero

    def test_symbolic_matches_per_divisor_interpolation(self):
        for n in range(1, 6):
            for a_vec in product((0, 1), repeat=n):
                if not phi_degree(1, 1, a_vec, 3).relation_exists:
                    continue
                rel = assemble_relation(1, n, a_vec, symbolic=True)
                assert rel.coefficients == per_class_symbolic(n, a_vec), (n, a_vec)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    @example([1, 1, 0])
    def test_keyed_symbolic_path_matches_per_class_oracle(self, a):
        # Leg vectors with sum(a) >= 3 fail the gate at r = 3 on both paths;
        # (1, 1, 0) passes it but extracts nothing.
        a_vec, n = tuple(a), len(a)
        if sum(a_vec) >= 3:
            with pytest.raises(DegreeGateError):
                assembled_relation_set(1, n, [a_vec])
            return
        rel = assemble_relation(1, n, a_vec, symbolic=True)
        assert rel.coefficients == per_class_symbolic(n, a_vec)
        expected = [(a_vec, r_mode, row) for r_mode, row in per_class_extract(n, rel.coefficients)]
        assert labelled_rows(extract_r_coefficients(rel)) == expected
        assert labelled_rows(assembled_relation_set(1, n, [a_vec])) == expected

    def test_zero_extraction(self):
        assert assembled_relation_set(1, 3, [(1, 1, 0)]).rows == []

    @pytest.mark.parametrize("n,r", [(n, r) for n, r in G1_NR if n <= 6])
    def test_relation_set_matches_per_class_oracle(self, n, r):
        assert labelled_rows(ppz_relation_set(1, n, r)) == per_class_relation_rows(n, r)

    @pytest.mark.parametrize("family", ["smooth", "loop", "separating"])
    def test_wrong_family_exponent_raises(self, monkeypatch, family):
        # Fault injection: one graph family reports a shifted exponent.
        import rspinrel.relations as relations_module

        original = relations_module._family_phi
        signature = {"smooth": (1, 0), "loop": (1, 1), "separating": (2, 1)}[family]

        def skewed(genera, edge_count, a_vec, r):
            phi = original(genera, edge_count, a_vec, r)
            if (len(genera), edge_count) == signature:
                return phi + 1
            return phi

        monkeypatch.setattr(relations_module, "_family_phi", skewed)
        with pytest.raises(AssemblyError):
            assemble_relation(1, 3, (1, 0, 0), 3)


class TestBookkeeping:
    def test_graph_terms_share_exponent(self):
        # Every enumerated graph carries the relation's exponent
        # sum(a) + (g-1)(r-2), read off the graph itself rather than off the
        # family table that _check_family_exponents walks.
        from rspinrel.relations import _family_phi

        for g in (1, 2, 3):
            for n in range(0, 4):
                if 2 * g - 2 + n <= 0:
                    continue
                for r in (3, 4, 7):
                    for a_vec in product(range(r - 1), repeat=n):
                        expected = sum(a_vec) + (g - 1) * (r - 2)
                        for contrib in enumerate_contributing_graphs(g, n):
                            graph = contrib.graph
                            genera = [v.genus for v in graph.vertices]
                            phi = _family_phi(genera, len(graph.edges), a_vec, r)
                            assert phi == expected, (g, n, r, a_vec, contrib.kind)

    def test_permutation_determinism(self):
        basis = tuple(divisor_generators(1, 3))
        rel = assemble_relation(1, 3, (1, 0, 0), 3)
        for sigma in permutations(range(3)):
            permuted_a = tuple((1, 0, 0)[sigma[i]] for i in range(3))
            permuted = assemble_relation(1, 3, permuted_a, 3)
            # Slot j of the permuted vector plays the role of original slot
            # sigma[j]; relabel the permuted relation accordingly and compare.
            relabeled = {}
            forward = {j + 1: sigma[j] + 1 for j in range(3)}
            for divisor, coeff in permuted.coefficients.items():
                if divisor.kind == "psi":
                    relabeled[psi(forward[divisor.index])] = coeff
                elif divisor.kind == "delta_sep":
                    new_marks = frozenset(forward[i] for i in divisor.markings)
                    relabeled[delta_sep(divisor.h, new_marks)] = coeff
                else:
                    relabeled[divisor] = coeff
            assert relabeled == rel.coefficients


# Genus 1 with a unit leg vector e_i: (n, i) with i in 1..n <= 5, and r in
# 3..30, well past the six samples the symbolic interpolation reads.
unit_legs = st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))
wide_r = st.integers(3, 30)


def unit_vector(n, i):
    return tuple(int(j == i) for j in range(1, n + 1))


def swap_markings(divisor, i, n):
    """The genus-1 class with markings 1 and i exchanged."""
    sigma = {1: i, i: 1}
    if divisor.kind == "psi":
        return psi(sigma.get(divisor.index, divisor.index))
    if divisor.kind == "delta_sep":
        marks = {sigma.get(m, m) for m in divisor.markings}
        return canonical_divisor(delta_sep(divisor.h, marks), 1, n)
    return divisor


def permute_class(divisor, sigma, g, n):
    """The class with every marking i relabelled sigma[i]."""
    if divisor.kind == "psi":
        return psi(sigma[divisor.index])
    if divisor.kind == "delta_sep":
        marks = {sigma[m] for m in divisor.markings}
        return canonical_divisor(delta_sep(divisor.h, marks), g, n)
    return divisor


def relabellings(min_n):
    """(n, sigma) with sigma a random permutation of the markings 1..n <= 5."""
    return st.integers(min_n, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.permutations(range(1, n + 1)).map(lambda perm: dict(enumerate(perm, 1))),
    ))


class TestGenusOneProperties:
    @settings(deadline=None)
    @given(unit_legs, wide_r)
    def test_symbolic_evaluates_to_numeric(self, leg, r):
        n, i = leg
        a_vec = unit_vector(n, i)
        symbolic = assemble_relation(1, n, a_vec, symbolic=True)
        evaluated = {d: c(r) for d, c in symbolic.coefficients.items() if c(r) != 0}
        assert evaluated == assemble_relation(1, n, a_vec, r).coefficients

    @settings(deadline=None)
    @given(unit_legs, wide_r)
    def test_relation_equivariant_under_swapping_markings(self, leg, r):
        n, i = leg
        first = assemble_relation(1, n, unit_vector(n, 1), r)
        swapped = {swap_markings(d, i, n): c for d, c in first.coefficients.items()}
        assert assemble_relation(1, n, unit_vector(n, i), r).coefficients == swapped

    @settings(deadline=None)
    @given(relabellings(1), st.integers(3, 8), st.data())
    def test_relation_equivariant_under_permuting_markings(self, relabelling, r, data):
        # Relabelling the markings by sigma takes the relation for e_i to the
        # one for e_sigma(i), class by class.
        n, sigma = relabelling
        i = data.draw(st.integers(1, n))
        rel = assemble_relation(1, n, unit_vector(n, i), r)
        moved = {permute_class(d, sigma, 1, n): c for d, c in rel.coefficients.items()}
        assert assemble_relation(1, n, unit_vector(n, sigma[i]), r).coefficients == moved

    @settings(deadline=None)
    @given(relabellings(1))
    def test_genus_two_pullback_invariant_under_permuting_markings(self, relabelling):
        n, sigma = relabelling
        rel = pullback_genus2(assemble_relation(2, 0, (), 3), n)
        moved = {permute_class(d, sigma, 2, n): c for d, c in rel.coefficients.items()}
        assert moved == rel.coefficients

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 5), wide_r)
    def test_reduced_rows_independent_of_r(self, n, r):
        # The reduced row echelon form is unique, so equal spans give equal rows.
        assert ppz_relation_set(1, n, r).reduced_rows() == ppz_relation_set(1, n, 3).reduced_rows()

    @settings(deadline=None)
    @given(unit_legs, wide_r)
    def test_relation_lies_in_reference_span(self, leg, r):
        n, i = leg
        reference_set = ac_relations(1, n)
        rel = assemble_relation(1, n, unit_vector(n, i), r)
        basis = reference_set.basis
        extended = DenseRelationSet(basis, reference_set.rows + [rel.vector(basis)],
                                    reference_set.provenances + [rel.provenance])
        report = spans_equal(extended, reference_set)
        assert report.equal and report.rank_right == n + 1


class TestSpans:
    def test_ac_counts(self):
        assert len(ac_relations(1, 2).features) == 3
        assert len(ac_relations(2, 0).features) == 1
        assert len(ac_relations(3, 0).features) == 0

    def test_equivalence_genus_one(self):
        for n in range(1, 7):
            for r in range(3, 13) if n <= 5 else (3, 4, 5):
                report = spans_equal(ppz_relation_set(1, n, r), ac_relations(1, n))
                assert report.equal and report.rank_left == n + 1, (n, r, report)

    def test_rank_matches_rank_and_solve(self):
        for g, n in ((1, 1), (1, 3), (1, 4), (2, 2), (3, 0)):
            relation_set = ppz_relation_set(g, n, 3)
            rows = [v for v in relation_set.rows if any(v)]
            expected = rank_and_solve(RationalMatrix(rows))[0] if rows else 0
            assert relation_set.rank() == expected, (g, n)

    def test_equivalence_genus_two(self):
        for n in range(0, 6):
            report = spans_equal(ppz_relation_set(2, n, 3), ac_relations(2, n))
            assert report.equal and report.rank_left == 1, (n, report)

    def test_equivalence_genus_three(self):
        report = spans_equal(ppz_relation_set(3, 0, 3), ac_relations(3, 0))
        assert report.equal and report.rank_union == 0

    def test_unequal_against_empty(self):
        computed = ppz_relation_set(1, 2, 3)
        empty = DenseRelationSet.of(computed.basis, [])
        assert not spans_equal(computed, empty).equal

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            spans_equal(ppz_relation_set(1, 2, 3), ac_relations(1, 3))

    def test_r_independence_three_markings(self):
        sets = {r: ppz_relation_set(1, 3, r) for r in (3, 4, 5)}
        for ra, rb in ((3, 4), (3, 5), (4, 5)):
            assert spans_equal(sets[ra], sets[rb]).equal

    def test_genus_one_ac_rows_match_dict_construction(self):
        for n in range(1, 11):
            direct, oracle = ac_relations(1, n), dict_ac_relations_genus_one(n)
            assert direct.basis == oracle.basis
            assert direct.rows == oracle.rows, n
            assert direct.provenances == oracle.provenances
            assert direct.reduced_rows() == oracle.reduced_rows(), n

    def test_relation_outside_basis_rejected(self):
        stray = reference(1, 3, {psi(3): 1})
        with pytest.raises(BasisMismatchError):
            DenseRelationSet.of(tuple(divisor_generators(1, 2)), [stray])
        with pytest.raises(BasisMismatchError):
            stray.vector(tuple(divisor_generators(1, 2)))


# The benchmark's genus-1 grid up to six markings, and genus 2 at r = 3.
ORACLE_CASES = [(1, n, r) for n, r in G1_NR if n <= 6] + [(2, n, 3) for n in range(9)]


class TestIntegerEliminationOracle:
    """Reduced rows and span ranks against plain Fraction Gauss-Jordan."""

    @pytest.mark.parametrize("g,n,r", ORACLE_CASES)
    def test_matches_fraction_rref(self, g, n, r):
        computed, reference_set = ppz_relation_set(g, n, r), ac_relations(g, n)
        left, right = computed.rows, reference_set.rows
        oracle_rows, oracle_pivots = fraction_rref(left)
        assert computed.reduced_rows() == [primitive_int_vector(row) for row in oracle_rows]
        assert computed.rank() == len(oracle_pivots)
        report = spans_equal(computed, reference_set)
        expected = tuple(len(fraction_rref(rows)[1]) for rows in (left, right, left + right))
        assert (report.rank_left, report.rank_right, report.rank_union) == expected
        assert report.equal

    def test_ranks_match_sympy(self):
        sympy = pytest.importorskip("sympy")

        def sympy_rank(rows):
            grid = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
            return sympy.Matrix(grid).rank() if grid else 0

        for g, n, r in ((1, 3, 3), (1, 4, 5), (1, 5, 3), (2, 3, 3), (2, 5, 3)):
            computed, reference_set = ppz_relation_set(g, n, r), ac_relations(g, n)
            left, right = computed.rows, reference_set.rows
            report = spans_equal(computed, reference_set)
            expected = (sympy_rank(left), sympy_rank(right), sympy_rank(left + right))
            assert (report.rank_left, report.rank_right, report.rank_union) == expected, (g, n, r)


class TestEdgeFactor:
    def test_constant_term_is_symmetric(self):
        for r in (3, 4, 5):
            theory = RSpinTheory(r)
            for p in range(r - 1):
                for q in range(r - 1):
                    assert edge_constant_term(p, q, theory) == edge_constant_term(
                        q, p, theory
                    )

    def test_entries_are_every_nonzero_constant_term(self):
        for r in range(3, 13):
            theory = RSpinTheory(r)
            full = {}
            for p in range(r - 1):
                for q in range(r - 1):
                    entry = edge_constant_term(p, q, theory)
                    if entry != 0:
                        full[(p, q)] = entry
            assert dict(_edge_entries(theory)) == full, r

    def test_constant_term_matches_full_sum(self):
        # The order-0 divisibility identity: the numerator's (1, 0) and
        # (0, 1) coefficients agree, and both are the constant term.
        for r in range(3, 41):
            theory = RSpinTheory(r)
            for p, q in product(range(r - 1), repeat=2):
                entry = edge_constant_term(p, q, theory)
                assert entry == loop_edge_numerator_coefficient(1, 0, p, q, theory), (r, p, q)
                assert entry == loop_edge_numerator_coefficient(0, 1, p, q, theory), (r, p, q)

    def test_constant_term_checks_both_indices(self):
        for r in (3, 4, 7):
            theory = RSpinTheory(r)
            for bad in (-1, r - 1):
                for good in range(r - 1):
                    with pytest.raises(ValueError):
                        edge_constant_term(bad, good, theory)
                    with pytest.raises(ValueError):
                        edge_constant_term(good, bad, theory)
                with pytest.raises(ValueError):
                    edge_constant_term(bad, bad, theory)

    def test_leg_sum_single_term_matches_full_sum(self):
        for r in range(3, 13):
            theory = RSpinTheory(r)
            for g, n in ((1, 1), (1, 2), (2, 2), (3, 1)):
                for insertions in product(range(r - 1), repeat=n):
                    for i in range(n):
                        assert _leg_sum(g, insertions, i, theory) == (
                            loop_leg_sum(g, insertions, i, theory)
                        ), (r, g, insertions, i)

    def test_loop_total_closed_form(self):
        # Summed over all node insertions against the degree-zero vertex, the
        # loop contributes -(r-1)^(g-1) * (r-1)(r-2)/24 on the boundary class.
        from rspinrel.cohft import topological_value

        for g, n, a_vec in ((1, 2, (1, 0)), (2, 0, ())):
            for r in (3,) if g == 2 else (3, 4, 5):
                theory = RSpinTheory(r)
                total = Fraction(0)
                for p in range(r - 1):
                    for q in range(r - 1):
                        entry = edge_constant_term(p, q, theory)
                        if entry == 0:
                            continue
                        value = topological_value(g - 1, list(a_vec) + [p, q], theory)
                        total += entry * value
                expected = -Fraction((r - 1) ** (g - 1)) * Fraction((r - 1) * (r - 2), 24)
                assert total == expected, (g, r)


class TestSystemDeterminant:
    def test_matches_product_form_everywhere(self):
        for n in range(1, 9):
            for r in range(3, 11):
                report = system_matrix_det(n, r)
                assert report.matches_product_form, (n, r)

    def test_reference_match_pattern(self):
        # The stated closed form agrees with the actual determinant only at
        # n = 2, and for even n at r = 4 where (r-2)/2 collapses to 1.
        for n in range(1, 9):
            for r in range(3, 11):
                report = system_matrix_det(n, r)
                expected = n == 2 or (n % 2 == 0 and r == 4)
                assert report.matches_reference == expected, (n, r)

    def test_frozen_small_values(self):
        assert system_matrix_det(1, 3).det == Fraction(-1)
        assert system_matrix_det(2, 3).det == Fraction(-1)
        assert system_matrix_det(3, 3).det == Fraction(-1)
        assert system_matrix_det(1, 4).det == Fraction(-3)

    def test_symbolic_matches_product_form(self):
        for n in range(1, 5):
            report = system_matrix_det(n, symbolic=True)
            assert report.matches_product_form
            assert report.matches_reference == (n == 2)

    def test_mutated_coefficient_breaks_product_form(self, monkeypatch):
        # Fault injection: flipping the sign of the first-order coefficient
        # polynomial must break the determinant identity.
        import rspinrel.cohft as cohft_module

        original = cohft_module.p_polynomial

        def corrupted(m, a, r):
            value = original(m, a, r)
            return -value if m == 1 else value

        monkeypatch.setattr(cohft_module, "p_polynomial", corrupted)
        assert not system_matrix_det(1, 3).matches_product_form

    def test_input_validation(self):
        with pytest.raises(ValueError):
            system_matrix_det(0, 3)
        with pytest.raises(ValueError):
            system_matrix_det(2, 2)


# ---------------------------------------------------------------------------
# Feature coordinates against the class-keyed dense path
# ---------------------------------------------------------------------------

def dense_key(d, a_vec):
    """The key of the class d in the class-keyed layout: (psi, a_i),
    kappa_1, delta_irr, or (delta_sep, h, sum of a over S)."""
    if d.kind == "psi":
        return d.kind, a_vec[d.index - 1]
    if d.kind == "delta_sep":
        return d.kind, d.h, sum(a_vec[i - 1] for i in d.markings)
    return d.kind


def dense_relation_set(g, n, a_vecs, r=None, extract=True):
    """Oracle for assembled_relation_set: the class-keyed dense path that the
    feature rows replace.  Every basis class gets its key, each key is
    contracted at its first class in basis order, at any leg vector and with
    no shortcut for a non-integral exponent, and each relation is the
    primitive row of every class's value over the basis: the assembly at r
    when r is given, then in genus 1 (with ``extract``) each power of r of
    the interpolated values."""
    basis = tuple(divisor_generators(g, n))
    rows, provenances = [], []
    for a_vec in a_vecs:
        keys = [dense_key(d, a_vec) for d in basis]
        first = {}
        for key, d in zip(keys, basis):
            first.setdefault(key, d)

        def values(rr):
            theory = RSpinTheory(rr)
            edges = _edge_entries(theory)
            return {key: _contract(g, a_vec, d, theory, edges) * rr ** (g - 1)
                    for key, d in first.items()}

        found = []
        if r is not None:
            at_r = values(r)
            found.append((r, [at_r[key] for key in keys]))
        if g == 1 and extract:
            samples = [values(rr) for rr in SAMPLE_RS]
            polys = {key: poly_interpolate([(rr, s[key]) for rr, s in zip(SAMPLE_RS, samples)],
                                           degree_bound=3) for key in first}
            top = max(len(poly.coeffs) for poly in polys.values())
            found += [(f"r^{p}", [polys[key].coefficient(p) for key in keys])
                      for p in range(top - 1, -1, -1)]
        for r_mode, coefficients in found:
            row = primitive_int_vector(coefficients)
            if any(row):
                rows.append(row)
                provenances.append(Provenance(g, n, a_vec, r_mode))
    return DenseRelationSet(basis, rows, provenances)


def dense_ppz_relation_set(g, n, r):
    """Oracle for ppz_relation_set on the dense path; in genus 2 the unmarked
    class-keyed relation pulled back class by class."""
    if g != 2:
        return dense_relation_set(g, n, admissible_leg_vectors(g, n, r), r)
    basis = tuple(divisor_generators(2, n))
    pulled = [dict_pullback_genus2(rel, n) for rel in dense_relation_set(2, 0, [()], r).relations]
    return DenseRelationSet(basis, [rel.normalized_vector(basis) for rel in pulled],
                            [rel.provenance for rel in pulled])


def grid_options(argv):
    """The options of a relation command of the benchmark grid, with
    --symbolic read as True."""
    args, options = list(argv[1:]), {}
    while args:
        flag = args.pop(0)
        options[flag] = True if flag == "--symbolic" else args.pop(0)
    return options


GRID_G12 = [argv for argv in workloads.grid_points()
            if argv[0] in ("relations", "verify-ac") and grid_options(argv)["--g"] in ("1", "2")]


class TestFeaturePathMatchesDenseOracle:
    """At every genus-1 and genus-2 point of the benchmark grid, the rows the
    feature path writes out equal the class-keyed dense path's, row for row,
    and so do the reduced rows and span ranks."""

    @pytest.mark.parametrize("argv", GRID_G12, ids=workloads.key)
    def test_grid_point(self, argv):
        options = grid_options(argv)
        g, n = int(options["--g"]), int(options["--n"])
        r = int(options["--r"]) if "--r" in options else None
        a_vec = tuple(map(int, options["--a"].split(","))) if "--a" in options else None
        if options.get("--symbolic"):
            a_vecs = [a_vec] if a_vec else [unit_vector(n, i) for i in range(1, n + 1)]
            computed, oracle = assembled_relation_set(1, n, a_vecs), dense_relation_set(1, n, a_vecs)
            assert computed.rows == oracle.rows
            assert computed.provenances == oracle.provenances
        elif a_vec is not None and g == 1:
            oracle = dense_relation_set(1, n, [a_vec], r, extract=False).rows
            assert [relation_row(1, n, a_vec, r)] == (oracle or [(0,) * len(divisor_generators(1, n))])
        else:
            computed, oracle = ppz_relation_set(g, n, r), dense_ppz_relation_set(g, n, r)
            assert computed.rows == oracle.rows
            assert computed.provenances == oracle.provenances
            assert computed.reduced_rows() == oracle.reduced_rows()
            reference = ac_relations(g, n)
            dense_reference = DenseRelationSet(reference.basis, reference.rows,
                                               reference.provenances)
            assert spans_equal(computed, reference) == spans_equal(oracle, dense_reference)

    def test_grid_covers_both_genera_and_every_command(self):
        kinds = {(grid_options(a)["--g"], a[0], "--a" in a, "--symbolic" in a) for a in GRID_G12}
        assert kinds == {
            ("1", "relations", False, False), ("1", "verify-ac", False, False),
            ("1", "relations", True, False), ("1", "relations", False, True),
            ("1", "relations", True, True), ("2", "relations", False, False),
            ("2", "relations", True, False), ("2", "verify-ac", False, False),
        }


def closed_form_reduced_rows(n):
    """The genus-1 reduced rows in closed form: 12 psi_i - delta_irr - 12 chi_i
    for each i, where chi_i sums the delta_{0,S} with i in S, then the
    primitive multiple of kappa_1 - (n/12) delta_irr + sum_S (1 - |S|) delta_{0,S}."""
    seps = [d.markings for d in divisor_generators(1, n)[n + 2:]]
    rows = [tuple(12 * (j == i) for j in range(1, n + 1)) + (0, -1)
            + tuple(-12 * (i in S) for S in seps) for i in range(1, n + 1)]
    rows.append(primitive_int_vector((0,) * n + (12, -n) + tuple(12 * (1 - len(S)) for S in seps)))
    return rows


class TestClosedFormReducedRows:
    """The reduced rows of the genus-1 set at the top of the admitted range,
    which the feature path makes cheap to check."""

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_reduced_rows_are_the_closed_form(self, n):
        expected = closed_form_reduced_rows(n)
        for r in (3, 4, 7):
            assert ppz_relation_set(1, n, r).reduced_rows() == expected, (n, r)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_matches_the_dense_oracle(self, n):
        assert rref(dense_ppz_relation_set(1, n, 3).rows)[0] == closed_form_reduced_rows(n)


# A list of integer rows over the genus-1 features at n >= 3: integer
# combinations of a few random rows, so that dependent rows are common.
dependent_feature_rows = st.integers(3, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-3, 3), min_size=2 * n + 3, max_size=2 * n + 3),
             min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=n + 2),
))


class TestFeatureCoordinates:
    @settings(deadline=None, max_examples=40)
    @given(relabellings(1), st.integers(3, 12), st.data())
    def test_permuting_markings_permutes_feature_rows(self, relabelling, r, data):
        # Relabelling the markings by sigma sends the rows of e_i to those of
        # e_sigma(i), with psi_j and chi_j moved to psi_sigma(j) and
        # chi_sigma(j); rows are compared in their primitive form.
        n, sigma = relabelling
        i = data.draw(st.integers(1, n))

        def moved(row):
            out = list(row)
            for j in range(1, n + 1):
                out[sigma[j] - 1], out[n + 1 + sigma[j]] = row[j - 1], row[n + 1 + j]
            return primitive_int_vector(out)

        rows = assembled_relation_set(1, n, [unit_vector(n, i)], r).features
        target = assembled_relation_set(1, n, [unit_vector(n, sigma[i])], r).features
        assert [moved(row) for row in rows] == [primitive_int_vector(row) for row in target]

    @settings(deadline=None, max_examples=60)
    @given(dependent_feature_rows)
    def test_feature_rank_is_the_expanded_rank(self, case):
        n, base, combinations = case
        rows = [tuple(sum(c * b[k] for c, b in zip(coeffs, base)) for k in range(2 * n + 3))
                for coeffs in combinations]
        assert len(rref(rows)[1]) == len(rref([_expand(1, n, row) for row in rows])[1])

    @settings(deadline=None, max_examples=30)
    @given(st.integers(3, 8), wide_r)
    def test_set_rank_is_the_expanded_rank(self, n, r):
        for relation_set in (ppz_relation_set(1, n, r), ac_relations(1, n)):
            assert relation_set.rank() == len(rref(relation_set.rows)[1]) == n + 1

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 2), wide_r)
    def test_dependent_features_fall_back_to_the_basis(self, n, r):
        report = spans_equal(ppz_relation_set(1, n, r), ac_relations(1, n))
        assert report == (True, n + 1, n + 1, n + 1)

    def test_marked_genus_two_relation_must_be_a_pullback(self, monkeypatch):
        # Fault injection: a psi coefficient off the pullback's -kappa_1 one.
        import rspinrel.relations as relations_module

        original = relations_module._contract

        def skewed(g, a_vec, d, theory, edges):
            value = original(g, a_vec, d, theory, edges)
            return value + 1 if d.kind == "psi" else value

        monkeypatch.setattr(relations_module, "_contract", skewed)
        assert not assemble_relation(2, 0, (), 3).is_zero()
        with pytest.raises(AssemblyError, match="pullback"):
            assemble_relation(2, 2, (0, 0), 3)

    def test_fallback_is_needed_at_two_markings(self):
        # At n = 2, chi_1 = chi_2 = one: the feature rank overcounts.
        computed = ppz_relation_set(1, 2, 3)
        assert len(rref(computed.features)[1]) == 4
        assert computed.rank() == 3
