import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from rspinrel.cli import MAX_R, main
from rspinrel.cohft import p_polynomial, r_inverse_entry, topological_value
from rspinrel.linalg import primitive_int_vector, rref
from rspinrel.relations import (
    BasisMismatchError,
    DegreeGateError,
    RelationSet,
    Provenance,
    _dilaton_sum,
    _edge_entries,
    _expand,
    _feature_row,
    _first_order,
    _leg_sum,
    _loop_sum,
    _RelationTable,
    _cubic_through,
    _separating_sum,
    _write_out,
    ac_relations,
    admissible_leg_vectors,
    assembled_relation_set,
    ppz_relation_set,
    relation_row,
    spans_equal,
)
from rspinrel.oracles import (
    canonical_divisor,
    delta_irr,
    delta_sep,
    divisor_generators,
    edge_constant_term,
    enumerate_contributing_graphs,
    graph_contribution_terms,
    kappa1,
    psi,
    system_matrix_det,
)
from rspinrel import oracles
from rspinrel.rpoly import InterpolationError, RPoly, poly_interpolate
from rspinrel.strata import (
    DELTA_IRR,
    DELTA_SEP,
    KAPPA1,
    PSI,
    UnsupportedGenusError,
    phi_degree,
)
from test_linalg import fraction_rref

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from perfbench import workloads  # noqa: E402
from perfbench.workloads import G1_NR  # noqa: E402


def gate_passes(g, a_vec, r):
    """The degree gate from its definition: a relation exists iff the class
    degree ((r-2)(g-1) + sum(a)) / r lies below codimension 1."""
    return Fraction((r - 2) * (g - 1) + sum(a_vec), r) < 1


def parity_holds(g, a_vec, r):
    """The parity condition from its definition: a relation can be nonzero
    only if sum(a) = g mod r-1."""
    return (sum(a_vec) - g) % (r - 1) == 0


def scan_admissible_leg_vectors(g, n, r):
    """Oracle for admissible_leg_vectors: the full scan of all (r-1)^n
    vectors, each checked against the gate and the parity condition."""
    return [a_vec for a_vec in product(range(r - 1), repeat=n)
            if gate_passes(g, a_vec, r) and parity_holds(g, a_vec, r)]


def per_graph_coefficients(g, n, a_vec, r):
    """Oracle for the keyed contraction at its scale 24: 24 r^(g-1) times the
    per-divisor sum of the per-graph terms, zero coefficients dropped."""
    sums = {}
    for term in graph_contribution_terms(g, n, a_vec, r):
        sums[term.divisor] = sums.get(term.divisor, Fraction(0)) + term.coefficient
    return {d: 24 * c * r ** (g - 1) for d, c in sums.items() if c != 0}


SAMPLE_RS = (3, 4, 5, 6, 7, 8)


def symbolic_polys(table, a_vec):
    """The table's symbolic key values, integer coefficients at 6 times the
    contraction's scale 24, read back as polynomials at the scale 24."""
    return {key: RPoly([Fraction(c, 6) for c in coeffs])
            for key, coeffs in table.symbolic(a_vec).items()}


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


def loop_edge_numerator_coefficient(mp, mq, p, q, r):
    """Coefficient of psi'^mp psi''^mq in the edge numerator
    eta - (inverse R) eta (inverse R transposed) for the insertion pair
    (p, q), as the full sum over the middle index j: the oracle for
    edge_constant_term at orders (1, 0) and (0, 1)."""
    if mp == 0 and mq == 0:
        return Fraction(0)
    total = Fraction(0)
    for j in range(r - 1):
        left = r_inverse_entry(mp, j, p, r) if mp else Fraction(1 if j == p else 0)
        if left == 0:
            continue
        jj = r - 2 - j
        right = r_inverse_entry(mq, jj, q, r) if mq else Fraction(1 if jj == q else 0)
        total += left * right
    return -total


def loop_leg_sum(g, insertions, i, r):
    """Oracle for _leg_sum: the full sum over every index b of leg i."""
    total = Fraction(0)
    for b in range(r - 1):
        entry = r_inverse_entry(1, insertions[i], b, r)
        if entry == 0:
            continue
        moved = list(insertions)
        moved[i] = b
        total += entry * topological_value(g, moved, r)
    return total


def dense_key(d, a_vec):
    """The key of the class d in the class-keyed layout: (psi, a_i),
    kappa_1, delta_irr, or (delta_sep, h, sum of a over S)."""
    if d.kind == "psi":
        return d.kind, a_vec[d.index - 1]
    if d.kind == "delta_sep":
        return d.kind, d.h, sum(a_vec[i - 1] for i in d.markings)
    return d.kind


def keyed_classes(g, n, a_vec, values):
    """The nonzero key values of a relation read back class by class over the
    (g, n) basis."""
    by_class = {d: values.get(dense_key(d, a_vec), 0) for d in divisor_generators(g, n)}
    return {d: c for d, c in by_class.items() if c}


def class_row(g, n, coeffs):
    """The primitive integer row, first nonzero entry positive, of the
    relation with these class coefficients over the (g, n) basis."""
    return primitive_int_vector([Fraction(coeffs.get(d, 0)) for d in divisor_generators(g, n)])


REFERENCE = "reference"


def dict_ac_relations_genus_one(n):
    """Oracle for ac_relations(1, n): (basis, rows, provenances), each
    Arbarello-Cornalba relation built as a class-keyed dict and read back over
    the basis."""
    basis = tuple(divisor_generators(1, n))
    seps = [d for d in basis if d.kind == "delta_sep"]
    relations = []
    for i in range(1, n + 1):
        coeffs = {psi(i): 12, delta_irr(): -1}
        coeffs.update({d: -12 for d in seps if i in d.markings})
        relations.append(coeffs)
    relations.append({kappa1(): 1, **{psi(i): -1 for i in range(1, n + 1)}, **{d: 1 for d in seps}})
    rows = [tuple(coeffs.get(d, 0) for d in basis) for coeffs in relations]
    return basis, rows, [Provenance(1, n, None, REFERENCE)] * len(rows)


def dict_pullback_genus2(coefficients, n):
    """Oracle for the genus-2 pullback: the class-keyed relation on the
    unmarked space pulled back to n markings one class at a time, scanning the
    basis for the separating classes."""
    zero = Fraction(0)
    k = coefficients.get(kappa1(), zero)
    irr = coefficients.get(delta_irr(), zero)
    d1 = coefficients.get(delta_sep(1, frozenset()), zero)
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
    return coeffs


class TestAssemblyGoldens:
    def test_two_marked_genus_one(self):
        assert relation_row(1, 2, (1, 0), 3) == (7, -5, 5, -1, -7)

    def test_leg_vector_swap(self):
        assert relation_row(1, 2, (0, 1), 3) == (5, -7, -5, 1, 7)

    def test_unmarked_genus_two(self):
        assert relation_row(2, 0, (), 3) == (5, -1, -7)

    def test_genus_two_vanishes_beyond_r3(self):
        assert not any(relation_row(2, 0, (), 4))
        assert not any(relation_row(2, 0, (), 5))

    def test_genus_three_zero_with_all_terms_zero(self):
        terms = graph_contribution_terms(3, 0, (), 3)
        assert terms, "expected graph terms to be listed"
        assert all(t.coefficient == 0 for t in terms)
        assert not any(relation_row(3, 0, (), 3))

    def test_oracle_refuses_a_short_leg_vector(self):
        # As relation_row does, rather than with an IndexError on leg 2.
        with pytest.raises(ValueError, match="^a_vec length must equal n$"):
            graph_contribution_terms(1, 2, (0,), 3)

    def test_one_marked_genus_one(self):
        # 7 psi + 5 kappa - delta_irr; equivalent to 12 psi = delta_irr
        # given kappa = psi on the one-marked space.
        assert relation_row(1, 1, (1,), 3) == (7, 5, -1)


class TestSymbolicAssembly:
    def test_coefficients_match_closed_forms(self):
        # At the contraction's scale 24.
        polys = symbolic_polys(_RelationTable(1, 2), (1, 0))
        r = RPoly.variable()
        p1_at = lambda a: Fraction(a, 2) * (r - 1 - a) - (2 * r - 1) * (r - 2) * Fraction(1, 24)
        # The keys of psi_1, psi_2, kappa_1, delta_{0,{1,2}} and delta_irr.
        assert polys[PSI, 1] == 24 * (r - 1) * p1_at(1)
        assert polys[PSI, 0] == 24 * (r - 1) * p1_at(0)
        assert polys[KAPPA1] == -24 * (r - 1) * p1_at(0)
        assert polys[DELTA_SEP, 0, 1] == -24 * (r - 1) * p1_at(1)
        assert polys[DELTA_IRR] == -(r - 1) * (r - 2)

    def test_symbolic_requires_genus_one(self):
        with pytest.raises(UnsupportedGenusError):
            _RelationTable(2, 0).symbolic(())

    def test_symbolic_and_numeric_agree(self):
        polys = symbolic_polys(_RelationTable(1, 3), (0, 1, 0))
        for r in (3, 4, 5, 9, 11):
            numeric = _RelationTable(1, 3).numeric((0, 1, 0), r)
            assert {key: poly(r) for key, poly in polys.items()} == numeric, r

    @settings(deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4))
    def test_integer_interpolation_matches_rational_oracle(self, first):
        # Any integers at r = 3..6 and their cubic's values at 7 and 8.
        cubic = poly_interpolate(list(zip(SAMPLE_RS, first)), degree_bound=3)
        values = [cubic(r) for r in SAMPLE_RS]
        assert all(value.denominator == 1 for value in values)
        coeffs = _cubic_through([int(value) for value in values])
        assert all(type(c) is int for c in coeffs)
        assert coeffs == tuple(6 * c for c in cubic.coeffs) + (0,) * (4 - len(cubic.coeffs))

    @settings(deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
           st.sampled_from([4, 5]), st.integers(-50, 50).filter(bool))
    def test_integer_interpolation_refuses_degree_above_three(self, cubic, degree, lead):
        samples = [(r, sum(c * r ** k for k, c in enumerate(cubic)) + lead * r ** degree)
                   for r in SAMPLE_RS]
        with pytest.raises(InterpolationError):
            poly_interpolate(samples, degree_bound=3)
        with pytest.raises(ValueError, match="samples exceed degree bound 3"):
            _cubic_through([value for _, value in samples])


class TestExtraction:
    def test_powers_for_three_markings(self):
        extracted = {r_mode: row for _, r_mode, row in
                     labelled_rows(assembled_relation_set(1, 3, [(1, 0, 0)]))}
        target_r3 = class_row(
            1, 3,
            {
                kappa1(): 1, psi(1): -1, psi(2): -1, psi(3): -1,
                delta_sep(0, {1, 2}): 1, delta_sep(0, {1, 3}): 1,
                delta_sep(0, {2, 3}): 1, delta_sep(0, {1, 2, 3}): 1,
            },
        )
        target_r2 = class_row(
            1, 3,
            {
                psi(1): 19, psi(2): 7, psi(3): 7, kappa1(): -7, delta_irr(): -1,
                delta_sep(0, {1, 2}): -19, delta_sep(0, {1, 3}): -19,
                delta_sep(0, {1, 2, 3}): -19, delta_sep(0, {2, 3}): -7,
            },
        )
        assert extracted["r^3"] == target_r3
        assert extracted["r^2"] == target_r2

    def test_lower_powers_are_consequences(self):
        extracted = assembled_relation_set(1, 2, [(1, 0)])
        kept = [(row, prov) for row, prov in zip(extracted.features, extracted.provenances)
                if prov.r_mode in ("r^3", "r^2")]
        high = RelationSet((1, 2), [row for row, _ in kept], [prov for _, prov in kept])
        assert len(high.features) == 2 < len(extracted.features)
        assert spans_equal(high, extracted).equal

    def test_scale_independence(self):
        # Each power's written row is the primitive one, whatever the scale of
        # the key polynomials it is read from.
        polys = symbolic_polys(_RelationTable(1, 2), (1, 0))

        def written(values):
            return _write_out(1, 2, primitive_int_vector(_feature_row(1, (1, 0), values)))

        for scale in (Fraction(3, 7), Fraction(-2)):
            for power in range(4):
                values = {key: poly.coefficient(power) for key, poly in polys.items()}
                scaled = {key: scale * value for key, value in values.items()}
                assert written(scaled) == written(values), (scale, power)


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

    def test_relation_set_equality(self):
        assert ppz_relation_set(1, 3, 3) == ppz_relation_set(1, 3, 3)
        assert ppz_relation_set(1, 3, 3) != ppz_relation_set(1, 3, 4)
        assert ppz_relation_set(1, 3, 3) != ac_relations(1, 3)
        assert repr(RelationSet((1, 2), [(1,) * 7], [])) == (
            "RelationSet(space=(1, 2), features=[(1, 1, 1, 1, 1, 1, 1)], provenances=[])"
        )


MUMFORD = {kappa1(): 5, delta_irr(): -1, delta_sep(1, ()): -7}


class TestPullback:
    def test_no_markings_is_identity(self):
        for row in ((5, -1, -7), (0, 0, 0), (1, 2, 3)):
            assert _expand(2, 0, row) == row

    def test_zero_relation(self):
        assert not any(_expand(2, 3, (0, 0, 0)))
        assert ppz_relation_set(2, 3, 4).rows == []

    def test_two_markings(self):
        target = class_row(
            2, 2,
            {
                kappa1(): 5, psi(1): -5, psi(2): -5, delta_sep(0, {1, 2}): 5,
                delta_irr(): -1, delta_sep(1, ()): -7, delta_sep(1, {1}): -7,
            },
        )
        assert ppz_relation_set(2, 2, 3).rows == [target]

    @pytest.mark.parametrize("n", range(15))
    def test_written_row_leads_positive(self, n):
        # A row is written out as the pullback of (k, irr, d1) or of its
        # negative, whichever has a positive first nonzero entry.
        for row in product(range(-2, 3), repeat=3):
            written = _write_out(2, n, row)
            assert written in {_expand(2, n, row), _expand(2, n, [-x for x in row])}
            assert next((x for x in written if x), 1) > 0, (n, row)

    def test_direct_assembly_matches_pullback(self):
        # A marked genus-2 row and the relation set are the one pulled-back row.
        for n in (1, 2, 3):
            direct = relation_row(2, n, (0,) * n, 3)
            assert [direct] == ppz_relation_set(2, n, 3).rows
            assert direct == class_row(2, n, dict_pullback_genus2(MUMFORD, n))


class TestGenusTwoRowOracle:
    """The genus-2 rows written in closed form against the class-keyed
    pullback of the per-graph sums.  The relation set writes its row as the
    primitive integer row, first nonzero entry positive."""

    @pytest.mark.parametrize("n", range(11))
    def test_ppz_rows_match_dict_pullback(self, n):
        for r in (3, 4, 5):
            base = per_graph_coefficients(2, 0, (), r)
            oracle = [class_row(2, n, dict_pullback_genus2(base, n))] if base else []
            direct = ppz_relation_set(2, n, r)
            assert direct.rows == oracle, (n, r)
            assert direct.provenances == [Provenance(2, n, (), r)] * len(oracle), (n, r)

    def test_marked_oracle_is_the_pullback_of_the_unmarked_one(self):
        # What lets the assembly contract genus 2 with no legs: per graph,
        # the zero vector's relation is the unmarked relation pulled back.
        for n in range(1, 6):
            for r in (3, 4, 5):
                marked = per_graph_coefficients(2, n, (0,) * n, r)
                base = per_graph_coefficients(2, 0, (), r)
                assert marked == dict_pullback_genus2(base, n), (n, r)

    def test_the_gate_admits_only_the_zero_vector_at_r_three(self):
        # The other half of that reason: no other genus-2 leg vector passes
        # the gate, and the zero vector's relation is not empty.
        for n in range(0, 6):
            for r in range(3, 9):
                admitted = scan_admissible_leg_vectors(2, n, r)
                assert admitted == ([(0,) * n] if r == 3 else []), (n, r)
                for a_vec in admitted:
                    assert per_graph_coefficients(2, n, a_vec, r), (n, r)

    @pytest.mark.parametrize("n", range(11))
    def test_ac_rows_match_dict_pullback(self, n):
        pulled = dict_pullback_genus2(MUMFORD, n)
        direct = ac_relations(2, n)
        assert direct.rows == [
            primitive_int_vector([pulled.get(d, 0) for d in divisor_generators(2, n)])
        ]
        assert direct.provenances == [Provenance(2, n, None, REFERENCE)]


# Hand-made genus-2 feature sets over (k, irr, d1) of two and three rows:
# rows with k = 0, a negative pivot, dependent rows and a full-rank set.
GENUS_TWO_FEATURE_SETS = [
    [(5, -1, -7), (0, 1, 2)],
    [(0, 3, -1), (0, -2, 5)],
    [(0, 0, 4), (0, 2, 0)],
    [(-2, 1, 0), (4, -2, 0)],
    [(1, 2, 3), (-3, 0, 1), (0, 0, -2)],
    [(0, 1, 1), (-1, 0, 1), (2, 1, -1)],
    [(-5, 1, 7), (10, -2, -14), (0, 0, 0)],
]


def genus_two_sets(n):
    """The PPZ set at r = 3, the reference set and the hand-made sets on (2, n)."""
    hand_made = [RelationSet((2, n), rows, [Provenance(2, n, None, REFERENCE)] * len(rows))
                 for rows in GENUS_TWO_FEATURE_SETS]
    return [ppz_relation_set(2, n, 3), ac_relations(2, n)] + hand_made


class TestGenusTwoReducedRows:
    """Genus-2 reduced rows are reduced over the three features and written
    out once; the row reduction of the written-out rows is the oracle."""

    @pytest.mark.parametrize("n", range(7))
    def test_reduced_rows_are_the_basis_rref(self, n):
        for relation_set in genus_two_sets(n):
            assert relation_set.reduced_rows() == rref(relation_set.rows)[0], relation_set

    def test_no_row_reduction_over_basis_columns(self, monkeypatch):
        widths = []

        def spy(rows):
            widths.extend(len(row) for row in rows)
            return rref(rows)

        monkeypatch.setattr("rspinrel.relations.rref", spy)
        for n in (0, 1, 4, 12):
            for relation_set in genus_two_sets(n):
                relation_set.reduced_rows()
        assert widths and max(widths) == 3


class TestWrittenRowSign:
    """Every row written over the basis is primitive with a positive first
    nonzero entry: it is its own primitive_int_vector."""

    @staticmethod
    def assert_written_well(rows, case):
        for row in rows:
            assert primitive_int_vector(row) == row, (case, row)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_genus_one(self, n):
        units = [unit_vector(n, i) for i in range(1, n + 1)]
        reference = ac_relations(1, n)
        self.assert_written_well(reference.rows + reference.reduced_rows(), "reference")
        self.assert_written_well(assembled_relation_set(1, n, units).rows, "symbolic")
        for r in [*range(3, 41), 997]:
            relation_set = ppz_relation_set(1, n, r)
            self.assert_written_well(relation_set.rows + relation_set.reduced_rows(), r)
            self.assert_written_well([relation_row(1, n, a_vec, r) for a_vec in units], r)

    @pytest.mark.parametrize("n", range(8))
    def test_genus_two(self, n):
        # The unmarked leg vector () is taken at every n, and gives the same row.
        rows = [relation_row(2, n, (0,) * n, 3)]
        assert relation_row(2, n, (), 3) == rows[0]
        for relation_set in genus_two_sets(n):
            rows += relation_set.reduced_rows()
        for relation_set in genus_two_sets(n)[:2]:  # the PPZ and the reference set
            rows += relation_set.rows
        self.assert_written_well(rows, n)


class TestInputRefusals:
    @pytest.mark.parametrize("call", [
        lambda: relation_row(1, 3, (1, 0), 3),
        lambda: relation_row(1, 2, (1, 0, 0), 3),
        lambda: relation_row(2, 2, (0,), 3),
        lambda: assembled_relation_set(1, 3, [(1, 0)], 3),
        lambda: assembled_relation_set(1, 3, [(1, 0)]),
    ], ids=["short", "long", "genus-two", "set", "symbolic-set"])
    def test_leg_vector_length_must_be_n(self, call):
        with pytest.raises(ValueError, match="a_vec length must equal n"):
            call()

    @pytest.mark.parametrize("g,n", [(1, 100), (1, 16), (0, 1), (1, 0), (2, -1)])
    @pytest.mark.parametrize("r", [3, None])
    def test_set_without_leg_vectors_checks_the_space(self, g, n, r):
        # Refused as the reference and the full set refuse the space.
        with pytest.raises(ValueError) as reference:
            ac_relations(g, n)
        with pytest.raises(ValueError) as full:
            ppz_relation_set(g, n, 3)
        with pytest.raises(reference.type) as assembled:
            assembled_relation_set(g, n, [], r)
        assert str(assembled.value) == str(reference.value) == str(full.value)

    def test_gate_comes_before_the_basis_check(self):
        with pytest.raises(DegreeGateError):
            assembled_relation_set(4, 100, [(0,) * 100], 3)
        with pytest.raises(ValueError, match="above the limit"):
            assembled_relation_set(1, 100, [(1,) + (0,) * 99], 3)

    @pytest.mark.parametrize("r", [-5, 0, 1, 2])
    def test_r_below_three_is_refused(self, r):
        for call in (lambda: ppz_relation_set(1, 3, r), lambda: admissible_leg_vectors(2, 3, r),
                     lambda: phi_degree(1, (), r), lambda: relation_row(1, 1, (1,), r)):
            with pytest.raises(ValueError, match="r must be at least 3"):
                call()


class TestDegreeGate:
    def test_genus_four_refused_with_degree_report(self):
        with pytest.raises(DegreeGateError) as excinfo:
            relation_row(4, 0, (), 3)
        assert excinfo.value.witten_degree == 1
        assert "degree" in str(excinfo.value)

    def test_gate_matches_the_definition_exactly(self):
        for g in (1, 2, 3):
            for n in range(0, 3):
                if 2 * g - 2 + n <= 0:
                    continue
                for r in (3, 4):
                    for a_vec in product(range(r - 1), repeat=n):
                        if gate_passes(g, a_vec, r):
                            relation_row(g, n, a_vec, r)  # must not raise
                        else:
                            with pytest.raises(DegreeGateError):
                                relation_row(g, n, a_vec, r)

    def test_every_gate_reader_matches_the_definition(self, capsys):
        # phi_degree's two flags, numeric's refusal and empty dict,
        # admissible_leg_vectors and the command line's up-front refusal and
        # note, each checked against the definitions, never against phi_degree.
        note = "auxiliary degree is not an integer multiple of r-1"
        for g, n, r in product(range(1, 7), range(4), range(3, 13)):
            if 2 * g - 2 + n <= 0:
                continue
            table, vectors = _RelationTable(g, n), list(product(range(r - 1), repeat=n))
            for a_vec in vectors:
                passes, parity = gate_passes(g, a_vec, r), parity_holds(g, a_vec, r)
                report = phi_degree(g, a_vec, r)
                assert (report.relation_exists, report.d_integral) == (passes, parity), (
                    g, a_vec, r)
                if passes:
                    assert (table.numeric(a_vec, r) == {}) == (not parity), (g, a_vec, r)
                else:
                    with pytest.raises(DegreeGateError):
                        table.numeric(a_vec, r)
            admitted = [a for a in vectors if gate_passes(g, a, r) and parity_holds(g, a, r)]
            assert admissible_leg_vectors(g, n, r) == admitted, (g, n, r)
            code = main(["relations", "--g", str(g), "--n", str(n), "--r", str(r)])
            out, err = capsys.readouterr()
            opened = any(gate_passes(g, a, r) for a in vectors)
            assert (code, err.startswith("refused: ")) == ((0, False) if opened else (2, True))
            zero_parity = parity_holds(g, (0,) * n, r)
            assert (note in out) == (opened and not admitted and not zero_parity), (g, n, r)

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
                    if phi_degree(g, (s,), r).relation_exists and (s - g) % (r - 1) == 0
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
                        if not phi_degree(g, a_vec, r).relation_exists:
                            continue
                        values = _RelationTable(g, n).numeric(a_vec, r)
                        assert all(type(value) is int for value in values.values())
                        expected = per_graph_coefficients(g, n, a_vec, r)
                        if g == 2 and expected:  # contracted on the unmarked space
                            unmarked = per_graph_coefficients(2, 0, (), r)
                            assert keyed_classes(2, 0, (), values) == unmarked, (n, a_vec, r)
                        else:
                            assert keyed_classes(g, n, a_vec, values) == expected, (g, n, a_vec, r)
                        assert relation_row(g, n, a_vec, r) == class_row(g, n, expected)
                        seen_zero += not expected
                        seen_nonzero += bool(expected)
        assert seen_zero and seen_nonzero

    @pytest.mark.parametrize("g,n,r", [(1, 4, 3), (1, 5, 10), (2, 3, 3)])
    def test_one_table_serves_every_admissible_vector(self, monkeypatch, g, n, r):
        # The loop sum is contracted once per sample r for the whole table,
        # not once per leg vector.
        import rspinrel.relations as relations_module

        contracted = []
        original = relations_module._loop_sum

        def counted(g, a_vec, r, edges):
            contracted.append(r)
            return original(g, a_vec, r, edges)

        monkeypatch.setattr(relations_module, "_loop_sum", counted)
        table = _RelationTable(g, n)
        a_vecs = admissible_leg_vectors(g, n, r)
        assert len(a_vecs) == (n if g == 1 else 1)
        for a_vec in a_vecs:
            values = table.numeric(a_vec, r)
            if g == 2:  # contracted on the unmarked space
                assert keyed_classes(2, 0, (), values) == per_graph_coefficients(2, 0, (), r)
            else:
                assert keyed_classes(g, n, a_vec, values) == per_graph_coefficients(g, n, a_vec, r)
            if g == 1:
                polys = symbolic_polys(table, a_vec)
                assert keyed_classes(1, n, a_vec, polys) == per_class_symbolic(n, a_vec)
        assert sorted(contracted) == (sorted({r, *SAMPLE_RS}) if g == 1 else [r])

    def test_symbolic_matches_per_divisor_interpolation(self):
        for n in range(1, 6):
            for a_vec in product((0, 1), repeat=n):
                if not phi_degree(1, a_vec, 3).relation_exists:
                    continue
                polys = symbolic_polys(_RelationTable(1, n), a_vec)
                assert keyed_classes(1, n, a_vec, polys) == per_class_symbolic(n, a_vec), (n, a_vec)

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
        oracle = per_class_symbolic(n, a_vec)
        assert keyed_classes(1, n, a_vec, symbolic_polys(_RelationTable(1, n), a_vec)) == oracle
        expected = [(a_vec, r_mode, row) for r_mode, row in per_class_extract(n, oracle)]
        assert labelled_rows(assembled_relation_set(1, n, [a_vec])) == expected

    def test_zero_extraction(self):
        assert assembled_relation_set(1, 3, [(1, 1, 0)]).rows == []

    @pytest.mark.parametrize("n,r", [(n, r) for n, r in G1_NR if n <= 6])
    def test_relation_set_matches_per_class_oracle(self, n, r):
        assert labelled_rows(ppz_relation_set(1, n, r)) == per_class_relation_rows(n, r)


class TestBookkeeping:
    def test_graph_terms_share_exponent(self):
        # Every enumerated graph carries the relation's exponent
        # sum(a) + (g-1)(r-2), as its numerator over r-1: the primary legs'
        # sum(a), and r-2 for each edge and each g_v - 1 of a vertex, since
        # edges + sum(g_v - 1) = g - 1.  Dilaton legs contribute nothing.
        for g in (1, 2, 3):
            for n in range(0, 4):
                if 2 * g - 2 + n <= 0:
                    continue
                for r in (3, 4, 7):
                    for a_vec in product(range(r - 1), repeat=n):
                        expected = sum(a_vec) + (g - 1) * (r - 2)
                        for contrib in enumerate_contributing_graphs(g, n):
                            graph = contrib.graph
                            phi = sum(a_vec) + (r - 2) * (
                                len(graph.edges) + sum(v.genus - 1 for v in graph.vertices))
                            assert phi == expected, (g, n, r, a_vec, contrib.kind)

    def test_permutation_determinism(self):
        basis = divisor_generators(1, 3)
        rel = relation_row(1, 3, (1, 0, 0), 3)
        for sigma in permutations(range(3)):
            permuted_a = tuple((1, 0, 0)[sigma[i]] for i in range(3))
            permuted = zip(basis, relation_row(1, 3, permuted_a, 3))
            # Slot j of the permuted vector plays the role of original slot
            # sigma[j]; relabel the permuted relation accordingly and compare
            # the primitive rows.
            relabeled = {}
            forward = {j + 1: sigma[j] + 1 for j in range(3)}
            for divisor, coeff in permuted:
                if divisor.kind == "psi":
                    relabeled[psi(forward[divisor.index])] = coeff
                elif divisor.kind == "delta_sep":
                    new_marks = frozenset(forward[i] for i in divisor.markings)
                    relabeled[delta_sep(divisor.h, new_marks)] = coeff
                else:
                    relabeled[divisor] = coeff
            assert class_row(1, 3, relabeled) == rel


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
    @given(unit_legs)
    def test_symbolic_evaluates_to_numeric(self, leg):
        # At the samples r = 3..8 and beyond them.
        n, i = leg
        a_vec = unit_vector(n, i)
        symbolic = symbolic_polys(_RelationTable(1, n), a_vec)
        for r in range(3, 41):
            evaluated = {key: poly(r) for key, poly in symbolic.items()}
            assert evaluated == _RelationTable(1, n).numeric(a_vec, r), r

    @settings(deadline=None)
    @given(unit_legs, wide_r)
    def test_relation_equivariant_under_swapping_markings(self, leg, r):
        n, i = leg
        first = zip(divisor_generators(1, n), relation_row(1, n, unit_vector(n, 1), r))
        swapped = {swap_markings(d, i, n): c for d, c in first}
        assert relation_row(1, n, unit_vector(n, i), r) == class_row(1, n, swapped)

    @settings(deadline=None)
    @given(relabellings(1), st.integers(3, 8), st.data())
    def test_relation_equivariant_under_permuting_markings(self, relabelling, r, data):
        # Relabelling the markings by sigma takes the relation for e_i to the
        # one for e_sigma(i), class by class.
        n, sigma = relabelling
        i = data.draw(st.integers(1, n))
        rel = zip(divisor_generators(1, n), relation_row(1, n, unit_vector(n, i), r))
        moved = {permute_class(d, sigma, 1, n): c for d, c in rel}
        assert relation_row(1, n, unit_vector(n, sigma[i]), r) == class_row(1, n, moved)

    @settings(deadline=None)
    @given(relabellings(1))
    def test_genus_two_pullback_invariant_under_permuting_markings(self, relabelling):
        n, sigma = relabelling
        [row] = ppz_relation_set(2, n, 3).rows
        rel = dict(zip(divisor_generators(2, n), row))
        assert {permute_class(d, sigma, 2, n): c for d, c in rel.items()} == rel

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 5), wide_r)
    def test_reduced_rows_independent_of_r(self, n, r):
        # The reduced row echelon form is unique, so equal spans give equal rows.
        assert ppz_relation_set(1, n, r).reduced_rows() == ppz_relation_set(1, n, 3).reduced_rows()

    @settings(deadline=None)
    @given(unit_legs, wide_r)
    def test_relation_lies_in_reference_span(self, leg, r):
        n, i = leg
        rows = ac_relations(1, n).rows
        extended = rows + [relation_row(1, n, unit_vector(n, i), r)]
        assert len(rref(extended)[1]) == len(rref(rows)[1]) == n + 1


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

    def test_rank_matches_fraction_rref(self):
        for g, n in ((1, 1), (1, 3), (1, 4), (2, 2), (3, 0)):
            relation_set = ppz_relation_set(g, n, 3)
            rank = len(rref(relation_set._span_rows())[1])
            assert rank == len(fraction_rref(relation_set.rows)[1]), (g, n)

    def test_equivalence_genus_two(self):
        for n in range(0, 6):
            report = spans_equal(ppz_relation_set(2, n, 3), ac_relations(2, n))
            assert report.equal and report.rank_left == 1, (n, report)

    @pytest.mark.parametrize("g", [3, 4, 5, 7, 12])
    def test_equivalence_genus_three_and_up(self, g):
        # Both sets are empty: the generators are independent for g >= 3,
        # and no leg vector passes both the degree gate and the parity
        # condition sum(a) = g mod r-1.
        for n in (0, 1, 3):
            reference = ac_relations(g, n)
            assert reference == RelationSet((g, n), [], [])
            for r in (3, 4, 9):
                assert admissible_leg_vectors(g, n, r) == []
                report = spans_equal(ppz_relation_set(g, n, r), reference)
                assert report.equal and report.rank_union == 0, (g, n, r)

    def test_unequal_against_empty(self):
        computed = ppz_relation_set(1, 2, 3)
        empty = RelationSet((1, 2), [], [])
        assert spans_equal(computed, empty) == (False, 3, 0, 3)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            spans_equal(ppz_relation_set(1, 2, 3), ac_relations(1, 3))

    @pytest.mark.parametrize("left,right", [((1, 15), (1, 14)), ((1, 5), (2, 5))], ids=str)
    def test_mismatch_refused_before_any_basis(self, left, right):
        # The spaces are compared first, so no 2^n-class basis is written out.
        a, b = ppz_relation_set(*left, 3), ac_relations(*right)
        oracles._divisor_generators.cache_clear()
        with pytest.raises(BasisMismatchError, match="different spaces"):
            spans_equal(a, b)
        assert oracles._divisor_generators.cache_info().currsize == 0

    def test_r_independence_three_markings(self):
        sets = {r: ppz_relation_set(1, 3, r) for r in (3, 4, 5)}
        for ra, rb in ((3, 4), (3, 5), (4, 5)):
            assert spans_equal(sets[ra], sets[rb]).equal

    def test_genus_one_ac_rows_match_dict_construction(self):
        for n in range(1, 11):
            direct = ac_relations(1, n)
            _, rows, provenances = dict_ac_relations_genus_one(n)
            assert direct.rows == [primitive_int_vector(row) for row in rows], n
            assert direct.provenances == provenances
            assert direct.reduced_rows() == rref(rows)[0], n


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
        assert len(rref(computed._span_rows())[1]) == len(oracle_pivots)
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
            for p in range(r - 1):
                for q in range(r - 1):
                    assert edge_constant_term(p, q, r) == edge_constant_term(q, p, r)

    def test_entries_are_every_nonzero_constant_term(self):
        for r in range(3, 13):
            full = {}
            for p in range(r - 1):
                for q in range(r - 1):
                    entry = edge_constant_term(p, q, r)
                    if entry != 0:
                        full[(p, q)] = 24 * entry
            assert dict(_edge_entries(r)) == full, r

    def test_constant_term_matches_full_sum(self):
        # The order-0 divisibility identity: the numerator's (1, 0) and
        # (0, 1) coefficients agree, and both are the constant term.
        for r in range(3, 41):
            for p, q in product(range(r - 1), repeat=2):
                entry = edge_constant_term(p, q, r)
                assert entry == loop_edge_numerator_coefficient(1, 0, p, q, r), (r, p, q)
                assert entry == loop_edge_numerator_coefficient(0, 1, p, q, r), (r, p, q)

    def test_constant_term_checks_both_indices(self):
        for r in (3, 4, 7):
            for bad in (-1, r - 1):
                for good in range(r - 1):
                    with pytest.raises(ValueError):
                        edge_constant_term(bad, good, r)
                    with pytest.raises(ValueError):
                        edge_constant_term(good, bad, r)
                with pytest.raises(ValueError):
                    edge_constant_term(bad, bad, r)

    @pytest.mark.parametrize("q", [-1, 2])
    def test_constant_term_names_the_bad_index(self, q):
        with pytest.raises(ValueError, match=f"^basis index {q} out of range 0\\.\\.1$"):
            edge_constant_term(0, q, 3)

    def test_leg_sum_single_term_matches_full_sum(self):
        for r in range(3, 13):
            for g, n in ((1, 1), (1, 2), (2, 2), (3, 1)):
                for insertions in product(range(r - 1), repeat=n):
                    for i in range(n):
                        assert _leg_sum(g, insertions, i, r) == (
                            24 * loop_leg_sum(g, insertions, i, r)
                        ), (r, g, insertions, i)

    def test_loop_total_closed_form(self):
        # Summed over all node insertions against the degree-zero vertex, the
        # loop contributes -(r-1)^(g-1) * (r-1)(r-2)/24 on the boundary class.
        from rspinrel.cohft import topological_value

        for g, n, a_vec in ((1, 2, (1, 0)), (2, 0, ())):
            for r in (3,) if g == 2 else (3, 4, 5):
                total = Fraction(0)
                for p in range(r - 1):
                    for q in range(r - 1):
                        entry = edge_constant_term(p, q, r)
                        if entry == 0:
                            continue
                        value = topological_value(g - 1, list(a_vec) + [p, q], r)
                        total += entry * value
                expected = -Fraction((r - 1) ** (g - 1)) * Fraction((r - 1) * (r - 2), 24)
                assert total == expected, (g, r)


class TestFirstOrderClosedForm:
    """The relation path reads 24 P_1(r, a) in closed form; the P recursion
    and the edge term read off it are its oracles, up to the largest r the
    command line admits."""

    RS = [*range(3, 41), 100, 997, MAX_R]

    @pytest.mark.parametrize("r", RS)
    def test_closed_form_is_the_recursion(self, r):
        assert [_first_order(r, a) for a in range(r - 1)] == [
            24 * p_polynomial(1, a, r) for a in range(r - 1)]

    @pytest.mark.parametrize("r", RS)
    def test_edge_entries_are_24_times_the_nonzero_oracle_terms(self, r):
        # Every pair (p, q) up to r = 100.  Above, a full scan takes seconds,
        # so every row p = 0 mod 25 is scanned in full, and each entry the
        # library lists is checked against the oracle.
        entries = dict(_edge_entries(r))
        for p in range(0, r - 1, 1 if r <= 100 else 25):
            for q in range(r - 1):
                entry = edge_constant_term(p, q, r)
                assert entries.get((p, q), 0) == 24 * entry, (r, p, q)
        for (p, q), entry in entries.items():
            assert entry == 24 * edge_constant_term(p, q, r) != 0, (r, p, q)


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

def class_contract(g, a_vec, d, r, edges):
    """The coefficient of the class d before the r^(g-1) prefactor, by the
    per-family sum of its kind."""
    if d.kind == PSI:
        return _leg_sum(g, a_vec, d.index - 1, r)
    if d.kind == DELTA_SEP:
        a0 = [a_vec[i - 1] for i in sorted(d.markings)]
        a1 = [a for i, a in enumerate(a_vec, 1) if i not in d.markings]
        return _separating_sum(g, d.h, a0, a1, r, edges)
    if d.kind == DELTA_IRR:
        return _loop_sum(g, a_vec, r, edges)
    return _dilaton_sum(g, a_vec, r)


def dense_relation_set(g, n, a_vecs, r=None, extract=True):
    """Oracle for assembled_relation_set: (basis, rows, provenances) on the
    class-keyed dense path that the feature rows replace.  Every basis class
    gets its key, each key is contracted at its first class in basis order,
    at any leg vector and with no shortcut for a non-integral exponent, and
    each relation is the primitive row of every class's value over the basis:
    the assembly at r when r is given, then in genus 1 (with ``extract``) each
    power of r of the interpolated values."""
    basis = tuple(divisor_generators(g, n))
    rows, provenances = [], []
    for a_vec in a_vecs:
        keys = [dense_key(d, a_vec) for d in basis]
        first = {}
        for key, d in zip(keys, basis):
            first.setdefault(key, d)

        def values(rr):
            edges = _edge_entries(rr)
            return {key: class_contract(g, a_vec, d, rr, edges) * rr ** (g - 1)
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
    return basis, rows, provenances


def dense_ppz_relation_set(g, n, r):
    """Oracle for ppz_relation_set on the dense path, as (basis, rows,
    provenances); in genus 2 the unmarked class-keyed relation pulled back
    class by class."""
    if g != 2:
        return dense_relation_set(g, n, admissible_leg_vectors(g, n, r), r)
    base, rows, provenances = dense_relation_set(2, 0, [()], r)
    pulled = [class_row(2, n, dict_pullback_genus2(dict(zip(base, row)), n)) for row in rows]
    return (tuple(divisor_generators(2, n)), pulled,
            [prov._replace(n=n) for prov in provenances])


def span_ranks(left, right):
    """The SpanReport of two lists of rows over one basis, from rref."""
    ranks = [len(rref(rows)[1]) for rows in (left, right, left + right)]
    return (ranks[0] == ranks[1] == ranks[2], *ranks)


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
            computed = assembled_relation_set(1, n, a_vecs)
            _, rows, provenances = dense_relation_set(1, n, a_vecs)
            assert computed.rows == rows
            assert computed.provenances == provenances
        elif a_vec is not None and g == 1:
            basis, rows, _ = dense_relation_set(1, n, [a_vec], r, extract=False)
            assert [relation_row(1, n, a_vec, r)] == (rows or [(0,) * len(basis)])
        else:
            computed = ppz_relation_set(g, n, r)
            _, rows, provenances = dense_ppz_relation_set(g, n, r)
            assert computed.rows == rows
            assert computed.provenances == provenances
            assert computed.reduced_rows() == rref(rows)[0]
            reference = ac_relations(g, n)
            assert spans_equal(computed, reference) == span_ranks(rows, reference.rows)

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
        assert rref(dense_ppz_relation_set(1, n, 3)[1])[0] == closed_form_reduced_rows(n)


def genus_one_features(n, i):
    """A_i = psi_i - chi_i, B_i = sum_{j != i} psi_j - kappa_1 - one + chi_i and
    delta_irr as rows over the genus-1 features psi_1..psi_n, kappa_1,
    delta_irr, chi_1..chi_n and one."""
    A, B, irr = ([0] * (2 * n + 3) for _ in range(3))
    A[i - 1], A[n + 1 + i] = 1, -1
    for j in range(1, n + 1):
        B[j - 1] = int(j != i)
    B[n], B[-1], B[n + 1 + i] = -1, -1, 1
    irr[n + 1] = 1
    return A, B, irr


def explicit_relation(n, i, r):
    """(13 - 2r) A_i - (2r - 1) B_i - delta_irr over the genus-1 features; r is
    an integer or the variable of RPoly."""
    return [(13 - 2 * r) * a - (2 * r - 1) * b - d for a, b, d in zip(*genus_one_features(n, i))]


class TestExplicitGenusOneRelation:
    """The genus-1 relation of e_i in closed form, the paper's explicit PPZ
    relation: the contraction gives (r-1)(r-2)/24 times
    (13 - 2r) A_i - (2r - 1) B_i - delta_irr, whose r^1 and r^0 parts span the
    Arbarello-Cornalba relations, for every n and r."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_relation_row_is_the_closed_form(self, n):
        for r in range(3, 61):
            for i in range(1, n + 1):
                expected = primitive_int_vector(_expand(1, n, explicit_relation(n, i, r)))
                assert relation_row(1, n, unit_vector(n, i), r) == expected, (n, i, r)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 11).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.integers(3, 400))
    @example((11, 11), 400)
    def test_relation_row_is_the_closed_form_anywhere(self, leg, r):
        n, i = leg
        expected = primitive_int_vector(_expand(1, n, explicit_relation(n, i, r)))
        assert relation_row(1, n, unit_vector(n, i), r) == expected

    @pytest.mark.parametrize("n", range(1, 12))
    def test_span_identity_in_r(self, n):
        # The symbolic contraction, at its scale 24, is the closed form with
        # 24 times its prefactor; its r^1 part is twice the AC kappa_1 row,
        # and its r^0 part is the AC psi_i row minus that row.
        r = RPoly.variable()
        *psi_rows, kappa_row = ac_relations(1, n).features
        for i in range(1, n + 1):
            relation = explicit_relation(n, i, r)
            polys = symbolic_polys(_RelationTable(1, n), unit_vector(n, i))
            assert _expand(1, n, _feature_row(1, unit_vector(n, i), polys)) == _expand(
                1, n, [(r - 1) * (r - 2) * x for x in relation]
            )
            assert all(x.degree <= 1 for x in relation)
            assert [x.coefficient(1) for x in relation] == [2 * k for k in kappa_row]
            assert [x.coefficient(0) for x in relation] == [
                p - k for p, k in zip(psi_rows[i - 1], kappa_row)
            ]


def dependent_feature_rows(min_n):
    """(n, rows) with rows over the genus-1 features at min_n <= n <= 7
    markings: integer combinations of a few random rows, so that dependent
    rows are common.  About half the random rows vanish on psi_1..psi_n,
    kappa_1 and delta_irr, so that pivots on chi_i and one are common too."""

    def rows(n):
        width = 2 * n + 3
        base = st.tuples(st.booleans(), st.lists(st.integers(-3, 3), min_size=width,
                                                 max_size=width))
        base = base.map(lambda case: [0] * (n + 2) + case[1][n + 2:] if case[0] else case[1])
        return st.tuples(
            st.lists(base, min_size=1, max_size=3),
            st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=n + 2),
        ).map(lambda case: (n, [
            tuple(sum(c * b[k] for c, b in zip(coeffs, case[0])) for k in range(width))
            for coeffs in case[1]
        ]))

    return st.integers(min_n, 7).flatmap(rows)


def chi_rows(n, *rows):
    """Rows over the genus-1 features at n markings, each given as the
    feature indices it holds 1 at: i - 1 for psi_i, n + 1 + i for chi_i and
    2n + 2 for one."""
    return [tuple(int(k in row) for k in range(2 * n + 3)) for row in rows]


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
    @given(dependent_feature_rows(3))
    def test_feature_rank_is_the_expanded_rank(self, case):
        n, rows = case
        assert len(rref(rows)[1]) == len(rref([_expand(1, n, row) for row in rows])[1])

    @settings(deadline=None, max_examples=100)
    @given(dependent_feature_rows(1))
    @example((3, chi_rows(3, {5}, {6})))  # chi_1 and chi_2
    @example((3, chi_rows(3, {0, 6}, {5})))  # psi_1 + chi_2 and chi_1: one pivot on chi_1
    @example((4, chi_rows(4, {10})))  # one
    def test_reduced_rows_are_the_basis_rref(self, case):
        # A pivot on chi_i or one, which the basis lacks, is reduced again
        # over the basis; below three markings the basis rows are reduced.
        n, rows = case
        relation_set = RelationSet((1, n), rows, [Provenance(1, n, None, REFERENCE)] * len(rows))
        assert relation_set.reduced_rows() == rref(relation_set.rows)[0]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(3, 8), wide_r)
    def test_set_rank_is_the_expanded_rank(self, n, r):
        for relation_set in (ppz_relation_set(1, n, r), ac_relations(1, n)):
            rank = len(rref(relation_set._span_rows())[1])
            assert rank == len(rref(relation_set.rows)[1]) == n + 1

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 2), wide_r)
    def test_dependent_features_fall_back_to_the_basis(self, n, r):
        report = spans_equal(ppz_relation_set(1, n, r), ac_relations(1, n))
        assert report == (True, n + 1, n + 1, n + 1)

    def test_fallback_is_needed_at_two_markings(self):
        # At n = 2, chi_1 = chi_2 = one: the feature rank overcounts.
        computed = ppz_relation_set(1, 2, 3)
        assert len(rref(computed.features)[1]) == 4
        assert len(rref(computed._span_rows())[1]) == 3
