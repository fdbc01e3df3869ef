from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from rspinrel.oracles import (
    StableGraph,
    Vertex,
    canonical_divisor,
    delta_irr,
    delta_sep,
    divisor_class_of,
    divisor_generators,
    enumerate_contributing_graphs,
    kappa1,
    psi,
)
from rspinrel.strata import (
    MAX_BASIS_SIZE,
    StabilityError,
    UnsupportedGenusError,
    basis_size,
    check_space,
    generator_names,
)


def sorted_key(d):
    """The order the basis is sorted in: psi's by index, kappa_1, delta_irr,
    then separating classes by (h, sorted S)."""
    if d.kind == "psi":
        return (0, d.index, 0, ())
    if d.kind == "kappa1":
        return (1, 0, 0, ())
    if d.kind == "delta_irr":
        return (2, 0, 0, ())
    return (3, 0, d.h, tuple(sorted(d.markings)))


def sorted_basis(g, n):
    """Oracle for divisor_generators: canonicalize every stable (h, S),
    collect the classes in a set and sort them."""
    seps = set()
    marks = list(range(1, n + 1))
    for h in range(g + 1):
        for size in range(n + 1):
            for S in combinations(marks, size):
                try:
                    seps.add(canonical_divisor(delta_sep(h, S), g, n))
                except StabilityError:
                    continue
    head = [psi(i) for i in range(1, n + 1)] + [kappa1(), delta_irr()]
    return head + sorted(seps, key=sorted_key)


def summed_basis_size(g, n):
    """Oracle for basis_size: the stable pairs (h, S) summed by |S|."""
    pairs = sum(
        comb(n, k) for h in range(g + 1) for k in range(n + 1)
        if (h or k >= 2) and (g - h or n - k >= 2)
    )
    return n + 2 + (pairs + (n == 0 and g % 2 == 0)) // 2


STABLE_SPACES = [(g, n) for g in range(1, 6) for n in range(11) if 2 * g - 2 + n > 0]


class TestCanonicalDivisor:
    def test_genus_swap(self):
        got = canonical_divisor(delta_sep(2, ()), 2, 2)
        assert got == delta_sep(0, {1, 2})

    def test_higher_genus_identification(self):
        assert canonical_divisor(delta_sep(2, ()), 3, 0) == delta_sep(1, ())

    def test_psi_unchanged(self):
        assert canonical_divisor(psi(1), 1, 2) == psi(1)

    def test_idempotent_and_orbit_constant(self):
        g, n = 2, 3
        marks = set(range(1, n + 1))
        for h in range(g + 1):
            for size in range(n + 1):
                for S in combinations(sorted(marks), size):
                    try:
                        c1 = canonical_divisor(delta_sep(h, S), g, n)
                    except StabilityError:
                        continue
                    assert canonical_divisor(c1, g, n) == c1
                    partner = delta_sep(g - h, marks - set(S))
                    assert canonical_divisor(partner, g, n) == c1

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            canonical_divisor(delta_sep(0, {1}), 1, 2)
        with pytest.raises(StabilityError):
            canonical_divisor(delta_sep(0, ()), 2, 0)

    def test_bad_marking(self):
        with pytest.raises(ValueError):
            canonical_divisor(delta_sep(0, {5}), 1, 2)


class TestDivisorGenerators:
    def test_two_marked_genus_one(self):
        gens = divisor_generators(1, 2)
        assert gens == [psi(1), psi(2), kappa1(), delta_irr(), delta_sep(0, {1, 2})]

    def test_counts_follow_two_power_formula(self):
        for n in range(1, 7):
            assert len(divisor_generators(1, n)) == 2**n + 1

    def test_unmarked_genus_two(self):
        assert divisor_generators(2, 0) == [kappa1(), delta_irr(), delta_sep(1, ())]

    def test_genus_zero_rejected(self):
        with pytest.raises(UnsupportedGenusError):
            divisor_generators(0, 5)

    def test_each_call_returns_a_fresh_list(self):
        gens = divisor_generators(1, 3)
        gens.reverse()
        gens.append(psi(9))
        again = divisor_generators(1, 3)
        assert again is not gens
        assert again[0] == psi(1) and len(again) == 2**3 + 1

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            divisor_generators(1, 0)

    def test_render_strings(self):
        assert psi(1).render() == "psi_1"
        assert kappa1().render() == "kappa_1"
        assert delta_irr().render() == "delta_irr"
        assert delta_sep(0, {1, 3}).render() == "delta_{0,{1,3}}"
        assert delta_sep(1, ()).render() == "delta_{1,{}}"


class TestDivisorClassRecord:
    def test_hash_is_the_tuple_of_its_fields(self):
        # The same hash as a frozen record of (kind, index, h, markings), so
        # set and dict orders over classes do not depend on the record type.
        for g, n in ((1, 7), (2, 5)):
            for d in divisor_generators(g, n):
                assert hash(d) == hash((d.kind, d.index, d.h, d.markings))

    def test_repr_is_the_rendered_name(self):
        for g, n in ((1, 7), (2, 5)):
            for d in divisor_generators(g, n):
                assert repr(d) == d.render()
        assert repr(delta_sep(1, {2, 1})) == "delta_{1,{1,2}}"

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            psi(1).index = 2


class TestCanonicalOrder:
    """The basis listed directly in canonical order against the sorted set of
    canonicalized classes."""

    @pytest.mark.parametrize("g,n", STABLE_SPACES)
    def test_matches_sorted_oracle(self, g, n):
        gens, oracle = divisor_generators(g, n), sorted_basis(g, n)
        assert gens == oracle
        # Same field types too: frozenset markings and None where unused.
        assert [tuple(map(type, d)) for d in gens] == [tuple(map(type, d)) for d in oracle]

    @given(st.sampled_from(STABLE_SPACES))
    def test_canonical_strictly_increasing_and_sized(self, space):
        g, n = space
        gens = divisor_generators(g, n)
        assert all(canonical_divisor(d, g, n) == d for d in gens)
        keys = [sorted_key(d) for d in gens]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(gens) == basis_size(g, n)


class TestGeneratorNames:
    """The names listed from the subsets' texts against ``render`` on each
    class of the basis."""

    @pytest.mark.parametrize("g", range(1, 5))
    def test_match_rendered_basis(self, g):
        spaces = [n for n in range(13) if 2 * g - 2 + n > 0]
        for n in spaces:
            assert generator_names(g, n) == [d.render() for d in divisor_generators(g, n)], n
        assert len(spaces) == 13 - (g == 1)

    @pytest.mark.parametrize("g,n,error", [
        (0, 3, UnsupportedGenusError), (1, 0, StabilityError), (2, -1, ValueError),
    ])
    def test_refused_like_the_basis(self, g, n, error):
        for build in (generator_names, divisor_generators):
            with pytest.raises(error):
                build(g, n)

    def test_oversized_basis_refused_with_its_size(self):
        with pytest.raises(ValueError, match="1073741825 classes, above the limit"):
            generator_names(1, 30)


class TestBasisSize:
    def test_closed_form_matches_enumeration(self):
        for g in range(1, 5):
            for n in range(0, 10):
                if 2 * g - 2 + n > 0:
                    assert basis_size(g, n) == len(divisor_generators(g, n)), (g, n)

    def test_limit_sits_above_the_largest_benchmark_basis(self):
        assert basis_size(1, 12) == 2 ** 12 + 1
        assert basis_size(2, 12) == 6145 < MAX_BASIS_SIZE

    def test_closed_form_matches_summed_pairs(self):
        for g in range(1, 8):
            for n in range(25):
                if 2 * g - 2 + n > 0:
                    assert basis_size(g, n) == summed_basis_size(g, n), (g, n)

    def test_large_n_refused_as_a_power_of_two(self):
        # Every basis has more than 2^n classes; 2^n itself is never printed.
        with pytest.raises(ValueError, match="at least 2\\^1000000 classes, above the limit"):
            divisor_generators(2, 10 ** 6)
        huge_g = 10 ** 4000
        with pytest.raises(ValueError, match="at least 2\\^13316 classes, above the limit"):
            divisor_generators(huge_g, 30)

    def test_negative_markings_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            divisor_generators(2, -1)

    @pytest.mark.parametrize("g,n", [(1, -1), (2, -1), (1, -3), (3, -4)])
    def test_negative_markings_refused_before_stability(self, g, n):
        # The sign of n comes first, so (1, -1) is not called unstable.
        with pytest.raises(ValueError, match="nonnegative") as refused:
            check_space(g, n)
        assert not isinstance(refused.value, StabilityError)

    def test_oversized_basis_refused_with_its_size(self):
        assert basis_size(1, 30) == 2 ** 30 + 1
        with pytest.raises(ValueError, match=f"1073741825 classes, above the limit of {MAX_BASIS_SIZE}"):
            divisor_generators(1, 30)


class TestEnumeration:
    def test_two_marked_genus_one(self):
        contribs = enumerate_contributing_graphs(1, 2)
        kinds = [c.kind for c in contribs]
        assert sorted(kinds) == [
            "dilaton_kappa",
            "leg_psi",
            "loop_edge",
            "separating_edge",
        ]

    def test_unmarked_genus_two(self):
        contribs = enumerate_contributing_graphs(2, 0)
        assert sorted(c.kind for c in contribs) == [
            "dilaton_kappa",
            "loop_edge",
            "separating_edge",
        ]

    def test_symmetric_separating_graph(self):
        # The genus 1+1 graph is its own mirror image: listed once.
        contribs = enumerate_contributing_graphs(2, 0)
        seps = [c for c in contribs if c.kind == "separating_edge"]
        assert len(seps) == 1
        assert divisor_class_of(seps[0].graph, 2, 0) == delta_sep(1, ())

    def test_asymmetric_separating_graph(self):
        # Each separating graph is listed once and lands on its own boundary
        # class; together they are exactly the separating generators.
        for g, n in ((1, 3), (2, 1), (2, 3), (3, 2)):
            contribs = enumerate_contributing_graphs(g, n)
            classes = [
                divisor_class_of(c.graph, g, n)
                for c in contribs if c.kind == "separating_edge"
            ]
            expected = [d for d in divisor_generators(g, n) if d.kind == "delta_sep"]
            assert len(classes) == len(set(classes))
            assert set(classes) == set(expected), (g, n)

    def test_genus_and_stability_of_all_graphs(self):
        for g in (1, 2, 3):
            for n in range(0, 5):
                if 2 * g - 2 + n <= 0:
                    continue
                for contrib in enumerate_contributing_graphs(g, n):
                    graph = contrib.graph
                    graph.validate()
                    # Independent recomputation of the genus formula.
                    betti = len(graph.edges) - len(graph.vertices) + 1
                    assert sum(v.genus for v in graph.vertices) + betti == g
                    for v in graph.vertices:
                        assert 2 * v.genus - 2 + v.valence > 0

    def test_unsupported_genus(self):
        with pytest.raises(UnsupportedGenusError):
            enumerate_contributing_graphs(4, 0)

    def test_excluded_families_absent(self):
        # The families of codimension 2 or more that the enumeration leaves
        # out: several dilaton legs, an edge with a dilaton leg, several edges.
        for g in (1, 2, 3):
            for n in range(0, 4):
                if 2 * g - 2 + n <= 0:
                    continue
                for contrib in enumerate_contributing_graphs(g, n):
                    graph = contrib.graph
                    dilaton = sum(v.dilaton_legs for v in graph.vertices)
                    assert dilaton <= 1 and len(graph.edges) <= 1
                    assert not (dilaton and graph.edges)

    def test_brute_force_one_edge_match(self):
        # Independent oracle: enumerate one-edge stable graphs by direct
        # partition of genus and markings, compare canonical classes.
        for n in (1, 2, 3):
            brute = set()
            marks = set(range(1, n + 1))
            if n > 0:  # loop vertex: genus 0 with n markings and two branches
                brute.add(delta_irr())
            for h in (0, 1):
                for size in range(n + 1):
                    for S in combinations(sorted(marks), size):
                        try:
                            brute.add(canonical_divisor(delta_sep(h, S), 1, n))
                        except StabilityError:
                            continue
            enumerated = {
                divisor_class_of(c.graph, 1, n)
                for c in enumerate_contributing_graphs(1, n)
                if c.graph.edges
            }
            assert enumerated == brute


class TestDivisorClassOf:
    def test_loop(self):
        loop = StableGraph(
            vertices=(Vertex(0, frozenset({1, 2}), (0, 1)),), edges=((0, 1),)
        )
        assert divisor_class_of(loop, 1, 2) == delta_irr()

    def test_separating(self):
        sep = StableGraph(
            vertices=(
                Vertex(1, frozenset(), (0,)),
                Vertex(0, frozenset({1, 2}), (1,)),
            ),
            edges=((0, 1),),
        )
        assert divisor_class_of(sep, 1, 2) == delta_sep(0, {1, 2})

    def test_genus_two_split(self):
        sep = StableGraph(
            vertices=(Vertex(1, frozenset(), (0,)), Vertex(1, frozenset(), (1,))),
            edges=((0, 1),),
        )
        assert divisor_class_of(sep, 2, 0) == delta_sep(1, ())

    def test_dilaton_maps_to_kappa(self):
        graph = StableGraph(vertices=(Vertex(1, frozenset({1}), (), 1),))
        assert divisor_class_of(graph, 1, 1) == kappa1()

    def test_psi_leg(self):
        graph = StableGraph(vertices=(Vertex(1, frozenset({1, 2})),))
        assert divisor_class_of(graph, 1, 2, psi_leg=2) == psi(2)

    def test_undecorated_smooth_rejected(self):
        graph = StableGraph(vertices=(Vertex(1, frozenset({1, 2})),))
        with pytest.raises(ValueError):
            divisor_class_of(graph, 1, 2)


class TestStableGraph:
    def test_validation_catches_instability(self):
        bad = StableGraph(vertices=(Vertex(0, frozenset({1}), (0,)), Vertex(1, frozenset(), (1,))), edges=((0, 1),))
        with pytest.raises(StabilityError):
            bad.validate()

    def test_validation_catches_disconnected(self):
        bad = StableGraph(
            vertices=(Vertex(1, frozenset({1})), Vertex(1, frozenset({2}))),
        )
        with pytest.raises(ValueError):
            bad.validate()
