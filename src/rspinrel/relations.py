"""Assembly and verification of divisor relations.

A relation in degree-2 cohomology of the moduli space of genus-g stable
curves with n markings, for shift data (r, a_1..a_n), is the codimension-1
part of the reconstructed shifted r-spin class.  It vanishes exactly when the
auxiliary total degree is negative, which is what
:meth:`_RelationTable.numeric` gates on.

The codimension-1 part receives contributions from four graph families
(enumerated in :mod:`rspinrel.oracles`):

* smooth graph, one psi power on one leg:     (r-1)^g-weighted leg entries,
* smooth graph, one dilaton leg:              the kappa_1 term,
* the one-loop graph:                         the irreducible boundary term,
* one-edge separating graphs:                 the delta_{h,S} terms.

The edge factor enters only through its constant term, in closed form
-P_1(r, p+1 mod r-1) at the one insertion pair (p, q = r-3-p mod r-1) for
each p, so node insertions at an edge are summed over those r-1 pairs.  The
per-family sums read P_1(r, a) = a(r-1-a)/2 - (2r-1)(r-2)/24 in closed form
and a topological vertex value as the integer (r-1)^g or 0, and each term
has one P_1 factor, so they work in integers at scale 24: each returns 24
times its sum.  Relations are projective, so the rows are those of scale 1.
The leg vectors that pass the degree gate and the parity condition are also
known in closed form: their sum is 0 or 1, so they are the zero vector and
the unit vectors (in genus 1, exactly the n unit vectors).

A topological vertex value depends only on the vertex genus and on its
insertion sum mod r-1, so a class's coefficient depends on the leg vector a
only through sum(a) and the class's key: (psi, a_i) for psi_i,
kappa_1, delta_irr, and (delta_sep, h, sum of a_i over S) for delta_{h,S}.
Below the gate every vector of one sum has the same keys, so a per-call
table contracts every key once per (r, sum(a)), each on a representative
insertion list, instead of once per class or graph.  For one-edge graphs the
gluing map onto the boundary divisor has degree equal to the automorphism
order of the graph, so the two cancel and the divisor coefficient is the
plain contraction sum; the golden totals pin this convention.
:func:`rspinrel.oracles.graph_contribution_terms` keeps the per-graph
enumeration as the test oracle; both paths share the per-family sums here.

Every contribution vanishes unless sum(a) = g mod r-1, which below the gate
leaves the unit vectors in genus 1 and the zero vector in genus 2, so each
relation lies in a few features: in genus 1 psi_1..psi_n, kappa_1, delta_irr,
chi_1..chi_n and one (chi_i sums the delta_{0,S} with i in S, one sums them
all), since for e_i a delta_{0,S} has the key of [i in S]; in genus 2 the
kappa_1, delta_irr and delta_1 of the unmarked space, whose pullback is the
relation with markings, so genus 2 is always contracted with no legs.
Relation sets keep integer rows over the features, take ranks and reduced rows
there, and write a row over the basis of about 2^n classes only when it is
read, with its first nonzero entry positive: the one place a sign is chosen.

In these features the genus-1 relation of e_i is (r-1)(r-2)/24 times
(13-2r) A_i - (2r-1) B_i - delta_irr, with A_i = psi_i - chi_i and
B_i = sum_{j != i} psi_j - kappa_1 - one + chi_i.  Its r^1 part -2(A_i + B_i)
is twice the Arbarello-Cornalba kappa_1 relation, and its r^0 part
13 A_i + B_i - delta_irr is their psi_i relation minus that one, so the span
equals theirs for every n >= 1 and r >= 3.  In genus 2 the one relation is
Mumford's 5 kappa_1 - delta_irr - 7 delta_1.

Symbolic-in-r relations are supported in genus 1 (where the contributing
index patterns are independent of r): every coefficient is a polynomial in r
of degree at most 3, recovered by exact interpolation from the table's values
at six sample r, once per sum(a).  Each power of r is extracted from those
few key polynomials as a feature row.  Only the code that builds or
reads such polynomials imports ``rpoly``, so a numeric relation, which
contracts in integers, loads neither it nor ``fractions``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .cohft import DegreeGateError, RSpinTheory, phi_degree
from .linalg import primitive_int_vector, rref
from .strata import (
    DELTA_IRR,
    DELTA_SEP,
    KAPPA1,
    PSI,
    UnsupportedGenusError,
    basis_size,
    check_space,
)

if TYPE_CHECKING:
    from .rpoly import RPoly

    EdgeEntries = tuple[tuple[tuple[int, int], int], ...]

# Sample points for symbolic-in-r interpolation: degree bound 3 for genus-1
# coefficients, plus consistency samples beyond the 4 needed nodes.
_SYMBOLIC_SAMPLE_RS = (3, 4, 5, 6, 7, 8)
_SYMBOLIC_DEGREE_BOUND = 3


class BasisMismatchError(ValueError):
    """Two relation sets do not share a generator basis."""


class Provenance(NamedTuple):
    g: int
    n: int
    a_vec: tuple[int, ...] | None
    r_mode: Union[int, str]  # numeric r, "r^k" or "reference"


class RelationSet(NamedTuple):
    """Relations on the (g, n) space ``space`` as integer rows over its
    features (primitive when assembled or reference), each with its
    provenance; ``rows`` writes them out over the divisor basis with
    :func:`_write_out` each time it is read."""

    space: tuple[int, int]
    features: list[tuple[int, ...]]
    provenances: list[Provenance]

    @property
    def rows(self) -> list[tuple[int, ...]]:
        return [_write_out(*self.space, row) for row in self.features]

    def _span_rows(self) -> list:
        """The rows to reduce the span over: the features where they map
        injectively to the basis (all but genus 1 with n <= 2, where
        chi_1 = ... = one), else the basis rows."""
        g, n = self.space
        return self.features if g > 1 or n >= 3 else self.rows

    def reduced_rows(self) -> list[tuple[int, ...]]:
        """Row-reduced basis of the span as primitive integer vectors over the
        basis, reduced over the features where they are independent and each
        written out once.  The features meet the basis in their own order, so
        the rows are reduced there too, except that a genus-1 pivot on chi_i
        or one, which the basis lacks, is reduced again over the basis."""
        rows = self._span_rows()
        reduced, pivots = rref(rows)
        if rows is not self.features:
            return reduced
        g, n = self.space
        if g == 1 and max(pivots, default=0) >= n + 2:
            return rref([_expand(g, n, row) for row in reduced])[0]
        return [_write_out(g, n, row) for row in reduced]


# ---------------------------------------------------------------------------
# Per-family sums at scale 24, shared by the per-graph oracle and the assembly
# ---------------------------------------------------------------------------

def _first_order(r: int, a: int) -> int:
    """24 P_1(r, a) = 12a(r-1-a) - (2r-1)(r-2), the first-order inverse-R
    entry at lower index a, in closed form."""
    return 12 * a * (r - 1 - a) - (2 * r - 1) * (r - 2)


def _vertex(g: int, total: int, r: int) -> int:
    """Topological value of a stable genus-g vertex whose insertions sum to
    ``total``: (r-1)^g when g - 1 - total is divisible by r - 1, else 0."""
    return (r - 1) ** g if (g - 1 - total) % (r - 1) == 0 else 0


def _edge_entries(theory: RSpinTheory) -> EdgeEntries:
    """24 times each nonzero edge constant term, with its insertion pair
    (p, q): -24 P_1(r, p+1 mod r-1) at q = r-3-p mod r-1, the one pair for
    each p where the term can be nonzero."""
    r = theory.r
    entries = []
    for p in range(r - 1):
        entry = -_first_order(r, (p + 1) % (r - 1))
        if entry:
            entries.append(((p, (r - 3 - p) % (r - 1)), entry))
    return tuple(entries)


def _leg_sum(g: int, insertions: Sequence[int], i: int, theory: RSpinTheory) -> int:
    """24 times the psi_{i+1} coefficient: one psi power on leg i of the
    smooth graph, which the first-order inverse R-matrix moves to the one
    index b with b + 1 = a_i mod r-1 (every other entry of its column
    vanishes), at the entry 24 P_1(r, a_i)."""
    r = theory.r
    return _first_order(r, insertions[i]) * _vertex(g, sum(insertions) - 1, r)


def _dilaton_sum(g: int, a_vec: Sequence[int], theory: RSpinTheory) -> int:
    """24 times the kappa_1 coefficient: psi^2 on the dilaton leg pushes
    forward to kappa_1; the dilaton series carries an explicit minus sign and
    inserts along the unit direction."""
    return -_leg_sum(g, [*a_vec, 0], len(a_vec), theory)


def _loop_sum(g: int, a_vec: Sequence[int], theory: RSpinTheory, edges: EdgeEntries) -> int:
    """24 times the delta_irr coefficient: the one-loop graph on a genus g-1
    vertex."""
    total, r = sum(a_vec), theory.r
    return sum(entry * _vertex(g - 1, total + p + q, r) for (p, q), entry in edges)


def _separating_sum(
    g: int, h: int, a0: list[int], a1: list[int], theory: RSpinTheory, edges: EdgeEntries
) -> int:
    """24 times the delta_{h,S} coefficient: genus-h vertex with insertions a0
    joined by one edge to a genus g-h vertex with insertions a1."""
    r, total0, total1 = theory.r, sum(a0), sum(a1)
    return sum(entry * _vertex(h, total0 + p, r) * _vertex(g - h, total1 + q, r)
               for (p, q), entry in edges)


# ---------------------------------------------------------------------------
# Numeric assembly
# ---------------------------------------------------------------------------

def _key_values(g: int, a_vec: tuple[int, ...], theory: RSpinTheory) -> dict:
    """24 times each key's coefficient for a zero or unit leg vector, before
    the r^(g-1) prefactor, contracted on its legs with the unit first: psi at
    the unit and at a zero leg, kappa_1, delta_irr and, for each h, the
    smallest stable delta_{h,S} with the unit in S and without it.  A separating key
    holds the raw sum of a over S, not its residue."""
    legs = sorted(a_vec, reverse=True)
    total, edges = sum(legs), _edge_entries(theory)
    values = {(PSI, a): _leg_sum(g, legs, legs.index(a), theory) for a in set(legs)}
    values[KAPPA1] = _dilaton_sum(g, legs, theory)
    values[DELTA_IRR] = _loop_sum(g, legs, theory, edges)
    for h in range(g // 2 + 1):
        least = 0 if h else 2
        for start, size in {(0, max(least, total)), (total, least)}:  # S with, without the unit
            inside = legs[start:start + size]
            if len(inside) == size:
                outside = legs[:start] + legs[start + size:]
                values[DELTA_SEP, h, sum(inside)] = _separating_sum(
                    g, h, inside, outside, theory, edges)
    return values


def _feature_row(g: int, a_vec: tuple[int, ...], values: dict) -> list:
    """The relation with these key values over its genus's features, a key no
    class holds read as 0.  For e_i in genus 1, delta_{0,S} holds ``inside``
    when i is in S, else ``outside``: (inside - outside) chi_i + outside one.
    In genus 2 the values are those of the unmarked space."""
    if g == 1:
        inside, outside = (values.get((DELTA_SEP, 0, s), 0) for s in (1, 0))
        return ([values.get((PSI, a), 0) for a in a_vec]
                + [values.get(KAPPA1, 0), values.get(DELTA_IRR, 0)]
                + [inside - outside if a else 0 for a in a_vec] + [outside])
    if g == 2:
        return [values.get(KAPPA1, 0), values.get(DELTA_IRR, 0), values.get((DELTA_SEP, 1, 0), 0)]
    return []


def _separating_entries(chi: Sequence[int], one: int) -> list[int]:
    """one + the sum of chi_i over S for each S with |S| >= 2, in the basis's
    lexicographic order: the S that start at k are k joined to each nonempty
    subset of k+1..n, and those subsets are {k+1}, then k+1 joined to each
    nonempty subset of k+2..n, then the nonempty subsets of k+2..n."""
    blocks, tails = [], []
    for c in reversed(chi):
        joined = [c + t for t in tails]
        blocks.append([one + x for x in joined] if one else joined)
        tails = [c] + joined + tails
    return [x for block in reversed(blocks) for x in block]


def _expand(g: int, n: int, row: Sequence) -> tuple:
    """A feature row written over the (g, n) basis.  Where the map is
    injective it keeps the gcd of the entries: each feature is an integer
    combination of basis entries, chi_i = delta_{0,{i,j,k}} - delta_{0,{j,k}}."""
    if g == 1:
        return tuple(row[:n + 2]) + tuple(_separating_entries(row[n + 2:-1], row[-1]))
    if g == 2:  # the pullback of k kappa_1 + irr delta_irr + d1 delta_1
        k, irr, d1 = row
        return (-k,) * n + (k, irr) + (k,) * (2 ** n - n - 1) + (d1,) * (2 ** (n - 1) if n else 1)
    return (0,) * basis_size(g, n)


def _write_out(g: int, n: int, row: Sequence[int]) -> tuple[int, ...]:
    """The feature row ``row`` written over the (g, n) basis, negated if its
    first nonzero entry there is negative: the one sign rule of every row a
    relation set or :func:`relation_row` writes out."""
    written = _expand(g, n, row)
    return tuple(-x for x in written) if next((x for x in written if x), 0) < 0 else written


class _RelationTable:
    """One call's relation data on the (g, n) space: the key values per
    (r, sum(a)) and the key polynomials per sum(a), which every leg vector of
    that sum shares, since below the gate they have one key set, all at the
    per-family sums' scale 24.  Callers never change these dicts."""

    def __init__(self, g: int, n: int):
        self.g, self.n = g, n
        self._values, self._polys = {}, {}

    def numeric(self, a_vec: tuple[int, ...], r: int) -> dict:
        """24 times each key's coefficient at r, an integer: the gate of
        every relation.  Raises :class:`DegreeGateError` when the degree
        bookkeeping reports no relation.  No key when sum(a) != g mod r-1:
        the exponent is then not integral, and every contribution vanishes
        through the congruences.  ``a_vec`` has n entries, or in genus 2 none."""
        g, n = self.g, self.n
        if len(a_vec) != n and (g != 2 or a_vec):
            raise ValueError("a_vec length must equal n")
        theory = RSpinTheory(r)
        for a in a_vec:
            theory.check_index(a)
        report = phi_degree(g, a_vec, r)
        if not report.relation_exists:
            raise DegreeGateError(g, n, a_vec, r)
        if not report.d_integral:
            return {}
        cached = r, sum(a_vec)
        if cached not in self._values:
            # Genus 2 gets here only with zero legs, whose relation pulls back from no legs.
            values = _key_values(g, () if g == 2 else a_vec, theory)
            self._values[cached] = {key: value * r ** (g - 1) for key, value in values.items()}
        return self._values[cached]

    def symbolic(self, a_vec: tuple[int, ...]) -> dict[object, RPoly]:
        """24 times each key's coefficient as a polynomial in r (genus 1 only)."""
        from .rpoly import poly_interpolate

        if self.g != 1:
            raise UnsupportedGenusError("symbolic-in-r assembly is only meaningful in genus 1")
        samples = [self.numeric(a_vec, rr) for rr in _SYMBOLIC_SAMPLE_RS]
        total = sum(a_vec)
        if total not in self._polys:
            self._polys[total] = {
                key: poly_interpolate([(rr, sample[key]) for rr, sample in
                                       zip(_SYMBOLIC_SAMPLE_RS, samples)],
                                      degree_bound=_SYMBOLIC_DEGREE_BOUND)
                for key in samples[0]
            }
        return self._polys[total]


def relation_row(g: int, n: int, a_vec: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The primitive integer row of the relation for (g, n, a_vec, r) over the
    basis, first nonzero entry positive, written from its feature row; the
    gate comes before the basis check."""
    values = _RelationTable(g, n).numeric(a_vec, r)
    check_space(g, n)
    return _write_out(g, n, primitive_int_vector(_feature_row(g, a_vec, values)))


def assembled_relation_set(
    g: int, n: int, a_vecs: Sequence[tuple[int, ...]], r: int | None = None
) -> RelationSet:
    """The primitive nonzero rows of each leg vector in turn, from one table:
    its assembly at r when r is given, then in genus 1 one per power of r of
    its symbolic assembly, highest first.  The basis is checked after the
    first leg vector's gate."""
    table = _RelationTable(g, n)
    rows, provenances = [], []
    for a_vec in a_vecs:
        found = [] if r is None else [(r, table.numeric(a_vec, r))]
        polys = table.symbolic(a_vec) if g == 1 else {}
        check_space(g, n)
        top = max((len(poly.coeffs) for poly in polys.values()), default=0)
        found += [(f"r^{p}", {key: poly.coefficient(p) for key, poly in polys.items()})
                  for p in range(top - 1, -1, -1)]
        for r_mode, values in found:
            row = primitive_int_vector(_feature_row(g, a_vec, values))
            if any(row):
                rows.append(row)
                provenances.append(Provenance(g, n, a_vec, r_mode))
    return RelationSet((g, n), rows, provenances)


# ---------------------------------------------------------------------------
# Reference set, span comparison
# ---------------------------------------------------------------------------

def ac_relations(g: int, n: int) -> RelationSet:
    """The known complete set of degree-2 relations (Arbarello-Cornalba).

    Genus 1: 12 psi_i = delta_irr + 12 sum over subsets containing i, for
    each i, plus kappa_1 = sum(psi) - sum over all subsets.  Genus 2: the
    single pulled-back relation 5 kappa_1 = delta_irr + 7 (genus 1+1 sum)
    corrected by markings.  Genus 3 and above: empty, since the generators
    are independent for every g >= 3.
    """
    check_space(g, n)
    rows = []
    if g == 1:
        # Over psi_1..psi_n, kappa_1, delta_irr, chi_1..chi_n and one:
        # 12 psi_i - delta_irr - 12 chi_i, and kappa_1 - sum(psi) + one.
        for i in range(n):
            row = [0] * (2 * n + 3)
            row[i], row[n + 1], row[n + 2 + i] = 12, -1, -12
            rows.append(tuple(row))
        rows.append((-1,) * n + (1, 0) + (0,) * n + (1,))
    elif g == 2:
        rows.append((5, -1, -7))
    provenance = Provenance(g=g, n=n, a_vec=None, r_mode="reference")
    return RelationSet((g, n), rows, [provenance] * len(rows))


class SpanReport(NamedTuple):
    equal: bool
    rank_left: int
    rank_right: int
    rank_union: int


def spans_equal(a: RelationSet, b: RelationSet) -> SpanReport:
    """Whether two relation sets on one (g, n) space span the same subspace
    over the rationals, compared over their features."""
    if a.space != b.space:
        raise BasisMismatchError(f"relation sets on different spaces {a.space} and {b.space}")
    left, right = rref(a._span_rows())[0], rref(b._span_rows())[0]
    rank_left, rank_right = len(left), len(right)
    rank_union = len(rref(left + right)[1])
    return SpanReport(
        equal=rank_left == rank_right == rank_union,
        rank_left=rank_left,
        rank_right=rank_right,
        rank_union=rank_union,
    )


def admissible_leg_vectors(g: int, n: int, r: int) -> list[tuple[int, ...]]:
    """Leg vectors whose relation is potentially nonzero: the degree gate
    passes and sum(a) = g mod r - 1.  The gate passes iff
    sum(a) < r - (g-1)(r-2), a bound of r in genus 1, 2 in genus 2 and at
    most 1 above, so every allowed sum is 0 or 1: the vectors are the zero
    vector if sum 0 is allowed, then the unit vectors in lexicographic order
    if sum 1 is (in genus 1, exactly the n unit vectors)."""
    bound = -phi_degree(g, (), r).value
    vectors = []
    if 0 < bound and g % (r - 1) == 0:
        vectors.append((0,) * n)
    if 1 < bound and (1 - g) % (r - 1) == 0:
        vectors += [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in reversed(range(n))]
    return vectors


def ppz_relation_set(g: int, n: int, r: int) -> RelationSet:
    """The full relation set this construction yields for (g, n, r), from
    the admissible leg vectors.

    Genus 1: the n fixed-r relations together with the relations extracted
    from the symbolic-in-r assembly for each leg choice (the fixed-r
    relations alone span one dimension less).  Genus 2: the relation of the
    unmarked space's leg vector () at r = 3, pulled back to the n markings
    and labelled a = ().  Genus 3 and above: nothing.  Zero relations are
    dropped.  The basis size is checked first, so that an oversized one is
    refused before the leg vectors are enumerated.
    """
    check_space(g, n)
    return assembled_relation_set(g, n, admissible_leg_vectors(g, 0 if g == 2 else n, r), r)
