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
leg vectors that pass the degree gate and the parity condition are also
known in closed form: their sum is 0 or 1, so they are the zero vector and
the unit vectors (in genus 1, exactly the n unit vectors).

A topological vertex value depends only on the vertex genus and on its
insertion sum mod r-1, so a class's coefficient depends on the leg vector a
only through sum(a) and the class's key: (psi, a_i) for psi_i,
kappa_1, delta_irr, and (delta_sep, h, sum of a_i over S) for delta_{h,S}.
A per-call table contracts once per (r, sum(a), key), instead of once per
class or graph.  For one-edge graphs the gluing map onto the boundary divisor
has degree equal to the automorphism order of the graph, so the two cancel
and the divisor coefficient is the plain contraction sum; the golden totals
pin this convention.  :func:`rspinrel.oracles.graph_contribution_terms` keeps
the per-graph enumeration as the test oracle; both paths share the per-family
sums here.

Every contribution vanishes unless sum(a) = g mod r-1, which below the gate
leaves the unit vectors in genus 1 and the zero vector in genus 2, so each
relation lies in a few features: in genus 1 psi_1..psi_n, kappa_1, delta_irr,
chi_1..chi_n and one (chi_i sums the delta_{0,S} with i in S, one sums them
all), since for e_i a delta_{0,S} has the key of [i in S]; in genus 2 the
kappa_1, delta_irr and delta_1 of the unmarked space, whose pullback is the
relation with markings.  Relation sets keep integer rows over the features,
take ranks and reduced rows there, and write a row over the basis of about
2^n classes only when it is read.

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
at six sample r, once per (sum(a), key).  Each power of r is extracted from
those few key polynomials as a feature row.  Only the code that builds or
reads such polynomials imports ``rpoly``, so a numeric relation loads none.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .cohft import (
    DegreeGateError,
    RSpinTheory,
    phi_degree,
    r_inverse_entry,
    topological_value,
)
from .linalg import primitive_int_vector, rref
from .strata import (
    DELTA_IRR,
    DELTA_SEP,
    KAPPA1,
    PSI,
    DivisorClass,
    UnsupportedGenusError,
    basis_size,
    check_space,
    delta_irr,
    delta_sep,
    kappa1,
    psi,
)

if TYPE_CHECKING:
    from .rpoly import RPoly

# Sample points for symbolic-in-r interpolation: degree bound 3 for genus-1
# coefficients, plus consistency samples beyond the 4 needed nodes.
_SYMBOLIC_SAMPLE_RS = (3, 4, 5, 6, 7, 8)
_SYMBOLIC_DEGREE_BOUND = 3


class AssemblyError(RuntimeError):
    """Internal bookkeeping violation during relation assembly."""


class BasisMismatchError(ValueError):
    """Two relation sets do not share a generator basis."""


class Provenance(NamedTuple):
    g: int
    n: int
    a_vec: tuple[int, ...] | None
    r_mode: Union[int, str]  # numeric r, "r^k" or "reference"


class RelationSet:
    """Relations on the (g, n) space ``space`` as integer rows over its
    features, each with its provenance; ``rows`` writes them out over the
    divisor basis on first use.  An assembled row is written out primitive
    with a positive first nonzero entry; a reference row keeps its own scale."""

    def __init__(self, space: tuple[int, int], features: list[tuple[int, ...]],
                 provenances: list[Provenance]):
        self.space, self.features, self.provenances = space, features, provenances
        self._rows = None

    @property
    def rows(self) -> list[tuple[int, ...]]:
        if self._rows is None:
            self._rows = [_expand(*self.space, row) for row in self.features]
        return self._rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.features, self.provenances) == (
            other.space, other.features, other.provenances
        )

    def __repr__(self) -> str:
        return (f"RelationSet(space={self.space!r}, features={self.features!r}, "
                f"provenances={self.provenances!r})")

    def _span_rows(self) -> list:
        """The rows to reduce the span over: the features where they map
        injectively to the basis (all but genus 1 with n <= 2, where
        chi_1 = ... = one), else the basis rows."""
        g, n = self.space
        return self.features if g > 1 or n >= 3 else self.rows

    def rank(self) -> int:
        return len(rref(self._span_rows())[1])

    def reduced_rows(self) -> list[tuple[int, ...]]:
        """Row-reduced basis of the span as primitive integer vectors over the
        basis, reduced over the features where they are independent."""
        rows = self._span_rows()
        reduced, pivots = rref(rows)
        if rows is not self.features:
            return reduced
        g, n = self.space
        rows = [_expand(g, n, row) for row in reduced]
        # A pivot on psi_i, kappa_1 or delta_irr, which the genus-1 features
        # share with the basis, is one there too: the rows are then reduced,
        # and primitive, since an injective map keeps the content.
        return rows if g == 1 and max(pivots, default=0) < n + 2 else rref(rows)[0]


# ---------------------------------------------------------------------------
# Per-family sums, shared by the per-graph oracle and the per-class assembly
# ---------------------------------------------------------------------------

def edge_constant_term(p: int, q: int, theory: RSpinTheory) -> Fraction:
    """Constant term of the edge factor for the insertion pair (p, q), the
    only part codimension 1 reads: -P_1(r, p+1 mod r-1) when
    q = r-3-p mod r-1 and 0 otherwise.  It is read as the first-order
    inverse-R entry with upper index p and lower index r-2-q, which vanishes
    off that congruence and checks both indices."""
    return -r_inverse_entry(1, theory.r - 2 - q, p, theory)


EdgeEntries = tuple[tuple[tuple[int, int], Fraction], ...]


def _edge_entries(theory: RSpinTheory) -> EdgeEntries:
    """Nonzero edge constant terms, each with its insertion pair (p, q): only
    the pair q = r-3-p mod r-1, where the term can be nonzero, for each p."""
    r = theory.r
    entries = []
    for p in range(r - 1):
        q = (r - 3 - p) % (r - 1)
        entry = edge_constant_term(p, q, theory)
        if entry != 0:
            entries.append(((p, q), entry))
    return tuple(entries)


def _leg_sum(g: int, insertions: Sequence[int], i: int, theory: RSpinTheory) -> Fraction:
    """psi_{i+1} coefficient: one psi power on leg i of the smooth graph,
    which the first-order inverse R-matrix moves to the one index b with
    b + 1 = a_i mod r-1 (every other entry of its column vanishes)."""
    moved = list(insertions)
    moved[i] = (insertions[i] - 1) % (theory.r - 1)
    entry = r_inverse_entry(1, insertions[i], moved[i], theory)
    return entry * topological_value(g, moved, theory)


def _dilaton_sum(g: int, a_vec: tuple[int, ...], theory: RSpinTheory) -> Fraction:
    """kappa_1 coefficient: psi^2 on the dilaton leg pushes forward to
    kappa_1; the dilaton series carries an explicit minus sign and inserts
    along the unit direction."""
    return -_leg_sum(g, a_vec + (0,), len(a_vec), theory)


def _loop_sum(
    g: int, a_vec: Sequence[int], theory: RSpinTheory, edges: EdgeEntries
) -> Fraction:
    """delta_irr coefficient: the one-loop graph on a genus g-1 vertex."""
    total = Fraction(0)
    for (p, q), entry in edges:
        value = topological_value(g - 1, list(a_vec) + [p, q], theory)
        total += entry * value
    return total


def _separating_sum(
    g: int, h: int, a0: list[int], a1: list[int], theory: RSpinTheory, edges: EdgeEntries
) -> Fraction:
    """delta_{h,S} coefficient: genus-h vertex with insertions a0 joined by
    one edge to a genus g-h vertex with insertions a1."""
    total = Fraction(0)
    for (p, q), entry in edges:
        value0 = topological_value(h, a0 + [p], theory)
        if value0 == 0:
            continue
        value1 = topological_value(g - h, a1 + [q], theory)
        total += entry * value0 * value1
    return total


def _family_phi(
    vertex_genera: Sequence[int], edge_count: int, a_vec: Sequence[int], r: int
) -> int:
    """Exponent carried by a graph family, as its numerator over r - 1:
    vertex factors, one factor r-2 per edge, and the rescaled-basis factor of
    the primary legs.  Dilaton legs contribute nothing."""
    return sum(a_vec) + (r - 2) * (edge_count + sum(h - 1 for h in vertex_genera))


# ---------------------------------------------------------------------------
# Numeric assembly
# ---------------------------------------------------------------------------

def _check_family_exponents(g: int, n: int, a_vec: tuple[int, ...], r: int) -> None:
    """Every graph family must carry the relation's shared exponent: the leg
    family when n > 0, the dilaton and loop families, and a separating one
    for each h with classes (h = 0 needs two markings)."""
    expected = sum(a_vec) + (g - 1) * (r - 2)
    families = [("leg_psi", (g,), 0)] * (n > 0) + [
        ("dilaton_kappa", (g,), 0), ("loop_edge", (g - 1,), 1)]
    families += [("separating_edge", (h, g - h), 1) for h in range(g // 2 + 1) if h or n >= 2]
    for kind, genera, edge_count in families:
        phi = _family_phi(genera, edge_count, a_vec, r)
        if phi != expected:
            raise AssemblyError(
                f"graph {kind} carries exponent {phi}, expected {expected}"
            )


def _contract(
    g: int, a_vec: tuple[int, ...], d: DivisorClass, theory: RSpinTheory, edges: EdgeEntries
) -> Fraction:
    """The coefficient of the class d, before the r^(g-1) prefactor."""
    if d.kind == PSI:
        return _leg_sum(g, a_vec, d.index - 1, theory)
    if d.kind == DELTA_SEP:
        a0 = [a_vec[i - 1] for i in sorted(d.markings)]
        a1 = [a for i, a in enumerate(a_vec, 1) if i not in d.markings]
        return _separating_sum(g, d.h, a0, a1, theory, edges)
    if d.kind == DELTA_IRR:
        return _loop_sum(g, a_vec, theory, edges)
    return _dilaton_sum(g, a_vec, theory)


def _key_classes(g: int, a_vec: tuple[int, ...]) -> dict:
    """A class of each key of a zero or unit leg vector, by key: psi at the
    unit and at another marking, kappa_1, delta_irr and, for each h, the
    smallest stable delta_{h,S} with the unit in S and without it.  A
    separating key holds the raw sum of a over S, not its residue."""
    units = [i for i, a in enumerate(a_vec, 1) if a]
    others = [i for i, a in enumerate(a_vec, 1) if not a]
    classes = {(PSI, a_vec[i - 1]): psi(i) for i in units + others[:1]}
    classes.update({KAPPA1: kappa1(), DELTA_IRR: delta_irr()})
    for h in range(g // 2 + 1):
        least = 0 if h else 2
        for S in (units + others[:max(least - len(units), 0)], others[:least]):
            if len(S) >= least:
                classes[DELTA_SEP, h, sum(a_vec[i - 1] for i in S)] = delta_sep(h, S)
    return classes


def _feature_row(g: int, a_vec: tuple[int, ...], values: dict) -> list:
    """The relation with these key values over its genus's features, a key no
    class holds read as 0.  For e_i in genus 1, delta_{0,S} holds ``inside``
    when i is in S, else ``outside``: (inside - outside) chi_i + outside one.
    In genus 2 the relation must be a pullback from the unmarked space."""
    if g == 1:
        inside, outside = (values.get((DELTA_SEP, 0, s), 0) for s in (1, 0))
        return ([values.get((PSI, a), 0) for a in a_vec]
                + [values.get(KAPPA1, 0), values.get(DELTA_IRR, 0)]
                + [inside - outside if a else 0 for a in a_vec] + [outside])
    if g == 2:
        k = values.get(KAPPA1, 0)
        if values.get((PSI, 0), -k) != -k or values.get((DELTA_SEP, 0, 0), k) != k:
            raise AssemblyError("the genus-2 relation is not a pullback from the unmarked space")
        return [k, values.get(DELTA_IRR, 0), values.get((DELTA_SEP, 1, 0), 0)]
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


def _primitive_features(g: int, n: int, a_vec: tuple[int, ...], values: dict) -> tuple[int, ...]:
    """The feature row of these key values, scaled to be written out as the
    primitive integer row with a positive first nonzero entry, which in
    genus 1 is nearly always on psi_i, kappa_1 or delta_irr, the columns the
    features share with the basis."""
    row = primitive_int_vector(_feature_row(g, a_vec, values))
    lead = next((x for x in row[:n + 2] if x), None) if g == 1 else None
    if lead is None and any(row):
        lead = next(x for x in _expand(g, n, row) if x)
    return tuple(-x for x in row) if lead and lead < 0 else row


class _RelationTable:
    """One call's relation data on the (g, n) space: contraction values per
    (r, sum(a), key) and interpolants per (sum(a), key), shared by every
    class, leg vector and sample with that key.  It lives for one call, so a
    patched ``p_polynomial`` is always read afresh."""

    def __init__(self, g: int, n: int):
        self.g, self.n = g, n
        self._edges, self._values, self._polys = {}, {}, {}

    def numeric(self, a_vec: tuple[int, ...], r: int) -> dict:
        """Each key's coefficient at r: the gate of every relation.  Raises
        :class:`DegreeGateError` when the degree bookkeeping reports no
        relation, and :class:`AssemblyError` when a graph family disagrees on
        the exponent.  No key when sum(a) != g mod r-1: the exponent is then
        not integral, and every contribution vanishes through the congruences."""
        g, n = self.g, self.n
        theory = RSpinTheory(r)
        for a in a_vec:
            theory.check_index(a)
        report = phi_degree(g, 1, a_vec, r)
        if not report.relation_exists:
            raise DegreeGateError(g, n, a_vec, r)
        _check_family_exponents(g, n, a_vec, r)
        if not report.d_integral:
            return {}
        if r not in self._edges:
            self._edges[r] = _edge_entries(theory)
        total, values = sum(a_vec), {}
        for key, d in _key_classes(g, a_vec).items():
            if (r, total, key) not in self._values:
                value = _contract(g, a_vec, d, theory, self._edges[r])
                self._values[r, total, key] = value * r ** (g - 1)
            values[key] = self._values[r, total, key]
        return values

    def symbolic(self, a_vec: tuple[int, ...]) -> dict[object, RPoly]:
        """Each key's coefficient as a polynomial in r (genus 1 only)."""
        from .rpoly import poly_interpolate

        if self.g != 1:
            raise UnsupportedGenusError("symbolic-in-r assembly is only meaningful in genus 1")
        samples = [self.numeric(a_vec, rr) for rr in _SYMBOLIC_SAMPLE_RS]
        total = sum(a_vec)
        for key in samples[0]:
            if (total, key) not in self._polys:
                points = zip(_SYMBOLIC_SAMPLE_RS, (sample[key] for sample in samples))
                self._polys[total, key] = poly_interpolate(
                    list(points), degree_bound=_SYMBOLIC_DEGREE_BOUND
                )
        return {key: self._polys[total, key] for key in samples[0]}


def relation_row(g: int, n: int, a_vec: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The primitive integer row of the relation for (g, n, a_vec, r) over the
    basis, first nonzero entry positive, written from its feature row; the
    gate comes before the basis check."""
    values = _RelationTable(g, n).numeric(a_vec, r)
    check_space(g, n)
    return _expand(g, n, _primitive_features(g, n, a_vec, values))


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
            row = _primitive_features(g, n, a_vec, values)
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
    corrected by markings.  Genus 3: empty; the only relations are the
    identifications already absorbed by divisor canonicalization.
    """
    if g not in (1, 2, 3):
        raise UnsupportedGenusError(f"no reference relation set for genus {g}")
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
    bound = -phi_degree(g, 1, (), r).value
    vectors = []
    if 0 < bound and g % (r - 1) == 0:
        vectors.append((0,) * n)
    if 1 < bound and (1 - g) % (r - 1) == 0:
        vectors += [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in reversed(range(n))]
    return vectors


def ppz_relation_set(g: int, n: int, r: int) -> RelationSet:
    """The full relation set this construction yields for (g, n, r).

    Genus 1: the n fixed-r assembled relations together with the relations
    extracted from the symbolic-in-r assembly for each leg choice (the fixed-r
    relations alone span one dimension less).  Genus 2: the single relation on
    the unmarked space, whose features are also those of its pullback when
    n > 0; never assembled directly with markings.  Genus 3: whatever the
    admissible leg vectors give (nothing).  Zero relations are dropped.  The
    basis size is checked first, so that an oversized one is refused before
    the leg vectors are enumerated.
    """
    check_space(g, n)
    if g != 2:
        return assembled_relation_set(g, n, admissible_leg_vectors(g, n, r), r)
    try:
        row = _primitive_features(2, n, (), _RelationTable(2, 0).numeric((), r))
    except DegreeGateError:
        row = ()
    rows = [row] if any(row) else []
    return RelationSet((2, n), rows, [Provenance(2, n, (), r)] * len(rows))
