"""Assembly and verification of divisor relations.

A relation in degree-2 cohomology of the moduli space of genus-g stable
curves with n markings, for shift data (r, a_1..a_n), is the codimension-1
part of the reconstructed shifted r-spin class.  It vanishes exactly when the
auxiliary total degree is negative, which is what :func:`assemble_relation`
gates on.

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
Relations are therefore built from a per-call table that contracts once per
(r, sum(a), key), a handful of times for the whole basis and every leg vector
with the same sum, instead of once per class or graph.  For one-edge graphs
the gluing map onto the boundary divisor has degree equal to the automorphism
order of the graph, so the two cancel and the divisor coefficient is the plain
contraction sum; the golden totals pin this convention.
:func:`rspinrel.oracles.graph_contribution_terms` keeps the per-graph
enumeration as the test oracle; both paths share the per-family sums here.

Symbolic-in-r relations are supported in genus 1 (where the contributing
index patterns are independent of r): every coefficient is a polynomial in r
of degree at most 3, recovered by exact interpolation from the table's values
at six sample r, once per (sum(a), key).  Each power of r is extracted from
those few key polynomials and expanded over the basis once, as the primitive
integer row that row reduction takes directly.  Only the code that builds or
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
    PSI,
    DivisorClass,
    UnsupportedGenusError,
    delta_irr,
    delta_sep,
    divisor_generators,
    kappa1,
)

if TYPE_CHECKING:
    from .rpoly import RPoly

SYMBOLIC = "symbolic"

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
    r_mode: Union[int, str]  # numeric r, "symbolic", "r^k", "reference", "reduced"


Coefficient = Union[Fraction, "RPoly"]


class Relation:
    """Linear combination of divisor classes; zero coefficients never stored."""

    def __init__(self, coefficients: dict[DivisorClass, Coefficient], provenance: Provenance):
        self.coefficients = {d: c for d, c in coefficients.items() if c}
        self.provenance = provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coefficients, self.provenance) == (other.coefficients, other.provenance)

    def __repr__(self) -> str:
        return f"Relation(coefficients={self.coefficients!r}, provenance={self.provenance!r})"

    def is_zero(self) -> bool:
        return not self.coefficients

    def vector(self, basis: Sequence[DivisorClass]) -> tuple[Coefficient, ...]:
        """Coefficients in basis order."""
        missing = self.coefficients.keys() - frozenset(basis)
        if missing:
            raise BasisMismatchError(f"classes outside the basis: {missing}")
        zero = Fraction(0)
        return tuple(self.coefficients.get(d, zero) for d in basis)

    def normalized_vector(self, basis: Sequence[DivisorClass]) -> tuple[int, ...]:
        """Primitive integer coefficients, first nonzero entry positive."""
        vec = self.vector(basis)
        try:  # a polynomial coefficient has no denominator
            return primitive_int_vector(vec)
        except ValueError:
            raise ValueError("normalized_vector requires a numeric relation") from None


class RelationSet:
    """Relations over one shared ordered generator basis, each kept as its row
    of rational (or integer) coefficients in basis order, with its provenance."""

    def __init__(self, basis: tuple[DivisorClass, ...],
                 rows: list[tuple[Fraction | int, ...]], provenances: list[Provenance]):
        self.basis, self.rows, self.provenances = basis, rows, provenances

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis, self.rows, self.provenances) == (
            other.basis, other.rows, other.provenances
        )

    def __repr__(self) -> str:
        return (f"RelationSet(basis={self.basis!r}, rows={self.rows!r}, "
                f"provenances={self.provenances!r})")

    @classmethod
    def of(cls, basis: tuple[DivisorClass, ...], relations: list[Relation]) -> "RelationSet":
        rows = [rel.vector(basis) for rel in relations]
        return cls(basis, rows, [rel.provenance for rel in relations])

    @property
    def relations(self) -> list[Relation]:
        return [
            Relation(dict(zip(self.basis, row)), provenance)
            for row, provenance in zip(self.rows, self.provenances)
        ]

    def rank(self) -> int:
        return len(rref(self.rows)[1])

    def reduced_rows(self) -> list[tuple[int, ...]]:
        """Row-reduced basis of the span as primitive integer vectors."""
        return rref(self.rows)[0]


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

def _check_family_exponents(
    g: int, n: int, separating_genera: set[int], a_vec: tuple[int, ...], r: int
) -> None:
    """Every graph family must carry the relation's shared exponent."""
    expected = sum(a_vec) + (g - 1) * (r - 2)
    families = [("dilaton_kappa", (g,), 0), ("loop_edge", (g - 1,), 1)]
    if n:
        families.insert(0, ("leg_psi", (g,), 0))
    families += [("separating_edge", (h, g - h), 1) for h in sorted(separating_genera)]
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


def _expand(keys: list, values: dict) -> tuple[int, ...]:
    """The primitive integer row holding the value of each class's key.
    ``values`` holds each key once, in order of first appearance in ``keys``,
    so its lcm of denominators, content and first nonzero entry are the row's."""
    scaled = dict(zip(values, primitive_int_vector(list(values.values()))))
    return tuple(map(scaled.__getitem__, keys))


def _extract(keys: list, polys: dict) -> list[tuple[int, tuple[int, ...]]]:
    """(power, row) for each power of r, highest first, with a nonzero row."""
    top = max((len(poly.coeffs) for poly in polys.values()), default=0)
    found = []
    for power in range(top - 1, -1, -1):
        row = _expand(keys, {key: poly.coefficient(power) for key, poly in polys.items()})
        if any(row):
            found.append((power, row))
    return found


class _RelationTable:
    """One call's relation data on the (g, n) space: contraction values per
    (r, sum(a), key) and interpolants per (sum(a), key), shared by every
    class, leg vector and sample with that key.  It lives for one call, so a
    patched ``p_polynomial`` is always read afresh."""

    def __init__(self, g: int, n: int):
        self.g, self.n = g, n
        self._layouts, self._edges, self._values, self._polys = {}, {}, {}, {}

    def layout(self, a_vec: tuple[int, ...]) -> tuple[list, dict]:
        """The key of every basis class, and the first class of each key, in
        basis order.  A separating key holds the raw sum of a over S, not its
        residue, so that it fixes the coefficient at every sample r."""
        if a_vec not in self._layouts:
            support = [(i, a) for i, a in enumerate(a_vec, 1) if a]
            keys, first = [], {}
            for d in divisor_generators(self.g, self.n):
                if d.kind == PSI:
                    key = (PSI, a_vec[d.index - 1])
                elif d.kind == DELTA_SEP:
                    key = (DELTA_SEP, d.h, sum(a for i, a in support if i in d.markings))
                else:
                    key = d.kind
                keys.append(key)
                first.setdefault(key, d)
            self._layouts[a_vec] = keys, first
        return self._layouts[a_vec]

    def numeric(self, a_vec: tuple[int, ...], r: int) -> dict:
        """Each key's coefficient at r, in the order of :meth:`layout`, after
        the checks :func:`assemble_relation` documents."""
        g, n = self.g, self.n
        theory = RSpinTheory(r)
        for a in a_vec:
            theory.check_index(a)
        if not phi_degree(g, 1, a_vec, r).relation_exists:
            raise DegreeGateError(g, n, a_vec, r)
        first = self.layout(a_vec)[1]
        genera = {d.h for d in first.values() if d.kind == DELTA_SEP}
        _check_family_exponents(g, n, genera, a_vec, r)
        if r not in self._edges:
            self._edges[r] = _edge_entries(theory)
        total = sum(a_vec)
        for key, d in first.items():
            if (r, total, key) not in self._values:
                value = _contract(g, a_vec, d, theory, self._edges[r])
                self._values[r, total, key] = value * r ** (g - 1)
        return {key: self._values[r, total, key] for key in first}

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


def assemble_relation(
    g: int,
    n: int,
    a_vec: Sequence[int],
    r: int | None = None,
    *,
    symbolic: bool = False,
) -> Relation:
    """The codimension-1 relation for shift data (g, n, a_vec, r).

    Raises :class:`DegreeGateError` when the degree bookkeeping reports no
    relation.  A non-integral auxiliary exponent is allowed: every graph
    contribution then vanishes through the congruence conditions and the
    zero relation is returned.  All graph families must agree on their
    exponent; disagreement is an assembly error, not a warning.

    With ``symbolic=True`` (genus 1 only) every coefficient is a polynomial
    in r, interpolated from the checked assemblies at six sample r.
    """
    a_vec = tuple(a_vec)
    if len(a_vec) != n:
        raise ValueError("a_vec length must equal n")
    if symbolic and r is not None:
        raise ValueError("give either a numeric r or symbolic=True, not both")
    if not symbolic and r is None:
        raise ValueError("numeric assembly needs r")
    table = _RelationTable(g, n)
    values = table.symbolic(a_vec) if symbolic else table.numeric(a_vec, r)
    keys = table.layout(a_vec)[0]
    return Relation(
        coefficients={d: values[key] for d, key in zip(divisor_generators(g, n), keys)},
        provenance=Provenance(g=g, n=n, a_vec=a_vec, r_mode=SYMBOLIC if symbolic else r),
    )


def assembled_relation_set(
    g: int, n: int, a_vecs: Sequence[tuple[int, ...]], r: int | None = None
) -> RelationSet:
    """The primitive nonzero rows of each leg vector in turn, from one table:
    its assembly at r when r is given, then in genus 1 the relations
    :func:`extract_r_coefficients` gives.  Each leg vector is checked before
    the basis is first built."""
    table = _RelationTable(g, n)
    rows, provenances = [], []
    for a_vec in a_vecs:
        found = []
        if r is not None:
            values = table.numeric(a_vec, r)
            found.append((r, _expand(table.layout(a_vec)[0], values)))
        if g == 1:
            polys = table.symbolic(a_vec)
            found += [(f"r^{p}", row) for p, row in _extract(table.layout(a_vec)[0], polys)]
        for r_mode, row in found:
            if any(row):
                rows.append(row)
                provenances.append(Provenance(g, n, a_vec, r_mode))
    return RelationSet(tuple(divisor_generators(g, n)), rows, provenances)


# ---------------------------------------------------------------------------
# Extraction, pullback, reference set, span comparison
# ---------------------------------------------------------------------------

def extract_r_coefficients(rel: Relation) -> RelationSet:
    """Split a symbolic relation into one relation per power of r.

    The coefficient of each power of r, highest first, gives one relation,
    normalized to its primitive integer vector (denominators cleared, content
    removed, first nonzero coefficient positive).  Redundant relations are
    kept; span analysis is a separate concern.
    """
    from .rpoly import RPoly

    prov = rel.provenance
    numeric = not any(isinstance(c, RPoly) for c in rel.coefficients.values())
    if prov.r_mode != SYMBOLIC or numeric and not rel.is_zero():
        raise ValueError("extraction needs a symbolic-mode relation")
    basis = tuple(divisor_generators(prov.g, prov.n))
    keys = [rel.coefficients.get(d, RPoly.zero()) for d in basis]
    polys = {c: c if isinstance(c, RPoly) else RPoly.constant(c) for c in keys}
    extracted = _extract(keys, polys)
    return RelationSet(
        basis,
        [row for _, row in extracted],
        [prov._replace(r_mode=f"r^{power}") for power, _ in extracted],
    )


def _genus2_row(n: int, k, irr, d1) -> tuple:
    """The pullback of k kappa_1 + irr delta_irr + d1 delta_1 from the
    unmarked genus-2 space, as its row over the (2, n) basis: -k on each
    psi_i, k on kappa_1, irr on delta_irr, k on each of the 2^n - n - 1
    classes delta_{0,S} and d1 on each of the 2^(n-1) classes delta_{1,S}
    (the one class delta_{1,{}} when n = 0)."""
    return ((-k,) * n + (k, irr) + (k,) * (2 ** n - n - 1)
            + (d1,) * (2 ** (n - 1) if n else 1))


def _genus2_base(rel: Relation) -> tuple:
    """The kappa_1, delta_irr and delta_1 coefficients of a relation on the
    unmarked genus-2 space."""
    zero = Fraction(0)
    return tuple(rel.coefficients.get(d, zero)
                 for d in (kappa1(), delta_irr(), delta_sep(1, ())))


def pullback_genus2(rel: Relation, n: int) -> Relation:
    """Pull a relation on the genus-2, unmarked space back along the map
    forgetting n points.

    kappa_1 picks up -sum(psi_i) + sum of genus-0 boundary corrections, the
    irreducible boundary pulls back to itself, and the genus 1+1 boundary
    pulls back to the sum over all canonical marking splittings: the row
    of :func:`_genus2_row`, which is -k on each psi_i, k on kappa_1, irr on
    delta_irr, k on each delta_{0,S} and d1 on each delta_{1,S} for the
    relation k kappa_1 + irr delta_irr + d1 delta_1.
    """
    allowed = {kappa1(), delta_irr(), delta_sep(1, frozenset())}
    if not rel.coefficients.keys() <= allowed:
        raise BasisMismatchError(
            "pullback source must live on the unmarked genus-2 space "
            "(kappa_1, delta_irr, genus 1+1 boundary)"
        )
    if n == 0:
        return rel
    return Relation(
        coefficients=dict(zip(divisor_generators(2, n), _genus2_row(n, *_genus2_base(rel)))),
        provenance=rel.provenance._replace(n=n),
    )


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
    basis = tuple(divisor_generators(g, n))
    rows = []
    if g == 1:
        # Integer rows over psi_1..psi_n, kappa_1, delta_irr, then the
        # delta_{0,S}: 12 psi_i - delta_irr - 12 [i in S], and
        # kappa_1 - sum(psi) + sum(delta_{0,S}).
        seps = [d.markings for d in basis[n + 2:]]
        for i in range(1, n + 1):
            psis = tuple(12 if j == i else 0 for j in range(1, n + 1))
            rows.append(psis + (0, -1) + tuple(-12 if i in S else 0 for S in seps))
        rows.append((-1,) * n + (1, 0) + (1,) * len(seps))
    elif g == 2:
        rows.append(_genus2_row(n, 5, -1, -7))
    provenance = Provenance(g=g, n=n, a_vec=None, r_mode="reference")
    return RelationSet(basis, rows, [provenance] * len(rows))


class SpanReport(NamedTuple):
    equal: bool
    rank_left: int
    rank_right: int
    rank_union: int


def spans_equal(a: RelationSet, b: RelationSet) -> SpanReport:
    """Whether two relation sets span the same subspace over the rationals."""
    if a.basis != b.basis:
        raise BasisMismatchError("relation sets use different generator bases")
    left, _ = rref(a.rows)
    right, _ = rref(b.rows)
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
    the unmarked space, pulled back when n > 0; never assembled directly with
    markings.  Genus 3: whatever the admissible leg vectors give (nothing).
    Zero relations are dropped.  The basis is built first, so that an
    oversized one is refused before the leg vectors are enumerated.
    """
    basis = tuple(divisor_generators(g, n))
    if g != 2:
        return assembled_relation_set(g, n, admissible_leg_vectors(g, n, r), r)
    try:
        base = assemble_relation(2, 0, (), r)
    except DegreeGateError:
        return RelationSet(basis, [], [])
    if base.is_zero():
        return RelationSet(basis, [], [])
    return RelationSet(basis, [_genus2_row(n, *_genus2_base(base))],
                       [base.provenance._replace(n=n)])
