"""Assembly and verification of divisor relations.

A relation in degree-2 cohomology of the moduli space of genus-g stable
curves with n markings, for shift data (r, a_1..a_n), is the codimension-1
part of the reconstructed shifted r-spin class.  It vanishes exactly when the
auxiliary total degree is negative, which :func:`rspinrel.strata.phi_degree`
reports to :func:`_numeric_keys` and :func:`admissible_leg_vectors`.

The leg vectors that pass the degree gate and the parity condition
sum(a) = g mod r-1 are known in closed form: their sum is 0 or 1, so they are
the zero vector and the unit vectors (in genus 1, exactly the n unit
vectors; in genus 2, the zero vector at r = 3 alone; above, none).  A class's
coefficient depends on the leg vector only through sum(a) and the class's
key: (psi, a_i) for psi_i, kappa_1, delta_irr, and (delta_sep, h, sum of a_i
over S) for delta_{h,S}.  So the relation is assembled from a few key values
in closed form, the explicit PPZ relation:

* genus 1, a unit leg vector: 24 times each key's coefficient is
  (r-1)(r-2)(c + k r), with (c, k) in :data:`_GENUS_ONE`;
* genus 2 at r = 3: 12 times Mumford's 5 kappa_1 - delta_irr - 7 delta_1 on
  the unmarked space, the relation every marked space pulls back.

Each is 24 r^(g-1) times the codimension-1 part, the scale 24 of the
per-family contraction sums in :mod:`rspinrel.oracles`, which the tests pin
it against; relations are projective, so the rows are those of scale 1.
Symbolic-in-r relations (genus 1 only) read the expanded cubic
6 (r-1)(r-2)(c + k r), at scale 144, and extract each power of r as a
feature row, whose primitive form drops the scale.  No relation, numeric or
symbolic, loads ``rpoly`` or ``fractions``.

A relation is held as its feature row, its coefficients at the lex-first
basis classes that determine it: in genus 1 psi_1..psi_n, kappa_1, delta_irr
and delta_{0,S} for S = {1,2}, {1,2,3}, ..., {1..n}, {1,3}, {2,3} (at n <= 2
the whole basis); in genus 2 psi_1, delta_irr and delta_{1,{}}, or at n = 0
kappa_1, delta_irr and delta_1.  Every other basis entry is an integer
combination of earlier ones, so a feature row is a sub-row of its basis row:
a primitive row with a positive lead stays one when written out, and the
reduced feature rows are the reduced basis rows restricted to them.
Relation sets take ranks and reduced rows over feature rows, and write a row
over the basis of about 2^n classes only when read.

In chi_i (the sum of the delta_{0,S} with i in S) and one (the sum of them
all) the genus-1 relation of e_i is (r-1)(r-2)/24 times
(13-2r) A_i - (2r-1) B_i - delta_irr, with A_i = psi_i - chi_i and
B_i = sum_{j != i} psi_j - kappa_1 - one + chi_i.  Its r^1 part -2(A_i + B_i)
is twice the Arbarello-Cornalba kappa_1 relation, and its r^0 part
13 A_i + B_i - delta_irr is their psi_i relation minus that one, so the span
equals theirs for every n >= 1 and r >= 3.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Sequence, Union

from .linalg import primitive_int_vector, rref
from .strata import (DELTA_IRR, DELTA_SEP, KAPPA1, PSI, DegreeGateError, UnsupportedGenusError,
                     basis_size, check_space, generator_names, phi_degree)

# Genus 1 at the unit leg vector: (c, k) with 24 times the key's coefficient
# (r-1)(r-2)(c + k r).  psi at the unit and at a zero leg, kappa_1, delta_irr,
# and delta_{0,S} with the unit in S and without it.
_GENUS_ONE = {(PSI, 1): (13, -2), (PSI, 0): (1, -2), KAPPA1: (-1, 2), DELTA_IRR: (-1, 0),
              (DELTA_SEP, 0, 1): (-13, 2), (DELTA_SEP, 0, 0): (-1, 2)}
# Genus 2 at r = 3 with no legs: 24 r times each coefficient, 12 times Mumford's relation.
_GENUS_TWO = {KAPPA1: 60, DELTA_IRR: -12, (DELTA_SEP, 1, 0): -84}


class BasisMismatchError(ValueError):
    """Two relation sets do not share a generator basis."""


class Provenance(NamedTuple):
    g: int
    n: int
    a_vec: tuple[int, ...] | None
    r_mode: Union[int, str]  # numeric r, "r^k" or "reference"


class RelationSet(NamedTuple):
    """Relations on the (g, n) space ``space`` as integer feature rows
    (primitive with a positive lead when assembled or reference), each with
    its provenance; ``rows`` writes them out over the divisor basis with
    :func:`_expand` each time it is read."""

    space: tuple[int, int]
    features: list[tuple[int, ...]]
    provenances: list[Provenance]

    @property
    def rows(self) -> list[tuple[int, ...]]:
        return [_expand(*self.space, row) for row in self.features]

    def reduced_rows(self) -> list[tuple[int, ...]]:
        """Row-reduced basis of the span as primitive integer vectors over the
        basis: the reduced feature rows, each written out once."""
        return [_expand(*self.space, row) for row in rref(self.features)[0]]


# ---------------------------------------------------------------------------
# Numeric and symbolic assembly
# ---------------------------------------------------------------------------

def _numeric_keys(g: int, n: int, a_vec: tuple[int, ...], r: int) -> dict:
    """24 r^(g-1) times each key's coefficient at r, an integer: the gate of
    every relation.  Refuses an r below 3, then an entry outside 0..r-2,
    then with :class:`DegreeGateError` where :func:`phi_degree` reports
    no relation.  No key when sum(a) != g mod r-1: the exponent is then
    not integral, and every contribution vanishes through the congruences.
    Past those, a genus-1 leg vector is a unit vector, and a genus-2 one is
    zero at r = 3.  ``a_vec`` has n entries, or in genus 2 none."""
    if len(a_vec) != n and (g != 2 or a_vec):
        raise ValueError("a_vec length must equal n")
    report = phi_degree(g, a_vec, r)
    for a in a_vec:
        if not 0 <= a <= r - 2:
            raise ValueError(f"basis index {a} out of range 0..{r - 2}")
    if not report.relation_exists:
        raise DegreeGateError(g, n, sum(a_vec), r)
    if not report.d_integral:
        return {}
    if g == 1:
        return {key: (r - 1) * (r - 2) * (c + k * r) for key, (c, k) in _GENUS_ONE.items()}
    return dict(_GENUS_TWO)


def _symbolic_keys(g: int, n: int, a_vec: tuple[int, ...]) -> dict[object, tuple[int, ...]]:
    """144 times each key's coefficient as a polynomial in r, 6 times the
    scale 24: 6 (r-1)(r-2)(c + k r) expanded, its four integer coefficients
    lowest power first (genus 1 only).  The gate is that of r = 3: its bound
    sum(a) < r only grows with r, so r = 3 admits exactly the leg vectors
    every r admits."""
    if g != 1:
        raise UnsupportedGenusError("symbolic-in-r assembly is only meaningful in genus 1")
    if not _numeric_keys(g, n, a_vec, 3):
        return {}
    return {key: (12 * c, 6 * (2 * k - 3 * c), 6 * (c - 3 * k), 6 * k)
            for key, (c, k) in _GENUS_ONE.items()}


def _feature_row(g: int, n: int, a_vec: tuple[int, ...], values: dict) -> list:
    """The relation with these key values on the (g, n) space at its
    features, a key no class holds read as 0: in genus 1 a delta_{0,S} holds
    the key of the sum of a over S; in genus 2 the values are those of the
    unmarked space, whose kappa_1 pulls back to -kappa_1 on psi_1."""
    if g == 1:
        sums = list(accumulate(a_vec))[1:]  # over S = {1,2}, ..., {1..n}
        if n >= 3:
            sums += [a_vec[0] + a_vec[2], a_vec[1] + a_vec[2]]  # over {1,3} and {2,3}
        return ([values.get((PSI, a), 0) for a in a_vec]
                + [values.get(KAPPA1, 0), values.get(DELTA_IRR, 0)]
                + [values.get((DELTA_SEP, 0, s), 0) for s in sums])
    if g == 2:
        k = values.get(KAPPA1, 0)
        return [-k if n else k, values.get(DELTA_IRR, 0), values.get((DELTA_SEP, 1, 0), 0)]
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
    """A feature row written over the (g, n) basis, which extends it.  In
    genus 1 with n >= 3 each delta_{0,S} entry is one + the sum of chi_i over
    S, for the chi_i and one the coordinates determine:
    chi_k = delta_{0,{1..k}} - delta_{0,{1..k-1}} for k >= 3, then chi_1,
    chi_2 and one from delta_{0,{1,2}}, delta_{0,{1,3}} and delta_{0,{2,3}}."""
    if g == 1:
        if n < 3:
            return tuple(row)
        *prefix, d13, d23 = row[n + 2:]
        tail = [b - a for a, b in zip(prefix, prefix[1:])]  # chi_3..chi_n
        chi = [prefix[0] - d23 + tail[0], prefix[0] - d13 + tail[0]] + tail
        one = prefix[0] - chi[0] - chi[1]
        return tuple(row[:n + 2]) + tuple(_separating_entries(chi, one))
    if g == 2:  # the pullback of k kappa_1 + irr delta_irr + d1 delta_1
        first, irr, d1 = row
        k = -first if n else first
        return (-k,) * n + (k, irr) + (k,) * (2 ** n - n - 1) + (d1,) * (2 ** (n - 1) if n else 1)
    return (0,) * basis_size(g, n)


def relation_row(g: int, n: int, a_vec: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The primitive integer row of the relation for (g, n, a_vec, r) over the
    basis, first nonzero entry positive, written from its feature row; the
    gate comes before the basis check."""
    values = _numeric_keys(g, n, a_vec, r)
    check_space(g, n)
    return _expand(g, n, primitive_int_vector(_feature_row(g, n, a_vec, values)))


def assembled_relation_set(
    g: int, n: int, a_vecs: Sequence[tuple[int, ...]], r: int | None = None
) -> RelationSet:
    """The primitive nonzero rows of each leg vector in turn: its assembly at
    r when r is given, then in genus 1 one per power of r of its symbolic
    assembly, highest first.  The basis is checked after the first leg
    vector's gate, or first when there is none."""
    if not a_vecs:
        check_space(g, n)
    rows, provenances = [], []
    for a_vec in a_vecs:
        found = [] if r is None else [(r, _numeric_keys(g, n, a_vec, r))]
        polys = _symbolic_keys(g, n, a_vec) if g == 1 else {}
        check_space(g, n)
        top = max(map(len, polys.values()), default=0)
        found += [(f"r^{p}", {key: poly[p] for key, poly in polys.items()})
                  for p in range(top - 1, -1, -1)]
        for r_mode, values in found:
            row = primitive_int_vector(_feature_row(g, n, a_vec, values))
            if any(row):
                rows.append(row)
                provenances.append(Provenance(g, n, a_vec, r_mode))
    return RelationSet((g, n), rows, provenances)


# ---------------------------------------------------------------------------
# Reference set, span comparison
# ---------------------------------------------------------------------------

def ac_relations(g: int, n: int) -> RelationSet:
    """The known complete set of degree-2 relations (Arbarello-Cornalba), as
    primitive feature rows with a positive lead.

    Genus 1: 12 psi_i = delta_irr + 12 sum over subsets containing i, for
    each i, plus kappa_1 = sum(psi) - sum over all subsets.  Genus 2: the
    single pulled-back relation 5 kappa_1 = delta_irr + 7 (genus 1+1 sum)
    corrected by markings.  Genus 3 and above: empty, since the generators
    are independent for every g >= 3.  Each is written as the key values of a
    leg vector, read as the assembly reads them: the psi_i relation at e_i,
    where a delta_{0,S} has key sum 1 exactly when i is in S, and the kappa_1
    relation at the zero vector.
    """
    check_space(g, n)
    tables = []
    if g == 1:
        tables = [(tuple(int(j == i) for j in range(n)),
                   {(PSI, 1): 12, DELTA_IRR: -1, (DELTA_SEP, 0, 1): -12}) for i in range(n)]
        tables.append(((0,) * n, {(PSI, 0): -1, KAPPA1: 1, (DELTA_SEP, 0, 0): 1}))
    elif g == 2:
        tables = [((), {KAPPA1: 5, DELTA_IRR: -1, (DELTA_SEP, 1, 0): -7})]
    rows = [primitive_int_vector(_feature_row(g, n, a_vec, values)) for a_vec, values in tables]
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
    left, right = rref(a.features)[0], rref(b.features)[0]
    rank_left, rank_right = len(left), len(right)
    rank_union = len(rref(left + right)[1])
    return SpanReport(
        equal=rank_left == rank_right == rank_union,
        rank_left=rank_left,
        rank_right=rank_right,
        rank_union=rank_union,
    )


def admissible_leg_vectors(g: int, n: int, r: int) -> list[tuple[int, ...]]:
    """Leg vectors whose relation is potentially nonzero: those of a sum that
    :func:`phi_degree` reports a relation for, with an integral exponent, i.e.
    sum(a) = g mod r - 1.  The gate passes iff sum(a) < r - (g-1)(r-2), a
    bound of r in genus 1, 2 in genus 2 and at most 1 above, so every allowed
    sum is 0 or 1: the vectors are the zero vector if sum 0 is allowed, then
    the unit vectors in lexicographic order if sum 1 is (in genus 1, exactly
    the n unit vectors)."""
    zero, unit = (phi_degree(g, (s,), r) for s in (0, 1))
    vectors = []
    if zero.relation_exists and zero.d_integral:
        vectors.append((0,) * n)
    if unit.relation_exists and unit.d_integral:
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


# ---------------------------------------------------------------------------
# The relations and verify-ac commands' output, once their arguments pass
# ---------------------------------------------------------------------------

def relation_records(
    g: int, n: int, r: int | None, a_vec: tuple[int, ...] | None
) -> tuple[list[dict], list[str]]:
    """What ``relations`` prints: one record per relation (the generator
    names, its primitive integer row, and the leg vector and r it came from)
    and the notes.  r is None for the symbolic relations, and a_vec None for
    every leg vector: in genus 1 the n unit vectors, each symbolic, else the
    reduced set.  The symbolic set checks the basis before it builds them."""
    if r is None:
        if a_vec is None:
            check_space(g, n)
        extracted = assembled_relation_set(g, n, [a_vec] if a_vec is not None else [
            tuple(int(j == i) for j in range(n)) for i in range(n)])
        rows, provenances = extracted.rows, extracted.provenances
    else:
        rows = ppz_relation_set(g, n, r).reduced_rows() if a_vec is None else [
            row for row in [relation_row(g, n, a_vec, r)] if any(row)]
        # A genus-2 row is pulled back from the unmarked space, so it has a = ().
        provenances = [Provenance(g, n, () if g == 2 and a_vec else a_vec, r)] * len(rows)
    notes = []
    if r is not None and not rows:
        notes.append("zero relation: every graph contribution vanishes")
        if a_vec is None and not phi_degree(g, (), r).d_integral:
            notes.append("auxiliary degree is not an integer multiple of r-1")
    names = generator_names(g, n)
    return [{"generators": names, "coeffs": row, "g": g, "n": n, "r": prov.r_mode,
             "a": list(prov.a_vec) if prov.a_vec is not None else None}
            for row, prov in zip(rows, provenances)], notes


def _format_terms(names: list[str], coeffs: Sequence[int]) -> str:
    terms = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{name}"
                     for c, name in zip(coeffs, names) if c)
    if not terms:
        return "0 = 0"
    return ("-" if terms[0] == "-" else "") + terms[2:] + " = 0"


def relation_lines(g: int, n: int, r: int | None, a_vec: tuple[int, ...] | None,
                   records: list[dict], notes: list[str]):
    """The text form of :func:`relation_records`' output for these arguments:
    a header, each relation as an equation (a symbolic one labelled with its
    power of r and leg vector), then each note."""
    header = f"relations g={g} n={n} r={'symbolic' if r is None else r}"
    if r is None or a_vec is None:
        header += f" ({len(records)} {'extracted' if r is None else 'normalized relations'})"
    else:
        header += f" a={list(a_vec)}" + ("" if records else ": 0 = 0")
    yield header
    for record in records:
        label = f"[{record['r']}, a={record['a']}] " if r is None else ""
        yield "  " + label + _format_terms(record["generators"], record["coeffs"])
    for note in notes:
        yield f"  note: {note}"


def verify_ac(g: int, n: int, r: int) -> dict:
    """The ``verify-ac`` verdict record: whether :func:`ppz_relation_set` at
    (g, n, r) spans what :func:`ac_relations` spans, with the three ranks."""
    report = spans_equal(ppz_relation_set(g, n, r), ac_relations(g, n))
    return {"name": "span-comparison", "verdict": "EQUAL" if report.equal else "DIFFERENT",
            "rank_computed": report.rank_left, "rank_reference": report.rank_right,
            "rank_union": report.rank_union}
