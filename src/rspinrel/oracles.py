"""Independent oracles and structural checks, run by ``selftest`` and the tests.

The CLI's ``relations``, ``verify-ac`` and ``pm-table`` never import this
module, and it imports nothing from :mod:`rspinrel.relations`, whose closed
form it checks.  It holds the divisor classes and the basis they form, with
:func:`canonical_divisor`; the codimension-1 graph layer (stable graphs and
their enumeration); the contraction: the per-family sums over node
insertions, in integers at scale 24 (the first-order entry
24 P_1(r, a) = 12a(r-1-a) - (2r-1)(r-2) in closed form, a topological vertex
value the integer (r-1)^g or 0, and the edge factor's constant term), and
:func:`graph_contribution_terms`, the per-graph oracle built from them, with
:func:`edge_constant_term` read off the inverse R-matrix.  The metric, the
R-matrices, the quantum product and the determinants live in
:mod:`rspinrel.matrix_oracles`.  Each function of r takes it as a plain int,
as ``relation_row`` does, and refuses one below 3 through
``cohft.check_index``.  :func:`edge_constant_term` reads P_1 through
``cohft.r_inverse_entry``, which looks up ``cohft.p_polynomial`` when called,
so a patched table is seen; the per-family sums read P_1 in closed form
instead, and the tests check that form against the recursion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cohft import check_index, r_inverse_entry
from .strata import (DELTA_IRR, DELTA_SEP, KAPPA1, PSI, StabilityError,
                     UnsupportedGenusError, _balanced, _lex_subsets, check_space)

if TYPE_CHECKING:
    EdgeEntries = tuple[tuple[tuple[int, int], int], ...]


# ---------------------------------------------------------------------------
# Divisor classes, their basis and the decorated graphs of codimension 1
# ---------------------------------------------------------------------------


class DivisorClass(NamedTuple):
    """A generator of degree-2 cohomology; it hashes and compares as the
    tuple of its four fields."""

    kind: str
    index: int | None = None            # psi only
    h: int | None = None                # delta_sep only
    markings: frozenset[int] | None = None  # delta_sep only

    def render(self) -> str:
        if self.kind == PSI:
            return f"psi_{self.index}"
        if self.kind == KAPPA1:
            return "kappa_1"
        if self.kind == DELTA_IRR:
            return "delta_irr"
        inner = ",".join(str(i) for i in sorted(self.markings))
        return f"delta_{{{self.h},{{{inner}}}}}"

    def __repr__(self) -> str:
        return self.render()


def psi(i: int) -> DivisorClass:
    if i < 1:
        raise ValueError("marking indices start at 1")
    return DivisorClass(kind=PSI, index=i)


def kappa1() -> DivisorClass:
    return DivisorClass(kind=KAPPA1)


def delta_irr() -> DivisorClass:
    return DivisorClass(kind=DELTA_IRR)


def delta_sep(h: int, markings) -> DivisorClass:
    return DivisorClass(kind=DELTA_SEP, h=h, markings=frozenset(markings))


def divisor_generators(g: int, n: int) -> list[DivisorClass]:
    """Ordered generators of degree-2 cohomology: psi's, kappa_1, the
    irreducible boundary, then the canonical separating classes in
    (h, sorted S) order.  Those are, for each h < g-h, every S with both
    sides stable (|S| >= 2 when h = 0), and for h = g-h, S = {} and every S
    that holds marking 1 but not all n markings, which is exactly S no later
    than its complement.  Built once per (g, n); each call returns a fresh
    list."""
    return list(_divisor_generators(g, n))


@lru_cache(maxsize=None)
def _divisor_generators(g: int, n: int) -> tuple[DivisorClass, ...]:
    """The basis, each S read off its text in ``strata._lex_subsets``."""
    check_space(g, n)
    gens = [psi(i) for i in range(1, n + 1)] + [kappa1(), delta_irr()]
    subsets = [frozenset(int(i) for i in t.split(",") if i) for t in _lex_subsets(n)]
    for h in range(g // 2 + 1):
        if 2 * h == g:
            chosen = _balanced(subsets, n)
        else:  # |S| >= 2 when h = 0
            chosen = [S for S in subsets if h or len(S) >= 2]
        gens += [DivisorClass(DELTA_SEP, None, h, S) for S in chosen]
    return tuple(gens)


def canonical_divisor(d: DivisorClass, g: int, n: int) -> DivisorClass:
    """Canonical representative of a divisor class on the (g, n) space.

    Separating classes are normalized to h < g-h, or h = g-h with S the
    lexicographically smaller of S and its complement; this also enforces the
    identification delta_h = delta_{g-h} in higher genus.  Idempotent.
    """
    if g < 1:
        raise UnsupportedGenusError("genus must be at least 1")
    if 2 * g - 2 + n <= 0:
        raise StabilityError(f"(g, n) = ({g}, {n}) is unstable")
    if d.kind == PSI:
        if not 1 <= d.index <= n:
            raise ValueError(f"psi index {d.index} out of range 1..{n}")
        return d
    if d.kind in (KAPPA1, DELTA_IRR):
        return d
    h, S = d.h, d.markings
    marks = frozenset(range(1, n + 1))
    if not 0 <= h <= g:
        raise ValueError(f"component genus {h} out of range 0..{g}")
    if not S <= marks:
        raise ValueError("markings outside 1..n")
    Sc = marks - S
    # Stability of both sides of the node.
    if 2 * h - 2 + len(S) + 1 <= 0:
        raise StabilityError(f"unstable side (h={h}, |S|={len(S)})")
    if 2 * (g - h) - 2 + len(Sc) + 1 <= 0:
        raise StabilityError(f"unstable side (h={g - h}, |S|={len(Sc)})")
    key, key_c = tuple(sorted(S)), tuple(sorted(Sc))
    if (h, key) <= (g - h, key_c):
        return delta_sep(h, S)
    return delta_sep(g - h, Sc)


class Vertex(NamedTuple):
    genus: int
    markings: frozenset[int]
    half_edges: tuple[int, ...] = ()
    dilaton_legs: int = 0

    @property
    def valence(self) -> int:
        return len(self.markings) + len(self.half_edges) + self.dilaton_legs


class StableGraph(NamedTuple):
    """Decorated dual graph: vertices with genus/markings/half-edges, edges
    as unordered pairs of half-edge ids (loops allowed)."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def validate(self) -> None:
        seen: list[int] = []
        for v in self.vertices:
            if v.genus < 0:
                raise ValueError("negative vertex genus")
            if 2 * v.genus - 2 + v.valence <= 0:
                raise StabilityError(f"unstable vertex {v}")
            seen.extend(v.half_edges)
        if sorted(seen) != sorted(h for e in self.edges for h in e):
            raise ValueError("half-edges do not match the edge list")
        marks: list[int] = []
        for v in self.vertices:
            marks.extend(v.markings)
        if len(marks) != len(set(marks)):
            raise ValueError("a marking appears on two vertices")
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        owner = {h: vi for vi, v in enumerate(self.vertices) for h in v.half_edges}
        reached, grew = {0}, True
        while grew:
            grew = False
            for a, b in self.edges:
                ends = {owner[a], owner[b]}
                if ends & reached and not ends <= reached:
                    reached |= ends
                    grew = True
        return len(reached) >= len(self.vertices)


class GraphContribution(NamedTuple):
    """A graph family contributing to the codimension-1 part of a relation."""

    graph: StableGraph
    kind: str  # "leg_psi" | "dilaton_kappa" | "loop_edge" | "separating_edge"


def _smooth_vertex(g: int, n: int, dilaton: int = 0) -> Vertex:
    return Vertex(genus=g, markings=frozenset(range(1, n + 1)), dilaton_legs=dilaton)


def enumerate_contributing_graphs(g: int, n: int) -> list[GraphContribution]:
    """All decorated stable graphs that can contribute in codimension 1.

    These are: the smooth graph with one psi power on a leg, the smooth graph
    with a single dilaton leg (the kappa_1 source), the one-loop graph, and
    the one-edge separating graphs, each taken once per isomorphism class.
    Every other family lands in codimension at least 2 and is left out:

    * two or more dilaton legs: each carries psi^2 or higher, so the total
      degree is at least 4;
    * one edge together with a dilaton leg: the edge and the kappa
      decoration each add codimension 1;
    * two or more edges: each edge adds codimension 1;
    * a positive psi power on an edge, or on a leg of a nodal graph: the
      boundary divisor and the psi decoration each add codimension 1.
    """
    if g not in (1, 2, 3):
        raise UnsupportedGenusError(f"genus {g} enumeration is not supported")
    if 2 * g - 2 + n <= 0:
        raise StabilityError(f"(g, n) = ({g}, {n}) is unstable")
    out: list[GraphContribution] = []

    if n >= 1:
        smooth = StableGraph(vertices=(_smooth_vertex(g, n),))
        smooth.validate()
        out.append(GraphContribution(graph=smooth, kind="leg_psi"))

    dilaton = StableGraph(vertices=(_smooth_vertex(g, n, dilaton=1),))
    dilaton.validate()
    out.append(GraphContribution(graph=dilaton, kind="dilaton_kappa"))

    loop = StableGraph(
        vertices=(
            Vertex(genus=g - 1, markings=frozenset(range(1, n + 1)), half_edges=(0, 1)),
        ),
        edges=((0, 1),),
    )
    loop.validate()
    out.append(GraphContribution(graph=loop, kind="loop_edge"))

    marks = list(range(1, n + 1))
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for h in range(0, g + 1):
        for size in range(0, n + 1):
            for S in combinations(marks, size):
                Sc = tuple(sorted(set(marks) - set(S)))
                label = min((h, tuple(S)), (g - h, Sc))
                if label in seen:
                    continue
                try:
                    sep = StableGraph(
                        vertices=(
                            Vertex(genus=h, markings=frozenset(S), half_edges=(0,)),
                            Vertex(genus=g - h, markings=frozenset(Sc), half_edges=(1,)),
                        ),
                        edges=((0, 1),),
                    )
                    sep.validate()
                except (StabilityError, ValueError):
                    continue
                seen.add(label)
                out.append(GraphContribution(graph=sep, kind="separating_edge"))
    return out


def divisor_class_of(
    graph: StableGraph, g: int, n: int, psi_leg: int | None = None
) -> DivisorClass:
    """Canonical divisor class of a codimension-1 decorated graph.

    One-edge graphs map to their boundary divisor; the smooth graph maps to
    kappa_1 when it carries a dilaton leg and to psi_i when a leg is named.
    """
    if len(graph.edges) > 1:
        raise ValueError("graph has codimension at least 2")
    if len(graph.edges) == 1:
        if len(graph.vertices) == 1:
            return delta_irr()
        v0 = graph.vertices[0]
        return canonical_divisor(delta_sep(v0.genus, v0.markings), g, n)
    total_dilaton = sum(v.dilaton_legs for v in graph.vertices)
    if total_dilaton == 1:
        return kappa1()
    if total_dilaton > 1:
        raise ValueError("graph has codimension at least 2")
    if psi_leg is not None:
        return canonical_divisor(psi(psi_leg), g, n)
    raise ValueError("smooth graph with no decoration has codimension 0")


# ---------------------------------------------------------------------------
# The contraction: per-family sums at scale 24, and the per-graph oracle
# ---------------------------------------------------------------------------


def _first_order(r: int, a: int) -> int:
    """24 P_1(r, a) = 12a(r-1-a) - (2r-1)(r-2), the first-order inverse-R
    entry at lower index a, in closed form."""
    return 12 * a * (r - 1 - a) - (2 * r - 1) * (r - 2)


def _vertex(g: int, total: int, r: int) -> int:
    """Topological value of a stable genus-g vertex whose insertions sum to
    ``total``: (r-1)^g when g - 1 - total is divisible by r - 1, else 0."""
    return (r - 1) ** g if (g - 1 - total) % (r - 1) == 0 else 0


def _edge_entries(r: int) -> EdgeEntries:
    """24 times each nonzero edge constant term, with its insertion pair
    (p, q): -24 P_1(r, p+1 mod r-1) at q = r-3-p mod r-1, the one pair for
    each p where the term can be nonzero."""
    entries = []
    for p in range(r - 1):
        entry = -_first_order(r, (p + 1) % (r - 1))
        if entry:
            entries.append(((p, (r - 3 - p) % (r - 1)), entry))
    return tuple(entries)


def _leg_sum(g: int, insertions: Sequence[int], i: int, r: int) -> int:
    """24 times the psi_{i+1} coefficient: one psi power on leg i of the
    smooth graph, which the first-order inverse R-matrix moves to the one
    index b with b + 1 = a_i mod r-1 (every other entry of its column
    vanishes), at the entry 24 P_1(r, a_i)."""
    return _first_order(r, insertions[i]) * _vertex(g, sum(insertions) - 1, r)


def _dilaton_sum(g: int, a_vec: Sequence[int], r: int) -> int:
    """24 times the kappa_1 coefficient: psi^2 on the dilaton leg pushes
    forward to kappa_1; the dilaton series carries an explicit minus sign and
    inserts along the unit direction."""
    return -_leg_sum(g, [*a_vec, 0], len(a_vec), r)


def _loop_sum(g: int, a_vec: Sequence[int], r: int, edges: EdgeEntries) -> int:
    """24 times the delta_irr coefficient: the one-loop graph on a genus g-1
    vertex."""
    total = sum(a_vec)
    return sum(entry * _vertex(g - 1, total + p + q, r) for (p, q), entry in edges)


def _separating_sum(
    g: int, h: int, a0: list[int], a1: list[int], r: int, edges: EdgeEntries
) -> int:
    """24 times the delta_{h,S} coefficient: genus-h vertex with insertions a0
    joined by one edge to a genus g-h vertex with insertions a1."""
    total0, total1 = sum(a0), sum(a1)
    return sum(entry * _vertex(h, total0 + p, r) * _vertex(g - h, total1 + q, r)
               for (p, q), entry in edges)


class GraphTerm(NamedTuple):
    """One graph family's contribution to one divisor class."""

    divisor: DivisorClass
    coefficient: Fraction


def graph_contribution_terms(g: int, n: int, a_vec: Sequence[int], r: int) -> list[GraphTerm]:
    """Per-graph, per-divisor coefficients of the codimension-1 part.

    This is the brute-force oracle for the closed-form key values of
    :mod:`rspinrel.relations`: it rebuilds the edge constant terms on every
    call, walks every enumerated graph and contracts each one on its own
    with the per-family sums.  Zero contributions are kept so callers can
    see each graph vanish individually.  The overall r^(g-1) prefactor is not
    applied here, and the per-family sums' scale 24 is divided out.
    """
    a_vec = tuple(a_vec)
    if len(a_vec) != n:
        raise ValueError("a_vec length must equal n")
    for a in (0, *a_vec):
        check_index(a, r)
    edges = _edge_entries(r)
    terms: list[GraphTerm] = []

    for contribution in enumerate_contributing_graphs(g, n):
        graph = contribution.graph
        kind = contribution.kind

        if kind == "leg_psi":
            for i in range(n):
                total = _leg_sum(g, a_vec, i, r)
                terms.append(GraphTerm(psi(i + 1), total))

        elif kind == "dilaton_kappa":
            total = _dilaton_sum(g, a_vec, r)
            terms.append(GraphTerm(kappa1(), total))

        elif kind == "loop_edge":
            total = _loop_sum(g, a_vec, r, edges)
            terms.append(GraphTerm(delta_irr(), total))

        else:  # "separating_edge"
            v0, v1 = graph.vertices
            a0 = [a_vec[i - 1] for i in sorted(v0.markings)]
            a1 = [a_vec[i - 1] for i in sorted(v1.markings)]
            total = _separating_sum(g, v0.genus, a0, a1, r, edges)
            divisor = divisor_class_of(graph, g, n)
            terms.append(GraphTerm(divisor, total))

    return [GraphTerm(divisor, Fraction(total, 24)) for divisor, total in terms]


def edge_constant_term(p: int, q: int, r: int) -> Fraction:
    """Constant term of the edge factor for the insertion pair (p, q): the
    first-order inverse-R entry with upper index p and lower index r-2-q,
    -P_1(r, p+1 mod r-1) when q = r-3-p mod r-1 and 0 otherwise.  A bad q
    is refused as itself, not as the lower index r-2-q."""
    check_index(q, r)
    return -r_inverse_entry(1, r - 2 - q, p, r)
