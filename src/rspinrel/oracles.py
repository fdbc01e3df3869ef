"""Independent oracles and structural checks, run by ``selftest`` and the tests.

The CLI's ``relations``, ``verify-ac`` and ``pm-table`` never import this
module.  It holds the codimension-1 graph layer (stable graphs, their
enumeration and divisor classes), :func:`graph_contribution_terms` (the
per-graph contraction oracle for :func:`rspinrel.relations.assemble_relation`)
and the genus-1 system determinant.  Whatever reads P_m(r, a) here looks up
``cohft.p_polynomial`` when called, so a patched table is seen.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from . import cohft
from .cohft import RSpinTheory
from .linalg import RationalMatrix, determinant
from .relations import (
    SYMBOLIC,
    AssemblyError,
    Coefficient,
    _dilaton_sum,
    _edge_entries,
    _is_zero,
    _leg_sum,
    _loop_sum,
    _separating_sum,
)
from .rpoly import RPoly
from .strata import (
    DivisorClass,
    StabilityError,
    UnsupportedGenusError,
    canonical_divisor,
    delta_irr,
    delta_sep,
    kappa1,
    psi,
)

# ---------------------------------------------------------------------------
# Decorated graphs contributing in codimension 1
# ---------------------------------------------------------------------------


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
# The per-graph contraction oracle
# ---------------------------------------------------------------------------


class GraphTerm(NamedTuple):
    """One graph family's contribution to one divisor class."""

    divisor: DivisorClass
    coefficient: Fraction


def graph_contribution_terms(
    g: int, n: int, a_vec: Sequence[int], theory: RSpinTheory
) -> list[GraphTerm]:
    """Per-graph, per-divisor coefficients of the codimension-1 part.

    This is the brute-force oracle for
    :func:`rspinrel.relations.assemble_relation`: it rebuilds the edge
    constant terms on every call, walks every enumerated graph and contracts
    each one on its own.
    Zero contributions are kept so callers can see each graph vanish
    individually.  The overall r^(g-1) prefactor is not applied here.
    """
    a_vec = tuple(a_vec)
    edges = _edge_entries(theory)
    terms: list[GraphTerm] = []

    for contribution in enumerate_contributing_graphs(g, n):
        graph = contribution.graph
        kind = contribution.kind

        if kind == "leg_psi":
            for i in range(n):
                total = _leg_sum(g, a_vec, i, theory)
                terms.append(GraphTerm(psi(i + 1), total))

        elif kind == "dilaton_kappa":
            total = _dilaton_sum(g, a_vec, theory)
            terms.append(GraphTerm(kappa1(), total))

        elif kind == "loop_edge":
            total = _loop_sum(g, a_vec, theory, edges)
            terms.append(GraphTerm(delta_irr(), total))

        elif kind == "separating_edge":
            v0, v1 = graph.vertices
            a0 = [a_vec[i - 1] for i in sorted(v0.markings)]
            a1 = [a_vec[i - 1] for i in sorted(v1.markings)]
            total = _separating_sum(g, v0.genus, a0, a1, theory, edges)
            divisor = divisor_class_of(graph, g, n)
            terms.append(GraphTerm(divisor, total))

        else:  # pragma: no cover - enumeration emits only the kinds above
            raise AssemblyError(f"unknown contribution kind {kind}")

    return terms


# ---------------------------------------------------------------------------
# The genus-1 leg/kappa system determinant
# ---------------------------------------------------------------------------


class SystemDetReport(NamedTuple):
    """Determinant of the (n+1)x(n+1) genus-1 system matrix and comparisons.

    reference_value is the closed form -(1-r)^n (2-r)^2 / 4; product_form is
    -((r-1)(r-2)/2)^n, which is what elimination actually yields.  The two
    agree only at n = 2 (and for even n at r = 4).
    """

    n: int
    r_mode: int | str
    det: Coefficient
    reference_value: Coefficient
    residual: Coefficient
    matches_reference: bool
    product_form_value: Coefficient
    matches_product_form: bool


def system_matrix_det(
    n: int, r: int | None = None, *, symbolic: bool = False
) -> SystemDetReport:
    """Determinant of the genus-1 system expressing each psi and kappa_1 in
    boundary terms: rows i = 1..n carry (r-1) P_1(r,1) on the diagonal,
    (r-1) P_1(r,0) off it and minus that in the kappa column; the last row is
    (1, ..., 1, -1).  With ``symbolic=True`` every entry is a polynomial in r."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if symbolic:
        x, r_mode = RPoly.variable(), SYMBOLIC
        p1_1, p1_0 = cohft.p_polynomial_symbolic(1, 1), cohft.p_polynomial_symbolic(1, 0)
    else:
        if r is None or r < 3:
            raise ValueError("numeric mode needs r >= 3")
        x, r_mode = Fraction(r), r
        p1_1, p1_0 = cohft.p_polynomial(1, 1, r), cohft.p_polynomial(1, 0, r)
    diag, off = (x - 1) * p1_1, (x - 1) * p1_0
    rows = [[diag if j == i else off for j in range(n)] + [-off] for i in range(n)]
    det = determinant(RationalMatrix(rows + [[1] * n + [-1]]))
    reference = (1 - x) ** n * (2 - x) ** 2 * Fraction(-1, 4)
    product_form = -(((x - 1) * (x - 2) * Fraction(1, 2)) ** n)
    residual = det - reference
    return SystemDetReport(
        n=n,
        r_mode=r_mode,
        det=det,
        reference_value=reference,
        residual=residual,
        matches_reference=_is_zero(residual),
        product_form_value=product_form,
        matches_product_form=_is_zero(det - product_form),
    )
