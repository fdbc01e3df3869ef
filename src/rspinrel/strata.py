"""Divisor classes on moduli of stable curves and the graphs behind them.

Degree-2 cohomology of the moduli space of genus-g curves with n markings is
generated by the cotangent classes psi_1..psi_n, the kappa_1 class, the
irreducible boundary divisor, and the separating boundary divisors
delta_{h,S} (genus h component carrying the marking subset S).  Separating
divisors are stored canonically with respect to the symmetry
(h, S) ~ (g-h, complement of S).

The enumeration half of the module lists the decorated one-vertex and
one-edge graphs whose reconstruction term can land in codimension 1;
:func:`enumerate_contributing_graphs` says which families of higher
codimension it leaves out, and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

PSI = "psi"
KAPPA1 = "kappa1"
DELTA_IRR = "delta_irr"
DELTA_SEP = "delta_sep"


class StabilityError(ValueError):
    """A requested vertex or divisor violates 2g - 2 + n > 0."""


class UnsupportedGenusError(ValueError):
    """Genus outside the range this library enumerates."""


# The largest divisor basis built.  Every relation is a dense row over the
# basis, and genus 1 with n markings has 2^n + 1 classes, so this admits
# genus 1 up to n = 15 (32,769 classes) and genus 2 up to n = 14 (24,577).
MAX_BASIS_SIZE = 40_000


@dataclass(frozen=True)
class DivisorClass:
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

    def sort_key(self):
        if self.kind == PSI:
            return (0, self.index, 0, ())
        if self.kind == KAPPA1:
            return (1, 0, 0, ())
        if self.kind == DELTA_IRR:
            return (2, 0, 0, ())
        return (3, 0, self.h, tuple(sorted(self.markings)))

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


def divisor_generators(g: int, n: int) -> list[DivisorClass]:
    """Ordered generators of degree-2 cohomology: psi's, kappa_1, the
    irreducible boundary, then canonical separating classes sorted by
    (h, subset).  Built once per (g, n); each call returns a fresh list."""
    return list(_divisor_generators(g, n))


def basis_size(g: int, n: int) -> int:
    """len(divisor_generators(g, n)) in closed form, for g >= 1: n psi
    classes, kappa_1, delta_irr, and the pairs (h, S) whose two sides are
    stable (genus >= 1 or two markings), halved for (h, S) ~ (g-h, S^c),
    whose one fixed pair is (g/2, {}) when n = 0 and g is even."""
    pairs = sum(
        comb(n, k) for h in range(g + 1) for k in range(n + 1)
        if (h or k >= 2) and (g - h or n - k >= 2)
    )
    return n + 2 + (pairs + (n == 0 and g % 2 == 0)) // 2


@lru_cache(maxsize=None)
def _divisor_generators(g: int, n: int) -> tuple[DivisorClass, ...]:
    if g < 1:
        raise UnsupportedGenusError("genus-0 generators are out of scope")
    if 2 * g - 2 + n <= 0:
        raise StabilityError(f"(g, n) = ({g}, {n}) is unstable")
    size = basis_size(g, n)
    if size > MAX_BASIS_SIZE:
        raise ValueError(
            f"the divisor basis for (g, n) = ({g}, {n}) has {size} classes, "
            f"above the limit of {MAX_BASIS_SIZE}"
        )
    gens = [psi(i) for i in range(1, n + 1)]
    gens.append(kappa1())
    gens.append(delta_irr())
    seps = set()
    marks = list(range(1, n + 1))
    for h in range(0, g + 1):
        for size in range(0, n + 1):
            for S in combinations(marks, size):
                try:
                    seps.add(canonical_divisor(delta_sep(h, S), g, n))
                except StabilityError:
                    continue
    gens.extend(sorted(seps, key=DivisorClass.sort_key))
    return tuple(gens)


@dataclass(frozen=True)
class Vertex:
    genus: int
    markings: frozenset[int]
    half_edges: tuple[int, ...] = ()
    dilaton_legs: int = 0

    @property
    def valence(self) -> int:
        return len(self.markings) + len(self.half_edges) + self.dilaton_legs


@dataclass(frozen=True)
class StableGraph:
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
        if len(self.vertices) <= 1:
            return True
        owner = {}
        for vi, v in enumerate(self.vertices):
            for h in v.half_edges:
                owner[h] = vi
        adjacency = {i: set() for i in range(len(self.vertices))}
        for a, b in self.edges:
            adjacency[owner[a]].add(owner[b])
            adjacency[owner[b]].add(owner[a])
        seen = {0}
        frontier = [0]
        while frontier:
            current = frontier.pop()
            for nxt in adjacency[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class GraphContribution:
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
