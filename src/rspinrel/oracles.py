"""Independent oracles and structural checks, run by ``selftest`` and the tests.

The CLI's ``relations``, ``verify-ac`` and ``pm-table`` never import this
module.  It holds the codimension-1 graph layer (stable graphs, their
enumeration, divisor classes and :func:`canonical_divisor`);
:func:`graph_contribution_terms`, the per-graph contraction oracle for the
assembly; the forward and whole R-matrices; the quantum product with its
idempotent check in exact cyclotomic arithmetic; :class:`RationalMatrix`,
nullspaces and determinants; and the genus-1 system determinant.  Whatever
reads P_m(r, a) here looks up ``cohft.p_polynomial`` when called, so a patched
table is seen.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence, Union

from . import cohft
from .cohft import RSpinTheory, r_inverse_entry
from .cyclotomic import CyclotomicField
from .linalg import rref
from .relations import (AssemblyError, _dilaton_sum, _edge_entries, _leg_sum, _loop_sum,
                        _separating_sum)
from .rpoly import RPoly
from .strata import (DELTA_IRR, KAPPA1, PSI, DivisorClass, StabilityError,
                     UnsupportedGenusError, delta_irr, delta_sep, kappa1, psi)

Coefficient = Union[Fraction, RPoly]
SYMBOLIC = "symbolic"


# ---------------------------------------------------------------------------
# Decorated graphs contributing in codimension 1
# ---------------------------------------------------------------------------


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

    This is the brute-force oracle for the per-key contraction of
    :mod:`rspinrel.relations`: it rebuilds the edge constant terms on every
    call, walks every enumerated graph and contracts each one on its own.
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
# R-matrices and the quantum product
# ---------------------------------------------------------------------------


def r_forward_entry(m: int, a: int, b: int, theory: RSpinTheory) -> Fraction:
    """Entry of the R-matrix itself: (-1)^m P_m(r, r-2-b) under b + m = a mod r-1.

    The sign comes from the bracket of the omitted scalar being negated for
    the forward series.
    """
    theory.check_index(a)
    theory.check_index(b)
    if (b + m - a) % (theory.r - 1) != 0:
        return Fraction(0)
    return (-1) ** m * cohft.p_polynomial(m, theory.r - 2 - b, theory.r)


def r_inverse_matrix(m: int, theory: RSpinTheory) -> list[list[Fraction]]:
    """Order-m inverse R-matrix; rows are the upper (output) index."""
    d = theory.dimension
    return [[r_inverse_entry(m, a, b, theory) for a in range(d)] for b in range(d)]


def r_forward_matrix(m: int, theory: RSpinTheory) -> list[list[Fraction]]:
    """Order-m R-matrix; rows are the upper (output) index."""
    d = theory.dimension
    return [[r_forward_entry(m, a, b, theory) for a in range(d)] for b in range(d)]


class StructureConstants(NamedTuple):
    """Quantum product at the shift point in the rescaled basis.

    The product of basis vectors a and b is the single basis vector with
    index a + b mod r - 1, so the table stores that index; the structure
    constant c^i_ab is 1 when i equals table[a][b] and 0 otherwise.
    """

    r: int
    table: tuple[tuple[int, ...], ...]

    def product_index(self, a: int, b: int) -> int:
        return self.table[a][b]

    def coefficient(self, i: int, a: int, b: int) -> int:
        return 1 if self.table[a][b] == i else 0


def quantum_structure_constants(theory: RSpinTheory) -> StructureConstants:
    """Structure constants of the quantum product at the shift point."""
    d = theory.dimension
    table = tuple(
        tuple((a + b) % (theory.r - 1) for b in range(d)) for a in range(d)
    )
    return StructureConstants(r=theory.r, table=table)


class IdempotentReport(NamedTuple):
    r: int
    ok: bool
    geometric_sums_ok: bool
    idempotent_identity_ok: bool
    failures: tuple[str, ...]


def idempotent_check(theory: RSpinTheory) -> IdempotentReport:
    """Verify the discrete-Fourier basis diagonalizes the quantum product.

    With zeta a primitive (r-1)-th root of unity and f_i = sum_a zeta^(a*i) v_a
    over the rescaled basis v_a, checks f_i . f_j = (r-1) delta_ij f_j in exact
    cyclotomic arithmetic, along with the geometric-sum identity
    1 + zeta^x + ... + zeta^((r-2)x) = 0 for x != 0 mod r-1 that drives it.
    """
    m = theory.r - 1
    field = CyclotomicField(m)
    failures: list[str] = []

    geometric_ok = True
    for x in range(1, m):
        total = field.zero()
        for k in range(m):
            total = field.add(total, field.root_power(k * x))
        if not field.is_zero(total):
            geometric_ok = False
            failures.append(f"geometric sum nonzero for x={x}")

    product_ok = True
    for i in range(m):
        for j in range(m):
            for c in range(m):
                # Coefficient of v_c in f_i . f_j: sum over a+b = c mod r-1
                # of zeta^(a i + b j).
                coeff = field.zero()
                for a in range(m):
                    b = (c - a) % m
                    coeff = field.add(coeff, field.root_power(a * i + b * j))
                if i == j:
                    expected = field.scale(field.root_power(c * j), m)
                else:
                    expected = field.zero()
                if coeff != expected:
                    product_ok = False
                    failures.append(f"product mismatch at i={i} j={j} c={c}")

    return IdempotentReport(
        r=theory.r,
        ok=geometric_ok and product_ok,
        geometric_sums_ok=geometric_ok,
        idempotent_identity_ok=product_ok,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Nullspace and determinants, and the genus-1 leg/kappa system determinant
# ---------------------------------------------------------------------------


class RationalMatrix:
    """Rectangular matrix with homogeneous entries: all Fraction or all RPoly."""

    def __init__(self, entries: Sequence[Sequence]):
        rows = [list(row) for row in entries]
        self.rows, self.cols = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("matrix rows have unequal lengths")
        self.is_polynomial = any(isinstance(x, RPoly) for row in rows for x in row)
        coerce = RPoly.constant if self.is_polynomial else Fraction
        self.entries: tuple[tuple, ...] = tuple(
            tuple(x if isinstance(x, RPoly) else coerce(x) for x in row) for row in rows
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _as_matrix(m) -> RationalMatrix:
    return m if isinstance(m, RationalMatrix) else RationalMatrix(m)


def rank_and_solve(m) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Exact rank and a basis of the right nullspace of a rational matrix.

    Each basis vector v satisfies M v = 0 exactly, and
    rank + len(basis) == cols.  Both are read off
    :func:`rspinrel.linalg.rref`.
    """
    mat = _as_matrix(m)
    rows, pivots = rref(mat.entries)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(mat.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * mat.cols
        v[free] = Fraction(1)
        for row, piv_col in zip(rows, pivots):
            v[piv_col] = Fraction(-row[free], row[piv_col])
        basis.append(tuple(v))
    return len(pivots), basis


def determinant(m):
    """Exact determinant; Bareiss for rational entries, minor expansion for RPoly."""
    mat = _as_matrix(m)
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    if mat.is_polynomial:
        return _minor_expansion_det(mat.entries)
    return _bareiss_det(mat.entries)


def _bareiss_det(entries: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    n = len(entries)
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in entries]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: exact division by the previous pivot.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor_expansion_det(entries) -> RPoly:
    """Cofactor expansion along the rows, memoized on the columns left."""
    n = len(entries)
    cache = {(): RPoly((1,))}

    def minor(cols: tuple[int, ...]) -> RPoly:
        if cols not in cache:
            row = entries[n - len(cols)]
            total = RPoly()
            for pos, col in enumerate(cols):
                if row[col]:
                    term = row[col] * minor(cols[:pos] + cols[pos + 1:])
                    total = total - term if pos % 2 else total + term
            cache[cols] = total
        return cache[cols]

    return minor(tuple(range(n)))


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
        matches_reference=not residual,
        product_form_value=product_form,
        matches_product_form=not (det - product_form),
    )
