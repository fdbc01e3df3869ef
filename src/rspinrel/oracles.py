"""Independent oracles and structural checks, run by ``selftest`` and the tests.

The CLI's ``relations``, ``verify-ac`` and ``pm-table`` never import this
module.  It holds the divisor classes and the basis they form, with
:func:`canonical_divisor`; the codimension-1 graph layer (stable graphs and
their enumeration); :func:`graph_contribution_terms`, the per-graph
contraction oracle for the assembly, and :func:`edge_constant_term` read off
the inverse R-matrix; :func:`metric_matrix`, the forward and whole
R-matrices; the quantum product with its idempotent check in exact
cyclotomic arithmetic (``RPoly`` remainders modulo
:func:`cyclotomic_polynomial`); the determinant, by Bareiss over rationals or
polynomials in r; and the genus-1 system determinant.  Each function of r
takes it as a plain int, as ``relation_row`` does, and refuses one below 3
through ``cohft.check_index``.  Whatever reads P_m(r, a) here looks up
``cohft.p_polynomial`` when called, so a patched table is seen; the relation
path reads P_1 in closed form instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence, Union

from . import cohft
from .cohft import check_index, r_inverse_entry
from .relations import _dilaton_sum, _edge_entries, _leg_sum, _loop_sum, _separating_sum
from .rpoly import RPoly
from .strata import (DELTA_IRR, DELTA_SEP, KAPPA1, PSI, StabilityError,
                     UnsupportedGenusError, _balanced, _lex_subsets, check_space)

Coefficient = Union[Fraction, RPoly]
SYMBOLIC = "symbolic"


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
# The per-graph contraction oracle
# ---------------------------------------------------------------------------


class GraphTerm(NamedTuple):
    """One graph family's contribution to one divisor class."""

    divisor: DivisorClass
    coefficient: Fraction


def graph_contribution_terms(g: int, n: int, a_vec: Sequence[int], r: int) -> list[GraphTerm]:
    """Per-graph, per-divisor coefficients of the codimension-1 part.

    This is the brute-force oracle for the per-key contraction of
    :mod:`rspinrel.relations`: it rebuilds the edge constant terms on every
    call, walks every enumerated graph and contracts each one on its own.
    Zero contributions are kept so callers can see each graph vanish
    individually.  The overall r^(g-1) prefactor is not applied here, and the
    per-family sums' scale 24 is divided out.
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


# ---------------------------------------------------------------------------
# The metric, R-matrices and the quantum product
# ---------------------------------------------------------------------------


def metric_matrix(r: int) -> list[list[Fraction]]:
    """The anti-diagonal pairing eta(a, b) = [a + b == r - 2] on 0..r-2."""
    check_index(0, r)
    return [[Fraction(1 if a + b == r - 2 else 0) for b in range(r - 1)] for a in range(r - 1)]


def r_forward_entry(m: int, a: int, b: int, r: int) -> Fraction:
    """Entry of the R-matrix itself: (-1)^m P_m(r, r-2-b) under b + m = a mod r-1.

    The sign comes from the bracket of the omitted scalar being negated for
    the forward series.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    check_index(a, r)
    check_index(b, r)
    if (b + m - a) % (r - 1) != 0:
        return Fraction(0)
    return (-1) ** m * cohft.p_polynomial(m, r - 2 - b, r)


def r_inverse_matrix(m: int, r: int) -> list[list[Fraction]]:
    """Order-m inverse R-matrix; rows are the upper (output) index."""
    check_index(0, r)
    return [[r_inverse_entry(m, a, b, r) for a in range(r - 1)] for b in range(r - 1)]


def r_forward_matrix(m: int, r: int) -> list[list[Fraction]]:
    """Order-m R-matrix; rows are the upper (output) index."""
    check_index(0, r)
    return [[r_forward_entry(m, a, b, r) for a in range(r - 1)] for b in range(r - 1)]


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


def quantum_structure_constants(r: int) -> StructureConstants:
    """Structure constants of the quantum product at the shift point."""
    check_index(0, r)
    table = tuple(tuple((a + b) % (r - 1) for b in range(r - 1)) for a in range(r - 1))
    return StructureConstants(r=r, table=table)


class IdempotentReport(NamedTuple):
    r: int
    ok: bool
    geometric_sums_ok: bool
    idempotent_identity_ok: bool
    failures: tuple[str, ...]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> RPoly:
    """The m-th cyclotomic polynomial: x^m - 1 over the Phi_d of m's proper
    divisors, each division exact."""
    if m < 1:
        raise ValueError("m must be positive")
    phi = RPoly((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            phi = phi / cyclotomic_polynomial(d)
    return phi


def idempotent_check(r: int) -> IdempotentReport:
    """Verify the discrete-Fourier basis diagonalizes the quantum product.

    With zeta a primitive (r-1)-th root of unity and f_i = sum_a zeta^(a*i) v_a
    over the rescaled basis v_a, checks f_i . f_j = (r-1) delta_ij f_j in exact
    cyclotomic arithmetic, along with the geometric-sum identity
    1 + zeta^x + ... + zeta^((r-2)x) = 0 for x != 0 mod r-1 that drives it.
    An element of Q(zeta) is its polynomial in zeta reduced modulo Phi_(r-1).
    """
    check_index(0, r)
    m = r - 1
    phi = cyclotomic_polynomial(m)
    powers = [divmod(RPoly((0,) * k + (1,)), phi)[1] for k in range(m)]
    failures: list[str] = []

    geometric_ok = True
    for x in range(1, m):
        if sum((powers[k * x % m] for k in range(m)), RPoly()):
            geometric_ok = False
            failures.append(f"geometric sum nonzero for x={x}")

    product_ok = True
    for i in range(m):
        for j in range(m):
            for c in range(m):
                # Coefficient of v_c in f_i . f_j: sum over a+b = c mod r-1
                # of zeta^(a i + b j).
                coeff = sum((powers[(a * i + (c - a) * j) % m] for a in range(m)), RPoly())
                expected = powers[c * j % m] * m if i == j else RPoly()
                if coeff != expected:
                    product_ok = False
                    failures.append(f"product mismatch at i={i} j={j} c={c}")

    return IdempotentReport(
        r=r,
        ok=geometric_ok and product_ok,
        geometric_sums_ok=geometric_ok,
        idempotent_identity_ok=product_ok,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Determinants, and the genus-1 leg/kappa system determinant
# ---------------------------------------------------------------------------


def determinant(rows):
    """Exact determinant of a square matrix given as rows, by Bareiss
    elimination.  Entries are lifted to RPoly when any entry is one, else to
    Fractions; every Bareiss division is exact in Q[r] as in Q, so the result
    is an RPoly or a Fraction to match."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    lift = RPoly.constant if any(isinstance(x, RPoly) for row in rows for x in row) else Fraction
    m = [[x if isinstance(x, RPoly) else lift(x) for x in row] for row in rows]
    sign, prev = 1, lift(1)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return lift(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: exact division by the previous pivot.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else lift(1)


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
    det = determinant(rows + [[1] * n + [-1]])
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
