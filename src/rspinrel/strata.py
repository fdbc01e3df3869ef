"""Divisor classes on moduli of stable curves and the basis they form.

Degree-2 cohomology of the moduli space of genus-g curves with n markings is
generated by the cotangent classes psi_1..psi_n, the kappa_1 class, the
irreducible boundary divisor, and the separating boundary divisors
delta_{h,S} (genus h component carrying the marking subset S).  Separating
divisors are stored canonically with respect to the symmetry
(h, S) ~ (g-h, complement of S).

The decorated graphs whose reconstruction term can land in codimension 1,
and their enumeration, live in :mod:`rspinrel.oracles`: the relation assembly
reads each class's coefficient off the class itself, and only the per-graph
oracle walks the graphs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

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
