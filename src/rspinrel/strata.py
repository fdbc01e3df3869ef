"""The divisor basis of moduli of stable curves, by name and by size.

Degree-2 cohomology of the moduli space of genus-g curves with n markings is
generated by the cotangent classes psi_1..psi_n, the kappa_1 class, the
irreducible boundary divisor, and the separating boundary divisors
delta_{h,S} (genus h component carrying the marking subset S).  Separating
divisors are listed canonically with respect to the symmetry
(h, S) ~ (g-h, complement of S): h < g-h, or h = g-h and S is no later than
its complement as a sorted tuple.  This module names the basis directly in
(h, sorted S) order, without canonicalizing or sorting, gives its size in
closed form and refuses a space too large to print; its kind constants key
the relation assembly's coefficients.  It also holds every relation's degree
gate, :func:`phi_degree`, the one place its bound and parity are written, and
:class:`DegreeGateError`, the refusal raised when that gate is closed.

The divisor classes and the basis they form, the decorated graphs whose
reconstruction term can land in codimension 1, their enumeration and
``canonical_divisor`` live in :mod:`rspinrel.oracles`: the relation assembly
reads coefficient keys and builds no class, and only the oracles,
``selftest``, the demos and the tests build one.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

PSI = "psi"
KAPPA1 = "kappa1"
DELTA_IRR = "delta_irr"
DELTA_SEP = "delta_sep"


class StabilityError(ValueError):
    """A requested vertex or divisor violates 2g - 2 + n > 0."""


class UnsupportedGenusError(ValueError):
    """Genus outside the range this library enumerates."""


class PhiDegreeReport(NamedTuple):
    value: int                 # numerator of the exponent times (r - 1)
    relation_exists: bool      # value < 0, i.e. the class in this degree vanishes
    d_integral: bool           # value divisible by r - 1


def witten_degree(g: int, n: int, a_vec: Sequence[int], r: int) -> Fraction:
    """Intrinsic complex degree ((r-2)(g-1) + sum a_i) / r of the class."""
    from fractions import Fraction

    if r < 3:
        raise ValueError("r must be at least 3")
    if len(a_vec) != n:
        raise ValueError("a_vec length must equal n")
    for a in a_vec:
        if not 0 <= a <= r - 2:
            raise ValueError(f"insertion {a} out of range 0..{r - 2}")
    return Fraction((r - 2) * (g - 1) + sum(a_vec), r)


def phi_degree(g: int, a_vec: Sequence[int], r: int) -> PhiDegreeReport:
    """Total-degree bookkeeping for a codimension-1 relation candidate.

    Returns d*(r-1) = sum(a_i) + (g-1)(r-2) - r together with the existence
    flag (negative value means the degree-1 part vanishes, hence a relation)
    and whether d itself is an integer, which holds iff sum(a) = g mod r-1.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    value = sum(a_vec) + (g - 1) * (r - 2) - r
    return PhiDegreeReport(value, value < 0, value % (r - 1) == 0)


class DegreeGateError(ValueError):
    """No relation exists at this degree: the class degree is not exceeded.
    Built from the leg vector's sum, so a refusal at any n builds no vector;
    its message writes the class degree in lowest terms from integers, as
    str(Fraction) does, and ``witten_degree``, that of :func:`witten_degree`,
    is built only when read, so a refusal loads no rationals.  It pickles and
    copies as the four integers it is built from."""

    def __init__(self, g: int, n: int, a_sum: int, r: int):
        self._gate = g, n, a_sum, r
        self._degree = ((r - 2) * (g - 1) + a_sum, r)
        num, den = (x // gcd(*self._degree) for x in self._degree)
        super().__init__(
            f"no relation in codimension D = 1 for (g, n, r) = ({g}, {n}, {r}) "
            f"with sum(a) = {a_sum}: the class has degree {num}"
            + (f"/{den}" if den != 1 else "") + " and the degree-1 part need not vanish"
        )

    def __reduce__(self):
        return type(self), self._gate

    @property
    def witten_degree(self) -> Fraction:
        from fractions import Fraction

        return Fraction(*self._degree)


# The largest divisor basis a relation command answers on.  Relations are
# computed over a few features per marking, but a printed relation is a dense
# row over the basis, and genus 1 with n markings has 2^n + 1 classes, so this
# admits genus 1 up to n = 15 (32,769 classes) and genus 2 up to n = 14 (24,577).
MAX_BASIS_SIZE = 40_000


def generator_names(g: int, n: int) -> list[str]:
    """The rendered name of each class of the (g, n) basis, in basis order,
    from the subsets' texts rather than by sorting each class's markings.
    Built afresh on each call."""
    check_space(g, n)
    texts = _lex_subsets(n)
    names = [f"psi_{i}" for i in range(1, n + 1)] + ["kappa_1", "delta_irr"]
    for h in range(g // 2 + 1):
        if 2 * h == g:
            chosen = _balanced(texts, n)
        else:  # |S| >= 2 when h = 0
            chosen = [t for t in texts if h or "," in t]
        names += [f"delta_{{{h},{{{t}}}}}" for t in chosen]
    return names


def basis_size(g: int, n: int) -> int:
    """The number of classes in the (g, n) basis, for g >= 1: n psi
    classes, kappa_1, delta_irr, and the (g+1)·2^n pairs (h, S) less the
    2(n+1) with an unstable side (genus 0 with at most one marking), halved
    for (h, S) ~ (g-h, S^c), whose one fixed pair is (g/2, {}) when n = 0
    and g is even."""
    return n + 2 + ((g + 1) * 2 ** n - 2 * (n + 1) + (n == 0 and g % 2 == 0)) // 2


def check_space(g: int, n: int) -> None:
    """Refuse genus below 1, a negative n, an unstable (g, n) and a basis above
    MAX_BASIS_SIZE.  Every basis has more than 2^n classes, so a large n is
    refused before 2^n is built, and a size too long to print is given as a
    power of two."""
    if g < 1:
        raise UnsupportedGenusError("genus-0 generators are out of scope")
    if n < 0:
        raise ValueError("the number of markings must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise StabilityError(f"(g, n) = ({g}, {n}) is unstable")
    if n > 64:
        shown = f"at least 2^{n}"
    else:
        size = basis_size(g, n)
        if size <= MAX_BASIS_SIZE:
            return
        shown = size if size.bit_length() <= 64 else f"at least 2^{size.bit_length() - 1}"
    raise ValueError(
        f"the divisor basis for (g, n) = ({g}, {n}) has {shown} classes, "
        f"above the limit of {MAX_BASIS_SIZE}"
    )


def _lex_subsets(n: int) -> list[str]:
    """Every subset of 1..n in lexicographic order, its entries joined by
    commas: the subsets of k..n are {}, then k joined to each subset of
    k+1..n, then the nonempty subsets of k+1..n."""
    subsets = [""]
    for k in range(n, 0, -1):
        prefix = f"{k},"
        subsets = subsets[:1] + [str(k)] + [prefix + t for t in subsets[1:]] + subsets[1:]
    return subsets


def _balanced(subsets: list, n: int) -> list:
    """The S of the canonical delta_{g/2,S} among the lexicographic subsets:
    {} and the 2^(n-1) after it, which hold marking 1, less the n-th, {1..n}."""
    return subsets[:max(n, 1)] + subsets[n + 1:(1 << n >> 1) + 1]
