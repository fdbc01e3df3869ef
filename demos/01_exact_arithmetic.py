"""Exact rationals, polynomials in r, and exact linear algebra.

Everything downstream is built on these pieces, so this walkthrough shows the
coefficient arithmetic on its own: Fractions, the RPoly ring, interpolation
with a consistency check, and rank/determinant over the rationals.
"""

from fractions import Fraction

from rspinrel import InterpolationError, RPoly, poly_interpolate
from rspinrel.oracles import determinant, rank_and_solve

# Rationals are plain fractions.Fraction: always reduced, exact.
print("1/2 + 1/3 =", Fraction(1, 2) + Fraction(1, 3))
print("(-5/24) / (1/12) =", Fraction(-5, 24) / Fraction(1, 12))

# Polynomials in the formal variable r.
r = RPoly.variable()
p = (r - 1) * (r - 2) * Fraction(1, 24)
print("\n(r-1)(r-2)/24 =", p)
print("value at r=3:", p(3))  # 1/12

# Interpolation recovers a polynomial from exact samples.  One more sample
# than the degree bound needs is supplied, and it must agree -- inconsistent
# data raises instead of being averaged away.
samples = [(x, p(x)) for x in range(3, 8)]
print("\ninterpolated back:", poly_interpolate(samples, degree_bound=2))
try:
    poly_interpolate([(1, 1), (2, 4), (3, 9)], degree_bound=1)
except InterpolationError as exc:
    print("quadratic data under a linear bound ->", exc)

# Exact linear algebra: rank, nullspace, determinant.
rows = [
    [1, -1, 0, 0, 0],
    [2, 0, -1, -1, 0],
    [12, 0, 0, -12, -1],
]
rank, nullspace = rank_and_solve(rows)
print("\nrelation matrix rank:", rank)
print("nullspace dimension:", len(nullspace))
for v in nullspace:
    print("  kernel vector:", v)

print("\ndet of a polynomial matrix:", determinant([[r, RPoly((1,))], [RPoly((1,)), r]]))
