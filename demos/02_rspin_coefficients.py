"""The r-spin coefficient data: P_m values, R-matrix entries, field theory.

The degree-2 relations are linear combinations whose coefficients all come
from P_m(r, a), a family of rationals defined by a two-sum recursion.  This
script prints the small tables and checks the structural identities that the
library also enforces in its tests.
"""

from fractions import Fraction

from rspinrel import (
    p_polynomial,
    p_polynomial_symbolic,
    phi_degree,
    topological_value,
    witten_degree,
)
from rspinrel.oracles import (
    idempotent_check,
    quantum_structure_constants,
    r_forward_matrix,
    r_inverse_matrix,
)

r = 5
print(f"r = {r}: state space indices 0..{r - 2}, metric pairs a with r-2-a")

print("\nP_m(r, a) table:")
for m in range(3):
    row = [p_polynomial(m, a, r) for a in range(r - 1)]
    print(f"  m={m}:", row)

print("\nP_1 symbolically in r, for a = 0, 1, 2:")
for a in range(3):
    print(f"  a={a}:", p_polynomial_symbolic(1, a))

# Row sums of the m=1 table follow a closed form; this is the total that the
# one-loop graph contributes on the irreducible boundary divisor.
total = sum(p_polynomial(1, a, r) for a in range(r - 1))
print("\nsum of the m=1 row:", total, "= (r-1)(r-2)/24:",
      total == Fraction((r - 1) * (r - 2), 24))

# The R-matrix and its inverse, order by order.  Multiplying the truncations
# must give the identity through the truncation order.
d = r - 1
for m in (1, 2):
    residual = [[Fraction(0)] * d for _ in range(d)]
    for k in range(m + 1):
        left = r_forward_matrix(k, r)
        right = r_inverse_matrix(m - k, r)
        for i in range(d):
            for j in range(d):
                residual[i][j] += sum(left[i][t] * right[t][j] for t in range(d))
    print(f"order-{m} coefficient of R(z) * inverse R(z) is zero:",
          all(x == 0 for row in residual for x in row))

# Degree-zero values of the field theory on a vertex.
print("\ngenus-1 vertex with two unit insertions at r=3:",
      topological_value(1, (0, 0), 3))

# The quantum product at the shift point is a cyclic group algebra; its
# discrete-Fourier basis diagonalizes it, checked in cyclotomic arithmetic.
sc = quantum_structure_constants(r)
print("\nproduct of basis indices 2 and 3 lands at index:", sc.product_index(2, 3))
print("idempotent report:", idempotent_check(r).ok)

# Degree bookkeeping that gates relation existence.
print("\nclass degree (g=2, no markings, r=3):", witten_degree(2, 0, (), 3))
print("gate report:", phi_degree(2, (), 3))
print("gate report for g=4 (no relation):", phi_degree(4, (), 3))
