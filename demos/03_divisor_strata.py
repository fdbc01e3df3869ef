"""Divisor classes and the decorated graphs that carry the relation terms.

Degree-2 cohomology has a standard generator list per (g, n); each relation
term traces back to a decorated stable graph of codimension 1.
"""

from rspinrel import delta_sep, divisor_generators
from rspinrel.oracles import (
    canonical_divisor,
    divisor_class_of,
    enumerate_contributing_graphs,
)

# Generator lists.  Separating boundary classes are canonical with respect to
# swapping the two sides of the node.
for g, n in ((1, 2), (1, 3), (2, 0), (2, 2)):
    gens = divisor_generators(g, n)
    print(f"(g={g}, n={n}): {len(gens)} generators:",
          ", ".join(d.render() for d in gens))

# Canonicalization in action: the genus-2 side with the empty marking set is
# rewritten through its complement, and in genus 3 the two labels of the same
# boundary divisor collapse.
print("\n(2, {}) on the 2-marked genus-2 space ->",
      canonical_divisor(delta_sep(2, ()), 2, 2).render())
print("(2, {}) on the unmarked genus-3 space ->",
      canonical_divisor(delta_sep(2, ()), 3, 0).render())

# The graphs that can contribute in codimension 1.
print("\ncontributing graphs for (g=1, n=2):")
contribs = enumerate_contributing_graphs(1, 2)
for c in contribs:
    edge_note = f"{len(c.graph.edges)} edge(s)" if c.graph.edges else "smooth"
    print(f"  {c.kind:>16}: {edge_note}")

print("\nboundary classes of the one-edge graphs:")
for c in contribs:
    if c.graph.edges:
        print(f"  {c.kind} -> {divisor_class_of(c.graph, 1, 2).render()}")
