"""Behaviour of the log form near a cluster collapse
=====================================================

The logarithmic form develops dr/r singularities when aerial points
collapse; contracting with the cluster rotation generator removes them.
Along a family whose cluster scale shrinks to zero the contracted values
converge, the extrapolated limit factorizes through the contracted graph,
and clusters of three or more points contribute nothing at all.
"""

import cmath
import math

from kwl import (TYPE_I, collapse_layout, contracted_integrand, counterterm_probe,
                 degenerating_family, make_configuration, parse_graph)

# a two-point cluster in a top-degree graph: pointwise convergence
g = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
pair = collapse_layout(g.n, g.m, [0, 1], TYPE_I)
outer = make_configuration([cmath.exp(0.9j)], [0.0])
shape = (cmath.exp(0.4j) / math.sqrt(2), -cmath.exp(0.4j) / math.sqrt(2))
print("contracted integrand along a degenerating family:")
for r in (1e-2, 1e-3, 1e-4, 1e-5):
    cfg = degenerating_family(outer, pair, shape, r)
    val = contracted_integrand(g, "log", cfg, pair)
    print(f"  r = {r:.0e}: {val:.8f}")

# the full probe averages over the collapse circle and extrapolates;
# here the contracted graph is not of top degree, so the limit is zero
rep = counterterm_probe(g, [0, 1], "log", seed=3)
print(f"extrapolated limit: {abs(rep.limit):.2e}  expected {abs(rep.expected):.2e}")

# one degree lower the factorization is visible directly: the limit equals
# 1/(2 pi) times the contracted graph's integrand, here nonzero
g2 = parse_graph("2 2 ; a1>a2 a1>g1 a2>g2")
rep2 = counterterm_probe(g2, [0, 1], "log", seed=3)
print(f"\nfactorization one degree down: limit  = {rep2.limit.real:+.8f}")
print(f"                               target = {rep2.expected.real:+.8f}")

# three collapsing points: the regularized contribution vanishes
g3 = parse_graph("3 1 ; a1>a2 a1>a3 a2>a3 a2>g1 a3>g1")
rep3 = counterterm_probe(g3, [0, 1, 2], "log", seed=3)
print(f"\nthree-point collapse limit: {abs(rep3.limit):.2e}  (vanishes)")
