"""Hyperelliptic irreducible rational curves and the double-point locus.

An irreducible rational nodal curve is hyperelliptic exactly when its
node divisors (one degree-2 form per node) lie in a common pencil: a rank
condition on a #nodes x 3 matrix.  The dimension of the locus of classes
with two sections in degree g - 1 then jumps from g - 4 to g - 3, which
the exhaustive counts across primes see as linear growth.
"""

import itertools

from nodaltheta.graph_curve import (
    GluedLineBundle,
    h0,
    hyperelliptic_rational,
    rational_curve,
    symbolic_theta_polynomial,
    w1_dimension_probe,
)

# Genus 4: four nodes on one projective line.  Fibers of x -> x^2 give a
# pencil configuration; spread-out pairs give a generic one.
hyper_pairs = [(1, -1), (2, -2), (3, -3), (4, -4)]
generic_pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]

print("pencil test, p = 13:")
print("  square-map fibers :",
      hyperelliptic_rational(rational_curve(13, hyper_pairs)))
print("  spread-out pairs  :",
      hyperelliptic_rational(rational_curve(13, generic_pairs)))

primes = (11, 13, 17)
hyper = w1_dimension_probe(hyper_pairs, primes)
generic = w1_dimension_probe(generic_pairs, primes)
print("\ncounts of classes with two sections in degree 3:")
print("  hyperelliptic:", hyper.counts,
      "growth exponent ~", round(hyper.fit.slope, 3), "(dimension g - 3 = 1)")
print("  generic:      ", generic.counts, "(bounded: dimension g - 4 = 0)")

# Genus 3, generic: the locus is empty over every prime.
g3 = w1_dimension_probe([(0, 1), (2, 3), (4, 5)], (7, 11, 13))
print("  genus 3 generic:", g3.counts)

# Genus 3, hyperelliptic: the locus is the single double-cover class,
# visible as exactly one gluing with two sections over every prime.
g3h = w1_dimension_probe([(1, -1), (2, -2), (3, -3)], (7, 11, 13))
print("  genus 3 pencil: ", g3h.counts)
curve = rational_curve(11, [(1, -1), (2, -2), (3, -3)])
print("  ...and that class has h0 =",
      h0(curve, GluedLineBundle((2,), (1, 1, 1))))

# The square gluing system has a determinant: an exact polynomial in the
# free scalars whose zero set is the effective locus.  The direct count
# takes h0 at each of the 6^3 gluings of the three loops.
curve = rational_curve(7, [(1, -1), (2, -2), (3, -3)])
poly = symbolic_theta_polynomial(curve, (2,))
direct = sum(h0(curve, GluedLineBundle((2,), gluing)) >= 1
             for gluing in itertools.product(range(1, 7), repeat=3))
print("\nsymbolic determinant over F_7 in", poly.variables)
print("  terms:", poly.terms)
print("  zeros on the torus:", poly.zero_count(), "== direct count:", direct)

# Factorization over F_p is available in one variable: a one-nodal curve
# of genus 1 has a linear determinant, a tiny irreducibility certificate.
one_node = rational_curve(7, [(0, 1)])
linear = symbolic_theta_polynomial(one_node, (0,))
print("  genus-1 determinant:", linear.terms,
      "irreducible factors:", linear.factor_count())
