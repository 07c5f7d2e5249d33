"""The q-commuting coordinate ring: normal ordering and graded dimensions.

Generators satisfy z_i z_j = q z_j z_i for i < j.  Sorting a word costs one
inverse power of q per inversion; the graded dimensions reproduce the
holomorphic section counts of the line bundles, which is the ring-theoretic
face of the same theorem.
"""

from qproj.bundles import ker_el_combinatorial
from qproj.coordring import (
    format_monomial,
    graded_dim,
    normal_order,
    tensor_factorize,
)

print("Normal ordering a few words (exponent counts inversions):")
for word in [(2, 1), (3, 2, 1), (2, 3, 1, 2)]:
    e, mono = normal_order(word)
    print("  %s  ->  q^%d * %s" % (word, e, format_monomial(mono)))

print("\nGraded dimensions in ell+1 generators vs kernel counts:")
for ell in (1, 2, 3):
    row = [(N, graded_dim(ell + 1, N), ker_el_combinatorial(ell, N)) for N in range(5)]
    print("  ell=%d: %s" % (ell, ["N=%d: %d=%d" % t for t in row]))

print("\nSplitting a monomial across two degrees (greedy partition, R = 0):")
fac = tensor_factorize((1, 2, 1), 2)
print("  z^[1,2,1] at N=2  ->  q^-%d * %s . %s"
      % (fac.R, format_monomial(fac.left), format_monomial(fac.right)))

print("\nA non-greedy partition pays a commutation exponent:")
fac = tensor_factorize((1, 1, 1), 2, partition=(1, 0, 1))
print("  z^[1,1,1] with r=(1,0,1)  ->  R=%d, %s . %s"
      % (fac.R, format_monomial(fac.left), format_monomial(fac.right)))
print("  (the postcondition Z1 Z2 = q^-R Z is re-verified internally)")
