"""Line bundle sections and the holomorphic kernel count.

The degree-N bundle over quantum projective space decomposes into blocks;
inside each block the bundle conditions cut out exactly one constrained
tableau, found here by applying the actual generator matrices (not by
assuming the known closed-form shape, which serves as a cross-check).
The anti-holomorphic kernel concentrates in the lowest block and its total
dimension matches an explicit sequence count.
"""

from fractions import Fraction

from qproj.bundles import (
    block_weight,
    ker_el_combinatorial,
    ker_el_numeric,
    ln_conditions_filter,
    closed_form_section_tableaux,
)

q = Fraction(1, 2)

print("Blocks of the degree-1 bundle over the quantum projective plane:")
for n1 in range(3):
    w = block_weight(2, 1, n1)
    got = ln_conditions_filter(1, w, q)
    shape = closed_form_section_tableaux(1, w)
    print("  n1=%d weight=%s constrained tableaux=%d matches closed form: %s"
          % (n1, w, len(got), got == shape))

print("\nKernel of the anti-holomorphic action, block by block (ell=2, N=1):")
for rec in ker_el_numeric(2, 1, 3, q):
    print("  n1=%d dim_constrained=%-3d dim_kernel=%d" %
          (rec.n1, rec.dim_constrained, rec.dim_kernel))
print("total kernel = %d; sequence count gives %d"
      % (sum(r.dim_kernel for r in ker_el_numeric(2, 1, 3, q)),
         ker_el_combinatorial(2, 1)))

print("\nHolomorphic section dimensions across degrees (ell = 2):")
for N in range(-3, 5):
    numeric = sum(r.dim_kernel for r in ker_el_numeric(2, N, 2, q))
    print("  N=%+d  sections=%d  (count oracle %d)"
          % (N, numeric, ker_el_combinatorial(2, N)))
