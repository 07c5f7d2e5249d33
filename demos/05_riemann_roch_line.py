"""Riemann-Roch on the quantum projective line, and plane identities.

The two-term complex at degree N is block scalar; kernel and cokernel are
read off blockwise and the Euler characteristic comes out -N + 1 for every
degree, stable under the truncation cutoff.  Note the sign switch of N
relative to the classical count.  The quantum plane coefficient identities
are verified as q-number radical cancellations.
"""

from fractions import Fraction

from mpmath import mp

from qproj.dolbeault import cp1_euler_characteristic, cp2_coefficient_identity

q = Fraction(1, 2)

print("Euler characteristic of the degree-N bundle on the quantum line,")
print("the same for every q in (0, 1):")
print("  N    ker  coker  chi   stable")
for N in range(-4, 5):
    r = cp1_euler_characteristic(N, 8)
    print("  %+d    %-4d %-6d %+d    %s" % (N, r.dim_ker, r.dim_coker, r.chi, r.stable))
print("  (chi = -N + 1 throughout)")

print("\nDegree-2 coefficient identities on the quantum plane, n = 1..8:")
report = cp2_coefficient_identity(range(1, 9), [q], 60)
for row in report.rows:
    print("  n=%d residuals: mixed %s, scalar %s" %
          (row.n, mp.nstr(row.residual_mixed, 3), mp.nstr(row.residual_scalar, 3)))
print("all below 1e-30: %s" % report.ok)
