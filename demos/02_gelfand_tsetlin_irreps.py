"""Gelfand-Tsetlin bases: enumerate tableaux, build matrices, verify relations.

Every irreducible module is enumerated from its interlacing patterns,
the generator matrices are filled from the square-root coefficient formula,
and the full set of defining relations is then checked numerically at
sixty digits.  The dimension always agrees with the Weyl product formula,
an independent counting route.
"""

from fractions import Fraction

from mpmath import mp

from qproj.gtrep import build_irrep, enumerate_tableaux, verify_relations, weyl_dim

q = Fraction(1, 2)

print("Tableaux of the su(3) module with highest weight (1, 1):")
for t in enumerate_tableaux((1, 1)):
    print("   top %s | middle %s | bottom %s" % (t.row(3), t.row(2), t.row(1)))
print("count = %d, Weyl formula gives %d" % (len(enumerate_tableaux((1, 1))), weyl_dim((1, 1))))

print("\nDefining representation of su(4): each raising matrix is a matrix unit.")
mod = build_irrep((0, 0, 1), q, 60)
for k in (1, 2, 3):
    entries = {(i, j): mp.nstr(v, 6) for (i, j), v in mod.E[k].entries()}
    print("  E_%d nonzeros: %s" % (k, entries))

print("\nRelation residuals for the weight (1, 0, 1) module (dim %d):" % weyl_dim((1, 0, 1)))
report = verify_relations(build_irrep((1, 0, 1), q, 60), mp.mpf("1e-40"))
worst = max(report.checks, key=lambda c: c.residual)
print("  %d relations checked, worst: %s at %s" % (
    len(report.checks), worst[0], mp.nstr(worst[1], 5)))
print("  all within 1e-40: %s" % report.ok)

print("\nSpin matrices at weight (3) reproduce the familiar su_q(2) entries:")
mod2 = build_irrep((3,), q, 60)
for (i, j), v in sorted(mod2.E[1].entries()):
    print("  <%d|E|%d> = %s" % (i, j, mp.nstr(v, 12)))
