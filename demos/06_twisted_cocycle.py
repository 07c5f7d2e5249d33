"""Shuffle chains and the twisted cocycle certificate.

Balanced derivative patterns form a flip graph; two chains plus one bridge
telescope the fundamental class into a coboundary, with exact rational
coefficients read off the tree the pairs form.  At ell = 4 the two-chain partition provably cannot
exist (a parity count), yet the membership certificate survives through a
spanning tree of the same flip graph.
"""

from qproj.cocycle import (
    ChainSearchError,
    build_chains,
    solve_cocycle_system,
    twisted_coboundary_check,
    verify_membership,
)

for ell in (1, 2, 3):
    chains = build_chains(ell)
    sol = solve_cocycle_system(ell, 1, chains)
    print("ell=%d: r=%d, bridge at %d, k=%s" % (ell, sol.r, sol.bridge, sol.k))
    if ell == 2:
        print("   chain1:", " -> ".join(chains.chain1))
        print("   chain2:", " -> ".join(chains.chain2))
        print("   coefficients:", [str(v) for v in sol.x])
        print("   (the bare pattern -(2r-i)m, one sign absorbed at i = r+1)")

print("\nell=4: the two-chain partition is impossible:")
try:
    build_chains(4)
except ChainSearchError as exc:
    print("  ", exc)
cert = verify_membership(4)
print("   membership still certified via a spanning tree: %s with %d pairs"
      % (cert.ok, len(cert.pairs)))

print("\nTwisted coboundary checks on the toy q-commuting algebra (exact):")
rep = twisted_coboundary_check(2, seed=0)
print("   b_sigma^2 = 0 for every cochain, at %d tuples" % rep.tuples_checked)
print("   lambda_sigma-invariance kept by b_sigma for every invariant cochain,"
      " at %d tuples" % rep.invariance_tuples)
print("   both certified exactly: %s" % rep.ok)
