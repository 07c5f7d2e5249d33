"""Exact q-arithmetic: the two-tier number system.

Symmetric q-integers [z] = (q^z - q^-z)/(q - q^-1) live in an exact Laurent
polynomial ring; evaluation at a rational q in (0, 1) produces arbitrary
precision floats only where square roots make that unavoidable.
"""

from fractions import Fraction

from mpmath import mp

from qproj.qarith import q_binomial, q_factorial, q_int, q_multinomial

q = Fraction(1, 2)

print("The first few symmetric q-integers, exactly:")
for z in range(0, 6):
    print("  [%d] = %s" % (z, q_int(z)))

print("\n[5] evaluated at q = 1/2 with 60 working digits:")
print("  %s" % mp.nstr(q_int(5).eval(q, 60), 25))
print("  (2^-4 + 2^-2 + 1 + 4 + 16 = 21.3125 exactly)")

print("\nq-factorials stay palindromic under q <-> 1/q:")
for n in range(2, 6):
    f = q_factorial(n)
    print("  [%d]! = %s   palindromic: %s" % (n, f, f.is_palindromic()))

print("\nThe q-binomial is exact, built by the q-Pascal rule, and symmetric:")
print("  [4 choose 2] = %s" % q_binomial(4, 2))
print("  [5 choose 2] equals [5 choose 3]: %s" % (q_binomial(5, 2) == q_binomial(5, 3)))

print("\nThe twisted q-multinomial is NOT palindromic; its prefactor shifts it:")
m = q_multinomial((1, 1, 1))
print("  [1,1,1]! = %s   palindromic: %s" % (m, m.is_palindromic()))

print("\nNear q = 1 the q-integer approaches the plain integer:")
near_one = Fraction(999999, 1000000)
for z in (7, 25, 50):
    val = q_int(z).eval(near_one, 60)
    print("  [%-2d](0.999999) = %s" % (z, mp.nstr(val, 12)))
