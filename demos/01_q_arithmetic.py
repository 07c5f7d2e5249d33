"""Exact q-arithmetic: the two-tier number system.

Symmetric q-integers [z] = (q^z - q^-z)/(q - q^-1) live in an exact Laurent
polynomial ring; evaluation at a rational q in (0, 1) produces arbitrary
precision floats only where square roots make that unavoidable.  At one
rational q = a/b the library reads [z] from an integer table instead,
[z] = N_z / (ab)^(|z|-1), and for every q in (0, 1) at once from its sign.
"""

from fractions import Fraction

from mpmath import mp

from qproj.qarith import _q_numbers, q_int

q = Fraction(1, 2)

print("The first few symmetric q-integers, exactly:")
for z in range(0, 6):
    print("  [%d] = %s" % (z, q_int(z)))

print("\n[5] evaluated at q = 1/2 with 60 working digits:")
print("  %s" % mp.nstr(q_int(5).eval(q, 60), 25))
print("  (2^-4 + 2^-2 + 1 + 4 + 16 = 21.3125 exactly)")

print("\nThe same [z] from the integer table at q = 1/2, with no float:")
table = _q_numbers(q)
for z in (1, 2, 5, -3):
    num, power = table[z]
    exact = Fraction(num, table.ab ** power)
    laurent = sum(c * q**e for e, c in q_int(z).coeffs().items())
    print("  [%2d] = %d / 2^%d = %s   equals the Laurent sum: %s"
          % (z, num, power, exact, exact == laurent))

print("\nProducts of q-integers stay palindromic under q <-> 1/q:")
product = q_int(1)
for n in range(2, 6):
    product = product * q_int(n)
    print("  [%d]! = %s   palindromic: %s" % (n, product, product.is_palindromic()))

print("\nOn (0, 1) every [z] has the sign of z, whatever q is:")
for qq in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
    table = _q_numbers(qq)
    signs = [(table[z][0] > 0) - (table[z][0] < 0) for z in range(-3, 4)]
    print("  q = %-5s signs of [-3..3]: %s" % (qq, signs))

print("\nNear q = 1 the q-integer approaches the plain integer:")
near_one = Fraction(999999, 1000000)
for z in (7, 25, 50):
    val = q_int(z).eval(near_one, 60)
    print("  [%-2d](0.999999) = %s" % (z, mp.nstr(val, 12)))
